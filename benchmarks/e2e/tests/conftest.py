"""Run the benchmark's tests against this checkout's ``src/``."""

from benchmarks.e2e.run import use_checkout

use_checkout()
