"""Measurement-driven autotuning of the RECORD pipeline.

The paper's claim is that code quality on irregular core processors
comes from how the optimization phases are *steered* -- selection
metric, algebraic variants, offset/bank assignment, compaction -- and
the survey literature shows no single steering wins everywhere.  This
package turns that observation into an instrument: given a program and
a target, search the :class:`~repro.codegen.pipeline.RecordOptions`
knob space, measure every candidate in **real cycles on the jit
simulator tier**, check each against the independent IR-level oracle,
and persist the per-kernel best into a tuning database the rest of the
system can consult.

Layers (each its own module):

- :mod:`repro.tune.space`   -- the knob space, target-aware;
- :mod:`repro.tune.measure` -- cached, oracle-checked cycle
  measurements through a tune cell that selects once per selection
  key and simulates once per compiled program (records live in the
  persistent artifact cache);
- :mod:`repro.tune.search`  -- the staged, budgeted search (screen
  single-knob deviations, cross the movers), run in the calling
  process;
- :mod:`repro.tune.db`      -- the atomic-JSON tuning database;
- :mod:`repro.tune.tuned`   -- :class:`TunedCompiler`, a drop-in
  ``record`` compiler that applies stored per-program bests.

Quick use::

    from repro.tune import tune_kernel, TuningDB, TunedCompiler

    outcome = tune_kernel("fir", target="tc25")
    print(outcome.default.total_cycles, "->", outcome.best_cycles)

    db = TuningDB.load(".repro-tune.json")
    db.record(kernel("fir").program, "tc25",
              {"options": outcome.best_options})
    db.save()

CLI: ``python -m repro tune fir --target tc25 --budget 48 --json -``.
Benchmark + contracts: ``benchmarks/bench_tune.py`` -> BENCH_TUNE.json.
"""

from __future__ import annotations

from repro.tune.db import TuningDB, default_db_path, program_digest
from repro.tune.measure import Measurement, measure_cell, \
    measurement_key
from repro.tune.search import (
    TuneConfig, TuneError, TuneOutcome, default_input_sets,
    tune_kernel, tune_program, verify_selection,
)
from repro.tune.space import KNOBS, relevant_knobs
from repro.tune.tuned import TunedCompiler

__all__ = [
    "KNOBS",
    "Measurement",
    "TuneConfig",
    "TuneError",
    "TuneOutcome",
    "TunedCompiler",
    "TuningDB",
    "default_db_path",
    "default_input_sets",
    "measure_cell",
    "measurement_key",
    "program_digest",
    "relevant_knobs",
    "tune_kernel",
    "tune_program",
    "verify_selection",
]
