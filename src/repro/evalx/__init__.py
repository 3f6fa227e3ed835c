"""Experiment harness: regenerates every table and figure of the paper.

One module per experiment (see DESIGN.md's experiment index); the
``benchmarks/`` directory wraps these in pytest-benchmark entry points
and EXPERIMENTS.md records the measured-vs-paper comparison.
"""

from repro.evalx.farm import CompileJob, Result, VerifyJob, run_many
from repro.evalx.table1 import Table1Row, compute_table1, format_table1

__all__ = ["CompileJob", "Result", "VerifyJob", "run_many",
           "Table1Row", "compute_table1", "format_table1"]
