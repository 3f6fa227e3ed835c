"""The tuner and Table 1 compile in the calling process.

A DSPStone kernel compiles in a few milliseconds, less than a process
pool takes to start, so neither harness hands its compiles to the farm
whatever the worker count.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.dspstone import kernel
from repro.evalx.table1 import compute_table1
from repro.tune import TuneConfig, tune_kernel, tune_program
from repro.tune.measure import clear_measure_pools


@pytest.fixture()
def pools(monkeypatch):
    """The worker count of every process pool built while a test runs,
    with two workers on offer; no pool actually starts."""
    built = []

    class _Recording:
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            raise OSError("no process pool in this test")

    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _Recording)
    clear_measure_pools()
    yield built
    clear_measure_pools()


def test_tune_program_builds_no_pool(pools):
    outcome = tune_program(kernel("fir").program, "m56",
                           config=TuneConfig(budget=16))
    assert outcome.budget_used > 1
    assert pools == []


def test_table1_builds_no_pool(pools):
    rows = compute_table1(seeds=1)
    assert rows and all(row.verified for row in rows)
    assert pools == []


def test_tune_kernel_takes_no_worker_count():
    with pytest.raises(ValueError):
        tune_kernel("fir", jobs=2)
