"""Parallel conformance + artifact cache: same triage, fewer compiles.

The promises under test:

- ``run_conformance(jobs=N)`` produces a byte-identical triage report
  to the serial loop for any worker count, with or without the
  persistent artifact cache, warm or cold (``ConformanceReport
  .triage_json``);
- every degradation path -- a worker raising (even an unpicklable
  exception), the pool failing to start, a cache entry corrupted on
  disk mid-run -- ends in the same triage result as a clean serial
  run, never a crash;
- a second run over an unchanged tree performs **zero** compiles
  (100% artifact-cache hits), including through the CLI.

Parallel runs force ``max_workers=2`` so job/verdict pickling is
genuinely exercised even on a single-core machine.
"""

from __future__ import annotations

import json
import logging
import pickle
import random

import pytest

import repro.cache
from repro.evalx import farm
from repro.evalx.farm import (
    VerifyJob, clear_worker_session, run_job, run_many,
)
from repro.selftest.generator import Fault
from repro.verify.corpus import program_to_spec
from repro.verify.diff import run_conformance
from repro.verify.progen import generate_inputs, generate_program
from tests.cache.store_rows import connect


@pytest.fixture(autouse=True)
def _no_leaked_cache():
    """Every test starts and ends with caching off."""
    repro.cache.configure(None)
    yield
    repro.cache.configure(None)


def _triage(report) -> str:
    return json.dumps(report.triage_json(), sort_keys=True)


def _job(seed: int = 11, targets=("tc25",), fault=None) -> VerifyJob:
    rng = random.Random(seed)
    program = generate_program(rng, seed)
    inputs = tuple(generate_inputs(rng, program) for _ in range(2))
    return VerifyJob(program_spec=program_to_spec(program),
                     input_sets=inputs, targets=tuple(targets),
                     fault=fault, seed=seed)


# ----------------------------------------------------------------------
# Triage equality: serial == parallel == cached
# ----------------------------------------------------------------------

def test_parallel_triage_matches_serial():
    serial = run_conformance(count=3, seed=0, targets=("tc25", "risc16"))
    parallel = run_conformance(count=3, seed=0,
                               targets=("tc25", "risc16"), jobs=2)
    assert _triage(parallel) == _triage(serial)
    assert [v.name for v in parallel.verdicts] \
        == [v.name for v in serial.verdicts]
    assert parallel.jobs == 2 and serial.jobs == 1


def test_parallel_detects_injected_fault_like_serial():
    fault = Fault("ADD", "SUB")
    serial = run_conformance(count=4, seed=3, targets=("tc25",),
                             fault=fault)
    parallel = run_conformance(count=4, seed=3, targets=("tc25",),
                               fault=fault, jobs=2)
    assert serial.mismatches, "the seeded fault must be detected"
    assert _triage(parallel) == _triage(serial)


def test_warm_cache_triage_matches_cold(tmp_path):
    cold_plain = run_conformance(count=2, seed=0, targets=("tc25",))
    repro.cache.configure(tmp_path / "cache")
    cold = run_conformance(count=2, seed=0, targets=("tc25",))
    warm = run_conformance(count=2, seed=0, targets=("tc25",))
    assert _triage(cold_plain) == _triage(cold) == _triage(warm)
    assert cold.compile_counts()["compiles"] > 0
    assert warm.compile_counts() == {
        "compiles": 0,
        "artifact_hits": cold.compile_counts()["compiles"]}


def test_second_run_compiles_zero_programs(tmp_path):
    """Acceptance: an unchanged tree never compiles twice."""
    repro.cache.configure(tmp_path / "cache")
    first = run_conformance(count=3, seed=0, jobs=2)
    second = run_conformance(count=3, seed=0, jobs=2)
    assert first.compile_counts()["compiles"] > 0
    counts = second.compile_counts()
    assert counts["compiles"] == 0
    assert counts["artifact_hits"] == first.compile_counts()["compiles"]
    assert _triage(first) == _triage(second)


# ----------------------------------------------------------------------
# Farm-level verify jobs
# ----------------------------------------------------------------------

def test_verify_job_pickles_small():
    job = _job()
    assert pickle.loads(pickle.dumps(job)) == job


def test_verify_jobs_order_and_serial_parallel_equality():
    jobs = [_job(seed) for seed in (5, 6, 7)]
    clear_worker_session()
    serial = run_many(jobs, max_workers=1)
    parallel = run_many(jobs, max_workers=2)
    assert [r.job for r in serial] == jobs
    assert [r.job for r in parallel] == jobs
    for left, right in zip(serial, parallel):
        assert left.ok and right.ok
        assert [o.describe() for o in left.payload.outcomes] \
            == [o.describe() for o in right.payload.outcomes]


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "parallel"])
def test_worker_error_travels_as_string(workers):
    """A failing job reports in order instead of killing the farm.

    The broken spec raises inside the worker; only the stringified
    error crosses the process boundary, so even exception types that
    cannot pickle report cleanly.
    """
    bad = VerifyJob(program_spec={"name": "broken", "symbols": [],
                                 "body": [{"kind": "no-such-kind"}]},
                    input_sets=({},), targets=("tc25",))
    jobs = [_job(5), bad, _job(7)]
    results = run_many(jobs, max_workers=workers)
    assert [r.job for r in results] == jobs
    good_first, broken, good_last = results
    assert good_first.ok and good_last.ok
    assert not broken.ok and broken.payload is None
    assert broken.error_type == "ValueError"
    assert "no-such-kind" in broken.error
    # identical straight from run_job (the serial fallback path):
    direct = run_job(bad)
    assert (direct.error_type, direct.error) \
        == (broken.error_type, broken.error)


def test_pool_startup_failure_falls_back_to_serial(monkeypatch):
    class _RefusesToStart:
        def __init__(self, *args, **kwargs):
            raise OSError("no process pool in this environment")

    jobs = [_job(5), _job(6)]
    clear_worker_session()
    expected = run_many(jobs, max_workers=1)
    monkeypatch.setattr(farm.concurrent.futures, "ProcessPoolExecutor",
                        _RefusesToStart)
    clear_worker_session()
    degraded = run_many(jobs, max_workers=2)
    assert all(r.ok for r in degraded)
    assert [
        [o.describe() for o in r.payload.outcomes] for r in degraded
    ] == [
        [o.describe() for o in r.payload.outcomes] for r in expected
    ]


def test_run_conformance_jobs_survive_pool_failure(monkeypatch):
    serial = run_conformance(count=2, seed=0, targets=("tc25",))

    class _RefusesToStart:
        def __init__(self, *args, **kwargs):
            raise OSError("no process pool in this environment")

    monkeypatch.setattr(farm.concurrent.futures, "ProcessPoolExecutor",
                        _RefusesToStart)
    degraded = run_conformance(count=2, seed=0, targets=("tc25",),
                               jobs=2)
    assert _triage(degraded) == _triage(serial)


# ----------------------------------------------------------------------
# Cache corruption mid-run
# ----------------------------------------------------------------------

def test_corrupt_cache_entries_recompile_with_warning(tmp_path, caplog):
    cache = repro.cache.configure(tmp_path / "cache")
    clean = run_conformance(count=2, seed=0, targets=("tc25",))
    db = connect(cache)
    try:
        flipped = db.execute(
            "UPDATE entries SET blob = ? WHERE kind = 'artifact'",
            (b"flipped bits, truncated writes, bit rot",)).rowcount
    finally:
        db.close()
    assert flipped > 0
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        rerun = run_conformance(count=2, seed=0, targets=("tc25",))
    assert _triage(rerun) == _triage(clean)
    assert rerun.compile_counts()["compiles"] \
        == clean.compile_counts()["compiles"], \
        "every corrupt entry must be recompiled"
    assert cache.stats.corrupt_entries > 0
    assert any("corrupt" in record.message for record in caplog.records)


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------

def _cli(tmp_path, name, *extra):
    from repro.verify.__main__ import main
    out = tmp_path / f"{name}.json"
    status = main(["--count", "2", "--seed", "0", "--targets", "tc25",
                   "--cache-dir", str(tmp_path / "cli-cache"),
                   "--json", str(out), *extra])
    assert status == 0
    return json.loads(out.read_text())


def test_cli_second_invocation_is_all_hits(tmp_path):
    first = _cli(tmp_path, "first", "--jobs", "2")
    second = _cli(tmp_path, "second", "--jobs", "2")
    assert first["performance"]["cache"]["compiles"] > 0
    assert second["performance"]["cache"]["compiles"] == 0
    assert second["performance"]["cache"]["hit_rate"] == 1.0
    assert second["performance"]["programs_per_second"] > 0
    drop = ("elapsed_seconds", "performance")
    assert {k: v for k, v in first.items() if k not in drop} \
        == {k: v for k, v in second.items() if k not in drop}


def test_cli_no_cache_disables_artifact_store(tmp_path):
    _cli(tmp_path, "seed-the-cache")          # warm the cache dir
    report = _cli(tmp_path, "uncached", "--no-cache")
    assert report["performance"]["cache"]["compiles"] > 0
    assert report["performance"]["cache"]["artifact_hits"] == 0
    assert report["performance"]["jobs"] == 1
    assert report["performance"]["stage_timings_seconds"]
