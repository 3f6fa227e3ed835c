"""The compile farm: serial and parallel runs are indistinguishable.

``run_many`` promises result lists in job order with identical
contents whether the jobs ran in-process or on a process pool, and that
a failing job travels back as a :class:`Result` error instead of
killing the farm.  The parallel runs here force a pool even on a
single-core machine (``max_workers=2``), so pickling of jobs and
compiled programs is genuinely exercised.
"""

import concurrent.futures
import logging
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.evalx import farm
from repro.evalx.farm import (
    CompileJob, Result, default_workers, run_job, run_many,
)

_JOBS = [
    CompileJob(kernel=kernel, compiler=compiler, target=target)
    for kernel in ("real_update", "fir", "dot_product")
    for compiler, target in (("record", "tc25"), ("baseline", "tc25"),
                             ("record", "m56"), ("record", "risc16"),
                             ("hand", "tc25"))
]

# The baseline compiler is target-specific by design: pointing it at
# the M56 raises CompileError inside the worker.
_BAD_JOB = CompileJob(kernel="fir", compiler="baseline", target="m56")


def _fingerprint(results):
    return [
        (result.job, result.ok, result.error_type,
         result.payload.listing() if result.ok else result.error)
        for result in results
    ]


def test_serial_matches_parallel():
    serial = run_many(_JOBS, max_workers=1)
    parallel = run_many(_JOBS, max_workers=2)
    assert _fingerprint(serial) == _fingerprint(parallel)


def test_results_in_job_order():
    results = run_many(_JOBS, max_workers=2)
    assert [result.job for result in results] == _JOBS
    assert all(result.ok for result in results)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "parallel"])
def test_compile_error_is_captured_in_order(workers):
    """A CompileError from one worker neither kills the farm nor
    perturbs the ordering of its neighbours' results."""
    jobs = [_JOBS[0], _BAD_JOB, _JOBS[2]]
    results = run_many(jobs, max_workers=workers)
    assert [result.job for result in results] == jobs
    good_first, bad, good_last = results
    assert good_first.ok and good_last.ok
    assert not bad.ok
    assert bad.payload is None
    assert bad.error_type == "CompileError"
    assert "target-specific" in bad.error
    # and the same failure reads identically straight from run_job:
    direct = run_job(_BAD_JOB)
    assert (direct.error_type, direct.error) == (bad.error_type,
                                                 bad.error)


def test_unknown_names_are_captured_not_raised():
    results = run_many([
        CompileJob(kernel="no_such_kernel"),
        CompileJob(kernel="fir", compiler="no_such_compiler"),
        CompileJob(kernel="fir", target="no_such_target"),
    ], max_workers=1)
    assert [result.ok for result in results] == [False, False, False]
    assert all(isinstance(result, Result) for result in results)


def test_auto_mode_runs_everything():
    """The default worker count must behave like the other modes."""
    auto = run_many(_JOBS[:5])
    serial = run_many(_JOBS[:5], max_workers=1)
    assert _fingerprint(auto) == _fingerprint(serial)


def test_default_workers_bounded():
    assert 1 <= default_workers() <= 8


# ----------------------------------------------------------------------
# Batch-level dedup
# ----------------------------------------------------------------------

def test_duplicate_jobs_compile_once_and_fan_back_out(monkeypatch):
    """Five copies of one job dispatch a single compile; every copy
    still gets its own result object carrying its own job."""
    import repro.evalx.farm as farm

    calls = []
    real_run_job = farm.run_job

    def counting_run_job(job):
        calls.append(job)
        return real_run_job(job)

    monkeypatch.setattr(farm, "run_job", counting_run_job)
    job = CompileJob(kernel="real_update")
    jobs = [job, CompileJob(kernel="fir"), job, job,
            CompileJob(kernel="real_update")]      # equal by content
    results = farm.run_many(jobs, max_workers=1)

    assert len(calls) == 2                         # one per unique key
    assert [result.job for result in results] == jobs
    assert all(result.ok for result in results)
    listings = {result.payload.listing()
                for result in results if result.job.kernel == "real_update"}
    assert len(listings) == 1
    # duplicates share the artifact, not the result wrapper
    assert results[0] is not results[2]
    assert results[0].payload is results[2].payload


def test_dedup_matches_undeduped_serial_run():
    """Fan-out must be invisible: a list with duplicates returns the
    same fingerprint as compiling every entry individually."""
    jobs = [_JOBS[0], _JOBS[1], _JOBS[0], _JOBS[1], _JOBS[0]]
    deduped = run_many(jobs, max_workers=1)
    individually = [run_many([job], max_workers=1)[0]
                    for job in jobs]
    assert _fingerprint(deduped) == _fingerprint(individually)


def test_fresh_jobs_are_exempt_from_dedup(monkeypatch):
    """``fresh`` jobs measure cold compiles -- every instance must
    really run, even when equal by content."""
    import repro.evalx.farm as farm

    calls = []
    real_run_job = farm.run_job

    def counting_run_job(job):
        calls.append(job)
        return real_run_job(job)

    monkeypatch.setattr(farm, "run_job", counting_run_job)
    jobs = [CompileJob(kernel="real_update", fresh=True)
            for _ in range(3)]
    results = farm.run_many(jobs, max_workers=1)
    assert len(calls) == 3
    assert all(result.ok for result in results)


def test_verify_jobs_dedup_on_content(monkeypatch):
    import repro.evalx.farm as farm
    from repro.dspstone import kernel
    from repro.verify.corpus import program_to_spec

    spec = program_to_spec(kernel("real_update").program)
    inputs = kernel("real_update").inputs(seed=0)
    job = farm.VerifyJob(program_spec=spec, input_sets=(inputs,),
                         targets=("tc25",))
    twin = farm.VerifyJob(program_spec=spec, input_sets=(inputs,),
                          targets=("tc25",))

    calls = []
    real_run = farm.VerifyJob.run

    def counting_run(verify_job):
        calls.append(verify_job)
        return real_run(verify_job)

    monkeypatch.setattr(farm.VerifyJob, "run", counting_run)
    results = farm.run_many([job, twin, job], max_workers=1)
    assert len(calls) == 1
    assert [result.job for result in results] == [job, twin, job]
    assert all(result.ok and result.payload.ok for result in results)


# ----------------------------------------------------------------------
# Pool death: logged, then the whole list recomputes serially
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _DiesOnceInWorker:
    """Kills its pool worker process on the first attempt anywhere
    (the marker file records that attempt); runs normally after that,
    and always in the driver process."""

    value: int
    marker: str
    driver_pid: int

    def key(self):
        return self.value

    def run(self):
        if os.getpid() != self.driver_pid \
                and not Path(self.marker).exists():
            Path(self.marker).touch()
            os._exit(1)
        return self.value * self.value


def test_pool_death_falls_back_to_serial_with_warning(tmp_path, caplog):
    jobs = [_DiesOnceInWorker(value, str(tmp_path / "died"), os.getpid())
            for value in range(4)]
    serial = run_many(jobs, max_workers=1)
    with caplog.at_level(logging.WARNING, logger="repro.farm"):
        survived = run_many(jobs, max_workers=2)
    assert [(r.job, r.payload) for r in survived] \
        == [(r.job, r.payload) for r in serial]
    assert (tmp_path / "died").exists(), "a pool worker must have died"
    assert any(record.name == "repro.farm"
               and "BrokenProcessPool" in record.getMessage()
               for record in caplog.records)


def test_persistent_pool_that_fails_its_first_task_is_shut_down(
        monkeypatch, caplog):
    pools = []

    class _FailsFirstTask:
        def __init__(self, *args, **kwargs):
            self.shutdown_calls = 0
            pools.append(self)

        def submit(self, fn, *args, **kwargs):
            future = concurrent.futures.Future()
            future.set_exception(
                BrokenProcessPool("a worker died on start-up"))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            self.shutdown_calls += 1

    monkeypatch.setattr(farm.concurrent.futures, "ProcessPoolExecutor",
                        _FailsFirstTask)
    with caplog.at_level(logging.WARNING, logger="repro.farm"):
        assert farm.make_farm_executor(2) is None
    warnings = [record for record in caplog.records
                if record.name == "repro.farm"]
    assert len(warnings) == 1
    assert "BrokenProcessPool" in warnings[0].getMessage()
    assert [pool.shutdown_calls for pool in pools] == [1]


# ----------------------------------------------------------------------
# REPRO_JOBS: the single worker-count override
# ----------------------------------------------------------------------

def test_repro_jobs_overrides_default_workers(monkeypatch):
    from repro.evalx.farm import jobs_override
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert jobs_override() == 5
    assert default_workers() == 5


def test_repro_jobs_garbage_and_floor(monkeypatch):
    from repro.evalx.farm import jobs_override
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert jobs_override() is None
    assert 1 <= default_workers() <= 8
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert jobs_override() == 1          # floor: at least one worker
    monkeypatch.delenv("REPRO_JOBS")
    assert jobs_override() is None


def test_verify_cli_jobs_default_follows_repro_jobs(monkeypatch):
    from repro.verify.__main__ import _default_jobs
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert _default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert _default_jobs() == 3
