"""A job farm: many compile, conformance or shard jobs, one call.

Every evaluation harness in this repository compiles the same closed
set of DSPStone kernels against the same closed set of targets -- the
timing bench, the compile-speed bench, the compile service -- and the
conformance fuzzer and the campaign engine run generated programs
through the same compiler x target x simulator matrix.  This module
gives them one shared engine built on one job protocol:

- a job is a frozen, picklable dataclass whose fields are its wire
  format -- registry names, canonical JSON strings, corpus spec dicts
  -- so it ships to a worker in a few bytes and the worker rebuilds
  everything from the registries.  Each job has two methods:
  ``key()``, a hashable content key (``None``: never dedup), and
  ``run()``, which returns the job's payload and raises on failure;
- :func:`run_job` wraps one ``run()`` into a :class:`Result` (timing,
  and any exception turned into a string, so an unpicklable exception
  object never crosses the process boundary);
- :func:`run_many` runs a job list serially, on a per-call
  ``concurrent.futures`` process pool, or on a caller-owned persistent
  executor (:func:`make_farm_executor`).  Results come back in job
  order in all modes, so callers are oblivious to how the work was
  scheduled.  Jobs with equal keys are dispatched once and the shared
  payload fanned back out to every duplicate -- a batch of N equal
  kernels compiles once even when the artifact cache is cold;
- a worker process keeps one :class:`~repro.verify.diff.VerifySession`
  (targets, compilers, oracles) alive between jobs, so BURS label
  caches, memoized target grammars and decode caches pay off across
  jobs exactly as they do in a long-lived serial session -- and the
  persistent artifact cache (:mod:`repro.cache`), when configured, is
  shared by every worker.

A pool pays only for jobs much longer than its start-up (8-9 ms at 2
workers and 20-23 ms at 8 on a 2-vCPU VM): a program through the
whole conformance matrix (about 65 ms) is one, a DSPStone compile (a
few ms) is not.  So the tuner and Table 1, which compile one kernel at a
time, run in the calling process and send nothing here.

Parallelism degrades gracefully: on a single-core container, when the
pool cannot start or dies mid-run, or for a singleton job list, the
farm runs serially in-process -- same results, same order; a pool
failure is logged as a ``repro.farm`` warning.
"""

from __future__ import annotations

import concurrent.futures
import json
import logging
import os
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

logger = logging.getLogger("repro.farm")


def _fault(pair: Optional[Tuple[str, str]]):
    if pair is None:
        return None
    from repro.selftest.generator import Fault
    return Fault(pair[0], pair[1])


@dataclass(frozen=True)
class CompileJob:
    """Compile one program, picklable by construction.

    ``kernel``, ``compiler`` and ``target`` are registry names (see
    :func:`repro.api.available_kernels` / ``available_targets``); the
    compiler runs with its default options.  ``fresh`` bypasses the
    worker's compiler pool -- the job then compiles with a cold compiler
    instance (used as the uncached baseline by
    ``benchmarks/bench_compile_speed.py``).
    The payload is the :class:`~repro.codegen.compiled.CompiledProgram`.
    """

    kernel: str
    compiler: str = "record"
    target: str = "tc25"
    fresh: bool = False
    #: Canonical serialized program (``json.dumps(program_to_spec(p),
    #: sort_keys=True)``).  When set, the worker compiles *this*
    #: program instead of looking ``kernel`` up in the DSPStone
    #: registry -- the compile service farms arbitrary client programs
    #: this way.  A string (not a dict) so the job stays hashable and
    #: two jobs carrying the same program compare equal.
    program_spec: Optional[str] = None

    def key(self) -> Optional[Tuple]:
        """Equal keys produce byte-identical artifacts.  ``fresh`` jobs
        are cold-start *measurements*: every instance must really
        compile, so they are never deduped."""
        if self.fresh:
            return None
        return (self.kernel, self.compiler, self.target, self.program_spec)

    def run(self):
        """Compile on the worker's pooled compiler (a cold one for
        ``fresh`` jobs)."""
        from repro.verify.diff import VerifySession
        session = VerifySession() if self.fresh else worker_session()
        if self.compiler == "hand":
            from repro.dspstone import hand_reference
            return hand_reference(self.kernel, session.target(self.target))
        if self.program_spec is not None:
            from repro.verify.corpus import program_from_spec
            program = program_from_spec(json.loads(self.program_spec))
        else:
            from repro.dspstone import kernel
            program = kernel(self.kernel).program
        return session.compiler(self.compiler, self.target).compile(program)


@dataclass(frozen=True)
class VerifyJob:
    """One full conformance matrix check, picklable by construction.

    ``program_spec`` is the corpus serialization of the lowered program
    (:func:`repro.verify.corpus.program_to_spec` -- plain dicts);
    ``input_sets`` the input environments to replay; ``targets`` the
    registry names of the matrix columns; ``fault`` an optional
    ``(original, replacement)`` decoder-fault pair; ``seed`` the
    derived fuzzer seed recorded in the verdict.  The payload is the
    :class:`~repro.verify.diff.ProgramVerdict`.
    """

    program_spec: dict
    input_sets: Tuple[dict, ...]
    targets: Tuple[str, ...] = ("tc25", "m56", "risc16", "asip")
    fault: Optional[Tuple[str, str]] = None
    seed: int = 0

    def key(self) -> Optional[Tuple]:
        """Content key; ``None`` for unserializable inputs, which then
        bypass dedup rather than risking a wrong merge."""
        try:
            return (json.dumps(self.program_spec, sort_keys=True),
                    json.dumps(list(self.input_sets), sort_keys=True),
                    self.targets, self.fault, self.seed)
        except (TypeError, ValueError):
            return None

    def run(self):
        """Check the program across the matrix on the pooled session."""
        from repro.verify.corpus import program_from_spec
        from repro.verify.diff import check_program
        return check_program(program_from_spec(self.program_spec),
                             list(self.input_sets), targets=self.targets,
                             fault=_fault(self.fault), seed=self.seed,
                             session=worker_session())


@dataclass(frozen=True)
class ShardJob:
    """One campaign shard: a contiguous run of conformance indices.

    A shard is pure work-description -- ``(seed, start, count)`` names
    the exact program subrange of the campaign's global index space
    (case ``index`` is a pure function of ``(seed, index, config)``),
    ``targets``/``inputs_per_program``/``fault`` the matrix, and
    ``config`` the :class:`~repro.verify.progen.ProgenConfig` (a frozen
    dataclass, picklable as-is; ``None`` for defaults).

    The payload is a plain-dict digest -- the shard's deterministic
    triage slice (the ``mismatches`` list in
    :meth:`ConformanceReport.triage_json` shape, plus program/cell
    tallies) and its performance counters -- so it pickles small and
    merges deterministically whatever order shards complete in.
    """

    seed: int
    start: int
    count: int
    targets: Tuple[str, ...] = ("tc25", "m56", "risc16", "asip")
    inputs_per_program: int = 2
    fault: Optional[Tuple[str, str]] = None
    config: object = None

    def key(self) -> "ShardJob":
        """Every field is hashable: the shard is its own key."""
        return self

    def run(self) -> dict:
        """Run the shard serially in this process (campaign parallelism
        is *across* shards) against the worker's pooled session."""
        from repro.verify.diff import run_conformance
        report = run_conformance(
            count=self.count, seed=self.seed, targets=self.targets,
            inputs_per_program=self.inputs_per_program, config=self.config,
            fault=_fault(self.fault), start=self.start,
            session=worker_session())
        counts = report.compile_counts()
        return {
            "start": self.start,
            "count": self.count,
            "programs": len(report.verdicts),
            "cells": report.cells_checked,
            "compiles": counts["compiles"],
            "artifact_hits": counts["artifact_hits"],
            "elapsed_seconds": round(report.elapsed_seconds, 3),
            "mismatches": report.triage_json()["mismatches"],
        }


@dataclass
class Result:
    """Outcome of one job: its payload or a captured error."""

    job: object
    payload: object = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

# One VerifySession per process: compilers (with their label caches,
# one per (compiler, target)) and oracles persist across every
# job this process handles, over the process's pooled target models.
_SESSION: List[object] = []


def worker_session():
    """This process's pooled :class:`~repro.verify.diff.VerifySession`
    (bounded in memory however many programs the worker compiles)."""
    if not _SESSION:
        from repro.verify.diff import VerifySession
        _SESSION.append(VerifySession())
    return _SESSION[0]


def clear_worker_session() -> None:
    """Drop this process's pooled session and target models
    (cold-start measurements)."""
    from repro.api import _clear_target_pool
    _clear_target_pool()
    _SESSION.clear()


def run_job(job) -> Result:
    """Execute one job; never raises -- errors travel in the result."""
    started = perf_counter()
    try:
        payload = job.run()
    except Exception as exc:                          # noqa: BLE001
        return Result(job=job, error=str(exc), error_type=type(exc).__name__,
                      seconds=perf_counter() - started)
    return Result(job=job, payload=payload, seconds=perf_counter() - started)


def _worker_init(cache_dir: Optional[str], max_bytes: Optional[int]) -> None:
    """Pool initializer: point the worker at the shared artifact cache.

    Explicit (rather than relying on fork inheriting the parent's
    configured cache) so spawn-based start methods behave identically,
    and so each worker gets its own stats counters.
    """
    if cache_dir:
        import repro.cache
        repro.cache.configure(cache_dir, max_bytes=max_bytes)


def _pool_kwargs() -> dict:
    """Process-pool arguments that share the driver's active cache."""
    from repro.cache import active_cache
    active = active_cache()
    return {"initializer": _worker_init,
            "initargs": ((str(active.root), active.max_bytes)
                         if active is not None else (None, None))}


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------

def jobs_override() -> Optional[int]:
    """The single ``REPRO_JOBS`` environment override, if set and sane.

    One variable sizes every worker pool -- the farm's
    :func:`default_workers`, the ``repro.verify`` CLI's ``--jobs``
    default and the compile service all read it through this function,
    so CI and a deployed server agree on pool width.
    """
    override = os.environ.get("REPRO_JOBS", "").strip()
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass                 # ignore garbage, fall back to defaults
    return None


def default_workers() -> int:
    """Worker count the farm would use: ``REPRO_JOBS`` when set,
    otherwise one per core, at most 8."""
    override = jobs_override()
    if override is not None:
        return override
    return max(1, min(os.cpu_count() or 1, 8))


def run_many(jobs: Sequence,
             max_workers: Optional[int] = None,
             executor: Optional[concurrent.futures.Executor] = None
             ) -> List[Result]:
    """Run all jobs; results are returned in job order.

    Jobs with equal ``key()`` are dispatched **once** and the single
    payload is fanned back out to every duplicate (each still gets its
    own :class:`Result` carrying its own job); a ``None`` key always
    runs.

    Scheduling ladder: a caller-owned persistent ``executor`` (the
    long-running compile service keeps one warm across batches), else
    a per-call process pool when there is more than one worker
    (``max_workers``, default :func:`default_workers`) and more than
    one unique job, else serial in-process.  Any pool failure --
    refusal to start, death mid-run -- is logged and the
    whole list recomputed on the next rung, which is safe because jobs
    are pure functions of their fields: results are identical either
    way, only the wall clock differs.
    """
    jobs = list(jobs)
    unique: List = []
    slots: Dict[object, int] = {}
    indices: List[int] = []
    for job in jobs:
        key = job.key()
        slot = slots.get(key) if key is not None else None
        if slot is None:
            slot = len(unique)
            unique.append(job)
            if key is not None:
                slots[key] = slot
        indices.append(slot)

    results = None
    if executor is not None:
        try:
            results = list(executor.map(run_job, unique))
        except Exception as exc:                   # noqa: BLE001
            logger.warning("farm executor failed (%s: %s); retrying "
                           "without it", type(exc).__name__, exc)
    workers = max_workers if max_workers is not None else default_workers()
    if results is None and len(unique) > 1 and workers > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(unique)),
                    **_pool_kwargs()) as pool:
                results = list(pool.map(run_job, unique))
        except Exception as exc:                   # noqa: BLE001
            logger.warning("farm process pool failed (%s: %s); running "
                           "serially", type(exc).__name__, exc)
    if results is None:
        results = [run_job(job) for job in unique]
    return [replace(results[slot], job=job)
            for job, slot in zip(jobs, indices)]


def make_farm_executor(max_workers: Optional[int] = None
                       ) -> Optional[concurrent.futures.Executor]:
    """A persistent process pool suitable for ``executor=`` arguments.

    Workers are initialized against the driver's active artifact cache
    exactly like :func:`run_many`'s per-call pools, so configure the
    cache first.  Returns ``None``, with a ``repro.farm`` warning, when
    process pools are unavailable (the caller then lets each
    :func:`run_many` call fall back to serial in-process execution).
    """
    workers = max_workers if max_workers is not None else default_workers()
    pool = None
    try:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, **_pool_kwargs())
        # Force worker start-up now so failures surface here, not on
        # the first batch.
        pool.submit(os.getpid).result(timeout=60)
    except Exception as exc:                       # noqa: BLE001
        logger.warning("farm process pool failed to start (%s: %s); "
                       "running serially", type(exc).__name__, exc)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return None
    return pool
