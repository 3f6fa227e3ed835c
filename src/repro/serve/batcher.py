"""Async batching with in-flight request coalescing.

The service's cold path is a classic latency/throughput trade: farm
submissions amortize process-pool overhead over many jobs, but a
request must not wait forever for companions.  The batcher resolves it
with a **window**: the first cold job opens a batch, the batch departs
when either ``window`` seconds elapse or ``max_batch`` jobs have
joined, and every job in it rides one farm submission.

Layered on top is the **in-flight map**: each job is keyed by content
hash, and a submission whose key is already pending does not enqueue
at all -- it awaits the same future the first submission created, so N
concurrent identical requests cost one compile (the farm's batch-level
dedup independently collapses duplicates *within* one submission; the
in-flight map collapses them *across* the whole flight time).

Futures are resolved from the drainer task and awaited through
:func:`asyncio.shield`, so a waiter whose client disconnects
mid-flight cancels only its own await: the shared work completes and
every other waiter -- plus the artifact cache -- still gets the
result.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class BatcherStats:
    """Lifetime counters of one :class:`Batcher`."""

    submitted: int = 0
    coalesced: int = 0
    dispatched: int = 0
    batches: int = 0
    max_batch_size: int = 0
    failures: int = 0

    def to_json(self) -> dict:
        """JSON-able counter snapshot."""
        return {
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "dispatched": self.dispatched,
            "batches": self.batches,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": (round(self.dispatched / self.batches, 2)
                                if self.batches else 0.0),
            "failures": self.failures,
        }


@dataclass
class _Pending:
    """One cold job waiting for (or riding) a batch."""

    key: Optional[str]
    job: object
    future: "asyncio.Future"
    enqueued: float


class Batcher:
    """Window-batched dispatch of keyed jobs onto a runner.

    ``runner`` takes the job list of one batch and returns results in
    job order (:func:`repro.evalx.farm.run_many` qualifies); it runs on
    the event loop's default thread executor so a slow batch never
    blocks request intake.
    """

    def __init__(self, runner: Callable[[List[object]], List[object]],
                 window: float = 0.010, max_batch: int = 32) -> None:
        self._runner = runner
        self.window = window
        self.max_batch = max(1, max_batch)
        self.stats = BatcherStats()
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._drainer: Optional[asyncio.Task] = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn the drainer task (idempotent)."""
        if self._drainer is None or self._drainer.done():
            self._drainer = asyncio.get_running_loop().create_task(
                self._drain(), name="repro-serve-batcher")

    async def close(self) -> None:
        """Stop draining; pending waiters get a CancelledError."""
        self._closed = True
        if self._drainer is not None:
            self._drainer.cancel()
            try:
                await self._drainer
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._drainer = None

    # -- submission -----------------------------------------------------

    async def submit(self, key: Optional[str], job: object
                     ) -> Tuple[object, str, float, float]:
        """One job in, its result out.

        Returns ``(result, served_by, queue_seconds, run_seconds)``
        where ``served_by`` is ``"coalesced"`` when the job attached to
        an identical in-flight one, else ``"farm"``.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        self.start()
        self.stats.submitted += 1
        if key is not None:
            pending = self._inflight.get(key)
            if pending is not None:
                self.stats.coalesced += 1
                result, _queue_s, run_s = await asyncio.shield(pending)
                return result, "coalesced", 0.0, run_s
        future = asyncio.get_running_loop().create_future()
        if key is not None:
            self._inflight[key] = future
        self._queue.put_nowait(_Pending(key=key, job=job, future=future,
                                        enqueued=perf_counter()))
        result, queue_s, run_s = await asyncio.shield(future)
        return result, "farm", queue_s, run_s

    # -- drainer --------------------------------------------------------

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            deadline = loop.time() + self.window
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(
                        self._queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            await self._dispatch(batch)

    async def _dispatch(self, batch: Sequence[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        self.stats.batches += 1
        self.stats.dispatched += len(batch)
        self.stats.max_batch_size = max(self.stats.max_batch_size,
                                        len(batch))
        jobs = [pending.job for pending in batch]
        started = perf_counter()
        try:
            results = await loop.run_in_executor(
                None, partial(self._runner, jobs))
            if len(results) != len(jobs):
                raise RuntimeError(
                    f"runner returned {len(results)} results "
                    f"for {len(jobs)} jobs")
        except Exception as exc:                       # noqa: BLE001
            self.stats.failures += len(batch)
            for pending in batch:
                self._resolve(pending, exception=exc)
            return
        run_seconds = perf_counter() - started
        for pending, result in zip(batch, results):
            queue_seconds = started - pending.enqueued
            self._resolve(pending,
                          value=(result, queue_seconds, run_seconds))

    def _resolve(self, pending: _Pending, value=None,
                 exception: Optional[BaseException] = None) -> None:
        """Hand a batch outcome to the waiters, tolerating ones that
        disconnected (cancelled futures) while the batch ran."""
        if pending.key is not None \
                and self._inflight.get(pending.key) is pending.future:
            del self._inflight[pending.key]
        if pending.future.cancelled():
            return
        if exception is not None:
            pending.future.set_exception(exception)
            # A waiter may already be gone; don't warn about never-
            # retrieved exceptions for its share of the batch.
            pending.future.exception()
        else:
            pending.future.set_result(value)
