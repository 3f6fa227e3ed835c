"""The compile service: an async batching front-end over the farm.

The paper frames RECORD as a *workbench* a designer queries repeatedly
while exploring the processor cube; this module is that workbench as a
long-running process.  A request travels::

    request --> content key --> [artifact store]  hot? answer now
                         \\--> [in-flight map]    pending? coalesce
                          \\--> [batch window]    cold: ride one farm
                                                  submission with its
                                                  contemporaries

Every layer reuses an existing subsystem: keys come from
:meth:`repro.cache.ArtifactCache.key_for` (so the hot-path question
"have we compiled this?" is answered by the same store the farm
workers populate), cold work goes through
:func:`repro.evalx.farm.run_many` (which dedups within a batch and
keeps per-worker compiler pools warm), and
simulation uses the tiered :func:`repro.sim.harness.run_compiled`.

The server speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` over ``asyncio.start_server`` sockets,
answers in completion order (hot hits overtake cold compiles), and
keeps per-stage timings plus cache/farm counters on every response.
A client that disconnects mid-batch cancels only its own waits; the
shared work completes for everyone else.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Tuple

import repro.cache
from repro.evalx.farm import (
    CompileJob, VerifyJob, default_workers, make_farm_executor, run_many,
)
from repro.serve.batcher import Batcher
from repro.serve.protocol import (
    ProtocolError, Request, error_response, ok_response, parse_request,
    resolve_program, verify_key,
)

logger = logging.getLogger("repro.serve")

DEFAULT_PORT = 8357
DEFAULT_WINDOW = 0.010          # seconds the first cold job waits
DEFAULT_MAX_BATCH = 32


class ServeError(RuntimeError):
    """A request that failed inside the pipeline (compile error,
    simulation crash, unknown kernel...)."""


def default_options(compiler_name: str):
    """The options object a default-constructed compiler carries.

    Key derivation must hash the *normalized* options -- compilers
    replace ``None`` with their default dataclass before
    ``cached_compile`` builds the artifact key -- or the server's hot
    path would never match what the farm workers store.
    """
    if compiler_name == "record":
        from repro.codegen.pipeline import RecordOptions
        return RecordOptions()
    if compiler_name == "baseline":
        from repro.baseline.compiler import BaselineOptions
        return BaselineOptions()
    return None                   # 'hand' has no options


def canonical_target_name(target: str) -> str:
    """The resolved target's self-reported name.

    ``cached_compile`` keys on ``compiler.target.name``, which for
    parameterized targets differs from the request alias (``"asip"``
    resolves to ``"asip(asip[16b, ...])"``).  The hot path must hash
    the same string the farm workers stored under, or those cells
    would recompile forever.
    """
    from repro.api import _resolve_target
    return _resolve_target(target).name


@dataclass
class ServeStats:
    """Lifetime counters of one server instance."""

    requests: int = 0
    responses: int = 0
    errors: int = 0
    by_op: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    coalesced: int = 0
    connections: int = 0
    disconnects_mid_flight: int = 0

    def count(self, op: Optional[str]) -> None:
        """Record one incoming request (``None``: unparseable op)."""
        self.requests += 1
        if op:
            self.by_op[op] = self.by_op.get(op, 0) + 1


class CompileService:
    """Protocol-agnostic request handler (the server minus sockets).

    Owning the whole dedup/batch/dispatch pipeline behind a plain
    ``async handle(payload) -> response`` makes the service testable
    without a socket in sight; :class:`ReproServer` adds the wire.
    """

    def __init__(self,
                 cache_dir: Optional[object] = None,
                 cache_max_bytes: Optional[int] = None,
                 window: float = DEFAULT_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 workers: Optional[int] = None,
                 use_pool: bool = True) -> None:
        cache_dir = Path(cache_dir) if cache_dir is not None \
            else repro.cache.default_cache_dir()
        # The service's own process also compiles (serial fallback when
        # no pool is available), so the global cache hook must be live
        # here exactly as it is in the farm workers.
        self.cache = repro.cache.configure(
            cache_dir,
            max_bytes=cache_max_bytes or repro.cache.DEFAULT_MAX_BYTES)
        self.workers = workers if workers is not None else default_workers()
        self.pool = make_farm_executor(self.workers) if use_pool else None
        farm = partial(run_many, executor=self.pool,
                       parallel=self.pool is not None)
        self.compile_batcher = Batcher(farm, window=window,
                                       max_batch=max_batch)
        self.verify_batcher = Batcher(farm, window=window,
                                      max_batch=max_batch)
        self.stats = ServeStats()
        self.started = perf_counter()
        self._shutdown = asyncio.Event()
        #: Single-flight map: artifact key -> future of the first
        #: request currently obtaining that artifact.
        self._artifact_inflight: Dict[str, asyncio.Future] = {}
        #: Detached fill tasks (kept referenced until done).
        self._fill_tasks: set = set()

    # -- lifecycle ------------------------------------------------------

    async def close(self) -> None:
        """Stop batchers and the farm pool."""
        for task in list(self._fill_tasks):
            task.cancel()
        await self.compile_batcher.close()
        await self.verify_batcher.close()
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None

    @property
    def shutdown_requested(self) -> asyncio.Event:
        return self._shutdown

    # -- request handling -----------------------------------------------

    async def handle(self, payload: object) -> dict:
        """One request payload in, one response payload out.

        Never raises: every failure becomes an error envelope, so one
        bad request cannot take down a connection (or the server).
        """
        try:
            request = parse_request(payload)
        except ProtocolError as exc:
            request_id = payload.get("id") if isinstance(payload, dict) \
                else None
            return self.reject(str(exc), request_id)
        self.stats.count(request.op)
        try:
            response = await self._dispatch(request)
        except asyncio.CancelledError:
            raise                      # client disconnects stay fatal
        except Exception as exc:                       # noqa: BLE001
            self.stats.errors += 1
            return error_response(request.id, str(exc),
                                  type(exc).__name__, op=request.op)
        self.stats.responses += 1
        return response

    def reject(self, message: str, request_id: object = None) -> dict:
        """Count one request the protocol rejects and answer it with a
        ``ProtocolError`` envelope."""
        self.stats.count(None)
        self.stats.errors += 1
        return error_response(request_id, message, "ProtocolError")

    async def _dispatch(self, request: Request) -> dict:
        if request.op == "ping":
            return ok_response(request, {"pong": True}, "server", {})
        if request.op == "stats":
            return ok_response(request, self.stats_json(), "server", {})
        if request.op == "shutdown":
            # Give the response a moment to flush before the listener
            # goes down; the event is what serve_until_shutdown awaits.
            asyncio.get_running_loop().call_later(
                0.05, self._shutdown.set)
            return ok_response(request, {"stopping": True}, "server", {})
        if request.op == "verify":
            return await self._verify(request)
        return await self._compile_ops(request)

    # Compile and simulate share the artifact pipeline; simulate adds
    # a tier-selected run of the compiled program.
    async def _compile_ops(self, request: Request) -> dict:
        timings: Dict[str, float] = {"queue": 0.0, "dedup": 0.0,
                                     "compile": 0.0, "simulate": 0.0}
        loop = asyncio.get_running_loop()
        compiled, key, served_by = await self._obtain_compiled(
            request, timings)
        if request.op == "compile":
            result = {
                "name": compiled.name,
                "target": request.target,
                "compiler": request.compiler,
                "words": compiled.words(),
                "listing": compiled.listing(),
            }
            return ok_response(request, result, served_by, timings,
                               key=key)
        started = perf_counter()
        from repro.sim.harness import run_compiled
        try:
            outputs, state = await loop.run_in_executor(
                None, partial(run_compiled, compiled, request.inputs,
                              sim=request.sim))
        except Exception as exc:                       # noqa: BLE001
            raise ServeError(f"simulation failed: "
                             f"{type(exc).__name__}: {exc}") from exc
        timings["simulate"] = perf_counter() - started
        # Same view as ``repro.api``'s ``CompilationResult.run``: the
        # program's declared outputs, not the whole read-back
        # environment.
        outputs = {
            name: outputs[name]
            for name, symbol in compiled.symbols.items()
            if symbol.role == "output" and name in outputs
        }
        result = {
            "outputs": outputs,
            "cycles": state.cycles,
            "sim": request.sim,
            "target": request.target,
            "compiler": request.compiler,
        }
        return ok_response(request, result, served_by, timings, key=key)

    async def _obtain_compiled(self, request: Request,
                               timings: Dict[str, float]):
        """Single-flight per artifact key: coalesce -> cache -> farm.

        The in-flight registration happens *before* the cache lookup
        and is released only after the artifact is on disk (workers
        store before their results travel back; the 'hand' path stores
        here).  That ordering closes the stale-miss race: a request
        arriving while a sibling is anywhere in this pipeline either
        finds the in-flight entry (coalesces) or -- if the sibling
        already resolved -- finds the artifact in the store.  Without
        it, a concurrent lookup could miss, lose the in-flight entry
        to the sibling's completion, and recompile.

        The lookup + compile runs in its own *fill task*, detached
        from the requesting connection: every waiter -- the first
        request included -- awaits the shared future through a shield.
        A client that disconnects mid-compile therefore cancels only
        its own wait; the fill task completes the artifact for every
        coalesced peer and for the store.
        """
        loop = asyncio.get_running_loop()
        started = perf_counter()
        try:
            program = await loop.run_in_executor(
                None, resolve_program, request)
        except Exception as exc:                       # noqa: BLE001
            raise ServeError(f"cannot resolve program: "
                             f"{type(exc).__name__}: {exc}") from exc
        compile_key = self.cache.key_for(
            program, request.compiler,
            default_options(request.compiler),
            canonical_target_name(request.target))

        if compile_key is None:
            # Unkeyable program: no store, no coalescing -- straight
            # through the batching window.
            timings["dedup"] = perf_counter() - started
            compiled, queue_s, run_s = await self._farm_compile(
                request, program)
            timings["queue"] = queue_s
            timings["compile"] = run_s
            return compiled, None, "farm"

        pending = self._artifact_inflight.get(compile_key)
        if pending is not None:
            self.stats.coalesced += 1
            timings["dedup"] = perf_counter() - started
            compiled, _how, queue_s, run_s = await asyncio.shield(
                pending)
            timings["queue"] = queue_s
            timings["compile"] = run_s
            return compiled, compile_key, "coalesced"

        future = loop.create_future()
        self._artifact_inflight[compile_key] = future
        fill = loop.create_task(
            self._fill_artifact(compile_key, future, request, program))
        self._fill_tasks.add(fill)
        fill.add_done_callback(self._fill_tasks.discard)
        timings["dedup"] = perf_counter() - started
        compiled, served_by, queue_s, run_s = await asyncio.shield(
            future)
        timings["queue"] = queue_s
        timings["compile"] = run_s
        return compiled, compile_key, served_by

    async def _fill_artifact(self, key: str, future: asyncio.Future,
                             request: Request, program) -> None:
        """Obtain one artifact (store hit or farm) and resolve its
        single-flight future.  Runs detached from any connection."""
        loop = asyncio.get_running_loop()
        try:
            compiled = await loop.run_in_executor(
                None, self.cache.get, key)
            if compiled is not None:
                self.stats.cache_hits += 1
                self._resolve_inflight(
                    key, future, (compiled, "cache", 0.0, 0.0))
                return
            compiled, queue_s, run_s = await self._farm_compile(
                request, program)
            # The 'hand' reference path bypasses cached_compile; store
            # its artifact before releasing the in-flight entry so
            # hand repeats are hot too.
            if request.compiler == "hand":
                await loop.run_in_executor(
                    None, self.cache.put, key, compiled)
            self._resolve_inflight(
                key, future, (compiled, "farm", queue_s, run_s))
        except BaseException as exc:
            self._resolve_inflight(key, future, exception=exc)
            if isinstance(exc, asyncio.CancelledError):
                raise

    def _resolve_inflight(self, key, future, value=None,
                          exception: Optional[BaseException] = None
                          ) -> None:
        """Release one single-flight entry, tolerating waiters that
        disconnected while the work ran."""
        if future is None:
            return
        if self._artifact_inflight.get(key) is future:
            del self._artifact_inflight[key]
        if future.cancelled():
            return
        if exception is not None:
            future.set_exception(exception)
            future.exception()     # no never-retrieved warnings
        else:
            future.set_result(value)

    async def _farm_compile(self, request: Request, program):
        """Dispatch one cold compile through the batching window."""
        if request.kernel is not None:
            # Registry-name jobs pickle in a few bytes; keep them that
            # way.
            job = CompileJob(kernel=request.kernel,
                             compiler=request.compiler,
                             target=request.target)
        else:
            from repro.verify.corpus import program_to_spec
            try:
                spec_blob = json.dumps(program_to_spec(program),
                                       sort_keys=True)
            except Exception as exc:                   # noqa: BLE001
                raise ServeError(
                    "program is not serializable for the farm") from exc
            job = CompileJob(kernel=program.name,
                             compiler=request.compiler,
                             target=request.target,
                             program_spec=spec_blob)
        # Coalescing already happened at the artifact level, so the
        # batcher only contributes the window; farm batch dedup is a
        # second line of defense for unkeyable programs.
        result, _served_by, queue_s, run_s = \
            await self.compile_batcher.submit(None, job)
        if not result.ok:
            raise ServeError(f"{result.error_type}: {result.error}")
        return result.payload, queue_s, run_s

    async def _verify(self, request: Request) -> dict:
        timings: Dict[str, float] = {"queue": 0.0, "dedup": 0.0,
                                     "compile": 0.0, "simulate": 0.0}
        loop = asyncio.get_running_loop()
        started = perf_counter()
        try:
            program = await loop.run_in_executor(
                None, resolve_program, request)
            from repro.verify.corpus import program_to_spec
            spec = program_to_spec(program)
        except Exception as exc:                       # noqa: BLE001
            raise ServeError(f"cannot resolve program: "
                             f"{type(exc).__name__}: {exc}") from exc
        key = verify_key(request, program)
        timings["dedup"] = perf_counter() - started
        job = VerifyJob(program_spec=spec,
                        input_sets=tuple(request.input_sets),
                        targets=tuple(request.targets))
        result, served_by, queue_s, run_s = \
            await self.verify_batcher.submit(key, job)
        timings["queue"] = queue_s
        timings["compile"] = run_s
        if not result.ok:
            raise ServeError(f"{result.error_type}: {result.error}")
        verdict = result.payload
        payload = {
            "name": verdict.name,
            "ok": verdict.ok,
            "cells": len(verdict.outcomes),
            "mismatches": [{
                "cell": outcome.cell.describe(),
                "class": outcome.mismatch_class,
                "detail": outcome.detail,
            } for outcome in verdict.mismatches],
        }
        return ok_response(request, payload, served_by, timings, key=key)

    # -- introspection --------------------------------------------------

    def stats_json(self) -> dict:
        """Everything a dashboard wants, one JSON object."""
        return {
            "uptime_seconds": round(perf_counter() - self.started, 3),
            "workers": self.workers,
            "pool": "process" if self.pool is not None else "serial",
            "requests": self.stats.requests,
            "responses": self.stats.responses,
            "errors": self.stats.errors,
            "by_op": dict(self.stats.by_op),
            "cache_hits": self.stats.cache_hits,
            "coalesced": self.stats.coalesced,
            "inflight": len(self._artifact_inflight),
            "connections": self.stats.connections,
            "disconnects_mid_flight":
                self.stats.disconnects_mid_flight,
            "compile_batcher": self.compile_batcher.stats.to_json(),
            "verify_batcher": self.verify_batcher.stats.to_json(),
            "cache": self.cache.stats.to_json(),
        }


class ReproServer:
    """The NDJSON-over-TCP wire around a :class:`CompileService`."""

    def __init__(self, service: CompileService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        logger.info("repro.serve listening on %s:%d",
                    self.host, self.port)
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request (or cancellation)."""
        await self.service.shutdown_requested.wait()
        await self.close()

    async def close(self) -> None:
        """Stop listening and shut the service down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.service.stats.connections += 1
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # Longer than the stream limit: the rest of the line
                    # is still unread, so the stream cannot be resumed.
                    # The client is still there: answer the requests it
                    # sent before the overrun, then close.
                    await asyncio.gather(*tasks, return_exceptions=True)
                    await self._send(writer, write_lock,
                                     self.service.reject(
                                         f"request line too long: {exc}"))
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    await self._send(writer, write_lock,
                                     self.service.reject(
                                         f"bad JSON: {exc}"))
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._respond(payload, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            # The client is gone: cancel its outstanding responses.
            # Batched work they were waiting on is shielded and
            # completes for cache + coalesced peers regardless.
            if tasks:
                self.service.stats.disconnects_mid_flight += len(tasks)
                for task in list(tasks):
                    task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _respond(self, payload: object,
                       writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock) -> None:
        response = await self.service.handle(payload)
        try:
            await self._send(writer, write_lock, response)
        except (ConnectionResetError, OSError):
            pass                       # client vanished before reading

    @staticmethod
    async def _send(writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock, response: dict) -> None:
        blob = json.dumps(response, sort_keys=True) + "\n"
        async with write_lock:
            writer.write(blob.encode("utf-8"))
            await writer.drain()


async def serve_forever(host: str = "127.0.0.1",
                        port: int = DEFAULT_PORT,
                        **service_kwargs) -> None:
    """Build a service + server and run until shutdown is requested."""
    service = CompileService(**service_kwargs)
    server = ReproServer(service, host=host, port=port)
    await server.start()
    print(f"repro.serve listening on {server.host}:{server.port} "
          f"({service.stats_json()['pool']} farm, "
          f"{service.workers} workers)", flush=True)
    try:
        await server.serve_until_shutdown()
    finally:
        await server.close()
