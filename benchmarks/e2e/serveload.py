"""The ``serve`` workload: an open-loop rate ladder against a live server.

The server is ``python -m repro serve --jobs 1`` in its own process,
with an artifact cache that starts empty.  Set-up starts it and warms
the hot set (every hot kernel on every target, compiled and simulated
once).  The timed phase then sends a fixed schedule over two
connections from one thread: requests evenly spaced at rate R for 60%
of ``--seconds``, at 2R for 15%, then at 8R for 25%, each step with
fresh novel programs.  The mix is that of
:func:`repro.serve.traffic.build_requests`: 70% hot requests (a hot
kernel on a target), 30% novel progen programs, half ``compile`` and
half ``simulate``.  Requests are sent on schedule whether or not
earlier ones were answered, and each is timed from when it was due, so
a stall also delays the requests queued behind it.

Latency is reported at R.  Throughput is the capacity: the 8R step's
requests over the time from its first due time to its last answer.
One farm worker falls far behind at 8R, so that time is the time the
server needs to work off the step, and it stays so after a large
speed-up.

Grading runs after the timed phase: ``simulate`` outputs against the IR
oracle, ``compile`` word counts against a direct ``repro.api`` compile
in this process.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

from repro.api import compile_program
from repro.dspstone import kernel
from repro.serve.client import ServeClient
from repro.serve.traffic import DEFAULT_TARGETS, HOT_KERNELS
from repro.verify.corpus import program_from_spec, program_to_spec
from repro.verify.diff import make_target
from repro.verify.oracle import Oracle
from repro.verify.progen import generate_inputs, generate_program

from benchmarks.e2e.workloads import (
    CALIBRATION_INTERVAL_S, CAMPAIGN_PROFILE, RunResult, calibration_seconds,
    campaign_case, machine_slowdown, outputs_of, percentile,
)

#: R in req/s, frozen: one farm worker keeps up at 2R on the reference
#: machine and works off about 110 req/s of this mix, 40% of 8R.
BASE_RATE = 35.0
STEPS = (1, 2, 8)
#: Share of the run each step sends for.  Each end-to-end metric comes
#: from a step whose number of samples sets its spread: latency from R
#: (the novel-program tail), throughput from 8R (the time to work off
#: its backlog, about two and a half times its sending time).  2R only
#: shows whether the backlog grows there.
STEP_SHARES = (0.6, 0.15, 0.25)
CONNECTIONS = 2
#: Latency is reported at R, where queueing is light; throughput at 8R.
LATENCY_STEP, CAPACITY_STEP = 0, 2
#: A step is sustained when its p90 latency is within this limit and
#: its backlog did not grow.
LATENCY_LIMIT_S = 0.250
LATE_SEND_S = 0.005
DRAIN_TIMEOUT_S = 60.0
#: While requests are still to be sent, the calibration (about 3 ms)
#: runs only when the next one is due at least this far ahead.
CALIBRATION_GAP_S = 0.010
#: Novel programs compiled during set-up, so the farm worker's memos
#: are as warm at the first timed request as at the last.
WARMUP_PROGRAMS = 12
#: The request mix of ``repro.serve.traffic.TrafficConfig``'s defaults:
#: 30% novel programs, half the requests ``simulate`` (alternating the
#: jit and fast tiers), the rest ``compile``.
NOVEL_FRACTION = 0.3
SIMS = ("jit", "fast")


def step_requests(seed: int, count: int) -> List[dict]:
    """One step's request payloads, in the mix ``build_requests`` draws.

    Two things differ.  The mix is laid out evenly instead of drawn per
    request, so every run has the same number of novel programs and of
    each op, and at R no two novel programs arrive back to back.  Hot
    requests are dealt from a shuffled deck of every hot cell with every
    op, so each cell and op comes up equally often.  And novel programs
    come from the campaign's profile: ``build_requests`` uses the
    default one, whose ``sat()`` the seed commit miscompiles on some
    programs.  The seed picks the order of the deck, the inputs and the
    programs.
    """
    rng = random.Random(seed)
    hot = [({"kernel": name, "target": target, "compiler": "record"},
            kernel(name).inputs(seed=seed))
           for name in HOT_KERNELS for target in DEFAULT_TARGETS]
    deck: List[Tuple[int, int]] = []
    payloads = []
    novel = 0
    for k in range(count):
        if int((k + 1) * NOVEL_FRACTION) > int(k * NOVEL_FRACTION):
            program_rng = random.Random(seed * 100_003 + novel)
            program = generate_program(program_rng, novel, CAMPAIGN_PROFILE)
            base = {"program": program_to_spec(program),
                    "target": DEFAULT_TARGETS[novel % len(DEFAULT_TARGETS)],
                    "compiler": "record"}
            inputs = generate_inputs(program_rng, program)
            # Ops alternate per round of targets, so each target gets both.
            turn = novel // len(DEFAULT_TARGETS)
            novel += 1
        else:
            if not deck:
                deck = [(cell, turn) for cell in range(len(hot))
                        for turn in range(2 * len(SIMS))]
                rng.shuffle(deck)
            cell, turn = deck.pop()
            base, inputs = hot[cell]
        payload = dict(base)
        if turn % 2:
            payload.update(op="simulate", inputs=inputs,
                           sim=SIMS[turn // 2 % len(SIMS)])
        else:
            payload["op"] = "compile"
        payloads.append(payload)
    return payloads


def build_plan(seed: int, seconds: float) -> List[Tuple[float, int, dict]]:
    """The deterministic schedule: ``(due offset s, step, payload)``."""
    plan = []
    for step, (start, length) in enumerate(step_windows(seconds)):
        rate = BASE_RATE * STEPS[step]
        count = max(1, round(rate * length))
        payloads = step_requests(seed * len(STEPS) + step, count)
        plan.extend((start + k / rate, step, payload)
                    for k, payload in enumerate(payloads))
    return plan


def step_windows(seconds: float) -> List[Tuple[float, float]]:
    """``(start offset, length)`` of each step, in seconds."""
    windows, start = [], 0.0
    for share in STEP_SHARES:
        windows.append((start, share * seconds))
        start += share * seconds
    return windows


def _children(pid: int) -> List[int]:
    pids = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            pass
    return pids


def _vm_hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


async def _drive(port: int, plan, connections: int):
    """Send ``plan`` on schedule.

    Returns ``(start, sent, done, responses, calibrations)``.  The
    machine-speed calibration is sampled about every
    :data:`CALIBRATION_INTERVAL_S`, but only when it cannot hold up the
    load: while requests are still to be sent, only when none is
    outstanding and the next is not due for a while.  After the last
    send it may hold back the reading of an answer by its 3 ms, which
    matters only to the time the 8R step takes to work off (seconds).
    """
    streams = [await asyncio.open_connection("127.0.0.1", port,
                                             limit=1 << 24)
               for _ in range(connections)]
    count = len(plan)
    sent = [math.nan] * count
    done = [math.inf] * count
    responses: List[Optional[dict]] = [None] * count
    # One before the start, for a run too short to sample.
    calibrations = [calibration_seconds()]
    finished = asyncio.Event()
    start = perf_counter() + 0.02
    sent_count = answered = 0

    def quiet() -> bool:
        return sent_count == count or (
            answered == sent_count
            and start + plan[sent_count][0] - perf_counter()
            > CALIBRATION_GAP_S)

    async def calibrate() -> None:
        while True:
            await asyncio.sleep(CALIBRATION_INTERVAL_S)
            while not quiet():
                await asyncio.sleep(0.002)
            calibrations.append(calibration_seconds())

    async def read(reader) -> None:
        nonlocal answered
        while True:
            line = await reader.readline()
            if not line:
                return
            response = json.loads(line)
            index = response.get("id")
            if isinstance(index, int) and 0 <= index < count \
                    and responses[index] is None:
                done[index] = perf_counter()
                responses[index] = response
                answered += 1
                if answered == count:
                    finished.set()

    tasks = [asyncio.ensure_future(read(reader)) for reader, _ in streams]
    tasks.append(asyncio.ensure_future(calibrate()))
    for index, (offset, _step, payload) in enumerate(plan):
        delay = start + offset - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = streams[index % connections][1]
        sent[index] = perf_counter()
        sent_count += 1
        writer.write(json.dumps({**payload, "id": index}).encode() + b"\n")
        if writer.transport.get_write_buffer_size() > 1 << 20:
            await writer.drain()
    try:
        await asyncio.wait_for(finished.wait(), DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        print("e2e: serve responses missing after the drain timeout",
              file=sys.stderr)
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for _reader, writer in streams:
        writer.close()
    return start, sent, done, responses, calibrations


class Serve:
    """Open-loop rate ladder against ``python -m repro serve``."""

    name = "serve"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.server: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.workers: List[int] = []
        self._words: Dict[Tuple[str, str], int] = {}
        self._oracles: Dict[str, Oracle] = {}

    def inputs(self) -> object:
        return build_plan(self.seed, 3.0)

    # -- server lifetime ------------------------------------------------

    def setup(self) -> None:
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   REPRO_JOBS="1")
        self.cache_dir = self.work_dir / "serve-cache"
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", str(self.cache_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0]
                        .rsplit(":", 1)[1])
        self.workers = _children(self.server.pid)
        self.words = self.cycles = 0
        with ServeClient(port=self.port) as client:
            for index in range(WARMUP_PROGRAMS):
                program, _inputs = campaign_case(0, index)
                client.compile(program=program_to_spec(program),
                               target=DEFAULT_TARGETS[
                                   index % len(DEFAULT_TARGETS)])
            for name in HOT_KERNELS:
                inputs = kernel(name).inputs(seed=0)
                for target in DEFAULT_TARGETS:
                    self.words += client.compile(
                        kernel=name, target=target)["result"]["words"]
                    self.cycles += client.simulate(
                        kernel=name, target=target, inputs=inputs,
                        sim="jit")["result"]["cycles"]

    def close(self) -> None:
        if self.server is None:
            return
        if self.port is not None:
            try:
                with ServeClient(port=self.port, timeout=10) as client:
                    client.shutdown()
            except OSError:
                pass
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait(timeout=30)
        self.server.stdout.close()
        for pid in self.workers:
            deadline = perf_counter() + 10
            while _alive(pid) and perf_counter() < deadline:
                sleep(0.05)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.server = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    # -- the timed phase ------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> RunResult:
        plan = build_plan(self.seed, seconds)
        start, sent, done, responses, calibrations = asyncio.run(
            _drive(self.port, plan, CONNECTIONS))
        with ServeClient(port=self.port) as client:
            server_stats = client.stats()
        self.workers = sorted(set(self.workers)
                              | set(_children(self.server.pid)))
        peak = _vm_hwm_mb(self.server.pid) + sum(
            _vm_hwm_mb(pid) for pid in self.workers)

        due = [start + offset for offset, _step, _payload in plan]
        ok = [self._graded(payload, response)
              for (_o, _s, payload), response in zip(plan, responses)]
        for k in (k for k, good in enumerate(ok) if not good):
            print(f"e2e: serve request {k} ({plan[k][2]['op']} on "
                  f"{plan[k][2]['target']}) failed or answered wrong",
                  file=sys.stderr)
        latency = [done[k] - due[k] if ok[k] else math.inf
                   for k in range(len(plan))]
        lag = [sent[k] - due[k] for k in range(len(plan))]
        print(f"e2e: serve loadgen lag p90 "
              f"{percentile(lag, 0.9) * 1e3:.3f} ms", file=sys.stderr)

        windows = [(start + offset, length)
                   for offset, length in step_windows(seconds)]
        by_step = [[k for k, (_o, step, _p) in enumerate(plan)
                    if step == s] for s in range(len(STEPS))]
        sustained = 0.0
        for step, ((step_start, length), members) in enumerate(
                zip(windows, by_step)):
            p90 = percentile([latency[k] for k in members], 0.9)
            middle = self._outstanding(sent, done, step_start + length / 2)
            end = self._outstanding(sent, done, step_start + length)
            if p90 <= LATENCY_LIMIT_S and end <= middle + CONNECTIONS:
                sustained = BASE_RATE * STEPS[step]
            print(f"e2e: serve step {BASE_RATE * STEPS[step]:g} req/s: "
                  f"p90 {p90 * 1e3:.1f} ms, backlog {middle} -> {end}",
                  file=sys.stderr)
        capacity = by_step[CAPACITY_STEP]
        answered = [done[k] for k in capacity if ok[k]]
        busy = max(answered, default=math.inf) - due[capacity[0]]
        print(f"e2e: serve worked off the {len(capacity)} requests of "
              f"{BASE_RATE * STEPS[CAPACITY_STEP]:g} req/s in {busy:.2f} s",
              file=sys.stderr)

        if tracer is not None and tracer.spans is not None:
            self._spans(tracer, sent, done, responses)
        layers = self._layer_metrics(sent, done, responses, server_stats)
        layers["serve.sustained_rps"] = sustained
        layers["loadgen.late_frac"] = sum(
            1 for value in lag if value > LATE_SEND_S) / len(lag)
        slowdown = machine_slowdown(calibrations)
        return RunResult(
            attempted=len(plan), failed=ok.count(False),
            throughput=len(answered) / busy * slowdown,
            latencies=[latency[k] / slowdown
                       for k in by_step[LATENCY_STEP]],
            code_words=self.words, code_cycles=self.cycles,
            peak_rss_mb=peak, extra_layers=layers)

    @staticmethod
    def _outstanding(sent, done, moment: float) -> int:
        return sum(1 for s, d in zip(sent, done) if s <= moment < d)

    @staticmethod
    def _layer_metrics(sent, done, responses, server_stats) -> Dict:
        ok = [(k, r) for k, r in enumerate(responses) if r and r.get("ok")]
        client_s = sum(done[k] - sent[k] for k, _r in ok) or 1.0
        layers = {}
        for stage in ("dedup", "queue", "compile", "simulate"):
            layers[f"serve.{stage}_frac"] = sum(
                r["timings"].get(stage, 0.0) for _k, r in ok) / client_s
        for label in ("cache", "coalesced", "farm"):
            layers[f"serve.{label}_frac"] = sum(
                1 for _k, r in ok if r.get("served_by") == label) / max(
                len(ok), 1)
        layers["serve.batch_size_mean"] = float(
            server_stats["compile_batcher"]["mean_batch_size"])
        # Farm dispatches beyond the first per artifact key.
        farm: Dict[str, int] = {}
        for _k, r in ok:
            if r.get("served_by") == "farm" and r.get("key"):
                farm[r["key"]] = farm.get(r["key"], 0) + 1
        layers["serve.recompiles"] = float(
            sum(count - 1 for count in farm.values()))
        return layers

    @staticmethod
    def _spans(tracer, sent, done, responses) -> None:
        """Requests as Chrome-trace spans; the server's stage timings
        are laid end to end from the send time (the server reports
        durations only)."""
        for k, response in enumerate(responses):
            if response is None:
                continue
            tracer.spans.append(("request", sent[k], done[k], None, k))
            moment = sent[k]
            for stage in ("dedup", "queue", "compile", "simulate"):
                seconds = response.get("timings", {}).get(stage, 0.0)
                if seconds:
                    tracer.spans.append((f"serve.{stage}", moment,
                                         moment + seconds, "request", k))
                    moment += seconds

    # -- grading --------------------------------------------------------

    def _graded(self, payload: dict, response: Optional[dict]) -> bool:
        if not response or not response.get("ok"):
            return False
        program = (kernel(payload["kernel"]).program if "kernel" in payload
                   else program_from_spec(payload["program"]))
        target = payload["target"]
        result = response["result"]
        if payload["op"] == "compile":
            key = (payload.get("kernel")
                   or json.dumps(payload["program"], sort_keys=True), target)
            if key not in self._words:
                self._words[key] = compile_program(program, target).words()
            return result["words"] == self._words[key]
        if target not in self._oracles:
            self._oracles[target] = Oracle(make_target(target).fpc)
        expected = outputs_of(
            program, self._oracles[target].run(program, payload["inputs"]))
        return result["outputs"] == json.loads(json.dumps(expected))
