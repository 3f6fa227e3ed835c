"""Contract tests of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e/tests`` from the repository
root.  The subprocess runs use one-second timed phases.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.e2e import layers
from benchmarks.e2e.run import (
    ROOT, load_bench, make_workload, run_workload, workload_names,
)
from benchmarks.e2e.serveload import Serve
from repro.codegen.asm import AsmInstr
from repro.targets.tc25 import TC25

BENCH = load_bench()
WORKLOADS = workload_names(BENCH)


def _run(workload: str, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_every_declared_metric_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: entry["unit"]
                for name, entry in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in BENCH[section]}
        if trace == 0:
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values())


def test_traced_run_writes_a_chrome_trace(tmp_path):
    out = tmp_path / "trace.json"
    _run("table1", 1, "--trace-out", str(out))
    events = json.loads(out.read_text())["traceEvents"]
    names = {event["name"] for event in events if event["ph"] == "X"}
    assert {"op", "dfl", "codegen", "baseline",
            "sim.jit_translate"} <= names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    def inputs(seed):
        return json.dumps(make_workload(workload, seed, tmp_path).inputs(),
                          sort_keys=True)
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def _entry_points():
    return [layers.entry_point(hook)[2] for hook in layers.HOOKS]


@pytest.mark.parametrize("workload", ["table1", "campaign"])
def test_traced_run_restores_entry_points_and_accounts_for_wall(
        workload, tmp_path):
    before = _entry_points()
    tracer = layers.LayerTracer(keep_spans=True)
    tracer.install()
    assert all(now is not then
               for now, then in zip(_entry_points(), before))
    tracer.uninstall()

    bench = make_workload(workload, 0, tmp_path)
    bench.setup()
    try:
        bench.measure(0.5, tracer)
    finally:
        bench.close()
    assert all(now is then for now, then in zip(_entry_points(), before))

    assert tracer.ops >= 1
    total = sum(tracer.self_times().values())
    assert total == pytest.approx(tracer.op_seconds, rel=0.01)
    assert tracer.self_times()["codegen"] > 0
    # Spans nest inside their op: every layer span lies within one.
    ops = {span[4]: span for span in tracer.spans if span[0] == "op"}
    for layer, start, end, _parent, op_id in tracer.spans:
        assert ops[op_id][1] <= start <= end <= ops[op_id][2]


def _store_becomes_nop(self, instr):
    if instr.opcode != "SACL":
        return instr
    return AsmInstr(opcode="NOP", operands=(), words=instr.words,
                    cycles=instr.cycles, modes=instr.modes,
                    parallel=instr.parallel)


@pytest.mark.parametrize("workload", ["table1", "campaign", "tune"])
def test_an_injected_simulator_fault_is_counted_as_failed(
        workload, tmp_path, monkeypatch):
    monkeypatch.setattr(TC25, "decode_instr", _store_becomes_nop)
    result = run_workload(workload, 0, 0.5, False, tmp_path)
    assert result["failed"] > 0
    assert not result["correct"]


def test_serve_grading_rejects_a_wrong_simulate_answer(tmp_path):
    from repro.api import compile_kernel
    from repro.dspstone import kernel
    inputs = kernel("fir").inputs(seed=0)
    outputs, cycles = compile_kernel("fir", target="m56").run(inputs)
    payload = {"op": "simulate", "kernel": "fir", "target": "m56",
               "compiler": "record", "inputs": inputs, "sim": "jit"}
    serve = Serve(0, tmp_path)
    assert serve._graded(payload, {"ok": True, "result": {
        "outputs": outputs, "cycles": cycles}})
    wrong = {name: value + 1 for name, value in outputs.items()}
    assert not serve._graded(payload, {"ok": True,
                                       "result": {"outputs": wrong}})
    assert not serve._graded(payload, {"ok": False, "error": "boom"})
