"""The source-generating jit tier: equivalence, degradation, caching.

The jit's contract is FastMachine's contract: bit-identical
environments, registers, modes and cycle counts, with graceful
degradation per block -- an opcode without a usable ``@emitter``
template gets an inlined closure call, a template that raises demotes
only its block to the decoded closure runner, and both demotions are
observable in the translation counters but never in results.
"""

import logging
import os
import random
import sys
import threading

import pytest

import repro.cache
from repro.codegen.asm import (
    AsmInstr, CodeSeq, Imm, Label, LabelRef, Mem, Reg,
)
from repro.codegen.pipeline import RecordCompiler
from repro.dspstone import all_kernels
from repro.sim.decode import clear_decode_cache
from repro.selftest.generator import Fault, FaultySim
from repro.sim import jit
from repro.sim.fastmachine import FastMachine
from repro.sim.harness import load_environment, read_environment
from repro.sim.jit import JitMachine, jit_cache_stats
from repro.sim.machine import Machine, SimulationError
from repro.targets.asip import Asip, AsipParams
from repro.targets.m56 import M56
from repro.targets.model import emitter
from repro.targets.risc import Risc16
from repro.targets.tc25 import TC25
from tests.cache.store_rows import connect, read_row, rewrite_row

TIERS = ((Machine, "reference"), (FastMachine, "fast"),
         (JitMachine, "jit"))


def ins(name, *operands, **kwargs):
    return AsmInstr(opcode=name, operands=tuple(operands), **kwargs)


def direct(address):
    return Mem(symbol=f"@{address}", mode="direct", address=address)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_decode_cache()      # also clears the jit caches
    yield
    clear_decode_cache()


def run_all_tiers(target, code, max_steps=2_000_000):
    states = []
    for machine_cls, _name in TIERS:
        states.append(machine_cls(target, max_steps=max_steps).run(code))
    return states


def assert_tiers_identical(target, code):
    reference, fast, jit = run_all_tiers(target, code)
    for other, name in ((fast, "fast"), (jit, "jit")):
        assert other.regs == reference.regs, name
        assert other.mem == reference.mem, name
        assert other.modes == reference.modes, name
        assert other.cycles == reference.cycles, name
    return reference


# ----------------------------------------------------------------------
# Equivalence on real compiled programs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("make_target", [
    TC25, M56, Risc16, lambda: Asip(AsipParams()),
], ids=["tc25", "m56", "risc16", "asip"])
def test_compiled_kernel_identical_across_tiers(make_target):
    target = make_target()
    spec = next(s for s in all_kernels() if s.name == "fir")
    compiled = RecordCompiler(target).compile(spec.program)
    for seed in (0, 1):
        inputs = spec.inputs(seed=seed)
        environments, cycles = [], []
        for machine_cls, _name in TIERS:
            state = target.initial_state()
            load_environment(compiled, inputs, state)
            machine_cls(target).run(compiled.code, state)
            environments.append(read_environment(compiled, state))
            cycles.append(state.cycles)
        assert environments[0] == environments[1] == environments[2]
        assert cycles[0] == cycles[1] == cycles[2]
    stats = jit_cache_stats()
    assert stats["blocks_emitted"] > 0
    assert stats["fallbacks"] == 0


def test_self_loop_blocks_are_fused():
    # A BANZ back-edge to its own block becomes one native while loop.
    code = CodeSeq([
        ins("ZAC"),
        ins("LARK", Reg("AR7"), Imm(9)),
        Label("L"),
        ins("ADDK", Imm(3)),
        ins("BANZ", LabelRef("L"), Reg("AR7"), cycles=2),
        ins("SACL", direct(0)),
    ])
    state = assert_tiers_identical(TC25(), code)
    assert state.mem[0] == 30
    assert jit_cache_stats()["loop_blocks"] >= 1


# ----------------------------------------------------------------------
# Degradation chain: template missing/declining -> inline closure call;
# template broken -> whole block demoted to decoded closures
# ----------------------------------------------------------------------

class DecliningAddTC25(TC25):
    """ADD has no usable template: emit_py declines, the jit inlines a
    call to the instruction's bound @binder closure instead."""

    def __init__(self):
        super().__init__()
        self.name = "tc25-declining-add"

    @emitter("ADD")
    def _emit_add_declines(self, instr, ctx):
        return False


class BrokenAddTC25(TC25):
    """ADD's template raises mid-emission: the surrounding block (only)
    degrades to its decoded FastMachine closures."""

    def __init__(self):
        super().__init__()
        self.name = "tc25-broken-add"

    @emitter("ADD")
    def _emit_add_broken(self, instr, ctx):
        ctx.set_reg("acc", "0xDEAD")      # partial emission, then:
        raise RuntimeError("deliberately broken template")


DEGRADATION_CODE = CodeSeq([
    ins("ZAC"),
    ins("LARK", Reg("AR7"), Imm(4)),
    Label("L"),
    ins("ADDK", Imm(2)),
    ins("ADD", direct(5)),
    ins("BANZ", LabelRef("L"), Reg("AR7"), cycles=2),
    ins("SACL", direct(0)),
])


def test_declining_template_inlines_closure_call():
    state = assert_tiers_identical(DecliningAddTC25(), DEGRADATION_CODE)
    assert state.mem[0] == 10
    stats = jit_cache_stats()
    assert stats["closure_steps"] >= 1      # the ADD slots
    assert stats["blocks_emitted"] >= 1     # blocks stay specialized
    assert stats["blocks_closure"] == 0
    assert stats["fallbacks"] == 0


def test_broken_template_demotes_only_its_block():
    state = assert_tiers_identical(BrokenAddTC25(), DEGRADATION_CODE)
    assert state.mem[0] == 10               # partial emission rolled back
    stats = jit_cache_stats()
    assert stats["blocks_closure"] >= 1     # the ADD block demoted
    assert stats["blocks_emitted"] >= 1     # other blocks still jitted
    assert stats["fallbacks"] == 0          # program-level jit survived


def test_tier_chain_bottoms_out_at_reference():
    # DecodeFallback (a trailing repeat armer) pushes FastMachine --
    # and therefore the jit -- down to the reference interpreter.
    code = CodeSeq([ins("LACK", Imm(3)), ins("SACL", direct(0)),
                    ins("RPTK", Imm(2))])
    state = assert_tiers_identical(TC25(), code)
    assert state.mem[0] == 3


# ----------------------------------------------------------------------
# Error paths must match the reference interpreter exactly
# ----------------------------------------------------------------------

@pytest.mark.parametrize("machine_cls", [m for m, _ in TIERS],
                         ids=[name for _, name in TIERS])
def test_runaway_guard_message_identical(machine_cls):
    code = CodeSeq([Label("L"), ins("B", LabelRef("L"), cycles=2)])
    with pytest.raises(SimulationError,
                       match=r"exceeded 100 steps; runaway loop\?"):
        machine_cls(TC25(), max_steps=100).run(code)


@pytest.mark.parametrize("machine_cls", [m for m, _ in TIERS],
                         ids=[name for _, name in TIERS])
def test_fused_loop_runaway_guard(machine_cls):
    # The budget check inside a fused self-loop, not just the runner.
    code = CodeSeq([
        ins("ZAC"),
        ins("LARK", Reg("AR7"), Imm(500)),
        Label("L"),
        ins("ADDK", Imm(1)),
        ins("BANZ", LabelRef("L"), Reg("AR7"), cycles=2),
        ins("SACL", direct(0)),
    ])
    with pytest.raises(SimulationError,
                       match=r"exceeded 50 steps; runaway loop\?"):
        machine_cls(TC25(), max_steps=50).run(code)


@pytest.mark.parametrize("machine_cls", [m for m, _ in TIERS],
                         ids=[name for _, name in TIERS])
def test_unknown_label_message_identical(machine_cls):
    code = CodeSeq([ins("B", LabelRef("nowhere"), cycles=2)])
    with pytest.raises(SimulationError,
                       match="branch to unknown label 'nowhere'"):
        machine_cls(TC25()).run(code)


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------

def test_persistent_source_cache_round_trip(tmp_path):
    target = TC25()
    spec = next(s for s in all_kernels() if s.name == "dot_product")
    compiled = RecordCompiler(target).compile(spec.program)
    inputs = spec.inputs(seed=0)
    try:
        repro.cache.configure(tmp_path / "cache")

        def run_once():
            state = target.initial_state()
            load_environment(compiled, inputs, state)
            JitMachine(target).run(compiled.code, state)
            return read_environment(compiled, state), state.cycles

        cold = run_once()
        assert jit_cache_stats()["source_cache_misses"] == 1
        clear_decode_cache()                # drop in-process caches only
        warm = run_once()
        stats = jit_cache_stats()
        assert stats["source_cache_hits"] == 1
        assert stats["source_cache_misses"] == 0
        assert warm == cold
    finally:
        repro.cache.configure(None)


def test_broken_persisted_source_warns_and_regenerates(tmp_path, caplog):
    target = TC25()
    spec = next(s for s in all_kernels() if s.name == "dot_product")
    compiled = RecordCompiler(target).compile(spec.program)
    inputs = spec.inputs(seed=0)

    def run_once():
        state = target.initial_state()
        load_environment(compiled, inputs, state)
        JitMachine(target).run(compiled.code, state)
        return read_environment(compiled, state), state.cycles

    try:
        cache = repro.cache.configure(tmp_path / "cache")
        clean = run_once()
        db = connect(cache)
        try:
            [(key, good_blob)] = db.execute(
                "SELECT key, blob FROM entries WHERE kind = 'source'")
        finally:
            db.close()
        good_source = good_blob.decode("utf-8")
        rewrite_row(cache, "source", key, blob=b"def broken(:\n")
        clear_decode_cache()                # drop in-process caches only
        with caplog.at_level(logging.WARNING, logger="repro.sim.jit"):
            rerun = run_once()
        rewritten, _atime = read_row(cache, "source", key)
    finally:
        repro.cache.configure(None)
    assert rerun == clean
    assert any(record.name == "repro.sim.jit" and key
               in record.getMessage() for record in caplog.records)
    assert rewritten == good_blob, "entry must be rewritten"
    # The broken text missed the module memo and was never stored.
    assert list(jit._MODULES) == [good_source]
    assert jit_cache_stats()["module_misses"] == 2


# ----------------------------------------------------------------------
# The compiled-module memo
# ----------------------------------------------------------------------

@pytest.mark.parametrize("store", [False, True],
                         ids=["generated", "from-store"])
def test_same_code_in_a_new_codeseq_is_a_module_hit(tmp_path, store):
    """A second compile of a kernel brings a new CodeSeq, so a new
    decode and translation; its module text (regenerated, or read from
    the store) is one this process already compiled."""
    target = TC25()
    spec = next(s for s in all_kernels() if s.name == "fir")
    inputs = spec.inputs(seed=0)

    def run_fresh_compile():
        compiled = RecordCompiler(target).compile(spec.program)
        state = target.initial_state()
        load_environment(compiled, inputs, state)
        JitMachine(target).run(compiled.code, state)
        return read_environment(compiled, state), state.cycles

    try:
        if store:
            repro.cache.configure(tmp_path / "cache")
        first = run_fresh_compile()
        second = run_fresh_compile()
        stats = jit_cache_stats()
    finally:
        repro.cache.configure(None)
    assert second == first
    assert stats["misses"] == 2
    assert (stats["module_misses"], stats["module_hits"]) == (1, 1)
    if store:
        assert stats["source_cache_hits"] == 1


def test_faulty_translation_never_shares_a_clean_module():
    target = TC25()
    code = CodeSeq([ins("ZAC"), ins("ADDK", Imm(5)),
                    ins("SACL", direct(0))])
    clean = JitMachine(target).run(code)
    faulty = JitMachine(FaultySim(target, Fault("ADDK", "SUBK"))).run(code)
    stats = jit_cache_stats()
    assert (stats["module_misses"], stats["module_hits"]) == (2, 0)
    assert (clean.mem[0], faulty.mem[0]) == (5, -5)


def test_module_memo_under_thread_contention(monkeypatch):
    """More threads than cores, a short switch interval and twice as
    many distinct modules as the memo holds (a bound of 4, so threads
    keep evicting what another one just read): no exception, the memo
    stays within its bound, no memo count is lost, and every thread
    sees the serial run's states."""
    monkeypatch.setattr(jit, "_MODULE_LIMIT", 4)
    target = TC25()
    count = 2 * jit._MODULE_LIMIT
    rounds = 600

    def run(k):
        code = CodeSeq([ins("ZAC"), ins("ADDK", Imm(k)),
                        ins("SACL", direct(0))])
        state = JitMachine(target).run(code)
        return state.regs, state.mem, state.modes, state.cycles

    serial = [run(k) for k in range(count)]
    clear_decode_cache()
    workers = 4 * (os.cpu_count() or 1)
    failures = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(rounds):
                k = rng.randrange(count)
                if run(k) != serial[k]:
                    failures.append(("state", k))
        except Exception as exc:                       # noqa: BLE001
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in range(workers)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(jit._MODULES) <= jit._MODULE_LIMIT
    stats = jit_cache_stats()
    assert stats["fallbacks"] == 0
    assert stats["module_hits"] + stats["module_misses"] \
        == workers * rounds


def test_clear_decode_cache_clears_jit_cache():
    target = TC25()
    code = CodeSeq([ins("ZAC"), ins("ADDK", Imm(5)),
                    ins("SACL", direct(0))])
    JitMachine(target).run(code)
    assert jit_cache_stats()["misses"] == 1
    JitMachine(target).run(code)
    assert jit_cache_stats()["hits"] == 1
    clear_decode_cache()
    assert all(value == 0 for value in jit_cache_stats().values())
    JitMachine(target).run(code)
    stats = jit_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 0


# ----------------------------------------------------------------------
# Differential fuzz: jit in the oracle conformance matrix (slow)
# ----------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("target_name",
                         ["tc25", "m56", "risc16", "asip"])
def test_jit_conformance_fuzz(target_name):
    from repro.verify.diff import SIM_NAMES, run_conformance
    assert "jit" in SIM_NAMES
    report = run_conformance(count=10, seed=7,
                             targets=(target_name,))
    assert not report.mismatches, report.summary()


@pytest.mark.slow
@pytest.mark.parametrize("make_target", [
    TC25, M56, Risc16, lambda: Asip(AsipParams()),
], ids=["tc25", "m56", "risc16", "asip"])
def test_jit_differential_fuzz_random_programs(make_target):
    from repro.selftest.generator import _random_program
    target = make_target()
    compiler = RecordCompiler(target)
    rng = random.Random(0x217)
    for index in range(6):
        program = _random_program(rng, index)
        compiled = compiler.compile(program)
        input_names = [name for name, symbol in program.symbols.items()
                       if symbol.role == "input"]
        for _ in range(3):
            inputs = {name: rng.randint(-3000, 3000)
                      for name in input_names}
            results = []
            for machine_cls, _name in TIERS:
                state = target.initial_state()
                load_environment(compiled, inputs, state)
                machine_cls(target).run(compiled.code, state)
                results.append((read_environment(compiled, state),
                                state.cycles))
            assert results[0] == results[1] == results[2]
