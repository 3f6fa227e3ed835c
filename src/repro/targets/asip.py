"""Asip: an application-specific instruction-set processor generator.

Sec. 2.2 / 4.2 of the paper: "ASIPs frequently come with generic
parameters ... The user should at least be able to retarget a compiler
to every set of parameter values.  A larger range of target
architectures would be desirable to support experimentation with
different hardware options, especially for partitioning in
hardware/software codesign."

:class:`AsipParams` are exactly such generic parameters; an
:class:`Asip` is a TC25-family accumulator core whose instruction set
is assembled from them.  Because the RECORD pipeline consumes only the
explicit target model, every parameter combination yields a working
compiler immediately -- the retargeting story the paper demands,
exercised by ``benchmarks/bench_retarget.py`` (sweeping parameters and
watching code size/cycles respond is the codesign loop).

Parameters:

- ``has_multiplier`` / ``has_mac``: a T*mem multiplier, and whether the
  P register can accumulate into ACC (APAC/SPAC) or only transfer (PAC);
- ``has_repeat``: RPTK-style hardware repeat;
- ``has_product_shifter``: the pm=15 fractional product shift path;
- ``has_barrel_shifter``: k-bit accumulator shifts in one instruction
  (otherwise SFL/SFR chains);
- ``address_registers``: how many AGU registers serve array streams;
- ``immediate_bits``: width of the short-immediate path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.codegen.asm import AsmInstr, Imm
from repro.codegen.grammar import Cost, Nt, Pat, Rule, Term, TreeGrammar
from repro.ir.trees import Tree
from repro.sim.machine import MachineState
from repro.targets.model import (
    TargetCapabilities, emitter, semantics,
)
from repro.targets.tc25 import TC25, _ins, _wrap32


@dataclass(frozen=True)
class AsipParams:
    """Generic parameters of the ASIP family."""

    word_bits: int = 16
    has_multiplier: bool = True
    has_mac: bool = True
    has_repeat: bool = True
    has_product_shifter: bool = True
    has_barrel_shifter: bool = False
    address_registers: int = 8
    immediate_bits: int = 8

    def describe(self) -> str:
        """Compact one-line parameter summary (used in target names)."""
        flags = []
        for attribute in ("has_multiplier", "has_mac", "has_repeat",
                          "has_product_shifter", "has_barrel_shifter"):
            if getattr(self, attribute):
                flags.append(attribute[4:])
        return (f"asip[{self.word_bits}b, {self.address_registers}AR, "
                f"imm{self.immediate_bits}"
                + ("".join(", " + f for f in flags)) + "]")


class Asip(TC25):
    """A TC25-family core specialized by :class:`AsipParams`."""

    def __init__(self, params: AsipParams = AsipParams()):
        self.params = params
        self.name = f"asip({params.describe()})"
        self.word_bits = params.word_bits
        stream_count = max(1, params.address_registers)
        self.STREAM_ADDRESS_REGISTERS = [
            f"AR{i}" for i in range(stream_count)]
        self.LOOP_ADDRESS_REGISTERS = [f"AR{stream_count}",
                                       f"AR{stream_count + 1}"]
        self.capabilities = TargetCapabilities(
            address_registers=stream_count,
            max_post_modify=8,
            direct_addressing=True,
            memory_banks=(),
            parallel_slots=0,
            modes={"pm": (0, 15)} if params.has_product_shifter else {},
            has_repeat=params.has_repeat,
            has_hardware_loop=False,
        )
        super().__init__()

    # ------------------------------------------------------------------

    def _build_grammar(self) -> TreeGrammar:
        """Prune / extend the TC25 grammar according to the parameters."""
        base = super()._build_grammar()
        params = self.params
        rules: List[Rule] = []
        imm_top = (1 << params.immediate_bits) - 1
        for rule in base.rules:
            name = rule.name
            if not params.has_multiplier and name in (
                    "MPY", "MPYK", "PAC/pm0", "PAC/pm15", "APAC/pm0",
                    "APAC/pm15", "SPAC/pm0", "SPAC/pm15", "LT"):
                continue
            if not params.has_mac and name in (
                    "APAC/pm0", "APAC/pm15", "SPAC/pm0", "SPAC/pm15"):
                continue
            if not params.has_product_shifter and name.endswith("/pm15"):
                continue
            if name == "LACK" and params.immediate_bits != 8:
                # re-guard the short-immediate rule to the chosen width
                rules.append(Rule(
                    rule.nonterm,
                    Term("const",
                         lambda t, top=imm_top: 0 <= t.value <= top,
                         f"#u{params.immediate_bits}"),
                    rule.cost, emit=rule.emit, name=rule.name,
                    clobbers=rule.clobbers))
                continue
            rules.append(rule)
        if params.has_barrel_shifter:
            def barrel(opcode):
                def emit(ctx, args):
                    ctx.emit(_ins(opcode, Imm(args[1])))
                    return "acc"
                return emit

            def shift_pred(tree: Tree) -> bool:
                return 1 <= tree.value <= params.word_bits - 1

            rules.append(Rule(
                "acc", Pat("shl", (Nt("acc"),
                                   Term("const", shift_pred, "#k"))),
                Cost(1, 1), emit=barrel("SFLK"), name="SFLK",
                clobbers=frozenset({"acc"})))
            rules.append(Rule(
                "acc", Pat("shr", (Nt("acc"),
                                   Term("const", shift_pred, "#k"))),
                Cost(1, 1), emit=barrel("SFRK"), name="SFRK",
                clobbers=frozenset({"acc"})))
        return TreeGrammar(self.name, rules,
                           nt_resources=base.nt_resources)

    # ------------------------------------------------------------------

    def loop_optimizations(self, code, read_only_arrays,
                           promote_accumulators=True, repeat_idioms=True,
                           fuse_shift_idioms=False):
        if not self.params.has_repeat:
            repeat_idioms = False
            fuse_shift_idioms = False
        return super().loop_optimizations(
            code, read_only_arrays,
            promote_accumulators=promote_accumulators,
            repeat_idioms=repeat_idioms,
            fuse_shift_idioms=fuse_shift_idioms)

    def finalize_loop(self, count: int, body: List, loop_id: int,
                      depth: int) -> Tuple[List, List]:
        if not self.params.has_repeat and len(body) == 1:
            # Defeat the RPTK special case: hand the parent a body that
            # looks multi-instruction (only the length is inspected; the
            # pipeline emits the real body regardless).
            body = list(body) + [_ins("NOP")]
        return super().finalize_loop(count, body, loop_id, depth)

    # ------------------------------------------------------------------

    def initial_state(self) -> MachineState:
        state = super().initial_state()
        stream_count = max(1, self.params.address_registers)
        for index in range(stream_count + 2):
            state.regs.setdefault(f"AR{index}", 0)
        return state

    # The barrel-shifter instructions extend the inherited TC25
    # @semantics and @emitter registries; everything else runs through
    # the parent's handlers and jit templates.

    @semantics("SFLK")
    def _exec_sflk(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs["acc"] = _wrap32(
            state.regs["acc"] << instr.operands[0].value)

    @semantics("SFRK")
    def _exec_sfrk(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs["acc"] >>= instr.operands[0].value

    @emitter("SFLK", "SFRK")
    def _emit_barrel_shift(self, instr: AsmInstr, ctx) -> bool:
        amount = instr.operands[0].value
        acc = ctx.reg("acc")
        if instr.opcode == "SFLK":
            ctx.set_reg("acc", ctx.wrap32(f"{acc} << {amount}"))
        else:
            ctx.set_reg("acc", f"{acc} >> {amount}")
        return True
