"""Risc16: a small general-purpose RISC core.

The "core version of a general-purpose processor" corner of the
processor cube (MiniRISC / ARM in the paper's Sec. 2.2).  Included to
demonstrate *retargeting breadth*: the same RECORD pipeline that feeds
accumulator and dual-bank DSPs also feeds a three-address load/store
machine -- only the target model changes.

Model: 16-bit memory words with 32-bit registers (loads sign-extend,
stores truncate -- the usual RISC arrangement, and the reason the Q15
kernels' wide products survive); general registers R1..R6 (allocated by linear scan
over the selector's virtual registers -- the homogeneous case of
Sec. 3.3's register-assignment discussion); pointer registers P0..P3
for array walks; counter registers C0/C1 for loops; absolute 1-word
addressing (a small embedded core with a 16-bit address in the second
instruction half -- see DESIGN.md for the encoding hand-waves).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.codegen.addressing import transform_instr_mems
from repro.codegen.asm import (
    AsmInstr, CodeSeq, Imm, Label, LabelRef, Mem, Reg,
)
from repro.codegen.compiled import MemoryMap
from repro.codegen.grammar import (
    Cost, EmitContext, Nt, Pat, Rule, Term, TreeGrammar,
)
from repro.codegen.regalloc import allocate_registers
from repro.ir.trees import Tree
from repro.sim.machine import MachineState, SimulationError
from repro.targets.model import (
    TargetCapabilities, TargetModel, emitter, semantics,
)

_MASK16 = (1 << 16) - 1
_MASK32 = (1 << 32) - 1


def _wrap16(value: int) -> int:
    value &= _MASK16
    return value - (1 << 16) if value >= (1 << 15) else value


def _wrap32(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value >= (1 << 31) else value


def _ins(opcode: str, *operands, words: int = 1, cycles: int = 1,
         comment: str = "") -> AsmInstr:
    return AsmInstr(opcode=opcode, operands=tuple(operands), words=words,
                    cycles=cycles, comment=comment)


class Risc16(TargetModel):
    """A 16-bit general-purpose RISC core (see module docstring)."""

    name = "risc16"
    word_bits = 16
    capabilities = TargetCapabilities(
        address_registers=4,
        max_post_modify=8,           # ADDI expands any stride anyway
        direct_addressing=True,
        memory_banks=(),
        parallel_slots=0,
        modes={},
        has_repeat=False,
        has_hardware_loop=False,
    )

    GENERAL_REGISTERS = ["R1", "R2", "R3", "R4", "R5", "R6"]
    STREAM_ADDRESS_REGISTERS = ["P0", "P1", "P2", "P3", "P4", "P5",
                                "P6", "P7"]
    LOOP_ADDRESS_REGISTERS = ["C0", "C1"]
    SPILL_CELLS = 8

    # ------------------------------------------------------------------
    # Grammar: three-address code over virtual registers
    # ------------------------------------------------------------------

    def _build_grammar(self) -> TreeGrammar:
        rules: List[Rule] = []
        add = rules.append

        add(Rule("mem", Term("ref"), Cost(0, 0),
                 emit=lambda ctx, args: args[0], name="mem-ref"))

        def fresh(ctx: EmitContext) -> Reg:
            counter = getattr(ctx, "_vreg_counter", 0)
            ctx._vreg_counter = counter + 1
            return Reg(f"v{counter}")

        def emit_lw(ctx, args):
            dest = fresh(ctx)
            ctx.emit(_ins("LW", dest, args[0]))
            return dest

        add(Rule("reg", Nt("mem"), Cost(1, 1), emit=emit_lw, name="LW"))

        def emit_li(ctx, args):
            dest = fresh(ctx)
            ctx.emit(_ins("LI", dest, Imm(args[0])))
            return dest

        add(Rule("reg", Term("const"), Cost(1, 1), emit=emit_li,
                 name="LI"))

        def three_address(opcode):
            def emit(ctx, args):
                dest = fresh(ctx)
                ctx.emit(_ins(opcode, dest, args[0], args[1]))
                return dest
            return emit

        for op_name, opcode in (("add", "ADD"), ("sub", "SUB"),
                                ("mul", "MUL"), ("and", "AND"),
                                ("or", "OR"), ("xor", "XOR"),
                                ("min", "MIN"), ("max", "MAX")):
            add(Rule("reg", Pat(op_name, (Nt("reg"), Nt("reg"))),
                     Cost(1, 1), emit=three_address(opcode),
                     name=opcode))

        def shift_imm(opcode):
            def emit(ctx, args):
                dest = fresh(ctx)
                ctx.emit(_ins(opcode, dest, args[0], Imm(args[1])))
                return dest
            return emit

        add(Rule("reg", Pat("shl", (Nt("reg"), Term("const"))),
                 Cost(1, 1), emit=shift_imm("SLLI"), name="SLLI"))
        add(Rule("reg", Pat("shr", (Nt("reg"), Term("const"))),
                 Cost(1, 1), emit=shift_imm("SRAI"), name="SRAI"))

        def two_address(opcode):
            def emit(ctx, args):
                dest = fresh(ctx)
                ctx.emit(_ins(opcode, dest, args[0]))
                return dest
            return emit

        for op_name, opcode in (("neg", "NEG"), ("not", "NOTR"),
                                ("abs", "ABSR"), ("sat", "SATR")):
            add(Rule("reg", Pat(op_name, (Nt("reg"),)), Cost(1, 1),
                     emit=two_address(opcode), name=opcode))

        def emit_addi(ctx, args):
            dest = fresh(ctx)
            ctx.emit(_ins("ADDI", dest, args[0], Imm(args[1])))
            return dest

        add(Rule("reg", Pat("add", (Nt("reg"), Term("const"))),
                 Cost(1, 1), emit=emit_addi, name="ADDI"))

        def emit_sw(ctx, args):
            ctx.emit(_ins("SW", args[1], args[0]))
            return None

        add(Rule("stmt", Pat("store", (Term("ref"), Nt("reg"))),
                 Cost(1, 1), emit=emit_sw, name="SW"))

        # Virtual registers are renamed apart, so nothing clobbers:
        # the allocator serializes the pressure instead.
        return TreeGrammar("risc16", rules,
                           nt_resources={"reg": None, "mem": None})

    # ------------------------------------------------------------------
    # Back-end hooks
    # ------------------------------------------------------------------

    def make_address_register_load(self, register: str,
                                   address: int) -> AsmInstr:
        return _ins("LI", Reg(register), Imm(address),
                    comment=f"point {register}")

    def make_pointer_bump(self, register: str, stride: int) -> AsmInstr:
        return _ins("ADDI", Reg(register), Reg(register), Imm(stride))

    def assign_addresses(self, code: CodeSeq, program, extra_scalars,
                         options) -> Tuple[CodeSeq, MemoryMap]:
        """Default addressing, then post-modify expansion (a RISC has no
        AGU) and register allocation -- done here so spill cells get
        real addresses from the same memory map."""
        from repro.codegen.addressing import AddressAssigner
        from repro.codegen.compiled import build_memory_map

        spill_names = [f"$spill{i}" for i in range(self.SPILL_CELLS)]
        memory_map = build_memory_map(
            program.symbols, list(extra_scalars) + spill_names)
        code = AddressAssigner(self, memory_map).run(code)
        code = self._expand_post_modify(code)
        spill_cells = [
            Mem(name, mode="direct",
                address=memory_map.address_of(name))
            for name in spill_names
        ]

        def spill_maker(cell, register, is_store):
            if is_store:
                return _ins("SW", register, cell, comment="spill")
            return _ins("LW", register, cell, comment="reload")

        code, _spills = allocate_registers(
            code, self.GENERAL_REGISTERS,
            spill_cells=spill_cells, spill_maker=spill_maker)
        return code, memory_map

    def _expand_post_modify(self, code: CodeSeq) -> CodeSeq:
        items: List = []
        for item in code:
            if not isinstance(item, AsmInstr):
                items.append(item)
                continue
            bumps: List[AsmInstr] = []

            def strip(operand: Mem) -> Mem:
                if operand.mode == "indirect" and operand.post_modify:
                    bumps.append(self.make_pointer_bump(
                        operand.areg, operand.post_modify))
                    return replace(operand, post_modify=0)
                return operand

            items.append(transform_instr_mems(item, strip))
            items.extend(bumps)
        return CodeSeq(items)

    def finalize_loop(self, count: int, body: List, loop_id: int,
                      depth: int) -> Tuple[List, List]:
        if depth >= len(self.LOOP_ADDRESS_REGISTERS):
            raise ValueError("risc16: loop nesting too deep")
        counter = self.LOOP_ADDRESS_REGISTERS[depth]
        label = f"L{loop_id}"
        prologue = [_ins("LI", Reg(counter), Imm(count)), Label(label)]
        epilogue = [
            _ins("ADDI", Reg(counter), Reg(counter), Imm(-1)),
            _ins("BNEZ", Reg(counter), LabelRef(label), cycles=2),
        ]
        return prologue, epilogue

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def initial_state(self) -> MachineState:
        regs: Dict[str, int] = {"R0": 0}
        for name in (self.GENERAL_REGISTERS
                     + self.STREAM_ADDRESS_REGISTERS
                     + self.LOOP_ADDRESS_REGISTERS):
            regs[name] = 0
        return MachineState(regs=regs, mem=[0] * 1024)

    def _address(self, state: MachineState, operand: Mem) -> int:
        if operand.mode == "direct":
            return operand.address
        if operand.mode == "indirect":
            return state.reg(operand.areg)
        raise SimulationError(f"unresolved operand {operand}")

    # -- instruction semantics ------------------------------------------
    #
    # The reference interpreter dispatches on these handlers, and the
    # fast simulator binds them at decode time (TargetModel.bind_step).

    _ALU_OPS = {
        "ADD": lambda a, b: a + b, "SUB": lambda a, b: a - b,
        "MUL": lambda a, b: a * b, "AND": lambda a, b: a & b,
        "OR": lambda a, b: a | b, "XOR": lambda a, b: a ^ b,
        "MIN": min, "MAX": max,
    }

    @semantics("LW")
    def _exec_lw(self, state: MachineState, instr: AsmInstr) -> None:
        dest, source = instr.operands
        state.regs[dest.name] = state.load(self._address(state, source))

    @semantics("SW")
    def _exec_sw(self, state: MachineState, instr: AsmInstr) -> None:
        value_reg, dest = instr.operands
        state.store(self._address(state, dest),
                    _wrap16(state.reg(value_reg.name)))

    @semantics("LI")
    def _exec_li(self, state: MachineState, instr: AsmInstr) -> None:
        dest, imm = instr.operands
        state.regs[dest.name] = imm.value

    @semantics("ADD", "SUB", "MUL", "AND", "OR", "XOR", "MIN", "MAX")
    def _exec_alu(self, state: MachineState, instr: AsmInstr) -> None:
        op = instr.opcode
        dest, left, right = instr.operands
        a, b = state.reg(left.name), state.reg(right.name)
        if op not in ("ADD", "SUB"):
            # multiplier / logic / compare ports are 16 bits wide
            a, b = _wrap16(a), _wrap16(b)
        state.regs[dest.name] = _wrap32(self._ALU_OPS[op](a, b))

    @semantics("ADDI")
    def _exec_addi(self, state: MachineState, instr: AsmInstr) -> None:
        dest, source, imm = instr.operands
        state.regs[dest.name] = _wrap32(
            state.reg(source.name) + imm.value)

    @semantics("SLLI", "SRAI")
    def _exec_shift_imm(self, state: MachineState,
                        instr: AsmInstr) -> None:
        dest, source, imm = instr.operands
        value = state.reg(source.name)
        state.regs[dest.name] = _wrap32(value << imm.value) \
            if instr.opcode == "SLLI" else (value >> imm.value)

    @semantics("NEG")
    def _exec_neg(self, state: MachineState, instr: AsmInstr) -> None:
        dest, source = instr.operands
        state.regs[dest.name] = _wrap32(-state.reg(source.name))

    @semantics("NOTR")
    def _exec_notr(self, state: MachineState, instr: AsmInstr) -> None:
        dest, source = instr.operands
        state.regs[dest.name] = ~_wrap16(state.reg(source.name))

    @semantics("ABSR")
    def _exec_absr(self, state: MachineState, instr: AsmInstr) -> None:
        dest, source = instr.operands
        state.regs[dest.name] = _wrap32(abs(state.reg(source.name)))

    @semantics("SATR")
    def _exec_satr(self, state: MachineState, instr: AsmInstr) -> None:
        dest, source = instr.operands
        state.regs[dest.name] = max(
            -(1 << 15), min((1 << 15) - 1, state.reg(source.name)))

    @semantics("BNEZ", branch=True)
    def _exec_bnez(self, state: MachineState,
                   instr: AsmInstr) -> Optional[str]:
        counter, label = instr.operands
        if state.reg(counter.name) != 0:
            return label.name
        return None

    @semantics("NOP")
    def _exec_nop(self, state: MachineState, instr: AsmInstr) -> None:
        pass

    # -- JIT source templates ------------------------------------------
    #
    # Post-modification is expanded into explicit ADDI during address
    # assignment, so (like the @semantics handlers) these ignore it and
    # use the bare effective address.

    _ALU_EXPRS = {
        "MUL": "{a} * {b}", "AND": "{a} & {b}", "OR": "{a} | {b}",
        "XOR": "{a} ^ {b}", "MIN": "min({a}, {b})",
        "MAX": "max({a}, {b})",
    }

    @emitter("LW")
    def _emit_lw(self, instr: AsmInstr, ctx) -> bool:
        dest, source = instr.operands
        ctx.set_reg(dest.name, ctx.load(ctx.mem_addr(source)))
        return True

    @emitter("SW")
    def _emit_sw(self, instr: AsmInstr, ctx) -> bool:
        source, dest = instr.operands
        ctx.store(ctx.mem_addr(dest), ctx.wrap16(ctx.reg(source.name)))
        return True

    @emitter("LI")
    def _emit_li(self, instr: AsmInstr, ctx) -> bool:
        dest, imm = instr.operands
        ctx.set_reg(dest.name, repr(imm.value))
        return True

    @emitter("ADD", "SUB")
    def _emit_add_sub(self, instr: AsmInstr, ctx) -> bool:
        dest, left, right = (operand.name for operand in instr.operands)
        sign = "+" if instr.opcode == "ADD" else "-"
        ctx.set_reg(dest, ctx.wrap32(
            f"{ctx.reg(left)} {sign} {ctx.reg(right)}"))
        return True

    @emitter("MUL", "AND", "OR", "XOR", "MIN", "MAX")
    def _emit_alu16(self, instr: AsmInstr, ctx) -> bool:
        dest, left, right = (operand.name for operand in instr.operands)
        a = ctx.tmp()
        ctx.line(f"{a} = {ctx.wrap16(ctx.reg(left))}")
        b = ctx.tmp()
        ctx.line(f"{b} = {ctx.wrap16(ctx.reg(right))}")
        expr = self._ALU_EXPRS[instr.opcode].format(a=a, b=b)
        ctx.set_reg(dest, ctx.wrap32(expr))
        return True

    @emitter("ADDI")
    def _emit_addi(self, instr: AsmInstr, ctx) -> bool:
        dest = instr.operands[0].name
        source = ctx.reg(instr.operands[1].name)
        value = instr.operands[2].value
        ctx.set_reg(dest, ctx.wrap32(f"{source} + ({value})"))
        return True

    @emitter("SLLI", "SRAI")
    def _emit_shift_imm(self, instr: AsmInstr, ctx) -> bool:
        dest = instr.operands[0].name
        source = ctx.reg(instr.operands[1].name)
        amount = instr.operands[2].value
        if instr.opcode == "SLLI":
            ctx.set_reg(dest, ctx.wrap32(f"{source} << {amount}"))
        else:
            ctx.set_reg(dest, f"{source} >> {amount}")
        return True

    @emitter("NEG")
    def _emit_neg(self, instr: AsmInstr, ctx) -> bool:
        dest, source = instr.operands
        ctx.set_reg(dest.name, ctx.wrap32(f"-{ctx.reg(source.name)}"))
        return True

    @emitter("NOTR")
    def _emit_notr(self, instr: AsmInstr, ctx) -> bool:
        dest, source = instr.operands
        ctx.set_reg(dest.name, f"~{ctx.wrap16(ctx.reg(source.name))}")
        return True

    @emitter("ABSR")
    def _emit_absr(self, instr: AsmInstr, ctx) -> bool:
        dest, source = instr.operands
        ctx.set_reg(dest.name,
                    ctx.wrap32(f"abs({ctx.reg(source.name)})"))
        return True

    @emitter("SATR")
    def _emit_satr(self, instr: AsmInstr, ctx) -> bool:
        dest, source = instr.operands
        ctx.set_reg(dest.name,
                    f"max(-32768, min(32767, {ctx.reg(source.name)}))")
        return True

    @emitter("BNEZ")
    def _emit_bnez(self, instr: AsmInstr, ctx) -> bool:
        counter = instr.operands[0].name
        label = instr.operands[1].name
        ctx.jump_if(f"{ctx.reg(counter)} != 0", label)
        return True

    @emitter("NOP")
    def _emit_nop(self, instr: AsmInstr, ctx) -> bool:
        return True
