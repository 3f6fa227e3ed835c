"""TC25: a TI TMS320C25-flavoured accumulator DSP.

This is the processor of the paper's Table 1.  The model follows the
TMS320C25 programmer's view:

- 16-bit data memory and T register; 32-bit accumulator ACC and product
  register P;
- one multiplier port: ``MPY`` multiplies T by a memory operand into P;
  ``PAC``/``APAC``/``SPAC`` move/add/subtract P into ACC, shifted by the
  product-shift mode ``pm`` (0 or 15 -- the fractional Q15 case);
- direct addressing for scalars, indirect addressing through address
  registers AR0..AR7 with free post-modification;
- ``RPTK`` hardware repeat of one instruction, ``BANZ`` loops otherwise;
- ``MAC``/``MACD``: repeatable multiply-accumulate with the coefficient
  operand streaming from a table in *program* memory (the classic C25
  FIR idiom), ``MACD`` additionally shifting the delay line (``DMOV``).

Documented deviations from the real silicon (see DESIGN.md):

- ``SATL`` saturates ACC to the 16-bit range in one instruction; the
  real C25 reaches saturation through the OVM status bit.  Our explicit
  instruction keeps ``sat()`` local to the expression tree.
- post-modification accepts any small constant stride; the real C25
  achieves strides > 1 through the AR0-index addressing mode ``*0+``.
- the data page pointer is ignored: direct addresses cover all of the
  (single-page-sized) data memory used by the kernels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codegen.asm import (
    AsmInstr, CodeSeq, Imm, Label, LabelRef, LoopBegin, Mem, Reg,
)
from repro.codegen.grammar import (
    Cost, EmitContext, Nt, Pat, Rule, Term, TreeGrammar,
)
from repro.ir.ops import OpKind
from repro.ir.trees import WIDE_PREFIX, Tree
from repro.sim.machine import MachineState, SimulationError
from repro.targets.model import (
    TargetCapabilities, TargetModel, emitter, semantics,
)

_MASK32 = (1 << 32) - 1
_MASK16 = (1 << 16) - 1


def _wrap32(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value >= (1 << 31) else value


def _wrap16(value: int) -> int:
    value &= _MASK16
    return value - (1 << 16) if value >= (1 << 15) else value


def _ins(opcode: str, *operands, words: int = 1, cycles: int = 1,
         modes: Optional[Dict[str, int]] = None,
         comment: str = "") -> AsmInstr:
    return AsmInstr(opcode=opcode, operands=tuple(operands), words=words,
                    cycles=cycles, modes=modes or {}, comment=comment)


# ----------------------------------------------------------------------
# Immediate predicates
# ----------------------------------------------------------------------

def _is_u8(tree: Tree) -> bool:
    return 0 <= tree.value <= 255


def _is_s13(tree: Tree) -> bool:
    return -4096 <= tree.value <= 4095


def _is_zero(tree: Tree) -> bool:
    return tree.value == 0


def _shift_pred(amount: int):
    return lambda tree: tree.value == amount


def _dmov_guard(tree: Tree) -> bool:
    """store(dst_ref, src_ref) realizable as DMOV: same array, same
    stride, destination one element above the source."""
    dst, src = tree.children
    if dst.symbol != src.symbol:
        return False
    if dst.index is None or src.index is None:
        return False
    return (dst.index.coeff == src.index.coeff
            and dst.index.offset == src.index.offset + 1)


def _place_hoisted(nodes: List) -> List:
    """Insert the pre/post instructions that loop optimization hoisted
    out of each loop around that loop."""
    from repro.codegen.structure import LoopNode, Run

    placed: List = []
    for node in nodes:
        if isinstance(node, LoopNode):
            node.body = _place_hoisted(node.body)
            pre = (getattr(node, "promoted_prologue", [])
                   + getattr(node, "mac_prologue", []))
            post = (getattr(node, "mac_epilogue", [])
                    + getattr(node, "promoted_epilogue", []))
            if pre:
                placed.append(Run(items=list(pre)))
            placed.append(node)
            if post:
                placed.append(Run(items=list(post)))
        else:
            placed.append(node)
    return placed


class TC25(TargetModel):
    """TI TMS320C25-flavoured accumulator DSP (see module docstring)."""

    name = "tc25"
    word_bits = 16
    capabilities = TargetCapabilities(
        address_registers=7,            # AR0..AR6 for streams; AR7 loops
        max_post_modify=8,
        direct_addressing=True,
        memory_banks=(),
        parallel_slots=0,
        modes={"pm": (0, 15)},
        has_repeat=True,
        has_hardware_loop=False,
    )

    # The eight ARs are split *per program*: loops claim AR7 (and AR6
    # for a second nesting level) only when the program actually nests
    # that deep; every remaining AR serves array streams -- see
    # stream_registers_for.
    STREAM_ADDRESS_REGISTERS = ["AR0", "AR1", "AR2", "AR3", "AR4", "AR5",
                                "AR6"]
    LOOP_ADDRESS_REGISTERS = ["AR7", "AR6"]

    def stream_registers_for(self, code: CodeSeq):
        """ARs available for streams, after reserving loop counters for
        the program's actual nesting depth (BANZ loops need one AR per
        level; hardware-repeat loops need none, but the RPTK decision
        is made later, so reservation is by marker depth)."""
        from repro.codegen.asm import LoopBegin, LoopEnd
        depth = max_depth = 0
        for item in code:
            if isinstance(item, LoopBegin):
                depth += 1
                max_depth = max(max_depth, depth)
            elif isinstance(item, LoopEnd):
                depth -= 1
        reserved = {self.LOOP_ADDRESS_REGISTERS[level]
                    for level in range(min(
                        max_depth, len(self.LOOP_ADDRESS_REGISTERS)))}
        return [f"AR{i}" for i in range(8) if f"AR{i}" not in reserved]

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------

    def _build_grammar(self) -> TreeGrammar:
        rules: List[Rule] = []
        add = rules.append

        # --- leaves -----------------------------------------------------
        def not_wide(tree: Tree) -> bool:
            return not (tree.symbol or "").startswith(WIDE_PREFIX)

        add(Rule("mem", Term("ref", not_wide), Cost(0, 0),
                 emit=lambda ctx, args: args[0], name="mem-ref"))
        add(Rule("imm", Term("const"), Cost(0, 0),
                 emit=lambda ctx, args: args[0], name="imm-const"))

        # --- accumulator loads -------------------------------------------
        def emit_lac(ctx, args):
            ctx.emit(_ins("LAC", args[0]))
            return "acc"

        add(Rule("acc", Nt("mem"), Cost(1, 1), emit=emit_lac,
                 name="LAC", clobbers=frozenset({"acc"})))

        def emit_zac(ctx, args):
            ctx.emit(_ins("ZAC"))
            return "acc"

        add(Rule("acc", Term("const", _is_zero, "#0"), Cost(1, 1),
                 emit=emit_zac, name="ZAC", clobbers=frozenset({"acc"})))

        def emit_lack(ctx, args):
            ctx.emit(_ins("LACK", Imm(args[0])))
            return "acc"

        add(Rule("acc", Term("const", _is_u8, "#u8"), Cost(1, 1),
                 emit=emit_lack, name="LACK", clobbers=frozenset({"acc"})))

        def emit_lalk(ctx, args):
            ctx.emit(_ins("LALK", Imm(args[0]), words=2, cycles=2))
            return "acc"

        add(Rule("acc", Term("const"), Cost(2, 2), emit=emit_lalk,
                 name="LALK", clobbers=frozenset({"acc"})))

        # --- accumulator arithmetic with memory ---------------------------
        def binary_mem(opcode):
            def emit(ctx, args):
                ctx.emit(_ins(opcode, args[1]))
                return "acc"
            return emit

        for op_name, opcode in [("add", "ADD"), ("sub", "SUB"),
                                ("and", "AND"), ("or", "OR"),
                                ("xor", "XOR")]:
            add(Rule("acc", Pat(op_name, (Nt("acc"), Nt("mem"))),
                     Cost(1, 1), emit=binary_mem(opcode), name=opcode,
                     clobbers=frozenset({"acc"})))

        def binary_imm(opcode, words):
            def emit(ctx, args):
                ctx.emit(_ins(opcode, Imm(args[1]), words=words,
                              cycles=words))
                return "acc"
            return emit

        add(Rule("acc", Pat("add", (Nt("acc"), Term("const", _is_u8,
                                                    "#u8"))),
                 Cost(1, 1), emit=binary_imm("ADDK", 1), name="ADDK",
                 clobbers=frozenset({"acc"})))
        add(Rule("acc", Pat("sub", (Nt("acc"), Term("const", _is_u8,
                                                    "#u8"))),
                 Cost(1, 1), emit=binary_imm("SUBK", 1), name="SUBK",
                 clobbers=frozenset({"acc"})))
        add(Rule("acc", Pat("add", (Nt("acc"), Term("const"))),
                 Cost(2, 2), emit=binary_imm("ADLK", 2), name="ADLK",
                 clobbers=frozenset({"acc"})))
        add(Rule("acc", Pat("sub", (Nt("acc"), Term("const"))),
                 Cost(2, 2), emit=binary_imm("SBLK", 2), name="SBLK",
                 clobbers=frozenset({"acc"})))
        for op_name, opcode in [("and", "ANDK"), ("or", "ORK"),
                                ("xor", "XORK")]:
            add(Rule("acc", Pat(op_name, (Nt("acc"), Term("const"))),
                     Cost(2, 2), emit=binary_imm(opcode, 2), name=opcode,
                     clobbers=frozenset({"acc"})))

        # --- accumulator unaries -------------------------------------------
        def unary(opcode):
            def emit(ctx, args):
                ctx.emit(_ins(opcode))
                return "acc"
            return emit

        add(Rule("acc", Pat("neg", (Nt("acc"),)), Cost(1, 1),
                 emit=unary("NEG"), name="NEG",
                 clobbers=frozenset({"acc"})))
        add(Rule("acc", Pat("abs", (Nt("acc"),)), Cost(1, 1),
                 emit=unary("ABS"), name="ABS",
                 clobbers=frozenset({"acc"})))
        add(Rule("acc", Pat("not", (Nt("acc"),)), Cost(1, 1),
                 emit=unary("CMPL"), name="CMPL",
                 clobbers=frozenset({"acc"})))
        add(Rule("acc", Pat("sat", (Nt("acc"),)), Cost(1, 1),
                 emit=unary("SATL"), name="SATL",
                 clobbers=frozenset({"acc"})))

        # --- shifts --------------------------------------------------------
        # SFL/SFR shift ACC by one bit; k-bit shifts unroll (the C25 has
        # no accumulator barrel shifter).  Loads, however, pass through
        # the input shifter for free: LAC m,k loads with a left shift.
        def shifter(opcode, amount):
            def emit(ctx, args):
                for _ in range(amount):
                    ctx.emit(_ins(opcode))
                return "acc"
            return emit

        for amount in range(1, 16):
            add(Rule("acc", Pat("shl", (Nt("acc"),
                                        Term("const", _shift_pred(amount),
                                             f"#{amount}"))),
                     Cost(amount, amount), emit=shifter("SFL", amount),
                     name=f"SFLx{amount}", clobbers=frozenset({"acc"})))
            add(Rule("acc", Pat("shr", (Nt("acc"),
                                        Term("const", _shift_pred(amount),
                                             f"#{amount}"))),
                     Cost(amount, amount), emit=shifter("SFR", amount),
                     name=f"SFRx{amount}", clobbers=frozenset({"acc"})))

        def emit_lac_shifted(ctx, args):
            ctx.emit(_ins("LACS", args[0], Imm(args[1]),
                          comment="load with left shift"))
            return "acc"

        add(Rule("acc", Pat("shl", (Nt("mem"),
                                    Term("const",
                                         lambda t: 1 <= t.value <= 15,
                                         "#1..15"))),
                 Cost(1, 1), emit=emit_lac_shifted, name="LACS",
                 clobbers=frozenset({"acc"})))

        # --- multiplier ----------------------------------------------------
        def emit_lt(ctx, args):
            ctx.emit(_ins("LT", args[0]))
            return "t"

        add(Rule("treg", Nt("mem"), Cost(1, 1), emit=emit_lt, name="LT",
                 clobbers=frozenset({"t"})))

        def emit_mpy(ctx, args):
            ctx.emit(_ins("MPY", args[1]))
            return "p"

        add(Rule("preg", Pat("mul", (Nt("treg"), Nt("mem"))), Cost(1, 1),
                 emit=emit_mpy, name="MPY", clobbers=frozenset({"p"})))

        def emit_mpyk(ctx, args):
            ctx.emit(_ins("MPYK", Imm(args[1])))
            return "p"

        add(Rule("preg", Pat("mul", (Nt("treg"),
                                     Term("const", _is_s13, "#s13"))),
                 Cost(1, 1), emit=emit_mpyk, name="MPYK",
                 clobbers=frozenset({"p"})))

        # --- P-to-ACC transfers, integer (pm=0) and fractional (pm=15) ----
        def p_transfer(opcode, pm):
            def emit(ctx, args):
                ctx.emit(_ins(opcode, modes={"pm": pm}))
                return "acc"
            return emit

        for opcode, shape, pm in [
            ("PAC", Nt("preg"), 0),
            ("PAC", Pat("shr", (Nt("preg"),
                                Term("const", _shift_pred(15), "#15"))), 15),
        ]:
            add(Rule("acc", shape, Cost(1, 1),
                     emit=p_transfer(opcode, pm),
                     name=f"{opcode}/pm{pm}", clobbers=frozenset({"acc"})))

        for opcode, ir_op, pm_shape, pm in [
            ("APAC", "add", Nt("preg"), 0),
            ("SPAC", "sub", Nt("preg"), 0),
            ("APAC", "add", Pat("shr", (Nt("preg"),
                                        Term("const", _shift_pred(15),
                                             "#15"))), 15),
            ("SPAC", "sub", Pat("shr", (Nt("preg"),
                                        Term("const", _shift_pred(15),
                                             "#15"))), 15),
        ]:
            add(Rule("acc", Pat(ir_op, (Nt("acc"), pm_shape)), Cost(1, 1),
                     emit=p_transfer(opcode, pm),
                     name=f"{opcode}/pm{pm}", clobbers=frozenset({"acc"})))

        # --- stores ---------------------------------------------------------
        def emit_sacl(ctx, args):
            ctx.emit(_ins("SACL", args[0]))
            return None

        add(Rule("stmt", Pat("store", (Term("ref"), Nt("acc"))),
                 Cost(1, 1), emit=emit_sacl, name="SACL"))

        def emit_dmov(ctx, args):
            ctx.emit(_ins("DMOV", args[1]))
            return None

        add(Rule("stmt", Pat("store", (Term("ref"), Term("ref"))),
                 Cost(1, 1), emit=emit_dmov, name="DMOV",
                 guard=_dmov_guard))

        # --- double-width spills (32-bit values through 16-bit memory) ---
        def is_wide(tree: Tree) -> bool:
            return (tree.symbol or "").startswith(WIDE_PREFIX)

        def emit_wide_store(ctx, args):
            slot = args[0]
            ctx.emit(_ins("SACH", Mem(f"{slot.symbol}.h"),
                          comment="wide spill, high"))
            ctx.emit(_ins("SACL", Mem(f"{slot.symbol}.l"),
                          comment="wide spill, low"))
            return None

        add(Rule("wstmt", Pat("store", (Term("ref"), Nt("acc"))),
                 Cost(2, 2), emit=emit_wide_store, name="SACH+SACL"))

        def emit_wide_reload(ctx, args):
            slot = args[0]
            ctx.emit(_ins("ZALH", Mem(f"{slot.symbol}.h"),
                          comment="wide reload, high"))
            ctx.emit(_ins("ADDS", Mem(f"{slot.symbol}.l"),
                          comment="wide reload, low (unsigned)"))
            return "acc"

        add(Rule("acc", Term("ref", is_wide, WIDE_PREFIX), Cost(2, 2),
                 emit=emit_wide_reload, name="ZALH+ADDS",
                 clobbers=frozenset({"acc"})))

        return TreeGrammar(
            name="tc25",
            rules=rules,
            nt_resources={"acc": "acc", "treg": "t", "preg": "p",
                          "mem": None, "imm": None},
        )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def initial_state(self) -> MachineState:
        regs = {"acc": 0, "p": 0, "t": 0, "rptc": 0, "mac_idx": 0}
        for index in range(8):
            regs[f"AR{index}"] = 0
        state = MachineState(regs=regs, modes={"pm": 0})
        return state

    def mode_reset_values(self) -> Dict[str, int]:
        return {"pm": 0}

    def repeat_count(self, state: MachineState, instr: AsmInstr) -> int:
        state.regs["mac_idx"] = 0
        count = state.regs.get("rptc", 0)
        state.regs["rptc"] = 0
        return count + 1

    # -- operand helpers -------------------------------------------------

    def _address(self, state: MachineState, operand: Mem) -> int:
        if operand.mode == "direct":
            return operand.address
        if operand.mode == "indirect":
            return state.reg(operand.areg)
        raise SimulationError(
            f"unresolved memory operand {operand} (run address assignment)")

    def _read_mem(self, state: MachineState, operand: Mem) -> int:
        address = self._address(state, operand)
        value = state.load(address)
        self._post_modify(state, operand)
        return value

    def _write_mem(self, state: MachineState, operand: Mem,
                   value: int) -> int:
        address = self._address(state, operand)
        state.store(address, _wrap16(value))
        self._post_modify(state, operand)
        return address

    def _post_modify(self, state: MachineState, operand: Mem) -> None:
        if operand.mode == "indirect" and operand.post_modify:
            state.set_reg(operand.areg,
                          state.reg(operand.areg) + operand.post_modify)

    # -- instruction semantics ---------------------------------------------
    #
    # One @semantics handler per opcode group; the base TargetModel
    # dispatches on the registry, so this *is* the reference
    # interpreter.  The fast simulator binds the same handlers at decode
    # time (TargetModel.bind_step).

    @semantics("ZAC")
    def _exec_zac(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs["acc"] = 0

    @semantics("LAC")
    def _exec_lac(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs["acc"] = self._read_mem(state, instr.operands[0])

    @semantics("LACS")
    def _exec_lacs(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs["acc"] = _wrap32(
            self._read_mem(state, instr.operands[0])
            << instr.operands[1].value)

    @semantics("LACK", "LALK")
    def _exec_load_imm(self, state: MachineState,
                       instr: AsmInstr) -> None:
        state.regs["acc"] = instr.operands[0].value

    @semantics("ADD")
    def _exec_add(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(regs["acc"]
                              + self._read_mem(state, instr.operands[0]))

    @semantics("SUB")
    def _exec_sub(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(regs["acc"]
                              - self._read_mem(state, instr.operands[0]))

    @semantics("ADDK", "ADLK")
    def _exec_add_imm(self, state: MachineState,
                      instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(regs["acc"] + instr.operands[0].value)

    @semantics("SUBK", "SBLK")
    def _exec_sub_imm(self, state: MachineState,
                      instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(regs["acc"] - instr.operands[0].value)

    @semantics("ANDK")
    def _exec_andk(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap16(regs["acc"]) & instr.operands[0].value

    @semantics("ORK")
    def _exec_ork(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap16(regs["acc"]) | instr.operands[0].value

    @semantics("XORK")
    def _exec_xork(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap16(regs["acc"]) ^ instr.operands[0].value

    @semantics("AND")
    def _exec_and(self, state: MachineState, instr: AsmInstr) -> None:
        # The C25 logic unit is 16 bits wide: the accumulator passes
        # through it at word width (see FixedPointContext semantics).
        regs = state.regs
        regs["acc"] = _wrap16(regs["acc"]) \
            & self._read_mem(state, instr.operands[0])

    @semantics("OR")
    def _exec_or(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap16(regs["acc"]) \
            | self._read_mem(state, instr.operands[0])

    @semantics("XOR")
    def _exec_xor(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap16(regs["acc"]) \
            ^ self._read_mem(state, instr.operands[0])

    @semantics("CMPL")
    def _exec_cmpl(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = ~_wrap16(regs["acc"])

    @semantics("NEG")
    def _exec_neg(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(-regs["acc"])

    @semantics("ABS")
    def _exec_abs(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(abs(regs["acc"]))

    @semantics("SATL")
    def _exec_satl(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = max(-(1 << 15), min((1 << 15) - 1, regs["acc"]))

    @semantics("SFL")
    def _exec_sfl(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(regs["acc"] << 1)

    @semantics("SFR")
    def _exec_sfr(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs["acc"] >>= 1

    @semantics("SACL")
    def _exec_sacl(self, state: MachineState, instr: AsmInstr) -> None:
        self._write_mem(state, instr.operands[0], state.regs["acc"])

    @semantics("SACH")
    def _exec_sach(self, state: MachineState, instr: AsmInstr) -> None:
        self._write_mem(state, instr.operands[0],
                        state.regs["acc"] >> 16)

    @semantics("ZALH")
    def _exec_zalh(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs["acc"] = _wrap32(
            self._read_mem(state, instr.operands[0]) << 16)

    @semantics("ADDS")
    def _exec_adds(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(
            regs["acc"]
            + (self._read_mem(state, instr.operands[0]) & 0xFFFF))

    @semantics("DMOV")
    def _exec_dmov(self, state: MachineState, instr: AsmInstr) -> None:
        operand = instr.operands[0]
        address = self._address(state, operand)
        state.store(address + 1, state.load(address))
        self._post_modify(state, operand)

    @semantics("LT")
    def _exec_lt(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs["t"] = self._read_mem(state, instr.operands[0])

    @semantics("MPY")
    def _exec_mpy(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["p"] = _wrap32(regs["t"]
                            * self._read_mem(state, instr.operands[0]))

    @semantics("MPYK")
    def _exec_mpyk(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["p"] = _wrap32(regs["t"] * instr.operands[0].value)

    @semantics("PAC")
    def _exec_pac(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = regs["p"] >> state.modes.get("pm", 0)

    @semantics("APAC")
    def _exec_apac(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(
            regs["acc"] + (regs["p"] >> state.modes.get("pm", 0)))

    @semantics("SPAC")
    def _exec_spac(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(
            regs["acc"] - (regs["p"] >> state.modes.get("pm", 0)))

    @semantics("SPM")
    def _exec_spm(self, state: MachineState, instr: AsmInstr) -> None:
        state.modes["pm"] = instr.operands[0].value

    @semantics("LARK", "LRLK")
    def _exec_load_ar(self, state: MachineState,
                      instr: AsmInstr) -> None:
        state.regs[instr.operands[0].name] = instr.operands[1].value

    @semantics("LAR")
    def _exec_lar(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs[instr.operands[0].name] = self._read_mem(
            state, instr.operands[1])

    @semantics("SAR")
    def _exec_sar(self, state: MachineState, instr: AsmInstr) -> None:
        self._write_mem(state, instr.operands[1],
                        state.regs[instr.operands[0].name])

    @semantics("RPTK")
    def _exec_rptk(self, state: MachineState, instr: AsmInstr) -> None:
        state.regs["rptc"] = instr.operands[0].value

    @semantics("MAC", "MACD")
    def _exec_mac(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        table = instr.operands[0]
        data_operand = instr.operands[1]
        address = self._address(state, data_operand)
        data = state.load(address)
        if instr.opcode == "MACD":
            state.store(address + 1, data)
        self._post_modify(state, data_operand)
        coefficient = self._pmem_value(state, table.name,
                                       regs["mac_idx"])
        regs["mac_idx"] += 1
        regs["acc"] = _wrap32(
            regs["acc"] + (regs["p"] >> state.modes.get("pm", 0)))
        regs["p"] = _wrap32(coefficient * data)

    @semantics("LTA")
    def _exec_lta(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(
            regs["acc"] + (regs["p"] >> state.modes.get("pm", 0)))
        regs["t"] = self._read_mem(state, instr.operands[0])

    @semantics("LTS")
    def _exec_lts(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(
            regs["acc"] - (regs["p"] >> state.modes.get("pm", 0)))
        regs["t"] = self._read_mem(state, instr.operands[0])

    @semantics("LTP")
    def _exec_ltp(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = regs["p"] >> state.modes.get("pm", 0)
        regs["t"] = self._read_mem(state, instr.operands[0])

    @semantics("LTD")
    def _exec_ltd(self, state: MachineState, instr: AsmInstr) -> None:
        regs = state.regs
        regs["acc"] = _wrap32(
            regs["acc"] + (regs["p"] >> state.modes.get("pm", 0)))
        operand = instr.operands[0]
        address = self._address(state, operand)
        data = state.load(address)
        regs["t"] = data
        state.store(address + 1, data)
        self._post_modify(state, operand)

    @semantics("B", branch=True)
    def _exec_b(self, state: MachineState, instr: AsmInstr) -> str:
        return instr.operands[0].name

    @semantics("BANZ", branch=True)
    def _exec_banz(self, state: MachineState,
                   instr: AsmInstr) -> Optional[str]:
        regs = state.regs
        label = instr.operands[0]
        areg = instr.operands[1].name
        taken = regs[areg] != 0
        regs[areg] = _wrap16(regs[areg] - 1)
        if taken:
            return label.name
        return None

    @semantics("MAR")
    def _exec_mar(self, state: MachineState, instr: AsmInstr) -> None:
        self._post_modify(state, instr.operands[0])

    @semantics("NOP")
    def _exec_nop(self, state: MachineState, instr: AsmInstr) -> None:
        pass

    def _pmem_value(self, state: MachineState, table: str,
                    index: int) -> int:
        if table not in state.pmem_tables:
            raise SimulationError(
                f"program-memory table {table!r} not loaded")
        values = state.pmem_tables[table]
        if not 0 <= index < len(values):
            raise SimulationError(
                f"MAC read past end of table {table!r} (index {index})")
        return values[index]

    # ------------------------------------------------------------------
    # Fast-simulator decode hooks
    # ------------------------------------------------------------------
    #
    # RPTK is the *only* writer of the repeat counter and its count is an
    # immediate, so the decoder fuses ``RPTK n ; X`` into one step that
    # runs X's bound handler n+1 times -- cycles and step budget are
    # static.  The per-dispatch ``mac_idx`` reset the reference
    # interpreter performs in :meth:`repeat_count` only matters to
    # MAC/MACD (the sole readers), hence :meth:`pre_dispatch`.

    def static_repeat(self, instr: AsmInstr) -> Optional[int]:
        if instr.opcode == "RPTK":
            return instr.operands[0].value + 1
        return None

    def pre_dispatch(self, instr: AsmInstr):
        if instr.opcode in ("MAC", "MACD"):
            def reset(state: MachineState) -> None:
                state.regs["mac_idx"] = 0
            return reset
        return None

    # ------------------------------------------------------------------
    # JIT source templates (the @emitter registry)
    # ------------------------------------------------------------------
    #
    # One template per opcode group, mirroring the @semantics handlers
    # above statement for statement: the JIT tier (repro.sim.jit) calls
    # these to append specialized source with operands folded into
    # literals and registers held in locals.  A template that cannot
    # express an operand shape raises or returns False and the JIT
    # degrades (bound-handler call / decoded block / reference
    # interpreter) without changing results.

    def emit_pre_py(self, instr: AsmInstr, ctx) -> bool:
        # Mirrors pre_dispatch: MAC/MACD reset the coefficient stream.
        if instr.opcode in ("MAC", "MACD"):
            ctx.set_reg("mac_idx", "0")
        return True

    @emitter("ZAC")
    def _emit_zac(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg("acc", "0")
        return True

    @emitter("LACK", "LALK")
    def _emit_load_imm(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg("acc", repr(instr.operands[0].value))
        return True

    @emitter("LAC")
    def _emit_lac(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg("acc", ctx.read_mem(instr.operands[0]))
        return True

    @emitter("LACS")
    def _emit_lacs(self, instr: AsmInstr, ctx) -> bool:
        value = ctx.read_mem(instr.operands[0])
        shift = instr.operands[1].value
        ctx.set_reg("acc", ctx.wrap32(f"({value}) << {shift}"))
        return True

    @emitter("ADD", "SUB")
    def _emit_add_sub(self, instr: AsmInstr, ctx) -> bool:
        value = ctx.read_mem(instr.operands[0])
        sign = "+" if instr.opcode == "ADD" else "-"
        acc = ctx.reg("acc")
        ctx.set_reg("acc", ctx.wrap32(f"{acc} {sign} ({value})"))
        return True

    @emitter("ADDK", "ADLK", "SUBK", "SBLK")
    def _emit_add_sub_imm(self, instr: AsmInstr, ctx) -> bool:
        sign = "+" if instr.opcode in ("ADDK", "ADLK") else "-"
        acc = ctx.reg("acc")
        ctx.set_reg("acc", ctx.wrap32(
            f"{acc} {sign} ({instr.operands[0].value})"))
        return True

    @emitter("ANDK", "ORK", "XORK")
    def _emit_logic_imm(self, instr: AsmInstr, ctx) -> bool:
        op = {"ANDK": "&", "ORK": "|", "XORK": "^"}[instr.opcode]
        acc = ctx.reg("acc")
        ctx.set_reg("acc", f"{ctx.wrap16(acc)} {op} "
                           f"({instr.operands[0].value})")
        return True

    @emitter("AND", "OR", "XOR")
    def _emit_logic(self, instr: AsmInstr, ctx) -> bool:
        op = {"AND": "&", "OR": "|", "XOR": "^"}[instr.opcode]
        acc16 = ctx.wrap16(ctx.reg("acc"))
        value = ctx.read_mem(instr.operands[0])
        ctx.set_reg("acc", f"{acc16} {op} ({value})")
        return True

    @emitter("CMPL")
    def _emit_cmpl(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg("acc", f"~{ctx.wrap16(ctx.reg('acc'))}")
        return True

    @emitter("NEG")
    def _emit_neg(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg("acc", ctx.wrap32(f"-{ctx.reg('acc')}"))
        return True

    @emitter("ABS")
    def _emit_abs(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg("acc", ctx.wrap32(f"abs({ctx.reg('acc')})"))
        return True

    @emitter("SATL")
    def _emit_satl(self, instr: AsmInstr, ctx) -> bool:
        acc = ctx.reg("acc")
        ctx.set_reg("acc", f"max(-32768, min(32767, {acc}))")
        return True

    @emitter("SFL")
    def _emit_sfl(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg("acc", ctx.wrap32(f"{ctx.reg('acc')} << 1"))
        return True

    @emitter("SFR")
    def _emit_sfr(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg("acc", f"{ctx.reg('acc')} >> 1")
        return True

    @emitter("SACL")
    def _emit_sacl(self, instr: AsmInstr, ctx) -> bool:
        ctx.write_mem(instr.operands[0], ctx.reg("acc"))
        return True

    @emitter("SACH")
    def _emit_sach(self, instr: AsmInstr, ctx) -> bool:
        ctx.write_mem(instr.operands[0], f"{ctx.reg('acc')} >> 16")
        return True

    @emitter("ZALH")
    def _emit_zalh(self, instr: AsmInstr, ctx) -> bool:
        value = ctx.read_mem(instr.operands[0])
        ctx.set_reg("acc", ctx.wrap32(f"({value}) << 16"))
        return True

    @emitter("ADDS")
    def _emit_adds(self, instr: AsmInstr, ctx) -> bool:
        value = ctx.read_mem(instr.operands[0])
        acc = ctx.reg("acc")
        ctx.set_reg("acc", ctx.wrap32(f"{acc} + (({value}) & 0xFFFF)"))
        return True

    def _emit_delay_store(self, ctx, operand, addr) -> str:
        """Shared DMOV/MACD/LTD tail: load ``addr``, store the raw
        value (no wrap) one cell up, return the loaded temp."""
        data = ctx.tmp()
        ctx.line(f"{data} = {ctx.load(addr)}")
        if isinstance(addr, int):
            dest = addr + 1
        else:
            dest = ctx.tmp()
            ctx.line(f"{dest} = {addr} + 1")
        ctx.store(dest, data)
        return data

    @emitter("DMOV")
    def _emit_dmov(self, instr: AsmInstr, ctx) -> bool:
        operand = instr.operands[0]
        addr = ctx.mem_addr(operand)
        self._emit_delay_store(ctx, operand, addr)
        ctx.post_bump(operand, addr)
        return True

    @emitter("LT")
    def _emit_lt(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg("t", ctx.read_mem(instr.operands[0]))
        return True

    @emitter("MPY")
    def _emit_mpy(self, instr: AsmInstr, ctx) -> bool:
        t = ctx.reg("t")
        value = ctx.read_mem(instr.operands[0])
        ctx.set_reg("p", ctx.wrap32(f"{t} * ({value})"))
        return True

    @emitter("MPYK")
    def _emit_mpyk(self, instr: AsmInstr, ctx) -> bool:
        t = ctx.reg("t")
        ctx.set_reg("p", ctx.wrap32(
            f"{t} * ({instr.operands[0].value})"))
        return True

    @emitter("PAC", "APAC", "SPAC")
    def _emit_pac_group(self, instr: AsmInstr, ctx) -> bool:
        p = ctx.reg("p")
        pm = ctx.mode("pm")
        if instr.opcode == "PAC":
            ctx.set_reg("acc", f"{p} >> {pm}")
        else:
            sign = "+" if instr.opcode == "APAC" else "-"
            acc = ctx.reg("acc")
            ctx.set_reg("acc", ctx.wrap32(
                f"{acc} {sign} ({p} >> {pm})"))
        return True

    @emitter("SPM")
    def _emit_spm(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_mode("pm", repr(instr.operands[0].value))
        return True

    @emitter("LARK", "LRLK")
    def _emit_load_ar(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg(instr.operands[0].name,
                    repr(instr.operands[1].value))
        return True

    @emitter("LAR")
    def _emit_lar(self, instr: AsmInstr, ctx) -> bool:
        ctx.set_reg(instr.operands[0].name,
                    ctx.read_mem(instr.operands[1]))
        return True

    @emitter("SAR")
    def _emit_sar(self, instr: AsmInstr, ctx) -> bool:
        ctx.write_mem(instr.operands[1],
                      ctx.reg(instr.operands[0].name))
        return True

    @emitter("MAC", "MACD")
    def _emit_mac(self, instr: AsmInstr, ctx) -> bool:
        table = instr.operands[0].name
        operand = instr.operands[1]
        tbl, tbl_len = ctx.pmem_table(table)
        ctx.helper("_mac_oob", (
            "def _mac_oob(n, i):\n"
            "    raise SimulationError(\n"
            "        f\"MAC read past end of table {n!r} "
            "(index {i})\")"))
        addr = ctx.mem_addr(operand)
        if instr.opcode == "MACD":
            data = self._emit_delay_store(ctx, operand, addr)
        else:
            data = ctx.tmp()
            ctx.line(f"{data} = {ctx.load(addr)}")
        ctx.post_bump(operand, addr)
        idx = ctx.tmp()
        ctx.line(f"{idx} = {ctx.reg('mac_idx')}")
        ctx.line(f"if not 0 <= {idx} < {tbl_len}:")
        with ctx.indented():
            ctx.line(f"_mac_oob({table!r}, {idx})")
        ctx.set_reg("mac_idx", f"{idx} + 1")
        acc = ctx.reg("acc")
        p = ctx.reg("p")
        pm = ctx.mode("pm")
        ctx.set_reg("acc", ctx.wrap32(f"{acc} + ({p} >> {pm})"))
        ctx.set_reg("p", ctx.wrap32(f"{tbl}[{idx}] * {data}"))
        return True

    @emitter("LTA", "LTS", "LTP")
    def _emit_lt_combo(self, instr: AsmInstr, ctx) -> bool:
        p = ctx.reg("p")
        pm = ctx.mode("pm")
        if instr.opcode == "LTP":
            ctx.set_reg("acc", f"{p} >> {pm}")
        else:
            sign = "+" if instr.opcode == "LTA" else "-"
            acc = ctx.reg("acc")
            ctx.set_reg("acc", ctx.wrap32(
                f"{acc} {sign} ({p} >> {pm})"))
        ctx.set_reg("t", ctx.read_mem(instr.operands[0]))
        return True

    @emitter("LTD")
    def _emit_ltd(self, instr: AsmInstr, ctx) -> bool:
        acc = ctx.reg("acc")
        p = ctx.reg("p")
        pm = ctx.mode("pm")
        ctx.set_reg("acc", ctx.wrap32(f"{acc} + ({p} >> {pm})"))
        operand = instr.operands[0]
        addr = ctx.mem_addr(operand)
        data = self._emit_delay_store(ctx, operand, addr)
        ctx.set_reg("t", data)
        ctx.post_bump(operand, addr)
        return True

    @emitter("B")
    def _emit_b(self, instr: AsmInstr, ctx) -> bool:
        ctx.jump(instr.operands[0].name)
        return True

    @emitter("BANZ")
    def _emit_banz(self, instr: AsmInstr, ctx) -> bool:
        label = instr.operands[0].name
        areg = instr.operands[1].name
        value = ctx.tmp()
        ctx.line(f"{value} = {ctx.reg(areg)}")
        ctx.set_reg(areg, ctx.wrap16(f"{value} - 1"))
        ctx.jump_if(f"{value} != 0", label)
        return True

    @emitter("MAR")
    def _emit_mar(self, instr: AsmInstr, ctx) -> bool:
        operand = instr.operands[0]
        ctx.post_bump(operand, ctx.mem_addr(operand))
        return True

    @emitter("NOP")
    def _emit_nop(self, instr: AsmInstr, ctx) -> bool:
        return True

    # ------------------------------------------------------------------
    # Loop realization
    # ------------------------------------------------------------------

    REPEATABLE = frozenset({
        "MAC", "MACD", "DMOV", "ADD", "SUB", "SACL", "LAC", "SFL", "SFR",
        "NOP",
    })

    def is_repeatable(self, instr: AsmInstr) -> bool:
        """Whether RPTK may repeat this instruction."""
        return instr.opcode in self.REPEATABLE and instr.words <= 2

    def finalize_loop(self, count: int, body: List[AsmInstr],
                      loop_id: int, depth: int
                      ) -> Tuple[List, List]:
        """Realize a counted loop: hardware repeat when the body is a
        single repeatable instruction, BANZ otherwise."""
        instrs = [item for item in body if isinstance(item, AsmInstr)]
        if (len(instrs) == len(body) == 1 and count <= 256
                and self.is_repeatable(instrs[0])):
            return [_ins("RPTK", Imm(count - 1))], []
        if depth >= len(self.LOOP_ADDRESS_REGISTERS):
            raise ValueError(
                f"tc25: loop nesting depth {depth} exceeds available "
                "loop counters")
        areg = self.LOOP_ADDRESS_REGISTERS[depth]
        label = f"L{loop_id}"
        if count - 1 <= 255:
            prologue = [_ins("LARK", Reg(areg), Imm(count - 1))]
        else:
            prologue = [_ins("LRLK", Reg(areg), Imm(count - 1),
                             words=2, cycles=2)]
        prologue.append(Label(label))
        epilogue = [_ins("BANZ", LabelRef(label), Reg(areg),
                         words=2, cycles=2)]
        return prologue, epilogue

    def mode_change_instruction(self, mode: str, value: int) -> AsmInstr:
        if mode != "pm":
            raise ValueError(f"tc25 has no mode {mode!r}")
        return _ins("SPM", Imm(value))

    # ------------------------------------------------------------------
    # Loop-level optimizations (the paper's Sec. 4.3.4 box, loop part)
    # ------------------------------------------------------------------

    def loop_optimizations(self, code: CodeSeq,
                           read_only_arrays,
                           promote_accumulators: bool = True,
                           repeat_idioms: bool = True,
                           fuse_shift_idioms: bool = False):
        """Accumulator promotion and the RPT/MAC idiom.

        *Accumulator promotion*: an innermost loop whose body starts
        with ``LAC s`` and ends with ``SACL s`` for a scalar ``s`` not
        otherwise touched in the loop keeps ``s`` in ACC across
        iterations; the load/store move to the pre/post-header.

        *RPT/MAC idiom*: a (post-promotion) body of exactly
        ``LT a-walk ; MPY b-walk ; APAC`` where one operand walks
        *forward* (stride +1) through a read-only input array becomes a
        single repeatable ``MAC table, data`` instruction with the
        read-only array placed in program memory -- the classic C25 FIR
        kernel.  The real MAC streams its program-memory operand in
        storage order, which is why only forward walks qualify.
        """
        from repro.codegen.structure import flatten, iter_loops, parse

        nodes = parse(code)
        tables: List = []
        for loop in iter_loops(nodes):
            if not loop.is_innermost():
                continue
            if promote_accumulators:
                self._promote_accumulator(loop)
        if fuse_shift_idioms:
            table = self._fuse_mac_with_shift(nodes, read_only_arrays,
                                              len(tables))
            if table is not None:
                tables.append(table)
        for loop in iter_loops(nodes):
            if not loop.is_innermost():
                continue
            if repeat_idioms:
                table = self._repeat_mac(loop, read_only_arrays,
                                         len(tables))
                if table is not None:
                    tables.append(table)

        return flatten(_place_hoisted(nodes)), tables

    @staticmethod
    def _body_instrs(loop) -> Optional[List[AsmInstr]]:
        """The loop body as a flat instruction list, or None if it
        contains anything else (labels, nested loops)."""
        from repro.codegen.structure import Run
        instrs: List[AsmInstr] = []
        for child in loop.body:
            if not isinstance(child, Run):
                return None
            for item in child.items:
                if not isinstance(item, AsmInstr):
                    return None
                instrs.append(item)
        return instrs

    def _promote_accumulator(self, loop) -> None:
        from repro.codegen.structure import Run
        instrs = self._body_instrs(loop)
        if instrs is None or len(instrs) < 3:
            return
        first, last = instrs[0], instrs[-1]
        if first.opcode != "LAC" or last.opcode != "SACL":
            return
        load, store = first.operands[0], last.operands[0]
        if not (isinstance(load, Mem) and isinstance(store, Mem)):
            return
        if load.mode != "symbolic" or load.index is not None:
            return
        if (load.symbol, load.index) != (store.symbol, store.index):
            return
        # The scalar must not be touched anywhere else in the body.
        symbol = load.symbol
        references = sum(
            1 for instr in instrs
            for operand in instr.memory_operands()
            if operand.symbol == symbol)
        if references != 2:
            return
        loop.body[:] = [Run(items=list(instrs[1:-1]))]
        loop.promoted_prologue = [first]       # consumed by the pipeline
        loop.promoted_epilogue = [last]

    def _fuse_mac_with_shift(self, nodes, read_only_arrays,
                             table_number: int):
        """Fuse a MAC sum loop with the delay-line shift loop that
        follows it into a single RPT/MACD -- the hand-written FIR idiom
        (beyond what 1997 RECORD did; enabled by
        ``RecordOptions(fuse_shift_idioms=True)``).

        Shape required (exactly the DSPStone FIR after promotion)::

            loop xN:    LT x[i]       ; MPY h[i] ; APAC     (sum)
            loop xN-1:  DMOV x[-k+N-2]                      (shift up)

        becomes::

            LT x[N-1] ; MPY h[N-1]                          (seed P)
            loop xN-1: MACD HREV, x[-k+N-2]                 (RPTK-able)
            APAC

        with HREV streaming h[N-2] .. h[0] from program memory.  The
        descending data walk makes the DMOV side effect safe (each
        x[j+1] is overwritten only after it was consumed), and sum
        order is irrelevant for the accumulation.
        """
        from repro.codegen.compiled import PmemTable
        from repro.codegen.structure import LoopNode, Run

        loops = [node for node in nodes if isinstance(node, LoopNode)]
        for sum_loop, shift_loop in zip(loops, loops[1:]):
            sum_body = self._body_instrs(sum_loop)
            shift_body = self._body_instrs(shift_loop)
            if sum_body is None or shift_body is None:
                continue
            if len(sum_body) != 3 or len(shift_body) != 1:
                continue
            lt, mpy, apac = sum_body
            dmov = shift_body[0]
            if (lt.opcode, mpy.opcode, apac.opcode, dmov.opcode) != \
                    ("LT", "MPY", "APAC", "DMOV"):
                continue
            shift = dmov.operands[0]
            count = sum_loop.count

            def forward_walk(operand: Mem) -> bool:
                return (operand.mode == "symbolic"
                        and operand.index is not None
                        and operand.index.coeff == 1
                        and operand.index.offset == 0)

            first, second = lt.operands[0], mpy.operands[0]
            if not (isinstance(first, Mem) and isinstance(second, Mem)
                    and forward_walk(first) and forward_walk(second)):
                continue
            # the shifted array is the data side; the other one must be
            # a read-only input (it becomes the pmem table)
            if first.symbol == shift.symbol:
                data, coef = first, second
            elif second.symbol == shift.symbol:
                data, coef = second, first
            else:
                continue
            size = read_only_arrays.get(coef.symbol)
            if size is None or size < count:
                continue
            # the shift must walk the *data* array down from N-2
            if not (shift.mode == "symbolic"
                    and shift.symbol == data.symbol
                    and shift.index is not None
                    and shift.index.coeff == -1
                    and shift.index.offset == count - 2
                    and shift_loop.count == count - 1):
                continue
            # anything between the two loops must not touch the arrays
            start = nodes.index(sum_loop)
            stop = nodes.index(shift_loop)
            between = nodes[start + 1:stop]
            touched = False
            for node in between:
                if isinstance(node, LoopNode):
                    touched = True
                    break
                for item in node.items:
                    if isinstance(item, AsmInstr) and any(
                            operand.symbol in (data.symbol, coef.symbol)
                            for operand in item.memory_operands()):
                        touched = True
                        break
            if touched:
                continue

            pm = dict(apac.modes)
            label = f"PT{table_number}"
            from repro.ir.dfg import ArrayIndex
            macd = _ins("MACD", LabelRef(label),
                        Mem(symbol=data.symbol,
                            index=ArrayIndex(-1, count - 2)),
                        words=2, cycles=2, modes=pm,
                        comment=f"fused sum+shift; {coef.symbol} "
                                "reversed in program memory")
            sum_loop.begin = LoopBegin(count=count - 1,
                                       loop_id=sum_loop.loop_id)
            sum_loop.body[:] = [Run(items=[macd])]
            sum_loop.mac_prologue = [
                _ins("LT", Mem(symbol=data.symbol,
                               index=ArrayIndex(0, count - 1))),
                _ins("MPY", Mem(symbol=coef.symbol,
                                index=ArrayIndex(0, count - 1)),
                     comment="seed P with the top tap"),
            ]
            sum_loop.mac_epilogue = [_ins("APAC", modes=pm,
                                          comment="fold last product")]
            nodes.remove(shift_loop)
            return PmemTable(label=label, symbol=coef.symbol,
                             start=count - 2, stride=-1,
                             count=count - 1)
        return None

    def _repeat_mac(self, loop, read_only_arrays, table_number: int):
        from repro.codegen.compiled import PmemTable
        from repro.codegen.structure import Run
        instrs = self._body_instrs(loop)
        if instrs is None or len(instrs) != 3:
            return None
        lt, mpy, apac = instrs
        if (lt.opcode, mpy.opcode, apac.opcode) != ("LT", "MPY", "APAC"):
            return None
        lt_op, mpy_op = lt.operands[0], mpy.operands[0]
        if not (isinstance(lt_op, Mem) and isinstance(mpy_op, Mem)):
            return None

        def is_walk(operand: Mem) -> bool:
            return (operand.mode == "symbolic" and operand.index is not None
                    and operand.index.coeff != 0)

        if not (is_walk(lt_op) and is_walk(mpy_op)):
            return None

        def qualifies_as_table(operand: Mem) -> bool:
            if operand.index.coeff != 1:
                return False          # MAC streams pmem forward only
            size = read_only_arrays.get(operand.symbol)
            if size is None:
                return False
            return operand.index.offset + loop.count <= size

        if qualifies_as_table(mpy_op):
            table_operand, data_operand = mpy_op, lt_op
        elif qualifies_as_table(lt_op):
            table_operand, data_operand = lt_op, mpy_op
        else:
            return None
        pm = dict(apac.modes)
        label = f"PT{table_number}"
        mac = _ins("MAC", LabelRef(label), data_operand,
                   words=2, cycles=2, modes=pm,
                   comment=f"{table_operand.symbol} from program memory")
        loop.body[:] = [Run(items=[mac])]
        loop.mac_prologue = [_ins("MPYK", Imm(0), comment="clear P")]
        loop.mac_epilogue = [_ins("APAC", modes=pm,
                                  comment="fold last product")]
        return PmemTable(label=label, symbol=table_operand.symbol,
                         start=table_operand.index.offset,
                         stride=table_operand.index.coeff,
                         count=loop.count)

    # ------------------------------------------------------------------
    # Peephole fusions (the paper's Sec. 4.3.4 "optimizations" box)
    # ------------------------------------------------------------------

    _FUSIONS = {"APAC": "LTA", "PAC": "LTP", "SPAC": "LTS"}

    def peephole(self, code: CodeSeq) -> CodeSeq:
        """Fuse P-transfer + T-load pairs into the C25 combo instructions.

        ``APAC ; LT m``  ->  ``LTA m``
        ``PAC ; LT m``   ->  ``LTP m``
        ``SPAC ; LT m``  ->  ``LTS m``
        """
        items = list(code.items)
        result: List = []
        index = 0
        while index < len(items):
            current = items[index]
            nxt = items[index + 1] if index + 1 < len(items) else None
            if (isinstance(current, AsmInstr)
                    and isinstance(nxt, AsmInstr)
                    and current.opcode in self._FUSIONS
                    and not current.parallel
                    and nxt.opcode == "LT"):
                fused = self._FUSIONS[current.opcode]
                result.append(AsmInstr(
                    opcode=fused, operands=nxt.operands, words=1, cycles=1,
                    modes=current.modes,
                    comment=f"fused {current.opcode}+LT"))
                index += 2
                continue
            result.append(current)
            index += 1
        return CodeSeq(result)
