"""The conventional target-specific compiler for the TC25.

See the package docstring for the technology level being modelled.  The
characteristic code shapes (each of which the RECORD pipeline avoids,
and each of which DSPStone observed in contemporary compilers):

- the loop induction variable is an ordinary memory variable ``$iN``,
  initialized, incremented and tested through the accumulator;
- an array access ``a[c*i+d]`` recomputes its address every time:
  the index is loaded (scaled through the multiplier when ``c != 1``),
  the array base is added, the result is stored and loaded into an
  address register, and the element is copied to a scratch cell before
  the expression consumes it;
- every statement starts and ends in memory (no accumulator reuse
  across statements or loop iterations);
- mode changes are inserted naively (tracking invalidated at loops);
- hardware repeat, fused instructions and parallel moves are not used.

Being target-specific is the point: the paper's baseline is TI's own
C25 compiler, so this class refuses any target that is not TC25-shaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.baseline.folding import optimize_tree
from repro.codegen.addressing import AddressAssigner
from repro.codegen.asm import (
    AddrOf, AsmInstr, CodeSeq, Imm, LoopBegin, LoopEnd, Mem, Reg,
)
from repro.codegen.compiled import CompiledProgram, build_memory_map
from repro.codegen.grammar import EmitContext
from repro.codegen.modes import minimize_mode_changes
from repro.codegen.pipeline import (
    CompileError, collect_extra_scalars, finalize_loops,
)
from repro.codegen.selector import Selector
from repro.ir.dfg import ArrayIndex
from repro.ir.ops import OpKind
from repro.ir.program import Block, Loop, Program, ProgramItem
from repro.ir.trees import Tree, TreeAssignment, decompose


@dataclass(frozen=True)
class BaselineOptions:
    """Switchboard (the folding flag is the Sec. 3.1 ablation point)."""

    metric: str = "size"
    fold_constants: bool = True
    eliminate_redundant_loads: bool = True
    # TI's compiler did use the C25 combo instructions (LTA/LTS/LTP):
    peephole: bool = True


# Redundant-load elimination safety sets (see eliminate_redundant_loads).
_ACC_REDEFINERS = frozenset({
    "ZAC", "LAC", "LACS", "LACK", "LALK", "PAC", "LTP",
})
# Opcodes through which "ACC holds the exact value, memory the wrapped
# one" stays observationally equivalent: ring operations (+, -, <<, and
# the bitwise ops, whose low 16 bits depend only on the operands' low 16
# bits) and instructions that do not touch ACC.  SFR/ABS/SATL inspect
# high bits of the exact value and are NOT safe.
_ACC_SAFE_USES = frozenset({
    "ADD", "SUB", "ADDK", "SUBK", "ADLK", "SBLK", "APAC", "SPAC",
    "LTA", "LTS", "SFL", "NEG", "CMPL", "AND", "OR", "XOR", "SACL",
    "MAC", "MACD", "LT", "MPY", "MPYK", "DMOV", "MAR", "SPM",
    "LARK", "LRLK", "LAR", "SAR", "NOP",
})


def eliminate_redundant_loads(code: CodeSeq) -> CodeSeq:
    """Remove ``SACL m ; LAC m`` reloads (classic redundant-load
    elimination -- a "standard optimization technique" the paper notes
    RECORD lacks, Sec. 4.3.5).

    Subtlety: after the elimination ACC holds the *exact* 32-bit value
    while a reload would have produced the 16-bit-wrapped one.  The two
    are indistinguishable as long as every ACC use up to the next ACC
    redefinition is a ring operation (wrapping commutes with those); the
    pass scans forward and keeps the reload whenever it sees SFR / ABS /
    SATL / a control-flow boundary first.
    """
    items = list(code.items)
    result: List = []
    index = 0
    while index < len(items):
        current = items[index]
        nxt = items[index + 1] if index + 1 < len(items) else None
        if (isinstance(current, AsmInstr) and isinstance(nxt, AsmInstr)
                and current.opcode == "SACL" and nxt.opcode == "LAC"
                and current.operands == nxt.operands
                and _reload_elimination_safe(items, index + 2)):
            result.append(current)
            index += 2
            continue
        result.append(current)
        index += 1
    return CodeSeq(result)


def _reload_elimination_safe(items: List, start: int) -> bool:
    for position in range(start, len(items)):
        item = items[position]
        if not isinstance(item, AsmInstr):
            return False       # label / loop marker: control may re-enter
        if item.opcode in _ACC_REDEFINERS:
            return True
        if item.opcode not in _ACC_SAFE_USES:
            return False
    return True                # nothing consumes ACC afterwards


def _ins(opcode: str, *operands, words: int = 1, cycles: int = 1,
         modes=None, comment: str = "") -> AsmInstr:
    return AsmInstr(opcode=opcode, operands=tuple(operands), words=words,
                    cycles=cycles, modes=modes or {}, comment=comment)


class BaselineCompiler:
    """Conventional syntax-directed compiler for the TC25 family."""

    name = "baseline"

    def __init__(self, target, options: Optional[BaselineOptions] = None):
        if not hasattr(target, "STREAM_ADDRESS_REGISTERS") \
                or target.name not in ("tc25",):
            raise CompileError(
                "the baseline compiler is target-specific (TC25 only); "
                f"got {target.name!r} -- use RecordCompiler to retarget")
        self.target = target
        self.options = options or BaselineOptions()

    # ------------------------------------------------------------------

    def compile(self, program: Program) -> CompiledProgram:
        """Compile a program (artifact-cached when a cache is active).

        Same contract as :meth:`RecordCompiler.compile
        <repro.codegen.pipeline.RecordCompiler.compile>`: a
        content-addressed hit returns the stored artifact, everything
        else runs the conventional pipeline.
        """
        from repro.cache import cached_compile
        return cached_compile(self, program, self._compile_uncached)

    def _compile_uncached(self, program: Program) -> CompiledProgram:
        """Compile a program with the conventional TC25 pipeline."""
        selector = Selector(self.target.grammar(),
                            metric=self.options.metric,
                            algebraic=False,
                            fpc=self.target.fpc)
        ctx = EmitContext()
        state = _WalkState()
        self._compile_items(program.body, selector, ctx, state,
                            loop_sym=None)
        code = ctx.code
        if self.options.eliminate_redundant_loads:
            code = eliminate_redundant_loads(code)
        if self.options.peephole:
            code = self.target.peephole(code)

        extra_scalars = collect_extra_scalars(code, program)
        memory_map = build_memory_map(program.symbols, extra_scalars)
        code = AddressAssigner(self.target, memory_map,
                               code).run(code)
        code = minimize_mode_changes(code, self.target, naive=True)
        code = finalize_loops(code, self.target)

        return CompiledProgram(
            name=program.name,
            target=self.target,
            code=code,
            memory_map=memory_map,
            symbols=dict(program.symbols),
            pmem_tables=[],
            compiler=self.name,
            stats={"selection": selector.stats, "words": code.words()},
        )

    # ------------------------------------------------------------------

    def _compile_items(self, items: List[ProgramItem], selector: Selector,
                       ctx: EmitContext, state: "_WalkState",
                       loop_sym: Optional[str]) -> None:
        for item in items:
            if isinstance(item, Block):
                assignments = decompose(
                    item.dfg, temp_counter_start=state.temp_counter,
                    fpc=self.target.fpc)
                state.temp_counter += sum(
                    1 for a in assignments if a.is_temp)
                for assignment in assignments:
                    self._compile_assignment(assignment, selector, ctx,
                                             loop_sym)
            elif isinstance(item, Loop):
                loop_id = state.loop_counter
                state.loop_counter += 1
                induction = f"$i{loop_id}"
                selector.select_assignment(
                    TreeAssignment(induction, None, Tree.const(0)), ctx)
                ctx.code.append(LoopBegin(count=item.count,
                                          loop_id=loop_id))
                self._compile_items(item.body, selector, ctx, state,
                                    loop_sym=induction)
                selector.select_assignment(
                    TreeAssignment(induction, None,
                                   Tree.compute("add",
                                                Tree.ref(induction),
                                                Tree.const(1))), ctx)
                ctx.code.append(LoopEnd(loop_id=loop_id))
            else:
                raise CompileError(f"unexpected program item {item!r}")

    def _compile_assignment(self, assignment: TreeAssignment,
                            selector: Selector, ctx: EmitContext,
                            loop_sym: Optional[str]) -> None:
        tree = assignment.tree
        if self.options.fold_constants:
            tree = optimize_tree(tree, self.target.fpc)
        tree = self._lower_induction_reads(tree, ctx, loop_sym)
        dest_index = assignment.index
        if dest_index is not None and dest_index.coeff != 0:
            # Indexed store: value to a scratch cell, then explicit
            # address computation and an indirect store.
            value_cell = ctx.scratch()
            selector.select_assignment(
                TreeAssignment(value_cell.symbol, None, tree), ctx)
            self._emit_indexed_address(ctx, loop_sym, assignment.symbol,
                                       dest_index)
            ctx.emit(_ins("LAC", value_cell))
            ctx.emit(_ins("SACL", _indirect(assignment.symbol,
                                            dest_index)))
            return
        selector.select_assignment(
            TreeAssignment(assignment.symbol, dest_index, tree), ctx)

    # -- explicit array addressing ------------------------------------------

    def _lower_induction_reads(self, tree: Tree, ctx: EmitContext,
                               loop_sym: Optional[str]) -> Tree:
        """Replace every induction-indexed read with a scratch scalar
        filled by an explicit address-computation sequence."""
        return self._lower_reads(tree, ctx, loop_sym, {})

    def _lower_reads(self, node: Tree, ctx: EmitContext,
                     loop_sym: Optional[str],
                     loads: Dict[Tuple[str, int, int], str]) -> Tree:
        """:meth:`_lower_induction_reads` below ``node``; ``loads`` maps
        each array access already loaded to its scratch cell."""
        if node.kind is OpKind.REF and node.index is not None \
                and node.index.coeff != 0:
            key = (node.symbol, node.index.coeff, node.index.offset)
            if key not in loads:
                cell = ctx.scratch()
                self._emit_indexed_address(ctx, loop_sym, node.symbol,
                                           node.index)
                ctx.emit(_ins("LAC", _indirect(node.symbol, node.index)))
                ctx.emit(_ins("SACL", cell))
                loads[key] = cell.symbol
            return Tree.ref(loads[key])
        if not node.children:
            return node
        children = tuple(self._lower_reads(child, ctx, loop_sym, loads)
                         for child in node.children)
        if children == node.children:
            return node
        return Tree(node.kind, operator=node.operator, children=children,
                    value=node.value, symbol=node.symbol, index=node.index)

    def _emit_indexed_address(self, ctx: EmitContext,
                              loop_sym: Optional[str], symbol: str,
                              index: ArrayIndex) -> None:
        """ACC := &symbol[coeff*i + offset]; AR0 := ACC (via memory)."""
        if loop_sym is None:
            raise CompileError(
                f"induction access to {symbol!r} outside any loop")
        if index.coeff == 1:
            ctx.emit(_ins("LAC", Mem(loop_sym)))
        else:
            ctx.emit(_ins("LT", Mem(loop_sym)))
            ctx.emit(_ins("MPYK", Imm(index.coeff)))
            ctx.emit(_ins("PAC", modes={"pm": 0}))
        ctx.emit(_ins("ADLK", AddrOf(symbol, index.offset),
                      words=2, cycles=2))
        address_cell = ctx.scratch()
        ctx.emit(_ins("SACL", address_cell))
        ctx.emit(_ins("LAR", Reg("AR0"), address_cell))


def _indirect(symbol: str, index: ArrayIndex) -> Mem:
    return Mem(symbol=symbol, index=index, mode="indirect", areg="AR0",
               post_modify=0)


@dataclass
class _WalkState:
    temp_counter: int = 0
    loop_counter: int = 0
