"""The RECORD compiler pipeline (Fig. 2 of the paper).

Stage order::

    Program (from the MiniDFL frontend or built programmatically)
      |  per block: DAG -> tree decomposition (repro.ir.trees)
      |  per tree:  algebraic variants x BURS covering (selector)
      v
    marker-structured symbolic code
      |  loop optimizations  (accumulator promotion, RPT/MAC idiom)
      |  peephole fusions    (LTA/LTP, parallel-move packing hooks)
      |  address assignment  (streams -> AGU registers, scalars -> direct)
      |  mode minimization   (Liao-style)
      |  loop finalization   (RPTK / BANZ / DO, target-specific)
      v
    CompiledProgram (simulatable, measurable)

Every stage is switchable through :class:`RecordOptions` so the
ablation benchmarks can quantify each design choice separately.
Selection reads only the options named in :data:`SELECTION_FIELDS`;
:meth:`RecordCompiler.select` runs it and :meth:`RecordCompiler.finish`
runs every later stage, so compiles that agree on those fields can
share one selection (:class:`SelectionMemo`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.codegen.addressing import AddressAssigner
from repro.codegen.burg import BurgMatcher
from repro.codegen.asm import AsmInstr, CodeSeq, Label, LoopBegin, LoopEnd, Mem
from repro.codegen.compiled import (
    CompiledProgram, MemoryMap, PmemTable, build_memory_map,
)
from repro.codegen.grammar import EmitContext
from repro.codegen.modes import minimize_mode_changes
from repro.codegen.selector import SelectionStats, Selector
from repro.codegen.structure import LoopNode, Run, parse
from repro.ir.program import Block, Loop, Program, ProgramItem
from repro.ir.trees import decompose

if TYPE_CHECKING:   # pragma: no cover
    from repro.targets.model import TargetModel


@dataclass(frozen=True)
class RecordOptions:
    """Switchboard for the RECORD pipeline (ablation points)."""

    metric: str = "size"
    algebraic: bool = True
    variant_limit: int = 64
    promote_accumulators: bool = True
    repeat_idioms: bool = True
    # Fuse a MAC sum loop with the following delay-line shift loop into
    # one RPT/MACD (the hand-written FIR idiom).  OFF by default: 1997
    # RECORD did not have it, and Table 1's shape depends on that --
    # see benchmarks/bench_ablation_opts.py for the measured effect.
    fuse_shift_idioms: bool = False
    peephole: bool = True
    minimize_modes: bool = True
    scalar_order: Optional[Tuple[str, ...]] = None   # offset assignment
    offset_assignment: str = "liao"    # banked/indirect targets
    bank_assignment: str = "greedy"    # banked targets
    compaction: str = "greedy"         # targets with parallel slots
    # Keep BURS label states for the whole selection of a program (the
    # variants of one tree share most subtrees), and across the
    # compilers of one SelectionMemo.  OFF relabels every tree from
    # scratch (the bench_compile_speed baseline).
    label_cache: bool = True

    def to_dict(self) -> dict:
        """Canonical JSON-able form: every field, plain types only.

        This is *the* serialization of a RECORD configuration: the
        artifact-cache key, the tuner's measurement records and
        tuning database, and farm job payloads all go through it, so
        an options value written by any one subsystem is readable --
        and hashes identically -- in every other.
        """
        payload: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RecordOptions":
        """Inverse of :meth:`to_dict`; rejects unknown fields loudly.

        Unknown keys raise (rather than being dropped) because a
        silently ignored knob would make a tuning-database entry or a
        measurement record lie about what was measured.
        """
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown RecordOptions field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}")
        kwargs = dict(payload)
        if kwargs.get("scalar_order") is not None:
            kwargs["scalar_order"] = tuple(kwargs["scalar_order"])
        return cls(**kwargs)

    def selection_key(self) -> Tuple:
        """The values of :data:`SELECTION_FIELDS`: options with equal
        keys select identical code for a program on a target."""
        return tuple(getattr(self, name) for name in SELECTION_FIELDS)


#: The :class:`RecordOptions` fields instruction selection reads: the
#: metric and the matcher's label cache, and the algebraic-variant
#: search.  Every other field only steers the stages after selection,
#: so selected code is a function of (program, target, these fields).
#: ``tests/codegen/test_selection_key.py`` changes every other field
#: and holds the selected code byte-identical, so this declaration
#: cannot drift from :meth:`RecordCompiler.select`.
SELECTION_FIELDS = ("metric", "algebraic", "variant_limit", "label_cache")


@dataclass
class Selection:
    """Selection's output: symbolic code with loop markers, its stats
    and the seconds it took."""

    code: CodeSeq
    stats: SelectionStats
    seconds: float

    def copy(self) -> "Selection":
        """The same selection over a fresh code list, for a compile whose
        later stages may edit the list."""
        return replace(self, code=self.code.copy())

    def replayed(self) -> "Selection":
        """A copy for a compile that reuses this selection: the same code
        and code counts, but none of the work (no seconds, no label
        cache hits or misses)."""
        return Selection(self.code.copy(), self.stats.replayed(), 0.0)


class SelectionMemo:
    """Selection work shared by the compilers of one program on one target.

    Label states depend only on the grammar, the metric and the
    subtree, so one matcher per metric serves every compiler the memo is
    handed; its states live as long as the memo (a compiler without a
    memo labels each selection with a matcher of its own).  Selection
    reads only :data:`SELECTION_FIELDS`, so the first compile of each
    selection key selects and later ones finish a replayed copy.  The
    memo is keyed by the selection fields alone: hand it to compilers
    of one program and one target only.
    """

    def __init__(self) -> None:
        self.matchers: Dict[str, BurgMatcher] = {}
        self._selections: Dict[Tuple, Selection] = {}

    def matcher(self, grammar, metric: str) -> BurgMatcher:
        """The memo's labeller for ``metric``."""
        matcher = self.matchers.get(metric)
        if matcher is None:
            matcher = self.matchers[metric] = BurgMatcher(grammar, metric)
        return matcher

    def selection(self, compiler: "RecordCompiler",
                  program: Program) -> Selection:
        """``compiler``'s selection of ``program``, selected at most once
        per selection key."""
        key = compiler.options.selection_key()
        selection = self._selections.get(key)
        if selection is not None:
            return selection.replayed()
        selection = compiler.select(program)
        self._selections[key] = selection
        return selection.copy()


class CompileError(Exception):
    """A program cannot be compiled for the chosen target."""


class RecordCompiler:
    """The retargetable compiler: consumes only the explicit target model."""

    name = "record"

    def __init__(self, target: "TargetModel",
                 options: Optional[RecordOptions] = None,
                 memo: Optional[SelectionMemo] = None):
        """``memo`` shares selection work with other compilers of the
        same program and target (see :class:`SelectionMemo`)."""
        self.target = target
        self.options = options or RecordOptions()
        self._memo = memo

    # ------------------------------------------------------------------

    def compile(self, program: Program) -> CompiledProgram:
        """Compile a lowered program (artifact-cached when a cache is on).

        When :func:`repro.cache.configure` has installed an artifact
        cache, a content-addressed hit skips the pipeline entirely and
        returns the stored :class:`CompiledProgram` (its ``stats`` then
        carry an ``"artifact_cache": "hit"`` marker); otherwise -- and
        always when no cache is active -- the full pipeline runs.
        """
        from repro.cache import cached_compile
        return cached_compile(self, program, self._compile_uncached)

    def _compile_uncached(self, program: Program) -> CompiledProgram:
        """Run the full RECORD pipeline on a lowered program."""
        selection = self.select(program) if self._memo is None \
            else self._memo.selection(self, program)
        return self.finish(program, selection)

    def select(self, program: Program) -> Selection:
        """Instruction selection over every block of ``program``; reads
        only the :data:`SELECTION_FIELDS` of the options."""
        options = self.options
        started = perf_counter()
        grammar = self.target.grammar()
        matcher = self._memo.matcher(grammar, options.metric) \
            if options.label_cache and self._memo is not None else None
        selector = Selector(grammar, metric=options.metric,
                            algebraic=options.algebraic,
                            variant_limit=options.variant_limit,
                            fpc=self.target.fpc, matcher=matcher,
                            label_cache=options.label_cache)
        ctx = EmitContext()
        temp_counter = [0]
        loop_counter = [0]
        self._select_items(program.body, selector, ctx, temp_counter,
                           loop_counter)
        return Selection(ctx.code, selector.stats,
                         perf_counter() - started)

    def finish(self, program: Program,
               selection: Selection) -> CompiledProgram:
        """The stages after selection, on ``selection``'s code (which
        they may edit)."""
        options = self.options
        timings: Dict[str, float] = {"selection": selection.seconds}
        code = selection.code

        started = perf_counter()
        read_only = read_only_input_arrays(program)
        code, tables = self.target.loop_optimizations(
            code, read_only,
            promote_accumulators=options.promote_accumulators,
            repeat_idioms=options.repeat_idioms,
            fuse_shift_idioms=options.fuse_shift_idioms)
        timings["loop_opt"] = perf_counter() - started

        started = perf_counter()
        if options.peephole:
            code = self.target.peephole(code)
        timings["peephole"] = perf_counter() - started

        started = perf_counter()
        extra_scalars = collect_extra_scalars(code, program)
        address_hook = getattr(self.target, "assign_addresses", None)
        if address_hook is not None:
            # Banked / indirect-only targets own their address story
            # (bank assignment, offset assignment, repricing).
            code, memory_map = address_hook(code, program, extra_scalars,
                                            options)
        else:
            memory_map = build_memory_map(
                program.symbols, extra_scalars,
                scalar_order=list(options.scalar_order)
                if options.scalar_order else None)
            code = AddressAssigner(self.target, memory_map,
                                   code).run(code)
        timings["addressing"] = perf_counter() - started

        started = perf_counter()
        compaction_hook = getattr(self.target, "compact", None)
        if compaction_hook is not None:
            code = compaction_hook(code, options)

        code = minimize_mode_changes(code, self.target,
                                     naive=not options.minimize_modes)
        timings["modes"] = perf_counter() - started

        started = perf_counter()
        code = finalize_loops(code, self.target)
        timings["finalize"] = perf_counter() - started

        # Sub-stage detail measured inside selection:
        timings["variants"] = selection.stats.variant_seconds
        timings["labeling"] = selection.stats.label_seconds

        return CompiledProgram(
            name=program.name,
            target=self.target,
            code=code,
            memory_map=memory_map,
            symbols=dict(program.symbols),
            pmem_tables=list(tables),
            compiler=self.name,
            stats={
                "selection": selection.stats,
                "words": code.words(),
                "timings": timings,
            },
        )

    # ------------------------------------------------------------------

    def _select_items(self, items: List[ProgramItem], selector: Selector,
                      ctx: EmitContext, temp_counter: List[int],
                      loop_counter: List[int]) -> None:
        for item in items:
            if isinstance(item, Block):
                assignments = decompose(item.dfg,
                                        temp_counter_start=temp_counter[0],
                                        fpc=self.target.fpc)
                temp_counter[0] += sum(1 for a in assignments if a.is_temp)
                selector.select_block(assignments, ctx)
            elif isinstance(item, Loop):
                loop_id = loop_counter[0]
                loop_counter[0] += 1
                ctx.code.append(LoopBegin(count=item.count,
                                          loop_id=loop_id))
                self._select_items(item.body, selector, ctx, temp_counter,
                                   loop_counter)
                ctx.code.append(LoopEnd(loop_id=loop_id))
            else:
                raise CompileError(f"unexpected program item {item!r}")


# ----------------------------------------------------------------------
# Shared helpers (used by the baseline compiler as well)
# ----------------------------------------------------------------------

def read_only_input_arrays(program: Program) -> Dict[str, int]:
    """Input arrays the program never writes (pmem-table candidates)."""
    written: Set[str] = set()
    pending: List[ProgramItem] = list(program.body)
    while pending:
        item = pending.pop()
        if isinstance(item, Block):
            written.update(output.symbol for output in item.dfg.outputs)
        elif isinstance(item, Loop):
            pending.extend(item.body)
    return {
        name: symbol.size
        for name, symbol in program.symbols.items()
        if symbol.is_array and symbol.role == "input"
        and name not in written
    }


def collect_extra_scalars(code: CodeSeq, program: Program) -> List[str]:
    """Compiler-generated scalars referenced by the code but not declared
    (decomposition temporaries, selector scratch cells, induction
    variables of the baseline)."""
    seen: List[str] = []          # discovery order (memory-map layout)
    seen_set: Set[str] = set()    # membership test stays O(1)
    known = set(program.symbols)
    for item in code:
        if not isinstance(item, AsmInstr):
            continue
        for operand in item.memory_operands():
            if operand.mode == "symbolic" and operand.symbol not in known \
                    and operand.symbol not in seen_set:
                seen.append(operand.symbol)
                seen_set.add(operand.symbol)
    return seen


def finalize_loops(code: CodeSeq, target: "TargetModel") -> CodeSeq:
    """Realize loop markers as target instructions, innermost-first."""
    out = CodeSeq()
    _finalize_into(out, parse(code), target, depth=0)
    return out


def _finalize_into(out: CodeSeq, nodes, target: "TargetModel",
                   depth: int) -> None:
    for node in nodes:
        if isinstance(node, Run):
            out.extend(node.items)
            continue
        body = CodeSeq()
        _finalize_into(body, node.body, target, depth + 1)
        prologue, epilogue = target.finalize_loop(
            node.count, list(body.items), node.loop_id, depth)
        out.extend(prologue)
        out.extend(body.items)
        out.extend(epilogue)
