"""Translation caching: decode finalized code once, run it many times.

The reference :class:`~repro.sim.machine.Machine` looks up every
executed instruction's handler in the target's registry, asks the
target for its repeat count, and charges step budget and cycles one
instruction at a time.  For the evaluation harnesses (Table 1 cycle
counts, DSPStone bit-exactness sweeps, the self-test corpus) the same
program runs thousands of times, so this module performs that
per-instruction work *once*:

- each :class:`AsmInstr` is bound to a ``step(state)`` closure over its
  ``@semantics`` handler, resolved at decode time (the target's
  ``bind_step`` hook), so the block runner calls the very handlers the
  reference interpreter dispatches to;
- instructions are grouped into **basic blocks** (leaders: program
  entry, label targets, branch successors), with label targets resolved
  to block indices and per-block cycle/step totals precomputed;
- TC25-style hardware repeat (``RPTK n ; X``) is fused at decode time
  into a single step that runs X's closure n+1 times -- the repeat
  count is an immediate, so cycles and step budget stay static;
- decoded programs are cached per ``(target, code)`` identity in
  weak-key maps, so repeated invocations (``cycles_of``, ``run_many``,
  the selftest corpus) skip decoding entirely.

Anything the block decoder cannot specialize soundly (a repeat armer at
a block boundary, a repeat of a branch) raises :class:`DecodeFallback`
and the :class:`~repro.sim.fastmachine.FastMachine` transparently runs
the reference interpreter instead -- behaviour is defined in exactly
one place, the target's ``@semantics`` registry, either way.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.codegen.asm import AsmInstr, CodeSeq, Label
from repro.sim.machine import SimulationError

if TYPE_CHECKING:   # pragma: no cover
    from repro.targets.model import TargetModel


class DecodeFallback(Exception):
    """The program contains a shape the block decoder does not
    specialize; run the reference interpreter instead."""


class DecodedBlock:
    """One basic block: straight-line bound steps + optional branch.

    ``cycles`` and ``steps`` are the block's static totals (hardware
    repeats included), charged once per block execution.

    ``plan`` records the structural recipe behind ``body``/``branch``
    as literal tuples -- ``("step", i)`` for instruction ``i``,
    ``("repeat", armer, repeated, count)`` for a fused hardware repeat,
    ``("branch", i)`` for the terminating branch -- so downstream
    translators (the source-generating JIT tier) can re-specialize the
    same block structure without re-deriving it.
    """

    __slots__ = ("body", "branch", "cycles", "steps", "next", "plan")

    def __init__(self, body: Tuple[Callable, ...],
                 branch: Optional[Callable], cycles: int, steps: int,
                 next_index: Optional[int],
                 plan: Tuple[Tuple, ...] = ()):
        self.body = body
        self.branch = branch
        self.cycles = cycles
        self.steps = steps
        self.next = next_index
        self.plan = plan


class DecodedProgram:
    """A finalized :class:`CodeSeq` decoded into chained basic blocks.

    ``table`` is the run-time form: one ``(body, branch, cycles, steps,
    next)`` tuple per block, so the inner loop pays a single unpack
    instead of five attribute reads.  ``blocks`` keeps the structured
    form for introspection and tests; ``views`` the per-instruction
    decoded views (post ``decode_instr``), in program order, for
    translators that re-specialize the blocks.
    """

    __slots__ = ("blocks", "labels", "entry", "table", "views",
                 "jit_entry", "__weakref__")

    def __init__(self, blocks: List[DecodedBlock],
                 labels: Dict[str, int], entry: Optional[int],
                 views: Tuple[AsmInstr, ...] = ()):
        self.blocks = blocks
        self.labels = labels
        self.entry = entry
        self.views = views
        # (generation, JitProgram-or-sentinel) attached by
        # repro.sim.jit.translate_cached; lives and dies with the
        # decoded program so the warm path is one attribute read.
        self.jit_entry = None
        self.table = tuple((b.body, b.branch, b.cycles, b.steps, b.next)
                           for b in blocks)


def decode(target: "TargetModel", code: CodeSeq) -> DecodedProgram:
    """Decode finalized code into basic blocks of bound closures.

    Raises :class:`SimulationError` for malformed code (the same cases
    the reference interpreter rejects: duplicate labels, unfinalized
    items) and :class:`DecodeFallback` for shapes the block runner does
    not specialize.
    """
    instructions: List[AsmInstr] = []
    labels_at: Dict[str, int] = {}
    for item in code:
        if isinstance(item, Label):
            if item.name in labels_at:
                raise SimulationError(f"duplicate label {item.name!r}")
            labels_at[item.name] = len(instructions)
        elif isinstance(item, AsmInstr):
            instructions.append(item)
        else:
            raise SimulationError(
                f"unfinalized item in code: {item.render()}")

    # The view is what the target wants simulated (fault-injection
    # wrappers swap opcodes here); all further decisions use it.
    views = [target.decode_instr(instr) for instr in instructions]
    branch_flags = [target.is_branch(view) for view in views]

    # Block leaders: entry, every label target, every branch successor.
    leaders = {0, len(instructions)}
    leaders.update(labels_at.values())
    for index, flag in enumerate(branch_flags):
        if flag:
            leaders.add(index + 1)
    boundaries = sorted(leaders)
    block_of_instr = {start: number
                      for number, start in enumerate(boundaries[:-1])}

    blocks: List[DecodedBlock] = []
    for number, start in enumerate(boundaries[:-1]):
        end = boundaries[number + 1]
        body: List[Callable] = []
        branch_fn: Optional[Callable] = None
        plan: List[Tuple] = []
        cycles = 0
        steps = 0
        index = start
        while index < end:
            view = views[index]
            repeat = target.static_repeat(view)
            if repeat is not None:
                if index + 1 >= end:
                    raise DecodeFallback(
                        "repeat armer at a block boundary")
                repeated = views[index + 1]
                if branch_flags[index + 1] \
                        or target.static_repeat(repeated) is not None:
                    raise DecodeFallback("unsupported repeat target")
                body.append(_fuse_repeat(target, repeated, repeat))
                plan.append(("repeat", index, index + 1, repeat))
                cycles += view.cycles + repeat * repeated.cycles
                steps += 1 + repeat
                index += 2
                continue
            step = target.bind_step(view)
            pre = target.pre_dispatch(view)
            if branch_flags[index]:
                # by leader construction a branch is always last
                branch_fn = step if pre is None \
                    else _with_pre(pre, step)
                plan.append(("branch", index))
            else:
                body.append(step if pre is None
                            else _with_pre(pre, step))
                plan.append(("step", index))
            cycles += view.cycles
            steps += 1
            index += 1
        next_index = number + 1 if end < len(instructions) else None
        blocks.append(DecodedBlock(tuple(body), branch_fn, cycles,
                                   steps, next_index, tuple(plan)))

    # Labels pointing past the last instruction (a branch there simply
    # terminates) resolve to an empty terminal block.
    terminal = len(blocks)
    blocks.append(DecodedBlock((), None, 0, 0, None))
    labels = {name: block_of_instr.get(target_index, terminal)
              for name, target_index in labels_at.items()}
    entry = 0 if instructions else None
    return DecodedProgram(blocks, labels, entry, tuple(views))


def _with_pre(pre: Callable, step: Callable) -> Callable:
    def combined(state):
        pre(state)
        return step(state)
    return combined


def _fuse_repeat(target: "TargetModel", repeated: AsmInstr,
                 repeat: int) -> Callable:
    """``RPTK n ; X`` as one step: X's closure run ``n + 1`` times.

    The armer's own semantics (loading the repeat counter) are elided:
    the counter is consumed in full by the fused loop, exactly as the
    reference interpreter leaves it (zero).
    """
    inner = target.bind_step(repeated)
    pre = target.pre_dispatch(repeated)
    if pre is None:
        def fused(state):
            for _ in range(repeat):
                inner(state)
    else:
        def fused(state):
            pre(state)
            for _ in range(repeat):
                inner(state)
    return fused


# ----------------------------------------------------------------------
# The decode cache
# ----------------------------------------------------------------------
#
# Two-level weak-key map: target instance -> (CodeSeq -> entry).  Both
# keys are held weakly, so dropping a compiled program (or a transient
# FaultySim wrapper) frees its decoded form automatically.  Keying on
# the *code object's identity* is sound because finalized CodeSeqs are
# never mutated after compilation (and a FaultySim is a distinct target
# key, so its opcode-swapped decode never collides with the clean one).

_FALLBACK = object()

_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_STATS = {"hits": 0, "misses": 0, "fallbacks": 0}


def decode_cached(target: "TargetModel",
                  code: CodeSeq) -> Optional[DecodedProgram]:
    """Decoded form of ``code`` for ``target``; ``None`` when the
    program needs the reference interpreter (the fallback verdict is
    cached too).  Malformed code raises, uncached."""
    per_target = _CACHE.get(target)
    if per_target is None:
        per_target = weakref.WeakKeyDictionary()
        _CACHE[target] = per_target
    entry = per_target.get(code)
    if entry is not None:
        _STATS["hits"] += 1
        return None if entry is _FALLBACK else entry
    _STATS["misses"] += 1
    try:
        decoded = decode(target, code)
    except DecodeFallback:
        _STATS["fallbacks"] += 1
        per_target[code] = _FALLBACK
        return None
    per_target[code] = decoded
    return decoded


def clear_decode_cache() -> None:
    """Drop every cached decoded program and reset the stat counters
    (tests and benchmarks).  Also clears the JIT tier's translated
    programs and stats: a decoded form is the JIT's input, so the two
    caches are only ever valid together."""
    _CACHE.clear()
    _STATS.update(hits=0, misses=0, fallbacks=0)
    from repro.sim import jit      # local import: jit imports decode
    jit.clear_jit_cache()


def decode_cache_stats() -> Dict[str, int]:
    """Copy of the hit/miss/fallback counters (diagnostics)."""
    return dict(_STATS)
