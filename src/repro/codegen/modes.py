"""Mode-change minimization (Liao-style; Sec. 3.3 of the paper).

Many DSPs carry *residual control*: machine modes (saturating vs.
wrap-around arithmetic, product-shift factors, sign extension) that
instructions depend on but that are switched by separate mode-change
instructions.  "The issue for compilers is to minimize the number of
mode-changing instructions.  Liao has designed an algorithm for this
purpose."  [26]

Instructions carry their mode *requirements* in ``AsmInstr.modes``; this
pass inserts target-provided mode-change instructions so that every
requirement is met at execution time, minimizing the number inserted.

For a straight-line region this is solved exactly by dynamic programming
over (position, mode value) -- Liao's formulation.  Loops are handled
with the standard region rule: a loop body is processed with an entry
mode equal to what reaches the loop head from *both* the preheader and
the back edge; when the two disagree for a mode the body needs, the
change is placed inside the body (re-established every iteration);
otherwise a single hoisted change suffices.

``naive=True`` gives the baseline behaviour (a mode-change before every
requiring instruction whenever the *statically tracked* value differs,
with tracking invalidated at loop boundaries) -- this is both a
correctness fallback and the ablation point for the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.codegen.asm import AsmInstr, CodeSeq, Label, LoopBegin, LoopEnd
from repro.codegen.structure import LoopNode, Run, flatten, parse

if TYPE_CHECKING:   # pragma: no cover
    from repro.targets.model import TargetModel


def minimize_mode_changes(code: CodeSeq, target: "TargetModel",
                          naive: bool = False) -> CodeSeq:
    """Insert mode-change instructions satisfying all requirements."""
    items = list(code.items)
    reset = dict(target.mode_reset_values())
    if naive:
        result = _naive(items, target, reset)
    else:
        result = _optimized(items, target, dict(reset))
    return hoist_mode_changes_from_loop_heads(CodeSeq(result), target)


def mode_change_opcodes(target: "TargetModel") -> set:
    """Opcodes of the target's mode-change instructions."""
    opcodes = set()
    for mode, values in target.capabilities.modes.items():
        opcodes.add(target.mode_change_instruction(mode,
                                                   values[0]).opcode)
    return opcodes


def hoist_mode_changes_from_loop_heads(code: CodeSeq,
                                       target: "TargetModel") -> CodeSeq:
    """Move mode changes leading a loop body into the preheader.

    This is not only an optimization: on hardware-repeat targets a
    single-instruction body must *stay* single-instruction or the
    RPTK realization (and with it MAC coefficient streaming) is lost.
    Hoisting is sound when the rest of the body contains no other
    mode-change instruction: the mode then survives the back edge.
    """
    changers = mode_change_opcodes(target)
    if not changers:
        return code
    return flatten(_hoist(parse(code), changers))


def _hoist(nodes: List, changers) -> List:
    """:func:`hoist_mode_changes_from_loop_heads` on parsed regions."""
    result: List = []
    for node in nodes:
        if not isinstance(node, LoopNode):
            result.append(node)
            continue
        node.body = _hoist(node.body, changers)
        leading: List[AsmInstr] = []
        while node.body and isinstance(node.body[0], Run) \
                and node.body[0].items \
                and isinstance(node.body[0].items[0], AsmInstr) \
                and node.body[0].items[0].opcode in changers:
            leading.append(node.body[0].items.pop(0))
            if not node.body[0].items:
                node.body.pop(0)
        others = any(isinstance(item, AsmInstr) and item.opcode in changers
                     for item in flatten(node.body).items)
        if leading and not others:
            result.append(Run(items=list(leading)))
        elif leading:
            # unsafe to hoist: put them back
            if node.body and isinstance(node.body[0], Run):
                node.body[0].items[0:0] = leading
            else:
                node.body.insert(0, Run(items=list(leading)))
        result.append(node)
    return result


# ----------------------------------------------------------------------
# Naive insertion (baseline / ablation)
# ----------------------------------------------------------------------

def _naive(items: List, target: "TargetModel",
           reset: Dict[str, int]) -> List:
    current: Dict[str, Optional[int]] = dict(reset)
    result: List = []
    for item in items:
        if isinstance(item, (LoopBegin, LoopEnd)):
            # Tracking is invalidated across loop boundaries: the naive
            # compiler cannot reason about back edges.
            current = {mode: None for mode in current}
            result.append(item)
            continue
        if isinstance(item, AsmInstr) and item.modes:
            for mode, value in sorted(item.modes.items()):
                if current.get(mode) != value:
                    result.append(
                        target.mode_change_instruction(mode, value))
                    current[mode] = value
        result.append(item)
    return result


# ----------------------------------------------------------------------
# Optimized insertion
# ----------------------------------------------------------------------

@dataclass
class _Region:
    """A maximal straight-line run of items, or one loop."""

    items: List
    loop: Optional[Tuple[LoopBegin, List, LoopEnd]] = None


def _split_regions(items: List) -> List[_Region]:
    """Top-level split into straight-line runs and (nested) loops."""
    regions: List[_Region] = []
    run: List = []
    index = 0
    while index < len(items):
        item = items[index]
        if isinstance(item, LoopBegin):
            if run:
                regions.append(_Region(items=run))
                run = []
            depth = 1
            body: List = []
            index += 1
            while index < len(items) and depth > 0:
                inner = items[index]
                if isinstance(inner, LoopBegin):
                    depth += 1
                elif isinstance(inner, LoopEnd):
                    depth -= 1
                    if depth == 0:
                        break
                body.append(inner)
                index += 1
            if depth != 0:
                raise ValueError("unbalanced loop markers")
            regions.append(_Region(items=[], loop=(item, body,
                                                   items[index])))
            index += 1
        else:
            run.append(item)
            index += 1
    if run:
        regions.append(_Region(items=run))
    return regions


def _mode_requirements(items: List) -> Dict[str, List[int]]:
    """All required values per mode, in execution order (loops inline)."""
    requirements: Dict[str, List[int]] = {}
    for item in items:
        if isinstance(item, AsmInstr) and item.modes:
            for mode, value in item.modes.items():
                requirements.setdefault(mode, []).append(value)
    return requirements


def _optimized(items: List, target: "TargetModel",
               entry: Dict[str, Optional[int]]) -> List:
    """Process a body recursively; mutates ``entry`` to the exit modes."""
    result: List = []
    for region in _split_regions(items):
        if region.loop is None:
            result.extend(_straight_line(region.items, target, entry))
            continue
        begin, body, end = region.loop
        requirements = _mode_requirements(body)
        hoisted: List[AsmInstr] = []
        body_entry: Dict[str, Optional[int]] = dict(entry)
        for mode, values in sorted(requirements.items()):
            if all(value == values[0] for value in values):
                # Uniform requirement: one hoisted change (if needed)
                # satisfies both the preheader path and the back edge,
                # because the body never changes the mode.
                if entry.get(mode) != values[0]:
                    hoisted.append(
                        target.mode_change_instruction(mode, values[0]))
                body_entry[mode] = values[0]
                entry[mode] = values[0]
            else:
                # Conflicting requirements inside the body: the value
                # reaching the head via the back edge is the body's exit
                # value, which differs from the first requirement; the
                # change must live inside the body.  Entry value unknown.
                body_entry[mode] = None
        new_body = _optimized(body, target, body_entry)
        # body_entry now holds the body's exit modes; a second iteration
        # entering with those must still satisfy the first requirement,
        # which _straight_line guaranteed by inserting changes whenever
        # the tracked value was None or different.
        for mode in requirements:
            entry[mode] = body_entry.get(mode)
        result.extend(hoisted)
        result.append(begin)
        result.extend(new_body)
        result.append(end)
    return result


def _straight_line(items: List, target: "TargetModel",
                   current: Dict[str, Optional[int]]) -> List:
    """Exact DP is equivalent to greedy here: with change costs uniform
    per mode and no branching, changing lazily right before each
    requiring instruction is optimal (Liao's single-mode DP reduces to
    this for linear sequences)."""
    result: List = []
    for item in items:
        if isinstance(item, AsmInstr) and item.modes:
            for mode, value in sorted(item.modes.items()):
                if current.get(mode) != value:
                    result.append(
                        target.mode_change_instruction(mode, value))
                    current[mode] = value
        result.append(item)
    return result
