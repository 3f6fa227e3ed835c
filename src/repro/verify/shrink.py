"""Delta-debugging minimization of failing conformance programs.

Given a program and a predicate ("this program still exposes the
bug"), the shrinker greedily applies structural reductions until a
fixpoint, always re-validating the predicate after each candidate:

1. drop whole program items (blocks / loops),
2. collapse a loop to a single iteration, then inline its body,
3. drop individual block writes,
4. replace a compute node by one of its operands,
5. shrink constants toward zero and array reads toward scalar reads.

Reductions operate on the :mod:`repro.verify.corpus` spec form (plain
dicts), so the shrinker can never construct an un-serializable
program, and the surviving reproducer is exactly what gets written to
``tests/corpus/``.  The greedy pass order biases toward removing big
structure first, which is what makes fault reproducers land at a
handful of instructions.

:func:`reproducer` regenerates one failing fuzz case from its derived
seed, shrinks it and builds its fingerprinted corpus entry; the
``repro.verify`` CLI and campaigns file their reproducers through it.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.ir.program import Program
from repro.verify.corpus import (
    CorpusEntry, failure_fingerprint, program_from_spec, program_to_spec,
)
from repro.verify.diff import (
    Cell, instruction_count, regenerate_case, still_fails,
)
from repro.verify.progen import ProgenConfig

Predicate = Callable[[Program], bool]


def shrink_program(program: Program, predicate: Predicate,
                   max_probes: int = 400) -> Program:
    """Smallest program (under the reduction moves) still failing.

    ``predicate`` must return ``True`` for ``program`` itself; raises
    ``ValueError`` otherwise (a shrink run on a passing program is
    always a harness bug upstream).  ``max_probes`` bounds the total
    number of predicate evaluations.
    """
    if not predicate(program):
        raise ValueError("predicate does not hold on the original program")
    spec = program_to_spec(program)
    probes = [0]

    def holds(candidate_spec: dict) -> bool:
        if probes[0] >= max_probes:
            return False
        probes[0] += 1
        try:
            candidate = program_from_spec(candidate_spec)
            return bool(predicate(candidate))
        except Exception:
            # A reduction can produce a program the toolchain rejects
            # (e.g. no outputs left); that candidate is simply not a
            # reproducer.
            return False

    changed = True
    while changed and probes[0] < max_probes:
        changed = False
        for candidate in _reductions(spec):
            if holds(candidate):
                spec = candidate
                changed = True
                break
    # Unused-declaration stripping changes the memory map, so it is
    # predicate-checked like any other reduction, not assumed safe.
    stripped = _drop_unused_symbols(spec)
    if stripped != spec and holds(stripped):
        spec = stripped
    return program_from_spec(spec)


def reproducer(seed: int, cell: Cell, mismatch_class: str,
               targets: Sequence[str], inputs_per_program: int,
               fault, config: Optional[ProgenConfig]
               ) -> Tuple[CorpusEntry, int]:
    """A shrunk, fingerprinted corpus entry for one failing fuzz case.

    The case is regenerated from its derived ``seed``.  The failure
    must reproduce in ``cell`` over ``targets`` (any mismatch counts
    when the cell's simulator is ``*``).  Returns the entry, named
    ``shrunk-seed<seed>``, and the shrunk program's instruction count
    on the cell's target (-1 when it does not compile).
    """
    program, all_sets = regenerate_case(seed, inputs_per_program, config)
    exact = cell if cell.sim != "*" else None

    def fails(candidate: Program, input_sets) -> bool:
        return still_fails(candidate, input_sets, targets=targets,
                           fault=fault, cell=exact)

    # Pin the shrink to one exposing input set, so the recorded
    # reproducer is self-contained: (program, inputs) must fail on
    # replay with exactly what the corpus entry stores.
    input_sets = next(([candidate] for candidate in all_sets
                       if fails(program, [candidate])), all_sets)
    try:
        small = shrink_program(
            program, lambda candidate: fails(candidate, input_sets))
    except ValueError:
        # Not reproducible standalone (e.g. decode-cache dependent);
        # record the unshrunk program instead.
        small = program
    kept = set(small.symbols)
    small_spec = program_to_spec(small)
    cell_dict = {"compiler": cell.compiler, "target": cell.target,
                 "sim": cell.sim}
    entry = CorpusEntry(
        name=f"shrunk-seed{seed}",
        seed=seed,
        program_spec=small_spec,
        inputs={k: v for inputs in input_sets[:1]
                for k, v in inputs.items() if k in kept},
        fault=((fault.original, fault.replacement)
               if fault is not None else None),
        cell=cell_dict,
        mismatch_class=("injected-fault" if fault is not None
                        else mismatch_class),
        note="auto-minimized by repro.verify.shrink",
        fingerprint=failure_fingerprint(mismatch_class, cell_dict,
                                        small_spec))
    try:
        size = instruction_count(small, target_name=cell.target)
    except Exception:                                  # noqa: BLE001
        size = -1
    return entry, size


# ----------------------------------------------------------------------
# Reduction moves (each yields candidate specs, most aggressive first)
# ----------------------------------------------------------------------

def _reductions(spec: dict) -> Iterator[dict]:
    yield from _drop_items(spec)
    yield from _flatten_loops(spec)
    yield from _drop_writes(spec)
    yield from _simplify_exprs(spec)


def _drop_items(spec: dict) -> Iterator[dict]:
    """Remove one program item (at any nesting level)."""
    for path in _item_paths(spec["body"]):
        candidate = copy.deepcopy(spec)
        items = _items_at(candidate["body"], path[:-1])
        del items[path[-1]]
        if candidate["body"]:
            yield candidate


def _flatten_loops(spec: dict) -> Iterator[dict]:
    """Reduce a loop's trip count to 1, then splice its body inline."""
    for path in _item_paths(spec["body"]):
        item = _items_at(spec["body"], path[:-1])[path[-1]]
        if item["kind"] != "loop":
            continue
        if item["count"] > 1:
            candidate = copy.deepcopy(spec)
            _items_at(candidate["body"], path[:-1])[path[-1]]["count"] = 1
            yield candidate
        else:
            candidate = copy.deepcopy(spec)
            items = _items_at(candidate["body"], path[:-1])
            items[path[-1]:path[-1] + 1] = \
                copy.deepcopy(item["body"])
            if candidate["body"]:
                yield candidate


def _drop_writes(spec: dict) -> Iterator[dict]:
    """Remove one write from one block."""
    for path in _item_paths(spec["body"]):
        item = _items_at(spec["body"], path[:-1])[path[-1]]
        if item["kind"] != "block" or len(item["writes"]) <= 1:
            continue
        for index in range(len(item["writes"])):
            candidate = copy.deepcopy(spec)
            block = _items_at(candidate["body"], path[:-1])[path[-1]]
            del block["writes"][index]
            yield candidate


def _simplify_exprs(spec: dict) -> Iterator[dict]:
    """Shrink one expression node somewhere in the program."""
    for path in _item_paths(spec["body"]):
        item = _items_at(spec["body"], path[:-1])[path[-1]]
        if item["kind"] != "block":
            continue
        for write_index, write in enumerate(item["writes"]):
            for replacement in _expr_reductions(write["expr"]):
                candidate = copy.deepcopy(spec)
                block = _items_at(candidate["body"], path[:-1])[path[-1]]
                block["writes"][write_index]["expr"] = replacement
                yield candidate


def _expr_reductions(expr: dict) -> Iterator[dict]:
    """Candidate replacements for one expression tree, smallest first."""
    if expr["kind"] == "compute":
        # Hoist each child over the operator.
        for child in expr["children"]:
            yield copy.deepcopy(child)
        # Recurse into children.
        for index, child in enumerate(expr["children"]):
            for replacement in _expr_reductions(child):
                candidate = copy.deepcopy(expr)
                candidate["children"][index] = replacement
                yield candidate
    elif expr["kind"] == "const" and expr["value"] not in (0, 1):
        yield {"kind": "const", "value": 0}
        yield {"kind": "const", "value": 1}
        yield {"kind": "const", "value": expr["value"] // 2}
    elif expr["kind"] == "ref" and expr.get("index") is not None:
        # Array walk -> fixed element 0 -> often enables dropping the
        # loop entirely on a later pass.
        if expr["index"]["coeff"] != 0 or expr["index"]["offset"] != 0:
            yield {"kind": "ref", "symbol": expr["symbol"],
                   "index": {"coeff": 0, "offset": 0}}


# ----------------------------------------------------------------------
# Spec navigation helpers
# ----------------------------------------------------------------------

def _item_paths(items: List[dict],
                prefix: Tuple[int, ...] = ()) -> List[Tuple[int, ...]]:
    """Paths to every item, outermost first (a path is index steps)."""
    paths: List[Tuple[int, ...]] = []
    for index, item in enumerate(items):
        path = prefix + (index,)
        paths.append(path)
        if item["kind"] == "loop":
            paths.extend(_item_paths(item["body"], path))
    return paths


def _items_at(items: List[dict], path: Tuple[int, ...]) -> List[dict]:
    """The item list addressed by a (possibly empty) container path."""
    current = items
    for step in path:
        current = current[step]["body"]
    return current


def _drop_unused_symbols(spec: dict) -> dict:
    """Remove declared inputs the shrunken body no longer reads."""
    used: set = set()

    def scan_expr(expr: dict) -> None:
        if expr["kind"] == "ref":
            used.add(expr["symbol"])
        for child in expr.get("children", ()):
            scan_expr(child)

    def scan_items(items: List[dict]) -> None:
        for item in items:
            if item["kind"] == "block":
                for write in item["writes"]:
                    used.add(write["symbol"])
                    scan_expr(write["expr"])
            else:
                scan_items(item["body"])

    scan_items(spec["body"])
    candidate = copy.deepcopy(spec)
    candidate["symbols"] = [
        entry for entry in candidate["symbols"]
        if entry["name"] in used or entry["role"] != "input"]
    # Outputs that are never written anymore can go as well.
    candidate["symbols"] = [
        entry for entry in candidate["symbols"]
        if entry["role"] != "output" or entry["name"] in used]
    return candidate
