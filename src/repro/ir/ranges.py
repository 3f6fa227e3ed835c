"""Interval range analysis for expression values.

Answers one load-bearing question for the back end: *can this
intermediate value exceed the machine word?*  A value that can must not
travel through a 16-bit memory cell (spilling would silently wrap it),
so :func:`repro.ir.trees.decompose` refuses to share wide subexpressions
through temporaries and the selector prefers word-sized cut points.

Interval rules mirror the expression semantics of
:class:`repro.ir.fixedpoint.FixedPointContext`: memory reads and
constants are word-sized, except the selector's double-word spill
slots (``$wide`` refs), which hold an accumulator-width value;
operators realized by word-width machine ports (mul / logic / min /
max) wrap their operands first, so an operand that can leave the word
can become any word value; the accumulation chain
(add/sub/neg/abs/shifts) is tracked exactly; ``sat`` and ``wrap``
re-clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.fixedpoint import FixedPointContext
from repro.ir.ops import OpKind
from repro.ir.trees import WIDE_PREFIX, Tree, tree_caching_enabled

# Range analysis is a pure function of (tree, word width); the rewrite
# guards of repro.ir.algebraic call it for every candidate rewrite, so
# with interned trees a per-width memo turns the repeated interval
# walks into dictionary hits.  Its keys are interned trees, so it lives
# for one intern-table generation (see repro.ir.trees.INTERN_LIMIT).
_RANGE_CACHE: "dict" = {}


def clear_range_cache() -> None:
    """Drop the memoized intervals (with the intern table)."""
    _RANGE_CACHE.clear()


@dataclass(frozen=True)
class Interval:
    """A closed integer interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def within(self, other: "Interval") -> bool:
        """Whether this interval is contained in ``other``."""
        return other.lo <= self.lo and self.hi <= other.hi

    def clamp(self, other: "Interval") -> "Interval":
        """Every value of this interval saturated into ``other``: the
        intersection, or ``other``'s nearer end when they are disjoint."""
        if self.lo > other.hi:
            return Interval(other.hi, other.hi)
        if self.hi < other.lo:
            return Interval(other.lo, other.lo)
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def word_interval(fpc: FixedPointContext) -> Interval:
    """The representable range of the machine word."""
    return Interval(fpc.min_value, fpc.max_value)


def double_word_interval(fpc: FixedPointContext) -> Interval:
    """The range of a double-word spill slot (twice the word width)."""
    return Interval(-(1 << (2 * fpc.width - 1)),
                    (1 << (2 * fpc.width - 1)) - 1)


def _combine(op_name: str, a: Interval, b: Optional[Interval],
             fpc: FixedPointContext) -> Interval:
    word = word_interval(fpc)
    if op_name in FixedPointContext.WORD_OPERAND_OPS:
        # The port wraps an operand that can leave the word, and a
        # wrapped value can be any word value: clamping would be
        # unsound (65536 wraps to 0, not to 32767).
        if not a.within(word):
            a = word
        if b is not None and not b.within(word):
            b = word
        if op_name == "mul":
            corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo,
                       a.hi * b.hi]
            return Interval(min(corners), max(corners))
        if op_name in ("and", "or", "xor", "not"):
            # bitwise results of word-sized two's-complement operands
            # stay word-sized
            return word
        if op_name == "min":
            return Interval(min(a.lo, b.lo), min(a.hi, b.hi))
        if op_name == "max":
            return Interval(max(a.lo, b.lo), max(a.hi, b.hi))
    if op_name == "add":
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if op_name == "sub":
        return Interval(a.lo - b.hi, a.hi - b.lo)
    if op_name == "neg":
        return Interval(-a.hi, -a.lo)
    if op_name == "abs":
        low = 0 if a.lo <= 0 <= a.hi else min(abs(a.lo), abs(a.hi))
        return Interval(low, max(abs(a.lo), abs(a.hi)))
    if op_name in ("shl", "shr"):
        # Legal shift amounts are 0 .. 2*width-1 (wider shifts raise at
        # evaluation time); clamp so symbolic amounts stay tractable.
        shift = Interval(max(0, b.lo), max(0, min(2 * fpc.width, b.hi)))
        if op_name == "shl":
            corners = [a.lo << shift.lo, a.lo << shift.hi,
                       a.hi << shift.lo, a.hi << shift.hi]
        else:
            corners = [a.lo >> shift.lo, a.lo >> shift.hi,
                       a.hi >> shift.lo, a.hi >> shift.hi]
        return Interval(min(corners), max(corners))
    if op_name in ("sat", "wrap"):
        return a.clamp(word) if op_name == "sat" else word
    if op_name == "mac":
        raise ValueError("mac does not appear in frontend trees")
    raise ValueError(f"no interval rule for operator {op_name!r}")


def tree_range(tree: Tree, fpc: FixedPointContext) -> Interval:
    """Interval of possible values of a tree (leaves are word-sized,
    double-word spill slots double-word-sized)."""
    if not tree_caching_enabled():
        return _tree_range(tree, fpc)
    key = (tree, fpc.width)
    cached = _RANGE_CACHE.get(key)
    if cached is None:
        cached = _tree_range(tree, fpc)
        _RANGE_CACHE[key] = cached
    return cached


def _tree_range(tree: Tree, fpc: FixedPointContext) -> Interval:
    if tree.kind is OpKind.CONST:
        value = fpc.reduce(tree.value)
        return Interval(value, value)
    if tree.kind is OpKind.REF:
        if tree.symbol.startswith(WIDE_PREFIX):
            return double_word_interval(fpc)
        return word_interval(fpc)
    name = tree.operator.name
    if name == "sat":
        inner = tree_range(tree.children[0], fpc)
        return inner.clamp(word_interval(fpc))
    if name == "wrap":
        return word_interval(fpc)
    child_ranges = [tree_range(child, fpc) for child in tree.children]
    if len(child_ranges) == 1:
        return _combine(name, child_ranges[0], None, fpc)
    return _combine(name, child_ranges[0], child_ranges[1], fpc)


def fits_word(tree: Tree, fpc: FixedPointContext) -> bool:
    """True when the tree's value provably fits the machine word."""
    return tree_range(tree, fpc).within(word_interval(fpc))
