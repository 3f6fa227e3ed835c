"""Algebraic variant enumeration.

RECORD's distinguishing code-selection trick (Sec. 4.3.3): "RECORD uses
algebraic rules for transforming the original data flow tree into
equivalent ones and calls the iburg-matcher with each tree.  The tree
requiring the smallest number of covering patterns is then selected."

This module supplies the rewrite rules and the bounded exploration of the
variant space.  Rules are *local* (they fire at a single node); the
enumerator applies them at every position of the tree, breadth-first,
deduplicating structurally identical results, until a variant budget is
exhausted.  Soundness of every rule is checked by property-based tests
(bit-true equivalence under the fixed-point semantics).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.ops import OpKind
from repro.ir.trees import Tree, tree_caching_enabled

DEFAULT_VARIANT_LIMIT = 64

# Variant enumeration is a pure function of (tree, rules, limit); with
# interned trees the key hashes in O(1), so repeated compiles of the
# same programs (benchmark rounds, report regeneration, the compile
# farm's per-process compiler pool) skip the whole rewrite search.
#
# The memo is LRU-bounded: a long fuzz run streams an unbounded number
# of distinct trees through the selector, and each entry pins up to
# ``limit`` variant trees (which in turn pin intern-table slots), so an
# unbounded dict would grow memory for the whole run.  Hits move the
# entry to the young end; inserts beyond the cap evict the oldest.
_VARIANT_CACHE: "OrderedDict" = OrderedDict()
_VARIANT_CACHE_LIMIT = 4096
_VARIANT_CACHE_EVICTIONS = 0


def clear_variant_cache() -> None:
    """Drop the memoized variant lists (used by the caching toggle)."""
    global _VARIANT_CACHE_EVICTIONS
    _VARIANT_CACHE.clear()
    _VARIANT_CACHE_EVICTIONS = 0


def set_variant_cache_limit(limit: int) -> int:
    """Set the LRU entry cap; returns the previous cap.

    Shrinking below the current population evicts (oldest first)
    immediately.
    """
    global _VARIANT_CACHE_LIMIT, _VARIANT_CACHE_EVICTIONS
    if limit < 1:
        raise ValueError("variant cache limit must be at least 1")
    previous = _VARIANT_CACHE_LIMIT
    _VARIANT_CACHE_LIMIT = limit
    while len(_VARIANT_CACHE) > limit:
        _VARIANT_CACHE.popitem(last=False)
        _VARIANT_CACHE_EVICTIONS += 1
    return previous


def variant_cache_info() -> dict:
    """Occupancy stats: ``{"size", "limit", "evictions"}``."""
    return {
        "size": len(_VARIANT_CACHE),
        "limit": _VARIANT_CACHE_LIMIT,
        "evictions": _VARIANT_CACHE_EVICTIONS,
    }


@dataclass(frozen=True)
class RewriteRule:
    """A named local rewrite.  ``apply`` returns ``None`` when it does not
    fire at the given node."""

    name: str
    apply: Callable[[Tree], Optional[Tree]]


def _commute(tree: Tree) -> Optional[Tree]:
    if (tree.kind is OpKind.COMPUTE and tree.operator.commutative
            and len(tree.children) == 2):
        left, right = tree.children
        return Tree(OpKind.COMPUTE, operator=tree.operator,
                    children=(right, left))
    return None


def _reassociate_left(tree: Tree) -> Optional[Tree]:
    """op(a, op(b, c)) -> op(op(a, b), c) for associative op."""
    if tree.kind is not OpKind.COMPUTE or not tree.operator.associative:
        return None
    if len(tree.children) != 2:
        return None
    left, right = tree.children
    if right.kind is OpKind.COMPUTE and right.operator is tree.operator:
        b, c = right.children
        inner = Tree(OpKind.COMPUTE, operator=tree.operator,
                     children=(left, b))
        return Tree(OpKind.COMPUTE, operator=tree.operator,
                    children=(inner, c))
    return None


def _reassociate_right(tree: Tree) -> Optional[Tree]:
    """op(op(a, b), c) -> op(a, op(b, c)) for associative op."""
    if tree.kind is not OpKind.COMPUTE or not tree.operator.associative:
        return None
    if len(tree.children) != 2:
        return None
    left, right = tree.children
    if left.kind is OpKind.COMPUTE and left.operator is tree.operator:
        a, b = left.children
        inner = Tree(OpKind.COMPUTE, operator=tree.operator,
                     children=(b, right))
        return Tree(OpKind.COMPUTE, operator=tree.operator,
                    children=(a, inner))
    return None


def _sub_to_add_neg(tree: Tree) -> Optional[Tree]:
    """a - b -> a + (-b).  Exposes ``add``-shaped patterns (e.g. MAC with
    a negated product becomes multiply-subtract)."""
    if tree.kind is OpKind.COMPUTE and tree.operator.name == "sub":
        a, b = tree.children
        return Tree.compute("add", a, Tree.compute("neg", b))
    return None


def _add_neg_to_sub(tree: Tree) -> Optional[Tree]:
    """a + (-b) -> a - b (and the commuted form via _commute)."""
    if tree.kind is OpKind.COMPUTE and tree.operator.name == "add":
        a, b = tree.children
        if b.kind is OpKind.COMPUTE and b.operator.name == "neg":
            return Tree.compute("sub", a, b.children[0])
    return None


def _fits_word16(tree: Tree) -> bool:
    """Range guard at the repository's uniform 16-bit word width.

    Rewrites that remove a word-width operand port (mul -> shl,
    identity elimination on mul/or/xor) are only sound when the operand
    provably fits the word; all shipped targets are 16-bit, so the
    guard is evaluated at that width.
    """
    from repro.ir.fixedpoint import FixedPointContext
    from repro.ir.ranges import fits_word
    return fits_word(tree, FixedPointContext(16))


def _mul_pow2_to_shift(tree: Tree) -> Optional[Tree]:
    """x * 2^k -> x << k (strength reduction exposed as a rewrite so the
    covering step can weigh both forms).  Guarded: the multiplier port
    wraps x, a shift does not, so x must provably fit the word."""
    if tree.kind is not OpKind.COMPUTE or tree.operator.name != "mul":
        return None
    left, right = tree.children
    if right.kind is OpKind.CONST and right.value is not None \
            and right.value > 0 and (right.value & (right.value - 1)) == 0:
        shift = right.value.bit_length() - 1
        if shift > 0 and _fits_word16(left):
            return Tree.compute("shl", left, Tree.const(shift))
    return None


def _identity_elimination(tree: Tree) -> Optional[Tree]:
    """op(x, identity) -> x.

    For operators with word-width operand ports (mul/or/xor) the
    elimination also removes the port's wrap of x, so it only fires
    when x provably fits the word.
    """
    from repro.ir.fixedpoint import FixedPointContext
    if tree.kind is not OpKind.COMPUTE or len(tree.children) != 2:
        return None
    identity = tree.operator.identity
    if identity is None:
        return None
    left, right = tree.children
    if right.kind is OpKind.CONST and right.value == identity:
        if tree.operator.name in FixedPointContext.WORD_OPERAND_OPS \
                and not _fits_word16(left):
            return None
        return left
    return None


def _neg_neg(tree: Tree) -> Optional[Tree]:
    if tree.kind is OpKind.COMPUTE and tree.operator.name == "neg":
        child = tree.children[0]
        if child.kind is OpKind.COMPUTE and child.operator.name == "neg":
            return child.children[0]
    return None


DEFAULT_RULES: List[RewriteRule] = [
    RewriteRule("commute", _commute),
    RewriteRule("reassoc-left", _reassociate_left),
    RewriteRule("reassoc-right", _reassociate_right),
    RewriteRule("sub->add-neg", _sub_to_add_neg),
    RewriteRule("add-neg->sub", _add_neg_to_sub),
    RewriteRule("mul-pow2->shl", _mul_pow2_to_shift),
    RewriteRule("identity-elim", _identity_elimination),
    RewriteRule("neg-neg", _neg_neg),
]


def enumerate_variants(tree: Tree,
                       rules: Sequence[RewriteRule] = None,
                       limit: int = DEFAULT_VARIANT_LIMIT) -> List[Tree]:
    """Breadth-first enumeration of algebraically equivalent trees.

    The original tree is always first.  At most ``limit`` distinct trees
    are returned; the search stops early when the rewrite closure is
    exhausted.
    """
    if rules is None:
        rules = DEFAULT_RULES
    if limit < 1:
        raise ValueError("limit must be at least 1")
    caching = tree_caching_enabled()
    if caching:
        key = (tree, tuple(rules), limit)
        cached = _VARIANT_CACHE.get(key)
        if cached is not None:
            _VARIANT_CACHE.move_to_end(key)
            return list(cached)
    variants = _enumerate_variants(tree, rules, limit)
    if caching:
        global _VARIANT_CACHE_EVICTIONS
        _VARIANT_CACHE[key] = tuple(variants)
        while len(_VARIANT_CACHE) > _VARIANT_CACHE_LIMIT:
            _VARIANT_CACHE.popitem(last=False)
            _VARIANT_CACHE_EVICTIONS += 1
    return variants


def _enumerate_variants(tree: Tree, rules: Sequence[RewriteRule],
                        limit: int) -> List[Tree]:
    # One-step rewrites per distinct subtree, for this enumeration only:
    # variants share most of their subtrees, so each shared subtree is
    # rewritten once instead of once per variant containing it.
    memo: Dict[Tree, Tuple[Tree, ...]] = {}

    def one_step(node: Tree) -> Tuple[Tree, ...]:
        """Every tree obtainable by one rule firing at one position of
        ``node``: the rules at the root in rule order, then each child's
        rewrites in child order."""
        rewrites = memo.get(node)
        if rewrites is not None:
            return rewrites
        found: List[Tree] = []
        for rule in rules:
            result = rule.apply(node)
            if result is not None and result != node:
                found.append(result)
        for position, child in enumerate(node.children):
            for rewritten_child in one_step(child):
                children = list(node.children)
                children[position] = rewritten_child
                found.append(Tree(node.kind, operator=node.operator,
                                  children=tuple(children),
                                  value=node.value, symbol=node.symbol,
                                  index=node.index))
        rewrites = memo[node] = tuple(found)
        return rewrites

    seen = {tree}
    frontier = [tree]
    variants = [tree]
    while frontier and len(variants) < limit:
        next_frontier: List[Tree] = []
        for current in frontier:
            for candidate in one_step(current):
                if candidate in seen:
                    continue
                seen.add(candidate)
                variants.append(candidate)
                next_frontier.append(candidate)
                if len(variants) >= limit:
                    return variants
        frontier = next_frontier
    return variants
