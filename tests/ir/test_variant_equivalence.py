"""The memoized enumeration returns exactly the old generator's variants.

``reference_variants`` below is the enumeration as it was before the
one-step rewrite memo: a recursive generator that re-applies every
rule at every position of every variant.  For the DSPStone kernels,
a set of generated programs and random trees, the memoized enumeration
must return the same variant list -- same trees, same order -- at
limits 1, 8 and 64.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dspstone import all_kernels
from repro.ir.algebraic import DEFAULT_RULES, clear_variant_cache, \
    enumerate_variants
from repro.ir.fixedpoint import FixedPointContext
from repro.ir.program import Block, Loop
from repro.ir.trees import Tree, decompose
from repro.verify.progen import ProgenConfig, generate_program

LIMITS = (1, 8, 64)


# ----------------------------------------------------------------------
# Reference copy of the enumeration before the one-step memo
# ----------------------------------------------------------------------

def _ref_rewrites(tree, rules):
    for rule in rules:
        result = rule.apply(tree)
        if result is not None and result != tree:
            yield result
    for position, child in enumerate(tree.children):
        for rewritten_child in _ref_rewrites(child, rules):
            children = list(tree.children)
            children[position] = rewritten_child
            yield Tree(tree.kind, operator=tree.operator,
                       children=tuple(children), value=tree.value,
                       symbol=tree.symbol, index=tree.index)


def reference_variants(tree, rules, limit):
    seen = {tree}
    frontier = [tree]
    variants = [tree]
    while frontier and len(variants) < limit:
        next_frontier = []
        for current in frontier:
            for candidate in _ref_rewrites(current, rules):
                if candidate in seen:
                    continue
                seen.add(candidate)
                variants.append(candidate)
                next_frontier.append(candidate)
                if len(variants) >= limit:
                    return variants
        frontier = next_frontier
    return variants


# ----------------------------------------------------------------------

def _program_trees():
    programs = [spec.program for spec in all_kernels()]
    for seed, config in ((1, ProgenConfig(sat_probability=0.0)),
                         (2, ProgenConfig())):
        for index in range(5):
            rng = random.Random(seed * 1_000_000 + index)
            programs.append(generate_program(rng, index, config))
    fpc = FixedPointContext(16)
    trees = []

    def walk(items):
        for item in items:
            if isinstance(item, Block):
                trees.extend(assignment.tree
                             for assignment in decompose(item.dfg, fpc=fpc))
            elif isinstance(item, Loop):
                walk(item.body)

    for program in programs:
        walk(program.body)
    return trees


def assert_same_variants(tree, limit):
    clear_variant_cache()
    expected = reference_variants(tree, DEFAULT_RULES, limit)
    assert enumerate_variants(tree, DEFAULT_RULES, limit) == expected, \
        (str(tree), limit)


@pytest.mark.parametrize("limit", LIMITS)
def test_variants_equal_reference_on_programs(limit):
    trees = _program_trees()
    assert any(len(reference_variants(tree, DEFAULT_RULES, 64)) == 64
               for tree in trees), "no tree reaches the variant limit"
    for tree in trees:
        assert_same_variants(tree, limit)


def _random_trees():
    leaves = st.one_of(
        st.sampled_from(["a", "b", "$wide0"]).map(Tree.ref),
        st.sampled_from([0, 1, 2, 4, 3, -1]).map(Tree.const))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "and", "or",
                                       "xor", "shl"]),
                      children, children)
            .map(lambda t: Tree.compute(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["neg", "abs", "sat"]), children)
            .map(lambda t: Tree.compute(t[0], t[1])))
    return st.recursive(leaves, extend, max_leaves=7)


@settings(max_examples=150, deadline=None)
@given(_random_trees(), st.sampled_from(LIMITS))
def test_variants_equal_reference_on_random_trees(tree, limit):
    assert_same_variants(tree, limit)
