"""Unit + property tests for algebraic variant enumeration.

The load-bearing property: every enumerated variant is *bit-true
equivalent* to the original under the exact expression semantics, for
all inputs.  Hypothesis generates both the trees and the environments.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.algebraic import (
    DEFAULT_RULES, DEFAULT_VARIANT_LIMIT, enumerate_variants,
)
from repro.ir.fixedpoint import FixedPointContext
from repro.ir.trees import Tree

FPC = FixedPointContext(16)
VARIABLES = ["a", "b", "c"]


def leaf_strategy():
    return st.one_of(
        st.sampled_from(VARIABLES).map(Tree.ref),
        st.integers(min_value=-64, max_value=64).map(Tree.const),
    )


def tree_strategy(max_depth=3):
    def extend(children):
        binary = st.sampled_from(["add", "sub", "mul", "and", "or",
                                  "xor"])
        unary = st.sampled_from(["neg", "abs", "not"])
        return st.one_of(
            st.tuples(binary, children, children).map(
                lambda t: Tree.compute(t[0], t[1], t[2])),
            st.tuples(unary, children).map(
                lambda t: Tree.compute(t[0], t[1])),
        )
    return st.recursive(leaf_strategy(), extend, max_leaves=6)


def environments():
    return st.fixed_dictionaries({
        name: st.integers(min_value=-100, max_value=100)
        for name in VARIABLES
    })


@given(tree_strategy(), environments())
@settings(max_examples=150, deadline=None)
def test_variants_preserve_exact_semantics(tree, env):
    reference = tree.evaluate(dict(env), FPC)
    for variant in enumerate_variants(tree, limit=16):
        assert variant.evaluate(dict(env), FPC) == reference


@given(tree_strategy())
@settings(max_examples=100, deadline=None)
def test_variants_are_distinct_and_bounded(tree):
    variants = enumerate_variants(tree, limit=12)
    assert variants[0] == tree
    assert len(variants) <= 12
    assert len(set(variants)) == len(variants)


def test_variants_agree_with_conformance_oracle():
    """Every enumerated variant must evaluate identically under the
    *independent* oracle evaluator as well -- not just under
    ``Tree.evaluate``, which the rewriter was developed against.
    Seeded stdlib random keeps this deterministic and dependency-free.
    """
    import random

    from repro.verify.oracle import Oracle

    oracle = Oracle(FPC)
    rng = random.Random(99)
    operators = ["add", "sub", "mul", "and", "or", "xor", "neg", "abs"]

    def random_tree(depth):
        if depth <= 0 or rng.random() < 0.35:
            if rng.random() < 0.4:
                return Tree.const(rng.randint(-64, 64))
            return Tree.ref(rng.choice(VARIABLES))
        name = rng.choice(operators)
        if name in ("neg", "abs"):
            return Tree.compute(name, random_tree(depth - 1))
        return Tree.compute(name, random_tree(depth - 1),
                            random_tree(depth - 1))

    for _ in range(80):
        tree = random_tree(3)
        env = {name: rng.randint(-100, 100) for name in VARIABLES}
        reference = oracle.evaluate_tree(tree, env)
        for variant in enumerate_variants(tree, limit=16):
            assert oracle.evaluate_tree(variant, env) == reference, \
                (tree, variant, env)


def test_commute_generates_swapped_operands():
    tree = Tree.compute("add", Tree.ref("a"), Tree.ref("b"))
    variants = enumerate_variants(tree)
    assert Tree.compute("add", Tree.ref("b"), Tree.ref("a")) in variants


def test_mul_pow2_becomes_shift():
    tree = Tree.compute("mul", Tree.ref("a"), Tree.const(8))
    variants = enumerate_variants(tree)
    assert Tree.compute("shl", Tree.ref("a"), Tree.const(3)) in variants


def test_mul_by_one_is_not_shifted():
    tree = Tree.compute("mul", Tree.ref("a"), Tree.const(1))
    shifted = [v for v in enumerate_variants(tree)
               if v.kind.value == "compute" and v.operator.name == "shl"]
    assert not shifted


def test_identity_elimination():
    tree = Tree.compute("add", Tree.ref("a"), Tree.const(0))
    assert Tree.ref("a") in enumerate_variants(tree)
    tree = Tree.compute("mul", Tree.ref("a"), Tree.const(1))
    assert Tree.ref("a") in enumerate_variants(tree)


def test_sub_add_neg_round_trip():
    tree = Tree.compute("sub", Tree.ref("a"), Tree.ref("b"))
    variants = enumerate_variants(tree)
    rewritten = Tree.compute("add", Tree.ref("a"),
                             Tree.compute("neg", Tree.ref("b")))
    assert rewritten in variants


def test_reassociation_exposes_mac_chains():
    # a + (b*c + d*e) can become (a + b*c) + d*e -- the left-deep shape
    # accumulator machines like.
    bc = Tree.compute("mul", Tree.ref("b"), Tree.ref("c"))
    de = Tree.compute("mul", Tree.ref("a"), Tree.ref("b"))
    tree = Tree.compute("add", Tree.ref("a"),
                        Tree.compute("add", bc, de))
    left_deep = Tree.compute("add",
                             Tree.compute("add", Tree.ref("a"), bc), de)
    assert left_deep in enumerate_variants(tree, limit=64)


def test_limit_validation():
    with pytest.raises(ValueError):
        enumerate_variants(Tree.ref("a"), limit=0)


def test_default_limit_is_reasonable():
    assert 16 <= DEFAULT_VARIANT_LIMIT <= 1024


def test_rules_have_unique_names():
    names = [rule.name for rule in DEFAULT_RULES]
    assert len(names) == len(set(names))


# ----------------------------------------------------------------------
# The variant memo lives for one intern-table generation
# ----------------------------------------------------------------------

def test_variant_memo_is_dropped_with_the_intern_table(monkeypatch):
    """A flip at the intern limit drops the memo with the table; the
    dropped entries count as evictions."""
    from repro.ir import algebraic, trees

    if not trees.tree_caching_enabled():
        pytest.skip("tree caching disabled; the memo is inert")
    trees.clear_tree_caches()
    enumerate_variants(Tree.compute("add", Tree.ref("a"), Tree.ref("b")))
    before = algebraic.variant_cache_info()
    assert before["size"] == 1
    monkeypatch.setattr(trees, "INTERN_LIMIT", trees.intern_table_size())
    flips = trees.tree_cache_info()["flips"]
    Tree.ref("a fresh leaf")
    assert trees.tree_cache_info()["flips"] == flips + 1
    assert trees.intern_table_size() == 1
    after = algebraic.variant_cache_info()
    assert after == {"size": 0, "evictions": before["evictions"] + 1}


def test_variant_misses_count_across_flips(monkeypatch):
    """``size + evictions`` counts every memo miss, also across flips:
    the e2e benchmark's ``ir.variant_hit_ratio`` reads misses so."""
    from repro.ir import algebraic, trees

    if not trees.tree_caching_enabled():
        pytest.skip("tree caching disabled; the memo is inert")

    def misses() -> int:
        info = algebraic.variant_cache_info()
        return info["size"] + info["evictions"]

    trees.clear_tree_caches()
    monkeypatch.setattr(trees, "INTERN_LIMIT", 50)
    flips, before = trees.tree_cache_info()["flips"], misses()
    sources = [Tree.compute("sub", Tree.ref("a"),
                            Tree.compute("mul", Tree.ref("b"),
                                         Tree.const(value)))
               for value in range(20)]
    for tree in sources:
        first = enumerate_variants(tree)             # a miss
        assert enumerate_variants(tree) == first     # a hit
    assert trees.tree_cache_info()["flips"] > flips
    assert misses() - before == len(sources)
