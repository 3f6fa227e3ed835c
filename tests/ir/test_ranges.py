"""Unit + property tests for interval range analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.fixedpoint import FixedPointContext
from repro.ir.ranges import Interval, fits_word, tree_range, word_interval
from repro.ir.trees import WIDE_PREFIX, Tree

FPC = FixedPointContext(16)


def test_interval_validation_and_predicates():
    with pytest.raises(ValueError):
        Interval(3, 2)
    assert Interval(0, 5).within(Interval(-1, 6))
    assert not Interval(0, 7).within(Interval(0, 6))


def test_leaves():
    assert tree_range(Tree.ref("a"), FPC) == word_interval(FPC)
    assert tree_range(Tree.const(42), FPC) == Interval(42, 42)
    # constants wrap at the leaf
    wrapped = FPC.wrap(70000)
    assert tree_range(Tree.const(70000), FPC) == Interval(wrapped,
                                                          wrapped)


def test_wide_spill_slot_is_double_word():
    """A ``$wide`` slot holds an accumulator-width value, so a word-port
    operator over it must not be treated as wrap-free."""
    slot = Tree.ref(f"{WIDE_PREFIX}0")
    assert tree_range(slot, FPC) == Interval(-(1 << 31), (1 << 31) - 1)
    assert not fits_word(slot, FPC)
    assert not fits_word(Tree.compute("mul", slot, Tree.const(4)), FPC)
    # an ordinary temporary is still word-sized
    assert fits_word(Tree.ref("$t0"), FPC)


def test_add_widens():
    tree = Tree.compute("add", Tree.ref("a"), Tree.ref("b"))
    interval = tree_range(tree, FPC)
    assert interval.lo == 2 * FPC.min_value
    assert interval.hi == 2 * FPC.max_value
    assert not fits_word(tree, FPC)


def test_mul_by_small_constant():
    tree = Tree.compute("mul", Tree.ref("a"), Tree.const(2))
    assert not fits_word(tree, FPC)
    one = Tree.compute("mul", Tree.ref("a"), Tree.const(1))
    assert fits_word(one, FPC)


def test_bitwise_is_word_sized():
    for name in ("and", "or", "xor"):
        tree = Tree.compute(
            name,
            Tree.compute("mul", Tree.ref("a"), Tree.ref("b")),
            Tree.ref("c"))
        assert fits_word(tree, FPC), name
    assert fits_word(Tree.compute("not", Tree.compute(
        "add", Tree.ref("a"), Tree.ref("b"))), FPC)


def test_sat_and_wrap_clamp():
    wide = Tree.compute("mul", Tree.ref("a"), Tree.ref("b"))
    assert fits_word(Tree.compute("sat", wide), FPC)
    assert fits_word(Tree.compute("wrap", wide), FPC)


def test_shift_scaling():
    product = Tree.compute("mul", Tree.ref("a"), Tree.ref("b"))
    q15 = Tree.compute("shr", product, Tree.const(15))
    interval = tree_range(q15, FPC)
    # 2^30 >> 15 = 2^15: one past the word -- still (just) wide
    assert interval.hi == (FPC.min_value * FPC.min_value) >> 15
    q16 = Tree.compute("shr", product, Tree.const(16))
    assert fits_word(q16, FPC)


def test_neg_abs():
    tree = Tree.compute("neg", Tree.ref("a"))
    interval = tree_range(tree, FPC)
    assert interval.hi == -FPC.min_value    # -(-32768) = 32768: wide!
    assert not fits_word(tree, FPC)
    assert tree_range(Tree.compute("abs", Tree.const(-5)),
                      FPC) == Interval(5, 5)


def leaf_values():
    return st.integers(min_value=FPC.min_value, max_value=FPC.max_value)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_range_is_sound(data):
    """Any concrete evaluation lies within the computed interval."""
    variables = ["a", "b"]

    def trees():
        leaves = st.one_of(
            st.sampled_from(variables).map(Tree.ref),
            st.integers(min_value=-100, max_value=100).map(Tree.const))

        def extend(children):
            binary = st.sampled_from(["add", "sub", "mul", "and", "or",
                                      "xor", "min", "max"])
            return st.one_of(
                st.tuples(binary, children, children).map(
                    lambda t: Tree.compute(t[0], t[1], t[2])),
                st.tuples(st.sampled_from(["neg", "abs", "sat", "not"]),
                          children).map(
                    lambda t: Tree.compute(t[0], t[1])),
                st.tuples(st.sampled_from(["shl", "shr"]), children,
                          st.integers(min_value=0, max_value=8)).map(
                    lambda t: Tree.compute(t[0], t[1],
                                           Tree.const(t[2]))),
            )
        return st.recursive(leaves, extend, max_leaves=5)

    tree = data.draw(trees())
    env = {name: data.draw(leaf_values()) for name in variables}
    interval = tree_range(tree, FPC)
    value = tree.evaluate(env, FPC)
    assert interval.lo <= value <= interval.hi, (str(tree), env)
