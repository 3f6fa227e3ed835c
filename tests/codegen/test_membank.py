"""Unit + property tests for memory-bank assignment (MAX-CUT)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import membank
from repro.codegen.membank import (
    annealed_assignment, cut_value, exhaustive_assignment,
    greedy_assignment, normalize_pairs, single_bank_assignment,
)


def pairs_strategy():
    names = st.sampled_from("abcdef")
    return st.lists(st.tuples(names, names), min_size=0, max_size=20)


def test_normalize_pairs_aggregates_and_drops_self_pairs():
    weights = normalize_pairs([("a", "b"), ("b", "a"), ("a", "a"),
                               ("b", "c")])
    assert weights == {("a", "b"): 2, ("b", "c"): 1}


def test_cut_value():
    weights = {("a", "b"): 3, ("b", "c"): 1}
    banks = {"a": "x", "b": "y", "c": "y"}
    assert cut_value(weights, banks) == 3


def test_single_bank_has_zero_cut():
    weights = normalize_pairs([("a", "b"), ("c", "d")])
    banks = single_bank_assignment(weights)
    assert cut_value(weights, banks) == 0
    assert set(banks.values()) == {"x"}


def test_greedy_separates_an_obvious_pair():
    weights = normalize_pairs([("a", "b")] * 5)
    banks = greedy_assignment(weights)
    assert banks["a"] != banks["b"]


def test_greedy_covers_unconstrained_variables():
    banks = greedy_assignment({}, variables=["p", "q"])
    assert set(banks) == {"p", "q"}


def test_exhaustive_guardrail():
    weights = {(f"v{i}", f"v{i+1}"): 1 for i in range(20)}
    with pytest.raises(ValueError):
        exhaustive_assignment(weights)


@settings(max_examples=80, deadline=None)
@given(pairs_strategy())
def test_greedy_and_annealed_bounded_by_exhaustive(pairs):
    weights = normalize_pairs(pairs)
    best = cut_value(weights, exhaustive_assignment(weights))
    greedy = cut_value(weights, greedy_assignment(weights))
    annealed = cut_value(weights, annealed_assignment(weights, seed=1))
    assert greedy <= best
    assert annealed <= best
    assert annealed >= greedy or annealed >= 0


@settings(max_examples=80, deadline=None)
@given(pairs_strategy())
def test_annealing_never_worse_than_greedy(pairs):
    weights = normalize_pairs(pairs)
    greedy = cut_value(weights, greedy_assignment(weights))
    annealed = cut_value(weights, annealed_assignment(weights, seed=2))
    assert annealed >= greedy


@settings(max_examples=50, deadline=None)
@given(pairs_strategy())
def test_assignments_are_total_and_two_valued(pairs):
    weights = normalize_pairs(pairs)
    names = {n for pair in weights for n in pair}
    for assigner in (greedy_assignment, single_bank_assignment):
        banks = assigner(weights)
        assert set(banks) == names
        assert set(banks.values()) <= {"x", "y"}


def test_annealing_is_deterministic_per_seed():
    weights = normalize_pairs([("a", "b"), ("b", "c"), ("c", "d"),
                               ("d", "a"), ("a", "c")])
    first = annealed_assignment(weights, seed=42)
    second = annealed_assignment(weights, seed=42)
    assert first == second


def test_bipartite_graph_fully_cut_by_annealing():
    # K_{2,2}: a,c vs b,d separates all 4 edges.
    weights = normalize_pairs([("a", "b"), ("a", "d"), ("c", "b"),
                               ("c", "d")])
    banks = annealed_assignment(weights, seed=0)
    assert cut_value(weights, banks) == 4


def test_a_fully_cut_greedy_start_is_returned_without_annealing(
        monkeypatch):
    """When the greedy start cuts every pair no flip can do better, so
    the annealer returns it after one cut evaluation instead of 2,000."""
    weights = normalize_pairs([("a", "b"), ("a", "d"), ("c", "b"),
                               ("c", "d")])
    greedy = greedy_assignment(weights)
    assert cut_value(weights, greedy) == sum(weights.values())
    calls = []
    real = membank.cut_value

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(membank, "cut_value", counting)
    banks = annealed_assignment(weights, seed=0)
    assert list(banks.items()) == list(greedy.items())
    assert len(calls) == 1


def _random_pairs(seed):
    rng = random.Random(seed)
    names = "abcdefgh"[:rng.randint(3, 8)]
    return [(rng.choice(names), rng.choice(names))
            for _ in range(rng.randint(3, 14))]


def _cycle(length):
    names = "abcdefghij"[:length]
    return [(names[i], names[(i + 1) % length]) for i in range(length)]


#: ``annealed_assignment(weights, seed=3)`` as ``name+bank`` in the
#: returned order, recorded before the fully-cut early exit existed.
#: Random graphs 4, 5, 6, 7, 10 and 11 take the exit; the odd cycles
#: and the other random graphs cannot be fully cut and anneal.
ANNEALED = {
    "random-0": "cy ey bx dx ax",
    "random-1": "ax dy cy bx",
    "random-2": "bx cy ax",
    "random-3": "bx dy ax cy",
    "random-4": "ax bx cy dy",
    "random-5": "fx gy ax by cy dx ey",
    "random-6": "ax by cy dx ex fy gy",
    "random-7": "ax ey bx cy dy",
    "random-8": "bx ay dy",
    "random-9": "fx dy ay bx cx ex",
    "random-10": "ax bx dy ey",
    "random-11": "ex ax dy fy by cx",
    "cycle-3": "ax by cx",
    "cycle-5": "ax by cx dy ex",
    "cycle-7": "ax by cx dy ex fy gx",
    "cycle-5-chord": "ax cy bx dx ey",
}


def _graph(name):
    if name == "cycle-5-chord":
        return _cycle(5) + [("a", "c")]
    kind, number = name.split("-")
    return _random_pairs(int(number)) if kind == "random" \
        else _cycle(int(number))


@pytest.mark.parametrize("name", sorted(ANNEALED))
def test_annealed_assignments_match_the_recorded_ones(name):
    banks = annealed_assignment(normalize_pairs(_graph(name)), seed=3)
    assert " ".join(symbol + bank for symbol, bank in banks.items()) \
        == ANNEALED[name]
