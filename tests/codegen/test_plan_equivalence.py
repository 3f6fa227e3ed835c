"""The rule-plan labeler computes exactly the states of the old matcher.

``reference_label`` below is the labeler as it was before rule plans:
a recursive structural match of every candidate rule, a ``Cost`` per
candidate, strict-less replacement and chain rules relaxed to a
fixpoint.  For every shipped target (plus an ASIP whose grammar drops,
re-guards and adds rules) and both metrics, every subtree of
every algebraic variant of the DSPStone kernels and of a set of
generated programs must get the same state from both: per nonterminal
(in the same order) the same cost, rule, bindings, clobbers and chain
source.
"""

import random
from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import burg
from repro.codegen.burg import BurgMatcher
from repro.codegen.grammar import Cost, Nt, Rule, Term
from repro.codegen.selector import wrap_store
from repro.dspstone import all_kernels
from repro.ir.algebraic import enumerate_variants
from repro.ir.ops import OpKind
from repro.ir.program import Block, Loop
from repro.ir.trees import Tree, decompose
from repro.targets.asip import Asip, AsipParams
from repro.targets.m56 import M56
from repro.targets.risc import Risc16
from repro.targets.tc25 import TC25
from repro.verify.progen import ProgenConfig, generate_program


def narrow_asip():
    """An ASIP whose grammar drops, re-guards and adds TC25 rules."""
    return Asip(AsipParams(immediate_bits=5, has_barrel_shifter=True,
                           has_product_shifter=False))


TARGETS = (TC25, M56, Risc16, Asip, narrow_asip)
METRICS = ("size", "speed")


# ----------------------------------------------------------------------
# Reference copy of the labeler before rule plans
# ----------------------------------------------------------------------

class RefDerivation(NamedTuple):
    cost: Cost
    rule: Rule
    bindings: Tuple[Tuple[str, Tree], ...] = ()
    clobbers: frozenset = frozenset()
    chain_source: Optional[str] = None


def _ref_match(pattern, tree, states):
    if isinstance(pattern, Nt):
        if pattern.name not in states[tree]:
            return None
        return [(pattern.name, tree)]
    if isinstance(pattern, Term):
        return [] if pattern.matches(tree) else None
    if tree.kind is not OpKind.COMPUTE or tree.operator.name != pattern.op:
        return None
    if len(pattern.children) != len(tree.children):
        return None
    bindings = []
    for sub_pattern, sub_tree in zip(pattern.children, tree.children):
        sub_bindings = _ref_match(sub_pattern, sub_tree, states)
        if sub_bindings is None:
            return None
        bindings.extend(sub_bindings)
    return bindings


def reference_label(grammar, metric, tree, states):
    if tree in states:
        return
    for child in tree.children:
        reference_label(grammar, metric, child, states)
    state = {}
    states[tree] = state
    if tree.kind is OpKind.COMPUTE:
        candidates = grammar.rules_for_op(tree.operator.name)
    else:
        candidates = grammar.leaf_rules()
    for rule in candidates:
        bindings = _ref_match(rule.pattern, tree, states)
        if bindings is None:
            continue
        if rule.guard is not None and not rule.guard(tree):
            continue
        cost = rule.cost
        clobbers = set(rule.clobbers)
        for nt_name, subtree in bindings:
            derivation = states[subtree][nt_name]
            cost = cost + derivation.cost
            clobbers |= derivation.clobbers
        existing = state.get(rule.nonterm)
        if existing is None or \
                cost.key(metric) < existing.cost.key(metric):
            state[rule.nonterm] = RefDerivation(
                cost, rule, tuple(bindings), frozenset(clobbers))
    changed = True
    while changed:
        changed = False
        for source_nt in list(state):
            source = state[source_nt]
            for rule in grammar.chain_rules_from(source_nt):
                cost = rule.cost + source.cost
                existing = state.get(rule.nonterm)
                if existing is None or \
                        cost.key(metric) < existing.cost.key(metric):
                    state[rule.nonterm] = RefDerivation(
                        cost, rule, (),
                        frozenset(set(rule.clobbers) | source.clobbers),
                        source_nt)
                    changed = True


# ----------------------------------------------------------------------
# Tree corpus
# ----------------------------------------------------------------------

def _assignments(program, fpc):
    assignments = []
    counter = [0]

    def walk(items):
        for item in items:
            if isinstance(item, Block):
                block = decompose(item.dfg, temp_counter_start=counter[0],
                                  fpc=fpc)
                counter[0] += sum(1 for a in block if a.is_temp)
                assignments.extend(block)
            elif isinstance(item, Loop):
                walk(item.body)

    walk(program.body)
    return assignments


def _programs():
    programs = [spec.program for spec in all_kernels()]
    config = ProgenConfig(sat_probability=0.0)
    for index in range(6):
        rng = random.Random(1_000_000 + index)
        programs.append(generate_program(rng, index, config))
    return programs


def _selection_trees(fpc):
    """Store-wrapped variants of every assignment, as the selector
    labels them."""
    trees = []
    for program in _programs():
        for assignment in _assignments(program, fpc):
            for variant in enumerate_variants(assignment.tree):
                trees.append(wrap_store(assignment.symbol,
                                        assignment.index, variant))
    return trees


def _summary(state, metric, rule_ids, reference):
    return [(nt,
             d.cost.key(metric) if reference else d.cost,
             rule_ids[id(d.rule)],
             d.bindings, d.clobbers, d.chain_source)
            for nt, d in state.items()]


def assert_same_states(grammar, metric, trees):
    rule_ids = {id(rule): index for index, rule in enumerate(grammar.rules)}
    matcher = BurgMatcher(grammar, metric)
    reference = {}
    for tree in trees:
        reference_label(grammar, metric, tree, reference)
        matcher.label(tree)
    states = matcher.label(trees[0])
    assert states.keys() == reference.keys()
    for subtree, expected in reference.items():
        assert _summary(states[subtree], metric, rule_ids, False) == \
            _summary(expected, metric, rule_ids, True), str(subtree)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("make_target", TARGETS,
                         ids=lambda make: make.__name__)
def test_plan_states_equal_reference(make_target, metric):
    target = make_target()
    assert_same_states(target.grammar(), metric,
                       _selection_trees(target.fpc))


def test_uncoverable_subtrees_share_one_empty_state():
    """Every subtree no rule derives gets the one shared empty state,
    which stays empty after labelling on all four targets; equal
    clobber sets are one object per plan table."""
    # No target shifts by a variable amount.
    shift = Tree.compute("shl", Tree.ref("a"), Tree.ref("b"))
    uncoverable = (shift, Tree.compute("add", shift, Tree.ref("c")))
    for make_target in (TC25, M56, Risc16, Asip):
        target = make_target()
        matcher = BurgMatcher(target.grammar(), "size")
        trees = [wrap_store("y", None, uncoverable[1])]
        trees += _selection_trees(target.fpc)
        for tree in trees:
            matcher.label(tree)
        states = matcher.label(trees[0])
        for tree in uncoverable:
            assert states[tree] is burg._NO_DERIVATIONS
        assert all(state is burg._NO_DERIVATIONS
                   for state in states.values() if not state)
        shared = {}
        for state in states.values():
            for derivation in state.values():
                assert shared.setdefault(derivation.clobbers,
                                         derivation.clobbers) \
                    is derivation.clobbers
    assert burg._NO_DERIVATIONS == {}


def _random_trees():
    leaves = st.one_of(
        st.sampled_from(["a", "b", "$t0", "$wide0"]).map(Tree.ref),
        st.sampled_from([0, 1, 2, 15, 255, 4096, -3]).map(Tree.const))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "and", "or",
                                       "xor", "shl", "shr", "min",
                                       "max"]),
                      children, children)
            .map(lambda t: Tree.compute(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["neg", "abs", "not", "sat"]),
                      children)
            .map(lambda t: Tree.compute(t[0], t[1])))
    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(_random_trees(), min_size=1, max_size=4),
       st.sampled_from(METRICS))
def test_plan_states_equal_reference_on_random_trees(trees, metric):
    for make_target in TARGETS:
        grammar = make_target().grammar()
        assert_same_states(grammar, metric,
                           [wrap_store("y", None, tree) for tree in trees])
