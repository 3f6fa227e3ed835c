"""BURS tree-pattern matching by dynamic programming -- the iburg stand-in.

Implements the classic two-pass architecture of iburg / the
Aho-Ganapathi-Tjiang code generator the paper cites in Sec. 4.3.3:

1. **label** -- a bottom-up pass computes, for every subtree and every
   nonterminal, the cheapest derivation of that subtree to that
   nonterminal (rule costs are additive; chain rules are closed to a
   fixpoint per node).  As iburg compiles the grammar into
   per-operator matching code, the labeller compiles it -- lazily,
   once per grammar and metric -- into per-operator *rule plans*:
   each pattern flattened into preorder checks, each cost an integer
   pair ordered by the metric.

2. **reduce** -- a top-down pass replays the optimal derivation for a
   goal nonterminal, calling each rule's ``emit`` function.

Heterogeneous register classes are expressed through the nonterminals,
which is exactly how tree parsing handles non-homogeneous register
architectures (Balachandran et al. [5], Araujo/Malik [4]).

One issue iburg never had to face is real here: on accumulator machines
several children of one pattern may want to travel through the same
volatile resource (ACC, T, P).  The reducer picks a child evaluation
order such that no child's code clobbers a resource holding an earlier
sibling's value, using each rule's declared ``clobbers`` set; when no
such order exists the reduction fails with :class:`CoverError` and the
selector (:mod:`repro.codegen.selector`) falls back to splitting the
tree at a temporary -- the same "cover or cut" decomposition RECORD's
heuristics perform.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.codegen.asm import Mem
from repro.codegen.grammar import (
    Cost, EmitContext, Nt, Pattern, Rule, Term, TreeGrammar,
)
from repro.ir.ops import OpKind
from repro.ir.trees import Tree

_COMPUTE = OpKind.COMPUTE


class CoverError(Exception):
    """The grammar cannot derive the requested goal for a tree (or no
    legal evaluation order exists for the optimal derivation)."""


class _Derivation:
    """Cheapest derivation of one (subtree, nonterminal) pair.

    ``cost`` is the metric-ordered integer pair ``Cost.key(metric)``;
    for a pattern rule ``bindings`` holds one ``(nt_name, subtree)``
    per Nt leaf in preorder; ``clobbers`` is the union of clobbers along
    the whole derivation (children included); for a chain rule
    ``chain_source`` is the nonterminal it converts from.
    """

    __slots__ = ("cost", "rule", "bindings", "clobbers", "chain_source")

    def __init__(self, cost: Tuple[int, int], rule: Rule,
                 bindings: Tuple[Tuple[str, Tree], ...],
                 clobbers: FrozenSet[str],
                 chain_source: Optional[str]):
        self.cost = cost
        self.rule = rule
        self.bindings = bindings
        self.clobbers = clobbers
        self.chain_source = chain_source


_State = Dict[str, _Derivation]

#: The state of every subtree no rule derives, shared by all matchers
#: and never mutated.  Most labelled subtrees are uncoverable algebraic
#: variants and their ancestors.
_NO_DERIVATIONS: _State = {}

# Step tests of a compiled pattern (see _compile_pattern).
_NT, _OP, _TERM = 0, 1, 2


def _compile_pattern(pattern: Pattern, path: Tuple[int, ...],
                     steps: List[tuple]) -> None:
    """Flatten ``pattern`` into preorder ``(path, test, arg)`` steps.

    ``path`` leads from the labelled node to the pattern node through
    child indices.  An ``_OP`` step checks an inner operator node
    (``arg`` is ``(op name, arity)``) before any step descends into it;
    a ``_TERM`` step checks a leaf kind and predicate (``arg`` is
    ``(OpKind, predicate or None)``); an ``_NT`` step binds a
    nonterminal (``arg`` is its name).  The root operator of a pattern
    rule is not a step: rules are indexed by it.
    """
    if isinstance(pattern, Nt):
        steps.append((path, _NT, pattern.name))
    elif isinstance(pattern, Term):
        kind = OpKind.CONST if pattern.kind == "const" else OpKind.REF
        steps.append((path, _TERM, (kind, pattern.predicate)))
    else:
        if path:
            steps.append((path, _OP, (pattern.op, len(pattern.children))))
        for index, child in enumerate(pattern.children):
            _compile_pattern(child, path + (index,), steps)


class _RulePlan:
    """A rule compiled for labelling: its pattern as preorder steps, its
    cost as a metric-ordered integer pair."""

    __slots__ = ("rule", "nonterm", "cost", "clobbers", "guard", "steps")

    def __init__(self, rule: Rule, metric: str,
                 clobbers: FrozenSet[str]):
        self.rule = rule
        self.nonterm = rule.nonterm
        self.cost = rule.cost.key(metric)
        self.clobbers = clobbers
        self.guard = rule.guard
        steps: List[tuple] = []
        _compile_pattern(rule.pattern, (), steps)
        self.steps = tuple(steps)


class _PlanTable:
    """Rule plans of one grammar under one metric, built lazily: pattern
    rules per root operator, leaf rules per leaf kind, chain rules per
    source nonterminal -- each list in grammar rule order.

    The table also interns clobber sets: derivations union their
    children's clobbers into a handful of distinct sets, so each label
    state keeps one shared object per distinct set."""

    __slots__ = ("grammar", "metric", "by_op", "by_leaf", "by_source",
                 "clobber_sets")

    def __init__(self, grammar: TreeGrammar, metric: str):
        self.grammar = grammar
        self.metric = metric
        self.by_op: Dict[str, Tuple[_RulePlan, ...]] = {}
        self.by_leaf: Dict[OpKind, Tuple[_RulePlan, ...]] = {}
        self.by_source: Dict[str, Tuple[_RulePlan, ...]] = {}
        self.clobber_sets: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def intern(self, clobbers: FrozenSet[str]) -> FrozenSet[str]:
        """The table's one shared copy of ``clobbers``."""
        return self.clobber_sets.setdefault(clobbers, clobbers)

    def _plan(self, rule: Rule) -> _RulePlan:
        return _RulePlan(rule, self.metric,
                         self.intern(frozenset(rule.clobbers)))

    def for_op(self, op_name: str) -> Tuple[_RulePlan, ...]:
        plans = self.by_op.get(op_name)
        if plans is None:
            plans = self.by_op[op_name] = tuple(
                self._plan(rule)
                for rule in self.grammar.rules_for_op(op_name))
        return plans

    def for_leaf(self, kind: OpKind) -> Tuple[_RulePlan, ...]:
        # A terminal only admits leaves of its own kind, so the other
        # kind's rules are dropped up front (order is preserved).
        plans = self.by_leaf.get(kind)
        if plans is None:
            plans = self.by_leaf[kind] = tuple(
                plan for plan in (self._plan(rule)
                                  for rule in self.grammar.leaf_rules())
                if plan.steps[0][2][0] is kind)
        return plans

    def from_source(self, source_nt: str) -> Tuple[_RulePlan, ...]:
        plans = self.by_source.get(source_nt)
        if plans is None:
            plans = self.by_source[source_nt] = tuple(
                self._plan(rule)
                for rule in self.grammar.chain_rules_from(source_nt))
        return plans


def _plan_table(grammar: TreeGrammar, metric: str) -> _PlanTable:
    """The grammar's rule plans for ``metric`` (built once per grammar;
    :meth:`TreeGrammar.add_rule` drops them)."""
    table = grammar.plans.get(metric)
    if table is None:
        table = grammar.plans[metric] = _PlanTable(grammar, metric)
    return table


def _terminal_payloads(pattern: Pattern, tree: Tree) -> List[object]:
    """Payloads of Term leaves in preorder: Mem for refs, int for consts."""
    if isinstance(pattern, Nt):
        return []
    if isinstance(pattern, Term):
        if pattern.kind == "const":
            return [tree.value]
        return [Mem(tree.symbol, tree.index)]
    payloads: List[object] = []
    for sub_pattern, sub_tree in zip(pattern.children, tree.children):
        payloads.extend(_terminal_payloads(sub_pattern, sub_tree))
    return payloads


def _leaf_slots(pattern: Pattern) -> List[str]:
    """Kinds of leaves in preorder: 'nt' or 'term'."""
    if isinstance(pattern, Nt):
        return ["nt"]
    if isinstance(pattern, Term):
        return ["term"]
    slots: List[str] = []
    for child in pattern.children:
        slots.extend(_leaf_slots(child))
    return slots


class BurgMatcher:
    """A labeller/reducer generated from a tree grammar.

    ``metric`` selects the optimization objective: ``"size"`` (code
    words; the paper's Table 1 metric) or ``"speed"`` (cycles).  As in
    iburg, label states live with the trees being covered: the compiler
    builds a matcher per program's selection and drops it afterwards
    (states kept across programs only fill the heap the cyclic collector
    rescans); the rule plans stay with the grammar.
    """

    def __init__(self, grammar: TreeGrammar, metric: str = "size",
                 cache: bool = True):
        self.grammar = grammar
        self.metric = metric
        Cost().key(metric)   # validate metric early
        self._plans = _plan_table(grammar, metric)
        # Label cache: states depend only on the (fixed) grammar and
        # the subtree, so they are shared across label() calls -- the
        # selector labels many algebraic variants that overlap heavily
        # in subtrees.  With ``cache=False`` every label() call starts
        # cold (the before/after baseline of bench_compile_speed).
        self.cache = cache
        self._states: Dict[Tree, _State] = {}
        # Cache telemetry, surfaced through SelectionStats.
        self.label_hits = 0
        self.label_misses = 0
        self.label_seconds = 0.0

    # ------------------------------------------------------------------
    # Labelling
    # ------------------------------------------------------------------

    def label(self, tree: Tree) -> Dict[Tree, _State]:
        """Compute optimal-derivation states for every distinct subtree
        (cached across calls; the grammar is immutable per matcher)."""
        states = self._states if self.cache else {}
        started = perf_counter()
        self._label_node(tree, states)
        self.label_seconds += perf_counter() - started
        return states

    def _label_node(self, tree: Tree, states: Dict[Tree, _State]) -> None:
        if tree in states:
            self.label_hits += 1
            return
        self.label_misses += 1
        children = tree.children
        for child in children:
            self._label_node(child, states)
        state: _State = {}
        if tree.kind is _COMPUTE:
            operator = tree.operator
            # a node of the wrong arity matches no pattern of its operator
            plans = self._plans.for_op(operator.name) \
                if len(children) == operator.arity else ()
        else:
            plans = self._plans.for_leaf(tree.kind)
        for plan in plans:
            primary, secondary = plan.cost
            found = []
            for path, test, arg in plan.steps:
                node = tree
                for index in path:
                    node = node.children[index]
                if test == _NT:
                    derivation = states[node].get(arg)
                    if derivation is None:
                        break
                    primary += derivation.cost[0]
                    secondary += derivation.cost[1]
                    found.append((arg, node, derivation))
                elif test == _OP:
                    if node.kind is not _COMPUTE \
                            or node.operator.name != arg[0] \
                            or len(node.children) != arg[1]:
                        break
                else:
                    kind, predicate = arg
                    if node.kind is not kind or (
                            predicate is not None and not predicate(node)):
                        break
            else:
                if plan.guard is not None and not plan.guard(tree):
                    continue
                cost = (primary, secondary)
                existing = state.get(plan.nonterm)
                # strictly cheaper only: the earliest rule wins a tie
                if existing is None or cost < existing.cost:
                    clobbers = plan.clobbers
                    for _name, _node, derivation in found:
                        clobbers = clobbers | derivation.clobbers
                    state[plan.nonterm] = _Derivation(
                        cost, plan.rule,
                        tuple((name, node) for name, node, _ in found),
                        self._plans.intern(clobbers), None)
        if state:
            self._close_chains(state)
            states[tree] = state
        else:
            states[tree] = _NO_DERIVATIONS

    def _close_chains(self, state: _State) -> None:
        """Relax chain rules to a fixpoint (grammars are tiny: iterate)."""
        from_source = self._plans.from_source
        changed = True
        while changed:
            changed = False
            for source_nt in list(state):
                source = state[source_nt]
                for plan in from_source(source_nt):
                    cost = (plan.cost[0] + source.cost[0],
                            plan.cost[1] + source.cost[1])
                    existing = state.get(plan.nonterm)
                    if existing is None or cost < existing.cost:
                        state[plan.nonterm] = _Derivation(
                            cost, plan.rule, (),
                            self._plans.intern(
                                plan.clobbers | source.clobbers),
                            source_nt)
                        changed = True

    def _to_cost(self, key: Tuple[int, int]) -> Cost:
        """Invert ``Cost.key(self.metric)``."""
        if self.metric == "size":
            return Cost(key[0], key[1])
        return Cost(key[1], key[0])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def cover_cost(self, tree: Tree, goal: str) -> Optional[Cost]:
        """Cheapest cost of deriving ``tree`` to ``goal``, or None."""
        states = self.label(tree)
        derivation = states[tree].get(goal)
        return self._to_cost(derivation.cost) if derivation else None

    def cover_rules(self, tree: Tree, goal: str) -> List[Rule]:
        """The rules of the optimal cover in reduce order (for display,
        e.g. regenerating Fig. 5)."""
        states = self.label(tree)
        rules: List[Rule] = []

        def walk(node: Tree, nonterm: str) -> None:
            derivation = states[node].get(nonterm)
            if derivation is None:
                raise CoverError(
                    f"no derivation of {node} to {nonterm!r}")
            if derivation.chain_source is not None:
                walk(node, derivation.chain_source)
            else:
                for nt_name, subtree in derivation.bindings:
                    walk(subtree, nt_name)
            rules.append(derivation.rule)

        walk(tree, goal)
        return rules

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------

    def reduce(self, tree: Tree, goal: str, ctx: EmitContext) -> object:
        """Emit code for the optimal cover of ``tree`` to ``goal``.

        Returns the location object produced by the root rule's emit.
        Raises :class:`CoverError` when no derivation exists or when no
        legal child evaluation order exists.
        """
        states = self.label(tree)
        if goal not in states[tree]:
            raise CoverError(
                f"grammar {self.grammar.name!r} cannot derive {tree} "
                f"to goal {goal!r}")
        return self._reduce_node(tree, goal, states, ctx)

    def _reduce_node(self, tree: Tree, nonterm: str,
                     states: Dict[Tree, _State],
                     ctx: EmitContext) -> object:
        derivation = states[tree][nonterm]
        rule = derivation.rule
        if derivation.chain_source is not None:
            source_loc = self._reduce_node(tree, derivation.chain_source,
                                           states, ctx)
            return rule.emit(ctx, [source_loc])

        order = self._evaluation_order(derivation, states)
        locs: Dict[int, object] = {}
        for binding_index in order:
            nt_name, subtree = derivation.bindings[binding_index]
            locs[binding_index] = self._reduce_node(subtree, nt_name,
                                                    states, ctx)
        args = self._build_args(rule, tree, derivation, locs)
        return rule.emit(ctx, args)

    def _evaluation_order(self, derivation: _Derivation,
                          states: Dict[Tree, _State]) -> List[int]:
        """Order of Nt bindings such that no later child clobbers an
        earlier child's delivery resource."""
        bindings = derivation.bindings
        if len(bindings) <= 1:
            return list(range(len(bindings)))
        info = []
        for index, (nt_name, subtree) in enumerate(bindings):
            child = states[subtree][nt_name]
            delivers = self.grammar.resource_of(nt_name)
            info.append((index, delivers, child.clobbers))
        for order in itertools.permutations(range(len(bindings))):
            valid = True
            for i_position in range(len(order)):
                delivers = info[order[i_position]][1]
                if delivers is None:
                    continue
                for j_position in range(i_position + 1, len(order)):
                    if delivers in info[order[j_position]][2]:
                        valid = False
                        break
                if not valid:
                    break
            if valid:
                return list(order)
        raise CoverError(
            f"no legal evaluation order for rule {derivation.rule.name!r}")

    def _build_args(self, rule: Rule, tree: Tree, derivation: _Derivation,
                    locs: Dict[int, object]) -> List[object]:
        """Interleave Nt locations and Term payloads in pattern preorder."""
        payloads = _terminal_payloads(rule.pattern, tree)
        slots = _leaf_slots(rule.pattern)
        args: List[object] = []
        nt_index = 0
        term_index = 0
        for slot in slots:
            if slot == "nt":
                args.append(locs[nt_index])
                nt_index += 1
            else:
                args.append(payloads[term_index])
                term_index += 1
        return args
