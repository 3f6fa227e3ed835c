"""Instruction selection: algebraic variants x BURS covering.

Implements RECORD's selection strategy (Sec. 4.3.3): "RECORD uses
algebraic rules for transforming the original data flow tree into
equivalent ones and calls the iburg-matcher with each tree.  The tree
requiring the smallest number of covering patterns is then selected."

Two extra mechanisms make selection total on real input:

- **store wrapping**: an assignment ``dest := tree`` is matched as the
  tree ``store(ref dest, tree)`` against the ``stmt`` goal, so stores are
  ordinary grammar rules (SACL, DMOV, parallel moves, ...);
- **cover-or-cut**: when no variant of a tree is coverable (or the
  optimal cover has no legal evaluation order on an accumulator
  machine), the selector cuts a coverable subtree out into a compiler
  temporary and retries -- the "heuristic decomposition" the paper
  describes for graphs that tree covering cannot digest directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from repro.codegen.burg import BurgMatcher, CoverError
from repro.codegen.grammar import Cost, EmitContext, TreeGrammar
from repro.ir.algebraic import DEFAULT_RULES, RewriteRule, enumerate_variants
from repro.ir.dfg import ArrayIndex
from repro.ir.fixedpoint import FixedPointContext
from repro.ir.ops import OpKind
from repro.ir.ranges import fits_word
from repro.ir.trees import Tree, TreeAssignment


class SelectionError(Exception):
    """No derivation exists for an assignment, even after cutting."""


@dataclass
class SelectionStats:
    """Aggregated statistics across all selected assignments."""

    assignments: int = 0
    variants_tried: int = 0
    variants_won: int = 0        # times a non-original variant was cheaper
    cuts: int = 0
    # cuts whose value may exceed the machine word: the spill wraps it,
    # which is only safe when the consumer port wraps anyway -- counted
    # so wide spills are observable (see ir.ranges)
    wide_spills: int = 0
    # the wide spills whose wrapped value can reach the store changed
    # (see _wrap_reaches_store); wide_spills - unsafe_spills are safe
    unsafe_spills: int = 0
    # times the coverage-only variant rescue was needed (algebraic=False)
    rescues: int = 0
    total_cost: Cost = field(default_factory=Cost)
    # BURS label-cache telemetry (deltas of the matcher's counters over
    # this selector's lifetime; the matcher may be shared).
    label_hits: int = 0
    label_misses: int = 0
    # wall-clock spent enumerating algebraic variants / labelling
    variant_seconds: float = 0.0
    label_seconds: float = 0.0

    @property
    def label_hit_rate(self) -> float:
        """Fraction of subtree labelings answered by the cache."""
        total = self.label_hits + self.label_misses
        return self.label_hits / total if total else 0.0

    def replayed(self) -> "SelectionStats":
        """These stats for a compile that reuses the selection: the same
        code counts, none of the work (label lookups and seconds)."""
        return replace(self, label_hits=0, label_misses=0,
                       variant_seconds=0.0, label_seconds=0.0)


def wrap_store(symbol: str, index: Optional[ArrayIndex],
               tree: Tree) -> Tree:
    """Build the ``store(ref dest, value)`` tree used for matching."""
    return Tree.compute("store", Tree.ref(symbol, index), tree)


class Selector:
    """Selects instructions for tree assignments into an EmitContext."""

    GOAL = "stmt"

    def __init__(self, grammar: TreeGrammar, metric: str = "size",
                 algebraic: bool = True,
                 rewrite_rules: Optional[Sequence[RewriteRule]] = None,
                 variant_limit: int = 64,
                 fpc: Optional[FixedPointContext] = None,
                 matcher: Optional[BurgMatcher] = None,
                 label_cache: bool = True):
        """``matcher`` shares an existing labeller (a
        :class:`~repro.codegen.pipeline.SelectionMemo`'s) -- it must have
        been built from the same grammar and metric; its label states
        then persist across the selectors that share it."""
        if matcher is not None:
            self.matcher = matcher
        else:
            self.matcher = BurgMatcher(grammar, metric, cache=label_cache)
        self.metric = metric
        self.algebraic = algebraic
        self.rewrite_rules = list(rewrite_rules) if rewrite_rules is not None \
            else list(DEFAULT_RULES)
        self.variant_limit = variant_limit
        self.fpc = fpc if fpc is not None else FixedPointContext(16)
        self.stats = SelectionStats()
        self._label_base = (self.matcher.label_hits,
                            self.matcher.label_misses,
                            self.matcher.label_seconds)

    # ------------------------------------------------------------------

    def select_block(self, assignments: Sequence[TreeAssignment],
                     ctx: EmitContext) -> None:
        """Select instructions for a decomposed block, in order."""
        for assignment in assignments:
            self.select_assignment(assignment, ctx)

    def select_assignment(self, assignment: TreeAssignment,
                          ctx: EmitContext) -> Cost:
        """Emit code for one assignment; returns the chosen cover cost."""
        self.stats.assignments += 1
        cost = self._select(assignment.symbol, assignment.index,
                            assignment.tree, ctx)
        self.stats.total_cost = self.stats.total_cost + cost
        self._sync_label_stats()
        return cost

    def _sync_label_stats(self) -> None:
        """Fold the matcher's cache counters (delta since this selector
        was created -- the matcher may be shared) into the stats."""
        hits0, misses0, seconds0 = self._label_base
        self.stats.label_hits = self.matcher.label_hits - hits0
        self.stats.label_misses = self.matcher.label_misses - misses0
        self.stats.label_seconds = self.matcher.label_seconds - seconds0

    # ------------------------------------------------------------------

    def _variants(self, tree: Tree) -> List[Tree]:
        if not self.algebraic:
            return [tree]
        return self._enumerate(tree)

    def _enumerate(self, tree: Tree) -> List[Tree]:
        started = perf_counter()
        variants = enumerate_variants(tree, self.rewrite_rules,
                                      self.variant_limit)
        self.stats.variant_seconds += perf_counter() - started
        return variants

    def _select(self, symbol: str, index: Optional[ArrayIndex],
                tree: Tree, ctx: EmitContext,
                goal: Optional[str] = None) -> Cost:
        goal = goal or self.GOAL
        variants = self._variants(tree)
        self.stats.variants_tried += len(variants)
        scored: List[Tuple[Tuple[int, int], int, Tree]] = []
        for position, variant in enumerate(variants):
            wrapped = wrap_store(symbol, index, variant)
            cost = self.matcher.cover_cost(wrapped, goal)
            if cost is not None:
                scored.append((cost.key(self.metric), position, variant))
        if not scored and not self.algebraic:
            # Correctness rescue: even a compiler that does not *search*
            # algebraic variants for cost must still know that e.g.
            # ``a - b`` can be built as ``a + (-b)`` when the direct
            # form has no cover.  Enumerate rewrites once, coverage-only.
            for position, variant in enumerate(self._enumerate(tree)):
                wrapped = wrap_store(symbol, index, variant)
                cost = self.matcher.cover_cost(wrapped, goal)
                if cost is not None:
                    scored.append((cost.key(self.metric), position,
                                   variant))
            if scored:
                self.stats.rescues += 1
        scored.sort()
        for _, position, variant in scored:
            wrapped = wrap_store(symbol, index, variant)
            checkpoint = len(ctx.code.items)
            try:
                self.matcher.reduce(wrapped, goal, ctx)
            except CoverError:
                # Roll back partial emission and try the next variant.
                del ctx.code.items[checkpoint:]
                continue
            if position != 0:
                self.stats.variants_won += 1
            return self.matcher.cover_cost(wrapped, goal)
        return self._cut_and_retry(symbol, index, tree, ctx, goal)

    def _cut_and_retry(self, symbol: str, index: Optional[ArrayIndex],
                       tree: Tree, ctx: EmitContext,
                       goal: str) -> Cost:
        """Cut a coverable compute subtree into a temporary and retry.

        A cut value that may exceed the machine word first tries the
        target's double-width spill path (``wstmt`` goal + wide-reload
        rule), which preserves the extended-precision semantics; only
        when the target has none -- or the wide slot cannot be consumed
        where the subtree sat -- does the cut fall back to a word-sized
        cell (counted in ``stats.wide_spills``: the value wraps there,
        which is only harmless for wrap-consuming positions; a spill
        whose wrap can reach the store is also counted in
        ``stats.unsafe_spills``).
        """
        candidate = self._find_cut(tree)
        if candidate is None:
            raise SelectionError(
                f"no derivation for '{symbol} := {tree}' in grammar "
                f"{self.matcher.grammar.name!r}, and no subtree is "
                "independently coverable")
        self.stats.cuts += 1
        wide = not fits_word(candidate, self.fpc)
        if wide and "wstmt" in self.matcher.grammar.nonterminals:
            result = self._try_wide_cut(symbol, index, tree, candidate,
                                        ctx, goal)
            if result is not None:
                return result
        if wide:
            self.stats.wide_spills += 1
            if _wrap_reaches_store(tree, candidate,
                                   word_store=goal == self.GOAL):
                self.stats.unsafe_spills += 1
        temp = ctx.scratch()
        cut_cost = self._select(temp.symbol, None, candidate, ctx)
        replaced = _replace_subtree(tree, candidate, Tree.ref(temp.symbol))
        rest_cost = self._select(symbol, index, replaced, ctx, goal)
        return cut_cost + rest_cost

    def _try_wide_cut(self, symbol: str, index: Optional[ArrayIndex],
                      tree: Tree, candidate: Tree, ctx: EmitContext,
                      goal: str) -> Optional[Cost]:
        checkpoint = len(ctx.code.items)
        slot = ctx.wide_scratch()
        try:
            cut_cost = self._select(slot.symbol, None, candidate, ctx,
                                    goal="wstmt")
            replaced = _replace_subtree(tree, candidate,
                                        Tree.ref(slot.symbol))
            rest_cost = self._select(symbol, index, replaced, ctx, goal)
        except SelectionError:
            del ctx.code.items[checkpoint:]
            return None
        return cut_cost + rest_cost

    def _probe_coverable(self, subtree: Tree) -> bool:
        """Whether a cut of ``subtree`` into a temporary could be
        selected: the raw tree is checked first (cheap, and the
        historical behaviour), then its algebraic variants -- ``_select``
        on the cut searches variants too, so a subtree whose *rewritten*
        form is coverable (e.g. ``mul(#k, x)`` on a machine whose
        multiply wants the constant on the right) is a valid cut."""
        if self.matcher.cover_cost(wrap_store("$probe", None, subtree),
                                   self.GOAL) is not None:
            return True
        for variant in self._enumerate(subtree):
            wrapped = wrap_store("$probe", None, variant)
            if self.matcher.cover_cost(wrapped, self.GOAL) is not None:
                return True
        return False

    def _find_cut(self, tree: Tree) -> Optional[Tree]:
        """Largest proper compute subtree coverable as a statement;
        falls back to cutting a constant leaf into a memory cell (for
        targets without the needed immediate instruction)."""
        candidates: List[Tuple[int, int, Tree]] = []
        constants: List[Tree] = []
        order = 0
        for subtree in tree.postorder():
            order += 1
            if subtree is tree:
                continue
            if subtree.kind is OpKind.CONST:
                constants.append(subtree)
                continue
            if subtree.kind is not OpKind.COMPUTE:
                continue
            if self._probe_coverable(subtree):
                # prefer cut points whose value provably fits the word:
                # a spill wraps, so word-sized cuts are always safe
                candidates.append((fits_word(subtree, self.fpc),
                                   subtree.size(), -order, subtree))
        if candidates:
            candidates.sort(key=lambda entry: entry[:3], reverse=True)
            return candidates[0][3]
        for constant in constants:
            wrapped = wrap_store("$probe", None, constant)
            if self.matcher.cover_cost(wrapped, self.GOAL) is not None:
                return constant
        return None


# How a node's value compares after a cut value below it is wrapped to
# the word: unchanged, congruent modulo the word, or possibly neither.
_EXACT, _CONGRUENT, _CHANGED = 0, 1, 2

#: Consumers that reduce their operands to the word anyway, as the
#: store does (decompose's wrapping consumers).
_WORD_PORTS = FixedPointContext.WORD_OPERAND_OPS | {"wrap"}
#: Consumers that keep a value congruent modulo the word (for ``shl``
#: only through the shifted operand).
_RING_OPS = frozenset({"add", "sub", "neg", "shl"})


def _after_wrap(node: Tree, cut: Tree) -> int:
    """``node``'s value once every ``cut`` below it is wrapped."""
    if node == cut:
        return _CONGRUENT
    if not node.children:
        return _EXACT
    states = [_after_wrap(child, cut) for child in node.children]
    worst = max(states)
    if worst != _CONGRUENT:
        return worst
    name = node.operator.name
    if name in _WORD_PORTS:
        return _EXACT
    if name in _RING_OPS and (name != "shl" or states[1] == _EXACT):
        return _CONGRUENT
    return _CHANGED


def _wrap_reaches_store(tree: Tree, cut: Tree, word_store: bool) -> bool:
    """Whether spilling ``cut`` through a word cell can change what the
    store of ``tree`` writes.

    Walking up from the cut, the wrapped value stays congruent to the
    true one through ``add``/``sub``/``neg``/``shl``, and is harmless
    once it meets a word port or a word store.  Any other consumer
    (``sat``, ``shr``, ``abs``, ...) on the way, or a double-word store,
    sees the wrap.
    """
    state = _after_wrap(tree, cut)
    return state == _CHANGED or (state == _CONGRUENT and not word_store)


def _replace_subtree(tree: Tree, target: Tree, replacement: Tree) -> Tree:
    """Replace every occurrence of ``target`` (structural equality)."""
    if tree == target:
        return replacement
    if not tree.children:
        return tree
    children = tuple(_replace_subtree(child, target, replacement)
                     for child in tree.children)
    if children == tree.children:
        return tree
    return Tree(tree.kind, operator=tree.operator, children=children,
                value=tree.value, symbol=tree.symbol, index=tree.index)
