"""Expression trees and DFG-to-forest decomposition.

Tree-covering code selection (Sec. 4.3.3 of the paper) operates on trees,
not on general DAGs -- "most approaches are therefore based on heuristic
decompositions of graphs into trees".  :func:`decompose` implements that
heuristic: every compute node with more than one use is cut out of the
graph, its value is assigned to a compiler temporary, and the uses become
memory references to that temporary.

Trees are immutable and hashable; the algebraic rewriter and the BURS
matcher both rely on that.

Trees are also *hash-consed*: the constructor interns every node, so
structurally equal trees are one object, ``==`` is (almost always) an
identity check, and the structural hash is computed once per node
instead of once per dictionary operation.  The BURS label cache, the
variant deduplication of :mod:`repro.ir.algebraic` and the range memo
of :mod:`repro.ir.ranges` all key on trees and inherit the O(1)
lookups.  :func:`set_tree_caching` switches the whole layer off for
before/after benchmarking (``benchmarks/bench_compile_speed.py``).

The table and those memos live for one *generation*: an insert past
:data:`INTERN_LIMIT` first drops them all (:func:`clear_tree_caches`).
Older trees stay valid and compare with newer equal ones by structure,
as with caching off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterator, List, Optional, Tuple

from repro.ir.dfg import ArrayIndex, DataFlowGraph, Node
from repro.ir.fixedpoint import FixedPointContext
from repro.ir.ops import Op, OpKind, op as lookup_op

TEMP_PREFIX = "$t"
#: Prefix of the selector's double-word spill slots: a ``$wide`` REF
#: leaf names a high/low cell pair holding an accumulator-width value.
WIDE_PREFIX = "$wide"

_CACHING = True

#: Interned trees per generation.  A Table 1 or tune process interns at
#: most ~1.7k trees and never reaches it; a campaign adds ~860 trees per
#: novel program, so it flips about once every 35 programs.
INTERN_LIMIT = 30_000
_FLIPS = 0


def set_tree_caching(enabled: bool) -> bool:
    """Enable/disable interning and hash caching; returns the previous
    setting.  Disabling also drops the intern table (existing trees stay
    valid -- equality falls back to the structural walk)."""
    global _CACHING
    previous = _CACHING
    _CACHING = bool(enabled)
    if not _CACHING:
        clear_tree_caches()
    return previous


def tree_caching_enabled() -> bool:
    """Whether the interning/memoization layer is active (consulted by
    the variant and range caches as well)."""
    return _CACHING


def clear_tree_caches() -> None:
    """Drop the intern table and the memos keyed by its trees: a new
    generation starts."""
    global _FLIPS
    _FLIPS += 1
    Tree._intern.clear()
    from repro.ir import algebraic, ranges
    algebraic.clear_variant_cache()
    ranges.clear_range_cache()


def intern_table_size() -> int:
    """Number of distinct trees currently interned (for diagnostics)."""
    return len(Tree._intern)


def tree_cache_info() -> dict:
    """``{"size", "flips"}``: trees interned now, and generations
    dropped so far (at the limit or by :func:`clear_tree_caches`)."""
    return {"size": len(Tree._intern), "flips": _FLIPS}


@dataclass(frozen=True, eq=False, init=False)
class Tree:
    """An immutable, interned expression tree.

    Exactly one of the payload groups is populated, according to ``kind``:
    ``CONST`` carries ``value``; ``REF`` carries ``symbol`` (and optionally
    ``index``); ``COMPUTE`` carries ``operator`` and ``children``.

    Construction is hash-consed: building a tree that already exists
    returns the existing object, so structural equality of interned
    trees is pointer equality.  The structural hash of an interned tree
    is computed once, when the node is created.
    """

    __slots__ = ("kind", "operator", "children", "value", "symbol",
                 "index", "_hash")

    kind: OpKind
    operator: Optional[Op]
    children: Tuple["Tree", ...]
    value: Optional[int]
    symbol: Optional[str]
    index: Optional[ArrayIndex]

    _intern: ClassVar[Dict[tuple, "Tree"]] = {}

    def __new__(cls, kind: OpKind, operator: Optional[Op] = None,
                children: Tuple["Tree", ...] = (),
                value: Optional[int] = None,
                symbol: Optional[str] = None,
                index: Optional[ArrayIndex] = None) -> "Tree":
        # All state is set here, on creation only: an intern hit returns
        # the existing node untouched (there is no __init__ to re-run).
        key = (kind, operator, children, value, symbol, index)
        if _CACHING:
            cached = cls._intern.get(key)
            if cached is not None:
                return cached
        self = object.__new__(cls)
        initialize = object.__setattr__
        initialize(self, "kind", kind)
        initialize(self, "operator", operator)
        initialize(self, "children", children)
        initialize(self, "value", value)
        initialize(self, "symbol", symbol)
        initialize(self, "index", index)
        if _CACHING:
            initialize(self, "_hash", hash(key))
            if len(cls._intern) >= INTERN_LIMIT:
                clear_tree_caches()
            cls._intern[key] = self
        else:
            initialize(self, "_hash", None)
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        # Interned trees that are equal are identical; this walk only
        # runs for trees built while caching was off (and for hash
        # collisions inside the intern table itself).
        return (self.kind is other.kind
                and self.operator == other.operator
                and self.value == other.value
                and self.symbol == other.symbol
                and self.index == other.index
                and self.children == other.children)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            # built with caching off: no stored hash, walk the structure
            return hash((self.kind, self.operator, self.children,
                         self.value, self.symbol, self.index))
        return cached

    # Pickle support (the compile farm ships compiled results across
    # processes): reconstruction goes through ``__new__``, so unpickled
    # trees re-intern in the receiving process.  Hashes are salted per
    # process (string hashing), so the stored one never travels.
    def __reduce__(self) -> tuple:
        return (Tree, (self.kind, self.operator, self.children,
                       self.value, self.symbol, self.index))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(value: int) -> "Tree":
        return Tree(OpKind.CONST, value=value)

    @staticmethod
    def ref(symbol: str, index: Optional[ArrayIndex] = None) -> "Tree":
        return Tree(OpKind.REF, symbol=symbol, index=index)

    @staticmethod
    def compute(operator_name: str, *children: "Tree") -> "Tree":
        operator = lookup_op(operator_name)
        if len(children) != operator.arity:
            raise ValueError(
                f"{operator.name} expects {operator.arity} children, "
                f"got {len(children)}")
        return Tree(OpKind.COMPUTE, operator=operator,
                    children=tuple(children))

    # -- inspection -----------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.kind is not OpKind.COMPUTE

    def size(self) -> int:
        """Number of nodes in the tree."""
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        """Longest root-to-leaf path length (leaves have depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def postorder(self) -> Iterator["Tree"]:
        """All subtrees, children before parents."""
        for child in self.children:
            yield from child.postorder()
        yield self

    def __str__(self) -> str:
        if self.kind is OpKind.CONST:
            return f"#{self.value}"
        if self.kind is OpKind.REF:
            if self.index is None:
                return str(self.symbol)
            return f"{self.symbol}[{self.index}]"
        args = ", ".join(str(child) for child in self.children)
        return f"{self.operator.name}({args})"

    # -- evaluation -----------------------------------------------------

    def evaluate(self, env, fpc: FixedPointContext,
                 induction_value: int = 0) -> int:
        """Bit-true evaluation against an environment (see DFG.evaluate)."""
        if self.kind is OpKind.CONST:
            return fpc.reduce(self.value)
        if self.kind is OpKind.REF:
            from repro.ir.dfg import _read
            return _read(env, self.symbol, self.index, induction_value)
        operands = [child.evaluate(env, fpc, induction_value)
                    for child in self.children]
        return fpc.apply(self.operator, *operands)


@dataclass(frozen=True)
class TreeAssignment:
    """``dest := tree`` produced by decomposition.

    ``is_temp`` marks writes to compiler-generated temporaries (cut points
    of the DAG-to-tree decomposition) as opposed to program variables.
    """

    symbol: str
    index: Optional[ArrayIndex]
    tree: Tree
    is_temp: bool = False

    def describe(self) -> str:
        """Human-readable ``dest := tree`` text."""
        target = self.symbol if self.index is None else \
            f"{self.symbol}[{self.index}]"
        return f"{target} := {self.tree}"


def tree_of_node(dfg: DataFlowGraph, ident: int) -> Tree:
    """Expand the full (unshared) expression tree rooted at a DFG node."""
    node = dfg.node(ident)
    if node.kind is OpKind.CONST:
        return Tree.const(node.value)
    if node.kind is OpKind.REF:
        return Tree.ref(node.symbol, node.index)
    children = tuple(tree_of_node(dfg, oid) for oid in node.operands)
    return Tree(OpKind.COMPUTE, operator=node.operator, children=children)


def decompose(dfg: DataFlowGraph,
              temp_counter_start: int = 0,
              fpc: Optional[FixedPointContext] = None
              ) -> List[TreeAssignment]:
    """Split a DFG into a forest of expression trees.

    Compute nodes used more than once become compiler temporaries (cut
    points); leaves are always duplicated since re-reading a constant or a
    memory cell is exactly what the generated code would do anyway.

    Width safety: a temporary lives in a machine word, so sharing a
    subexpression whose value may exceed the word would silently wrap
    it.  Such *wide* nodes are only cut when every consumer observes the
    wrapped value anyway (``wrap`` markers from store-to-load
    forwarding, or operand ports that wrap by the expression semantics);
    otherwise the subexpression is duplicated into each use, which is
    always semantics-preserving.

    Returns the assignments in a valid execution order: all temporaries
    are defined before use, and program outputs appear in their original
    order after the temporaries they depend on.
    """
    if fpc is None:
        fpc = FixedPointContext(16)
    uses = dfg.use_counts()
    order = dfg.reachable_from_outputs()

    def safe_to_cut(ident: int) -> bool:
        from repro.ir.ranges import fits_word
        if fits_word(tree_of_node(dfg, ident), fpc):
            return True
        wrapping_consumers = FixedPointContext.WORD_OPERAND_OPS | {"wrap"}
        for node in dfg.nodes:
            if node.kind is OpKind.COMPUTE and ident in node.operands \
                    and node.operator.name not in wrapping_consumers:
                return False
        return True      # outputs wrap on store; remaining uses wrap too

    # ``wrap`` markers are free against memory (a stored value is
    # already wrapped), so they are never worth a temporary themselves.
    shared = [
        ident for ident in order
        if dfg.node(ident).kind is OpKind.COMPUTE and uses[ident] > 1
        and dfg.node(ident).operator.name != "wrap"
        and safe_to_cut(ident)
    ]
    temp_names: Dict[int, str] = {}
    counter = temp_counter_start
    for ident in shared:
        temp_names[ident] = f"{TEMP_PREFIX}{counter}"
        counter += 1

    assignments: List[TreeAssignment] = []
    for ident in order:
        if ident in temp_names:
            assignments.append(TreeAssignment(
                symbol=temp_names[ident], index=None,
                tree=_strip_wraps(_build(dfg, ident, temp_names,
                                         as_root=True)),
                is_temp=True))
    output_trees = [
        TreeAssignment(symbol=output.symbol, index=output.index,
                       tree=_strip_wraps(_build(dfg, output.node,
                                                temp_names,
                                                as_root=False)),
                       is_temp=False)
        for output in dfg.outputs
    ]
    captures, output_trees = _capture_war_hazards(output_trees, counter)
    return captures + assignments + output_trees


def _build(dfg: DataFlowGraph, ident: int, temp_names: Dict[int, str],
           *, as_root: bool) -> Tree:
    """The tree of a DFG node, with cut nodes below the root read back
    from their temporaries."""
    node = dfg.node(ident)
    if node.kind is OpKind.CONST:
        return Tree.const(node.value)
    if node.kind is OpKind.REF:
        return Tree.ref(node.symbol, node.index)
    if not as_root and ident in temp_names:
        return Tree.ref(temp_names[ident])
    children = tuple(_build(dfg, oid, temp_names, as_root=False)
                     for oid in node.operands)
    return Tree(OpKind.COMPUTE, operator=node.operator, children=children)


def _leaf_may_alias(leaf: Tree, symbol: str,
                    index: Optional[ArrayIndex]) -> bool:
    """Conservative alias test between a REF leaf and a destination."""
    if leaf.symbol != symbol:
        return False
    if leaf.index is None or index is None:
        return leaf.index is None and index is None
    if leaf.index.coeff == index.coeff:
        return leaf.index.offset == index.offset
    return True


def _capture_war_hazards(outputs: List[TreeAssignment],
                         counter: int
                         ) -> "Tuple[List[TreeAssignment], List[TreeAssignment]]":
    """Protect reads of pre-block values from earlier in-block writes.

    A REF leaf always denotes the *pre-block* memory value (all DFG
    nodes do), but the generated code executes the output assignments
    in order and re-reads memory.  Any leaf in output k that may alias
    the destination of an output j < k would observe the overwritten
    cell; such leaves are captured into temporaries at block entry
    (temporaries execute before every output write).
    """
    captures: List[TreeAssignment] = []
    capture_names: Dict[Tree, str] = {}
    written: List[TreeAssignment] = []
    protected: List[TreeAssignment] = []
    for assignment in outputs:
        protected.append(TreeAssignment(
            symbol=assignment.symbol, index=assignment.index,
            tree=_protect(assignment.tree, written, captures,
                          capture_names, counter),
            is_temp=False))
        written.append(assignment)
    return captures, protected


def _protect(tree: Tree, written: List[TreeAssignment],
             captures: List[TreeAssignment], capture_names: Dict[Tree, str],
             counter: int) -> Tree:
    """``tree`` with every leaf that may alias a ``written`` destination
    read from its capture temporary; new captures are appended to
    ``captures`` and numbered from ``counter``."""
    if tree.kind is OpKind.REF:
        hazard = any(
            _leaf_may_alias(tree, earlier.symbol, earlier.index)
            for earlier in written)
        if not hazard:
            return tree
        if tree not in capture_names:
            name = f"{TEMP_PREFIX}{counter + len(captures)}"
            capture_names[tree] = name
            captures.append(TreeAssignment(
                symbol=name, index=None, tree=tree, is_temp=True))
        return Tree.ref(capture_names[tree])
    if not tree.children:
        return tree
    children = tuple(_protect(child, written, captures, capture_names,
                              counter)
                     for child in tree.children)
    if children == tree.children:
        return tree
    return Tree(tree.kind, operator=tree.operator, children=children,
                value=tree.value, symbol=tree.symbol, index=tree.index)


def _strip_wraps(tree: Tree) -> Tree:
    """Remove ``wrap`` markers that decomposition made redundant.

    After cutting shared nodes, every ``wrap`` child is a memory read or
    a constant -- both deliver wrapped values by construction, so the
    marker disappears and back ends never see it.
    """
    if tree.kind is not OpKind.COMPUTE:
        return tree
    children = tuple(_strip_wraps(child) for child in tree.children)
    if tree.operator.name == "wrap":
        child = children[0]
        if child.kind is OpKind.COMPUTE:
            raise ValueError(
                f"wrap marker survives over a computation: {child} "
                "(decomposition should have cut it)")
        return child
    if children == tree.children:
        return tree
    return Tree(tree.kind, operator=tree.operator, children=children,
                value=tree.value, symbol=tree.symbol, index=tree.index)
