"""Tree grammars -- the "iburg input format".

A :class:`TreeGrammar` is a set of :class:`Rule` objects, each rewriting
a tree pattern to a nonterminal at some cost.  Patterns are built from:

- :class:`Pat` -- an operator node (matches a COMPUTE tree node with the
  same operator and matching children),
- :class:`Nt` -- a nonterminal leaf (matches any subtree that derives
  that nonterminal; cost added by the DP),
- :class:`Term` -- a terminal leaf (matches a CONST or REF tree leaf,
  optionally guarded by a predicate, e.g. "fits in 8 bits").

Instruction patterns extracted from an RT netlist by :mod:`repro.ise`
are converted into rules of this form (the "ISE output to iburg input
format conversion" box in Fig. 2); hand-written instruction-set-level
target models contribute rules directly.

Every rule carries an ``emit`` function invoked during the reduce walk::

    emit(ctx, args) -> loc

``args`` lists, in pattern preorder, the payload of every leaf: the
reduced location for an ``Nt`` leaf, a :class:`repro.codegen.asm.Mem`
for a ``Term("ref")`` leaf, and an ``int`` for a ``Term("const")`` leaf.
``ctx`` is an :class:`EmitContext`; ``loc`` is the rule author's
representation of where the value now lives (by convention: the
register-class name for register nonterminals, a ``Mem`` for memory
nonterminals, an ``int`` for immediate nonterminals).

``clobbers`` declares the volatile machine resources the emitted code
destroys; the reducer uses it to find a legal evaluation order for the
children of multi-operand patterns (accumulator machines!).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.codegen.asm import AsmInstr, CodeSeq, Mem
from repro.ir.ops import OPS, OpKind
from repro.ir.trees import WIDE_PREFIX, Tree


# ----------------------------------------------------------------------
# Costs
# ----------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class Cost:
    """Additive cost: code words and execution cycles."""

    __slots__ = ("words", "cycles")

    words: int
    cycles: int

    def __init__(self, words: int = 0, cycles: int = 0):
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "cycles", cycles)

    def __reduce__(self) -> tuple:
        # a frozen slotted instance cannot be rebuilt by setattr
        return (Cost, (self.words, self.cycles))

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.words + other.words, self.cycles + other.cycles)

    def key(self, metric: str) -> Tuple[int, int]:
        """Comparison key.  ``"size"`` minimizes words first (the paper's
        Table 1 metric); ``"speed"`` minimizes cycles first."""
        if metric == "size":
            return (self.words, self.cycles)
        if metric == "speed":
            return (self.cycles, self.words)
        raise ValueError(f"unknown metric {metric!r}")


ZERO_COST = Cost(0, 0)


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Nt:
    """Nonterminal leaf: matches any subtree deriving ``name``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Term:
    """Terminal leaf: matches a CONST (``kind="const"``) or REF
    (``kind="ref"``) tree leaf, optionally guarded by ``predicate``."""

    kind: str
    predicate: Optional[Callable[[Tree], bool]] = field(
        default=None, compare=False)
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("const", "ref"):
            raise ValueError(f"Term kind must be 'const' or 'ref', "
                             f"got {self.kind!r}")

    def matches(self, tree: Tree) -> bool:
        """Whether this terminal admits the given tree leaf."""
        if self.kind == "const" and tree.kind is not OpKind.CONST:
            return False
        if self.kind == "ref" and tree.kind is not OpKind.REF:
            return False
        return self.predicate is None or self.predicate(tree)

    def __str__(self) -> str:
        return self.description or self.kind


@dataclass(frozen=True)
class Pat:
    """Operator pattern node."""

    op: str
    children: Tuple[Union["Pat", Nt, Term], ...]

    def __post_init__(self) -> None:
        operator = OPS.get(self.op)
        if operator is None:
            raise ValueError(f"unknown operator {self.op!r} in pattern")
        expected = operator.arity
        if len(self.children) != expected:
            raise ValueError(
                f"pattern {self.op} expects {expected} children, "
                f"got {len(self.children)}")

    def __str__(self) -> str:
        args = ", ".join(str(child) for child in self.children)
        return f"{self.op}({args})"


Pattern = Union[Pat, Nt, Term]


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------

EmitFn = Callable[["EmitContext", List[object]], object]


@dataclass(frozen=True)
class Rule:
    """One grammar production ``nonterm <- pattern`` at ``cost``.

    ``guard`` is an optional whole-subtree predicate evaluated after the
    structural match; it expresses constraints spanning several leaves
    (e.g. the TC25 ``DMOV`` rule requires source and destination to be
    adjacent cells of the same array).
    """

    nonterm: str
    pattern: Pattern
    cost: Cost
    emit: EmitFn = field(compare=False, default=None)
    name: str = ""
    clobbers: FrozenSet[str] = frozenset()
    guard: Optional[Callable[[Tree], bool]] = field(compare=False,
                                                    default=None)

    @property
    def is_chain(self) -> bool:
        return isinstance(self.pattern, Nt)

    def __str__(self) -> str:
        label = self.name or "?"
        return (f"{self.nonterm} <- {self.pattern}   "
                f"[{self.cost.words}w/{self.cost.cycles}c] ({label})")


class EmitContext:
    """State threaded through the reduce walk."""

    def __init__(self, code: Optional[CodeSeq] = None,
                 scratch_prefix: str = "$s"):
        self.code = code if code is not None else CodeSeq()
        self._scratch_prefix = scratch_prefix
        self._scratch_counter = 0
        self._wide_counter = 0
        self.scratch_symbols: List[str] = []

    def emit(self, instr: AsmInstr) -> None:
        """Append one instruction to the output sequence."""
        self.code.append(instr)

    def scratch(self) -> Mem:
        """Allocate a fresh scratch memory cell (spill temporary)."""
        name = f"{self._scratch_prefix}{self._scratch_counter}"
        self._scratch_counter += 1
        self.scratch_symbols.append(name)
        return Mem(name)

    def wide_scratch(self) -> Mem:
        """Allocate a fresh double-width spill slot.

        The returned symbolic name stands for a high/low cell pair
        (``<name>.h`` / ``<name>.l``); targets that support wide spills
        provide a ``wstmt`` store rule and an ``acc <- wide-ref`` reload
        rule over these names.
        """
        name = f"{WIDE_PREFIX}{self._wide_counter}"
        self._wide_counter += 1
        return Mem(name)


class TreeGrammar:
    """An indexed rule set plus resource metadata for the reducer.

    ``nt_resources`` maps nonterminal names to the volatile machine
    resource holding their value (``None`` entries / missing keys mean
    the value is in memory or an immediate and cannot be clobbered).
    """

    def __init__(self, name: str, rules: Sequence[Rule],
                 nt_resources: Optional[Dict[str, Optional[str]]] = None):
        self.name = name
        self.rules: List[Rule] = list(rules)
        self.nt_resources: Dict[str, Optional[str]] = dict(nt_resources or {})
        self._by_op: Dict[str, List[Rule]] = {}
        self._leaf_rules: List[Rule] = []
        self._chain_by_source: Dict[str, List[Rule]] = {}
        self.nonterminals: List[str] = []
        self._index()

    def _index(self) -> None:
        # Rule plans compiled by repro.codegen.burg, per metric, on
        # first use; a changed rule set drops them.
        self.plans: Dict[str, object] = {}
        seen_nts: Dict[str, None] = {}
        for rule in self.rules:
            seen_nts.setdefault(rule.nonterm, None)
            if rule.is_chain:
                self._chain_by_source.setdefault(
                    rule.pattern.name, []).append(rule)
            elif isinstance(rule.pattern, Term):
                self._leaf_rules.append(rule)
            else:
                self._by_op.setdefault(rule.pattern.op, []).append(rule)
        self.nonterminals = list(seen_nts)

    def rules_for_op(self, op_name: str) -> List[Rule]:
        """Pattern rules whose root operator is ``op_name``."""
        return self._by_op.get(op_name, [])

    def leaf_rules(self) -> List[Rule]:
        """Rules whose pattern is a terminal leaf."""
        return self._leaf_rules

    def chain_rules_from(self, source_nt: str) -> List[Rule]:
        """Chain rules converting from nonterminal ``source_nt``."""
        return self._chain_by_source.get(source_nt, [])

    def resource_of(self, nonterm: str) -> Optional[str]:
        """Volatile machine resource holding ``nonterm`` values."""
        return self.nt_resources.get(nonterm)

    def add_rule(self, rule: Rule) -> None:
        """Extend the grammar (used when ISE merges extracted patterns)."""
        self.rules.append(rule)
        self._by_op.clear()
        self._leaf_rules = []
        self._chain_by_source.clear()
        self._index()

    def dump(self) -> str:
        """Human-readable rule listing."""
        return "\n".join(str(rule) for rule in self.rules)
