"""Data-flow graphs for straight-line code regions.

A :class:`DataFlowGraph` is the frontend's output for one straight-line
region (Fig. 2 of the paper: "flow graph generation").  Nodes are either
constants, memory references, or operator applications; identical nodes
are interned so common subexpressions are shared automatically.  The
graph records an ordered list of *outputs*: memory writes that the region
must perform.

Array accesses are represented relative to the innermost loop's induction
variable: a :class:`ArrayIndex` encodes ``coeff * i + offset``.  This is
all the DSPStone kernels need and it is exactly the shape that DSP
address-generation units (auto-increment / auto-decrement) exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Mapping, MutableMapping, Optional,
                    Set, Tuple)

from repro.ir.fixedpoint import FixedPointContext
from repro.ir.ops import Op, OpKind, op as lookup_op


@dataclass(frozen=True)
class ArrayIndex:
    """Affine array index ``coeff * i + offset`` in the enclosing loop.

    ``coeff == 0`` denotes an absolute element access (also used outside
    loops).  ``coeff == +1``/``-1`` are forward / reverse sequential walks,
    the cases address-generation units accelerate.
    """

    coeff: int = 0
    offset: int = 0

    def evaluate(self, induction_value: int) -> int:
        """Concrete element index for a given induction-variable value."""
        return self.coeff * induction_value + self.offset

    def __str__(self) -> str:
        if self.coeff == 0:
            return str(self.offset)
        head = "i" if self.coeff == 1 else ("-i" if self.coeff == -1
                                            else f"{self.coeff}*i")
        if self.offset == 0:
            return head
        sign = "+" if self.offset > 0 else "-"
        return f"{head}{sign}{abs(self.offset)}"


@dataclass(frozen=True)
class Node:
    """One DFG node.  Immutable; identity is structural (see interning)."""

    ident: int
    kind: OpKind
    operator: Optional[Op] = None
    operands: Tuple[int, ...] = ()
    value: Optional[int] = None          # CONST payload
    symbol: Optional[str] = None         # REF payload
    index: Optional[ArrayIndex] = None   # REF payload for arrays

    def describe(self) -> str:
        """Short human-readable node text (for dumps and errors)."""
        if self.kind is OpKind.CONST:
            return f"#{self.value}"
        if self.kind is OpKind.REF:
            if self.index is None:
                return f"ref {self.symbol}"
            return f"ref {self.symbol}[{self.index}]"
        names = ", ".join(f"n{i}" for i in self.operands)
        return f"{self.operator.name}({names})"


@dataclass(frozen=True)
class Output:
    """A memory write the region performs: ``symbol[index] := node``."""

    symbol: str
    index: Optional[ArrayIndex]
    node: int

    def describe(self) -> str:
        """Short human-readable output text (for dumps and errors)."""
        target = self.symbol if self.index is None else \
            f"{self.symbol}[{self.index}]"
        return f"{target} := n{self.node}"


class DataFlowGraph:
    """An interning DFG builder and container.

    Build with :meth:`const`, :meth:`ref` and :meth:`compute`; declare the
    region's memory writes with :meth:`write`.  Structurally identical
    nodes are shared, so fan-out in the node table reflects genuine common
    subexpressions.
    """

    def __init__(self) -> None:
        self._nodes: List[Node] = []
        self._intern: Dict[tuple, int] = {}
        self.outputs: List[Output] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add(self, key: tuple, make: "callable") -> int:
        existing = self._intern.get(key)
        if existing is not None:
            return existing
        ident = len(self._nodes)
        self._nodes.append(make(ident))
        self._intern[key] = ident
        return ident

    def const(self, value: int) -> int:
        """Add (or reuse) a constant leaf; returns the node id."""
        key = ("const", value)
        return self._add(key, lambda i: Node(i, OpKind.CONST, value=value))

    def ref(self, symbol: str, index: Optional[ArrayIndex] = None) -> int:
        """Add (or reuse) a memory-read leaf; returns the node id."""
        key = ("ref", symbol, index)
        return self._add(
            key,
            lambda i: Node(i, OpKind.REF, symbol=symbol, index=index))

    def compute(self, operator_name: str, *operand_ids: int) -> int:
        """Add (or reuse) an operator application; returns the node id."""
        operator = lookup_op(operator_name)
        if len(operand_ids) != operator.arity:
            raise ValueError(
                f"{operator.name} expects {operator.arity} operands, "
                f"got {len(operand_ids)}")
        for oid in operand_ids:
            if not 0 <= oid < len(self._nodes):
                raise ValueError(f"operand id {oid} does not exist")
        key = ("compute", operator.name, operand_ids)
        return self._add(
            key,
            lambda i: Node(i, OpKind.COMPUTE, operator=operator,
                           operands=tuple(operand_ids)))

    def write(self, symbol: str, node_id: int,
              index: Optional[ArrayIndex] = None) -> None:
        """Declare that the region writes ``node_id`` to memory."""
        if not 0 <= node_id < len(self._nodes):
            raise ValueError(f"node id {node_id} does not exist")
        self.outputs.append(Output(symbol, index, node_id))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def node(self, ident: int) -> Node:
        """The node with identity ``ident``."""
        return self._nodes[ident]

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def use_counts(self) -> Dict[int, int]:
        """Number of uses of each node (operand edges plus output edges)."""
        counts: Dict[int, int] = {n.ident: 0 for n in self._nodes}
        for node in self._nodes:
            for operand in node.operands:
                counts[operand] += 1
        for output in self.outputs:
            counts[output.node] += 1
        return counts

    def reachable_from_outputs(self) -> List[int]:
        """Node ids reachable from any output, in topological order."""
        seen: Set[int] = set()
        order: List[int] = []
        for output in self.outputs:
            _postorder(self._nodes, output.node, seen, order)
        return order

    def dump(self) -> str:
        """Human-readable listing (used by examples and tests)."""
        lines = [f"n{n.ident}: {n.describe()}" for n in self._nodes]
        lines += [output.describe() for output in self.outputs]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Reference evaluation
    # ------------------------------------------------------------------

    def evaluate(self, env: MutableMapping[str, object],
                 fpc: FixedPointContext,
                 induction_value: int = 0) -> None:
        """Execute the region bit-true, mutating ``env`` in place.

        ``env`` maps scalar symbols to ints and array symbols to lists of
        ints.  All outputs read their operands *before* any write happens
        (the region has dataflow semantics, not sequential semantics).
        """
        values: Dict[int, int] = {}
        for ident in self.reachable_from_outputs():
            node = self._nodes[ident]
            if node.kind is OpKind.CONST:
                values[ident] = fpc.reduce(node.value)
            elif node.kind is OpKind.REF:
                values[ident] = _read(env, node.symbol, node.index,
                                      induction_value)
            else:
                operands = [values[oid] for oid in node.operands]
                values[ident] = fpc.apply(node.operator, *operands)
        # Expression values are exact; storing reduces to the word width
        # (wrap by default; an explicit sat() already clamped the value).
        pending = [(output, fpc.reduce(values[output.node]))
                   for output in self.outputs]
        for output, value in pending:
            _write(env, output.symbol, output.index, induction_value, value)


def _postorder(nodes: List[Node], ident: int, seen: Set[int],
               order: List[int]) -> None:
    """Append ``ident``'s unseen operands, then ``ident``, to ``order``."""
    if ident in seen:
        return
    seen.add(ident)
    for operand in nodes[ident].operands:
        _postorder(nodes, operand, seen, order)
    order.append(ident)


def _read(env: Mapping[str, object], symbol: str,
          index: Optional[ArrayIndex], induction_value: int) -> int:
    if symbol not in env:
        raise KeyError(f"symbol {symbol!r} is not bound")
    stored = env[symbol]
    if index is None:
        if isinstance(stored, list):
            raise TypeError(f"{symbol!r} is an array; index required")
        return int(stored)
    if not isinstance(stored, list):
        raise TypeError(f"{symbol!r} is a scalar; cannot index")
    return int(stored[index.evaluate(induction_value)])


def _write(env: MutableMapping[str, object], symbol: str,
           index: Optional[ArrayIndex], induction_value: int,
           value: int) -> None:
    if index is None:
        env[symbol] = value
        return
    stored = env.setdefault(symbol, [])
    if not isinstance(stored, list):
        raise TypeError(f"{symbol!r} is a scalar; cannot index")
    stored[index.evaluate(induction_value)] = value
