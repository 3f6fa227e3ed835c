"""Structured view of marker-delimited code.

Between selection and loop finalization, code sequences carry
``LoopBegin``/``LoopEnd`` markers.  Several stages (accumulator
promotion, idiom recognition, address assignment, mode minimization)
want to reason about loops as nested regions; this module parses the
flat item list into a tree and flattens it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Union

from repro.codegen.asm import CodeItem, CodeSeq, LoopBegin, LoopEnd


@dataclass
class Run:
    """A maximal run of non-loop items."""

    items: List[CodeItem] = field(default_factory=list)


@dataclass
class LoopNode:
    """One loop region with its (structured) body."""

    begin: LoopBegin
    end: LoopEnd
    body: List[Union["LoopNode", Run]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return self.begin.count

    @property
    def loop_id(self) -> int:
        return self.begin.loop_id

    def is_innermost(self) -> bool:
        """True when the body contains no nested loop."""
        return all(isinstance(child, Run) for child in self.body)

    def direct_items(self) -> List[CodeItem]:
        """Items directly in this loop's body (not in nested loops)."""
        items: List[CodeItem] = []
        for child in self.body:
            if isinstance(child, Run):
                items.extend(child.items)
        return items


Node = Union[Run, LoopNode]


def parse(code: CodeSeq) -> List[Node]:
    """Parse a marker-delimited code sequence into a region tree."""
    stack: List[List[Node]] = [[]]
    begins: List[LoopBegin] = []
    for item in code:
        if isinstance(item, LoopBegin):
            begins.append(item)
            stack.append([])
        elif isinstance(item, LoopEnd):
            if not begins:
                raise ValueError("LoopEnd without matching LoopBegin")
            begin = begins.pop()
            if begin.loop_id != item.loop_id:
                raise ValueError(
                    f"mismatched loop markers: begin {begin.loop_id}, "
                    f"end {item.loop_id}")
            body = stack.pop()
            stack[-1].append(LoopNode(begin=begin, end=item, body=body))
        else:
            top = stack[-1]
            if top and isinstance(top[-1], Run):
                top[-1].items.append(item)
            else:
                top.append(Run(items=[item]))
    if begins:
        raise ValueError("unclosed LoopBegin markers")
    return stack[0]


def flatten(nodes: List[Node]) -> CodeSeq:
    """Flatten a region tree back to a marker-delimited code sequence."""
    code = CodeSeq()
    _flatten_into(code, nodes)
    return code


def _flatten_into(code: CodeSeq, nodes: List[Node]) -> None:
    for node in nodes:
        if isinstance(node, Run):
            code.extend(node.items)
        else:
            code.append(node.begin)
            _flatten_into(code, node.body)
            code.append(node.end)


def iter_loops(nodes: List[Node]) -> Iterator[LoopNode]:
    """All loops, innermost-first."""
    for node in nodes:
        if isinstance(node, LoopNode):
            yield from iter_loops(node.body)
            yield node
