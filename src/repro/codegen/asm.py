"""Target-neutral assembly objects.

Generated code is a :class:`CodeSeq`: a flat list of instructions,
labels, and loop markers.  Memory operands stay *symbolic* (symbol name
plus affine index) until the address-assignment stage resolves them to a
concrete addressing mode; this is what lets offset assignment
(:mod:`repro.codegen.offset`) reorder the data layout after selection,
exactly as in the paper's pipeline (Fig. 2: "compaction, address
assignment" come after instruction selection).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.ir.dfg import ArrayIndex


# ----------------------------------------------------------------------
# Operands
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Mem:
    """Symbolic memory operand: ``symbol`` plus optional affine index.

    After address assignment, ``mode`` describes how the location is
    reached: ``"direct"`` (absolute address in ``address``) or
    ``"indirect"`` (through an address register, with an optional
    post-modify step encoded by the offset-assignment stage).
    """

    symbol: str
    index: Optional[ArrayIndex] = None
    mode: str = "symbolic"            # "symbolic" | "direct" | "indirect"
    address: Optional[int] = None     # direct mode
    areg: Optional[str] = None        # indirect mode: address register
    post_modify: int = 0              # indirect mode: +1 / -1 / 0
    bank: Optional[str] = None        # memory bank ("x"/"y") when banked

    def __str__(self) -> str:
        if self.mode == "direct":
            return f"@{self.address}"
        if self.mode == "indirect":
            suffix = {1: "+", -1: "-", 0: ""}.get(self.post_modify, "?")
            return f"*{self.areg}{suffix}"
        if self.index is None:
            return self.symbol
        return f"{self.symbol}[{self.index}]"


@dataclass(frozen=True)
class Imm:
    """Immediate operand."""

    value: int

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True)
class Reg:
    """Named concrete register operand."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LabelRef:
    """Reference to a label (branch target)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AddrOf:
    """Address-of immediate: the data address of ``symbol[offset]``.

    Used by code that computes addresses at run time (the baseline
    compiler's explicit array indexing); resolved to a plain ``Imm`` by
    the address-assignment stage once the memory map exists.
    """

    symbol: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset:
            return f"&{self.symbol}+{self.offset}"
        return f"&{self.symbol}"


Operand = Union[Mem, Imm, Reg, LabelRef, AddrOf]


# ----------------------------------------------------------------------
# Instructions and pseudo-items
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AsmInstr:
    """One machine instruction.

    ``modes`` lists machine-mode requirements (e.g. ``{"pm": 1}``: the
    product shifter must be in mode 1); the mode-minimization stage
    inserts the cheapest sequence of mode-change instructions satisfying
    them.  ``parallel`` holds move operations packed into this
    instruction's parallel slots by the compaction stage.
    """

    opcode: str
    operands: Tuple[Operand, ...] = ()
    words: int = 1
    cycles: int = 1
    modes: Mapping[str, int] = field(default_factory=dict)
    parallel: Tuple["AsmInstr", ...] = ()
    comment: str = ""

    def with_operands(self, *operands: Operand) -> "AsmInstr":
        """Copy of this instruction with the operand tuple replaced."""
        return replace(self, operands=tuple(operands))

    def render(self) -> str:
        """Assembly text, including packed moves and the comment."""
        text = self.opcode
        if self.operands:
            text += " " + ", ".join(str(op) for op in self.operands)
        for move in self.parallel:
            text += f"  || {move.render()}"
        if self.comment:
            text = f"{text:<32}; {self.comment}"
        return text

    def memory_operands(self) -> Iterator[Mem]:
        """All Mem operands, including those of packed parallel moves."""
        for operand in self.operands:
            if isinstance(operand, Mem):
                yield operand
        for move in self.parallel:
            yield from move.memory_operands()


@dataclass(frozen=True)
class Label:
    name: str

    def render(self) -> str:
        """Assembly text of the label definition."""
        return f"{self.name}:"


@dataclass(frozen=True)
class LoopBegin:
    """Marker opening a counted hardware/software loop (count iterations).

    The target back end decides how to realize it (RPTK repeat, BANZ
    decrement-and-branch, DO loop, ...) during loop finalization; until
    then the markers keep the structure explicit for the optimizers.
    """

    count: int
    loop_id: int

    def render(self) -> str:
        """Marker text (loops are not yet realized at this stage)."""
        return f".loop {self.loop_id} x{self.count}"


@dataclass(frozen=True)
class LoopEnd:
    loop_id: int

    def render(self) -> str:
        """Marker text closing a loop region."""
        return f".endloop {self.loop_id}"


CodeItem = Union[AsmInstr, Label, LoopBegin, LoopEnd]


def item_identity(item: CodeItem, comments: bool = False) -> object:
    """A hashable stand-in for ``item``: an instruction becomes the
    tuple of its opcode, operands, words, cycles, sorted modes and its
    packed moves' identities, plus its comment when ``comments`` is
    true; labels and loop markers stand for themselves.

    Two items have equal identities exactly when they are equal
    (leaving comments out when ``comments`` is false).  Values compare
    by ``==``, so an identity keys dictionaries of one process only.
    """
    if not isinstance(item, AsmInstr):
        return item
    identity = (item.opcode, item.operands, item.words, item.cycles,
                tuple(sorted(item.modes.items())),
                tuple(item_identity(move, comments)
                      for move in item.parallel))
    return identity + (item.comment,) if comments else identity


# ----------------------------------------------------------------------
# Code sequences
# ----------------------------------------------------------------------

class CodeSeq:
    """A mutable list of code items with accounting helpers."""

    def __init__(self, items: Optional[Iterable[CodeItem]] = None):
        self.items: List[CodeItem] = list(items) if items else []

    def append(self, item: CodeItem) -> None:
        """Append one code item."""
        self.items.append(item)

    def extend(self, items: Iterable[CodeItem]) -> None:
        """Append several code items in order."""
        self.items.extend(items)

    def instructions(self) -> Iterator[AsmInstr]:
        """Iterate over instructions only (skipping labels/markers)."""
        for item in self.items:
            if isinstance(item, AsmInstr):
                yield item

    def words(self) -> int:
        """Static code size in instruction words."""
        return sum(instr.words for instr in self.instructions())

    def render(self) -> str:
        """Full assembly listing with loop-structured indentation."""
        lines: List[str] = []
        indent = 0
        for item in self.items:
            if isinstance(item, LoopEnd):
                indent = max(indent - 1, 0)
            prefix = "    " * indent
            if isinstance(item, Label):
                lines.append(item.render())
            else:
                lines.append(prefix + item.render())
            if isinstance(item, LoopBegin):
                indent += 1
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[CodeItem]:
        return iter(self.items)

    def copy(self) -> "CodeSeq":
        """Shallow copy (items are immutable; the list is fresh)."""
        return CodeSeq(self.items)
