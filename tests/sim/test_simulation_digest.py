"""``simulation_identity`` changes with every simulator input, and only then.

A tune cell simulates each distinct compiled program once and lets a
later candidate with the same identity reuse the result, so the
identity must cover everything a simulator tier reads.  It is a
hashable tuple (the cell's dictionary key); the test names still say
*digest*, after the SHA-256 it replaced.  Each case below changes one
input of an otherwise identical compiled program; a digest of the
rendered listing would miss the cycles, modes and bank changes, which
the last test shows.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.api import _resolve_target
from repro.codegen.asm import AsmInstr, CodeSeq, Label, Mem
from repro.codegen.compiled import MemoryMap
from repro.codegen.pipeline import RecordCompiler
from repro.dspstone import kernel
from repro.sim.harness import simulation_identity


def _compiled(name: str, target: str):
    return RecordCompiler(_resolve_target(target)).compile(
        kernel(name).program)


#: Between them these carry modes, a pmem table, packed parallel moves,
#: labels, banked and indirect operands and arrays.
PROGRAMS = {
    "fir/tc25": _compiled("fir", "tc25"),
    "fir/m56": _compiled("fir", "m56"),
    "complex_multiply/m56": _compiled("complex_multiply", "m56"),
}


def _edit_item(compiled, applies, edit):
    """``compiled`` with the first code item ``applies`` accepts edited."""
    items = list(compiled.code.items)
    for position, item in enumerate(items):
        if applies(item):
            items[position] = edit(item)
            return replace(compiled, code=CodeSeq(items))
    raise LookupError("no item to edit")


def _edit_instr(compiled, applies, edit):
    return _edit_item(
        compiled, lambda item: isinstance(item, AsmInstr) and applies(item),
        edit)


def _edit_operand(compiled, applies, edit):
    """Edit the first ``Mem`` operand ``applies`` accepts."""
    def has(instr):
        return any(isinstance(op, Mem) and applies(op)
                   for op in instr.operands)

    def rewrite(instr):
        done = False
        operands = []
        for operand in instr.operands:
            if not done and isinstance(operand, Mem) and applies(operand):
                operand, done = edit(operand), True
            operands.append(operand)
        return instr.with_operands(*operands)
    return _edit_instr(compiled, has, rewrite)


def _edit_map(compiled, **edits):
    memory_map = compiled.memory_map
    addresses, sizes = dict(memory_map.addresses), dict(memory_map.sizes)
    first = next(iter(addresses))
    if "address" in edits:
        addresses[first] += edits["address"]
    if "size" in edits:
        sizes[first] += edits["size"]
    return replace(compiled, memory_map=MemoryMap(addresses, sizes,
                                                  memory_map.total))


def _flip_array(compiled):
    symbols = dict(compiled.symbols)
    name = next(name for name, symbol in symbols.items()
                if symbol.is_array)
    symbols[name] = replace(symbols[name], size=None)
    return replace(compiled, symbols=symbols)


def _other_bank(bank):
    return "y" if bank == "x" else "x"


#: name -> (program, change) for every input a simulator reads.
INPUT_CHANGES = {
    "cycles": ("fir/tc25", lambda c: _edit_instr(
        c, lambda i: True, lambda i: replace(i, cycles=i.cycles + 1))),
    "words": ("fir/tc25", lambda c: _edit_instr(
        c, lambda i: True, lambda i: replace(i, words=i.words + 1))),
    "modes": ("fir/tc25", lambda c: _edit_instr(
        c, lambda i: i.modes,
        lambda i: replace(i, modes={k: v + 1 for k, v in i.modes.items()}))),
    "parallel": ("complex_multiply/m56", lambda c: _edit_instr(
        c, lambda i: i.parallel, lambda i: replace(i, parallel=()))),
    "operand mode": ("fir/tc25", lambda c: _edit_operand(
        c, lambda m: m.mode == "direct",
        lambda m: replace(m, mode="indirect"))),
    "operand address": ("fir/tc25", lambda c: _edit_operand(
        c, lambda m: m.address is not None,
        lambda m: replace(m, address=m.address + 1))),
    "operand areg": ("fir/m56", lambda c: _edit_operand(
        c, lambda m: m.areg is not None,
        lambda m: replace(m, areg=m.areg + "'"))),
    "operand bank": ("fir/m56", lambda c: _edit_operand(
        c, lambda m: m.bank is not None,
        lambda m: replace(m, bank=_other_bank(m.bank)))),
    "label": ("fir/m56", lambda c: _edit_item(
        c, lambda item: isinstance(item, Label),
        lambda label: Label(label.name + "_"))),
    "memory-map address": ("fir/tc25",
                           lambda c: _edit_map(c, address=1)),
    "memory-map size": ("fir/tc25", lambda c: _edit_map(c, size=1)),
    "pmem table": ("fir/tc25", lambda c: replace(
        c, pmem_tables=[replace(table, start=table.start + 1)
                        for table in c.pmem_tables])),
    "array symbols": ("fir/tc25", _flip_array),
    "target": ("fir/tc25",
               lambda c: replace(c, target=_resolve_target("asip"))),
}

#: name -> (program, change) for what no simulator reads.
NON_INPUT_CHANGES = {
    "program name": ("fir/tc25", lambda c: replace(c, name="other")),
    "compiler": ("fir/tc25", lambda c: replace(c, compiler="baseline")),
    "stats": ("fir/tc25", lambda c: replace(c, stats={})),
    "comment": ("fir/tc25", lambda c: _edit_instr(
        c, lambda i: True, lambda i: replace(i, comment="changed"))),
    "symbol role": ("fir/tc25", lambda c: replace(c, symbols={
        name: replace(symbol, role="local")
        for name, symbol in c.symbols.items()})),
}


@pytest.mark.parametrize("change", sorted(INPUT_CHANGES))
def test_digest_changes_with_each_simulator_input(change):
    program, edit = INPUT_CHANGES[change]
    compiled = PROGRAMS[program]
    assert simulation_identity(edit(compiled), "jit") \
        != simulation_identity(compiled, "jit")


def test_digest_changes_with_the_tier():
    compiled = PROGRAMS["fir/tc25"]
    assert simulation_identity(compiled, "jit") \
        != simulation_identity(compiled, "fast")


@pytest.mark.parametrize("change", sorted(NON_INPUT_CHANGES))
def test_digest_ignores_what_no_simulator_reads(change):
    program, edit = NON_INPUT_CHANGES[change]
    compiled = PROGRAMS[program]
    runs = {simulation_identity(compiled, "jit"): "run"}
    assert runs.get(simulation_identity(edit(compiled), "jit")) == "run"


def test_equal_recompiles_share_a_digest():
    runs = {simulation_identity(PROGRAMS["fir/m56"], "jit"): "run"}
    assert runs.get(simulation_identity(_compiled("fir", "m56"),
                                        "jit")) == "run"


@pytest.mark.parametrize("change", ["cycles", "modes", "operand bank"])
def test_a_listing_digest_would_miss_these_inputs(change):
    """The negative control: hashing the rendered listing cannot tell
    these changes apart, so it would pass them off as one program."""
    def listing_digest(compiled):
        return hashlib.sha256(compiled.code.render().encode()).hexdigest()
    program, edit = INPUT_CHANGES[change]
    compiled = PROGRAMS[program]
    assert listing_digest(edit(compiled)) == listing_digest(compiled)
