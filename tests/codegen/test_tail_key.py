"""The tail reads only the options in its key, ``TAIL_FIELDS``.

A tune cell runs the tail (addressing, compaction, mode minimization
and loop finalization) once per distinct post-peephole code and
``RecordOptions.tail_key()``, and hands every later candidate with the
same pair a copy of the result.  That is only sound if no field outside
the key reaches the tail.  This test takes the code ``finish`` hands
the tail under the default options, changes each field outside the key
-- the declared ``PRE_TAIL_FIELDS`` and the ``SELECTION_FIELDS`` -- to
each of its other values, and holds the tail's code and memory map
byte-identical, on every DSPStone kernel and the pinned progen
programs, on every target.
"""

from dataclasses import fields, replace

import pytest

from repro.api import _resolve_target, available_targets
from repro.codegen.pipeline import (
    PRE_TAIL_FIELDS, SELECTION_FIELDS, TAIL_FIELDS, RecordCompiler,
    RecordOptions,
)
from repro.dspstone import KERNEL_NAMES, kernel
from repro.tune.space import KNOBS

from tests.codegen.test_selection_pins import COUNT, pinned_program

OUTSIDE_KEY = SELECTION_FIELDS + PRE_TAIL_FIELDS


def _deviations():
    """Every single-field change of the default outside the tail key:
    each other tuner value, or the other value of a flag."""
    default = RecordOptions()
    values = dict(KNOBS)
    for name in OUTSIDE_KEY:
        base = getattr(default, name)
        for value in values.get(name, (not base,)):
            if value != base:
                yield replace(default, **{name: value})


def test_the_fields_are_partitioned_and_each_outside_one_varies():
    every = [spec.name for spec in fields(RecordOptions)]
    assert sorted(OUTSIDE_KEY + TAIL_FIELDS) == sorted(every)
    assert len(set(OUTSIDE_KEY)) == len(OUTSIDE_KEY)
    varied = {name for options in _deviations() for name in OUTSIDE_KEY
              if getattr(options, name) != getattr(RecordOptions(), name)}
    assert varied == set(OUTSIDE_KEY)


def _handed_to_tail(model, program):
    """The post-peephole code ``finish`` hands the tail by default."""
    handed = []
    compiler = RecordCompiler(model, RecordOptions())
    tail = compiler.tail

    def spy(program, code, timings):
        handed.append(code.copy())
        return tail(program, code, timings)
    compiler.tail = spy
    compiler.finish(program, compiler.select(program))
    return handed[0]


def _fingerprint(code, memory_map):
    return (repr(code.items), list(memory_map.addresses.items()),
            list(memory_map.sizes.items()), memory_map.total)


PROGRAMS = [kernel(name).program for name in KERNEL_NAMES] \
    + [pinned_program(index) for index in range(COUNT)]


@pytest.mark.parametrize("target", available_targets())
def test_fields_outside_the_key_leave_the_tail_byte_identical(target):
    model = _resolve_target(target)
    drifted = []
    for program in PROGRAMS:
        code = _handed_to_tail(model, program)
        want = _fingerprint(*RecordCompiler(model, RecordOptions())
                            .tail(program, code.copy(), {}))
        for options in _deviations():
            got = _fingerprint(*RecordCompiler(model, options)
                               .tail(program, code.copy(), {}))
            if got != want:
                drifted.append((program.name, options))
    assert not drifted, f"the tail read a field outside its key: {drifted}"
