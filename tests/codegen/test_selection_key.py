"""Selection reads only the options ``SELECTION_FIELDS`` declares.

A tune cell selects once per selection key and lets every candidate
with that key finish a copy of the result, which is only sound if no
other ``RecordOptions`` field reaches selection.  This test changes each
other field to each of its ``KNOBS`` values (``scalar_order`` to a
reversed layout) and holds the selected code byte-identical, on every
DSPStone kernel and the pinned progen programs, on every target.
"""

from dataclasses import asdict, fields, replace

import pytest

from repro.api import available_targets
from repro.codegen.pipeline import (
    SELECTION_FIELDS, RecordCompiler, RecordOptions, SelectionMemo,
)
from repro.dspstone import KERNEL_NAMES, kernel
from repro.tune.space import KNOBS

from tests.codegen.test_selection_pins import COUNT, pinned_program

OTHER_FIELDS = [spec.name for spec in fields(RecordOptions)
                if spec.name not in SELECTION_FIELDS]


def _deviations(program):
    """Every single-field change of the default outside the selection
    fields."""
    default = RecordOptions()
    values = dict(KNOBS)
    scalars = [name for name, symbol in program.symbols.items()
               if not symbol.is_array]
    for name in OTHER_FIELDS:
        if name == "scalar_order":
            yield replace(default, scalar_order=tuple(reversed(scalars)))
            continue
        for value in values[name]:
            if value != getattr(default, name):
                yield replace(default, **{name: value})


def _fingerprint(selection):
    return (repr(selection.code.items), asdict(selection.stats.replayed()))


def test_every_other_field_is_varied():
    assert set(OTHER_FIELDS) <= set(dict(KNOBS)) | {"scalar_order"}
    assert set(SELECTION_FIELDS) <= {spec.name
                                     for spec in fields(RecordOptions)}


PROGRAMS = [kernel(name).program for name in KERNEL_NAMES] \
    + [pinned_program(index) for index in range(COUNT)]


@pytest.mark.parametrize("target", available_targets())
def test_other_fields_leave_selection_byte_identical(target):
    from repro.api import _resolve_target
    model = _resolve_target(target)
    drifted = []
    for program in PROGRAMS:
        # Shared matchers keep labeling warm; select() itself never
        # consults the memo's selections.
        memo = SelectionMemo()
        want = _fingerprint(
            RecordCompiler(model, RecordOptions(), memo=memo)
            .select(program))
        for options in _deviations(program):
            got = _fingerprint(RecordCompiler(model, options, memo=memo)
                               .select(program))
            if got != want:
                drifted.append((program.name, options))
    assert not drifted, f"selection read a non-selection field: {drifted}"
