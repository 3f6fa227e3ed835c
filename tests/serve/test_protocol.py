"""The wire protocol: strict on the way in, stable on the way out.

``parse_request`` is the server's only line of defense against
malformed input -- everything past it assumes a validated request --
so these tests pin both the acceptance surface (every documented shape
parses) and the rejection surface (every malformation raises
``ProtocolError`` with a message naming the offending field).
"""

from __future__ import annotations

import pytest

from repro.serve.protocol import (
    ProtocolError, error_response, ok_response, parse_request,
    verify_key,
)


# ----------------------------------------------------------------------
# Acceptance
# ----------------------------------------------------------------------

def test_minimal_ops_parse_without_program():
    for op in ("ping", "stats", "shutdown"):
        request = parse_request({"id": 1, "op": op})
        assert request.op == op
        assert request.id == 1


def test_compile_by_kernel_defaults():
    request = parse_request({"id": "a", "op": "compile",
                             "kernel": "fir"})
    assert request.kernel == "fir"
    assert request.target == "tc25"
    assert request.compiler == "record"


def test_compile_by_source_and_spec():
    by_source = parse_request({"op": "compile", "source": "x = 1 + 2"})
    assert by_source.source == "x = 1 + 2"
    by_spec = parse_request({"op": "compile", "program": {"name": "p"}})
    assert by_spec.program_spec == {"name": "p"}


def test_simulate_carries_inputs_and_tier():
    request = parse_request({"op": "simulate", "kernel": "fir",
                             "inputs": {"x": [1, 2]}, "sim": "fast"})
    assert request.inputs == {"x": [1, 2]}
    assert request.sim == "fast"


def test_verify_carries_input_sets_and_targets():
    request = parse_request({"op": "verify", "program": {"name": "p"},
                             "input_sets": [{"x": 1}],
                             "targets": ["tc25", "asip"]})
    assert request.input_sets == [{"x": 1}]
    assert request.targets == ("tc25", "asip")


# ----------------------------------------------------------------------
# Rejection
# ----------------------------------------------------------------------

@pytest.mark.parametrize("payload,needle", [
    ("not a dict", "JSON object"),
    ({"op": "frobnicate"}, "unknown op"),
    ({"op": "compile"}, "exactly one of"),
    ({"op": "compile", "kernel": "fir", "source": "x=1"},
     "exactly one of"),
    ({"op": "compile", "kernel": 42}, "'kernel'"),
    ({"op": "compile", "kernel": "fir", "compiler": "gcc"},
     "unknown compiler"),
    ({"op": "compile", "kernel": "fir", "target": "z80"},
     "unknown target"),
    ({"op": "compile", "source": "x=1", "compiler": "hand"}, "hand"),
    ({"op": "simulate", "kernel": "fir", "sim": "warp"},
     "unknown sim tier"),
    ({"op": "simulate", "kernel": "fir", "inputs": [1, 2]},
     "'inputs'"),
    ({"op": "verify", "program": {}, "input_sets": "nope"},
     "'input_sets'"),
    ({"op": "verify", "program": {}, "targets": ["z80"]},
     "unknown target"),
    ({"op": "verify", "program": {}, "targets": 5}, "'targets'"),
    ({"op": "verify", "program": {}, "targets": []}, "non-empty"),
], ids=lambda value: str(value)[:40])
def test_malformed_requests_raise(payload, needle):
    with pytest.raises(ProtocolError) as excinfo:
        parse_request(payload)
    assert needle in str(excinfo.value)


# ----------------------------------------------------------------------
# Envelopes and keys
# ----------------------------------------------------------------------

def test_response_envelopes_round_trip():
    request = parse_request({"id": 7, "op": "compile", "kernel": "fir"})
    ok = ok_response(request, {"x": 1}, "cache",
                     {"dedup": 0.001234567}, key="k")
    assert ok["ok"] and ok["id"] == 7 and ok["served_by"] == "cache"
    assert ok["timings"]["dedup"] == round(0.001234567, 6)
    err = error_response(7, "boom", "ServeError", op="compile")
    assert not err["ok"] and err["error_type"] == "ServeError"


def test_verify_key_is_content_addressed():
    from repro.dspstone import kernel
    program = kernel("fir").program
    base = {"op": "verify", "program": {"ignored": True},
            "input_sets": [{"x": 1}], "targets": ["tc25", "m56"]}
    first = parse_request(dict(base))
    again = parse_request(dict(base))
    assert verify_key(first, program) == verify_key(again, program)
    other_inputs = parse_request({**base, "input_sets": [{"x": 2}]})
    assert verify_key(other_inputs, program) != verify_key(first,
                                                           program)
    other_targets = parse_request({**base, "targets": ["tc25"]})
    assert verify_key(other_targets, program) != verify_key(first,
                                                            program)
