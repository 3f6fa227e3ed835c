"""Unit tests for the environment-level simulation harness."""

import pytest

from repro.codegen.pipeline import RecordCompiler
from repro.dfl import compile_dfl
from repro.sim.harness import (
    cycles_of, load_environment, read_environment, run_compiled,
    run_many,
)
from repro.targets.tc25 import TC25

SRC = """
program echo;
input x, v[3];
output y, w[3];
begin
  y := x;
  w[0] := v[2];
  w[1] := v[1];
  w[2] := v[0];
end.
"""


@pytest.fixture()
def compiled():
    return RecordCompiler(TC25()).compile(compile_dfl(SRC))


def test_roundtrip_scalars_and_arrays(compiled):
    outputs, state = run_compiled(compiled,
                                  {"x": 42, "v": [1, 2, 3]})
    assert outputs["y"] == 42
    assert outputs["w"] == [3, 2, 1]
    assert state.cycles > 0


def test_inputs_are_wrapped_to_word_width(compiled):
    outputs, _ = run_compiled(compiled, {"x": 0x18000, "v": [0, 0, 0]})
    assert outputs["y"] == compiled.target.fpc.wrap(0x18000)


def test_array_length_validated(compiled):
    with pytest.raises(ValueError):
        run_compiled(compiled, {"x": 0, "v": [1, 2]})


def test_scalar_for_array_rejected(compiled):
    with pytest.raises(ValueError):
        run_compiled(compiled, {"x": [1, 2], "v": [0, 0, 0]})


def test_state_persists_across_invocations(compiled):
    # run twice on the same machine state: second run sees first's
    # memory (inputs overwrite, but untouched cells persist)
    outputs, state = run_compiled(compiled, {"x": 1, "v": [9, 9, 9]})
    outputs, state = run_compiled(compiled, {"x": 2, "v": [1, 2, 3]},
                                  state=state)
    assert outputs["y"] == 2
    assert outputs["w"] == [3, 2, 1]


def test_cycles_of(compiled):
    assert cycles_of(compiled, {"x": 1, "v": [1, 2, 3]}) == \
        cycles_of(compiled, {"x": 5, "v": [4, 5, 6]})


def test_reference_tier_is_identical(compiled):
    env = {"x": 7, "v": [4, 5, 6]}
    fast_outputs, fast_state = run_compiled(compiled, env)
    ref_outputs, ref_state = run_compiled(compiled, env,
                                          sim="reference")
    assert fast_outputs == ref_outputs
    assert fast_state.cycles == ref_state.cycles
    assert cycles_of(compiled, env) == cycles_of(compiled, env,
                                                 sim="reference")


def test_run_many_matches_individual_runs(compiled):
    envs = [{"x": k, "v": [k, k + 1, k + 2]} for k in range(5)]
    batched = run_many(compiled, envs)
    assert len(batched) == len(envs)
    for env, (outputs, state) in zip(envs, batched):
        expected_outputs, expected_state = run_compiled(compiled, env)
        assert outputs == expected_outputs
        assert state.cycles == expected_state.cycles


def test_run_many_reference_mode(compiled):
    envs = [{"x": 1, "v": [1, 2, 3]}, {"x": 2, "v": [4, 5, 6]}]
    assert [outputs for outputs, _ in run_many(compiled, envs)] \
        == [outputs for outputs, _ in run_many(compiled, envs,
                                               sim="reference")]


def test_missing_table_input_rejected():
    fir = compile_dfl("""
program fir4;
const N = 4;
input x[N], h[N];
output y;
var acc;
begin
  acc := 0;
  for i in 0 .. N-1 do
    acc := acc + h[i]*x[i];
  end;
  y := acc;
end.
""")
    compiled = RecordCompiler(TC25()).compile(fir)
    assert compiled.pmem_tables
    with pytest.raises(ValueError):
        table_symbol = compiled.pmem_tables[0].symbol
        inputs = {"x": [1] * 4, "h": [1] * 4}
        del inputs[table_symbol]
        run_compiled(compiled, inputs)
