"""Unit tests for the high-level API and the CLI."""

import pytest

from repro import (
    available_kernels, available_targets, compile_kernel, compile_source,
)
from repro.api import _resolve_target
from repro.dspstone import kernel
from repro.targets.asip import Asip
from repro.targets.m56 import M56
from repro.targets.risc import Risc16
from repro.targets.tc25 import TC25
from repro.tune.measure import clear_measure_pools

FRESH = {"tc25": TC25, "m56": M56, "risc16": Risc16, "asip": Asip}
TABLE1_COLUMNS = (("record", "tc25"), ("record", "m56"),
                  ("record", "risc16"), ("record", "asip"),
                  ("baseline", "tc25"))


def test_available_listings():
    assert "fir" in available_kernels()
    assert set(available_targets()) == {"tc25", "m56", "risc16", "asip"}


def test_compile_kernel_and_run():
    result = compile_kernel("real_update")
    outputs, cycles = result.run({"a": 10, "b": 20, "c": 30})
    assert outputs == {"d": 230}
    assert cycles == 5
    assert "real_update" in result.listing()
    assert result.words() == 5


def test_compile_kernel_other_compilers():
    for compiler in ("baseline", "hand"):
        result = compile_kernel("dot_product", compiler=compiler)
        outputs, _ = result.run({"a": [2, 3], "b": [10, 100]})
        assert outputs["y"] == 320


def test_compile_source_on_all_targets():
    source = """
program t;
input a, b; output y;
begin y := a * b + 1; end.
"""
    for target in available_targets():
        result = compile_source(source, target=target)
        outputs, _ = result.run({"a": 6, "b": 7})
        assert outputs["y"] == 43, target


def test_unknown_target_and_compiler():
    with pytest.raises(ValueError):
        compile_kernel("fir", target="z80")
    with pytest.raises(ValueError):
        compile_kernel("fir", compiler="gcc")


def test_run_filters_outputs_only():
    result = compile_kernel("fir")
    from repro.dspstone import kernel
    outputs, _ = result.run(kernel("fir").inputs(0))
    assert set(outputs) == {"y"}


# ----------------------------------------------------------------------
# The target pool
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FRESH))
def test_resolve_target_pools_one_model_per_name(name):
    first = _resolve_target(name)
    assert isinstance(first, FRESH[name])
    assert _resolve_target(name) is first
    assert compile_kernel("dot_product", target=name) \
        .compiled.target is first
    if name == "tc25":
        assert _resolve_target(None) is first


def test_resolve_target_passes_models_through():
    model = M56()
    assert _resolve_target(model) is model
    assert _resolve_target(model) is not _resolve_target("m56")


def test_resolve_target_rejects_unknown_names():
    with pytest.raises(ValueError) as info:
        _resolve_target("z80")
    for name in available_targets():
        assert name in str(info.value)


def test_clear_measure_pools_drops_pooled_targets():
    before = _resolve_target("asip")
    clear_measure_pools()
    after = _resolve_target("asip")
    assert after is not before
    assert _resolve_target("asip") is after


def test_pooled_listings_equal_fresh_target_listings():
    """Every Table 1 cell compiled twice from source on the pooled
    models lists exactly as a compile on a freshly built model."""
    for name in available_kernels():
        source = kernel(name).source
        for compiler, target in TABLE1_COLUMNS:
            fresh = compile_source(source, target=FRESH[target](),
                                   compiler=compiler).listing()
            for _ in range(2):
                pooled = compile_source(source, target=target,
                                        compiler=compiler)
                assert pooled.compiled.target is _resolve_target(target)
                assert pooled.listing() == fresh, (name, compiler, target)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def run_cli(args, capsys):
    from repro.__main__ import main
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_list(capsys):
    code, out = run_cli(["list"], capsys)
    assert code == 0
    assert "fir" in out and "tc25" in out


def test_cli_compile(capsys):
    code, out = run_cli(["compile", "dot_product"], capsys)
    assert code == 0
    assert "SACL" in out


def test_cli_run_reports_prediction(capsys):
    code, out = run_cli(["run", "convolution", "--compiler", "hand"],
                        capsys)
    assert code == 0
    assert "MATCHES" in out


def test_cli_table1(capsys):
    code, out = run_cli(["table1"], capsys)
    assert code == 0
    assert "RECORD wins" in out


def test_cli_cube(capsys):
    code, out = run_cli(["cube"], capsys)
    assert code == 0
    assert "DSP core" in out


def test_cli_selftest(capsys):
    code, out = run_cli(["selftest", "--programs", "4"], capsys)
    assert code == 0
    assert "faults detected" in out
