"""The staged search: budgeted, deterministic, oracle-gated.

The two load-bearing contracts from the issue live here: tuning the
same kernel twice yields a byte-identical measurement table with zero
fresh work on the second run (the records replay from the persistent
cache), and a semantics-breaking configuration -- injected by
monkeypatching the measurement layer so one knob produces fast but
*wrong* code -- is rejected by the selection gate no matter how fast
it claims to be.
"""

from __future__ import annotations

import json

import pytest

import repro.cache
import repro.tune.search as search_mod
from repro.cache import ArtifactCache
from repro.codegen.pipeline import RecordOptions
from repro.dspstone import kernel
from repro.tune import (
    TuneConfig, TuneError, tune_kernel, tune_program, verify_selection,
)
from repro.tune.measure import Measurement, clear_measure_pools


@pytest.fixture(autouse=True)
def _fresh_pools():
    clear_measure_pools()
    yield
    clear_measure_pools()


@pytest.fixture()
def active(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    repro.cache._ACTIVE = cache
    yield cache
    repro.cache._ACTIVE = None


CONFIG = TuneConfig(budget=8, inputs_per_program=1)


def test_budget_is_respected_and_default_measured_first():
    outcome = tune_kernel("real_update", config=CONFIG)
    assert outcome.budget_used <= CONFIG.budget
    assert outcome.budget_used == len(outcome.table)
    assert outcome.table[0].options == RecordOptions().to_dict()
    assert outcome.default is outcome.table[0]
    assert outcome.best_cycles <= outcome.default.total_cycles


def test_rerun_replays_byte_identical_table_with_zero_fresh_work(active):
    first = tune_kernel("fir", config=CONFIG)
    second = tune_kernel("fir", config=CONFIG)
    blob = lambda o: json.dumps([m.to_json() for m in o.table],  # noqa: E731
                                sort_keys=True)
    assert blob(first) == blob(second)
    assert first.fresh_measurements == first.budget_used
    assert second.fresh_measurements == 0
    assert second.cached_measurements == second.budget_used
    assert second.best_options == first.best_options
    assert second.best_cycles == first.best_cycles


def test_tuning_finds_the_known_fir_win():
    # fuse_shift_idioms is off by default (Table 1 fidelity); on the
    # TC25 it strictly reduces fir's cycle count, so the tuner must
    # surface it.
    outcome = tune_kernel("fir", config=TuneConfig(budget=16,
                                                   inputs_per_program=1))
    assert outcome.improved
    assert "fuse_shift_idioms" in outcome.movers
    assert outcome.tuned_options.fuse_shift_idioms is True


def test_selection_gate_rejects_fast_but_wrong_configuration(monkeypatch):
    """Inject a semantics-breaking knob: every ``peephole=False``
    candidate measures absurdly fast but fails the oracle comparison.
    The gate must reject it (it lands in ``outcome.rejected``) and
    select a configuration that agrees with the oracle instead."""
    real_measure = search_mod.measure_cell

    def lying_measure(cell, options):
        measurement = real_measure(cell, options)
        if options.peephole is False:
            return Measurement(
                target=measurement.target,
                options=measurement.options,
                cycles=[1] * len(measurement.cycles),
                total_cycles=len(measurement.cycles),
                words=1,
                correct=False)         # fast, small -- and wrong
        return measurement

    monkeypatch.setattr(search_mod, "measure_cell", lying_measure)
    outcome = tune_program(kernel("real_update").program,
                           config=TuneConfig(budget=16,
                                             inputs_per_program=1))
    wrong = [opts for opts in outcome.rejected
             if opts["peephole"] is False]
    assert wrong, "the fast-but-wrong candidate never hit the gate"
    assert outcome.best_options["peephole"] is True
    best = min((m for m in outcome.table if verify_selection(m)),
               key=lambda m: m.total_cycles)
    assert outcome.best_cycles == best.total_cycles


def test_gate_requires_both_ok_and_correct():
    good = Measurement(target="tc25", options={}, correct=True)
    assert verify_selection(good)
    assert not verify_selection(
        Measurement(target="tc25", options={}, correct=False))
    assert not verify_selection(
        Measurement(target="tc25", options={}, correct=True,
                    error="boom", error_type="RuntimeError"))


def test_unmeasurable_default_raises_tune_error(monkeypatch):
    def broken_measure(cell, options):
        return Measurement(target=cell.target_name,
                           options=options.to_dict(),
                           error="injected", error_type="CompileError")

    monkeypatch.setattr(search_mod, "measure_cell", broken_measure)
    with pytest.raises(TuneError):
        tune_program(kernel("real_update").program, config=CONFIG)


def test_config_validation():
    with pytest.raises(ValueError):
        TuneConfig(budget=0)
    with pytest.raises(ValueError):
        TuneConfig(inputs_per_program=0)
