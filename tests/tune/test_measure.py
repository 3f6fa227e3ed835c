"""Measurement cells: honest, oracle-checked, content-addressed."""

from __future__ import annotations

import json
import logging

import pytest

import repro.cache
from repro.cache import ArtifactCache
from repro.codegen.pipeline import RecordOptions
from repro.dspstone import kernel
from repro.tune.measure import (
    TuneCell, clear_measure_pools, measure_cell, measurement_key,
)
from repro.tune.search import default_input_sets


@pytest.fixture(autouse=True)
def _fresh_pools():
    clear_measure_pools()
    yield
    clear_measure_pools()


@pytest.fixture()
def active(tmp_path):
    """A tmp artifact cache installed process-wide for one test."""
    cache = ArtifactCache(tmp_path / "cache")
    repro.cache._ACTIVE = cache
    yield cache
    repro.cache._ACTIVE = None


def _ingredients():
    program = kernel("real_update").program
    inputs = default_input_sets(program, count=2, seed=0)
    return program, "tc25", RecordOptions(), inputs


def _cell(target="tc25"):
    program, _target, _options, inputs = _ingredients()
    return TuneCell(program, target, inputs)


def test_measure_counts_real_cycles_and_agrees_with_oracle():
    measurement = measure_cell(_cell(), RecordOptions())
    assert measurement.ok
    assert measurement.correct
    assert len(measurement.cycles) == 2
    assert all(c > 0 for c in measurement.cycles)
    assert measurement.total_cycles == sum(measurement.cycles)
    assert measurement.words > 0
    assert not measurement.cached


def test_compile_error_is_a_measurement_not_a_crash(m56):
    bad = RecordOptions(compaction="no-such-strategy")
    measurement = measure_cell(_cell("m56"), bad)
    assert not measurement.ok
    assert measurement.error_type == "CompileError"
    assert not measurement.correct
    assert measurement.total_cycles == 0


def test_uncacheable_cell_is_measured_and_counted(active, caplog):
    """A cell whose key cannot be derived (here: an input value JSON
    cannot express) is measured uncached and counted, not dropped."""
    program, target, options, _inputs = _ingredients()
    inputs = [{name: object() for name, symbol in program.symbols.items()
               if symbol.role == "input"}]
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        first = measure_cell(TuneCell(program, target, inputs), options)
        second = measure_cell(TuneCell(program, target, inputs), options)
    assert not first.cached and not second.cached
    assert active.stats.uncacheable == 2
    assert active.stats.to_json()["uncacheable"] == 2
    assert len([record for record in caplog.records
                if "uncacheable" in record.getMessage()]) == 1


def test_record_replay_is_byte_identical(active):
    first = measure_cell(_cell(), RecordOptions())
    second = measure_cell(_cell(), RecordOptions())
    assert not first.cached
    assert second.cached
    assert json.dumps(first.to_json(), sort_keys=True) \
        == json.dumps(second.to_json(), sort_keys=True)


def test_key_depends_on_every_ingredient():
    program, target, options, inputs = _ingredients()
    base = measurement_key(program, target, options, inputs)
    assert base is not None
    assert measurement_key(program, "m56", options, inputs) != base
    assert measurement_key(program, target,
                           RecordOptions(metric="speed"),
                           inputs) != base
    assert measurement_key(program, target, options,
                           inputs[:1]) != base
    assert measurement_key(program, target, options, inputs,
                           sim="fast") != base
    other = kernel("complex_multiply").program
    assert measurement_key(other, target, options, inputs) != base


def test_key_is_stable_across_calls():
    program, target, options, inputs = _ingredients()
    assert measurement_key(program, target, options, inputs) \
        == measurement_key(program, target, options, inputs)
