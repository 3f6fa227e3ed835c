"""What a tune cell leaves in the artifact store.

A cell's candidates are cached by their measurement records, not by
compiled artifacts: a tune call on a fresh store writes one ``record``
row per fresh candidate and no ``artifact`` row, under the key
``measurement_key`` derives.  Winners still compile through the
artifact cache when a consumer such as ``TunedCompiler`` asks for them.
"""

from __future__ import annotations

import pytest

import repro.cache
from repro.api import _resolve_target
from repro.cache import ArtifactCache
from repro.codegen.pipeline import RecordOptions
from repro.dspstone import kernel
from repro.tune import TuneConfig, tune_program
from repro.tune.db import TuningDB
from repro.tune.measure import clear_measure_pools, measurement_key
from repro.tune.search import default_input_sets
from repro.tune.tuned import TunedCompiler
from tests.cache.store_rows import connect

CONFIG = TuneConfig(budget=16, inputs_per_program=1)


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


@pytest.fixture()
def tuned_fir(active):
    """fir tuned on tc25 against a fresh store, with its input sets."""
    program = kernel("fir").program
    inputs = default_input_sets(program, CONFIG.inputs_per_program)
    outcome = tune_program(program, "tc25", inputs, CONFIG)
    return program, inputs, outcome


def _keys_by_kind(cache):
    db = connect(cache)
    try:
        rows = db.execute("SELECT kind, key FROM entries").fetchall()
    finally:
        db.close()
    keys = {}
    for kind, key in rows:
        keys.setdefault(kind, set()).add(key)
    return keys


def test_a_tune_call_stores_records_and_no_artifacts(tuned_fir, active):
    _program, _inputs, outcome = tuned_fir
    keys = _keys_by_kind(active)
    assert "artifact" not in keys
    assert outcome.fresh_measurements == outcome.budget_used > 1
    assert len(keys["record"]) == outcome.fresh_measurements


def test_measurement_key_is_the_key_the_cell_stored(tuned_fir, active):
    program, inputs, outcome = tuned_fir
    keys = {measurement_key(program, "tc25",
                            RecordOptions.from_dict(m.options), inputs,
                            CONFIG.sim): m
            for m in outcome.table}
    assert set(keys) == _keys_by_kind(active)["record"]
    for key, measurement in keys.items():
        assert active.get_record(key) == measurement.to_json()


def test_tuned_compiler_compiles_the_winner_through_the_cache(
        tuned_fir, active, tmp_path):
    program, _inputs, outcome = tuned_fir
    assert outcome.improved
    winner = next(m for m in outcome.table
                  if m.options == outcome.best_options)
    db = TuningDB(tmp_path / "tune.json")
    db.record(program, "tc25", {"options": outcome.best_options})
    compiler = TunedCompiler(_resolve_target("tc25"), db=db)

    first = compiler.compile(program)
    assert first.words() == winner.words
    assert "artifact_cache" not in first.stats
    assert len(_keys_by_kind(active)["artifact"]) == 1
    second = compiler.compile(program)
    assert second.stats["artifact_cache"] == "hit"
    assert second.listing() == first.listing()
