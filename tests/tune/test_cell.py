"""The tune cell: select once per selection key, simulate once per program.

Every candidate of one ``tune_program`` call is measured through one
``TuneCell``.  These tests pin what the cell shares (selections,
matchers, simulations), what it must not change (tables, counters,
hooks) and that nothing it held outlives the call.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

import repro.tune.search as search_mod
from repro.api import _resolve_target
from repro.codegen.pipeline import RecordCompiler, RecordOptions, \
    SelectionMemo
from repro.dspstone import kernel
from repro.evalx.farm import MeasureJob
from repro.tune import TuneConfig, tune_program
from repro.tune.measure import TuneCell, clear_measure_pools, measure_cell
from repro.tune.search import default_input_sets
from repro.verify.corpus import program_to_spec


@pytest.fixture(autouse=True)
def _fresh_pools():
    clear_measure_pools()
    yield
    clear_measure_pools()


@pytest.fixture()
def counted(monkeypatch):
    """Counts of selections and simulations while a test runs."""
    counts = {"select": 0, "simulate": 0}
    select, simulate = RecordCompiler.select, TuneCell._simulate

    def counting_select(self, program):
        counts["select"] += 1
        return select(self, program)

    def counting_simulate(self, compiled):
        counts["simulate"] += 1
        return simulate(self, compiled)
    monkeypatch.setattr(RecordCompiler, "select", counting_select)
    monkeypatch.setattr(TuneCell, "_simulate", counting_simulate)
    return counts


def _cell(name="real_update", target="tc25"):
    program = kernel(name).program
    return TuneCell(program, target, default_input_sets(program, 2))


def _measure(cell, options):
    return measure_cell(cell.program, cell.target_name, options,
                        cell.input_sets, sim=cell.sim, cell=cell)


def test_one_selection_per_key_and_one_simulation_per_program(counted):
    cell = _cell()
    default = _measure(cell, RecordOptions())
    # tc25 reads no offset strategy: same selection key, same program
    alias = _measure(cell, RecordOptions(offset_assignment="naive"))
    assert counted == {"select": 1, "simulate": 1}
    assert not alias.cached
    assert alias.options["offset_assignment"] == "naive"
    assert (alias.cycles, alias.words, alias.correct) \
        == (default.cycles, default.words, default.correct)
    _measure(cell, RecordOptions(metric="speed"))
    assert counted["select"] == 2


def test_reused_results_equal_a_cell_of_one():
    cell = _cell("fir")
    candidates = [RecordOptions(), RecordOptions(peephole=False),
                  RecordOptions(fuse_shift_idioms=True),
                  RecordOptions(offset_assignment="goa")]
    shared = [_measure(cell, options).to_json() for options in candidates]
    alone = [measure_cell(cell.program, "tc25", options,
                          cell.input_sets).to_json()
             for options in candidates]
    assert shared == alone


def test_selection_memo_hit_reports_no_selection_work():
    program = kernel("fir").program
    target = _resolve_target("tc25")
    memo = SelectionMemo()
    first = RecordCompiler(target, RecordOptions(), memo=memo) \
        .compile(program)
    hit = RecordCompiler(target, RecordOptions(peephole=False),
                         memo=memo).compile(program)
    cold = RecordCompiler(target, RecordOptions(peephole=False)) \
        .compile(program)
    assert hit.listing() == cold.listing()
    stats = hit.stats["selection"]
    assert (stats.label_hits, stats.label_misses) == (0, 0)
    assert all(hit.stats["timings"][stage] == 0.0
               for stage in ("selection", "variants", "labeling"))
    assert first.stats["selection"].label_misses > 0
    assert stats.assignments == first.stats["selection"].assignments


def test_measure_job_measures_its_group_through_one_cell(counted):
    program = kernel("real_update").program
    inputs = default_input_sets(program, 2)
    group = [RecordOptions(), RecordOptions(peephole=False),
             RecordOptions(minimize_modes=False)]
    job = MeasureJob(
        program_spec=json.dumps(program_to_spec(program), sort_keys=True),
        target="tc25",
        options_group=tuple(json.dumps(options.to_dict(), sort_keys=True)
                            for options in group),
        inputs_json=json.dumps(inputs, sort_keys=True))
    measured = job.run()
    assert counted["select"] == 1
    assert [m.to_json() for m in measured] \
        == [measure_cell(program, "tc25", options, inputs).to_json()
            for options in group]


def test_measure_cell_is_called_once_per_candidate(monkeypatch):
    calls = []
    real = search_mod.measure_cell

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)
    monkeypatch.setattr(search_mod, "measure_cell", counting)
    outcome = tune_program(kernel("fir").program, "tc25",
                           config=TuneConfig(budget=16), jobs=1)
    assert len(calls) == outcome.budget_used == len(outcome.table)


def test_one_default_worker_measures_through_the_call_cell(
        monkeypatch, counted):
    program = kernel("fir").program
    config = TuneConfig(budget=16)
    serial = tune_program(program, "m56", config=config, jobs=1)
    serial_counts = dict(counted)
    counted.update(select=0, simulate=0)
    clear_measure_pools()

    def no_farm(*args, **kwargs):
        raise AssertionError("one worker must not go to the farm")
    monkeypatch.setattr("repro.evalx.farm.run_many", no_farm)
    monkeypatch.setenv("REPRO_JOBS", "1")
    default = tune_program(program, "m56", config=config, jobs=None)
    assert counted == serial_counts
    assert json.dumps(default.to_json(), sort_keys=True) \
        == json.dumps(serial.to_json(), sort_keys=True)


def test_nothing_the_cell_held_outlives_tune_program(monkeypatch):
    held = []
    measure = TuneCell.measure

    def tracking(self, options):
        measurement = measure(self, options)
        memo = self.selections
        held.extend(weakref.ref(thing) for thing in (
            self, memo, *memo.matchers.values(),
            *memo._selections.values(), *self._runs.values()))
        return measurement
    monkeypatch.setattr(TuneCell, "measure", tracking)
    tune_program(kernel("fir").program, "m56",
                 config=TuneConfig(budget=12), jobs=1)
    gc.collect()
    assert held
    assert [ref for ref in held if ref() is not None] == []


#: complex_multiply on m56 around a base without compaction and with
#: naive offsets: both knobs move, so stage 2 crosses them.
CROSSING_BASE = RecordOptions(compaction="none",
                              offset_assignment="naive")


def test_serial_and_farm_tables_agree_through_the_cross_product():
    program = kernel("complex_multiply").program
    config = TuneConfig(budget=32)
    serial = tune_program(program, "m56", config=config,
                          default=CROSSING_BASE, jobs=1)
    clear_measure_pools()
    farmed = tune_program(program, "m56", config=config,
                          default=CROSSING_BASE, jobs=2)
    screened = len(search_mod.screening_candidates(CROSSING_BASE, "m56"))
    assert len(serial.movers) > 1
    assert len(serial.table) > 1 + screened       # stage 2 ran
    assert json.dumps(serial.to_json(), sort_keys=True) \
        == json.dumps(farmed.to_json(), sort_keys=True)
