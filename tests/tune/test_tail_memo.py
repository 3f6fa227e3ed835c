"""The tune cell finishes once per distinct post-peephole code.

A cell's ``SelectionMemo`` runs the tail (addressing, compaction, mode
minimization and loop finalization) once per distinct pair of the code
it receives and ``RecordOptions.tail_key()``; a repeat takes a copy of
the stored code and the stored memory map.  These tests pin that the
memo is invisible in what a candidate compiles to, and that it does
save tail runs.
"""

from __future__ import annotations

import pytest

import repro.cache
from repro.api import available_kernels, available_targets
from repro.codegen.pipeline import RecordCompiler
from repro.dspstone import kernel
from repro.targets.m56 import M56
from repro.tune import TuneConfig, tune_program
from repro.tune.measure import clear_measure_pools
from repro.tune.search import tune_kernel


@pytest.fixture(autouse=True)
def _fresh_pools():
    clear_measure_pools()
    yield
    clear_measure_pools()


def _fingerprint(compiled):
    memory_map = compiled.memory_map
    return (compiled.listing(), compiled.code.items,
            list(memory_map.addresses.items()),
            list(memory_map.sizes.items()), memory_map.total,
            compiled.pmem_tables, compiled.words())


def test_every_candidate_of_a_pass_equals_a_compile_without_a_memo(
        monkeypatch):
    """All candidates of a 40-cell pass (budget 32, seed 0), compiled
    through their cells' memos, against memo-less compiles with no
    artifact cache: same code items and listing, memory map, program-
    memory tables and words."""
    assert repro.cache.active_cache() is None
    in_cells = []
    tail_runs = []
    compile, tail = RecordCompiler.compile, RecordCompiler.tail

    def recording(self, program):
        compiled = compile(self, program)
        if self._memo is not None:
            in_cells.append((self.target, self.options, program, compiled))
        return compiled

    def counting(self, *args):
        tail_runs.append(self.options)
        return tail(self, *args)
    monkeypatch.setattr(RecordCompiler, "compile", recording)
    monkeypatch.setattr(RecordCompiler, "tail", counting)
    for name in available_kernels():
        for target in available_targets():
            tune_kernel(name, target, TuneConfig(budget=32), seed=0)
    monkeypatch.undo()
    assert len(tail_runs) < len(in_cells)
    differ = [(program.name, target.name, options)
              for target, options, program, compiled in in_cells
              if _fingerprint(compiled) != _fingerprint(
                  RecordCompiler(target, options).compile(program))]
    assert not differ, f"a tail hit changed a candidate: {differ}"


def test_one_m56_tune_call_addresses_each_distinct_tail_once(monkeypatch):
    """One ``tune_program`` call runs m56's address assignment once per
    distinct (post-peephole code, tail key), and so fewer times than it
    measures candidates."""
    keys = []
    assign = M56.assign_addresses

    def recording(self, code, program, extra_scalars, options):
        keys.append((repr(code.items), options.tail_key()))
        return assign(self, code, program, extra_scalars, options)
    monkeypatch.setattr(M56, "assign_addresses", recording)
    outcome = tune_program(kernel("fir").program, "m56",
                           config=TuneConfig(budget=32))
    assert len(set(keys)) == len(keys) < len(outcome.table)
