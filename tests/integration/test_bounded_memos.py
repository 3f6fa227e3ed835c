"""The compiler's memos are bounded, and the bound never changes code.

BURS label states live for one program's selection.  The intern table,
the algebraic-variant memo and the range memo live for one intern-table
generation: an insert past ``repro.ir.trees.INTERN_LIMIT`` drops all
three together (a *flip*).  With the limit forced down to a few dozen
trees, generations flip many times inside every compile, so trees of
two generations meet in one selection and compare by structure; every
listing, Table 1 row and verdict must stay as it is without flips.
"""

import gc
import json
import os
import random
import subprocess
import sys
import types
import weakref
from pathlib import Path

import pytest

import repro
from repro.codegen.burg import BurgMatcher
from repro.dspstone import all_kernels
from repro.evalx.table1 import compute_table1
from repro.ir import algebraic, ranges, trees
from repro.sim.decode import clear_decode_cache
from repro.verify.diff import (
    DEFAULT_TARGETS, VerifySession, check_program, compilers_for,
)
from repro.verify.progen import ProgenConfig, generate_inputs, generate_program

from tests.codegen.test_selection_pins import PIN_FILE, listing_digests

SMALL_LIMIT = 50
DEFAULT_LIMIT = trees.INTERN_LIMIT


def _flips() -> int:
    return trees.tree_cache_info()["flips"]


def _fresh(limit: int, monkeypatch) -> int:
    """Start a new generation under ``limit``; returns the flip count."""
    trees.clear_tree_caches()
    monkeypatch.setattr(trees, "INTERN_LIMIT", limit)
    return _flips()


def _case(seed: int, index: int, config: ProgenConfig):
    rng = random.Random(seed * 1_000_000 + index)
    program = generate_program(rng, index, config)
    return program, [generate_inputs(rng, program) for _ in range(2)]


def _table1_listings() -> dict:
    session = VerifySession()
    return {f"{spec.name}/{compiler}/{target}":
            session.compiler(compiler, target).compile(spec.program)
            .listing()
            for spec in all_kernels()
            for target in DEFAULT_TARGETS
            for compiler in compilers_for(target)}


def _triage(count: int) -> list:
    """Every cell outcome of ``count`` default-profile programs (with
    ``sat``, so the wide-spill paths run too)."""
    session = VerifySession()
    outcomes = []
    for index in range(count):
        program, inputs = _case(0, index, ProgenConfig())
        verdict = check_program(program, inputs, session=session)
        outcomes.append([(outcome.cell.describe(), outcome.ok,
                          outcome.mismatch_class, outcome.detail,
                          outcome.samples)
                         for outcome in verdict.outcomes])
    return outcomes


def test_table1_is_identical_across_flips(monkeypatch):
    """The DSPStone suite interns ~1.4k trees: the default limit never
    flips on it, a limit of 50 flips throughout, and neither changes a
    listing or a row."""
    def rows():
        return compute_table1(parallel=False)

    for build in (_table1_listings, rows):
        flips = _fresh(DEFAULT_LIMIT, monkeypatch)
        expected = build()
        assert _flips() == flips
        flips = _fresh(SMALL_LIMIT, monkeypatch)
        assert build() == expected
        assert _flips() > flips


def test_selection_pins_hold_across_flips(monkeypatch):
    flips = _fresh(SMALL_LIMIT, monkeypatch)
    assert listing_digests() == json.loads(PIN_FILE.read_text())
    assert _flips() > flips


def test_triage_is_identical_across_flips(monkeypatch):
    _fresh(DEFAULT_LIMIT, monkeypatch)
    expected = _triage(6)
    flips = _fresh(SMALL_LIMIT, monkeypatch)
    assert _triage(6) == expected
    assert _flips() > flips


def test_a_session_stays_within_the_limit(monkeypatch):
    """Streaming new programs through one session: the tree-keyed memos
    stay within the limit, and no BURS matcher outlives its compile."""
    limit = 2_000
    flips = _fresh(limit, monkeypatch)
    born = []
    build = BurgMatcher.__init__

    def recording_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        born.append(weakref.ref(self))

    monkeypatch.setattr(BurgMatcher, "__init__", recording_init)
    session = VerifySession()
    for index in range(12):
        program, inputs = _case(4, index, ProgenConfig(sat_probability=0.0))
        assert check_program(program, inputs, session=session).ok
        assert trees.intern_table_size() <= limit
        assert algebraic.variant_cache_info()["size"] <= limit
        assert len(ranges._RANGE_CACHE) <= limit
        assert born and all(ref() is None for ref in born), \
            "a matcher outlived its compile"
    assert _flips() > flips


def test_check_program_leaves_no_class_or_helper_cycles():
    """Compiling and simulating a new program leaves no class object, no
    function and no dict in cyclic garbage: each would hold a reference
    cycle (and whatever it captured) until the collector runs.  The jit
    once built a context-manager class per indented block, and the
    variant enumerator, decomposition, loop finalization and mode
    hoisting each defined a self-recursive closure per call.  Each
    translated module's namespace held its block functions and error
    helpers, whose globals are that namespace."""
    check_program(*_case(9, 0, ProgenConfig()))     # first-use imports
    program, inputs = _case(9, 1, ProgenConfig())
    clear_decode_cache()           # the jit translates this program anew
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        check_program(program, inputs, session=VerifySession())
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not [obj for obj in garbage if isinstance(obj, type)]
    assert not [obj.__qualname__ for obj in garbage
                if isinstance(obj, types.FunctionType)]
    assert not [sorted(obj)[:8] for obj in garbage if isinstance(obj, dict)]


_RSS_SCRIPT = """
import random, resource
from repro.verify.diff import VerifySession, check_program
from repro.verify.progen import ProgenConfig, generate_inputs, generate_program

session = VerifySession()
for index in range(600):
    rng = random.Random(1_000_000 + index)
    program = generate_program(rng, index, ProgenConfig(sat_probability=0.0))
    inputs = [generate_inputs(rng, program) for _ in range(2)]
    assert check_program(program, inputs, session=session).ok, index
    if index + 1 in (100, 600):
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.slow
def test_session_rss_is_flat_over_600_programs():
    """A long-lived session's peak RSS after 600 new campaign-profile
    programs is within 1.5x of its peak after 100."""
    src = Path(repro.__file__).parents[1]
    result = subprocess.run([sys.executable, "-c", _RSS_SCRIPT],
                            check=True, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    after_100, after_600 = (int(line) for line in result.stdout.split())
    assert after_600 <= 1.5 * after_100, (after_100, after_600)
