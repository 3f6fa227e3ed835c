"""The persistent artifact cache: correct, keyed, bounded, unbreakable.

The contract under test (see ``repro.cache.artifacts``): a cache hit
is byte-identical to a fresh compile; any key ingredient change misses;
corruption of any stored byte, or of the database file itself, degrades
to a recompile with a logged warning, never a crash or a wrong
artifact; the store never exceeds its size bound; and activation is
strictly opt-in.  Corruption goes in through ``store_rows``, which
rewrites rows over a second connection.
"""

from __future__ import annotations

import logging
import os
import pickle
import random
import shutil
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.cache
from repro.cache import ArtifactCache, cached_compile, set_code_version
from repro.cache.artifacts import STORE_NAME, TOUCH_INTERVAL_S
from repro.codegen.pipeline import RecordCompiler, RecordOptions
from repro.targets.tc25 import TC25
from repro.verify.progen import generate_program
from tests.cache.store_rows import (
    STORE_FILES, connect, read_row, rewrite_row, root_files,
)


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture()
def active(cache):
    """Install ``cache`` process-wide for the duration of one test."""
    repro.cache._ACTIVE = cache
    yield cache
    repro.cache._ACTIVE = None


def _program(seed: int = 7):
    return generate_program(random.Random(seed), seed)


def _fresh_compile(program, target=None):
    return RecordCompiler(target or TC25())._compile_uncached(program)


# ----------------------------------------------------------------------
# Store / load round trip
# ----------------------------------------------------------------------

def test_round_trip_is_byte_identical(cache):
    program = _program()
    target = TC25()
    compiled = _fresh_compile(program, target)
    key = cache.key_for(program, "record", RecordOptions(), target.name)
    assert cache.put(key, compiled)
    loaded = cache.get(key)
    assert loaded is not None
    assert loaded.listing() == compiled.listing()
    assert loaded.memory_map.addresses == compiled.memory_map.addresses
    assert loaded.stats["artifact_cache"] == "hit"
    # the marker is a property of the *loaded* copy only:
    assert "artifact_cache" not in compiled.stats
    assert (cache.stats.hits, cache.stats.misses) == (1, 0)


def test_miss_on_empty_cache(cache):
    program = _program()
    key = cache.key_for(program, "record", RecordOptions(), "tc25")
    assert cache.get(key) is None
    assert cache.stats.misses == 1


def test_no_stray_temp_files_after_put(cache):
    program = _program()
    key = cache.key_for(program, "record", RecordOptions(), "tc25")
    cache.put(key, _fresh_compile(program))
    assert root_files(cache) <= STORE_FILES
    assert cache.entry_count() == 1


# ----------------------------------------------------------------------
# Key derivation: every ingredient moves the key
# ----------------------------------------------------------------------

def test_key_ingredients(cache):
    program = _program(1)
    base = cache.key_for(program, "record", RecordOptions(), "tc25")
    assert base == cache.key_for(program, "record", RecordOptions(),
                                 "tc25"), "keys must be deterministic"
    assert base != cache.key_for(_program(2), "record", RecordOptions(),
                                 "tc25")
    assert base != cache.key_for(program, "baseline", RecordOptions(),
                                 "tc25")
    assert base != cache.key_for(program, "record",
                                 RecordOptions(algebraic=False), "tc25")
    assert base != cache.key_for(program, "record", RecordOptions(),
                                 "m56")


def test_code_version_invalidates_keys(cache):
    program = _program(1)
    base = cache.key_for(program, "record", RecordOptions(), "tc25")
    previous = set_code_version("pretend-the-code-changed")
    try:
        assert base != cache.key_for(program, "record", RecordOptions(),
                                     "tc25")
    finally:
        set_code_version(previous)


def test_structurally_equal_programs_share_a_key(cache):
    a, b = _program(3), _program(3)
    assert a is not b
    assert cache.key_for(a, "record", RecordOptions(), "tc25") \
        == cache.key_for(b, "record", RecordOptions(), "tc25")


# ----------------------------------------------------------------------
# Corruption tolerance
# ----------------------------------------------------------------------

@pytest.mark.parametrize("garbage", [
    b"", b"not a pickle at all",
    pickle.dumps({"wrong": "type"}),
], ids=["empty", "garbage-bytes", "wrong-type"])
def test_corrupt_entry_degrades_to_miss(cache, caplog, garbage):
    program = _program()
    key = cache.key_for(program, "record", RecordOptions(), "tc25")
    cache.put(key, _fresh_compile(program))
    rewrite_row(cache, "artifact", key, blob=garbage)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert cache.get(key) is None
    assert cache.stats.corrupt_entries == 1
    assert any("corrupt" in record.message for record in caplog.records)
    assert read_row(cache, "artifact", key) is None, \
        "a corrupt entry must be dropped"


def test_truncated_entry_degrades_to_miss(cache):
    program = _program()
    key = cache.key_for(program, "record", RecordOptions(), "tc25")
    cache.put(key, _fresh_compile(program))
    blob, _atime = read_row(cache, "artifact", key)
    rewrite_row(cache, "artifact", key, blob=blob[:50])
    assert cache.get(key) is None
    assert cache.stats.corrupt_entries == 1


def _unpicklable_artifact():
    compiled = _fresh_compile(_program())
    compiled.stats["opaque"] = lambda: None
    return compiled


# One (kind, store, load, valid value, corrupt blob, unencodable value)
# row per codec: every codec shares the read and write paths.
_CODEC_CASES = {
    "artifact": ("put", "get", lambda: _fresh_compile(_program()),
                 b"\x80\x04truncated pickle", _unpicklable_artifact),
    "source": ("put_source", "get_source", lambda: "x = 1\n",
               b"\xff\xfe not utf-8 \xc3", lambda: "\ud800"),
    "record": ("put_record", "get_record", lambda: {"cycles": [1, 2]},
               b'{"cycles": [1, 2', lambda: {"opaque": object()}),
}


@pytest.fixture(params=sorted(_CODEC_CASES))
def codec(request):
    return (request.param,) + _CODEC_CASES[request.param]


def test_codec_corrupt_entry_is_dropped(cache, caplog, codec):
    kind, put, get, valid, garbage, _unencodable = codec
    key = "ab" + "1" * 62
    assert getattr(cache, put)(key, valid())
    rewrite_row(cache, kind, key, blob=garbage)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert getattr(cache, get)(key) is None
    assert cache.stats.corrupt_entries == 1
    assert any("corrupt" in record.message for record in caplog.records)
    assert read_row(cache, kind, key) is None, \
        "a corrupt entry must be dropped"


class _FullDisk:
    """A connection whose every insert fails as on a full disk."""

    def __init__(self, db) -> None:
        self._db = db

    def execute(self, sql, *args):
        if sql.lstrip().startswith("INSERT"):
            raise sqlite3.OperationalError("database or disk is full")
        return self._db.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._db, name)


def test_codec_full_disk_during_put(cache, monkeypatch, codec):
    _kind, put, get, valid, _garbage, _unencodable = codec
    creator = ArtifactCache(cache.root)     # the schema exists already
    assert creator.entry_count() == 0
    creator.close()
    real_connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect",
                        lambda *args, **kwargs: _FullDisk(
                            real_connect(*args, **kwargs)))
    key = "cd" + "2" * 62
    assert getattr(cache, put)(key, valid()) is False
    assert cache.stats.store_failures == 1
    assert root_files(cache) <= STORE_FILES
    assert getattr(cache, get)(key) is None


def test_codec_unencodable_value_is_not_stored(cache, codec):
    _kind, put, _get, _valid, _garbage, unencodable = codec
    key = "ef" + "3" * 62
    assert getattr(cache, put)(key, unencodable()) is False
    assert cache.stats.store_failures == 1
    assert cache.entry_count() == 0


def test_unreadable_database_is_replaced_by_an_empty_store(cache, caplog):
    """A store.db SQLite cannot read is logged, counted and replaced;
    the run goes on, and the next put lands."""
    cache.root.mkdir(parents=True)
    (cache.root / STORE_NAME).write_bytes(b"not a database " * 512)
    key = "ab" + "4" * 62
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert cache.get_record(key) is None
    assert cache.stats.corrupt_stores == 1
    assert cache.stats.misses == 1
    assert any("unreadable" in record.getMessage()
               for record in caplog.records)
    assert cache.put_record(key, {"cycles": [3]})
    assert cache.get_record(key) == {"cycles": [3]}
    assert cache.stats.store_failures == 0
    assert root_files(cache) <= STORE_FILES


def _durability(cache):
    """``(journal_mode, synchronous)`` of ``cache``'s own connection."""
    return cache._run(lambda db: (
        db.execute("PRAGMA journal_mode").fetchone()[0],
        db.execute("PRAGMA synchronous").fetchone()[0]))


def test_new_and_reopened_stores_commit_in_wal_with_sync_normal(cache):
    """A new store switches to WAL with sync off; every commit after
    that, in this connection or a later one, runs with NORMAL (1)."""
    assert cache.put_record("ab" + "8" * 62, {"cycles": [1]})
    assert _durability(cache) == ("wal", 1)
    cache.close()
    assert _durability(cache) == ("wal", 1)
    other = ArtifactCache(cache.root)
    assert _durability(other) == ("wal", 1)
    assert other.get_record("ab" + "8" * 62) == {"cycles": [1]}
    other.close()


def test_unwritable_root_does_not_crash(tmp_path):
    target_file = tmp_path / "not-a-directory"
    target_file.write_text("occupied")
    cache = ArtifactCache(target_file / "cache")   # mkdir will fail
    program = _program()
    key = cache.key_for(program, "record", RecordOptions(), "tc25")
    assert cache.put(key, _fresh_compile(program)) is False
    assert cache.stats.store_failures == 1
    assert cache.get(key) is None


# ----------------------------------------------------------------------
# LRU size bound
# ----------------------------------------------------------------------

def test_size_bound_evicts_oldest_first(cache):
    cache.max_bytes = 30_000          # fits ~3 artifacts of ~10 KB
    target = TC25()
    keys = []
    for seed in range(6):
        program = _program(seed)
        key = cache.key_for(program, "record", RecordOptions(),
                            target.name)
        cache.put(key, _fresh_compile(program, target))
        keys.append(key)
        # Spread atimes so "oldest" is well-defined on coarse clocks.
        rewrite_row(cache, "artifact", key, atime=seed)
    assert cache.total_bytes() <= cache.max_bytes
    assert cache.stats.evictions > 0
    assert cache.get(keys[-1]) is not None, "newest entry must survive"
    assert cache.get(keys[0]) is None, "oldest entry must be evicted"


def test_read_hits_touch_atime_and_are_counted(cache):
    """A hit refreshes the entry's LRU position (atime) and bumps the
    ``touches`` counter; misses touch nothing."""
    program = _program()
    key = cache.key_for(program, "record", RecordOptions(), "tc25")
    cache.put(key, _fresh_compile(program))
    stale = 1_000_000_000             # far in the past
    rewrite_row(cache, "artifact", key, atime=stale)

    assert cache.get(key) is not None
    assert cache.stats.touches == 1
    assert read_row(cache, "artifact", key)[1] > stale, \
        "hit must refresh the entry's eviction clock"

    assert cache.get("ff" + "0" * 62) is None
    assert cache.stats.touches == 1   # misses don't touch
    assert cache.stats.to_json()["touches"] == 1


def test_hit_within_the_touch_interval_writes_nothing(cache):
    """Like relatime: a hit rewrites atime only when the stored one is
    older than the interval, so hot reads never queue behind writers."""
    key = "ab" + "5" * 62
    assert cache.put_record(key, {"cycles": [1]})
    recent = time.time() - TOUCH_INTERVAL_S / 2
    rewrite_row(cache, "record", key, atime=recent)
    observer = connect(cache)
    try:
        before = observer.execute("PRAGMA data_version").fetchone()
        for _ in range(3):
            assert cache.get_record(key) == {"cycles": [1]}
        after = observer.execute("PRAGMA data_version").fetchone()
    finally:
        observer.close()
    assert before == after, "a hit inside the interval committed"
    assert cache.stats.touches == 0
    assert read_row(cache, "record", key)[1] == recent


def test_close_after_the_directory_is_removed(cache):
    """The tune workload removes a pass's cache directory before the
    cache that used it is closed."""
    assert cache.put_record("ab" + "6" * 62, {"cycles": [1]})
    shutil.rmtree(cache.root)
    cache.close()
    cache.close()


def test_configure_closes_the_cache_it_replaces(tmp_path):
    first = repro.cache.configure(tmp_path / "a")
    try:
        assert first.put_record("ab" + "7" * 62, {"cycles": [1]})
        assert first._db is not None
        second = repro.cache.configure(tmp_path / "b")
        assert first._db is None
        assert second._db is None, "connections open on first use"
    finally:
        repro.cache.configure(None)


def test_a_process_without_a_store_never_imports_sqlite3():
    """Table 1 has no store, so it must not pay for ``sqlite3``."""
    script = (
        "import sys\n"
        "import repro.cache\n"
        "from repro.api import compile_source\n"
        "from repro.dspstone import kernel\n"
        "compile_source(kernel('fir').source, target='tc25').run(\n"
        "    kernel('fir').inputs(seed=0))\n"
        "assert 'sqlite3' not in sys.modules, 'sqlite3 was imported'\n")
    src = Path(repro.cache.__file__).parents[2]
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


# ----------------------------------------------------------------------
# cached_compile wiring (RecordCompiler.compile consults the cache)
# ----------------------------------------------------------------------

def test_compile_hits_cache_on_second_call(active):
    program = _program()
    compiler = RecordCompiler(TC25())
    first = compiler.compile(program)
    second = compiler.compile(program)
    assert "artifact_cache" not in first.stats
    assert second.stats.get("artifact_cache") == "hit"
    assert second.listing() == first.listing()
    assert (active.stats.stores, active.stats.hits) == (1, 1)


def test_cache_off_means_no_disk_traffic(cache):
    assert repro.cache.active_cache() is None
    program = _program()
    RecordCompiler(TC25()).compile(program)
    assert not cache.root.exists()
    assert cache.entry_count() == 0


def test_uncacheable_program_compiles_through(caplog):
    """key_for=None (spec form can't express it) must not break compile;
    it is counted every time and logged once, with the exception type."""
    calls = []

    class _Compiler:
        name = "record"
        options = RecordOptions()

        class target:
            name = "tc25"

    cache = ArtifactCache(root="/nonexistent-unused")
    repro.cache._ACTIVE = cache
    try:
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            results = [cached_compile(
                _Compiler(), object(),      # not a Program: spec fails
                lambda prog: calls.append(prog) or "built")
                for _ in range(3)]
    finally:
        repro.cache._ACTIVE = None
    assert results == ["built"] * 3
    assert len(calls) == 3
    assert cache.stats.uncacheable == 3
    assert cache.stats.to_json()["uncacheable"] == 3
    [warning] = [record for record in caplog.records
                 if "uncacheable" in record.getMessage()]
    assert warning.levelno == logging.WARNING
    assert "AttributeError" in warning.getMessage()


def test_configure_installs_and_removes(tmp_path):
    installed = repro.cache.configure(tmp_path / "c", max_bytes=123)
    try:
        assert repro.cache.active_cache() is installed
        assert installed.max_bytes == 123
    finally:
        assert repro.cache.configure(None) is None
    assert repro.cache.active_cache() is None
