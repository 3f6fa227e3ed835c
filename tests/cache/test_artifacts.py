"""The persistent artifact cache: correct, keyed, bounded, unbreakable.

The contract under test (see ``repro.cache.artifacts``): a cache hit
is byte-identical to a fresh compile; any key ingredient change misses;
corruption of any stored byte degrades to a recompile with a logged
warning, never a crash or a wrong artifact; the store never exceeds its
size bound; and activation is strictly opt-in.
"""

from __future__ import annotations

import logging
import pickle
import random

import pytest

import repro.cache
from repro.cache import ArtifactCache, cached_compile, set_code_version
from repro.codegen.pipeline import RecordCompiler, RecordOptions
from repro.targets.tc25 import TC25
from repro.verify.progen import generate_program


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
    assert not list(cache.root.rglob("*.tmp"))
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
    path = cache._path("artifact", key)
    path.write_bytes(garbage)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert cache.get(key) is None
    assert cache.stats.corrupt_entries == 1
    assert any("corrupt" in record.message for record in caplog.records)
    assert not path.exists(), "a corrupt entry must be dropped"


def test_truncated_entry_degrades_to_miss(cache):
    program = _program()
    key = cache.key_for(program, "record", RecordOptions(), "tc25")
    cache.put(key, _fresh_compile(program))
    path = cache._path("artifact", key)
    path.write_bytes(path.read_bytes()[:50])
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
    path = cache._path(kind, key)
    path.write_bytes(garbage)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert getattr(cache, get)(key) is None
    assert cache.stats.corrupt_entries == 1
    assert any("corrupt" in record.message for record in caplog.records)
    assert not path.exists(), "a corrupt entry must be dropped"


def test_codec_full_disk_during_put(cache, monkeypatch, codec):
    import errno
    import os
    _kind, put, get, valid, _garbage, _unencodable = codec

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", disk_full)
    key = "cd" + "2" * 62
    assert getattr(cache, put)(key, valid()) is False
    assert cache.stats.store_failures == 1
    assert not list(cache.root.rglob("*.tmp"))
    assert getattr(cache, get)(key) is None


def test_codec_unencodable_value_is_not_stored(cache, codec):
    _kind, put, _get, _valid, _garbage, unencodable = codec
    key = "ef" + "3" * 62
    assert getattr(cache, put)(key, unencodable()) is False
    assert cache.stats.store_failures == 1
    assert cache.entry_count() == 0


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
    import os
    cache.max_bytes = 30_000          # fits ~3 artifacts of ~10 KB
    target = TC25()
    keys = []
    for seed in range(6):
        program = _program(seed)
        key = cache.key_for(program, "record", RecordOptions(),
                            target.name)
        cache.put(key, _fresh_compile(program, target))
        keys.append(key)
        # Spread mtimes so "oldest" is well-defined on coarse clocks.
        os.utime(cache._path("artifact", key), (seed, seed))
    assert cache.total_bytes() <= cache.max_bytes
    assert cache.stats.evictions > 0
    assert cache.get(keys[-1]) is not None, "newest entry must survive"
    assert cache.get(keys[0]) is None, "oldest entry must be evicted"


def test_read_hits_touch_mtime_and_are_counted(cache):
    """A hit refreshes the entry's LRU position (mtime) and bumps the
    ``touches`` counter; misses touch nothing."""
    import os
    program = _program()
    key = cache.key_for(program, "record", RecordOptions(), "tc25")
    cache.put(key, _fresh_compile(program))
    stale = 1_000_000_000             # far in the past
    os.utime(cache._path("artifact", key), (stale, stale))

    assert cache.get(key) is not None
    assert cache.stats.touches == 1
    assert cache._path("artifact", key).stat().st_mtime > stale, \
        "hit must refresh the entry's eviction clock"

    assert cache.get("ff" + "0" * 62) is None
    assert cache.stats.touches == 1   # misses don't touch
    assert cache.stats.to_json()["touches"] == 1


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
    assert cache.entry_count() == 0


def test_uncacheable_program_compiles_through():
    """key_for=None (spec form can't express it) must not break compile."""
    calls = []

    class _Compiler:
        name = "record"
        options = RecordOptions()

        class target:
            name = "tc25"

    repro.cache._ACTIVE = ArtifactCache(root="/nonexistent-unused")
    try:
        result = cached_compile(
            _Compiler(), object(),          # not a Program: spec fails
            lambda prog: calls.append(prog) or "built")
    finally:
        repro.cache._ACTIVE = None
    assert result == "built"
    assert len(calls) == 1


def test_configure_installs_and_removes(tmp_path):
    installed = repro.cache.configure(tmp_path / "c", max_bytes=123)
    try:
        assert repro.cache.active_cache() is installed
        assert installed.max_bytes == 123
    finally:
        assert repro.cache.configure(None) is None
    assert repro.cache.active_cache() is None
