"""The artifact cache under multi-process and multi-thread contention.

The farm's workers and the compile service's server process all hammer
one cache database concurrently, and the service reads it from
executor threads.  The store's contract under that load: a reader sees
either *nothing* (a clean miss) or a *complete, valid* artifact --
never a torn entry -- because every write is one SQLite transaction.
These tests race real processes and threads against one store and
check exactly that, plus the hygiene conditions: nothing but the
database files under the root, no corrupt-entry counts, byte-identical
payloads on every hit.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import sys
import threading
import time

from repro.cache import ArtifactCache
from tests.cache.store_rows import STORE_FILES, connect, root_files

ROUNDS = 30


def _build_artifact():
    """One real compiled program (cheap kernel, deterministic)."""
    from repro.api import _resolve_target
    from repro.codegen.pipeline import RecordCompiler
    from repro.dspstone import kernel
    compiler = RecordCompiler(_resolve_target("tc25"), None)
    return compiler.compile(kernel("real_update").program)


def _writer(root, key, rounds, first_put, queue) -> None:
    """Overwrite the same entry as fast as possible."""
    try:
        cache = ArtifactCache(root)
        compiled = _build_artifact()
        for index in range(rounds):
            cache.put(key, compiled)
            if index == 0:
                first_put.set()
        queue.put(("writer", cache.stats.store_failures))
    except BaseException as exc:                       # noqa: BLE001
        first_put.set()
        queue.put(("writer-crash", repr(exc)))


def _reader(root, key, expected_listing, rounds, first_put,
            queue) -> None:
    """Read the entry in a tight loop; grade every hit."""
    try:
        first_put.wait(timeout=120)
        cache = ArtifactCache(root)
        hits = 0
        wrong = 0
        for _ in range(rounds):
            loaded = cache.get(key)
            if loaded is None:
                continue
            hits += 1
            if loaded.listing() != expected_listing:
                wrong += 1
        queue.put(("reader", hits, wrong,
                   cache.stats.corrupt_entries))
    except BaseException as exc:                       # noqa: BLE001
        queue.put(("reader-crash", repr(exc)))


def test_racing_put_and_get_never_shows_a_torn_entry(tmp_path):
    """One process rewrites an entry while another reads it: every
    read is a clean miss or a complete artifact, never garbage."""
    root = tmp_path / "cache"
    cache = ArtifactCache(root)
    from repro.dspstone import kernel
    program = kernel("real_update").program
    expected = _build_artifact().listing()
    key = cache.key_for(program, "record", None, "tc25")
    assert key is not None

    queue = multiprocessing.Queue()
    first_put = multiprocessing.Event()
    writer = multiprocessing.Process(
        target=_writer, args=(root, key, ROUNDS, first_put, queue))
    reader = multiprocessing.Process(
        target=_reader,
        args=(root, key, expected, ROUNDS * 3, first_put, queue))
    writer.start()
    reader.start()
    writer.join(timeout=300)
    reader.join(timeout=300)
    assert not writer.is_alive() and not reader.is_alive()

    outcomes = {}
    for _ in range(2):
        entry = queue.get(timeout=30)
        outcomes[entry[0]] = entry[1:]
    assert "writer" in outcomes, outcomes
    assert "reader" in outcomes, outcomes
    (store_failures,) = outcomes["writer"]
    hits, wrong, corrupt = outcomes["reader"]
    assert store_failures == 0
    assert wrong == 0, f"{wrong} hits returned a wrong artifact"
    assert corrupt == 0, "reader saw a torn entry"
    assert hits > 0, "reader never hit despite synchronized start"

    # hygiene: the final state is complete entries, zero litter
    assert root_files(cache) <= STORE_FILES
    final = ArtifactCache(root).get(key)
    assert final is not None and final.listing() == expected


def test_two_processes_computing_the_same_key_converge(tmp_path):
    """Two independent processes compile + put the same program: both
    succeed, and the surviving entry equals what either produced --
    the last atomic replace simply wins with identical bytes."""
    root = tmp_path / "cache"
    cache = ArtifactCache(root)
    from repro.dspstone import kernel
    program = kernel("real_update").program
    key = cache.key_for(program, "record", None, "tc25")
    assert key is not None

    queue = multiprocessing.Queue()
    events = [multiprocessing.Event(), multiprocessing.Event()]
    racers = [multiprocessing.Process(
        target=_writer, args=(root, key, 1, event, queue))
        for event in events]
    for racer in racers:
        racer.start()
    for racer in racers:
        racer.join(timeout=300)
    results = [queue.get(timeout=30) for _ in racers]
    assert all(tag == "writer" and failures == 0
               for tag, failures in results), results

    loaded = cache.get(key)
    assert loaded is not None
    assert loaded.listing() == _build_artifact().listing()
    assert cache.stats.corrupt_entries == 0


def _open_and_store(root, go, queue) -> None:
    go.wait(timeout=60)
    cache = ArtifactCache(root)
    cache.put_record(f"{os.getpid():064x}", {"pid": os.getpid()})
    queue.put(cache.stats.store_failures)


def test_processes_creating_one_new_store_all_store(tmp_path):
    """Openers racing to create one database all land their entry:
    switching a new database to WAL must wait out a racing opener."""
    for round_ in range(16):
        root = tmp_path / f"cache{round_}"
        go = multiprocessing.Event()
        queue = multiprocessing.Queue()
        racers = [multiprocessing.Process(target=_open_and_store,
                                          args=(root, go, queue))
                  for _ in range(4)]
        for racer in racers:
            racer.start()
        go.set()
        failures = [queue.get(timeout=120) for _ in racers]
        for racer in racers:
            racer.join(timeout=30)
        assert not any(racer.is_alive() for racer in racers)
        assert failures == [0] * 4
        assert ArtifactCache(root).entry_count() == 4


def test_interrupted_write_is_invisible_to_readers(tmp_path):
    """A write that dies mid-flight (simulated: partial bytes inserted
    in a transaction that is never committed) must look like a miss
    for its key and leave sibling entries untouched."""
    root = tmp_path / "cache"
    cache = ArtifactCache(root)
    compiled = _build_artifact()
    key = "ab" + "0" * 62
    assert cache.put(key, compiled)

    # simulate a crashed writer: partial bytes in an open transaction
    torn = connect(cache)
    torn.execute("BEGIN IMMEDIATE")
    torn.execute("INSERT INTO entries VALUES ('artifact', ?, ?, 40, 0)",
                 ("ab" + "f" * 62, pickle.dumps(compiled)[:40]))

    loaded = cache.get(key)
    assert loaded is not None              # the real entry is intact
    assert loaded.listing() == compiled.listing()
    assert cache.stats.corrupt_entries == 0
    missing = cache.get("ab" + "f" * 62)   # the in-flight key: a miss
    assert missing is None
    torn.close()                           # dies without a commit
    assert cache.get("ab" + "f" * 62) is None
    assert cache.stats.corrupt_entries == 0


def _die_mid_transaction(root, key) -> None:
    """Store siblings, then exit hard inside an uncommitted insert."""
    cache = ArtifactCache(root)
    for index in range(3):
        assert cache.put_record(f"{index:02x}" + "1" * 62,
                                {"cycles": [index]})

    def insert_then_die(db):
        db.execute("BEGIN IMMEDIATE")
        db.execute("INSERT INTO entries VALUES ('record', ?, ?, 4, 0)",
                   (key, b'{"cy'))
        os._exit(0)
    cache._run(insert_then_die)


def test_writer_killed_inside_a_transaction_leaves_a_miss(tmp_path):
    """A process that dies between ``BEGIN`` and ``COMMIT`` leaves its
    key a miss and the entries it committed before intact."""
    root = tmp_path / "cache"
    key = "ee" + "2" * 62
    child = multiprocessing.Process(target=_die_mid_transaction,
                                    args=(root, key))
    child.start()
    child.join(timeout=120)
    assert child.exitcode == 0

    cache = ArtifactCache(root)
    assert cache.get_record(key) is None
    for index in range(3):
        assert cache.get_record(f"{index:02x}" + "1" * 62) \
            == {"cycles": [index]}
    assert cache.put_record(key, {"cycles": [9]})
    assert cache.get_record(key) == {"cycles": [9]}
    assert (cache.stats.corrupt_entries, cache.stats.store_failures,
            cache.stats.corrupt_stores) == (0, 0, 0)


def _child_uses_inherited_cache(cache, key, queue) -> None:
    try:
        seen = cache.get_record(key)
        stored = cache.put_record("cc" + "3" * 62, {"from": "child"})
        queue.put((seen, stored, cache.stats.store_failures))
    except BaseException as exc:                       # noqa: BLE001
        queue.put(("crash", repr(exc), None))


def test_cache_opened_before_a_fork_works_in_both_processes(tmp_path):
    """A forked child must not use its parent's SQLite connection (or
    a lock a parent thread held at the fork); it opens its own."""
    cache = ArtifactCache(tmp_path / "cache")
    key = "aa" + "3" * 62
    assert cache.put_record(key, {"from": "parent"})
    assert cache._db is not None          # the connection is open
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    with cache._lock:                     # as if a thread held it
        child = context.Process(target=_child_uses_inherited_cache,
                                args=(cache, key, queue))
        child.start()
    outcome = queue.get(timeout=120)
    child.join(timeout=30)
    assert child.exitcode == 0
    assert outcome == ({"from": "parent"}, True, 0)
    assert cache.get_record("cc" + "3" * 62) == {"from": "child"}
    assert cache.put_record("dd" + "3" * 62, {"from": "parent"})
    assert cache.get_record("dd" + "3" * 62) == {"from": "parent"}
    assert cache.stats.store_failures == 0


def test_threads_sharing_one_cache_read_what_was_written(tmp_path,
                                                          caplog):
    """The serve process reads and writes one cache from executor
    threads.  More threads than cores, switching as often as the
    interpreter allows, for a bounded time, with a bound small enough
    that eviction transactions interleave with plain puts: no
    exception, no store failure or warning, and every hit equals what
    was written for its key."""
    cache = ArtifactCache(tmp_path / "cache", max_bytes=4096)
    threads = 2 * (os.cpu_count() or 1) + 2
    deadline = time.monotonic() + 3.0
    errors = []
    wrong = []
    reads = [0]

    def value(key):
        return {"key": key, "cycles": list(range(len(key) % 7))}

    def work(index):
        try:
            count = 0
            while time.monotonic() < deadline:
                key = f"{count % 50:02x}{index % 3:02x}" + "4" * 60
                if count % 3 == 0:
                    cache.put_record(key, value(key))
                got = cache.get_record(key)
                reads[0] += 1
                if got is not None and got != value(key):
                    wrong.append((key, got))
                count += 1
        except BaseException as exc:                   # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            workers = [threading.Thread(target=work, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert wrong == []
    assert cache.stats.store_failures == 0
    assert cache.stats.corrupt_entries == 0
    assert cache.stats.evictions > 0
    assert [record.getMessage() for record in caplog.records] == []
    assert reads[0] > threads
