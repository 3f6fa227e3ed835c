"""Persistent content-addressed blob store.

Three kinds of entry share one store, one read path and one write
path; they differ only in their codec (:data:`_CODECS`):

- **artifacts** -- pickled :class:`CompiledProgram` objects, keyed by
  :meth:`ArtifactCache.key_for`: the serialized lowered program
  (``repro.verify.corpus`` spec form -- structural, so two ``Program``
  objects with the same shape share a key, however they were built),
  the compiler registry name and its options, and the target name;
- **sources** -- the simulator JIT's generated Python;
- **records** -- the tuner's canonical-JSON measurements.

Every key is a :func:`content_key`: the SHA-256 of canonical JSON of
the key's ingredients plus the repository code-version stamp
(:mod:`repro.cache.version`).

The store is one SQLite database, ``<root>/store.db``, with one row
per entry: ``(kind, key) -> blob, size, atime``.  It runs in WAL mode
with ``synchronous=NORMAL``: a commit is not flushed to disk, so a
power loss can drop the last commits, but it never corrupts the
database.  WAL coordinates processes through shared memory, so the
root must be on a local filesystem.  ``sqlite3`` is imported only when
the first connection opens.

Design constraints, in order:

- **never wrong**: a cache problem of any kind (undecodable blob,
  stale class layout, full disk, a database file SQLite cannot read)
  degrades to a rebuild with a logged warning -- it can never crash a
  run or change a result;
- **safe under concurrency**: farm workers and the serve process share
  one database.  Storing an entry is one transaction, so readers only
  ever see complete entries and a writer that dies mid-transaction
  leaves nothing behind.  Two workers racing to store the same key
  write identical bytes, so either winner is correct.  The threads of
  one process share its connection under a lock; a forked child opens
  its own;
- **bounded**: triggers keep the total size of all entries in the
  database, so a store that crosses ``max_bytes`` is seen at once and
  evicts least-recently-used entries (``atime`` order) down to
  :data:`EVICTION_LOW_WATER` of the bound.  A hit refreshes its
  entry's ``atime`` at most once per :data:`TOUCH_INTERVAL_S`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.cache.version import code_version
from repro.codegen.compiled import CompiledProgram

logger = logging.getLogger("repro.cache")

#: Default size bound: plenty for the full DSPStone x target matrix
#: plus tens of thousands of fuzz programs (~10 KB per artifact).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_KEY_FORMAT = 2


def options_payload(options: object) -> object:
    """Canonical JSON-able form of a compiler-options value.

    One normalization for every subsystem that hashes options -- the
    artifact cache, the compile service (which keys requests through
    :meth:`ArtifactCache.key_for`), the farm, and the tuner's
    measurement records.  Options classes with a canonical
    ``to_dict()`` (``RecordOptions``) use it; other frozen dataclasses
    (``BaselineOptions``) serialize field-wise; anything else falls
    back to ``repr``.  ``None`` normalizes to ``None`` -- callers must
    substitute the compiler's default options themselves when they
    want default-vs-explicit-default to hash identically (see
    :func:`repro.serve.server.default_options`).
    """
    if options is None:
        return None
    to_dict = getattr(options, "to_dict", None)
    if callable(to_dict):
        return {"class": type(options).__name__, "fields": to_dict()}
    if dataclasses.is_dataclass(options) and not isinstance(options, type):
        return {"class": type(options).__name__,
                "fields": dataclasses.asdict(options)}
    return repr(options)


def content_key(ingredients: Callable[[], object],
                on_error: Optional[Callable[[Exception], None]] = None
                ) -> Optional[str]:
    """SHA-256 of canonical JSON of ``ingredients()`` plus the code
    version: the one key recipe of every store entry.

    ``None`` when building or serializing the ingredients fails --
    key derivation must never break the work it memoizes; uncacheable
    input simply bypasses the store.  ``on_error`` hears why (see
    :meth:`ArtifactCache.note_uncacheable`).
    """
    try:
        payload = json.dumps({"key": ingredients(), "code": code_version()},
                             sort_keys=True)
    except Exception as exc:                           # noqa: BLE001
        if on_error is not None:
            on_error(exc)
        return None
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class _Codec:
    """How one kind of entry becomes bytes.  ``decode`` raises on
    anything that is not a valid entry."""

    encode: Callable[[object], bytes]
    decode: Callable[[bytes], object]


def _checked(value, expected: type):
    if not isinstance(value, expected):
        raise TypeError(f"entry holds {type(value).__name__}")
    return value


_CODECS = {
    "artifact": _Codec(
        pickle.dumps,
        lambda blob: _checked(pickle.loads(blob), CompiledProgram)),
    "source": _Codec(
        lambda source: source.encode("utf-8"),
        lambda blob: blob.decode("utf-8")),
    # Canonical (sort_keys), so racing writers of one key -- farm
    # workers measuring one deduped cell -- write identical bytes.
    "record": _Codec(
        lambda record: (json.dumps(record, sort_keys=True)
                        + "\n").encode("utf-8"),
        lambda blob: _checked(json.loads(blob.decode("utf-8")), dict)),
}

#: When the store crosses ``max_bytes``, evict down to this fraction
#: of it.  Stopping at the bound itself would put the very next store
#: straight back over it; the 10% headroom turns enforcement into one
#: eviction per ~tens of MB of fresh entries.
EVICTION_LOW_WATER = 0.9

#: A hit rewrites its entry's ``atime`` only when the stored one is at
#: least this many seconds old, like ``relatime``: LRU order needs no
#: finer clock, and a write on every hit would queue the serve
#: process's hot reads behind farm workers' commits.
TOUCH_INTERVAL_S = 60.0

#: The database file under the cache root; SQLite keeps its write-ahead
#: log and shared-memory index beside it (``-wal``, ``-shm``).
STORE_NAME = "store.db"

#: Seconds a statement waits on another process's write lock before it
#: fails (a failed read is a miss, a failed write a store failure).
_BUSY_TIMEOUT_S = 30.0

_SCHEMA_VERSION = 1
_SCHEMA = (
    """CREATE TABLE entries (
           kind TEXT NOT NULL,
           key TEXT NOT NULL,
           blob BLOB NOT NULL,
           size INTEGER NOT NULL,
           atime REAL NOT NULL,
           PRIMARY KEY (kind, key))""",
    "CREATE INDEX entries_by_atime ON entries (atime)",
    "CREATE TABLE total (bytes INTEGER NOT NULL)",
    "INSERT INTO total VALUES (0)",
    """CREATE TRIGGER entry_added AFTER INSERT ON entries BEGIN
           UPDATE total SET bytes = bytes + new.size; END""",
    """CREATE TRIGGER entry_replaced AFTER UPDATE OF size ON entries
       BEGIN UPDATE total SET bytes = bytes + new.size - old.size; END""",
    """CREATE TRIGGER entry_removed AFTER DELETE ON entries BEGIN
           UPDATE total SET bytes = bytes - old.size; END""",
    f"PRAGMA user_version = {_SCHEMA_VERSION}",
)
_SELECT = "SELECT blob, atime FROM entries WHERE kind = ? AND key = ?"
_TOUCH = "UPDATE entries SET atime = ? WHERE kind = ? AND key = ?"
_DELETE = "DELETE FROM entries WHERE kind = ? AND key = ?"
_UPSERT = """INSERT INTO entries (kind, key, blob, size, atime)
             VALUES (?, ?, ?, ?, ?)
             ON CONFLICT (kind, key) DO UPDATE SET blob = excluded.blob,
                 size = excluded.size, atime = excluded.atime"""
_TOTAL = "SELECT bytes FROM total"


class StoreError(OSError):
    """A database operation failed (locked, full, unreadable): a disk
    problem like any other, which callers degrade past."""


@dataclass
class CacheStats:
    """Counters of one :class:`ArtifactCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt_entries: int = 0
    store_failures: int = 0
    #: Read hits whose entry ``atime`` was refreshed -- the LRU size
    #: bound sorts by ``atime``, so touched (hot) entries outlive cold
    #: ones even when they were written first.
    touches: int = 0
    #: Inputs with no key (:func:`content_key` returned ``None``):
    #: they bypass the store entirely.
    uncacheable: int = 0
    #: Database files SQLite could not read, replaced by an empty store.
    corrupt_stores: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from disk."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_json(self) -> dict:
        """JSON-able counter snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt_entries": self.corrupt_entries,
            "store_failures": self.store_failures,
            "touches": self.touches,
            "uncacheable": self.uncacheable,
            "corrupt_stores": self.corrupt_stores,
        }


@dataclass
class ArtifactCache:
    """A content-addressed, size-bounded, crash-tolerant artifact store."""

    root: Path
    max_bytes: int = DEFAULT_MAX_BYTES
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._lock = threading.Lock()
        self._pid = os.getpid()
        #: This process's connection, opened on first use.
        self._db = None

    # -- keys -----------------------------------------------------------

    def key_for(self, program, compiler_name: str, options: object,
                target_name: str) -> Optional[str]:
        """Cache key for one compile, or ``None`` for uncacheable input.

        ``None`` (rather than an exception) keeps exotic programs --
        anything the corpus spec form cannot express -- compiling
        through the normal path; it is counted in ``uncacheable``.
        """
        from repro.verify.corpus import program_to_spec
        return content_key(lambda: {
            "format": _KEY_FORMAT,
            "program": program_to_spec(program),
            "compiler": compiler_name,
            "options": options_payload(options),
            "target": target_name,
        }, on_error=self.note_uncacheable)

    def note_uncacheable(self, exc: Exception) -> None:
        """Count one input that has no key; warn about the first."""
        self.stats.uncacheable += 1
        if self.stats.uncacheable == 1:
            logger.warning("uncacheable input bypasses the cache at %s "
                           "(%s: %s); later ones are only counted",
                           self.root, type(exc).__name__, exc)

    # -- the three codecs -------------------------------------------------

    def get(self, key: str) -> Optional[CompiledProgram]:
        """Load an artifact, or ``None`` on miss or any disk problem."""
        compiled = self._read("artifact", key)
        if compiled is not None:
            compiled.stats["artifact_cache"] = "hit"
        return compiled

    def put(self, key: str, compiled: CompiledProgram) -> bool:
        """Store an artifact atomically; returns whether it landed.  The
        ``artifact_cache`` hit marker describes a loaded copy, never
        the stored one."""
        marker = compiled.stats.pop("artifact_cache", None)
        try:
            return self._write("artifact", key, compiled)
        finally:
            if marker is not None:
                compiled.stats["artifact_cache"] = marker

    def get_source(self, key: str) -> Optional[str]:
        """Load a generated-source blob (the simulator JIT's entries)."""
        return self._read("source", key)

    def put_source(self, key: str, source: str) -> bool:
        """Store a generated-source blob atomically."""
        return self._write("source", key, source)

    def get_record(self, key: str) -> Optional[dict]:
        """Load a JSON measurement record (the tuner's entries)."""
        return self._read("record", key)

    def put_record(self, key: str, record: dict) -> bool:
        """Store a JSON measurement record atomically."""
        return self._write("record", key, record)

    # -- one read path, one write path ------------------------------------

    def _read(self, kind: str, key: str):
        """Decoded entry, or ``None`` on a miss or any disk problem.

        An entry that does not decode (truncated write, stale class
        layout, bit rot) is dropped and counted, so it is rebuilt
        instead of ever escaping.  A hit refreshes the entry's LRU
        position (``atime``) when it is older than
        :data:`TOUCH_INTERVAL_S`.
        """
        try:
            row = self._run(lambda db: db.execute(
                _SELECT, (kind, key)).fetchone())
        except OSError as exc:
            logger.warning("cannot read %s entry %s (%s); treating it "
                           "as a miss", kind, key, exc)
            row = None
        if row is None:
            self.stats.misses += 1
            return None
        blob, atime = row
        try:
            value = _CODECS[kind].decode(blob)
        except Exception as exc:                       # noqa: BLE001
            self.stats.corrupt_entries += 1
            self.stats.misses += 1
            logger.warning("dropping corrupt %s entry %s (%s: %s)", kind,
                           key, type(exc).__name__, exc)
            try:
                self._run(lambda db: db.execute(_DELETE, (kind, key)))
            except OSError:
                pass
            return None
        self.stats.hits += 1
        now = time.time()
        if now - atime >= TOUCH_INTERVAL_S:
            try:
                self._run(lambda db: db.execute(_TOUCH, (now, kind, key)))
                self.stats.touches += 1
            except OSError:
                pass                     # the hit stands; LRU is a hint
        return value

    def _write(self, kind: str, key: str, value) -> bool:
        """Store an entry in one transaction; returns whether it landed.

        An unencodable value or a disk problem (full, read-only,
        locked) is a counted, logged store failure, never an exception.
        """
        try:
            blob = _CODECS[kind].encode(value)
        except Exception as exc:                       # noqa: BLE001
            self.stats.store_failures += 1
            logger.warning("%s entry %s not encodable (%s: %s); not "
                           "cached", kind, key, type(exc).__name__, exc)
            return False

        def store(db) -> int:
            db.execute(_UPSERT, (kind, key, blob, len(blob), time.time()))
            return db.execute(_TOTAL).fetchone()[0]
        try:
            total = self._run(store)
        except OSError as exc:
            self.stats.store_failures += 1
            logger.warning("cannot store %s entry %s (%s); continuing "
                           "uncached", kind, key, exc)
            return False
        self.stats.stores += 1
        if total > self.max_bytes:
            self._enforce_size_bound()
        return True

    # -- the connection ---------------------------------------------------

    def _run(self, work: Callable):
        """``work(connection)`` under this process's lock, with any
        database error raised as :class:`StoreError`.

        The connection opens on first use.  An error that says the file
        is not a readable database also discards the file, so the next
        use starts an empty store.
        """
        import sqlite3
        with self._process_lock():
            try:
                if self._db is None:
                    self._db = self._open()
                return work(self._db)
            except sqlite3.Error as exc:
                if _unreadable(exc):
                    self._discard_store(exc)
                raise StoreError(f"{type(exc).__name__}: {exc}") from exc

    def _process_lock(self) -> threading.Lock:
        """The lock that guards the connection.

        A forked child never uses its parent's connection: SQLite's
        file locks belong to the process that took them.  Nor its
        lock, which a parent thread may have held at the fork.  So a
        changed pid closes the one and replaces the other.
        """
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._lock = threading.Lock()
            _close_quietly(self._db)
            self._db = None
        return self._lock

    def _open(self):
        """A connection to the store, created if missing; a database
        file SQLite cannot read is replaced by an empty one."""
        import sqlite3
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            return _connect(self.root / STORE_NAME)
        except sqlite3.Error as exc:
            if not _unreadable(exc):
                raise
            self._discard_store(exc)
            return _connect(self.root / STORE_NAME)

    def _discard_store(self, exc: Exception) -> None:
        """Count, log and delete an unreadable database file (with its
        log and index).  Called under the lock."""
        self.stats.corrupt_stores += 1
        path = self.root / STORE_NAME
        logger.warning("cache database %s is unreadable (%s); starting "
                       "an empty store", path, exc)
        _close_quietly(self._db)
        self._db = None
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{path}{suffix}")
            except OSError:
                pass

    def close(self) -> None:
        """Release this process's connection; a later use reopens it.
        Never raises, even when the cache directory is gone."""
        with self._process_lock():
            _close_quietly(self._db)
            self._db = None

    # -- size bound -----------------------------------------------------

    def total_bytes(self) -> int:
        """Total size of all current entries."""
        return self._run(lambda db: db.execute(_TOTAL).fetchone()[0])

    def entry_count(self) -> int:
        """Number of entries currently stored."""
        return self._run(lambda db: db.execute(
            "SELECT COUNT(*) FROM entries").fetchone()[0])

    def _enforce_size_bound(self) -> None:
        """Evict least-recently-used entries down to the low-water mark.

        Runs only when a store pushed the total past ``max_bytes``, in
        one write transaction that re-reads the total, so concurrent
        writers never evict twice for one crossing.  The ``atime``
        index makes it proportional to the entries it evicts.
        """
        floor = int(self.max_bytes * EVICTION_LOW_WATER)

        def evict(db) -> int:
            with _transaction(db):
                (total,) = db.execute(_TOTAL).fetchone()
                if total <= self.max_bytes:
                    return 0
                victims = []
                cursor = db.execute(
                    "SELECT rowid, size FROM entries ORDER BY atime")
                for rowid, size in cursor:
                    victims.append((rowid,))
                    total -= size
                    if total <= floor:
                        break
                cursor.close()
                db.executemany("DELETE FROM entries WHERE rowid = ?",
                               victims)
            return len(victims)
        try:
            self.stats.evictions += self._run(evict)
        except OSError as exc:
            logger.warning("cannot evict from %s (%s); the store stays "
                           "over its bound until the next store", self.root,
                           exc)


def _connect(path: Path):
    """Open ``path`` in WAL mode, creating the schema if it is new."""
    import sqlite3
    db = sqlite3.connect(path, timeout=_BUSY_TIMEOUT_S,
                         isolation_level=None, check_same_thread=False)
    try:
        _enter_wal(db)
        db.execute("PRAGMA synchronous = NORMAL")
        if _schema_version(db) == 0:
            with _transaction(db):
                # Re-read under the write lock: a racing opener may
                # have created the schema meanwhile.
                if _schema_version(db) == 0:
                    for statement in _SCHEMA:
                        db.execute(statement)
    except BaseException:
        db.close()
        raise
    return db


def _enter_wal(db) -> None:
    """Put the database in WAL mode (a no-op once it is).

    Switching a new database needs an exclusive lock, and SQLite
    reports a racing opener's lock at once instead of waiting on the
    busy handler, so a locked switch is retried until the busy timeout.
    """
    import sqlite3
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while True:
        try:
            db.execute("PRAGMA journal_mode = WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
            time.sleep(0.001)


def _schema_version(db) -> int:
    """``0`` for a new database, else the schema it was created with."""
    return db.execute("PRAGMA user_version").fetchone()[0]


def _unreadable(exc: Exception) -> bool:
    """Whether a database error says the file is not a readable
    database: ``DatabaseError`` proper (SQLITE_NOTADB, SQLITE_CORRUPT),
    not one of its subclasses (locked, full, constraint...)."""
    import sqlite3
    return type(exc) is sqlite3.DatabaseError


@contextmanager
def _transaction(db):
    """``BEGIN IMMEDIATE`` .. ``COMMIT`` on an autocommit connection;
    ``ROLLBACK`` when the body or the commit fails."""
    db.execute("BEGIN IMMEDIATE")
    try:
        yield db
        db.execute("COMMIT")
    except BaseException:
        if db.in_transaction:
            db.execute("ROLLBACK")
        raise


def _close_quietly(db) -> None:
    """Close a connection; a failure (its files already gone, say) is
    logged at debug level, since nothing is left to lose."""
    if db is None:
        return
    import sqlite3
    try:
        db.close()
    except sqlite3.Error as exc:
        logger.debug("closing the cache database failed (%s: %s)",
                     type(exc).__name__, exc)
