"""Test helpers that reach into an :class:`ArtifactCache`'s database the
way a crash, bit rot or an old entry would: through a second SQLite
connection, one row at a time."""

from __future__ import annotations

import sqlite3
from typing import Optional, Tuple

from repro.cache.artifacts import STORE_NAME

#: What a cache root may hold: the database and SQLite's own files.
STORE_FILES = {STORE_NAME, STORE_NAME + "-wal", STORE_NAME + "-shm"}


def connect(cache) -> sqlite3.Connection:
    """A second, autocommit connection to ``cache``'s database."""
    return sqlite3.connect(cache.root / STORE_NAME, timeout=30,
                           isolation_level=None)


def read_row(cache, kind: str, key: str) -> Optional[Tuple[bytes, float]]:
    """``(blob, atime)`` of one entry, or ``None`` when it is absent."""
    db = connect(cache)
    try:
        return db.execute(
            "SELECT blob, atime FROM entries WHERE kind = ? AND key = ?",
            (kind, key)).fetchone()
    finally:
        db.close()


def rewrite_row(cache, kind: str, key: str, blob: Optional[bytes] = None,
                atime: Optional[float] = None) -> None:
    """Overwrite one existing entry's blob (size follows) or atime."""
    db = connect(cache)
    try:
        if blob is not None:
            changed = db.execute(
                "UPDATE entries SET blob = ?, size = ? "
                "WHERE kind = ? AND key = ?",
                (blob, len(blob), kind, key)).rowcount
            assert changed == 1, f"no {kind} entry {key}"
        if atime is not None:
            db.execute("UPDATE entries SET atime = ? "
                       "WHERE kind = ? AND key = ?", (atime, kind, key))
    finally:
        db.close()


def root_files(cache) -> set:
    """Names of everything directly under the cache root."""
    return {path.name for path in cache.root.iterdir()}
