"""Persistent content-addressed blob store.

Three kinds of entry share one store, one read path and one write
path; they differ only in their codec (:data:`_CODECS`):

- **artifacts** -- pickled :class:`CompiledProgram` files, keyed by
  :meth:`ArtifactCache.key_for`: the serialized lowered program
  (``repro.verify.corpus`` spec form -- structural, so two ``Program``
  objects with the same shape share a key, however they were built),
  the compiler registry name and its options, and the target name;
- **sources** -- the simulator JIT's generated Python (``jit/``);
- **records** -- the tuner's canonical-JSON measurements (``meas/``).

Every key is a :func:`content_key`: the SHA-256 of canonical JSON of
the key's ingredients plus the repository code-version stamp
(:mod:`repro.cache.version`).

Design constraints, in order:

- **never wrong**: a cache problem of any kind (unreadable file,
  truncated blob, stale class layout, full disk) degrades to a
  rebuild with a logged warning -- it can never crash a run or
  change a result;
- **safe under concurrency**: farm workers share one cache directory.
  Writes go to a per-process temporary file and land with an atomic
  ``os.replace``; readers only ever see complete entries.  Two workers
  racing to store the same key write identical bytes, so either
  winner is correct;
- **bounded**: after each store the cache evicts least-recently-used
  entries (mtime order; reads refresh mtime) until it fits
  ``max_bytes``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

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


def content_key(ingredients: Callable[[], object]) -> Optional[str]:
    """SHA-256 of canonical JSON of ``ingredients()`` plus the code
    version: the one key recipe of every store entry.

    ``None`` when building or serializing the ingredients fails --
    key derivation must never break the work it memoizes; uncacheable
    input simply bypasses the store.
    """
    try:
        payload = json.dumps({"key": ingredients(), "code": code_version()},
                             sort_keys=True)
    except Exception:                                  # noqa: BLE001
        return None
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class _Codec:
    """Where one kind of entry lives and how it becomes bytes.
    ``decode`` raises on anything that is not a valid entry."""

    subdir: str
    suffix: str
    encode: Callable[[object], bytes]
    decode: Callable[[bytes], object]


def _checked(value, expected: type):
    if not isinstance(value, expected):
        raise TypeError(f"entry holds {type(value).__name__}")
    return value


_CODECS = {
    "artifact": _Codec(
        "", ".pkl", pickle.dumps,
        lambda blob: _checked(pickle.loads(blob), CompiledProgram)),
    "source": _Codec(
        "jit", ".py", lambda source: source.encode("utf-8"),
        lambda blob: blob.decode("utf-8")),
    # Canonical (sort_keys), so racing writers of one key -- farm
    # workers measuring one deduped cell -- write identical bytes.
    "record": _Codec(
        "meas", ".json",
        lambda record: (json.dumps(record, sort_keys=True)
                        + "\n").encode("utf-8"),
        lambda blob: _checked(json.loads(blob.decode("utf-8")), dict)),
}

#: When the store crosses ``max_bytes``, evict down to this fraction
#: of it.  Stopping at the bound itself would put the very next store
#: straight back over it -- a full directory scan per put, exactly the
#: quadratic behaviour the amortized estimate exists to avoid.  The
#: 10% headroom turns enforcement into one scan per ~tens of MB of
#: fresh artifacts.
EVICTION_LOW_WATER = 0.9


@dataclass
class CacheStats:
    """Counters of one :class:`ArtifactCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt_entries: int = 0
    store_failures: int = 0
    #: Read hits whose entry mtime was refreshed -- the LRU size bound
    #: sorts by mtime, so touched (hot) entries outlive cold ones even
    #: when they were written first.
    touches: int = 0

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
        }


@dataclass
class ArtifactCache:
    """A content-addressed, size-bounded, crash-tolerant artifact store."""

    root: Path
    max_bytes: int = DEFAULT_MAX_BYTES
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._tmp_counter = 0
        #: Running estimate of the store's disk footprint, seeded by a
        #: full scan on this process's first store (see _note_store).
        self._approx_bytes: Optional[int] = None

    # -- keys -----------------------------------------------------------

    def key_for(self, program, compiler_name: str, options: object,
                target_name: str) -> Optional[str]:
        """Cache key for one compile, or ``None`` for uncacheable input.

        ``None`` (rather than an exception) keeps exotic programs --
        anything the corpus spec form cannot express -- compiling
        through the normal path.
        """
        from repro.verify.corpus import program_to_spec
        return content_key(lambda: {
            "format": _KEY_FORMAT,
            "program": program_to_spec(program),
            "compiler": compiler_name,
            "options": options_payload(options),
            "target": target_name,
        })

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

    def _path(self, kind: str, key: str) -> Path:
        codec = _CODECS[kind]
        return self.root.joinpath(codec.subdir, key[:2], key + codec.suffix)

    def _read(self, kind: str, key: str):
        """Decoded entry, or ``None`` on a miss or any disk problem.

        An entry that does not decode (truncated write, stale class
        layout, bit rot) is dropped and counted, so it is rebuilt
        instead of ever escaping.  A hit refreshes the entry's LRU
        position (mtime).
        """
        path = self._path(kind, key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            value = _CODECS[kind].decode(blob)
        except Exception as exc:                       # noqa: BLE001
            self.stats.corrupt_entries += 1
            self.stats.misses += 1
            logger.warning("dropping corrupt %s entry %s (%s: %s)", kind,
                           path.name, type(exc).__name__, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        try:
            os.utime(path)
            self.stats.touches += 1
        except OSError:
            pass                   # entry evicted under us: still a hit
        return value

    def _write(self, kind: str, key: str, value) -> bool:
        """Store an entry atomically; returns whether it landed.

        The blob goes to a per-process temporary file and lands with
        ``os.replace``, so readers only ever see complete entries.  An
        unencodable value or a disk problem (full, read-only) is a
        counted, logged store failure, never an exception.
        """
        path = self._path(kind, key)
        try:
            blob = _CODECS[kind].encode(value)
        except Exception as exc:                       # noqa: BLE001
            self.stats.store_failures += 1
            logger.warning("%s entry %s not encodable (%s: %s); not "
                           "cached", kind, path.name, type(exc).__name__,
                           exc)
            return False
        tmp = path.with_name(
            f".{path.stem}.{os.getpid()}.{self._tmp_counter}.tmp")
        self._tmp_counter += 1
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            self.stats.store_failures += 1
            logger.warning("cannot store %s entry %s (%s); continuing "
                           "uncached", kind, path.name, exc)
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.stats.stores += 1
        self._note_store(len(blob))
        return True

    # -- size bound -----------------------------------------------------

    def _entries(self) -> List[Tuple[float, int, Path]]:
        """(mtime, size, path) of every entry; unreadable ones skipped."""
        entries = []
        for codec in _CODECS.values():
            for path in self.root.glob(
                    str(Path(codec.subdir, "*", "*" + codec.suffix))):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def total_bytes(self) -> int:
        """Disk footprint of all current entries."""
        return sum(size for _mtime, size, _path in self._entries())

    def entry_count(self) -> int:
        """Number of artifacts currently stored."""
        return len(self._entries())

    def _note_store(self, size: int) -> None:
        """Amortized size-bound enforcement after one store.

        Scanning the whole store on every put is O(entries) -- fatal
        at campaign scale, where 10^5 programs write ~2x10^5 artifacts
        and a per-put scan makes the run quadratic in its own cache.
        Each process instead keeps a running footprint estimate: one
        full scan the first time it stores, pure arithmetic per put
        after that, and a real scan-and-evict only when the estimate
        crosses ``max_bytes`` (which also resets the estimate to the
        measured truth).  The estimate does not see concurrent
        writers, so the bound is approximate between enforcement
        points; eviction order is still global LRU whenever it runs.
        """
        if self._approx_bytes is None:
            self._approx_bytes = sum(
                entry_size for _mtime, entry_size, _path
                in self._entries())
        else:
            self._approx_bytes += size
        if self._approx_bytes > self.max_bytes:
            self._enforce_size_bound()

    def _enforce_size_bound(self) -> None:
        entries = self._entries()
        total = sum(size for _mtime, size, _path in entries)
        if total > self.max_bytes:
            floor = int(self.max_bytes * EVICTION_LOW_WATER)
            for _mtime, size, path in sorted(entries):
                try:
                    path.unlink()
                except OSError:
                    continue             # a concurrent worker beat us
                self.stats.evictions += 1
                total -= size
                if total <= floor:
                    break
        self._approx_bytes = total
