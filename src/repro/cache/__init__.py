"""Persistent compilation-artifact cache.

Compiling is by far the most expensive cell of the conformance matrix
(~90% of a cold ``python -m repro.verify`` run), and it is a pure
function of (program, compiler+options, target, code version).  This
package memoizes it **across processes and runs**: artifacts live in
one SQLite database under a cache directory (``.repro-cache/store.db``
by convention), keyed by a content digest, so a warm CI run or a
repeated verify invocation compiles nothing at all.

The cache is *opt-in per process*: nothing is read or written until
:func:`configure` installs an active cache, which the verify CLI, the
throughput benchmark and the farm workers do.  Library callers and the
tier-1 test suite see the uncached pipeline unless they ask otherwise.

Usage::

    import repro.cache
    repro.cache.configure(".repro-cache")    # activate
    ...                                      # compiles now hit the cache
    repro.cache.configure(None)              # deactivate

See :mod:`repro.cache.artifacts` for the storage design (one
transaction per entry, LRU size bound, corruption tolerance) and
:mod:`repro.cache.version` for the invalidation stamp.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional

from repro.cache.artifacts import (
    ArtifactCache, CacheStats, DEFAULT_MAX_BYTES, content_key,
    options_payload,
)
from repro.cache.version import code_version, set_code_version
from repro.codegen.compiled import CompiledProgram

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DEFAULT_MAX_BYTES",
    "active_cache",
    "cached_compile",
    "code_version",
    "configure",
    "content_key",
    "default_cache_dir",
    "options_payload",
    "set_code_version",
]

_ACTIVE: Optional[ArtifactCache] = None


def default_cache_dir() -> Path:
    """The conventional cache location: ``.repro-cache/`` in the cwd."""
    return Path(".repro-cache")


def configure(root: Optional[object],
              max_bytes: int = DEFAULT_MAX_BYTES
              ) -> Optional[ArtifactCache]:
    """Install (or with ``root=None`` remove) the process-wide cache.

    Returns the now-active cache, so callers can read its stats later.
    The cache it replaces is closed.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = None if root is None \
        else ArtifactCache(Path(root), max_bytes=max_bytes)
    return _ACTIVE


def active_cache() -> Optional[ArtifactCache]:
    """The process-wide cache, or ``None`` when caching is off."""
    return _ACTIVE


def cached_compile(compiler,
                   program,
                   build: Callable[[object], CompiledProgram]
                   ) -> CompiledProgram:
    """Route one compile through the active cache (if any).

    ``compiler`` provides the key ingredients (``name``, ``options``,
    ``target.name``); ``build`` runs the real pipeline on a miss.  With
    no active cache, or an uncacheable program, this is exactly
    ``build(program)``.
    """
    cache = _ACTIVE
    if cache is None:
        return build(program)
    key = cache.key_for(program, compiler.name, compiler.options,
                        compiler.target.name)
    if key is None:
        return build(program)
    compiled = cache.get(key)
    if compiled is not None:
        return compiled
    compiled = build(program)
    cache.put(key, compiled)
    return compiled
