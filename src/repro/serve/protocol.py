"""Wire protocol of the compile service.

One request is one JSON object on one line (newline-delimited JSON
over a stream socket); one response is one JSON object on one line,
matched to its request by the client-chosen ``id``.  Responses come
back **in completion order**, not request order -- a hot cache hit
overtakes a cold compile pipelined ahead of it on the same
connection -- which is what lets the server stream results as the farm
finishes them.

Operations::

    {"id": 1, "op": "ping"}
    {"id": 2, "op": "compile",  "kernel": "fir", "target": "m56"}
    {"id": 3, "op": "compile",  "source": "<MiniDFL text>"}
    {"id": 4, "op": "compile",  "program": {...spec...},
              "compiler": "baseline"}
    {"id": 5, "op": "simulate", "kernel": "fir", "inputs": {...},
              "sim": "jit"}
    {"id": 6, "op": "verify",   "program": {...spec...},
              "input_sets": [{...}], "targets": ["tc25", "risc16"]}
    {"id": 7, "op": "stats"}
    {"id": 8, "op": "shutdown"}

A program may arrive as a DSPStone ``kernel`` registry name, as
MiniDFL ``source`` text, or as a serialized ``program`` spec
(:func:`repro.verify.corpus.program_to_spec` form -- what the e2e
``serve`` workload and the conformance tooling speak natively).

Every response carries ``served_by`` (``"cache"``: answered straight
from the persistent artifact store; ``"coalesced"``: attached to an
identical request already in flight; ``"farm"``: dispatched in a
batched farm submission) and a ``timings`` block with per-stage wall
clock (``dedup``, ``queue``, ``compile``, ``simulate``).

Content keys reuse the artifact cache's own derivation
(:meth:`repro.cache.ArtifactCache.key_for`), so "is this compile hot?"
and "is this artifact on disk?" are literally the same question; the
non-compile operations extend that key with their own ingredients.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.verify.diff import DEFAULT_TARGETS

PROTOCOL_VERSION = 1

OPS = ("ping", "compile", "simulate", "verify", "stats", "shutdown")
COMPILERS = ("record", "baseline", "hand")
SIM_TIERS = ("jit", "fast", "reference")


class ProtocolError(ValueError):
    """A malformed or unsupported request."""


@dataclass
class Request:
    """One parsed, validated request (program not yet resolved)."""

    id: object
    op: str
    kernel: Optional[str] = None
    source: Optional[str] = None
    program_spec: Optional[dict] = None
    target: str = "tc25"
    compiler: str = "record"
    sim: str = "jit"
    inputs: Dict[str, object] = field(default_factory=dict)
    input_sets: List[Dict[str, object]] = field(default_factory=list)
    targets: Tuple[str, ...] = DEFAULT_TARGETS

    @property
    def wants_program(self) -> bool:
        return self.op in ("compile", "simulate", "verify")


def parse_request(payload: object) -> Request:
    """Validate one decoded JSON payload into a :class:`Request`."""
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    request = Request(id=payload.get("id"), op=op)
    if not request.wants_program:
        return request

    sources = [key for key in ("kernel", "source", "program")
               if payload.get(key) is not None]
    if len(sources) != 1:
        raise ProtocolError(
            f"op {op!r} needs exactly one of 'kernel', 'source' or "
            f"'program' (got {sources or 'none'})")
    request.kernel = payload.get("kernel")
    request.source = payload.get("source")
    request.program_spec = payload.get("program")
    if request.kernel is not None and not isinstance(request.kernel, str):
        raise ProtocolError("'kernel' must be a string")
    if request.source is not None and not isinstance(request.source, str):
        raise ProtocolError("'source' must be a string")
    if request.program_spec is not None \
            and not isinstance(request.program_spec, dict):
        raise ProtocolError("'program' must be a spec object")

    request.compiler = payload.get("compiler", "record")
    if request.compiler not in COMPILERS:
        raise ProtocolError(f"unknown compiler {request.compiler!r}; "
                            f"expected one of {COMPILERS}")
    if request.compiler == "hand" and request.kernel is None:
        raise ProtocolError(
            "the 'hand' reference compiler only exists for DSPStone "
            "kernels; pass 'kernel', not 'source'/'program'")
    request.target = payload.get("target", "tc25")
    if request.target not in DEFAULT_TARGETS:
        raise ProtocolError(f"unknown target {request.target!r}; "
                            f"expected one of {DEFAULT_TARGETS}")

    if op == "simulate":
        request.sim = payload.get("sim", "jit")
        if request.sim not in SIM_TIERS:
            raise ProtocolError(f"unknown sim tier {request.sim!r}; "
                                f"expected one of {SIM_TIERS}")
        inputs = payload.get("inputs", {})
        if not isinstance(inputs, dict):
            raise ProtocolError("'inputs' must be an object")
        request.inputs = inputs
    if op == "verify":
        input_sets = payload.get("input_sets", [])
        if not isinstance(input_sets, list) \
                or not all(isinstance(entry, dict) for entry in input_sets):
            raise ProtocolError("'input_sets' must be a list of objects")
        request.input_sets = input_sets
        targets = payload.get("targets")
        if targets is not None:
            if not isinstance(targets, list) or not targets:
                raise ProtocolError(
                    "'targets' must be a non-empty list of target names")
            targets = tuple(targets)
            for name in targets:
                if name not in DEFAULT_TARGETS:
                    raise ProtocolError(
                        f"unknown target {name!r}; "
                        f"expected one of {DEFAULT_TARGETS}")
            request.targets = targets
    return request


def resolve_program(request: Request):
    """The lowered :class:`~repro.ir.program.Program` a request names.

    Raises whatever the kernel registry, the MiniDFL front end or the
    spec loader raises -- the server maps that to an error response.
    """
    if request.kernel is not None:
        from repro.dspstone import kernel
        return kernel(request.kernel).program
    if request.source is not None:
        from repro.dfl import compile_dfl
        return compile_dfl(request.source)
    from repro.verify.corpus import program_from_spec
    return program_from_spec(request.program_spec)


def verify_key(request: Request, program) -> Optional[str]:
    """Content key of a ``verify`` request, for in-flight coalescing.

    Compile and simulate requests coalesce on the artifact-cache key
    itself (the compile is the only shared, cacheable work; the
    simulation tier runs per request).  Verify has no artifact store,
    so its key hashes the full request the same way the cache hashes
    its own keys.  ``None`` marks an unserializable request: it is
    then dispatched without dedup.
    """
    from repro.cache.version import code_version
    from repro.verify.corpus import program_to_spec
    try:
        blob = json.dumps({
            "op": "verify",
            "program": program_to_spec(program),
            "input_sets": request.input_sets,
            "targets": list(request.targets),
            "code": code_version(),
        }, sort_keys=True)
    except Exception:                                  # noqa: BLE001
        return None
    return hashlib.sha256(blob.encode()).hexdigest()


def ok_response(request: Request, result: dict, served_by: str,
                timings: Dict[str, float],
                key: Optional[str] = None) -> dict:
    """A success envelope (one JSON line on the wire)."""
    return {
        "id": request.id,
        "ok": True,
        "op": request.op,
        "served_by": served_by,
        "key": key,
        "timings": {stage: round(seconds, 6)
                    for stage, seconds in timings.items()},
        "result": result,
    }


def error_response(request_id: object, error: str,
                   error_type: str = "ServeError",
                   op: Optional[str] = None) -> dict:
    """An error envelope; the connection stays usable afterwards."""
    return {
        "id": request_id,
        "ok": False,
        "op": op,
        "error": error,
        "error_type": error_type,
    }
