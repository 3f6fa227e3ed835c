"""Outside-in per-layer tracing for the end-to-end benchmark.

The benchmark changes no program code, so it measures layers from the
outside: :class:`LayerTracer` replaces the public entry point of each
layer (a module function or a class method, named in :data:`HOOKS`)
with a wrapper that records a span, and puts every original object back
afterwards.  Spans nest by call order: a layer's *self time* is its span
time minus the time covered by its child spans, and the part of an
operation covered by no wrapper is reported as ``other``.  Self times
plus ``other`` therefore add up to the operation's wall time.

Counters come from the same boundaries: a wrapper may look at the
returned object (an artifact's ``stats``, a measurement's ``cached``
flag), and per-operation deltas of the public stats functions
(:data:`PROBES`) are summed.  Stage timings are skipped on artifact
cache hits, as :func:`repro.verify.diff._account_compile` does, because
a hit's stored timings describe a compile this run never did.

Spans can also be kept and written as Chrome trace-event JSON, which
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` open as is.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _count_record_compile(tracer: "LayerTracer", compiled) -> None:
    stats = compiled.stats
    if stats.get("artifact_cache") == "hit":
        return
    tracer.counters["codegen.compiles"] += 1
    for stage, seconds in (stats.get("timings") or {}).items():
        tracer.stage_seconds[stage] += seconds
    selection = stats.get("selection")
    if selection is not None:
        tracer.counters["codegen.label_hits"] += selection.label_hits
        tracer.counters["codegen.label_misses"] += selection.label_misses


def _count_baseline_compile(tracer: "LayerTracer", compiled) -> None:
    if compiled.stats.get("artifact_cache") != "hit":
        tracer.counters["baseline.compiles"] += 1


def _count_measurement(tracer: "LayerTracer", measurement) -> None:
    if not measurement.cached:
        tracer.counters["tune.fresh"] += 1


def _count_gate(tracer: "LayerTracer", accepted: bool) -> None:
    if not accepted:
        tracer.counters["tune.rejected"] += 1


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point.

    ``attr`` may be dotted (``Class.method``).  ``span=False`` only
    counts calls (for entry points called too often to time, inside a
    layer that is already timed).  ``on_result`` sees each return
    value.
    """

    layer: str
    module: str
    attr: str
    on_result: Optional[Callable] = None
    span: bool = True


#: Layer entry points.  A function that other modules imported by name
#: is wrapped where those callers look it up.
HOOKS: Tuple[Hook, ...] = (
    Hook("dfl", "repro.api", "compile_dfl"),
    Hook("cache.key", "repro.cache.artifacts", "ArtifactCache.key_for"),
    Hook("cache.get", "repro.cache.artifacts", "ArtifactCache.get"),
    Hook("cache.put", "repro.cache.artifacts", "ArtifactCache.put"),
    Hook("cache.source", "repro.cache.artifacts", "ArtifactCache.get_source"),
    Hook("cache.source", "repro.cache.artifacts", "ArtifactCache.put_source"),
    Hook("cache.record", "repro.cache.artifacts", "ArtifactCache.get_record"),
    Hook("cache.record", "repro.cache.artifacts", "ArtifactCache.put_record"),
    Hook("codegen", "repro.codegen.pipeline", "RecordCompiler.compile",
         on_result=_count_record_compile),
    Hook("baseline", "repro.baseline.compiler", "BaselineCompiler.compile",
         on_result=_count_baseline_compile),
    Hook("ir.variants", "repro.codegen.selector", "enumerate_variants",
         span=False),
    Hook("sim.harness", "repro.api", "run_compiled"),
    Hook("sim.harness", "repro.sim.harness", "run_compiled"),
    Hook("sim.harness", "repro.verify.diff", "run_many"),
    Hook("sim.decode", "repro.sim.decode", "decode"),
    Hook("sim.jit_translate", "repro.sim.jit", "translate_cached"),
    Hook("sim.jit_exec", "repro.sim.jit", "JitMachine.run_translated"),
    Hook("sim.fast", "repro.sim.fastmachine", "FastMachine.run_decoded"),
    Hook("sim.reference", "repro.sim.machine", "Machine.run"),
    Hook("verify.oracle", "repro.verify.oracle", "Oracle.run"),
    Hook("tune.measure", "repro.tune.search", "measure_cell",
         on_result=_count_measurement),
    Hook("tune.gate", "repro.tune.search", "verify_selection",
         on_result=_count_gate, span=False),
)

#: Span layers, in report order.
SPAN_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    hook.layer for hook in HOOKS if hook.span))


def _cache_probe() -> Dict[str, int]:
    from repro.cache import active_cache
    cache = active_cache()
    if cache is None:
        return {}
    return {"cache.hits": cache.stats.hits, "cache.misses": cache.stats.misses}


def _sim_probe() -> Dict[str, int]:
    from repro.sim.decode import decode_cache_stats
    from repro.sim.jit import jit_cache_stats
    decode, jit = decode_cache_stats(), jit_cache_stats()
    return {"sim.decode_fallbacks": decode["fallbacks"],
            "sim.jit_translations": jit["misses"],
            "sim.jit_fallbacks": jit["fallbacks"],
            "sim.jit_source_hits": jit["source_cache_hits"],
            "sim.jit_source_misses": jit["source_cache_misses"]}


def _variant_probe() -> Dict[str, int]:
    from repro.ir.algebraic import variant_cache_info
    info = variant_cache_info()
    # Every memo miss inserts one entry, and an insert at the size cap
    # evicts one: misses = growth + evictions.
    return {"ir.variant_misses": info["size"] + info["evictions"]}


#: Public stats functions sampled before and after each traced op.
PROBES: Tuple[Callable[[], Dict[str, int]], ...] = (
    _cache_probe, _sim_probe, _variant_probe)


def entry_point(hook: Hook) -> Tuple[object, str, object]:
    """``(owner, attribute name, current object)`` of a hook."""
    owner = importlib.import_module(hook.module)
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # A class attribute is read raw, so a method stays a function.
    current = owner.__dict__[name] if isinstance(owner, type) \
        else getattr(owner, name)
    return owner, name, current


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


class LayerTracer:
    """Span recorder for the operations of one benchmark run.

    Use :meth:`install` / :meth:`uninstall` around the traced part and
    :meth:`op` around each operation; calls outside an operation pass
    straight through.  With ``keep_spans`` every span is kept for
    :meth:`write_chrome_trace`.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        self.self_seconds: Counter = Counter()
        self.stage_seconds: Counter = Counter()
        self.counters: Counter = Counter()
        self.ops = 0
        self.op_seconds = 0.0
        self.other_seconds = 0.0
        self.spans: Optional[List[tuple]] = [] if keep_spans else None
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._op_id = 0

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook's entry point (idempotent)."""
        if self._saved:
            return
        for hook in HOOKS:
            owner, name, original = entry_point(hook)
            setattr(owner, name, self._wrap(hook, original))
            self._saved.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        stack = self._stack
        layer, on_result = hook.layer, hook.on_result

        if not hook.span:
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                if stack:
                    self.counters[layer + ".calls"] += 1
                    if on_result is not None:
                        on_result(self, result)
                return result
            return counting

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.self_seconds[layer] += duration - frame[2]
                self.counters[layer + ".calls"] += 1
                parent = stack[-1]
                parent[2] += duration
                if self.spans is not None:
                    self.spans.append((layer, frame[1], end, parent[0],
                                       self._op_id))
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    # -- operations -----------------------------------------------------

    def op(self, fn: Callable[[], object]) -> object:
        """Run one operation as the root span; returns its result."""
        before = [probe() for probe in PROBES]
        self._op_id += 1
        root = ["op", perf_counter(), 0.0]
        self._stack.append(root)
        try:
            return fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            wall = end - root[1]
            self.ops += 1
            self.op_seconds += wall
            self.other_seconds += wall - root[2]
            if self.spans is not None:
                self.spans.append(("op", root[1], end, None, self._op_id))
            for probe, old in zip(PROBES, before):
                for key, value in probe().items():
                    self.counters[key] += value - old.get(key, 0)

    # -- reports --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span layer plus ``other``."""
        times = {layer: self.self_seconds.get(layer, 0.0)
                 for layer in SPAN_LAYERS}
        times["other"] = self.other_seconds
        return times

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``.

        Times are shares of traced op wall time (``frac``), counts are
        per traced op (``1/op``), ratios are useful outcomes over
        attempts.
        """
        wall = self.op_seconds
        ops = self.ops or 1
        counters = self.counters

        def share(seconds: float) -> Tuple[float, str]:
            return (seconds / wall if wall else 0.0, "frac")

        def per_op(key: str) -> Tuple[float, str]:
            return (counters.get(key, 0) / ops, "1/op")

        out: Dict[str, Tuple[float, str]] = {}
        for layer, seconds in self.self_times().items():
            out[f"{layer}.self_frac"] = share(seconds)
        for stage in ("selection", "variants", "labeling", "loop_opt",
                      "peephole", "addressing", "modes", "finalize"):
            out[f"codegen.{stage}_frac"] = share(
                self.stage_seconds.get(stage, 0.0))
        for key in ("dfl.calls", "codegen.compiles", "baseline.compiles"):
            out[key] = per_op(key)
        out["verify.oracle_calls"] = per_op("verify.oracle.calls")
        for key in ("sim.jit_translations", "sim.jit_fallbacks",
                    "sim.decode_fallbacks", "cache.hits", "cache.misses",
                    "tune.fresh", "tune.rejected"):
            out[key] = per_op(key)
        hits, misses = counters["cache.hits"], counters["cache.misses"]
        out["cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        hits = counters["codegen.label_hits"]
        out["codegen.label_hit_ratio"] = (
            _ratio(hits, hits + counters["codegen.label_misses"]), "ratio")
        calls = counters["ir.variants.calls"]
        out["ir.variant_hit_ratio"] = (
            _ratio(calls - counters["ir.variant_misses"], calls), "ratio")
        hits = counters["sim.jit_source_hits"]
        out["sim.jit_source_hit_ratio"] = (
            _ratio(hits, hits + counters["sim.jit_source_misses"]), "ratio")
        return out

    def write_chrome_trace(self, path, process_name: str) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        spans = self.spans or []
        origin = min((span[1] for span in spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": process_name}}]
        for layer, start, end, parent, op_id in spans:
            events.append({
                "name": layer, "cat": layer.split(".")[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"op": op_id, "parent": parent},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
