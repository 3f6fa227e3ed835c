"""One tuner measurement: compile a configuration, count real cycles.

A *measurement cell* is ``(program, target, options, input sets, sim
tier)``.  Measuring it means compiling the program with exactly those
options (through the ordinary artifact-cached compile path), running
every input set on the requested simulator tier (the jit tier by
default -- real cycles, not the static predictor), and comparing the
simulated outputs against the independent IR-level oracle
(:mod:`repro.verify.oracle`).  The result is a plain
:class:`Measurement` record:

- ``cycles``  -- per-input-set cycle counts, ``total_cycles`` their sum
  (the search objective);
- ``words``   -- static code size (the deterministic tie-breaker);
- ``correct`` -- did every input set match the oracle?  A fast but
  wrong configuration is *measured* (the record is honest) but the
  search layer refuses to select it;
- ``error``   -- a captured compile/simulation failure.  An options
  combination a target rejects (:class:`CompileError`) is a valid
  search outcome, not a crash.

Records are content-addressed in the persistent
:class:`~repro.cache.ArtifactCache` (:meth:`get_record` /
:meth:`put_record`) keyed by every ingredient plus the code-version
stamp, so re-tuning a kernel is free: the second run replays the
measurement table byte-for-byte with zero fresh compiles and zero
fresh simulations (``tests/tune/test_measure.py`` pins this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.codegen.pipeline import RecordCompiler, RecordOptions

RECORD_FORMAT = 1

#: Measurements guard against runaway configurations with the same
#: step bound the conformance harness uses.
MAX_STEPS = 2_000_000


@dataclass
class Measurement:
    """One measured cell (see module docstring for field semantics)."""

    target: str
    options: Dict[str, object]
    cycles: List[int] = field(default_factory=list)
    total_cycles: int = 0
    words: int = 0
    correct: bool = False
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: Did this call replay a cached record (``True``) or actually
    #: compile-and-simulate (``False``)?  Never part of the cached
    #: record itself -- it describes this run, not the cell.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json(self) -> dict:
        """The cacheable record (canonical; excludes ``cached``)."""
        return {
            "format": RECORD_FORMAT,
            "target": self.target,
            "options": self.options,
            "cycles": list(self.cycles),
            "total_cycles": self.total_cycles,
            "words": self.words,
            "correct": self.correct,
            "error": self.error,
            "error_type": self.error_type,
        }

    @staticmethod
    def from_json(record: dict, cached: bool = False) -> "Measurement":
        """Rebuild a measurement from its cached record."""
        return Measurement(
            target=record["target"],
            options=dict(record["options"]),
            cycles=[int(c) for c in record["cycles"]],
            total_cycles=int(record["total_cycles"]),
            words=int(record["words"]),
            correct=bool(record["correct"]),
            error=record.get("error"),
            error_type=record.get("error_type"),
            cached=cached,
        )


def measurement_key(program, target_name: str, options: RecordOptions,
                    input_sets: Sequence[Mapping[str, object]],
                    sim: str = "jit") -> Optional[str]:
    """Content key of one measurement cell (``None``: uncacheable).

    The :func:`repro.cache.content_key` recipe over the program in
    corpus spec form, the options through the canonical
    :func:`~repro.cache.options_payload` normalization, the input
    environments and the simulator tier.
    """
    from repro.cache import content_key, options_payload
    from repro.verify.corpus import program_to_spec
    return content_key(lambda: {
        "format": RECORD_FORMAT,
        "kind": "measurement",
        "program": program_to_spec(program),
        "target": target_name,
        "options": options_payload(options),
        "inputs": list(input_sets),
        "sim": sim,
    })


# ----------------------------------------------------------------------
# Per-process pools (targets are pooled by repro.api._resolve_target)
# ----------------------------------------------------------------------

#: Oracle-expected outputs per (program-ish key): computed once per
#: program and input batch, shared by every candidate configuration.
_EXPECTED: Dict[str, List[Dict[str, object]]] = {}
_EXPECTED_LIMIT = 64


def clear_measure_pools() -> None:
    """Drop this process's pooled targets and oracle results."""
    from repro.api import _clear_target_pool
    _clear_target_pool()
    _EXPECTED.clear()


def _outputs_of(program, env: Mapping[str, object]) -> Dict[str, object]:
    return {name: env[name]
            for name, symbol in program.symbols.items()
            if symbol.role == "output" and name in env}


def expected_outputs(program, target,
                     input_sets: Sequence[Mapping[str, object]]
                     ) -> List[Dict[str, object]]:
    """Oracle-expected outputs per input set (pooled per process).

    This is the differential safety net's reference side: it shares
    nothing with the compiler or the simulators (see
    :mod:`repro.verify.oracle`), so "tuned code still agrees" is
    evidence, not a tautology.
    """
    try:
        from repro.verify.corpus import program_to_spec
        cache_key = json.dumps({
            "program": program_to_spec(program),
            "inputs": list(input_sets),
            "width": target.fpc.width,
        }, sort_keys=True)
    except Exception:                                  # noqa: BLE001
        cache_key = None
    if cache_key is not None and cache_key in _EXPECTED:
        return _EXPECTED[cache_key]
    from repro.verify.oracle import Oracle
    oracle = Oracle(target.fpc)
    expected = [_outputs_of(program, oracle.run(program, inputs))
                for inputs in input_sets]
    if cache_key is not None:
        if len(_EXPECTED) >= _EXPECTED_LIMIT:
            _EXPECTED.clear()
        _EXPECTED[cache_key] = expected
    return expected


# ----------------------------------------------------------------------
# The measurement itself
# ----------------------------------------------------------------------

def measure_cell(program, target_name: str, options: RecordOptions,
                 input_sets: Sequence[Mapping[str, object]],
                 sim: str = "jit") -> Measurement:
    """Measure one cell, through the persistent record cache.

    With an active :mod:`repro.cache`, a previously measured cell is
    answered from its stored record (``cached=True``) without
    compiling or simulating anything; otherwise the cell is compiled
    (artifact-cached itself), simulated over every input set, checked
    against the oracle, and the record stored for next time.
    """
    from repro.cache import active_cache
    cache = active_cache()
    key = None
    if cache is not None:
        key = measurement_key(program, target_name, options,
                              input_sets, sim)
        if key is not None:
            record = cache.get_record(key)
            if record is not None \
                    and record.get("format") == RECORD_FORMAT:
                return Measurement.from_json(record, cached=True)

    measurement = _measure_uncached(program, target_name, options,
                                    input_sets, sim)
    if cache is not None and key is not None:
        cache.put_record(key, measurement.to_json())
    return measurement


def _measure_uncached(program, target_name: str, options: RecordOptions,
                      input_sets: Sequence[Mapping[str, object]],
                      sim: str) -> Measurement:
    """Compile + simulate + oracle-check one cell (no record cache)."""
    measurement = Measurement(target=target_name,
                              options=options.to_dict())
    from repro.api import _resolve_target
    target = _resolve_target(target_name)
    try:
        compiled = RecordCompiler(target, options).compile(program)
    except Exception as exc:                           # noqa: BLE001
        measurement.error = str(exc)
        measurement.error_type = type(exc).__name__
        return measurement
    measurement.words = compiled.words()

    from repro.sim.harness import run_compiled
    try:
        expected = expected_outputs(program, target, input_sets)
        correct = True
        for inputs, want in zip(input_sets, expected):
            env, state = run_compiled(compiled, inputs, sim=sim,
                                      max_steps=MAX_STEPS)
            measurement.cycles.append(state.cycles)
            if _outputs_of(program, env) != want:
                correct = False
        measurement.total_cycles = sum(measurement.cycles)
        measurement.correct = correct
    except Exception as exc:                           # noqa: BLE001
        measurement.error = str(exc)
        measurement.error_type = type(exc).__name__
        measurement.cycles = []
        measurement.total_cycles = 0
        measurement.correct = False
    return measurement
