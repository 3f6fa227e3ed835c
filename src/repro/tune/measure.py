"""Tuner measurements: compile a configuration, count real cycles.

A *measurement* is ``(program, target, options, input sets, sim
tier)``.  Measuring it means compiling the program with exactly those
options (without the artifact cache: the measurement record is the
candidate's cache, see :class:`~repro.codegen.pipeline.SelectionMemo`),
running every input set on the requested simulator tier (the jit tier by
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

Every measurement goes through a :class:`TuneCell`: one program, target,
input batch and tier, whose candidates differ only in their options.
The cell shares what those candidates have in common:

- selection runs once per selection key
  (:data:`~repro.codegen.pipeline.SELECTION_FIELDS`), and each
  candidate runs loop optimization and peephole on a copy of the
  selected code;
- the tail -- addressing, compaction, mode minimization and loop
  finalization -- runs once per distinct post-peephole code and tail
  key (:data:`~repro.codegen.pipeline.TAIL_FIELDS`): a later candidate
  with the same pair takes a copy of the finished code and the same
  memory map;
- one BURS matcher per metric serves every candidate, since label
  states depend only on grammar, metric and subtree;
- the oracle reference is computed once, and each distinct compiled
  program (by :func:`~repro.sim.harness.simulation_identity`) is
  simulated and oracle-checked once: a later candidate with the same
  identity takes its cycles, verdict and error, with its own options
  and words;
- the record key's options-free half (:func:`record_keys`) is
  serialized once, and each candidate hashes it with its options.

The tuner builds one cell per :func:`~repro.tune.search.tune_program`
call and measures every candidate through it, in the calling process.
A cell lives only as long as its caller holds it.

Records are content-addressed in the persistent
:class:`~repro.cache.ArtifactCache` (:meth:`get_record` /
:meth:`put_record`) keyed by every ingredient plus the code-version
stamp -- by options, not by listing -- so re-tuning a kernel is free:
the second run replays the measurement table byte-for-byte with zero
fresh compiles and zero fresh simulations
(``tests/tune/test_measure.py`` pins this).  ``cached`` marks such a
replay only; a result reused inside a cell is a fresh measurement.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.codegen.pipeline import RecordCompiler, RecordOptions, \
    SelectionMemo

RECORD_FORMAT = 1

#: Measurements guard against runaway configurations with the same
#: step bound the conformance harness uses.
MAX_STEPS = 2_000_000


@dataclass
class Measurement:
    """One measured candidate (see module docstring for field
    semantics)."""

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


def record_keys(program, target_name: str,
                input_sets: Sequence[Mapping[str, object]],
                sim: str = "jit") -> Callable[[RecordOptions], str]:
    """The measurement-key recipe, options-free half serialized once.

    That half is canonical JSON of the record format, the program in
    corpus spec form, the target, the input environments, the simulator
    tier and the code-version stamp.  The returned function appends the
    options, through the canonical :func:`~repro.cache.options_payload`
    normalization, and hashes the result (SHA-256).  A JSON object ends
    where its closing brace does, so no two ingredient sets share a
    payload.  Raises when an ingredient does not serialize.
    """
    from repro.cache import code_version, options_payload
    from repro.verify.corpus import program_to_spec
    head = json.dumps({
        "format": RECORD_FORMAT,
        "kind": "measurement",
        "program": program_to_spec(program),
        "target": target_name,
        "inputs": list(input_sets),
        "sim": sim,
        "code": code_version(),
    }, sort_keys=True) + "\n"

    def key(options: RecordOptions) -> str:
        payload = head + json.dumps(options_payload(options), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()
    return key


def measurement_key(program, target_name: str, options: RecordOptions,
                    input_sets: Sequence[Mapping[str, object]],
                    sim: str = "jit",
                    on_error: Optional[Callable[[Exception], None]] = None
                    ) -> Optional[str]:
    """Content key of one measurement (``None``: uncacheable).

    The :func:`record_keys` recipe, under which a :class:`TuneCell`
    stores its records.  ``on_error`` hears why a measurement has no
    key.
    """
    try:
        return record_keys(program, target_name, input_sets, sim)(options)
    except Exception as exc:                           # noqa: BLE001
        if on_error is not None:
            on_error(exc)
        return None


def clear_measure_pools() -> None:
    """Drop this process's pooled target models (cold-start runs)."""
    from repro.api import _clear_target_pool
    _clear_target_pool()


def _outputs_of(program, env: Mapping[str, object]) -> Dict[str, object]:
    return {name: env[name]
            for name, symbol in program.symbols.items()
            if symbol.role == "output" and name in env}


# ----------------------------------------------------------------------
# The cell
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Run:
    """What simulating one compiled program over the cell's inputs gave."""

    cycles: Tuple[int, ...] = ()
    correct: bool = False
    error: Optional[str] = None
    error_type: Optional[str] = None


class TuneCell:
    """One program, target, input batch and tier, measured under many
    options; shares their selections, matchers, tails, oracle
    reference, simulations and record-key serialization (see the
    module docstring).

    Hold a cell only as long as the candidates it measures: it keeps
    every selection, matcher, finished tail and simulation result of
    the cell.
    """

    def __init__(self, program, target_name: str,
                 input_sets: Sequence[Mapping[str, object]],
                 sim: str = "jit") -> None:
        from repro.api import _resolve_target
        self.program = program
        self.target_name = target_name
        self.input_sets = input_sets
        self.sim = sim
        self.target = _resolve_target(target_name)
        self.selections = SelectionMemo()
        self._expected: Optional[List[Dict[str, object]]] = None
        self._runs: Dict[Tuple, _Run] = {}
        self._keys: Optional[Callable[[RecordOptions], str]] = None

    def record_key(self, options: RecordOptions,
                   on_error: Optional[Callable[[Exception], None]] = None
                   ) -> Optional[str]:
        """:func:`measurement_key` of one candidate, from the options-free
        half this cell serialized on its first call."""
        try:
            if self._keys is None:
                self._keys = record_keys(self.program, self.target_name,
                                         self.input_sets, self.sim)
            return self._keys(options)
        except Exception as exc:                       # noqa: BLE001
            if on_error is not None:
                on_error(exc)
            return None

    def measure(self, options: RecordOptions) -> Measurement:
        """Compile + simulate + oracle-check one candidate (no record
        cache)."""
        measurement = Measurement(target=self.target_name,
                                  options=options.to_dict())
        try:
            compiled = RecordCompiler(self.target, options,
                                      memo=self.selections) \
                .compile(self.program)
        except Exception as exc:                       # noqa: BLE001
            measurement.error = str(exc)
            measurement.error_type = type(exc).__name__
            return measurement
        measurement.words = compiled.words()

        from repro.sim.harness import simulation_identity
        identity = simulation_identity(compiled, self.sim)
        run = self._runs.get(identity)
        if run is None:
            run = self._runs[identity] = self._simulate(compiled)
        measurement.cycles = list(run.cycles)
        measurement.total_cycles = sum(run.cycles)
        measurement.correct = run.correct
        measurement.error = run.error
        measurement.error_type = run.error_type
        return measurement

    def _expected_outputs(self) -> List[Dict[str, object]]:
        """The oracle's outputs per input set, computed once per cell.

        This is the differential safety net's reference side: it shares
        nothing with the compiler or the simulators (see
        :mod:`repro.verify.oracle`), so "tuned code still agrees" is
        evidence, not a tautology.
        """
        if self._expected is None:
            from repro.verify.oracle import Oracle
            oracle = Oracle(self.target.fpc)
            self._expected = [
                _outputs_of(self.program, oracle.run(self.program, inputs))
                for inputs in self.input_sets]
        return self._expected

    def _simulate(self, compiled) -> _Run:
        from repro.sim.harness import run_compiled
        try:
            expected = self._expected_outputs()
            cycles = []
            correct = True
            for inputs, want in zip(self.input_sets, expected):
                env, state = run_compiled(compiled, inputs, sim=self.sim,
                                          max_steps=MAX_STEPS)
                cycles.append(state.cycles)
                if _outputs_of(self.program, env) != want:
                    correct = False
        except Exception as exc:                       # noqa: BLE001
            return _Run(error=str(exc), error_type=type(exc).__name__)
        return _Run(cycles=tuple(cycles), correct=correct)


# ----------------------------------------------------------------------
# The measurement itself
# ----------------------------------------------------------------------

def measure_cell(cell: TuneCell, options: RecordOptions) -> Measurement:
    """Measure one candidate of ``cell``, through the persistent record
    cache.

    With an active :mod:`repro.cache`, a previously measured candidate
    is answered from its stored record (``cached=True``) without
    compiling or simulating anything; otherwise the cell measures it,
    and the record is stored for next time.
    """
    from repro.cache import active_cache
    cache = active_cache()
    key = None
    if cache is not None:
        key = cell.record_key(options, on_error=cache.note_uncacheable)
        if key is not None:
            record = cache.get_record(key)
            if record is not None \
                    and record.get("format") == RECORD_FORMAT:
                return Measurement.from_json(record, cached=True)

    measurement = cell.measure(options)
    if cache is not None and key is not None:
        cache.put_record(key, measurement.to_json())
    return measurement
