"""The staged, budgeted configuration search.

Stage 0 measures the default configuration (the yardstick every other
cell is judged against).  Stage 1 *screens*: every single-knob
deviation from the default (:func:`repro.tune.space.screening_candidates`)
is measured.  Stage 2 *focuses*: the knobs whose best deviation
strictly improved total cycles become "movers", and the cross-product
of their improving values (plus leave-alone) is enumerated
deterministically and measured up to the remaining evaluation budget.
The budget counts unique configurations measured, default included --
cached record replays count too, so a re-tune walks the identical
candidate list.

Selection is deterministic and oracle-gated: candidates are ranked by
``(total cycles, words, canonical options JSON)``; any candidate whose
measurement failed the oracle comparison (or failed to compile) is
*rejected* regardless of speed, and the gate walks down the ranking
until a configuration that agrees with the oracle wins.  The default
configuration wins ties, so an entry is only recorded when the tuned
configuration is strictly faster.

One :func:`tune_program` call is one *tune cell*: one program, target,
input batch and tier.  Every candidate is measured through one
:class:`~repro.tune.measure.TuneCell` built for the call and dropped
when it returns, so candidates that agree on the selection options
select once, and candidates that compile to the same program simulate
once.  Every candidate is measured in the calling process by one
:func:`measure_cell` call: a candidate takes milliseconds, less than
starting a process pool would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.codegen.pipeline import RecordOptions
from repro.tune.measure import Measurement, TuneCell, measure_cell
from repro.tune.space import cross_candidates, relevant_knobs, \
    screening_candidates

DEFAULT_BUDGET = 48
DEFAULT_INPUTS = 2


class TuneError(RuntimeError):
    """A tune run cannot proceed (bad program, no measurable default)."""


@dataclass(frozen=True)
class TuneConfig:
    """Everything that determines a tune run's candidate list."""

    budget: int = DEFAULT_BUDGET
    inputs_per_program: int = DEFAULT_INPUTS
    sim: str = "jit"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("the evaluation budget must be >= 1")
        if self.inputs_per_program < 1:
            raise ValueError("need at least one input set")


@dataclass
class TuneOutcome:
    """The full result of tuning one (program, target) cell."""

    program: str
    target: str
    config: TuneConfig
    default: Optional[Measurement] = None
    #: Every measured candidate, in measurement order (default first,
    #: screening, then cross-product) -- the "full measurement table".
    table: List[Measurement] = field(default_factory=list)
    best_options: Optional[Dict[str, object]] = None
    best_cycles: Optional[int] = None
    #: Options JSON of fast-but-wrong (or unmeasurable) candidates the
    #: oracle gate rejected while walking the ranking.
    rejected: List[Dict[str, object]] = field(default_factory=list)
    movers: List[str] = field(default_factory=list)
    budget_used: int = 0
    fresh_measurements: int = 0
    cached_measurements: int = 0
    elapsed_seconds: float = 0.0

    @property
    def improved(self) -> bool:
        """Did a non-default configuration strictly win?"""
        return (self.best_options is not None
                and self.default is not None
                and self.best_cycles is not None
                and self.best_cycles < self.default.total_cycles)

    @property
    def tuned_options(self) -> Optional[RecordOptions]:
        """The winning options object (``None``: default won)."""
        if not self.improved:
            return None
        return RecordOptions.from_dict(self.best_options)

    def to_json(self) -> dict:
        """JSON view; the ``table`` is byte-stable across re-runs
        (no wall-clock inside it)."""
        return {
            "program": self.program,
            "target": self.target,
            "budget": self.config.budget,
            "inputs_per_program": self.config.inputs_per_program,
            "sim": self.config.sim,
            "default_cycles": (self.default.total_cycles
                               if self.default else None),
            "default_words": (self.default.words
                              if self.default else None),
            "best_options": self.best_options,
            "best_cycles": self.best_cycles,
            "improved": self.improved,
            "movers": list(self.movers),
            "rejected": list(self.rejected),
            "budget_used": self.budget_used,
            "table": [m.to_json() for m in self.table],
        }


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------

def _rank_key(measurement: Measurement) -> Tuple:
    return (measurement.total_cycles, measurement.words,
            json.dumps(measurement.options, sort_keys=True))


def tune_program(program,
                 target: str = "tc25",
                 input_sets: Optional[
                     Sequence[Mapping[str, object]]] = None,
                 config: Optional[TuneConfig] = None,
                 default: Optional[RecordOptions] = None,
                 seed: int = 0) -> TuneOutcome:
    """Search the knob space for one (program, target); see module doc.

    ``input_sets`` defaults to :func:`default_input_sets` (seeded,
    deterministic).  ``default`` substitutes a different base
    configuration to deviate from (the ablation benchmarks tune
    around non-standard bases this way).
    """
    config = config or TuneConfig()
    default = default or RecordOptions()
    if input_sets is None:
        input_sets = default_input_sets(
            program, config.inputs_per_program, seed=seed)
    started = perf_counter()
    outcome = TuneOutcome(program=program.name, target=target,
                          config=config)
    cell = TuneCell(program, target, input_sets, config.sim)

    def account(measurements: Sequence[Measurement]) -> None:
        for measurement in measurements:
            outcome.table.append(measurement)
            outcome.budget_used += 1
            if measurement.cached:
                outcome.cached_measurements += 1
            else:
                outcome.fresh_measurements += 1

    # -- stage 0: the yardstick ----------------------------------------
    default_measurement = measure_cell(cell, default)
    account([default_measurement])
    outcome.default = default_measurement
    if not default_measurement.ok:
        raise TuneError(
            f"default configuration does not compile/simulate on "
            f"{target}: {default_measurement.error_type}: "
            f"{default_measurement.error}")

    # -- stage 1: screening --------------------------------------------
    remaining = config.budget - outcome.budget_used
    screening = screening_candidates(default, target)[:max(0, remaining)]
    screened = [measure_cell(cell, options) for _knob, options in screening]
    account(screened)

    # Movers: knobs with at least one correct, strictly-improving
    # deviation; keep each mover's improving values, best first.
    improving: Dict[str, List[Tuple[Tuple, object]]] = {}
    for (knob, options), measurement in zip(screening, screened):
        if not measurement.ok or not measurement.correct:
            continue
        if measurement.total_cycles < default_measurement.total_cycles:
            improving.setdefault(knob, []).append(
                (_rank_key(measurement), getattr(options, knob)))
    movers = {
        knob: [value for _key, value in sorted(values)]
        for knob, values in improving.items()
    }
    outcome.movers = [knob for knob, _values in relevant_knobs(target)
                      if knob in movers]

    # -- stage 2: focused cross-product --------------------------------
    remaining = config.budget - outcome.budget_used
    if len(movers) > 1 and remaining > 0:
        seen = {json.dumps(m.options, sort_keys=True)
                for m in outcome.table}
        crossing = [options for options in cross_candidates(default,
                                                            movers)
                    if json.dumps(options.to_dict(), sort_keys=True)
                    not in seen]
        crossing = crossing[:remaining]
        account([measure_cell(cell, options) for options in crossing])

    # -- selection + oracle gate ---------------------------------------
    ranked = sorted(
        (m for m in outcome.table if m.ok),
        key=_rank_key)
    best: Optional[Measurement] = None
    default_key = _rank_key(default_measurement) \
        if default_measurement.correct else None
    for candidate in ranked:
        if default_key is not None \
                and _rank_key(candidate) >= default_key:
            # Nothing left can beat the (correct) default: ties and
            # everything slower resolve to the default configuration.
            break
        if verify_selection(candidate):
            best = candidate
            break
        outcome.rejected.append(dict(candidate.options))
    if best is not None:
        outcome.best_options = dict(best.options)
        outcome.best_cycles = best.total_cycles
    elif default_measurement.correct:
        outcome.best_options = dict(default_measurement.options)
        outcome.best_cycles = default_measurement.total_cycles
    else:
        raise TuneError(
            f"no configuration of {program.name} on {target} agrees "
            "with the oracle -- this is a compiler bug, not a tuning "
            "outcome; run repro.verify on this program")
    outcome.elapsed_seconds = perf_counter() - started
    return outcome


def verify_selection(measurement: Measurement) -> bool:
    """The oracle gate: may this measurement be selected as best?

    Every measurement already carries the differential verdict of its
    own compile-and-simulate against the independent IR-level oracle
    (see :func:`repro.tune.measure.measure_cell`); the gate re-checks
    it at selection time so a fast-but-wrong configuration -- however
    it got into the table -- is rejected before it can be recorded.
    Split out (rather than inlined in the ranking) so tests can prove
    the gate fires.
    """
    return measurement.ok and measurement.correct


# ----------------------------------------------------------------------
# Inputs + entry points
# ----------------------------------------------------------------------

def default_input_sets(program, count: int = DEFAULT_INPUTS,
                       seed: int = 0) -> List[Dict[str, object]]:
    """Seeded, deterministic input environments for any program.

    DSPStone kernels use their registered input makers (the same
    distributions Table 1 verifies against); everything else draws
    from the conformance generator's input model.  Identical
    ``(program, count, seed)`` always yields identical environments,
    which the measurement-cache key depends on.
    """
    import random

    from repro.dspstone import KERNEL_NAMES, kernel
    if program.name in KERNEL_NAMES:
        spec = kernel(program.name)
        if json.dumps(_spec_of(spec.program), sort_keys=True) \
                == json.dumps(_spec_of(program), sort_keys=True):
            return [spec.inputs(seed=seed + k) for k in range(count)]
    from repro.verify.progen import generate_inputs
    return [generate_inputs(random.Random(seed * 1_000_003 + k),
                            program)
            for k in range(count)]


def _spec_of(program) -> dict:
    from repro.verify.corpus import program_to_spec
    return program_to_spec(program)


def tune_kernel(name: str,
                target: str = "tc25",
                config: Optional[TuneConfig] = None,
                jobs: Optional[int] = None,
                seed: int = 0) -> TuneOutcome:
    """Tune one DSPStone kernel by registry name, in this process
    (``jobs`` may only be ``None`` or ``1``)."""
    # ``jobs`` stays only because benchmarks/e2e/workloads.py passes
    # jobs=1; it goes once that call stops passing it.
    if jobs not in (None, 1):
        raise ValueError(f"tune_kernel measures in process; jobs must be "
                         f"None or 1, not {jobs!r}")
    from repro.dspstone import kernel
    return tune_program(kernel(name).program, target=target,
                        config=config, seed=seed)
