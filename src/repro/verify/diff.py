"""Cross-compiler / cross-simulator equivalence checking.

One generated program fans out over the full conformance matrix::

    {RECORD, baseline} x {tc25, m56, risc16, asip}
                       x {Machine, FastMachine, JitMachine}

(the baseline compiler only exists for the TC25 family, so its cells
only appear there).  Every cell's final output environment is compared
against the independent IR-level oracle, and disagreements are
*classified* so a red run points at the right layer:

- ``compile-error``       the compiler refused or crashed on a legal
                          program;
- ``sim-crash``           the simulator raised while executing
                          compiled code;
- ``simulator``           the simulator tiers disagree on the *same*
                          compiled code (a decode/translation bug);
- ``overflow-semantics``  both simulators agree, the oracle disagrees,
                          but flipping the oracle's overflow mode
                          reproduces the simulated result (a wrap-vs-
                          saturate contract violation);
- ``compiler``            both simulators agree and no overflow story
                          explains the difference -- miscompilation.

:func:`run_conformance` is the fuzz loop: generate, check, optionally
shrink failures into ``tests/corpus/`` reproducers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baseline.compiler import BaselineCompiler
from repro.codegen.pipeline import RecordCompiler
from repro.ir.fixedpoint import FixedPointContext, Overflow
from repro.ir.program import Program
from repro.sim.harness import run_many
from repro.verify.oracle import Oracle, OracleError
from repro.verify.progen import ProgenConfig, generate_inputs, generate_program

DEFAULT_TARGETS: Tuple[str, ...] = ("tc25", "m56", "risc16", "asip")
SIM_NAMES: Tuple[str, ...] = ("reference", "fast", "jit")


class MismatchClass:
    """Triage labels for conformance disagreements."""

    COMPILE_ERROR = "compile-error"
    SIM_CRASH = "sim-crash"
    SIMULATOR = "simulator"
    OVERFLOW = "overflow-semantics"
    COMPILER = "compiler"


@dataclass(frozen=True)
class Cell:
    """One point of the conformance matrix."""

    compiler: str
    target: str
    sim: str

    def describe(self) -> str:
        """``compiler/target/sim`` label used in reports."""
        return f"{self.compiler}/{self.target}/{self.sim}"


@dataclass
class CellOutcome:
    """Result of one program in one matrix cell."""

    cell: Cell
    ok: bool
    mismatch_class: str = ""
    detail: str = ""
    # For mismatches: (input set index, symbol, expected, got) samples.
    samples: List[Tuple[int, str, object, object]] = field(
        default_factory=list)

    def describe(self) -> str:
        """One-line outcome text."""
        if self.ok:
            return f"{self.cell.describe()}: ok"
        return (f"{self.cell.describe()}: {self.mismatch_class}"
                f" ({self.detail})" if self.detail else
                f"{self.cell.describe()}: {self.mismatch_class}")


@dataclass
class ProgramVerdict:
    """All cell outcomes for one generated program.

    Besides the triage outcomes the verdict carries the program's
    share of the run's performance accounting -- compiles performed,
    artifact-cache hits, and per-stage compile timings -- so parallel
    workers can report throughput without a side channel and the CLI
    can attribute a regression to a pipeline stage.  None of these
    fields participate in triage comparisons.
    """

    name: str
    seed: int
    outcomes: List[CellOutcome] = field(default_factory=list)
    compiles: int = 0
    cache_hits: int = 0
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def mismatches(self) -> List[CellOutcome]:
        """The failing cells only."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def make_target(name: str):
    """The process's pooled target model for a registry name."""
    from repro.api import _resolve_target
    return _resolve_target(name)


def compilers_for(target_name: str) -> Tuple[str, ...]:
    """Compiler names applicable to a target (baseline is TC25-only)."""
    if target_name == "tc25":
        return ("record", "baseline")
    return ("record",)


def _make_compiler(name: str, target):
    if name == "record":
        return RecordCompiler(target)
    if name == "baseline":
        return BaselineCompiler(target)
    raise ValueError(f"unknown compiler {name!r}")


class VerifySession:
    """Compilers and oracles pooled across ``check_program`` calls.

    A session keeps one compiler per matrix column alive (over the
    process's pooled target models, see :func:`make_target`), so
    consecutive programs reuse the memoized grammar and its rule plans
    -- exactly the warm-compiler behaviour of :mod:`repro.evalx.farm`
    workers, which keep one session per process for the lifetime of
    the pool.  Nothing per program is kept: label states live for one
    selection, and the tree-keyed memos for one intern-table generation
    (:data:`repro.ir.trees.INTERN_LIMIT`), so the session stays flat.

    Pooling is transparent: all pooled objects are either immutable
    configuration or caches whose hits are byte-identical to a cold
    computation (enforced by ``tests/codegen/test_label_cache.py``), so
    a session-run matrix and a fresh-per-program matrix produce the
    same triage report bit for bit.
    """

    def __init__(self):
        self._compilers: Dict[Tuple[str, str], object] = {}
        self._oracles: Dict[int, Oracle] = {}

    def target(self, name: str):
        """The pooled target model for ``name``."""
        return make_target(name)

    def compiler(self, compiler_name: str, target_name: str):
        """The pooled compiler instance for a matrix column (default
        options)."""
        key = (compiler_name, target_name)
        compiler = self._compilers.get(key)
        if compiler is None:
            compiler = _make_compiler(compiler_name,
                                      self.target(target_name))
            self._compilers[key] = compiler
        return compiler

    def oracle(self, width: int) -> Oracle:
        """The pooled wrap-mode oracle for a word width."""
        oracle = self._oracles.get(width)
        if oracle is None:
            oracle = Oracle(FixedPointContext(width))
            self._oracles[width] = oracle
        return oracle


def _outputs_of(program: Program, env: Mapping[str, object]
                ) -> Dict[str, object]:
    return {name: env[name]
            for name, symbol in program.symbols.items()
            if symbol.role == "output" and name in env}


def _first_differences(expected: Mapping[str, object],
                       got: Mapping[str, object],
                       index: int, limit: int = 3
                       ) -> List[Tuple[int, str, object, object]]:
    samples = []
    for symbol in sorted(expected):
        if expected[symbol] != got.get(symbol):
            samples.append((index, symbol, expected[symbol],
                            got.get(symbol)))
            if len(samples) >= limit:
                break
    return samples


def _account_compile(verdict: ProgramVerdict, compiled) -> None:
    """Fold one compile into the verdict's performance counters.

    Artifact-cache hits are counted separately and contribute no stage
    timings: their stored timings describe a historical compile, and
    adding them would double-count work this run never did.
    """
    if compiled.stats.get("artifact_cache") == "hit":
        verdict.cache_hits += 1
        return
    verdict.compiles += 1
    for stage, seconds in (compiled.stats.get("timings") or {}).items():
        verdict.timings[stage] = verdict.timings.get(stage, 0.0) + seconds


# ----------------------------------------------------------------------
# Single-program matrix check
# ----------------------------------------------------------------------

def check_program(program: Program,
                  input_sets: Sequence[Mapping[str, object]],
                  targets: Sequence[str] = DEFAULT_TARGETS,
                  fault=None,
                  seed: int = 0,
                  session: Optional[VerifySession] = None
                  ) -> ProgramVerdict:
    """Run ``program`` through the conformance matrix against the oracle.

    ``fault`` (a :class:`repro.selftest.generator.Fault`) injects a
    decoder fault into every simulation -- used to prove the harness
    *detects* seeded bugs, and by the shrinker's reproducer replay.

    ``session`` reuses pooled compilers/oracles across calls (see
    :class:`VerifySession`); without one, they are built fresh, as a
    standalone call always did.  Target models are the process's
    pooled ones either way.
    """
    if session is None:
        session = VerifySession()
    verdict = ProgramVerdict(name=program.name, seed=seed)
    oracle_cache: Dict[int, List[Dict[str, object]]] = {}

    for target_name in targets:
        target = session.target(target_name)
        width = target.fpc.width
        if width not in oracle_cache:
            oracle = session.oracle(width)
            oracle_cache[width] = [
                _outputs_of(program, oracle.run(program, inputs))
                for inputs in input_sets]
        expected_sets = oracle_cache[width]

        for compiler_name in compilers_for(target_name):
            try:
                compiled = session.compiler(compiler_name, target_name) \
                    .compile(program)
                _account_compile(verdict, compiled)
            except Exception as exc:
                verdict.outcomes.append(CellOutcome(
                    cell=Cell(compiler_name, target_name, "*"),
                    ok=False,
                    mismatch_class=MismatchClass.COMPILE_ERROR,
                    detail=f"{type(exc).__name__}: {exc}"))
                continue

            run_target = None
            if fault is not None:
                from repro.selftest.generator import FaultySim
                run_target = FaultySim(target, fault)

            per_sim: Dict[str, Optional[List[Dict[str, object]]]] = {}
            for sim_name in SIM_NAMES:
                cell = Cell(compiler_name, target_name, sim_name)
                try:
                    results = run_many(compiled, input_sets,
                                       sim=sim_name,
                                       target=run_target)
                except Exception as exc:
                    per_sim[sim_name] = None
                    verdict.outcomes.append(CellOutcome(
                        cell=cell, ok=False,
                        mismatch_class=MismatchClass.SIM_CRASH,
                        detail=f"{type(exc).__name__}: {exc}"))
                    continue
                per_sim[sim_name] = [
                    _outputs_of(program, env) for env, _state in results]

            _classify(program, verdict, compiler_name, target_name,
                      per_sim, expected_sets, input_sets, target.fpc)
    return verdict


def _classify(program: Program, verdict: ProgramVerdict,
              compiler_name: str, target_name: str,
              per_sim: Dict[str, Optional[List[Dict[str, object]]]],
              expected_sets: Sequence[Mapping[str, object]],
              input_sets: Sequence[Mapping[str, object]],
              fpc: FixedPointContext) -> None:
    """Append outcomes for the sims that ran, with triage classes."""
    ran = {name: outs for name, outs in per_sim.items()
           if outs is not None}
    ran_outputs = list(ran.values())
    sims_disagree = any(outputs != ran_outputs[0]
                        for outputs in ran_outputs[1:])
    saturating: Optional[List[Dict[str, object]]] = None

    for sim_name, outputs_sets in ran.items():
        cell = Cell(compiler_name, target_name, sim_name)
        bad_index = next(
            (k for k, (expected, got)
             in enumerate(zip(expected_sets, outputs_sets))
             if expected != got), None)
        if bad_index is None:
            verdict.outcomes.append(CellOutcome(cell=cell, ok=True))
            continue
        if sims_disagree:
            mismatch_class = MismatchClass.SIMULATOR
        else:
            if saturating is None:
                sat_oracle = Oracle(fpc.with_overflow(Overflow.SATURATE))
                try:
                    saturating = [
                        _outputs_of(program, sat_oracle.run(program, inp))
                        for inp in input_sets]
                except OracleError:
                    saturating = []
            mismatch_class = (
                MismatchClass.OVERFLOW
                if saturating and saturating == outputs_sets
                else MismatchClass.COMPILER)
        verdict.outcomes.append(CellOutcome(
            cell=cell, ok=False, mismatch_class=mismatch_class,
            detail=f"first divergence at input set {bad_index}",
            samples=_first_differences(expected_sets[bad_index],
                                       outputs_sets[bad_index],
                                       bad_index)))


def still_fails(program: Program,
                input_sets: Sequence[Mapping[str, object]],
                targets: Sequence[str] = DEFAULT_TARGETS,
                fault=None,
                cell: Optional[Cell] = None) -> bool:
    """Shrink predicate: does the program still expose a mismatch?

    With ``cell`` the failure must reproduce in that exact matrix cell
    (the shrinker then cannot wander onto a different bug); without it
    any mismatch anywhere in the matrix counts.
    """
    verdict = check_program(program, input_sets, targets=targets,
                            fault=fault)
    if cell is None:
        return not verdict.ok
    return any(outcome.cell == cell and not outcome.ok
               for outcome in verdict.outcomes)


def instruction_count(program: Program, compiler_name: str = "record",
                      target_name: str = "tc25") -> int:
    """Number of machine instructions a program compiles to.

    The yardstick for "minimal reproducer": acceptance for seeded
    decoder faults is a reproducer of at most a handful of
    instructions.
    """
    from repro.codegen.asm import AsmInstr
    target = make_target(target_name)
    compiled = _make_compiler(compiler_name, target).compile(program)
    return sum(1 for item in compiled.code if isinstance(item, AsmInstr))


# ----------------------------------------------------------------------
# Fuzz loop
# ----------------------------------------------------------------------

@dataclass
class ConformanceReport:
    """Aggregate of a fuzz run.

    Triage content (verdicts, classes, mismatch details) is a pure
    function of ``(seed, count, targets, config)`` -- the same at any
    worker count, with or without the artifact cache.
    :meth:`triage_json` serializes exactly that stable subset;
    :meth:`to_json` adds the run's performance measurements on top.
    """

    seed: int
    count: int
    targets: Tuple[str, ...]
    verdicts: List[ProgramVerdict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    budget_exhausted: bool = False
    jobs: int = 1
    #: decode/jit cache+codegen counters captured at the end of the run
    #: (this process only; parallel workers keep their own counters).
    sim_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def mismatches(self) -> List[Tuple[ProgramVerdict, CellOutcome]]:
        """Every failing (program, cell) pair."""
        return [(verdict, outcome)
                for verdict in self.verdicts
                for outcome in verdict.mismatches]

    @property
    def cells_checked(self) -> int:
        return sum(len(verdict.outcomes) for verdict in self.verdicts)

    def class_counts(self) -> Dict[str, int]:
        """Mismatch tally per triage class."""
        counts: Dict[str, int] = {}
        for _verdict, outcome in self.mismatches:
            counts[outcome.mismatch_class] = \
                counts.get(outcome.mismatch_class, 0) + 1
        return counts

    def compile_counts(self) -> Dict[str, int]:
        """Aggregate compile / artifact-cache-hit tallies."""
        return {
            "compiles": sum(v.compiles for v in self.verdicts),
            "artifact_hits": sum(v.cache_hits for v in self.verdicts),
        }

    def stage_timings(self) -> Dict[str, float]:
        """Total wall-clock per compile stage across all fresh compiles."""
        totals: Dict[str, float] = {}
        for verdict in self.verdicts:
            for stage, seconds in verdict.timings.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    @property
    def programs_per_second(self) -> float:
        return (len(self.verdicts) / self.elapsed_seconds
                if self.elapsed_seconds else 0.0)

    @property
    def cells_per_second(self) -> float:
        return (self.cells_checked / self.elapsed_seconds
                if self.elapsed_seconds else 0.0)

    def summary(self) -> str:
        """Human-readable multi-line run summary."""
        counts = self.compile_counts()
        lines = [
            f"conformance: {len(self.verdicts)} programs x "
            f"{{record,baseline}} x {{{','.join(self.targets)}}} x "
            f"{{{','.join(SIM_NAMES)}}} = {self.cells_checked} cells "
            f"in {self.elapsed_seconds:.1f}s "
            f"({self.programs_per_second:.1f} programs/s, "
            f"jobs={self.jobs})",
            f"  compiles: {counts['compiles']} fresh, "
            f"{counts['artifact_hits']} artifact-cache hits",
        ]
        if self.budget_exhausted:
            lines.append("  (time budget exhausted before --count)")
        if not self.mismatches:
            lines.append("  all cells agree with the IR oracle")
            return "\n".join(lines)
        for mismatch_class, count in sorted(self.class_counts().items()):
            lines.append(f"  {mismatch_class}: {count}")
        for verdict, outcome in self.mismatches[:20]:
            lines.append(f"    {verdict.name} (seed {verdict.seed}): "
                         f"{outcome.describe()}")
        return "\n".join(lines)

    def triage_json(self) -> dict:
        """The deterministic triage record: no timings, no cache state.

        Byte-identical (after ``json.dumps``) between serial and
        parallel runs at any worker count, and between cold and warm
        artifact caches -- the equality the throughput benchmark and
        the degradation tests enforce.
        """
        return {
            "seed": self.seed,
            "count": self.count,
            "targets": list(self.targets),
            "programs": len(self.verdicts),
            "cells": self.cells_checked,
            "budget_exhausted": self.budget_exhausted,
            "class_counts": self.class_counts(),
            "mismatches": [{
                "program": verdict.name,
                "seed": verdict.seed,
                "cell": outcome.cell.describe(),
                "class": outcome.mismatch_class,
                "detail": outcome.detail,
                "samples": [list(sample) for sample in outcome.samples],
            } for verdict, outcome in self.mismatches],
        }

    def to_json(self) -> dict:
        """JSON-able run record (the CI artifact): triage + performance."""
        record = self.triage_json()
        counts = self.compile_counts()
        attempted = counts["compiles"] + counts["artifact_hits"]
        record["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        record["performance"] = {
            "jobs": self.jobs,
            "programs_per_second": round(self.programs_per_second, 2),
            "cells_per_second": round(self.cells_per_second, 2),
            "cache": {
                **counts,
                "hit_rate": (round(counts["artifact_hits"] / attempted, 4)
                             if attempted else 0.0),
            },
            "stage_timings_seconds": {
                stage: round(seconds, 4)
                for stage, seconds in sorted(self.stage_timings().items())
            },
            "simulators": self.sim_stats,
        }
        return record


def _generate_case(seed: int, index: int, inputs_per_program: int,
                   config: Optional[ProgenConfig]
                   ) -> Tuple[int, Program, List[Mapping[str, object]]]:
    """One fuzz case: (derived seed, program, input sets).

    The derived seed (``seed * 10**6 + index``) makes every failure
    reproducible in isolation without replaying the whole run, and the
    per-case ``random.Random`` makes generation independent of *when*
    (or in which process) the case is checked.
    """
    program_seed = seed * 1_000_000 + index
    rng = random.Random(program_seed)
    program = generate_program(rng, index, config)
    input_sets = [generate_inputs(rng, program)
                  for _ in range(inputs_per_program)]
    return program_seed, program, input_sets


def run_conformance(count: int = 20,
                    seed: int = 0,
                    targets: Sequence[str] = DEFAULT_TARGETS,
                    inputs_per_program: int = 2,
                    config: Optional[ProgenConfig] = None,
                    budget_seconds: Optional[float] = None,
                    fault=None,
                    on_program: Optional[Callable] = None,
                    jobs: int = 1,
                    start: int = 0,
                    session: Optional[VerifySession] = None
                    ) -> ConformanceReport:
    """Generate ``count`` programs and check each across the matrix.

    ``budget_seconds`` stops the loop early (the report records that it
    did).  ``jobs > 1`` fans the per-program matrix checks out over a
    worker-process pool (:func:`repro.evalx.farm.run_many`); triage
    results come back in program order, so the triage report is
    identical to a serial run -- only the wall clock changes.  When the
    pool cannot start, the fan-out silently degrades to the serial
    loop.

    ``start`` offsets the generated index range to ``[start, start +
    count)`` without changing any program: case ``index`` is a pure
    function of ``(seed, index, config)``, so a campaign shard covering
    ``start=200, count=100`` checks exactly the programs a whole-range
    run would have checked at indices 200..299.  ``session`` lets a
    long-lived caller (a campaign shard worker) reuse pooled
    targets/compilers across calls in the serial path; by default the
    serial loop pools one session across its own programs, which is
    byte-identical to fresh-per-program checks (see
    :class:`VerifySession`).
    """
    jobs = max(1, int(jobs))
    report = ConformanceReport(seed=seed, count=count,
                               targets=tuple(targets), jobs=jobs)
    started = time.monotonic()
    if jobs > 1:
        _run_conformance_parallel(report, started, count, seed, targets,
                                  inputs_per_program, config,
                                  budget_seconds, fault, on_program,
                                  jobs, start)
    else:
        if session is None:
            session = VerifySession()
        for index in range(start, start + count):
            if budget_seconds is not None \
                    and time.monotonic() - started > budget_seconds:
                report.budget_exhausted = True
                break
            program_seed, program, input_sets = _generate_case(
                seed, index, inputs_per_program, config)
            verdict = check_program(program, input_sets, targets=targets,
                                    fault=fault, seed=program_seed,
                                    session=session)
            report.verdicts.append(verdict)
            if on_program is not None:
                on_program(program, input_sets, verdict)
    report.elapsed_seconds = time.monotonic() - started
    from repro.sim.decode import decode_cache_stats
    from repro.sim.jit import jit_cache_stats
    report.sim_stats = {"decode_cache": decode_cache_stats(),
                        "jit": jit_cache_stats()}
    return report


def _run_conformance_parallel(report: ConformanceReport, started: float,
                              count: int, seed: int,
                              targets: Sequence[str],
                              inputs_per_program: int,
                              config: Optional[ProgenConfig],
                              budget_seconds: Optional[float],
                              fault, on_program: Optional[Callable],
                              jobs: int, start: int = 0) -> None:
    """Fan program checks out to farm workers, aggregating in job order."""
    from repro.evalx import farm
    from repro.verify.corpus import program_to_spec

    cases = [_generate_case(seed, index, inputs_per_program, config)
             for index in range(start, start + count)]
    job_list = [
        farm.VerifyJob(program_spec=program_to_spec(program),
                       input_sets=tuple(input_sets),
                       targets=tuple(targets),
                       fault=((fault.original, fault.replacement)
                              if fault is not None else None),
                       seed=program_seed)
        for program_seed, program, input_sets in cases]

    # With a wall-clock budget the work is scheduled in chunks so the
    # run can stop between them; without one, a single submission keeps
    # every worker busy end to end.
    chunk = max(jobs * 4, 8) if budget_seconds is not None else count
    for start in range(0, len(job_list), max(chunk, 1)):
        if budget_seconds is not None \
                and time.monotonic() - started > budget_seconds:
            report.budget_exhausted = True
            break
        results = farm.run_many(job_list[start:start + chunk],
                                max_workers=jobs)
        for offset, result in enumerate(results):
            if not result.ok:
                _program_seed, program, _inputs = cases[start + offset]
                raise RuntimeError(
                    f"conformance worker failed on {program.name} "
                    f"(seed {job_list[start + offset].seed}): "
                    f"{result.error_type}: {result.error}")
            report.verdicts.append(result.payload)
            if on_program is not None:
                _seed, program, input_sets = cases[start + offset]
                on_program(program, input_sets, result.payload)
