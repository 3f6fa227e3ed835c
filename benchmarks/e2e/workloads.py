"""The closed-loop workloads: ``table1``, ``campaign`` and ``tune``.

Each workload is one caller that sends its next operation when the last
one returned.  It takes the workload seed and hands the program under
test only the inputs generated from it.  Every operation is graded
outside its timed interval, against a reference that shares no code
with the compiler or the simulators: the MiniDFL interpreter for
``table1`` and the IR oracle for ``campaign`` and ``tune``.

``code_words`` and ``code_cycles`` are taken from a fixed set of
programs, the same for every seed: the Table 1 cells, the tuned cells,
and the campaign's warm-up programs.  So they repeat exactly from run
to run, and any change in them is a change in the emitted code.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.cache
from repro.api import available_kernels, available_targets, compile_source
from repro.codegen.pipeline import RecordCompiler, RecordOptions
from repro.dspstone import kernel
from repro.ir.fixedpoint import FixedPointContext
from repro.sim.harness import run_compiled, run_many
from repro.tune.measure import clear_measure_pools
from repro.tune.search import (
    TuneConfig, TuneError, default_input_sets, tune_kernel,
)
from repro.verify.corpus import program_to_spec
from repro.verify.diff import (
    DEFAULT_TARGETS, VerifySession, check_program, compilers_for,
    make_target,
)
from repro.verify.oracle import Oracle
from repro.verify.progen import ProgenConfig, generate_inputs, generate_program

#: (compiler, target) columns of one Table 1 op.
TABLE1_CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("record", "tc25"), ("record", "m56"), ("record", "risc16"),
    ("record", "asip"), ("baseline", "tc25"))
TABLE1_INPUT_SETS = 3

#: Input sets per campaign program (``run_conformance``'s default).
#: Warm-up programs come from campaign seed 0, timed ones from seed
#: ``1 + workload seed``, so no timed program is ever a warm-up one.
CAMPAIGN_INPUT_SETS = 2
#: The default progen profile without ``sat()``: the seed commit
#: miscompiles ``sat()`` over a product that exceeds the word (with the
#: default profile, case 115 of campaign seed 1 computes -5704 where the
#: oracle saturates to 32767), and no op of a benchmark workload may
#: fail.
CAMPAIGN_PROFILE = ProgenConfig(sat_probability=0.0)
CAMPAIGN_WARMUP_PROGRAMS = 12

TUNE_CONFIG = TuneConfig(budget=32)

#: Seconds :func:`calibration_seconds` takes on the reference machine
#: (a 2-vCPU Intel Xeon VM running CPython 3.11).
CALIBRATION_REFERENCE_S = 0.003
#: The timed phase samples the calibration this often.
CALIBRATION_INTERVAL_S = 0.2


@dataclass
class RunResult:
    """What one timed phase measured (see ``run.py`` for the metrics).

    ``throughput`` (ops/s) and ``latencies`` (s) are scaled to the
    reference machine speed (see :func:`calibration_seconds`).
    """

    attempted: int
    failed: int
    throughput: float
    latencies: List[float]
    code_words: int
    code_cycles: int
    peak_rss_mb: float
    extra_layers: Dict[str, float] = field(default_factory=dict)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile; failed ops (``inf``) sort last."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def outputs_of(program, env) -> Dict[str, object]:
    """The output-role slice of an environment."""
    return {name: env[name] for name, symbol in program.symbols.items()
            if symbol.role == "output" and name in env}


def _calibration_loop() -> int:
    rng = random.Random(7)
    table: Dict[int, int] = {}
    total = 0
    for i in range(4000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        entry = tuple(sorted((key, i % 13, rng.random() > 0.5)))
        total += hash(entry) & 0xff
    return total + len(sorted(table.items(), key=lambda item: item[1]))


def calibration_seconds() -> float:
    """How long a fixed pure-Python loop takes right now.

    A shared machine runs faster or slower from minute to minute as its
    neighbours load it.  This loop, which shares no code with the
    program, measures that speed between operations, so time metrics
    can be scaled to the reference speed.  The collector is off while
    it runs, so the size of the program's heap does not enter into it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _calibration_loop()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def machine_slowdown(calibrations: List[float]) -> float:
    """Mean calibration time over the reference one (1.1: the machine
    ran 10% slower than the reference speed), reported on stderr."""
    slowdown = statistics.mean(calibrations) / CALIBRATION_REFERENCE_S
    print(f"e2e: machine slowdown {slowdown:.4f} over "
          f"{len(calibrations)} samples; times are scaled to the "
          f"reference speed", file=sys.stderr)
    return slowdown


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _report_failure(workload: str, index: int, exc: Exception,
                    first: bool) -> None:
    print(f"e2e: {workload} op {index} failed: {type(exc).__name__}: "
          f"{exc}", file=sys.stderr)
    if first:
        traceback.print_exc(file=sys.stderr)


class ClosedLoop:
    """One caller, next op when the previous returned.

    Subclasses build their inputs in ``__init__`` (from the seed only),
    do untimed work in :meth:`setup`, and hand out operations with
    :meth:`op`: a callable for the timed part and a grader for its
    result.
    """

    name = ""
    #: The loop never stops before this many ops (one full pass), so
    #: the code-quality set is always complete.
    min_ops = 1
    #: Peak RSS is read after this many ops (default: ``min_ops``), so
    #: a faster program, doing more ops in a run, does not read as one
    #: that needs more memory while memo tables grow.
    rss_ops: Optional[int] = None

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def inputs(self) -> object:
        """JSON-able view of the generated inputs."""
        raise NotImplementedError

    def setup(self) -> None:
        """Untimed preparation, warm-up included."""

    def op(self, index: int) -> Tuple[Callable[[], object],
                                      Callable[[object], bool]]:
        """The ``index``-th operation and its grader."""
        raise NotImplementedError

    def late_failures(self) -> int:
        """Ops found wrong by grading that runs after the loop."""
        return 0

    def quality(self) -> Tuple[int, int]:
        """``(code_words, code_cycles)`` of the fixed quality set."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` created."""

    def measure(self, seconds: float, tracer=None) -> RunResult:
        """Run ops for ``seconds``.  With a tracer, a pseudo-random half
        of the ops is traced (a fixed choice, so it cannot line up with
        the order of cells), and the other half gives the tracing
        overhead."""
        latencies: List[float] = []
        timed = {True: [0.0, 0], False: [0.0, 0]}
        failed = 0
        busy = 0.0
        index = 0
        rss_ops = self.rss_ops or self.min_ops
        peak_rss_mb = None
        picker = random.Random(0)
        calibrations = [calibration_seconds()]
        calibrated = started = perf_counter()
        while perf_counter() - started < seconds or index < self.min_ops:
            if perf_counter() - calibrated >= CALIBRATION_INTERVAL_S:
                calibrations.append(calibration_seconds())
                calibrated = perf_counter()
            fn, grade = self.op(index)
            traced = tracer is not None and picker.random() < 0.5
            if traced:
                tracer.install()
            begin = perf_counter()
            try:
                result = tracer.op(fn) if traced else fn()
                ok = True
            except Exception as exc:                   # noqa: BLE001
                # A failing op is counted and reported, not fatal.
                ok = False
                _report_failure(self.name, index, exc, first=not failed)
            elapsed = perf_counter() - begin
            if traced:
                tracer.uninstall()
            if ok and not grade(result):
                ok = False
                print(f"e2e: {self.name} op {index} produced wrong output",
                      file=sys.stderr)
            busy += elapsed
            timed[traced][0] += elapsed
            timed[traced][1] += 1
            latencies.append(elapsed if ok else float("inf"))
            failed += not ok
            index += 1
            if index == rss_ops:
                peak_rss_mb = _peak_rss_mb()
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()
        failed += self.late_failures()
        words, cycles = self.quality()
        extra = {}
        if tracer is not None and timed[True][1] and timed[False][1]:
            mean_traced = timed[True][0] / timed[True][1]
            mean_plain = timed[False][0] / timed[False][1]
            extra["trace.overhead_frac"] = 1.0 - mean_plain / mean_traced
        slowdown = machine_slowdown(calibrations)
        return RunResult(attempted=index, failed=failed,
                         throughput=index / busy * slowdown if busy else 0.0,
                         latencies=[latency / slowdown
                                    for latency in latencies],
                         code_words=words, code_cycles=cycles,
                         peak_rss_mb=peak_rss_mb, extra_layers=extra)


# ----------------------------------------------------------------------
# table1: the paper's experiment, from MiniDFL source
# ----------------------------------------------------------------------

class Table1(ClosedLoop):
    """One op is one Table 1 cell: a DSPStone kernel compiled from its
    MiniDFL source text for one (compiler, target) column, then run on
    the seeded input sets.  A pass covers every cell.  No artifact
    cache: every compile is real."""

    name = "table1"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.specs = [kernel(name) for name in available_kernels()]
        self.cells = [(spec, compiler, target) for spec in self.specs
                      for compiler, target in TABLE1_CONFIGS]
        self.min_ops = len(self.cells)
        self.input_sets = {
            spec.name: [spec.inputs(seed=TABLE1_INPUT_SETS * seed + k)
                        for k in range(TABLE1_INPUT_SETS)]
            for spec in self.specs}
        self.words = 0
        self.cycles = 0

    def inputs(self) -> object:
        return self.input_sets

    def setup(self) -> None:
        # Reference outputs from the MiniDFL interpreter, per cell.
        references = {}
        self.expected = []
        for spec, _compiler, target in self.cells:
            width = make_target(target).fpc.width
            if (spec.name, width) not in references:
                references[spec.name, width] = [
                    self._interpret(spec, inputs, width)
                    for inputs in self.input_sets[spec.name]]
            self.expected.append(references[spec.name, width])
        for index in range(len(self.cells)):
            self.op(index)[0]()

    @staticmethod
    def _interpret(spec, inputs, width: int) -> Dict[str, object]:
        env = spec.program.initial_environment()
        # The interpreter updates arrays in place (delay lines); keep
        # the input sets pristine.
        env.update({name: list(value) if isinstance(value, list) else value
                    for name, value in inputs.items()})
        spec.program.run(env, FixedPointContext(width))
        return outputs_of(spec.program, env)

    def op(self, index: int):
        slot = index % len(self.cells)
        spec, compiler, target = self.cells[slot]
        input_sets = self.input_sets[spec.name]

        def run():
            built = compile_source(spec.source, target=target,
                                   compiler=compiler)
            return built.words(), [built.run(inputs) for inputs in input_sets]

        def grade(result) -> bool:
            words, runs = result
            if index < len(self.cells):
                self.words += words
                self.cycles += sum(cycles for _out, cycles in runs)
            return [out for out, _cycles in runs] == self.expected[slot]
        return run, grade

    def quality(self) -> Tuple[int, int]:
        return self.words, self.cycles


# ----------------------------------------------------------------------
# campaign: novel programs through the whole conformance matrix
# ----------------------------------------------------------------------

def campaign_case(campaign_seed: int, index: int):
    """One conformance case, derived as ``run_conformance`` derives it."""
    rng = random.Random(campaign_seed * 1_000_000 + index)
    program = generate_program(rng, index, CAMPAIGN_PROFILE)
    return program, [generate_inputs(rng, program)
                     for _ in range(CAMPAIGN_INPUT_SETS)]


class Campaign(ClosedLoop):
    """One op is one never-seen progen program through ``check_program``
    (record on every target plus baseline on tc25, times the reference,
    fast and jit simulators, against the IR oracle), with a pooled
    session and an artifact cache that starts empty."""

    name = "campaign"
    rss_ops = 100

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.campaign_seed = 1 + seed
        self.warmup = [campaign_case(0, index)
                       for index in range(CAMPAIGN_WARMUP_PROGRAMS)]

    def inputs(self) -> object:
        cases = [campaign_case(self.campaign_seed, index)
                 for index in range(8)]
        return [{"program": program_to_spec(program), "inputs": inputs}
                for program, inputs in cases]

    def setup(self) -> None:
        self.cache_dir = self.work_dir / "campaign-cache"
        repro.cache.configure(self.cache_dir)
        self.session = VerifySession()
        for program, inputs in self.warmup:
            check_program(program, inputs, session=self.session)

    def op(self, index: int):
        program, inputs = campaign_case(self.campaign_seed, index)

        def run():
            return check_program(program, inputs,
                                 seed=self.campaign_seed * 1_000_000 + index,
                                 session=self.session)
        return run, lambda verdict: verdict.ok

    def quality(self) -> Tuple[int, int]:
        # The warm-up artifacts are in the cache, so these are hits.
        words = cycles = 0
        for program, inputs in self.warmup:
            for target in DEFAULT_TARGETS:
                for compiler in compilers_for(target):
                    compiled = self.session.compiler(compiler, target) \
                        .compile(program)
                    words += compiled.words()
                    cycles += sum(state.cycles for _env, state
                                  in run_many(compiled, inputs, sim="jit"))
        return words, cycles

    def close(self) -> None:
        repro.cache.configure(None)


# ----------------------------------------------------------------------
# tune: budgeted option search per (kernel, target) cell
# ----------------------------------------------------------------------

class Tune(ClosedLoop):
    """One op is one ``tune_kernel`` cell.  A pass covers every DSPStone
    kernel on every target and starts from an empty artifact cache and
    empty measurement pools, so every pass measures for real."""

    name = "tune"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.cells = [(name, target) for name in available_kernels()
                      for target in available_targets()]
        self.min_ops = len(self.cells)
        self.winners: Dict[Tuple[str, str], Tuple[dict, int, int]] = {}
        self.ops_per_cell: Dict[Tuple[str, str], int] = {}
        self.cache_dir: Optional[Path] = None

    def inputs(self) -> object:
        return {name: default_input_sets(kernel(name).program,
                                         TUNE_CONFIG.inputs_per_program,
                                         seed=self.seed)
                for name in available_kernels()}

    def _fresh_cache(self, label: str) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = self.work_dir / f"tune-cache-{label}"
        repro.cache.configure(self.cache_dir)
        clear_measure_pools()

    def setup(self) -> None:
        self._fresh_cache("warmup")
        for target in available_targets():
            try:
                tune_kernel(self.cells[0][0], target, TUNE_CONFIG, jobs=1,
                            seed=self.seed)
            except TuneError:
                pass    # warm-up only; the timed op for this cell fails

    def op(self, index: int):
        pass_number, slot = divmod(index, len(self.cells))
        if slot == 0:
            self._fresh_cache(str(pass_number))
        cell = self.cells[slot]

        def run():
            return tune_kernel(cell[0], cell[1], TUNE_CONFIG, jobs=1,
                               seed=self.seed)

        def grade(outcome) -> bool:
            best = next(m for m in outcome.table
                        if m.options == outcome.best_options)
            winner = (outcome.best_options, outcome.best_cycles, best.words)
            self.ops_per_cell[cell] = self.ops_per_cell.get(cell, 0) + 1
            return self.winners.setdefault(cell, winner) == winner
        return run, grade

    def late_failures(self) -> int:
        """Re-run every winner on the reference simulator, uncached,
        against the IR oracle; a wrong winner fails all its cell's ops."""
        repro.cache.configure(None)
        failed = 0
        for cell, (options, cycles, words) in self.winners.items():
            if not self._winner_holds(cell, options, cycles, words):
                print(f"e2e: tune winner for {cell} fails the oracle",
                      file=sys.stderr)
                failed += self.ops_per_cell[cell]
        return failed

    def _winner_holds(self, cell, options, cycles, words) -> bool:
        name, target_name = cell
        program = kernel(name).program
        target = make_target(target_name)
        compiled = RecordCompiler(
            target, RecordOptions.from_dict(options)).compile(program)
        oracle = Oracle(target.fpc)
        total = 0
        for inputs in default_input_sets(program,
                                         TUNE_CONFIG.inputs_per_program,
                                         seed=self.seed):
            env, state = run_compiled(compiled, inputs, sim="reference")
            if outputs_of(program, env) != outputs_of(
                    program, oracle.run(program, inputs)):
                return False
            total += state.cycles
        return total == cycles and compiled.words() == words

    def quality(self) -> Tuple[int, int]:
        return (sum(words for _o, _c, words in self.winners.values()),
                sum(cycles for _o, cycles, _w in self.winners.values()))

    def close(self) -> None:
        repro.cache.configure(None)
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
