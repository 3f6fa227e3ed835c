"""Table 1: size of compiled DSPStone programs relative to assembly (%).

For every kernel the harness

1. builds the hand-written TC25 assembly reference (the 100% line),
2. compiles the kernel with the conventional target-specific compiler
   and with the RECORD pipeline,
3. *executes all three on the instruction-set simulator* and checks them
   bit-exactly against the MiniDFL reference interpreter (a row only
   counts if all three programs compute the same answer), and
4. reports size ratios next to the paper's numbers.

Absolute ratios differ from 1997 (different hand programmers, different
C compiler); the claim under reproduction is the *shape*: a retargetable
compiler competing with -- and mostly beating -- the target-specific
one, with ties on trivial kernels and at least one target-specific win
on straight-line code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baseline.compiler import BaselineCompiler
from repro.codegen.pipeline import RecordCompiler, RecordOptions
from repro.dspstone import all_kernels, hand_reference
from repro.dspstone.kernels import KernelSpec
from repro.ir.fixedpoint import FixedPointContext
from repro.sim.harness import run_many
from repro.targets.tc25 import TC25


@dataclass
class Table1Row:
    kernel: str
    hand_words: int
    baseline_words: int
    record_words: int
    baseline_cycles: int
    record_cycles: int
    hand_cycles: int
    paper_baseline_pct: int
    paper_record_pct: int
    verified: bool

    @property
    def baseline_pct(self) -> int:
        return round(100 * self.baseline_words / self.hand_words)

    @property
    def record_pct(self) -> int:
        return round(100 * self.record_words / self.hand_words)

    @property
    def winner(self) -> str:
        if self.record_words < self.baseline_words:
            return "record"
        if self.record_words > self.baseline_words:
            return "baseline"
        return "tie"


def _reference_environment(spec: KernelSpec, seed: int) -> Dict[str, object]:
    program = spec.program
    env = program.initial_environment()
    for key, value in spec.inputs(seed=seed).items():
        env[key] = list(value) if isinstance(value, list) else value
    return env


def _outputs_match(spec: KernelSpec, reference: Dict[str, object],
                   measured: Dict[str, object]) -> bool:
    for symbol in spec.program.symbols.values():
        if symbol.role == "output" \
                and measured.get(symbol.name) != reference.get(symbol.name):
            return False
    return True


def _record_options_for(spec: KernelSpec,
                        record_options: Optional[RecordOptions],
                        tuning_db) -> Optional[RecordOptions]:
    """The record-column options for one kernel row: the tuning
    database's oracle-gated best when one is stored, the caller's
    ``record_options`` otherwise."""
    if tuning_db is None:
        return record_options
    tuned = tuning_db.options_for(spec.program, "tc25")
    return tuned if tuned is not None else record_options


def compute_table1(target: Optional[TC25] = None, seeds: int = 3,
                   record_options: Optional[RecordOptions] = None,
                   tuning_db=None) -> List[Table1Row]:
    """Build, verify and measure every Table 1 row.

    ``target`` defaults to a fresh :class:`TC25`.  Every cell compiles
    in this process: a kernel compiles in milliseconds, less than a
    worker pool takes to start.

    ``tuning_db`` (a :class:`~repro.tune.db.TuningDB` or a path to
    one) steers the record column with per-kernel autotuned options
    where the database has an entry; every cell is still verified
    against the reference interpreter, so a stale entry cannot smuggle
    a wrong answer into the table.
    """
    if tuning_db is not None and not hasattr(tuning_db, "options_for"):
        from repro.tune.db import TuningDB
        tuning_db = TuningDB.load(tuning_db)
    if target is None:
        target = TC25()
    fpc = FixedPointContext(target.word_bits)
    rows: List[Table1Row] = []
    for spec in all_kernels():
        program = spec.program
        hand = hand_reference(spec.name, target)
        baseline = BaselineCompiler(target).compile(program)
        record = RecordCompiler(
            target,
            _record_options_for(spec, record_options, tuning_db)
        ).compile(program)

        verified = True
        cycles = {"hand": 0, "baseline": 0, "record": 0}
        references = []
        for seed in range(seeds):
            reference = _reference_environment(spec, seed)
            program.run(reference, fpc)
            references.append(reference)
        inputs = [spec.inputs(seed=seed) for seed in range(seeds)]
        # One decoded program per compiler, run over the whole seed
        # batch (the fast simulator caches the decoded blocks).
        for label, compiled in (("hand", hand),
                                ("baseline", baseline),
                                ("record", record)):
            for reference, (measured, state) in zip(
                    references, run_many(compiled, inputs)):
                cycles[label] = state.cycles
                if not _outputs_match(spec, reference, measured):
                    verified = False
        rows.append(Table1Row(
            kernel=spec.name,
            hand_words=hand.words(),
            baseline_words=baseline.words(),
            record_words=record.words(),
            baseline_cycles=cycles["baseline"],
            record_cycles=cycles["record"],
            hand_cycles=cycles["hand"],
            paper_baseline_pct=spec.paper_baseline_pct,
            paper_record_pct=spec.paper_record_pct,
            verified=verified,
        ))
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    """Render the table in the paper's layout, plus the paper columns."""
    header = (f"{'Program':26s} {'hand':>5s} {'TSC':>5s} {'REC':>5s} "
              f"{'TSC%':>5s} {'REC%':>5s}   {'paper':>9s}  ok")
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = f"{row.paper_baseline_pct:>4d}/{row.paper_record_pct:<4d}"
        lines.append(
            f"{row.kernel:26s} {row.hand_words:>5d} "
            f"{row.baseline_words:>5d} {row.record_words:>5d} "
            f"{row.baseline_pct:>5d} {row.record_pct:>5d}   {paper:>9s}"
            f"  {'+' if row.verified else 'FAIL'}")
    wins = sum(1 for r in rows if r.winner == "record")
    ties = sum(1 for r in rows if r.winner == "tie")
    losses = sum(1 for r in rows if r.winner == "baseline")
    lines.append("-" * len(header))
    lines.append(f"RECORD wins {wins}/10, ties {ties}, "
                 f"target-specific wins {losses} "
                 f"(paper: 6 wins, 2 ties, 2 losses)")
    return "\n".join(lines)
