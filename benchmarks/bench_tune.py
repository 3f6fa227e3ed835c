"""Autotuner benchmark: per-kernel cycle wins, oracle-gated, cache-warm.

The tuner (`repro.tune`) searches the RecordOptions knob space per
(program, target) cell, measuring every candidate in real cycles on
the jit simulator and checking each against the independent IR-level
oracle.  This bench runs the search over the DSPStone suite x the four
shipped targets (quick mode: 2 kernels x 2 targets) plus a seeded
batch of generated programs, and enforces the three contracts that
make a tuning table trustworthy:

- **wins exist** -- at least one cell strictly improves on the default
  configuration (if nothing ever improves, the knob space is dead and
  the tuner is measuring noise);
- **zero miscompiles** -- every selected best agrees with the oracle
  on every input set (the gate is load-bearing, not decorative);
- **warm determinism** -- re-tuning every cell against the warm
  measurement cache replays a byte-identical table with ZERO fresh
  compiles and ZERO fresh simulations.

Results land in ``BENCH_TUNE.json`` at the repository root.

Run:  python benchmarks/bench_tune.py             (full, ~2 s on a
      2-vCPU VM; every cell is tuned in this process)
or :  python benchmarks/bench_tune.py --quick     (CI smoke; uses
      ``.repro-cache/`` so GitHub's actions/cache can persist warmth
      across CI runs)
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro.cache
from repro.dspstone import KERNEL_NAMES, kernel
from repro.tune import TuneConfig, TuneError, TuneOutcome, \
    tune_program
from repro.verify.progen import generate_program

ROOT = Path(__file__).resolve().parent.parent

SEED = 0
BUDGET = 32
QUICK_BUDGET = 12
INPUTS = 2
TARGETS = ("tc25", "m56", "risc16", "asip")
QUICK_TARGETS = ("tc25", "m56")
QUICK_KERNELS = ("fir", "dot_product")
#: The generated-program batch: the tuner must work on arbitrary
#: programs, not just the ten kernels its knobs were grown against.
PROGEN_SEEDS = (1, 2, 3)
QUICK_PROGEN_SEEDS: Tuple[int, ...] = ()


def _cells(quick: bool) -> List[Tuple[object, str]]:
    kernels = QUICK_KERNELS if quick else KERNEL_NAMES
    targets = QUICK_TARGETS if quick else TARGETS
    cells: List[Tuple[object, str]] = [
        (kernel(name).program, target)
        for name in kernels for target in targets
    ]
    for seed in (QUICK_PROGEN_SEEDS if quick else PROGEN_SEEDS):
        cells.append((generate_program(random.Random(seed), seed),
                      "tc25"))
    return cells


def _selected_measurement(outcome: TuneOutcome):
    """The table entry the tuner selected as best."""
    want = json.dumps(outcome.best_options, sort_keys=True)
    for measurement in outcome.table:
        if json.dumps(measurement.options, sort_keys=True) == want:
            return measurement
    return None


def _row(outcome: TuneOutcome) -> Dict[str, object]:
    default = outcome.default.total_cycles
    saved = default - outcome.best_cycles
    return {
        "program": outcome.program,
        "target": outcome.target,
        "default_cycles": default,
        "tuned_cycles": outcome.best_cycles,
        "saved_cycles": saved,
        "saved_pct": round(100 * saved / default, 2) if default else 0.0,
        "improved": outcome.improved,
        "movers": list(outcome.movers),
        "tuned_options": (outcome.best_options
                          if outcome.improved else None),
        "rejected": len(outcome.rejected),
        "budget_used": outcome.budget_used,
        "fresh": outcome.fresh_measurements,
        "cached": outcome.cached_measurements,
    }


def _tune_all(cells, config: TuneConfig,
              cache_dir: Path) -> Tuple[List[TuneOutcome], float]:
    repro.cache.configure(cache_dir)
    try:
        started = perf_counter()
        outcomes = []
        for program, target in cells:
            outcomes.append(tune_program(program, target=target,
                                         config=config, seed=SEED))
        wall = perf_counter() - started
    finally:
        repro.cache.configure(None)
    return outcomes, wall


def _table_blob(outcomes: List[TuneOutcome]) -> str:
    return json.dumps([[m.to_json() for m in outcome.table]
                       for outcome in outcomes], sort_keys=True)


def render(report: Dict[str, object]) -> str:
    summary = report["summary"]
    lines = [
        f"{row['program']:24s} {row['target']:8s} "
        f"{row['default_cycles']:>7d} -> {row['tuned_cycles']:>7d} cy"
        + (f"  (-{row['saved_pct']:.1f}%  "
           f"movers: {', '.join(row['movers'])})"
           if row["improved"] else "   (default is best)")
        for row in report["cells"]
    ]
    lines.append(
        f"{summary['improved_cells']}/{summary['total_cells']} cells "
        f"improved (best -{summary['max_saved_pct']:.1f}%, mean over "
        f"improved -{summary['mean_saved_pct_improved']:.1f}%); "
        f"{summary['miscompiled_bests']} miscompiled bests; warm "
        f"re-tune fresh measurements: {summary['warm_fresh']} "
        f"(identical: "
        + ("yes" if summary["warm_identical"] else "NO") + ")")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 2 kernels x 2 targets, "
                             f"budget {QUICK_BUDGET}")
    parser.add_argument("--budget", type=int, default=None,
                        help="evaluation budget per cell "
                             f"(default {BUDGET}, quick {QUICK_BUDGET})")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="persistent measurement cache for "
                             "--quick (default .repro-cache/); full "
                             "runs use a throwaway temp dir")
    parser.add_argument("--output",
                        default=str(ROOT / "BENCH_TUNE.json"),
                        help="where the report JSON is written")
    args = parser.parse_args(argv)

    scratch: List[str] = []
    if args.cache_dir is not None:
        cache_dir = args.cache_dir
        cache_dir.mkdir(parents=True, exist_ok=True)
    elif args.quick:
        cache_dir = repro.cache.default_cache_dir()
    else:
        cache_dir = Path(tempfile.mkdtemp(prefix="bench-tune-cache-"))
        scratch.append(str(cache_dir))

    budget = args.budget or (QUICK_BUDGET if args.quick else BUDGET)
    config = TuneConfig(budget=budget, inputs_per_program=INPUTS)
    cells = _cells(args.quick)
    print(f"tuning {len(cells)} cells, budget {budget} "
          f"configurations each")

    try:
        try:
            cold, cold_wall = _tune_all(cells, config, cache_dir)
        except TuneError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print(f"  cold pass: {cold_wall:.1f}s")
        warm, warm_wall = _tune_all(cells, config, cache_dir)
        print(f"  warm pass: {warm_wall:.1f}s")
    finally:
        for path in scratch:
            shutil.rmtree(path, ignore_errors=True)

    rows = [_row(outcome) for outcome in cold]
    improved = [row for row in rows if row["improved"]]
    miscompiled = sum(
        1 for outcome in cold
        if (selected := _selected_measurement(outcome)) is None
        or not selected.correct)
    warm_fresh = sum(outcome.fresh_measurements for outcome in warm)
    report: Dict[str, object] = {
        "seed": SEED,
        "quick": bool(args.quick),
        "budget": budget,
        "inputs_per_program": INPUTS,
        "sim": "jit",
        "cells": rows,
        "summary": {
            "total_cells": len(rows),
            "improved_cells": len(improved),
            "max_saved_pct": max((row["saved_pct"]
                                  for row in improved), default=0.0),
            "mean_saved_pct_improved": (
                round(sum(row["saved_pct"] for row in improved)
                      / len(improved), 2) if improved else 0.0),
            "miscompiled_bests": miscompiled,
            "cold_seconds": round(cold_wall, 3),
            "warm_seconds": round(warm_wall, 3),
            "warm_fresh": warm_fresh,
            "warm_identical": _table_blob(cold) == _table_blob(warm),
        },
    }

    print(render(report))
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    summary = report["summary"]
    if not summary["improved_cells"]:
        print("FAIL: no cell improved on the default configuration",
              file=sys.stderr)
        return 1
    if summary["miscompiled_bests"]:
        print(f"FAIL: {summary['miscompiled_bests']} selected bests "
              "disagree with the oracle", file=sys.stderr)
        return 1
    if summary["warm_fresh"]:
        print(f"FAIL: warm re-tune performed {summary['warm_fresh']} "
              "fresh measurements", file=sys.stderr)
        return 1
    if not summary["warm_identical"]:
        print("FAIL: warm re-tune tables differ from the cold pass",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
