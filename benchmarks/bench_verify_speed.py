"""Conformance-throughput benchmark: parallel + artifact-cached verify.

PR 4 built the differential fuzzer; its throughput is now the binding
constraint on how much of the conformance matrix a run can cover.  This
bench measures what the two throughput layers buy on the fixed-seed
matrix of ``python -m repro.verify``:

- the **persistent artifact cache** (`repro.cache`): compiles are ~90%
  of a cold run and are a pure function of (program, compiler, target,
  code version), so a warm cache removes them entirely -- across
  processes *and* across runs;
- the **parallel verify farm** (`repro.evalx.farm.run_many` over
  `VerifyJob`s): per-program matrix checks fan out over worker
  processes that keep compiler pools, label caches and the shared
  artifact cache warm.

Four modes run the identical program matrix -- serial-cold,
serial-warm, parallel-cold, parallel-warm -- and the bench enforces
the two contracts that make the layers safe to rely on:

- **equivalence** -- the triage report must be byte-identical in all
  four modes (same JSON, any worker count, cold or warm cache);
- **speed** -- the full run enforces >= 3x aggregate speedup of
  parallel-warm over serial-cold, and a warm-cache hit rate of 100%
  (zero recompiles on the second pass over the same tree).

Results land in ``BENCH_VERIFY.json`` at the repository root.

Run:  python benchmarks/bench_verify_speed.py            (full matrix)
or :  python benchmarks/bench_verify_speed.py --quick    (CI smoke;
      uses ``.repro-cache/`` so GitHub's actions/cache can persist
      warmth across CI runs)
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import repro.cache
from repro.ir.trees import clear_tree_caches
from repro.verify.diff import run_conformance

ROOT = Path(__file__).resolve().parent.parent

COUNT = 50
SEED = 0
SPEEDUP_FLOOR = 3.0


def run_mode(label: str, jobs: int, cache_dir: Optional[Path],
             count: int, seed: int) -> Dict[str, object]:
    """One timed conformance pass in a given (jobs, cache) mode.

    In-process caches (tree interning, variant memo) are dropped first
    so every mode starts from the same process state; "cold" vs "warm"
    refers purely to the on-disk artifact cache.
    """
    clear_tree_caches()
    cache = repro.cache.configure(cache_dir)
    started = perf_counter()
    report = run_conformance(count=count, seed=seed, jobs=jobs)
    wall = perf_counter() - started
    repro.cache.configure(None)
    counts = report.compile_counts()
    attempted = counts["compiles"] + counts["artifact_hits"]
    return {
        "mode": label,
        "jobs": jobs,
        "seconds": round(wall, 3),
        "programs": len(report.verdicts),
        "cells": report.cells_checked,
        "programs_per_second": round(len(report.verdicts) / wall, 2),
        "cells_per_second": round(report.cells_checked / wall, 2),
        "compiles": counts["compiles"],
        "artifact_hits": counts["artifact_hits"],
        "hit_rate": (round(counts["artifact_hits"] / attempted, 4)
                     if attempted else 0.0),
        "cache_stats": cache.stats.to_json() if cache else None,
        "triage": json.dumps(report.triage_json(), sort_keys=True),
    }


def measure(count: int, jobs: int,
            cache_root: Optional[Path] = None) -> Dict[str, object]:
    """The four-mode matrix; serial-cold is the 1-job empty-cache run."""
    scratch = None
    if cache_root is None:
        scratch = tempfile.mkdtemp(prefix="bench-verify-")
        cache_root = Path(scratch)
    serial_dir = cache_root / "serial"
    parallel_dir = cache_root / "parallel"
    try:
        rows = [
            run_mode("serial-cold", 1, serial_dir, count, SEED),
            run_mode("serial-warm", 1, serial_dir, count, SEED),
            run_mode("parallel-cold", jobs, parallel_dir, count, SEED),
            run_mode("parallel-warm", jobs, parallel_dir, count, SEED),
        ]
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    triages = {row["triage"] for row in rows}
    by_mode = {row["mode"]: row for row in rows}
    for row in rows:
        del row["triage"]
    return {
        "count": count,
        "seed": SEED,
        "jobs": jobs,
        "cells": rows[0]["cells"],
        "triage_identical": len(triages) == 1,
        "aggregate_speedup": round(
            by_mode["serial-cold"]["seconds"]
            / by_mode["parallel-warm"]["seconds"], 3),
        "warm_hit_rate": by_mode["parallel-warm"]["hit_rate"],
        "modes": rows,
    }


def quick_measure(count: int, jobs: int,
                  cache_dir: Path) -> Dict[str, object]:
    """CI smoke: one pass against a persistent cache dir, one warm pass.

    The first pass may already be warm when ``actions/cache`` restored
    ``.repro-cache/`` from an earlier CI run -- that is the point; the
    second pass must then be *fully* warm (hit rate > 0 is asserted by
    the caller, 1.0 expected when the code didn't change).
    """
    first = run_mode("first", jobs, cache_dir, count, SEED)
    warm = run_mode("parallel-warm", jobs, cache_dir, count, SEED)
    identical = first.pop("triage") == warm.pop("triage")
    return {
        "count": count,
        "seed": SEED,
        "jobs": jobs,
        "cells": first["cells"],
        "triage_identical": identical,
        "aggregate_speedup": round(first["seconds"] / warm["seconds"], 3),
        "warm_hit_rate": warm["hit_rate"],
        "modes": [first, warm],
    }


def render(report: Dict[str, object]) -> str:
    lines = [f"{'mode':15s} {'jobs':>4s} {'secs':>8s} {'prog/s':>8s} "
             f"{'cells/s':>8s} {'compiles':>8s} {'hits':>6s}",
             "-" * 64]
    for row in report["modes"]:
        lines.append(
            f"{row['mode']:15s} {row['jobs']:>4d} {row['seconds']:>8.2f} "
            f"{row['programs_per_second']:>8.1f} "
            f"{row['cells_per_second']:>8.1f} "
            f"{row['compiles']:>8d} {row['artifact_hits']:>6d}")
    lines.append("-" * 64)
    lines.append(
        f"aggregate: {report['aggregate_speedup']:.2f}x "
        f"(parallel-warm vs serial-cold) over {report['count']} programs "
        f"x {report['cells']} cells; warm hit rate "
        f"{report['warm_hit_rate']:.0%}")
    lines.append("triage byte-identical across modes: "
                 + ("yes" if report["triage_identical"] else "NO"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer programs, two passes "
                             "against a persistent cache dir, no "
                             "speedup floor (runners are noisy); "
                             "triage equality and warm cache hits are "
                             "still enforced")
    parser.add_argument("--count", type=int, default=None,
                        help=f"programs per mode (default {COUNT}, "
                             f"quick 12)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the parallel modes "
                             "(default 2)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="persistent cache dir for --quick "
                             "(default .repro-cache/); full runs use "
                             "a throwaway temp dir")
    parser.add_argument("--output",
                        default=str(ROOT / "BENCH_VERIFY.json"),
                        help="where the report JSON is written")
    args = parser.parse_args(argv)

    if args.quick:
        cache_dir = args.cache_dir or repro.cache.default_cache_dir()
        report = quick_measure(args.count or 12, args.jobs, cache_dir)
    else:
        report = measure(args.count or COUNT, args.jobs)
    print(render(report))
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not report["triage_identical"]:
        print("FAIL: triage report differed between modes",
              file=sys.stderr)
        return 1
    if report["warm_hit_rate"] <= 0.0:
        print("FAIL: warm run hit the artifact cache 0 times",
              file=sys.stderr)
        return 1
    if not args.quick and report["aggregate_speedup"] < SPEEDUP_FLOOR:
        print(f"FAIL: expected >= {SPEEDUP_FLOOR}x parallel-warm vs "
              f"serial-cold, got {report['aggregate_speedup']:.2f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
