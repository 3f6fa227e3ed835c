"""Compile-time benchmark: the selection fast path, measured.

Sec. 1 of the paper concedes that "compilers for DSPs generate code of
insufficient quality" partly because better algorithms cost compile
time; RECORD's answer is to spend the time cleverly.  This bench
quantifies what the caching layers buy on the full DSPStone kernel x
target matrix:

- **uncached serial** -- the historical path: global tree interning
  off, a fresh compiler (fresh BURS matcher, rebuilt grammar) per
  compile;
- **cached serial** -- interned trees, memoized grammars and variant
  lists, and a label cache per compile (one pooled compiler per
  (compiler, target); label states live for one program);
- **cached parallel** -- the same jobs on the compile farm's process
  pool (only meaningful on multi-core machines).

Every mode also compiles a few generated programs (progen seed 1,
no ``sat()``, the first programs of the selection pins in
``tests/codegen/test_selection_pins.py``): their trees reach cuts,
double-word cuts and the baseline's algebraic rescue, which the kernels
rarely do.

The emitted assembly must be byte-identical across all modes -- the
caches are transparent or they are wrong -- and the results land in
``BENCH_COMPILE.json`` at the repository root: per-stage wall-clock
(variants, labeling, addressing, modes), BURS label-cache hit rates,
and serial-vs-parallel wall time.

Run:  python benchmarks/bench_compile_speed.py            (full matrix)
or :  python benchmarks/bench_compile_speed.py --quick    (CI smoke)
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.dspstone import all_kernels
from repro.evalx.farm import (
    CompileJob, Result, clear_worker_session, default_workers, run_job,
    run_many,
)
from repro.ir.trees import (
    clear_tree_caches, intern_table_size, set_tree_caching,
)
from repro.verify.corpus import program_to_spec
from repro.verify.progen import ProgenConfig, generate_program

ROOT = Path(__file__).resolve().parent.parent

#: (compiler, target) cells of the matrix -- the same 5 producers the
#: timing bench checks, i.e. every compile the evaluation relies on.
CELLS: Tuple[Tuple[str, str], ...] = (
    ("record", "tc25"), ("baseline", "tc25"),
    ("record", "m56"), ("record", "risc16"), ("record", "asip"),
)

#: Per-stage timing keys aggregated from CompiledProgram.stats.
STAGES = ("selection", "variants", "labeling", "loop_opt", "peephole",
          "addressing", "modes", "finalize")


#: Generated programs compiled in every mode, next to the kernels.
PROGEN_SEED = 1
PROGEN_PROGRAMS = 4


def progen_programs() -> List[Tuple[str, str]]:
    """``(name, canonical program spec)`` of the first
    ``PROGEN_PROGRAMS`` generated programs of the selection pins."""
    config = ProgenConfig(sat_probability=0.0)
    programs = []
    for index in range(PROGEN_PROGRAMS):
        rng = random.Random(PROGEN_SEED * 1_000_000 + index)
        program = generate_program(rng, index, config)
        programs.append((program.name, json.dumps(program_to_spec(program),
                                                  sort_keys=True)))
    return programs


def build_jobs(kernels: List[str], programs: List[Tuple[str, str]],
               fresh: bool) -> List[CompileJob]:
    jobs = [CompileJob(kernel=kernel, compiler=compiler, target=target,
                       fresh=fresh)
            for kernel in kernels
            for compiler, target in CELLS]
    jobs += [CompileJob(kernel=name, compiler=compiler, target=target,
                        fresh=fresh, program_spec=spec)
             for name, spec in programs
             for compiler, target in CELLS]
    return jobs


def _aggregate(results: List[Result]) -> Dict[str, object]:
    """Stage timings and label-cache telemetry summed over a run."""
    timings = {stage: 0.0 for stage in STAGES}
    hits = misses = 0
    for result in results:
        stats = result.payload.stats
        for stage, seconds in stats.get("timings", {}).items():
            if stage in timings:
                timings[stage] += seconds
        selection = stats.get("selection")
        if selection is not None:
            hits += selection.label_hits
            misses += selection.label_misses
    total = hits + misses
    return {
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
        "label_hits": hits,
        "label_misses": misses,
        "label_hit_rate": round(hits / total, 4) if total else 0.0,
    }


def _check_identical(reference: List[Result],
                     measured: List[Result]) -> List[str]:
    """Job keys whose listings diverge between two runs."""
    diverged = []
    for ref, got in zip(reference, measured):
        key = f"{ref.job.kernel}/{ref.job.compiler}/{ref.job.target}"
        if (ref.ok != got.ok
                or (ref.ok and ref.payload.listing()
                    != got.payload.listing())):
            diverged.append(key)
    return diverged


def run_uncached_serial(jobs: List[CompileJob]) -> Tuple[float,
                                                         List[Result]]:
    """The historical path: no tree interning, cold compiler per job."""
    previous = set_tree_caching(False)
    try:
        clear_worker_session()
        started = perf_counter()
        results = [run_job(job) for job in jobs]
        wall = perf_counter() - started
    finally:
        set_tree_caching(previous)
    return wall, results


def run_cached_serial(jobs: List[CompileJob]) -> Tuple[float,
                                                       List[Result]]:
    """All caches on, starting cold, one process."""
    clear_tree_caches()
    clear_worker_session()
    started = perf_counter()
    results = [run_job(job) for job in jobs]
    wall = perf_counter() - started
    return wall, results


def run_cached_parallel(jobs: List[CompileJob]
                        ) -> Tuple[float, List[Result], int]:
    workers = default_workers()
    started = perf_counter()
    results = run_many(jobs)
    wall = perf_counter() - started
    return wall, results, workers


def measure(kernels: Optional[List[str]] = None,
            with_parallel: bool = True) -> Dict[str, object]:
    if kernels is None:
        kernels = [spec.name for spec in all_kernels()]
    programs = progen_programs()
    fresh_jobs = build_jobs(kernels, programs, fresh=True)
    pooled_jobs = build_jobs(kernels, programs, fresh=False)

    uncached_wall, uncached = run_uncached_serial(fresh_jobs)
    cached_wall, cached = run_cached_serial(pooled_jobs)
    diverged = _check_identical(uncached, cached)

    report: Dict[str, object] = {
        "jobs": len(fresh_jobs),
        "kernels": kernels,
        "programs": [name for name, _spec in programs],
        "cells": [f"{compiler}/{target}" for compiler, target in CELLS],
        "intern_table_size": intern_table_size(),
        "identical_output": not diverged,
        "diverged": diverged,
        "modes": {
            "uncached_serial": {
                "wall_seconds": round(uncached_wall, 6),
                **_aggregate(uncached),
            },
            "cached_serial": {
                "wall_seconds": round(cached_wall, 6),
                **_aggregate(cached),
            },
        },
        "speedup_cached_vs_uncached":
            round(uncached_wall / cached_wall, 3) if cached_wall else 0.0,
    }
    if with_parallel:
        parallel_wall, parallel, workers = run_cached_parallel(pooled_jobs)
        diverged_parallel = _check_identical(uncached, parallel)
        report["modes"]["cached_parallel"] = {
            "wall_seconds": round(parallel_wall, 6),
            "workers": workers,
        }
        if diverged_parallel:
            report["identical_output"] = False
            report["diverged"] = sorted(set(diverged)
                                        | set(diverged_parallel))
    return report


def render(report: Dict[str, object]) -> str:
    modes = report["modes"]
    lines = [f"{'mode':18s} {'wall (s)':>10s} {'labeling (s)':>13s} "
             f"{'hit rate':>9s}",
             "-" * 54]
    for name, mode in modes.items():
        timings = mode.get("timings_seconds", {})
        rate = mode.get("label_hit_rate")
        lines.append(
            f"{name:18s} {mode['wall_seconds']:>10.4f} "
            f"{timings.get('labeling', 0.0):>13.4f} "
            f"{'' if rate is None else format(rate, '>9.1%')}")
    lines.append("-" * 54)
    lines.append(f"speedup (cached/uncached serial): "
                 f"{report['speedup_cached_vs_uncached']:.2f}x over "
                 f"{report['jobs']} compiles")
    lines.append("output identical across modes: "
                 + ("yes" if report["identical_output"] else
                    "NO -- " + ", ".join(report["diverged"])))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 3 kernels and the generated "
                             "programs, serial modes only, no JSON; "
                             "fails on any cached-vs-cold output "
                             "divergence")
    parser.add_argument("--output", default=str(ROOT /
                                                "BENCH_COMPILE.json"),
                        help="where the full run writes its JSON")
    args = parser.parse_args(argv)

    if args.quick:
        kernels = ["real_update", "fir", "convolution"]
        report = measure(kernels, with_parallel=False)
        print(render(report))
        return 0 if report["identical_output"] else 1

    report = measure()
    print(render(report))
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not report["identical_output"]:
        return 1
    if report["speedup_cached_vs_uncached"] < 2.0:
        print("FAIL: expected >= 2x cached-vs-uncached speedup",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
