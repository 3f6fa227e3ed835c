"""Collect runs of the end-to-end benchmark and compare two sets of them.

Collect ``--runs`` runs of every workload (one run per seed, seeds
``--seed0``, ``--seed0 + 1``, ...) from one or more checkouts.  With
two checkouts the runs alternate, and which side runs first rotates
with each pair::

    python3 benchmarks/e2e/compare.py collect --out runs --runs 10
    python3 benchmarks/e2e/compare.py collect --out runs --runs 10 \\
        --root ../parent --root .

Results land in ``OUT/<side>/<workload>.jsonl`` (side ``a``, ``b``, ...
in ``--root`` order) with a ``summary.json`` of medians and quartiles.
Compare a reference set A (the parent, or a first run set) with a set B
(the change, or a second run set of the same commit)::

    python3 benchmarks/e2e/compare.py compare runs/a runs/b

Runs are paired by seed.  For each end-to-end metric and workload the
verdict is ``regressed`` when B's median is worse than A's by more than
the metric's bound in ``BENCHMARK.json``; ``improved`` when B wins at
least 9 of 10 pairs and the medians differ by more than A's
interquartile distance; ``unresolved`` when A's own spread is wider
than the bound and not every B run beats every A run; ``unchanged``
otherwise.  The exit code is 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.run import load_bench, workload_names  # noqa: E402

RUN_TIMEOUT_S = 600


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``; returns its result."""
    done = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} in {root} exited "
                           f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_runs(directory: Path) -> Dict[str, Dict[int, dict]]:
    """``workload -> seed -> result`` of one collected side."""
    runs: Dict[str, Dict[int, dict]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            runs.setdefault(path.stem, {})[entry["seed"]] = entry["result"]
    return runs


def summarize(runs: Dict[str, Dict[int, dict]]) -> dict:
    """Median, quartiles and spread (IQR / median) per metric."""
    summary = {}
    for workload, by_seed in runs.items():
        results = list(by_seed.values())
        metrics = {}
        for name in results[0]["metrics"]:
            values = [result["metrics"][name]["value"] for result in results]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (median, median, median)
            metrics[name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else 0.0,
            }
        summary[workload] = {
            "runs": len(results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics,
        }
    return summary


def collect(args, bench: dict) -> int:
    roots = [Path(root).resolve() for root in (args.root or [ROOT])]
    sides = [args.out / chr(ord("a") + k) for k in range(len(roots))]
    for side in sides:
        side.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or workload_names(bench)
    for pair in range(args.runs):
        seed = args.seed0 + pair
        order = list(range(len(roots)))
        order = order[pair % len(order):] + order[:pair % len(order)]
        for workload in workloads:
            for k in order:
                result = run_once(roots[k], workload, seed, args.seconds)
                with open(sides[k] / f"{workload}.jsonl", "a") as handle:
                    handle.write(json.dumps({"seed": seed,
                                             "result": result}) + "\n")
                print(f"{sides[k].name} {workload} seed {seed}: "
                      f"failed {result['failed']}/{result['attempted']}",
                      file=sys.stderr)
    bounds = {metric["name"]: metric["bound"]
              for metric in bench["end_to_end"]}
    for side in sides:
        summary = summarize(load_runs(side))
        record = {"env": {"python": platform.python_version(),
                          "nproc": os.cpu_count(),
                          "machine": platform.machine()},
                  "seconds": args.seconds, "workloads": summary}
        (side / "summary.json").write_text(
            json.dumps(record, indent=2) + "\n")
        print(f"\n{side}:")
        for workload, entry in summary.items():
            for name, stats in entry["metrics"].items():
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s" \
                        and stats["spread"] > bound / 3:
                    flag = "  SPREAD ABOVE BOUND/3"
                print(f"  {workload:9s} {name:24s} median "
                      f"{stats['median']:12.4f}  spread "
                      f"{stats['spread']:7.4f}{flag}")
    return 0


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """One (metric, workload) verdict for paired runs A and B."""
    sign = 1 if better == "higher" else -1
    median_a, median_b = statistics.median(a), statistics.median(b)
    q1, _q2, q3 = statistics.quantiles(a, n=4)
    scale = abs(median_a) or 1.0
    if sign * (median_a - median_b) / scale > bound:
        return "regressed"
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    if wins >= 0.9 * len(a) and sign * (median_b - median_a) > q3 - q1:
        return "improved"
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if (q3 - q1) / scale > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(args, bench: dict) -> int:
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    metrics = bench["end_to_end"]
    header = f"{'workload':10s}" + "".join(
        f"{metric['name']:>24s}" for metric in metrics)
    print(header)
    regressed = False
    for workload in [w for w in workload_names(bench)
                     if w in runs_a and w in runs_b]:
        seeds = sorted(set(runs_a[workload]) & set(runs_b[workload]))
        if len(seeds) < 2:
            print(f"{workload:10s} fewer than two paired runs")
            continue
        cells = []
        for metric in metrics:
            name = metric["name"]
            a = [runs_a[workload][s]["metrics"][name]["value"]
                 for s in seeds]
            b = [runs_b[workload][s]["metrics"][name]["value"]
                 for s in seeds]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            regressed = regressed or outcome == "regressed"
            median_a = statistics.median(a)
            change = (statistics.median(b) - median_a) / abs(median_a) \
                if median_a else 0.0
            cells.append(f"{outcome} {change:+.1%}")
        print(f"{workload:10s}" + "".join(f"{cell:>24s}" for cell in cells))
    failed = sum(result["failed"] for runs in (runs_a, runs_b)
                 for by_seed in runs.values()
                 for result in by_seed.values())
    if failed:
        print(f"failed ops across both sets: {failed}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    gather = commands.add_parser("collect", help="run and record")
    gather.add_argument("--out", type=Path, required=True)
    gather.add_argument("--root", action="append",
                        help="checkout to run (repeatable; default: this)")
    gather.add_argument("--runs", type=int, default=5)
    gather.add_argument("--workload", action="append",
                        choices=workload_names(bench))
    gather.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    gather.add_argument("--seed0", type=int, default=0)
    pair = commands.add_parser("compare", help="A (reference) vs B")
    pair.add_argument("a", type=Path)
    pair.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args, bench)
    return compare(args, bench)


if __name__ == "__main__":
    sys.exit(main())
