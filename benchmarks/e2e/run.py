"""Run one workload of the end-to-end benchmark and print its metrics.

Run from the repository root (``compare.py collect`` runs all four
workloads over several seeds)::

    python3 benchmarks/e2e/run.py --workload table1 --seed 0 --trace 0

``--workload`` is one of the workloads of ``BENCHMARK.json``
(``table1``, ``campaign``, ``serve`` and ``tune``; see README.md in
this directory), and ``--seconds`` defaults to its ``run_seconds``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, and ``--trace-out PATH``
also writes the spans as Chrome trace-event JSON.
A human-readable summary goes to standard error.

The benchmark pins ``REPRO_JOBS=1`` and puts all load on this one
process (plus, for ``serve``, the server it starts).  Apart from
``--trace-out``, it writes only under ``.e2e-work/`` in the checkout and
removes what it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
#: Set-up is measured this many times per run (this process plus
#: fresh ones that stop after set-up) and reported as the median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def load_bench() -> dict:
    """The benchmark definition, ``BENCHMARK.json``: the workloads, the
    metrics with their units and bounds, and ``run_seconds``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names(bench: dict) -> list:
    """The workload names, in ``BENCHMARK.json`` order."""
    return [workload["name"] for workload in bench["workloads"]]


def use_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ["REPRO_JOBS"] = "1"
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"e2e: cannot import repro from {ROOT / 'src'}: "
                         f"{exc}") from exc
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"e2e: repro imported from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")


def make_workload(name: str, seed: int, work_dir: Path):
    """The workload object for ``name`` (imports the program)."""
    if name == "serve":
        from benchmarks.e2e.serveload import Serve
        return Serve(seed, work_dir)
    from benchmarks.e2e import workloads
    return {"table1": workloads.Table1, "campaign": workloads.Campaign,
            "tune": workloads.Tune}[name](seed, work_dir)


def per_layer_names():
    """``(name, unit)`` of every per-layer metric, in report order."""
    from benchmarks.e2e.layers import LayerTracer
    names = [(name, unit)
             for name, (_value, unit) in LayerTracer().metrics().items()]
    names += [(f"serve.{stage}_frac", "frac")
              for stage in ("dedup", "queue", "compile", "simulate",
                            "cache", "coalesced", "farm")]
    names += [("serve.batch_size_mean", "jobs"),
              ("serve.recompiles", "count"),
              ("serve.sustained_rps", "req/s"),
              ("loadgen.late_frac", "frac"),
              ("trace.overhead_frac", "frac")]
    return names


def _setup_sample(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up of {workload} failed "
                           f"(exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_dir: Path, trace_out=None, setup_samples=(),
                 started=None) -> dict:
    """Set up, measure and grade one workload; returns the result object
    (``correct``, ``attempted``, ``failed``, ``metrics``).

    Set-up time runs from ``started`` (default: now) to the first timed
    op; ``setup_samples`` are more such times, from fresh processes.
    """
    from benchmarks.e2e.layers import LayerTracer
    from benchmarks.e2e.workloads import percentile
    if started is None:
        started = perf_counter()
    workload = make_workload(name, seed, work_dir)
    try:
        workload.setup()
        setup_s = perf_counter() - started
        tracer = LayerTracer(keep_spans=trace_out is not None) \
            if trace else None
        result = workload.measure(seconds, tracer)
    finally:
        workload.close()

    if trace:
        layers = dict.fromkeys((n for n, _u in per_layer_names()), 0.0)
        layers.update({key: value for key, (value, _unit)
                       in tracer.metrics().items()})
        layers.update(result.extra_layers)
        metrics = {metric: {"value": layers[metric], "unit": unit}
                   for metric, unit in per_layer_names()}
        if trace_out is not None:
            tracer.write_chrome_trace(trace_out, f"e2e {name} seed {seed}")
    else:
        values = {
            "setup_s": (statistics.median([setup_s, *setup_samples]), "s"),
            "throughput_ops_s": (result.throughput, "ops/s"),
            "latency_p50_ms": (percentile(result.latencies, 0.5) * 1e3,
                               "ms"),
            "latency_p90_ms": (percentile(result.latencies, 0.9) * 1e3,
                               "ms"),
            "peak_rss_mb": (result.peak_rss_mb, "MB"),
            "code_words": (result.code_words, "words"),
            "code_cycles": (result.code_cycles, "cycles"),
        }
        metrics = {metric: {"value": value, "unit": unit}
                   for metric, (value, unit) in values.items()}
    return {"correct": result.failed == 0, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}


def _summary(name: str, result: dict) -> str:
    lines = [f"e2e {name}: attempted {result['attempted']}, "
             f"failed {result['failed']}"]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:32s} {entry['value']:14.4f} "
                     f"{entry['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = load_bench()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workload_names(bench))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="with --trace 1, write Chrome trace JSON here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"e2e: no program to measure under {ROOT / 'src'}")
    samples = []
    if not args.trace and not args.setup_only:
        samples = [_setup_sample(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]
    started = perf_counter()
    use_checkout()
    work_dir = ROOT / ".e2e-work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workload = make_workload(args.workload, args.seed, work_dir)
            try:
                workload.setup()
                setup_s = perf_counter() - started
            finally:
                workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), work_dir,
                              trace_out=args.trace_out,
                              setup_samples=samples, started=started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    print(_summary(args.workload, result), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
