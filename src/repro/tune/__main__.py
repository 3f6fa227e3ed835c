"""CLI: ``python -m repro tune`` (also ``python -m repro.tune``).

Examples::

    # Tune one kernel on one target, print the win, update the DB
    python -m repro tune fir --target tc25

    # The whole DSPStone suite on two targets, JSON out
    python -m repro tune --all-kernels --targets tc25,m56 \\
        --budget 48 --json tune.json

    # A generated program (the conformance generator's seed space)
    python -m repro tune --progen-seed 7 --target m56

Measurements go through the persistent artifact cache under
``--cache-dir`` (default ``.repro-cache/``), so re-tuning is free;
per-kernel bests are recorded into ``--db`` (default
``.repro-tune.json``) unless ``--no-db`` is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.verify.diff import DEFAULT_TARGETS


def _parse_targets(value: str) -> List[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    for name in names:
        if name not in DEFAULT_TARGETS:
            raise argparse.ArgumentTypeError(
                f"unknown target {name!r}; expected one of "
                f"{', '.join(DEFAULT_TARGETS)}")
    if not names:
        raise argparse.ArgumentTypeError("no targets given")
    return names


def build_parser() -> argparse.ArgumentParser:
    """The ``repro tune`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro tune",
        description="Search the RECORD optimization-knob space per "
                    "kernel, measured in real cycles on the jit "
                    "simulator and gated by the conformance oracle.")
    parser.add_argument("kernel", nargs="?", default=None,
                        help="DSPStone kernel name (see `repro list`)")
    parser.add_argument("--all-kernels", action="store_true",
                        help="tune every DSPStone kernel")
    parser.add_argument("--progen-seed", type=int, default=None,
                        metavar="N",
                        help="tune the conformance generator's "
                             "program for seed N instead of a kernel")
    parser.add_argument("--target", default=None,
                        choices=DEFAULT_TARGETS,
                        help="single processor model (default: tc25)")
    parser.add_argument("--targets", type=_parse_targets, default=None,
                        metavar="T1,T2,...",
                        help="comma-separated target list")
    parser.add_argument("--budget", type=int, default=None,
                        help="max configurations measured per "
                             "(kernel, target) cell (default: 48)")
    parser.add_argument("--inputs", type=int, default=None,
                        help="input sets accumulated per measurement "
                             "(default: 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input-generation seed (default: 0)")
    parser.add_argument("--sim", default="jit",
                        choices=("jit", "fast", "reference"),
                        help="simulator tier to measure with "
                             "(default: jit)")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="persistent measurement/artifact cache "
                             "(default: .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="measure without the persistent cache")
    parser.add_argument("--db", default=None,
                        help="tuning database path "
                             "(default: .repro-tune.json)")
    parser.add_argument("--no-db", action="store_true",
                        help="do not record bests into the database")
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH",
                        help="write full outcomes as JSON "
                             "('-' for stdout)")
    return parser


def _programs(args) -> List[object]:
    chosen = [bool(args.kernel), args.all_kernels,
              args.progen_seed is not None]
    if sum(chosen) != 1:
        raise SystemExit("pass exactly one of: a kernel name, "
                         "--all-kernels, or --progen-seed")
    if args.progen_seed is not None:
        import random

        from repro.verify.progen import generate_program
        return [generate_program(random.Random(args.progen_seed),
                                 index=args.progen_seed)]
    from repro.dspstone import KERNEL_NAMES, kernel
    names = list(KERNEL_NAMES) if args.all_kernels else [args.kernel]
    return [kernel(name).program for name in names]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.target and args.targets:
        raise SystemExit("pass --target or --targets, not both")
    targets = args.targets or [args.target or "tc25"]
    try:
        programs = _programs(args)
    except KeyError as exc:
        raise SystemExit(str(exc))

    import repro.cache
    from repro.tune import TuneConfig, TuneError, TuningDB, \
        tune_program
    if not args.no_cache:
        repro.cache.configure(args.cache_dir)
    config_kwargs = {}
    if args.budget is not None:
        config_kwargs["budget"] = args.budget
    if args.inputs is not None:
        config_kwargs["inputs_per_program"] = args.inputs
    config = TuneConfig(sim=args.sim, **config_kwargs)
    db = None if args.no_db else TuningDB.load(args.db)

    outcomes = []
    failures = 0
    for program in programs:
        for target in targets:
            try:
                outcome = tune_program(program, target=target,
                                       config=config, seed=args.seed)
            except TuneError as exc:
                failures += 1
                print(f"{program.name:24s} {target:8s} FAILED: {exc}",
                      file=sys.stderr)
                continue
            outcomes.append(outcome)
            default = outcome.default.total_cycles
            line = (f"{outcome.program:24s} {outcome.target:8s} "
                    f"default {default:7d} cy")
            if outcome.improved:
                saved = default - outcome.best_cycles
                line += (f"  tuned {outcome.best_cycles:7d} cy "
                         f"(-{saved}, -{100 * saved / default:.1f}%)"
                         f"  movers: {', '.join(outcome.movers)}")
                if db is not None:
                    from repro.cache import code_version
                    db.record(program, outcome.target, {
                        "program": outcome.program,
                        "options": outcome.best_options,
                        "tuned_cycles": outcome.best_cycles,
                        "default_cycles": default,
                        "code_version": code_version(),
                    })
            else:
                line += "  (default is best)"
            stats = (f"[{outcome.budget_used} cells, "
                     f"{outcome.cached_measurements} cached]")
            print(f"{line}  {stats}")
    if db is not None and outcomes:
        db.save()
        print(f"tuning db: {db.path} ({len(db.entries)} entries)")

    if args.json_path:
        blob = json.dumps([outcome.to_json() for outcome in outcomes],
                          indent=2, sort_keys=True)
        if args.json_path == "-":
            print(blob)
        else:
            with open(args.json_path, "w") as handle:
                handle.write(blob + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
