"""Command-line conformance runner: ``python -m repro.verify``.

Examples::

    # 50 programs, full matrix, fail on any unexplained mismatch
    python -m repro.verify --count 50 --seed 0

    # quick smoke on two targets with a 30s budget + JSON artifact
    python -m repro.verify --count 10 --budget 30 \\
        --targets tc25,risc16 --json conformance.json

    # heavy traffic: 4 worker processes + the persistent artifact
    # cache (.repro-cache/); a repeated run compiles nothing at all
    python -m repro.verify --count 500 --jobs 4

    # prove the harness detects a seeded decoder fault, shrink the
    # witness, and write the reproducer into tests/corpus/
    python -m repro.verify --count 20 --inject-fault ADD:SUB \\
        --write-corpus

    # a sharded, resumable, self-filing conformance campaign
    python -m repro.verify campaign --programs 100000 --shards 64 \\
        --budget 600 --resume --file-new-classes

Exit status: 0 when the matrix is clean (or, under ``--inject-fault``,
when the fault was detected); 1 otherwise.  Campaigns additionally
exit 0 when stopped by ``--budget`` (the state file resumes them) and
1 on any shard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.selftest.generator import Fault
from repro.verify.corpus import default_corpus_dir, load_corpus
from repro.verify.diff import DEFAULT_TARGETS, run_conformance
from repro.verify.shrink import reproducer


def _parse_targets(text: str):
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    for name in names:
        if name not in DEFAULT_TARGETS:
            raise argparse.ArgumentTypeError(
                f"unknown target {name!r}; choose from "
                f"{', '.join(DEFAULT_TARGETS)}")
    return names


def _default_jobs() -> int:
    """``--jobs`` default: the single ``REPRO_JOBS`` override the farm
    honors (see :func:`repro.evalx.farm.jobs_override`), else 1 --
    serial stays the no-surprises default for interactive runs."""
    from repro.evalx.farm import jobs_override
    return jobs_override() or 1


def _parse_fault(text: str) -> Fault:
    try:
        original, replacement = text.split(":")
    except ValueError:
        raise argparse.ArgumentTypeError(
            "fault must be ORIGINAL:REPLACEMENT, e.g. ADD:SUB")
    return Fault(original, replacement)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.verify`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.verify",
        description="differential conformance checking: generated "
                    "programs x {compilers} x {targets} x {simulators} "
                    "against the IR-level oracle")
    parser.add_argument("--count", type=int, default=20,
                        help="programs to generate (default 20)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fuzzer seed (default 0)")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds; the run "
                             "stops early when exhausted")
    parser.add_argument("--targets", type=_parse_targets,
                        default=DEFAULT_TARGETS, metavar="T1,T2,...",
                        help="comma-separated targets "
                             f"(default {','.join(DEFAULT_TARGETS)})")
    parser.add_argument("--inputs", type=int, default=2,
                        help="input sets per program (default 2)")
    parser.add_argument("--jobs", type=int, default=_default_jobs(),
                        metavar="N",
                        help="worker processes for the matrix checks "
                             "(default: $REPRO_JOBS if set, else 1 = "
                             "serial; same triage report at any value)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="use the persistent compilation-artifact "
                             "cache (default on; --no-cache disables)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="artifact cache directory "
                             "(default .repro-cache/)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the mismatch report to this path")
    parser.add_argument("--inject-fault", type=_parse_fault, default=None,
                        metavar="ORIG:REPL",
                        help="inject a decoder fault into every "
                             "simulation; the run then must DETECT it")
    parser.add_argument("--write-corpus", action="store_true",
                        help="shrink failures and write reproducers "
                             "into tests/corpus/")
    parser.add_argument("--corpus-dir", type=Path,
                        default=None,
                        help="override the reproducer directory")
    parser.add_argument("--max-shrink", type=int, default=5,
                        help="failing programs to minimize per run "
                             "(default 5)")
    return parser


def _shrink_and_record(args, report) -> list:
    """Minimize each failing program; optionally write corpus entries.

    Reproducers dedup by failure-class fingerprint (triage class +
    matrix cell + normalized shrunk spec): a fingerprint already in
    the corpus directory -- or already shrunk earlier in this run --
    is reported but not filed again, so one bug surfacing in many
    generated programs yields exactly one corpus entry.
    """
    written = []
    seen_programs = set()
    directory = args.corpus_dir or default_corpus_dir()
    known_classes = {entry.class_fingerprint(): entry.name
                     for entry in load_corpus(directory)} \
        if args.write_corpus else {}
    for verdict, outcome in report.mismatches:
        if verdict.seed in seen_programs:
            continue
        if len(seen_programs) >= args.max_shrink:
            break
        seen_programs.add(verdict.seed)
        entry, size = reproducer(
            verdict.seed, outcome.cell, outcome.mismatch_class,
            args.targets, args.inputs, args.inject_fault, None)
        fingerprint = entry.fingerprint
        print(f"  shrunk {verdict.name} (seed {verdict.seed}) -> "
              f"{size} instructions on {outcome.cell.target} "
              f"(class {fingerprint})")
        if args.write_corpus:
            if fingerprint in known_classes:
                print(f"  duplicate of class {fingerprint} "
                      f"({known_classes[fingerprint]}); not filed")
            else:
                path = entry.write(directory)
                known_classes[fingerprint] = entry.name
                print(f"  wrote {path}")
        written.append(entry)
    return written


def build_campaign_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.verify campaign`` argument parser."""
    from repro.verify.campaign import PROFILES
    parser = argparse.ArgumentParser(
        prog="repro.verify campaign",
        description="sharded, resumable, self-filing conformance "
                    "campaign: shard a seed range over worker "
                    "processes, checkpoint per shard, dedup failures "
                    "into fingerprinted classes")
    parser.add_argument("--programs", type=int, default=1000,
                        help="programs in the campaign range "
                             "(default 1000, max 10^6)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--shards", type=int, default=8,
                        help="work units the range is cut into "
                             "(default 8); triage is byte-identical "
                             "at any value")
    parser.add_argument("--jobs", type=int, default=_default_jobs(),
                        metavar="N",
                        help="worker processes running shards "
                             "(default: $REPRO_JOBS if set, else 1)")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds for this "
                             "invocation; the campaign checkpoints "
                             "and --resume continues it")
    parser.add_argument("--resume", action="store_true",
                        help="continue an existing campaign state "
                             "file (config must match)")
    parser.add_argument("--state", type=Path,
                        default=Path(".repro-campaign.json"),
                        help="campaign state file "
                             "(default .repro-campaign.json)")
    parser.add_argument("--targets", type=_parse_targets,
                        default=DEFAULT_TARGETS, metavar="T1,T2,...",
                        help="comma-separated targets "
                             f"(default {','.join(DEFAULT_TARGETS)})")
    parser.add_argument("--inputs", type=int, default=2,
                        help="input sets per program (default 2)")
    parser.add_argument("--profile", default="default",
                        choices=sorted(PROFILES),
                        help="program-shape profile (default "
                             "'default'; 'small' trades structure "
                             "for volume)")
    parser.add_argument("--inject-fault", type=_parse_fault,
                        default=None, metavar="ORIG:REPL",
                        help="inject a decoder fault into every "
                             "simulation; the campaign must DETECT it")
    parser.add_argument("--file-new-classes", action="store_true",
                        help="file one shrunk reproducer per new "
                             "failure class into tests/corpus/")
    parser.add_argument("--corpus-dir", type=Path, default=None,
                        help="override the reproducer directory")
    parser.add_argument("--max-shrink", type=int, default=12,
                        help="total failing programs to minimize "
                             "during classification (default 12)")
    parser.add_argument("--no-classify", action="store_true",
                        help="skip shrinking/fingerprinting failures "
                             "(triage only)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="use the persistent compilation-artifact "
                             "cache (default on; --no-cache disables)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="artifact cache directory "
                             "(default .repro-cache/)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the merged triage + performance "
                             "record to this path")
    return parser


def campaign_main(argv=None) -> int:
    """``python -m repro.verify campaign``; returns an exit code."""
    import repro.cache
    from repro.verify.campaign import (
        CampaignConfig, CampaignError, merged_triage, run_campaign,
        summarize,
    )

    args = build_campaign_parser().parse_args(argv)
    if args.cache:
        repro.cache.configure(args.cache_dir
                              or repro.cache.default_cache_dir())
    else:
        repro.cache.configure(None)
    config = CampaignConfig(
        seed=args.seed, programs=args.programs, shards=args.shards,
        targets=tuple(args.targets), inputs_per_program=args.inputs,
        fault=((args.inject_fault.original,
                args.inject_fault.replacement)
               if args.inject_fault else None),
        profile=args.profile)
    try:
        result = run_campaign(
            config, args.state, resume=args.resume, jobs=args.jobs,
            budget_seconds=args.budget,
            classify=not args.no_classify,
            file_new_classes=args.file_new_classes,
            corpus_dir=args.corpus_dir, max_shrinks=args.max_shrink,
            progress=print)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summarize(result))

    if args.json is not None:
        record = merged_triage(result.state)
        record["performance"] = {
            "jobs": args.jobs,
            "this_run_programs": result.programs_run,
            "this_run_seconds": round(result.elapsed_seconds, 3),
            "programs_per_second": round(result.programs_per_second, 2),
            "accumulated_shard_seconds":
                result.state["elapsed_seconds"],
            "classes": len(result.state["classes"]),
        }
        args.json.write_text(json.dumps(record, indent=2) + "\n")
        print(f"report written to {args.json}")

    if result.errors:
        return 1
    if args.inject_fault is not None and result.complete:
        detected = result.mismatch_count > 0
        print(f"fault {args.inject_fault.name}: "
              f"{'DETECTED' if detected else 'NOT DETECTED'}")
        return 0 if detected else 1
    if result.complete and result.mismatch_count \
            and args.inject_fault is None:
        return 1
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    import repro.cache

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        return campaign_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    if args.cache:
        repro.cache.configure(args.cache_dir
                              or repro.cache.default_cache_dir())
    else:
        repro.cache.configure(None)
    report = run_conformance(count=args.count, seed=args.seed,
                             targets=args.targets,
                             inputs_per_program=args.inputs,
                             budget_seconds=args.budget,
                             fault=args.inject_fault,
                             jobs=args.jobs)
    print(report.summary())
    timings = report.stage_timings()
    if timings:
        total = sum(seconds for stage, seconds in timings.items()
                    if stage not in ("variants", "labeling"))
        print(f"  compile time {total:.2f}s by stage: " + ", ".join(
            f"{stage} {seconds:.2f}s"
            for stage, seconds in sorted(timings.items(),
                                         key=lambda kv: -kv[1])))
    decode = report.sim_stats.get("decode_cache")
    jit = report.sim_stats.get("jit")
    if decode is not None and jit is not None:
        print(f"  sim tiers: decode cache {decode['hits']} hits / "
              f"{decode['misses']} misses / "
              f"{decode['fallbacks']} fallbacks; "
              f"jit {jit['blocks_emitted']} blocks emitted "
              f"({jit['loop_blocks']} fused loops), "
              f"{jit['blocks_closure']} closure blocks, "
              f"{jit['fallbacks']} program fallbacks, "
              f"source cache {jit['source_cache_hits']} hits / "
              f"{jit['source_cache_misses']} misses")

    if args.json is not None:
        args.json.write_text(json.dumps(report.to_json(), indent=2) + "\n")
        print(f"report written to {args.json}")

    if args.inject_fault is not None:
        detected = bool(report.mismatches)
        if detected:
            _shrink_and_record(args, report)
        print(f"fault {args.inject_fault.name}: "
              f"{'DETECTED' if detected else 'NOT DETECTED'}")
        return 0 if detected else 1

    if report.mismatches and args.write_corpus:
        _shrink_and_record(args, report)
    return 0 if not report.mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
