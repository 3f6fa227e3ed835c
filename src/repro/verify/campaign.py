"""Long-running conformance campaigns: sharded, resumable, self-filing.

:func:`repro.verify.diff.run_conformance` answers "are these fifty
programs clean?".  A *campaign* answers the question the JIT tier and
every future target has to survive: "are the next hundred thousand?"
-- and it has to answer it on real machines, where runs get killed,
budgets expire, and one genuine bug surfaces as thousands of
superficially different mismatches.

The engine here is built from three deterministic layers:

- **sharding** -- the campaign's index range ``[0, programs)`` is cut
  into contiguous shards, each a picklable
  :class:`repro.evalx.farm.ShardJob` executed (in-process or on a farm
  worker pool) as a serial ``run_conformance(start=..., count=...)``.
  Case ``index`` is a pure function of ``(seed, index, profile)``, so
  the shard decomposition is invisible to the results: the merged
  triage is byte-identical for any shard count and any completion
  order (``tests/verify/test_campaign.py`` pins 1 vs 2 vs 7);

- **checkpointing** -- every completed shard is folded into one
  on-disk JSON state file, written atomically (tmp + ``os.replace``,
  the :mod:`repro.cache` discipline), so a killed campaign resumes
  from its last completed shard with no duplicated and no lost seeds.
  Partial shards simply re-run: their work is cached compile-side by
  the artifact store, so a warm resume recompiles nothing;

- **failure classes** -- mismatches are deduplicated by the
  failure-class fingerprint
  (:func:`repro.verify.corpus.failure_fingerprint`: triage class +
  matrix cell + normalized shrunk-spec hash).  The campaign shrinks a
  bounded number of representatives per coarse group, fingerprints the
  minimal forms, and -- with ``file_new_classes`` -- files exactly one
  reproducer per new class into ``tests/corpus/`` via the existing
  corpus machinery, where tier-1 replay makes it a permanent
  regression test.

CLI: ``python -m repro verify campaign --programs 100000 --shards 64
--resume --budget 600 --file-new-classes``.  Throughput contracts live
in ``benchmarks/bench_campaign.py`` -> ``BENCH_CAMPAIGN.json``.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.verify.progen import ProgenConfig

STATE_FORMAT = 1

#: Named program-shape profiles.  A campaign stores the *name* in its
#: state file (a ProgenConfig is code, a name is data), so a resumed
#: run provably regenerates the same programs.
PROFILES: Dict[str, ProgenConfig] = {
    "default": ProgenConfig(),
    # Smaller programs for volume: one straight-line region, one loop,
    # shallow expressions.  ~4x the programs/sec of "default" at the
    # same matrix -- the 10^5-scale bench profile.
    "small": ProgenConfig(blocks=1, statements=2, loops=1, max_depth=2),
}

#: Derived program seeds are ``seed * 10**6 + index`` (see
#: ``repro.verify.diff._generate_case``), so one campaign can address
#: at most a million indices before seeds would collide.
MAX_PROGRAMS = 1_000_000


class CampaignError(RuntimeError):
    """A campaign cannot run as asked (state clash, config mismatch)."""


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's programs and matrix.

    Two campaigns with equal configs check the identical program set,
    whatever their shard count, worker count, or interruption history
    -- which is why resume refuses a state file whose stored config
    differs from the requested one.
    """

    seed: int = 0
    programs: int = 1000
    shards: int = 8
    targets: Tuple[str, ...] = ("tc25", "m56", "risc16", "asip")
    inputs_per_program: int = 2
    fault: Optional[Tuple[str, str]] = None
    profile: str = "default"

    def __post_init__(self) -> None:
        if self.programs < 1:
            raise ValueError("a campaign needs at least one program")
        if self.programs > MAX_PROGRAMS:
            raise ValueError(
                f"campaigns are capped at {MAX_PROGRAMS} programs "
                "(derived-seed space); split the range across seeds")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; "
                             f"choose from {', '.join(sorted(PROFILES))}")

    def progen_config(self) -> ProgenConfig:
        """The profile's generator shape."""
        return PROFILES[self.profile]

    def shard_ranges(self) -> List[Tuple[int, int]]:
        """Contiguous ``(start, count)`` per shard, near-equal sizes.

        Pure arithmetic on ``(programs, shards)``: the same split on
        every machine, every resume.  Zero-size shards (more shards
        than programs) are dropped.
        """
        shards = max(1, int(self.shards))
        base, extra = divmod(self.programs, shards)
        ranges: List[Tuple[int, int]] = []
        start = 0
        for index in range(shards):
            count = base + (1 if index < extra else 0)
            if count == 0:
                break
            ranges.append((start, count))
            start += count
        return ranges

    def to_json(self) -> dict:
        """The state-file representation (order-stable plain dict)."""
        return {
            "seed": self.seed,
            "programs": self.programs,
            "shards": self.shards,
            "targets": list(self.targets),
            "inputs_per_program": self.inputs_per_program,
            "fault": list(self.fault) if self.fault else None,
            "profile": self.profile,
        }

    @staticmethod
    def from_json(payload: dict) -> "CampaignConfig":
        """Rebuild a config from :meth:`to_json` output."""
        fault = payload.get("fault")
        return CampaignConfig(
            seed=int(payload["seed"]),
            programs=int(payload["programs"]),
            shards=int(payload["shards"]),
            targets=tuple(payload["targets"]),
            inputs_per_program=int(payload["inputs_per_program"]),
            fault=(fault[0], fault[1]) if fault else None,
            profile=payload.get("profile", "default"),
        )


# ----------------------------------------------------------------------
# Campaign state: one atomic JSON file
# ----------------------------------------------------------------------

def new_state(config: CampaignConfig) -> dict:
    """A fresh state dict: every shard pending, nothing classified."""
    return {
        "format": STATE_FORMAT,
        "config": config.to_json(),
        "shards": [{"index": index, "start": start, "count": count,
                    "status": "pending"}
                   for index, (start, count)
                   in enumerate(config.shard_ranges())],
        "classes": {},
        "classified": False,
        "elapsed_seconds": 0.0,
        "runs": 0,
    }


def load_state(path: Path) -> dict:
    """Parse a state file; raises :class:`CampaignError` on junk."""
    try:
        state = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CampaignError(f"cannot read campaign state {path}: {exc}")
    if state.get("format") != STATE_FORMAT:
        raise CampaignError(
            f"unsupported campaign state format "
            f"{state.get('format')!r} in {path}")
    return state


def save_state(path: Path, state: dict) -> None:
    """Atomically persist the state (tmp + ``os.replace``).

    A reader -- including a resuming campaign after this process is
    killed mid-write -- only ever sees the previous complete state or
    the new complete state, never a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def merged_triage(state: dict) -> dict:
    """The deterministic campaign triage record.

    A pure function of the campaign config and the set of *completed*
    shards: shard records are merged in index order (== global seed
    order, since shards are contiguous ranges), so the result is
    byte-identical (after ``json.dumps(..., sort_keys=True)``) for any
    shard count, worker count, completion order, or resume history
    covering the same programs.  No timings, no cache state, no shard
    boundaries leak in.
    """
    config = state["config"]
    done = [shard for shard in state["shards"]
            if shard["status"] == "done"]
    done.sort(key=lambda shard: shard["index"])
    mismatches: List[dict] = []
    for shard in done:
        mismatches.extend(shard["mismatches"])
    class_counts: Dict[str, int] = {}
    for mismatch in mismatches:
        class_counts[mismatch["class"]] = \
            class_counts.get(mismatch["class"], 0) + 1
    return {
        "seed": config["seed"],
        "programs": config["programs"],
        "targets": config["targets"],
        "inputs_per_program": config["inputs_per_program"],
        "fault": config["fault"],
        "profile": config["profile"],
        "complete": len(done) == len(state["shards"]),
        "programs_checked": sum(shard["programs"] for shard in done),
        "cells": sum(shard["cells"] for shard in done),
        "class_counts": class_counts,
        "mismatches": mismatches,
    }


def merged_triage_text(state: dict) -> str:
    """Canonical serialization of :func:`merged_triage` (the byte
    string the shard-invariance contract compares)."""
    return json.dumps(merged_triage(state), sort_keys=True)


# ----------------------------------------------------------------------
# Running a campaign
# ----------------------------------------------------------------------

@dataclass
class CampaignResult:
    """What one ``run_campaign`` invocation did (state carries the rest)."""

    state_path: Path
    state: dict
    shards_run: int = 0
    programs_run: int = 0
    elapsed_seconds: float = 0.0
    budget_exhausted: bool = False
    errors: List[str] = field(default_factory=list)
    new_classes: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Every shard done (whether in this run or an earlier one)."""
        return all(shard["status"] == "done"
                   for shard in self.state["shards"])

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def programs_per_second(self) -> float:
        """Sustained checking rate of *this* invocation."""
        return (self.programs_run / self.elapsed_seconds
                if self.elapsed_seconds else 0.0)

    @property
    def mismatch_count(self) -> int:
        return sum(len(shard.get("mismatches", ()))
                   for shard in self.state["shards"]
                   if shard["status"] == "done")

    @property
    def class_count(self) -> int:
        return len(self.state["classes"])


def _shard_job(config: CampaignConfig, shard: dict):
    from repro.evalx.farm import ShardJob
    return ShardJob(seed=config.seed, start=shard["start"],
                    count=shard["count"], targets=config.targets,
                    inputs_per_program=config.inputs_per_program,
                    fault=config.fault,
                    config=config.progen_config())


def _fold_result(shard: dict, result) -> None:
    """Merge one shard's farm result into its state record."""
    if result.ok:
        shard.update(result.payload)
        shard["status"] = "done"
        shard.pop("error", None)
    else:
        shard["error"] = f"{result.error_type}: {result.error}"


def _resolve_state(state_path: Path, config: CampaignConfig,
                   resume: bool) -> dict:
    if Path(state_path).exists():
        if not resume:
            raise CampaignError(
                f"campaign state {state_path} already exists; pass "
                "resume (or --resume) to continue it, or remove it to "
                "start over")
        state = load_state(state_path)
        if state["config"] != config.to_json():
            raise CampaignError(
                f"campaign state {state_path} was created with a "
                "different configuration; refusing to mix program "
                f"ranges (stored: {state['config']})")
        return state
    return new_state(config)


def run_campaign(config: CampaignConfig,
                 state_path: Path,
                 resume: bool = False,
                 jobs: int = 1,
                 budget_seconds: Optional[float] = None,
                 classify: bool = True,
                 file_new_classes: bool = False,
                 corpus_dir: Optional[Path] = None,
                 max_shrinks: int = 12,
                 reps_per_group: int = 3,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignResult:
    """Run (or continue) a campaign; checkpoint after every shard.

    ``resume`` continues an existing state file (config must match);
    without it, an existing file is refused rather than clobbered.
    ``budget_seconds`` bounds this invocation's wall clock: no new
    shard starts after it expires, completed work is checkpointed, and
    a later ``resume`` picks up the remainder.  ``jobs > 1`` runs
    shards on a farm worker pool (shared artifact cache, pooled verify
    sessions), falling back to the serial loop when no pool can start.
    A shard that *errors* stays pending -- its message lands in the
    state file and in ``result.errors`` -- and stops the campaign from
    scheduling further shards, exactly like a worker death: resume
    retries it.

    When every shard is done, mismatches (if any) are deduplicated
    into failure classes: up to ``reps_per_group`` representatives per
    coarse (class, cell) group -- ``max_shrinks`` overall -- are
    shrunk, fingerprinted, and recorded in the state; with
    ``file_new_classes`` each *new* fingerprint files one reproducer
    into ``corpus_dir`` (default ``tests/corpus/``).
    """
    from repro.evalx import farm

    started = time.monotonic()
    state = _resolve_state(state_path, config, resume)
    state["runs"] += 1
    save_state(state_path, state)
    result = CampaignResult(state_path=Path(state_path), state=state)
    pending = [shard for shard in state["shards"]
               if shard["status"] != "done"]
    total_done = sum(shard["programs"] for shard in state["shards"]
                     if shard["status"] == "done")

    def out_of_budget() -> bool:
        return (budget_seconds is not None
                and time.monotonic() - started > budget_seconds)

    def note_shard(shard: dict) -> None:
        nonlocal total_done
        result.shards_run += 1
        if shard["status"] == "done":
            result.programs_run += shard["programs"]
            total_done += shard["programs"]
        result.elapsed_seconds = time.monotonic() - started
        state["elapsed_seconds"] = round(
            state["elapsed_seconds"] + (shard.get("elapsed_seconds", 0.0)
                                        if shard["status"] == "done"
                                        else 0.0), 3)
        save_state(state_path, state)
        if progress is not None:
            rate = result.programs_per_second
            done_shards = sum(1 for s in state["shards"]
                              if s["status"] == "done")
            mismatches = result.mismatch_count
            progress(
                f"[shard {shard['index']}] "
                f"{done_shards}/{len(state['shards'])} shards, "
                f"{total_done}/{config.programs} programs, "
                f"{rate:.1f} programs/s, "
                f"{mismatches} mismatches, "
                f"{len(state['classes'])} classes")

    jobs = max(1, int(jobs))
    executor = (farm.make_farm_executor(max_workers=min(jobs, len(pending)))
                if jobs > 1 and len(pending) > 1 else None)
    if executor is not None:
        _run_shards_parallel(config, pending, jobs, out_of_budget,
                             note_shard, result, executor)
    else:
        _run_shards_serial(config, pending, out_of_budget, note_shard,
                           result)

    if out_of_budget() and not result.complete:
        result.budget_exhausted = True

    if result.complete and classify and not state["classified"]:
        result.new_classes = _classify(
            config, state, max_shrinks=max_shrinks,
            reps_per_group=reps_per_group,
            file_new_classes=file_new_classes, corpus_dir=corpus_dir,
            progress=progress)
        state["classified"] = True
        save_state(state_path, state)

    result.elapsed_seconds = time.monotonic() - started
    save_state(state_path, state)
    return result


def _run_shards_serial(config: CampaignConfig, pending: List[dict],
                       out_of_budget: Callable[[], bool],
                       note_shard: Callable[[dict], None],
                       result: CampaignResult) -> None:
    """Run shards one by one in this process, checkpointing each."""
    from repro.evalx import farm
    for shard in pending:
        if out_of_budget():
            result.budget_exhausted = True
            break
        _fold_result(shard, farm.run_job(_shard_job(config, shard)))
        if shard["status"] != "done":
            result.errors.append(f"shard {shard['index']}: {shard['error']}")
        note_shard(shard)
        if result.errors:
            break


def _run_shards_parallel(config: CampaignConfig, pending: List[dict],
                         jobs: int, out_of_budget: Callable[[], bool],
                         note_shard: Callable[[dict], None],
                         result: CampaignResult, executor) -> None:
    """Dispatch shards onto a farm pool, checkpointing per completion.

    At most ``jobs`` shards are in flight; completions are folded (and
    the state file replaced) as they land, in *any* order -- the merge
    sorts by shard index, so completion order cannot leak into the
    triage.
    """
    from repro.evalx import farm
    try:
        queue = list(pending)
        in_flight = {}
        while queue and len(in_flight) < jobs and not out_of_budget():
            shard = queue.pop(0)
            in_flight[executor.submit(
                farm.run_job, _shard_job(config, shard))] = shard
        if queue and out_of_budget():
            result.budget_exhausted = True
        while in_flight:
            finished, _ = wait(list(in_flight),
                               return_when=FIRST_COMPLETED)
            for future in finished:
                shard = in_flight.pop(future)
                try:
                    _fold_result(shard, future.result())
                except Exception as exc:               # noqa: BLE001
                    shard["error"] = f"{type(exc).__name__}: {exc}"
                if shard["status"] != "done":
                    result.errors.append(
                        f"shard {shard['index']}: {shard['error']}")
                note_shard(shard)
            if result.errors:
                queue.clear()
            stop = out_of_budget()
            if stop and queue:
                result.budget_exhausted = True
                queue.clear()
            while queue and len(in_flight) < jobs:
                shard = queue.pop(0)
                in_flight[executor.submit(
                    farm.run_job, _shard_job(config, shard))] = shard
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# Failure classes: shrink, fingerprint, file
# ----------------------------------------------------------------------

def _parse_cell(text: str) -> Tuple[str, str, str]:
    compiler, target, sim = text.split("/")
    return compiler, target, sim


def _classify(config: CampaignConfig, state: dict,
              max_shrinks: int, reps_per_group: int,
              file_new_classes: bool, corpus_dir: Optional[Path],
              progress: Optional[Callable[[str], None]]) -> List[str]:
    """Dedup the campaign's mismatches into failure classes.

    One representative mismatch per failing *program* (its first
    failing cell, matching the single-run corpus writer), grouped by
    the coarse (class, cell) key; each group shrinks up to
    ``reps_per_group`` representatives in seed order, bounded by
    ``max_shrinks`` overall, and every shrunk form is fingerprinted.
    Returns the fingerprints newly added to the state.
    """
    import random

    from repro.selftest.generator import Fault
    from repro.verify.corpus import (
        CorpusEntry, default_corpus_dir, failure_fingerprint,
        load_corpus, program_to_spec,
    )
    from repro.verify.diff import Cell, instruction_count, still_fails
    from repro.verify.progen import generate_inputs, generate_program
    from repro.verify.shrink import shrink_program

    triage = merged_triage(state)
    groups: Dict[Tuple[str, str], List[dict]] = {}
    seen_programs = set()
    for mismatch in triage["mismatches"]:
        if mismatch["seed"] in seen_programs:
            continue
        seen_programs.add(mismatch["seed"])
        groups.setdefault((mismatch["class"], mismatch["cell"]),
                          []).append(mismatch)

    fault = Fault(*config.fault) if config.fault else None
    progen = config.progen_config()
    new_fingerprints: List[str] = []
    directory = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    filed = {entry.class_fingerprint(): entry.name
             for entry in load_corpus(directory)} if file_new_classes \
        else {}
    shrinks = 0

    for key in sorted(groups):
        mismatch_class, cell_text = key
        for mismatch in groups[key][:reps_per_group]:
            if shrinks >= max_shrinks:
                break
            shrinks += 1
            seed = mismatch["seed"]
            index = seed - config.seed * 1_000_000
            rng = random.Random(seed)
            program = generate_program(rng, index, progen)
            all_sets = [generate_inputs(rng, program)
                        for _ in range(config.inputs_per_program)]
            compiler, target, sim = _parse_cell(cell_text)
            cell = Cell(compiler, target, sim) if sim != "*" else None
            check_targets = (target,)
            input_sets = next(
                ([candidate] for candidate in all_sets
                 if still_fails(program, [candidate],
                                targets=check_targets, fault=fault,
                                cell=cell)),
                all_sets)
            try:
                small = shrink_program(
                    program,
                    lambda candidate: still_fails(
                        candidate, input_sets, targets=check_targets,
                        fault=fault, cell=cell))
            except ValueError:
                small = program        # not reproducible standalone
            small_spec = program_to_spec(small)
            cell_dict = {"compiler": compiler, "target": target,
                         "sim": sim}
            fingerprint = failure_fingerprint(mismatch_class, cell_dict,
                                              small_spec)
            record = state["classes"].get(fingerprint)
            if record is not None:
                record["programs"] += 1
                continue
            try:
                size = instruction_count(small, target_name=target)
            except Exception:                          # noqa: BLE001
                size = -1
            record = {
                "class": mismatch_class,
                "cell": cell_dict,
                "seed": seed,
                "program": mismatch["program"],
                "instructions": size,
                "programs": 1,
                "filed": "",
            }
            if file_new_classes and fingerprint not in filed:
                kept = set(small.symbols)
                entry = CorpusEntry(
                    name=f"campaign-{mismatch_class}-{fingerprint[:8]}",
                    seed=seed,
                    program_spec=small_spec,
                    inputs={k: v for inputs in input_sets[:1]
                            for k, v in inputs.items() if k in kept},
                    fault=config.fault,
                    cell=cell_dict,
                    mismatch_class=("injected-fault" if fault
                                    else mismatch_class),
                    note="auto-filed by repro.verify.campaign",
                    fingerprint=fingerprint)
                record["filed"] = str(entry.write(directory))
                filed[fingerprint] = entry.name
            state["classes"][fingerprint] = record
            new_fingerprints.append(fingerprint)
            if progress is not None:
                progress(f"[class {fingerprint}] {mismatch_class} in "
                         f"{cell_text}: {size} instructions"
                         + (f" -> {record['filed']}"
                            if record["filed"] else ""))
        if shrinks >= max_shrinks:
            break
    return new_fingerprints


def summarize(result: CampaignResult) -> str:
    """Human-readable end-of-invocation summary."""
    state = result.state
    config = state["config"]
    done = sum(1 for shard in state["shards"]
               if shard["status"] == "done")
    checked = sum(shard["programs"] for shard in state["shards"]
                  if shard["status"] == "done")
    compiles = sum(shard.get("compiles", 0) for shard in state["shards"]
                   if shard["status"] == "done")
    hits = sum(shard.get("artifact_hits", 0)
               for shard in state["shards"]
               if shard["status"] == "done")
    lines = [
        f"campaign: {checked}/{config['programs']} programs over "
        f"{done}/{len(state['shards'])} shards "
        f"x {{{','.join(config['targets'])}}} "
        f"(profile {config['profile']}, seed {config['seed']})",
        f"  this run: {result.programs_run} programs in "
        f"{result.elapsed_seconds:.1f}s "
        f"({result.programs_per_second:.1f} programs/s, "
        f"{result.shards_run} shards)",
        f"  compiles: {compiles} fresh, {hits} artifact-cache hits",
    ]
    if result.budget_exhausted:
        lines.append("  budget exhausted; continue with --resume")
    for error in result.errors:
        lines.append(f"  ERROR {error}")
    mismatches = result.mismatch_count
    if result.complete and not mismatches:
        lines.append("  all cells agree with the IR oracle")
    elif mismatches:
        triage = merged_triage(state)
        for mismatch_class, count in sorted(
                triage["class_counts"].items()):
            lines.append(f"  {mismatch_class}: {count}")
        lines.append(f"  failure classes: {len(state['classes'])}")
        for fingerprint, record in sorted(state["classes"].items()):
            cell = record["cell"]
            filed = f" filed {record['filed']}" if record["filed"] else ""
            lines.append(
                f"    {fingerprint}: {record['class']} in "
                f"{cell['compiler']}/{cell['target']}/{cell['sim']} "
                f"({record['instructions']} instructions, seed "
                f"{record['seed']}){filed}")
    return "\n".join(lines)
