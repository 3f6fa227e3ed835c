"""Campaign engine: sharding, resume, determinism, failure classes.

The promises under test:

- **shard determinism** -- the same seed range split over 1, 2 and 7
  shards yields a byte-identical merged triage (`merged_triage_text`),
  and the parallel dispatcher cannot change it either;
- **crash resume** -- a campaign killed mid-flight (simulated worker
  death) resumes with no duplicated and no lost seeds and ends with
  the identical final triage;
- **budget** -- an expired budget checkpoints instead of discarding,
  and `resume` finishes the remainder;
- **state discipline** -- the state file is refused when it exists
  without `resume`, refused on config mismatch, and every checkpoint
  is a complete, parseable JSON document;
- **failure classes** -- an injected decoder fault's many mismatches
  dedup to a small set of fingerprinted classes, each filed at most
  once into the corpus directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.cache
from repro.evalx import farm
from repro.verify.campaign import (
    CampaignConfig, CampaignError, load_state, merged_triage,
    merged_triage_text, run_campaign, summarize,
)

TARGETS = ("tc25",)


@pytest.fixture(autouse=True)
def _no_leaked_cache():
    """Every test starts and ends with caching off."""
    repro.cache.configure(None)
    yield
    repro.cache.configure(None)


def _config(**overrides) -> CampaignConfig:
    base = dict(seed=0, programs=8, shards=4, targets=TARGETS,
                inputs_per_program=2, profile="small")
    base.update(overrides)
    return CampaignConfig(**base)


# ----------------------------------------------------------------------
# Config / sharding arithmetic
# ----------------------------------------------------------------------

def test_shard_ranges_cover_exactly_once():
    for programs, shards in ((8, 4), (10, 3), (1, 8), (7, 7), (100, 9)):
        config = _config(programs=programs, shards=shards)
        ranges = config.shard_ranges()
        indices = [index for start, count in ranges
                   for index in range(start, start + count)]
        assert indices == list(range(programs)), (programs, shards)
        assert all(count > 0 for _start, count in ranges)


def test_config_round_trips_through_json():
    config = _config(fault=("ADD", "SUB"), shards=3)
    assert CampaignConfig.from_json(config.to_json()) == config


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        _config(programs=0)
    with pytest.raises(ValueError):
        _config(programs=2_000_000)
    with pytest.raises(ValueError):
        _config(profile="no-such-profile")


# ----------------------------------------------------------------------
# Shard determinism
# ----------------------------------------------------------------------

def test_merged_triage_invariant_across_shard_counts(tmp_path):
    """1, 2 and 7 shards over the same range: byte-identical triage."""
    texts = []
    for shards in (1, 2, 7):
        config = _config(shards=shards)
        result = run_campaign(config, tmp_path / f"state-{shards}.json")
        assert result.complete and result.ok
        texts.append(merged_triage_text(result.state))
    assert texts[0] == texts[1] == texts[2]


def test_parallel_dispatch_matches_serial_triage(tmp_path):
    config = _config(shards=4)
    serial = run_campaign(config, tmp_path / "serial.json")
    parallel = run_campaign(config, tmp_path / "parallel.json", jobs=2)
    assert parallel.complete and parallel.ok
    assert merged_triage_text(parallel.state) \
        == merged_triage_text(serial.state)


def test_pool_startup_failure_runs_shards_serially(tmp_path, monkeypatch):
    """jobs=2 with no pool available: the serial shard loop, same
    merged triage as a jobs=1 run."""
    config = _config(shards=4, fault=("ADD", "SUB"))
    serial = run_campaign(config, tmp_path / "serial.json", classify=False)
    monkeypatch.setattr(farm, "make_farm_executor",
                        lambda max_workers=None: None)
    degraded = run_campaign(config, tmp_path / "degraded.json", jobs=2,
                            classify=False)
    assert degraded.complete and degraded.shards_run == 4
    assert merged_triage_text(degraded.state) \
        == merged_triage_text(serial.state)


def test_triage_invariant_with_mismatches(tmp_path):
    """Shard invariance must hold for red campaigns too."""
    texts = []
    for shards in (1, 3):
        config = _config(programs=4, shards=shards,
                         fault=("ADD", "SUB"))
        result = run_campaign(config, tmp_path / f"red-{shards}.json",
                              classify=False)
        assert result.complete
        assert result.mismatch_count > 0, \
            "the seeded fault must be detected"
        texts.append(merged_triage_text(result.state))
    assert texts[0] == texts[1]


# ----------------------------------------------------------------------
# Crash + resume
# ----------------------------------------------------------------------

def test_crash_resume_no_lost_or_duplicate_seeds(tmp_path, monkeypatch):
    """Kill the campaign after two shards; --resume finishes it."""
    config = _config(programs=10, shards=5)
    reference = run_campaign(config, tmp_path / "uninterrupted.json")
    assert reference.complete

    state_path = tmp_path / "crashing.json"
    real = farm.run_job
    calls = []

    def dies_after_two(job):
        if len(calls) >= 2:
            raise RuntimeError("worker killed mid-campaign")
        calls.append(job)
        return real(job)

    monkeypatch.setattr(farm, "run_job", dies_after_two)
    with pytest.raises(RuntimeError):
        run_campaign(config, state_path)

    # The checkpoint survived the crash: exactly the two completed
    # shards are recorded, the rest are still pending.
    state = load_state(state_path)
    done = [shard for shard in state["shards"]
            if shard["status"] == "done"]
    assert len(done) == 2
    done_indices = {index for shard in done
                    for index in range(shard["start"],
                                       shard["start"] + shard["count"])}
    assert len(done_indices) == sum(shard["count"] for shard in done)

    monkeypatch.setattr(farm, "run_job", real)
    resumed = run_campaign(config, state_path, resume=True)
    assert resumed.complete and resumed.ok
    assert resumed.shards_run == 3, "done shards must not re-run"

    # No seed lost, none checked twice, identical final triage.
    final = load_state(state_path)
    covered = [index for shard in final["shards"]
               for index in range(shard["start"],
                                  shard["start"] + shard["count"])]
    assert sorted(covered) == list(range(config.programs))
    assert len(covered) == len(set(covered))
    assert merged_triage_text(final) \
        == merged_triage_text(reference.state)


def test_worker_error_checkpoints_and_resumes(tmp_path, monkeypatch):
    """An error *result* (not a crash) also leaves a resumable state."""
    config = _config(programs=8, shards=4)
    reference = run_campaign(config, tmp_path / "ref.json")

    real = farm.ShardJob.run
    seen = []

    def errors_on_third(job):
        seen.append(job)
        if len(seen) == 3:
            raise RuntimeError("simulated death")
        return real(job)

    monkeypatch.setattr(farm.ShardJob, "run", errors_on_third)
    state_path = tmp_path / "erroring.json"
    broken = run_campaign(config, state_path)
    assert not broken.ok and not broken.complete
    assert any("simulated death" in error for error in broken.errors)
    assert "simulated death" in summarize(broken)

    monkeypatch.setattr(farm.ShardJob, "run", real)
    resumed = run_campaign(config, state_path, resume=True)
    assert resumed.complete and resumed.ok
    assert merged_triage_text(resumed.state) \
        == merged_triage_text(reference.state)


def test_budget_checkpoints_then_resume_completes(tmp_path):
    config = _config(programs=8, shards=4)
    reference = run_campaign(config, tmp_path / "ref.json")

    state_path = tmp_path / "budgeted.json"
    stopped = run_campaign(config, state_path, budget_seconds=0.0)
    assert stopped.budget_exhausted and not stopped.complete
    assert stopped.shards_run == 0

    resumed = run_campaign(config, state_path, resume=True)
    assert resumed.complete
    assert merged_triage_text(resumed.state) \
        == merged_triage_text(reference.state)


def test_resume_of_finished_campaign_runs_nothing(tmp_path):
    config = _config()
    first = run_campaign(config, tmp_path / "state.json")
    assert first.complete
    again = run_campaign(config, tmp_path / "state.json", resume=True)
    assert again.complete and again.shards_run == 0 \
        and again.programs_run == 0


# ----------------------------------------------------------------------
# State discipline
# ----------------------------------------------------------------------

def test_existing_state_refused_without_resume(tmp_path):
    config = _config()
    run_campaign(config, tmp_path / "state.json")
    with pytest.raises(CampaignError, match="already exists"):
        run_campaign(config, tmp_path / "state.json")


def test_resume_refuses_config_mismatch(tmp_path):
    run_campaign(_config(programs=8), tmp_path / "state.json")
    with pytest.raises(CampaignError, match="different configuration"):
        run_campaign(_config(programs=9), tmp_path / "state.json",
                     resume=True)


def test_every_checkpoint_is_complete_json(tmp_path, monkeypatch):
    """Readers never see a torn state file mid-campaign."""
    real = farm.ShardJob.run
    state_path = tmp_path / "state.json"

    def checks_checkpoint(job):
        if state_path.exists():
            state = load_state(state_path)     # parses, right format
            for shard in state["shards"]:
                assert shard["status"] in ("pending", "done")
        return real(job)

    monkeypatch.setattr(farm.ShardJob, "run", checks_checkpoint)
    result = run_campaign(_config(), state_path)
    assert result.complete
    assert not list(tmp_path.glob(".*.tmp")), \
        "no temp files may survive the atomic replace"


# ----------------------------------------------------------------------
# Failure classes
# ----------------------------------------------------------------------

def test_fault_campaign_dedups_into_classes(tmp_path):
    corpus_dir = tmp_path / "corpus"
    config = _config(seed=3, programs=8, shards=3,
                     fault=("ADD", "SUB"))
    result = run_campaign(config, tmp_path / "state.json",
                          file_new_classes=True, corpus_dir=corpus_dir,
                          max_shrinks=6)
    assert result.complete
    assert result.mismatch_count > 6, \
        "a decoder fault should fail many cells"
    assert 0 < result.class_count < result.mismatch_count, \
        "classes must dedup mismatches"
    filed = sorted(corpus_dir.glob("campaign-*.json"))
    assert len(filed) == len(result.new_classes)
    for path in filed:
        payload = json.loads(path.read_text())
        assert payload["fingerprint"]
        assert payload["fingerprint"] in result.state["classes"]

    # A second campaign over the same range files nothing new: every
    # class fingerprint is already in the corpus directory.
    rerun = run_campaign(config, tmp_path / "state2.json",
                         file_new_classes=True, corpus_dir=corpus_dir,
                         max_shrinks=6)
    assert rerun.complete
    assert sorted(corpus_dir.glob("campaign-*.json")) == filed
    assert all(not record["filed"]
               for record in rerun.state["classes"].values())


def test_classification_is_deterministic(tmp_path):
    config = _config(seed=3, programs=6, shards=2, fault=("ADD", "SUB"))
    first = run_campaign(config, tmp_path / "a.json", max_shrinks=4)
    second = run_campaign(config, tmp_path / "b.json", max_shrinks=4)
    assert set(first.state["classes"]) == set(second.state["classes"])


# ----------------------------------------------------------------------
# Merged triage content + CLI
# ----------------------------------------------------------------------

def test_merged_triage_matches_run_conformance(tmp_path):
    """A campaign's mismatch list is the one-shot run's, re-sharded."""
    from repro.verify.campaign import PROFILES
    from repro.verify.diff import run_conformance

    config = _config(programs=6, shards=3, fault=("ADD", "SUB"))
    from repro.selftest.generator import Fault
    report = run_conformance(count=6, seed=0, targets=TARGETS,
                             config=PROFILES["small"],
                             fault=Fault("ADD", "SUB"))
    result = run_campaign(config, tmp_path / "state.json",
                          classify=False)
    triage = merged_triage(result.state)
    assert triage["mismatches"] == report.triage_json()["mismatches"]
    assert triage["class_counts"] == report.class_counts()
    assert triage["cells"] == report.cells_checked


def test_cli_campaign_smoke(tmp_path, capsys):
    from repro.verify.__main__ import main
    state = tmp_path / "state.json"
    out = tmp_path / "report.json"
    status = main(["campaign", "--programs", "6", "--shards", "3",
                   "--targets", "tc25", "--profile", "small",
                   "--state", str(state),
                   "--cache-dir", str(tmp_path / "cache"),
                   "--json", str(out)])
    assert status == 0
    text = capsys.readouterr().out
    assert "all cells agree with the IR oracle" in text
    payload = json.loads(out.read_text())
    assert payload["complete"] is True
    assert payload["programs_checked"] == 6
    assert payload["performance"]["programs_per_second"] > 0

    # Re-running without --resume must refuse (exit 2), with --resume
    # it is a no-op continue (exit 0).
    assert main(["campaign", "--programs", "6", "--shards", "3",
                 "--targets", "tc25", "--profile", "small",
                 "--state", str(state), "--no-cache"]) == 2
    assert main(["campaign", "--programs", "6", "--shards", "3",
                 "--targets", "tc25", "--profile", "small",
                 "--state", str(state), "--no-cache", "--resume"]) == 0


def test_cli_campaign_detects_fault(tmp_path, capsys):
    from repro.verify.__main__ import main
    status = main(["campaign", "--programs", "4", "--shards", "2",
                   "--targets", "tc25", "--profile", "small",
                   "--inject-fault", "ADD:SUB", "--no-cache",
                   "--max-shrink", "2",
                   "--state", str(tmp_path / "state.json"),
                   "--corpus-dir", str(tmp_path / "corpus"),
                   "--file-new-classes"])
    assert status == 0
    assert "DETECTED" in capsys.readouterr().out
    assert list((tmp_path / "corpus").glob("campaign-*.json"))
