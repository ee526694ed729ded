"""Resume semantics for replay campaigns: kill, truncate, rerun.

A journal truncated mid-campaign must resume to the same final
``ReplayReport`` without re-running completed units -- the acceptance
criterion for interrupted campaigns.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness import load_journal
from repro.harness.campaigns import run_replay_campaign
from repro.obs import MetricsRegistry
from repro.recovery import CheckpointRollback, replay_study

#: A child that journals a replay campaign over the first N faults, then
#: waits to be killed (so the kill always finds a live process).
_JOURNALING_CHILD = """
import sys, time
from repro.corpus import full_study
from repro.harness.campaigns import run_replay_campaign
from repro.recovery import CheckpointRollback
faults = full_study().all_faults()[: int(sys.argv[2])]
run_replay_campaign(faults, CheckpointRollback, journal_path=sys.argv[1])
time.sleep(600)
"""


def _complete_lines(path):
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


@pytest.fixture()
def faults(study):
    return study.all_faults()[:30]


@pytest.fixture()
def baseline(faults):
    return run_replay_campaign(faults, CheckpointRollback)


class TestJournaledCampaign:
    def test_journal_records_every_unit(self, faults, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_replay_campaign(faults, CheckpointRollback, journal_path=journal)
        contents = load_journal(journal)
        assert contents.completed == len(faults)
        assert contents.meta["kind"] == "replay"
        assert contents.meta["technique"] == "checkpoint-rollback"

    def test_rerun_resumes_everything(self, faults, baseline, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_replay_campaign(faults, CheckpointRollback, journal_path=journal)
        telemetry = MetricsRegistry()
        resumed = run_replay_campaign(
            faults, CheckpointRollback, journal_path=journal, telemetry=telemetry
        )
        assert resumed == baseline
        assert telemetry.counter("units.executed") == 0
        assert telemetry.counter("units.resumed") == len(faults)


class TestTruncatedJournalResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_truncated_journal_resumes_to_same_report(
        self, faults, baseline, tmp_path, workers
    ):
        journal = tmp_path / "run.jsonl"
        run_replay_campaign(faults, CheckpointRollback, journal_path=str(journal))

        # Simulate a kill mid-campaign: keep the header, the first 11
        # complete records, and a torn 12th line.
        lines = journal.read_text().splitlines()
        kept = lines[: 1 + 11]
        torn = lines[1 + 11][: len(lines[1 + 11]) // 2]
        journal.write_text("\n".join(kept + [torn]) + "\n")

        telemetry = MetricsRegistry()
        resumed = run_replay_campaign(
            faults,
            CheckpointRollback,
            journal_path=str(journal),
            workers=workers,
            telemetry=telemetry,
        )
        assert resumed == baseline
        assert telemetry.counter("units.resumed") == 11
        assert telemetry.counter("units.executed") == len(faults) - 11
        # The journal is whole again after the resume.
        assert load_journal(journal).completed == len(faults)

    def test_resume_applies_to_replay_study_entry_point(self, study, tmp_path):
        journal = tmp_path / "full.jsonl"
        expected = replay_study(study, CheckpointRollback)
        replay_study(study, CheckpointRollback, journal=str(journal))

        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:70]) + "\n")

        resumed = replay_study(study, CheckpointRollback, journal=str(journal))
        assert resumed == expected


class TestKilledCampaignResume:
    def test_sigkill_mid_campaign_resumes_to_same_report(
        self, faults, baseline, tmp_path
    ):
        journal = tmp_path / "run.jsonl"
        wanted = 5  # completed unit lines to wait for before the kill
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _JOURNALING_CHILD, str(journal), str(len(faults))],
            env=env,
        )
        deadline = time.monotonic() + 120  # a hang guard, not a pacing sleep
        try:
            # Header plus `wanted` unit lines, each ended by its newline.
            while _complete_lines(journal) < 1 + wanted:
                assert child.poll() is None, "child exited before the kill"
                assert time.monotonic() < deadline, "child never journaled"
                time.sleep(0.001)
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL

        contents = load_journal(journal)
        assert contents.completed >= wanted
        assert contents.skipped_lines <= 1
        telemetry = MetricsRegistry()
        resumed = run_replay_campaign(
            faults, CheckpointRollback, journal_path=str(journal), telemetry=telemetry
        )
        assert resumed == baseline
        assert telemetry.counter("units.resumed") == contents.completed


class TestJournalUnitIdentity:
    def test_journaled_units_are_self_describing(self, faults, tmp_path):
        journal = tmp_path / "run.jsonl"
        run_replay_campaign(faults, CheckpointRollback, journal_path=str(journal))
        for line in journal.read_text().splitlines()[1:3]:
            record = json.loads(line)
            unit = record["unit"]
            assert unit["kind"] == "replay"
            assert unit["technique"] == "checkpoint-rollback"
            assert isinstance(unit["seed"], int)
            assert record["result"]["fault_id"] == unit["fault_id"]
