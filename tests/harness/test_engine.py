"""Tests for the campaign engine: execution, journaling, telemetry."""

import pytest

from repro.harness import ProgressReporter, WorkUnit, load_journal, run_campaign
from repro.obs import MetricsRegistry


def double_runner(unit, context):
    """Module-level so forked workers resolve it by reference."""
    return {"value": unit.seed * 2, "survived": unit.seed % 2 == 0}


def failing_runner(unit, context):
    if unit.fault_id == "F-3":
        raise RuntimeError("boom")
    return {"value": unit.seed}


def _units(count):
    return [WorkUnit.build("toy", f"F-{i}", seed=i) for i in range(count)]


class TestExecution:
    def test_results_in_submission_order(self):
        units = _units(7)
        campaign = run_campaign(units, double_runner)
        assert [r["value"] for r in campaign.results] == [i * 2 for i in range(7)]
        assert campaign.executed == 7
        assert campaign.resumed == 0

    def test_parallel_matches_serial(self):
        units = _units(23)
        serial = run_campaign(units, double_runner)
        parallel = run_campaign(units, double_runner, workers=3)
        assert serial.results == parallel.results

    def test_empty_campaign(self):
        campaign = run_campaign([], double_runner)
        assert campaign.results == ()

    def test_duplicate_units_rejected(self):
        unit = WorkUnit.build("toy", "F-0", seed=0)
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign([unit, unit], double_runner)

    def test_runner_failure_propagates_but_keeps_journal(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            run_campaign(_units(6), failing_runner, journal_path=str(journal))
        # Units completed before the failure are durable.
        assert load_journal(journal).completed == 3


class TestJournalResume:
    def test_full_resume_runs_nothing(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        units = _units(5)
        first = run_campaign(units, double_runner, journal_path=journal)
        second = run_campaign(units, double_runner, journal_path=journal)
        assert second.executed == 0
        assert second.resumed == 5
        assert second.results == first.results

    def test_partial_journal_runs_only_missing(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        units = _units(8)
        run_campaign(units[:3], double_runner, journal_path=journal)
        campaign = run_campaign(units, double_runner, journal_path=journal)
        assert campaign.resumed == 3
        assert campaign.executed == 5
        assert [r["value"] for r in campaign.results] == [i * 2 for i in range(8)]

    def test_resume_false_reruns_everything(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        units = _units(4)
        run_campaign(units, double_runner, journal_path=journal)
        campaign = run_campaign(
            units, double_runner, journal_path=journal, resume=False
        )
        assert campaign.executed == 4
        assert campaign.resumed == 0

    def test_journal_meta_written_once(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        meta = {"kind": "toy", "seed": 1}
        run_campaign(_units(2), double_runner, journal_path=journal, journal_meta=meta)
        run_campaign(_units(3), double_runner, journal_path=journal, journal_meta={})
        assert load_journal(journal).meta == meta


class TestTelemetry:
    def test_counters_and_timers(self):
        telemetry = MetricsRegistry()
        run_campaign(_units(6), double_runner, telemetry=telemetry)
        assert telemetry.counter("units.total") == 6
        assert telemetry.counter("units.executed") == 6
        assert telemetry.counter("units.finished") == 6
        assert telemetry.counter("units.survived") == 3
        assert telemetry.timer("unit.wall").count == 6
        assert telemetry.timer("unit.queue").count == 6

    def test_resumed_units_feed_survival_counters(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        units = _units(4)
        run_campaign(units, double_runner, journal_path=journal)
        telemetry = MetricsRegistry()
        run_campaign(units, double_runner, journal_path=journal, telemetry=telemetry)
        assert telemetry.counter("units.resumed") == 4
        assert telemetry.counter("units.survived") == 2
        assert telemetry.timer("unit.wall").count == 0  # nothing re-ran

    def test_parallel_records_worker_gauges(self):
        telemetry = MetricsRegistry()
        run_campaign(_units(12), double_runner, workers=2, telemetry=telemetry)
        assert telemetry.gauge_value("workers.count") == 2
        assert 0.0 <= telemetry.gauge_value("workers.utilization") <= 1.0


class TestProgress:
    def test_progress_reaches_total(self):
        import io

        stream = io.StringIO()
        units = _units(5)
        run_campaign(
            units,
            double_runner,
            progress=ProgressReporter(len(units), stream=stream, interval=0.0),
        )
        assert "5/5" in stream.getvalue()
