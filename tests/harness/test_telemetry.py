"""Tests for campaign telemetry and progress reporting."""

import io

import pytest

from repro.harness import ProgressReporter
from repro.obs import MetricsRegistry


class TestCounters:
    def test_count_and_read(self):
        telemetry = MetricsRegistry()
        telemetry.count("units.executed")
        telemetry.count("units.executed", 4)
        assert telemetry.counter("units.executed") == 5
        assert telemetry.counter("never") == 0


class TestTimers:
    def test_observe_aggregates(self):
        telemetry = MetricsRegistry()
        for value in (0.1, 0.3, 0.2):
            telemetry.observe("unit.wall", value)
        stats = telemetry.timer("unit.wall")
        assert stats.count == 3
        assert stats.total == pytest.approx(0.6)
        assert stats.min == 0.1
        assert stats.max == 0.3
        assert abs(stats.mean - 0.2) < 1e-12

    def test_timed_context_manager(self):
        telemetry = MetricsRegistry()
        with telemetry.timed("block"):
            pass
        assert telemetry.timer("block").count == 1

    def test_unobserved_timer_is_zero(self):
        assert MetricsRegistry().timer("nothing").mean == 0.0


class TestGauges:
    def test_last_write_wins(self):
        telemetry = MetricsRegistry()
        telemetry.gauge("workers.utilization", 0.5)
        telemetry.gauge("workers.utilization", 0.8)
        assert telemetry.gauge_value("workers.utilization") == 0.8


class TestSnapshotMerge:
    def test_merge_folds_counters_timers_gauges(self):
        a = MetricsRegistry()
        a.count("units.executed", 2)
        a.observe("unit.wall", 0.5)
        b = MetricsRegistry()
        b.count("units.executed", 3)
        b.observe("unit.wall", 0.1)
        b.gauge("workers.count", 4)
        a.merge(b.snapshot())
        assert a.counter("units.executed") == 5
        stats = a.timer("unit.wall")
        assert stats.count == 2
        assert stats.min == 0.1
        assert stats.max == 0.5
        assert a.gauge_value("workers.count") == 4

    def test_snapshot_is_json_shaped(self):
        import json

        telemetry = MetricsRegistry()
        telemetry.count("x")
        telemetry.observe("y", 1.0)
        telemetry.gauge("z", 2.0)
        json.dumps(telemetry.snapshot())  # must not raise


class TestSummaryLines:
    def test_mentions_units_and_survival(self):
        telemetry = MetricsRegistry()
        telemetry.count("units.total", 10)
        telemetry.count("units.executed", 10)
        telemetry.count("units.finished", 10)
        telemetry.count("units.survived", 3)
        telemetry.observe("unit.wall", 0.01)
        lines = "\n".join(telemetry.summary_lines())
        assert "10 executed" in lines
        assert "survived: 3/10" in lines


class TestProgressReporter:
    def test_final_line_always_emitted(self):
        stream = io.StringIO()
        reporter = ProgressReporter(4, stream=stream, interval=3600)
        reporter.update(1)
        reporter.update(2)
        reporter.finish(resumed=1)
        output = stream.getvalue()
        assert output.count("\n") == 1  # interval suppressed the middle updates
        assert "4/4" in output
        assert "1 resumed" in output

    def test_completion_emits_even_within_interval(self):
        stream = io.StringIO()
        reporter = ProgressReporter(2, stream=stream, interval=3600)
        reporter.update(2)
        assert "2/2" in stream.getvalue()
