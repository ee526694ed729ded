"""Tests for the parameter-sweep campaigns."""

import pytest

from repro.bugdb.enums import TriggerKind
from repro.harness.campaigns import run_sweep_race_window, run_sweep_retry_budget
from repro.recovery import CheckpointRollback
from repro.recovery.campaign import timing_faults


class TestTimingFaults:
    def test_exactly_the_timing_triggered_study_faults(self, study):
        faults = timing_faults(study)
        # Apache: workload-timing; GNOME: unknown-transient + 2 races;
        # MySQL: 2 races.
        assert len(faults) == 6
        assert all(
            fault.trigger
            in (
                TriggerKind.RACE_CONDITION,
                TriggerKind.SIGNAL_TIMING,
                TriggerKind.WORKLOAD_TIMING,
                TriggerKind.UNKNOWN_TRANSIENT,
            )
            for fault in faults
        )


class TestRetryBudgetSweep:
    @pytest.fixture(scope="class")
    def points(self, study):
        return run_sweep_retry_budget(
            study,
            lambda budget: CheckpointRollback(max_attempts=budget),
            budgets=(1, 2, 4, 8),
            race_window=0.5,
            replications=6,
        )

    def test_survival_non_decreasing_in_budget(self, points):
        rates = [point.survival_rate for point in points]
        assert all(later >= earlier - 1e-9 for earlier, later in zip(rates, rates[1:]))

    def test_large_budget_approaches_certainty(self, points):
        assert points[-1].survival_rate >= 0.9

    def test_single_retry_loses_some_races(self, points):
        # With a 0.5 window, one retry fails about half the time.
        assert points[0].survival_rate < 0.85

    def test_totals_cover_all_replications(self, points, study):
        expected = len(timing_faults(study)) * 6
        assert all(point.total == expected for point in points)

    def test_deterministic(self, study):
        kwargs = dict(budgets=(2,), race_window=0.5, replications=4)
        first = run_sweep_retry_budget(
            study, lambda b: CheckpointRollback(max_attempts=b), **kwargs
        )
        second = run_sweep_retry_budget(
            study, lambda b: CheckpointRollback(max_attempts=b), **kwargs
        )
        assert first == second


class TestRaceWindowSweep:
    def test_survival_degrades_with_wider_window(self, study):
        points = run_sweep_race_window(
            study,
            CheckpointRollback,
            windows=(0.05, 0.5, 0.95),
            replications=6,
        )
        rates = [point.survival_rate for point in points]
        assert rates[0] > rates[-1]

    def test_tiny_window_is_nearly_always_survivable(self, study):
        points = run_sweep_race_window(
            study, CheckpointRollback, windows=(0.01,), replications=6
        )
        assert points[0].survival_rate >= 0.95
