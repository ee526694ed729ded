"""The §5a grid families against their classic monolithic oracles.

Each sweep family must render exactly the table the classic one-shot
sweep produces: points are single-parameter classic sweeps (seeds
derive per ``(parameter, fault, replication)``, never from scheduling),
so the aggregation node reassembles the monolith byte-for-byte.
"""

import pytest

from repro.classify import nodes as classify_nodes
from repro.recovery import LeakModel, sweep_rejuvenation_interval
from repro.recovery import nodes as recovery_nodes
from repro.harness.campaigns import run_sweep_race_window, run_sweep_retry_budget
from repro.studygraph import StudyContext, run_single_node, run_study


@pytest.fixture(scope="module")
def study():
    return StudyContext.default().study


class TestRetryBudgetFamily:
    def test_point_equals_classic_sweep_slice(self, study):
        classic = run_sweep_retry_budget(
            study,
            lambda budget: recovery_nodes.TECHNIQUES[
                recovery_nodes.SWEEP_TECHNIQUE
            ](max_attempts=budget),
            budgets=recovery_nodes.RETRY_BUDGETS,
            race_window=recovery_nodes.SWEEP_RACE_WINDOW,
            replications=recovery_nodes.SWEEP_REPLICATIONS,
        )
        payload = run_single_node("sweep.retry-budget[budget=2]")
        slice_ = next(p for p in classic if p.parameter == 2.0)
        assert payload["survived"] == slice_.survived
        assert payload["total"] == slice_.total

    def test_aggregate_renders_the_classic_table(self, study):
        classic = run_sweep_retry_budget(
            study,
            lambda budget: recovery_nodes.TECHNIQUES[
                recovery_nodes.SWEEP_TECHNIQUE
            ](max_attempts=budget),
            budgets=recovery_nodes.RETRY_BUDGETS,
            race_window=recovery_nodes.SWEEP_RACE_WINDOW,
            replications=recovery_nodes.SWEEP_REPLICATIONS,
        )
        expected = recovery_nodes.render_retry_budget_table(
            classic, race_window=recovery_nodes.SWEEP_RACE_WINDOW
        )
        assert run_single_node("sweep.retry-budget")["text"] == expected


class TestRaceWindowFamily:
    def test_aggregate_renders_the_classic_table(self, study):
        factory = recovery_nodes.TECHNIQUES[recovery_nodes.SWEEP_TECHNIQUE]
        classic = run_sweep_race_window(
            study,
            factory,
            windows=recovery_nodes.RACE_WINDOWS,
            replications=recovery_nodes.SWEEP_REPLICATIONS,
        )
        expected = recovery_nodes.render_race_window_table(
            classic, retries=factory().max_attempts
        )
        assert run_single_node("sweep.race-window")["text"] == expected


class TestRejuvenationFamily:
    def test_aggregate_renders_the_classic_table_slice(self):
        fixed = recovery_nodes.REJUVENATION_FIXED_PARAMS
        leak = LeakModel(
            leak_per_request=fixed["leak_per_request"],
            failure_threshold=fixed["failure_threshold"],
            requests_per_hour=fixed["requests_per_hour"],
        )
        classic = sweep_rejuvenation_interval(
            recovery_nodes.REJUVENATION_INTERVALS,
            leak,
            rejuvenation_downtime_minutes=recovery_nodes.REJUVENATION_TABLE_DOWNTIME,
            crash_repair_hours=fixed["crash_repair_hours"],
            duration_hours=fixed["duration_hours"],
        )
        expected = recovery_nodes.render_rejuvenation_table(
            classic,
            hours_to_failure=leak.hours_to_failure,
            duration_hours=fixed["duration_hours"],
        )
        payload = run_single_node("sweep.rejuvenation")
        assert payload["text"] == expected
        # The payload also carries the whole 49-point surface.
        assert len(payload["surface"]) == len(
            recovery_nodes.REJUVENATION_INTERVALS
        ) * len(recovery_nodes.REJUVENATION_DOWNTIMES)

    def test_surface_availability_is_monotone_in_planned_downtime(self):
        payload = run_single_node("sweep.rejuvenation")
        fast = payload["surface"]["19@1min"]["availability"]
        slow = payload["surface"]["19@90min"]["availability"]
        assert fast > slow


class TestRecoveryModelFamily:
    def test_grid_path_matches_the_monolithic_producer(self):
        context = StudyContext.default()
        classic = classify_nodes.ablate_recovery_model(context, {}, {})
        payload = run_single_node("ablate.recovery-model")
        assert payload["text"] == classic["text"]
        assert payload["counts"] == classic["counts"]


class TestFamilyRunsTogether:
    def test_one_run_resolves_all_families_in_parallel(self):
        result = run_study(
            StudyContext.default(workers=2),
            nodes=[
                "sweep.retry-budget",
                "sweep.race-window",
                "ablate.recovery-model",
            ],
        )
        assert result.executed == len(result.runs)
        # 3 corpora + (6 + 6 + 4) points + 3 aggregates.
        assert len(result.runs) == 3 + 16 + 3
