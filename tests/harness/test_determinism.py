"""The harness determinism contract, tested end to end.

Verdicts must be bit-identical for any worker count -- including the
legacy serial path reconstructed fault by fault -- because seeds are
derived per work unit, never from worker identity or scheduling order.
"""

import pytest

from repro.recovery import CheckpointRollback, ProcessPairs, replay_fault, replay_study
from repro.harness.campaigns import run_sweep_race_window, run_sweep_retry_budget
from repro.recovery.driver import ReplayReport


@pytest.fixture(scope="module")
def legacy_report(study):
    """The pre-harness serial loop: one replay_fault call per fault."""
    outcomes = tuple(
        replay_fault(fault, CheckpointRollback()) for fault in study.all_faults()
    )
    return ReplayReport(technique="checkpoint-rollback", outcomes=outcomes)


class TestReplayStudyDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_legacy_serial_path(self, study, legacy_report, workers):
        report = replay_study(study, CheckpointRollback, workers=workers)
        assert report == legacy_report

    def test_default_call_unchanged(self, study, legacy_report):
        assert replay_study(study, CheckpointRollback) == legacy_report

    def test_seed_flows_through_engine(self, study):
        serial = replay_study(study, ProcessPairs, seed=42)
        parallel = replay_study(study, ProcessPairs, seed=42, workers=2)
        other_seed = replay_study(study, ProcessPairs, seed=43)
        assert serial == parallel
        # Seeds only matter for timing-triggered defects, but the reports
        # must at minimum agree on identity fields and differ nowhere
        # except genuinely seed-dependent verdicts.
        assert [o.fault_id for o in other_seed.outcomes] == [
            o.fault_id for o in serial.outcomes
        ]


class TestReplayStudyTechniqueName:
    def test_empty_study_still_reports_technique_name(self):
        class EmptyStudy:
            def all_faults(self):
                return []

        report = replay_study(EmptyStudy(), CheckpointRollback)
        assert report.technique == "checkpoint-rollback"
        assert report.outcomes == ()


class TestSweepDeterminism:
    def test_retry_budget_sweep_parallel_equals_serial(self, study):
        kwargs = dict(budgets=(1, 2, 4), race_window=0.5, replications=4)
        serial = run_sweep_retry_budget(
            study, lambda b: CheckpointRollback(max_attempts=b), **kwargs
        )
        parallel = run_sweep_retry_budget(
            study, lambda b: CheckpointRollback(max_attempts=b), workers=3, **kwargs
        )
        assert serial == parallel

    def test_race_window_sweep_parallel_equals_serial(self, study):
        kwargs = dict(windows=(0.05, 0.5, 0.95), replications=4)
        serial = run_sweep_race_window(study, CheckpointRollback, **kwargs)
        parallel = run_sweep_race_window(study, CheckpointRollback, workers=4, **kwargs)
        assert serial == parallel

    def test_sweep_point_totals_survive_the_port(self, study):
        from repro.recovery.campaign import timing_faults

        points = run_sweep_retry_budget(
            study,
            lambda b: CheckpointRollback(max_attempts=b),
            budgets=(2,),
            race_window=0.5,
            replications=3,
        )
        assert points[0].total == len(timing_faults(study)) * 3
