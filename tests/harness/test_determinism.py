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


class TestPinnedVerdicts:
    """Every verdict, pinned: a change that makes replay cheaper (fewer
    seed derivations, lazier streams) must not move a single one."""

    #: SHA-256 of the canonical JSON of :meth:`verdict_rows`.
    DIGEST = "ed6e50638b798fde8ffa8b249ff7a889bff6267156105dac9ed772c2cce985d9"

    @staticmethod
    def verdict_rows(study):
        from repro.harness.campaigns import run_replay_campaign
        from repro.recovery.nodes import TECHNIQUES

        rows = []
        for seed in (20000625, 4242):
            for name, factory in TECHNIQUES.items():
                report = run_replay_campaign(study.all_faults(), factory, seed=seed)
                rows.append(
                    [
                        seed,
                        name,
                        [
                            [o.fault_id, o.triggered, o.survived, o.attempts_used]
                            for o in report.outcomes
                        ],
                    ]
                )
        budget = run_sweep_retry_budget(
            study,
            lambda b: CheckpointRollback(max_attempts=b),
            budgets=(1, 2, 3, 4, 6, 8),
            race_window=0.25,
            replications=5,
        )
        window = run_sweep_race_window(
            study,
            CheckpointRollback,
            windows=(0.05, 0.1, 0.25, 0.5, 0.75, 0.95),
            replications=5,
        )
        for points in (budget, window):
            rows.append([[p.parameter, p.survived, p.total] for p in points])
        return rows

    def test_every_verdict_and_both_sweeps_match_the_pin(self, study):
        import hashlib
        import json

        rows = self.verdict_rows(study)
        assert rows[-2][0] == [1.0, 20, 30]  # retry budget 1 at race window 0.25
        assert rows[-1][-1] == [0.95, 4, 30]  # race window 0.95
        encoded = json.dumps(rows, sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest() == self.DIGEST
