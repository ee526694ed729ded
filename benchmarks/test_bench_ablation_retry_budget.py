"""Ablation -- retry budget vs. Heisenbug survival (Section 6.3).

"Retrying the same operation at a later time will usually succeed" --
this sweep quantifies "usually" over the study's timing-triggered
faults: survival rises geometrically with the retry budget and degrades
as the racy window widens.
"""

from repro.harness.campaigns import run_sweep_race_window, run_sweep_retry_budget
from repro.recovery import CheckpointRollback


def test_bench_ablation_retry_budget(benchmark, study):
    points = benchmark(
        run_sweep_retry_budget,
        study,
        lambda budget: CheckpointRollback(max_attempts=budget),
        budgets=(1, 2, 4, 8),
        race_window=0.5,
        replications=4,
    )

    rates = [point.survival_rate for point in points]
    assert all(later >= earlier - 1e-9 for earlier, later in zip(rates, rates[1:]))
    assert rates[-1] >= 0.9
    benchmark.extra_info["survival_by_budget"] = {
        int(point.parameter): round(point.survival_rate, 2) for point in points
    }


def test_bench_ablation_race_window(benchmark, study):
    points = benchmark(
        run_sweep_race_window,
        study,
        CheckpointRollback,
        windows=(0.1, 0.5, 0.9),
        replications=4,
    )

    rates = [point.survival_rate for point in points]
    assert rates[0] > rates[-1]
    benchmark.extra_info["survival_by_window"] = {
        point.parameter: round(point.survival_rate, 2) for point in points
    }
