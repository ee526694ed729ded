"""Heisenbug survival curves: retry budget and race-window sweeps.

Section 6.3: "retrying the same operation at a later time will usually
succeed" for transient faults.  How usually?  This script sweeps the two
knobs that answer that: the recovery retry budget (survival approaches
certainty geometrically) and the width of the racy interleaving window
(wider windows need bigger budgets).

Run with::

    python examples/heisenbug_sweeps.py
"""

from repro.corpus import full_study
from repro.harness.campaigns import run_sweep_race_window, run_sweep_retry_budget
from repro.recovery import CheckpointRollback
from repro.recovery.nodes import render_race_window_table, render_retry_budget_table


def main() -> None:
    study = full_study()

    budget_points = run_sweep_retry_budget(
        study,
        lambda budget: CheckpointRollback(max_attempts=budget),
        budgets=(1, 2, 3, 4, 6, 8),
        race_window=0.5,
        replications=8,
    )
    print(render_retry_budget_table(budget_points, race_window=0.5))
    print()

    window_points = run_sweep_race_window(
        study,
        CheckpointRollback,
        windows=(0.05, 0.1, 0.25, 0.5, 0.75, 0.95),
        replications=8,
    )
    print(
        render_race_window_table(
            window_points, retries=CheckpointRollback().max_attempts
        )
    )
    print()
    print(
        "Retry budgets tame Heisenbugs quickly -- but remember the paper's\n"
        "denominator: these curves cover only the 12 of 139 faults that are\n"
        "transient in the first place."
    )


if __name__ == "__main__":
    main()
