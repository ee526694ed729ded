"""repro.harness: parallel, resumable campaign execution.

The replay experiments (full-study replay, retry-budget and race-window
sweeps, and any future replay-shaped workload) all reduce to thousands
of independent ``(fault, technique, parameters, seed)`` executions.
This package turns such workloads into streams of self-describing
:class:`~repro.harness.workunit.WorkUnit`\\ s and executes them on a
journal-aware engine:

* :mod:`~repro.harness.workunit` -- the unit of execution, content-hash
  keyed;
* :mod:`~repro.harness.shard` -- batching units across workers and
  reassembling results in submission order;
* :mod:`~repro.harness.pool` -- fork-based process pool with per-worker
  context caching and an inline serial path;
* :mod:`~repro.harness.journal` -- append-only JSONL run log; a killed
  campaign tears at most its last line and resumes without recomputation
  (nothing is fsynced, so power loss is not covered);
* :mod:`~repro.harness.telemetry` -- progress reporting;
* :mod:`~repro.harness.engine` -- :func:`run_campaign`, tying the above
  together;
* :mod:`~repro.harness.campaigns` -- the study's replay experiments
  ported onto the engine.

**Determinism contract**: seeds are derived per work unit from the
campaign's base seed and the unit's identity -- never from worker
identity, worker count, or scheduling order -- so survival verdicts are
bit-identical for any ``workers=N``, including the serial path.
"""

from repro.harness.engine import CampaignResult, run_campaign
from repro.harness.journal import JournalContents, JournalWriter, load_journal
from repro.harness.pool import UnitExecution, WorkerPool, fork_available
from repro.harness.shard import assemble_results, shard_count_for, shard_units
from repro.harness.telemetry import ProgressReporter
from repro.harness.workunit import WorkUnit, check_unique
from repro.harness.campaigns import (
    KIND_RACE_WINDOW,
    KIND_REPLAY,
    KIND_RETRY_BUDGET,
    ReplayContext,
    build_race_window_units,
    build_replay_units,
    build_retry_budget_units,
    outcome_from_result,
    replay_runner,
    run_replay_campaign,
    run_replay_study,
    run_sweep_race_window,
    run_sweep_retry_budget,
)

__all__ = [
    "CampaignResult",
    "JournalContents",
    "JournalWriter",
    "KIND_RACE_WINDOW",
    "KIND_REPLAY",
    "KIND_RETRY_BUDGET",
    "ProgressReporter",
    "ReplayContext",
    "UnitExecution",
    "WorkUnit",
    "WorkerPool",
    "assemble_results",
    "build_race_window_units",
    "build_replay_units",
    "build_retry_budget_units",
    "check_unique",
    "fork_available",
    "load_journal",
    "outcome_from_result",
    "replay_runner",
    "run_campaign",
    "run_replay_campaign",
    "run_replay_study",
    "run_sweep_race_window",
    "run_sweep_retry_budget",
    "shard_count_for",
    "shard_units",
]
