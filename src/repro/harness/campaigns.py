"""Replay-shaped campaigns: the study experiments on the engine.

The one place that turns study faults into replay or sweep work units
and runs them on :func:`repro.harness.engine.run_campaign`: the
full-study replay (:func:`run_replay_campaign`, which
``repro.recovery.driver.replay_study`` calls) and the two §6.3 sweeps
(:func:`run_sweep_retry_budget`, :func:`run_sweep_race_window`, which
the ``sweep.*`` grid points call).  They preserve the legacy semantics
bit-for-bit:

* unit seeds are derived with exactly the legacy labels
  (``replay:{fault_id}``, ``budget:{b}:{fault_id}:{r}``,
  ``window:{w}:{fault_id}:{r}``), so every replay sees the same
  :class:`~repro.envmodel.environment.Environment` stream as the serial
  loops did, and journals written by earlier builds still resume;
* each unit builds a fresh technique from the caller's factory, as the
  serial loops did;
* results are reassembled in submission order, so reports compare equal
  (``==``) to the legacy ones for any worker count.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.bugdb.enums import FaultClass
from repro.corpus.loader import StudyData
from repro.corpus.studyspec import StudyFault
from repro.envmodel.environment import Environment
from repro.harness.engine import CampaignResult, run_campaign
from repro.harness.telemetry import ProgressReporter
from repro.harness.workunit import WorkUnit
from repro.obs.metrics import MetricsRegistry
from repro.recovery.base import RecoveryTechnique
from repro.recovery.campaign import SweepPoint, timing_faults
from repro.recovery.driver import (
    FaultReplayOutcome,
    ReplayReport,
    run_replay_attempts,
)
from repro.rng import DEFAULT_SEED, derive_seed

KIND_REPLAY = "replay"
KIND_RETRY_BUDGET = "retry-budget"
KIND_RACE_WINDOW = "race-window"


@dataclasses.dataclass
class ReplayContext:
    """Per-worker campaign state (inherited by forked workers).

    Attributes:
        faults: fault id -> study fault, built once per campaign.
        technique_for: builds a fresh technique for one unit (techniques
            hold per-run state such as checkpoints).
    """

    faults: dict[str, StudyFault]
    technique_for: Callable[[WorkUnit], RecoveryTechnique]


def replay_runner(unit: WorkUnit, context: ReplayContext) -> dict[str, Any]:
    """Execute one replay-shaped unit: inject, fail, recover, retry.

    ``"replay"`` units reproduce :func:`repro.recovery.driver.replay_fault`
    exactly (including its healthy-path DNS records); sweep units
    reproduce the timing-fault replay with an overridden race window.
    """
    fault = context.faults[unit.fault_id]
    technique = context.technique_for(unit)
    env = Environment(seed=unit.seed)
    if unit.kind == KIND_REPLAY:
        # Reverse record for the default client so healthy DNS paths work.
        env.dns.add_record("client.example.net", "10.0.0.99")
        env.dns.add_record("client5.example.net", "10.0.0.5")
        race_window = None
    else:
        race_window = unit.params_dict()["race_window"]
    triggered, survived, attempts_used = run_replay_attempts(
        fault, technique, env=env, race_window=race_window
    )
    return {
        "fault_id": fault.fault_id,
        "fault_class": fault.fault_class.value,
        "technique": technique.name,
        "triggered": triggered,
        "survived": survived,
        "attempts_used": attempts_used,
    }


def outcome_from_result(result: Mapping[str, Any]) -> FaultReplayOutcome:
    """Rehydrate a journaled/worker result into a replay outcome."""
    return FaultReplayOutcome(
        fault_id=result["fault_id"],
        fault_class=FaultClass(result["fault_class"]),
        technique=result["technique"],
        triggered=result["triggered"],
        survived=result["survived"],
        attempts_used=result["attempts_used"],
    )


# --------------------------------------------------------------------- #
# unit builders
# --------------------------------------------------------------------- #


def build_replay_units(
    faults: Iterable[StudyFault], technique_name: str, seed: int
) -> list[WorkUnit]:
    """One ``"replay"`` unit per fault, with the legacy seed derivation."""
    return [
        WorkUnit.build(
            KIND_REPLAY,
            fault.fault_id,
            technique=technique_name,
            seed=derive_seed(seed, f"replay:{fault.fault_id}"),
        )
        for fault in faults
    ]


def _build_sweep_units(
    kind: str,
    label: str,
    axis: str,
    values: Sequence[Any],
    faults: Sequence[StudyFault],
    technique_name: str,
    *,
    replications: int,
    seed: int,
    fixed: Mapping[str, Any],
) -> list[WorkUnit]:
    """One unit per ``(value, fault, replication)`` of a one-axis sweep.

    Duplicate axis values collapse (identical sweep points share
    verdicts).  Seeds derive from ``{label}:{value}:{fault_id}:{replication}``
    and params are ``{axis: value, **fixed, "replication": r}``.
    """
    return [
        WorkUnit.build(
            kind,
            fault.fault_id,
            technique=technique_name,
            params={axis: value, **fixed, "replication": replication},
            seed=derive_seed(seed, f"{label}:{value}:{fault.fault_id}:{replication}"),
        )
        for value in dict.fromkeys(values)
        for fault in faults
        for replication in range(replications)
    ]


# --------------------------------------------------------------------- #
# campaign entry points
# --------------------------------------------------------------------- #


def run_replay_campaign(
    faults: Sequence[StudyFault],
    technique_factory: Callable[[], RecoveryTechnique],
    *,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    journal_path: str | None = None,
    journal_meta: Mapping[str, Any] | None = None,
    telemetry: MetricsRegistry | None = None,
    progress: ProgressReporter | None = None,
) -> ReplayReport:
    """Replay ``faults`` under fresh instances of one technique.

    Any fault subset (``replay_study`` passes all of them), optional
    parallelism, optional resumable journal.
    """
    # One up-front factory call fixes the technique name even when the
    # fault list is empty (the legacy loop reported "" in that case).
    technique_name = technique_factory().name
    faults = list(faults)
    units = build_replay_units(faults, technique_name, seed)
    context = ReplayContext(
        faults={fault.fault_id: fault for fault in faults},
        technique_for=lambda unit: technique_factory(),
    )
    if journal_meta is None:
        journal_meta = {
            "kind": KIND_REPLAY,
            "technique": technique_name,
            "seed": seed,
            "total_units": len(units),
        }
    campaign = run_campaign(
        units,
        replay_runner,
        context=context,
        workers=workers,
        journal_path=journal_path,
        journal_meta=journal_meta,
        telemetry=telemetry,
        progress=progress,
    )
    return ReplayReport(
        technique=technique_name,
        outcomes=tuple(outcome_from_result(result) for result in campaign.results),
    )


def _sweep_points(
    campaign: CampaignResult,
    parameter_name: str,
    parameters: Sequence[Any],
) -> list[SweepPoint]:
    """Group unit verdicts into sweep points, in parameter order."""
    grouped: dict[Any, list[bool]] = {}
    for unit, result in campaign.pairs():
        value = unit.params_dict()[parameter_name]
        grouped.setdefault(value, []).append(result["survived"])
    points = []
    for parameter in parameters:
        verdicts = grouped.get(parameter, [])
        points.append(
            SweepPoint(
                parameter=float(parameter),
                survived=sum(verdicts),
                total=len(verdicts),
            )
        )
    return points


def _run_sweep(
    study: StudyData,
    kind: str,
    label: str,
    axis: str,
    values: Sequence[Any],
    technique_name: str,
    technique_for: Callable[[WorkUnit], RecoveryTechnique],
    *,
    replications: int,
    seed: int,
    fixed: Mapping[str, Any],
    **run_options: Any,
) -> list[SweepPoint]:
    """Sweep ``axis`` over ``values`` on the study's timing faults.

    ``run_options`` (workers, journal path, telemetry, progress) pass
    straight to :func:`run_campaign`.  Returns one point per entry of
    ``values``, in order.
    """
    faults = timing_faults(study)
    units = _build_sweep_units(
        kind,
        label,
        axis,
        values,
        faults,
        technique_name,
        replications=replications,
        seed=seed,
        fixed=fixed,
    )
    campaign = run_campaign(
        units,
        replay_runner,
        context=ReplayContext(
            faults={fault.fault_id: fault for fault in faults},
            technique_for=technique_for,
        ),
        journal_meta={
            "kind": kind,
            "technique": technique_name,
            "seed": seed,
            "total_units": len(units),
        },
        **run_options,
    )
    return _sweep_points(campaign, axis, list(values))


def run_sweep_retry_budget(
    study: StudyData,
    technique_factory: Callable[[int], RecoveryTechnique],
    *,
    budgets: Sequence[int],
    race_window: float,
    replications: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    journal_path: str | None = None,
    telemetry: MetricsRegistry | None = None,
    progress: ProgressReporter | None = None,
) -> list[SweepPoint]:
    """Sweep the recovery-attempt budget over the timing faults.

    ``technique_factory`` builds a technique given ``max_attempts``;
    every unit replays with the racy window fixed at ``race_window``.
    """
    return _run_sweep(
        study,
        KIND_RETRY_BUDGET,
        "budget",
        "budget",
        budgets,
        technique_factory(max(budgets)).name if budgets else "",
        lambda unit: technique_factory(unit.params_dict()["budget"]),
        replications=replications,
        seed=seed,
        fixed={"race_window": race_window},
        workers=workers,
        journal_path=journal_path,
        telemetry=telemetry,
        progress=progress,
    )


def run_sweep_race_window(
    study: StudyData,
    technique_factory: Callable[[], RecoveryTechnique],
    *,
    windows: Sequence[float],
    replications: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    journal_path: str | None = None,
    telemetry: MetricsRegistry | None = None,
    progress: ProgressReporter | None = None,
) -> list[SweepPoint]:
    """Sweep the racy-window width over the timing faults."""
    return _run_sweep(
        study,
        KIND_RACE_WINDOW,
        "window",
        "race_window",
        windows,
        technique_factory().name,
        lambda unit: technique_factory(),
        replications=replications,
        seed=seed,
        fixed={},
        workers=workers,
        journal_path=journal_path,
        telemetry=telemetry,
        progress=progress,
    )
