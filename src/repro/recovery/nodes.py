"""Study-graph adapters for the recovery replay and the §5a sweeps.

Experiment E1 (the five-technique replay) plus the parameter-grid
producers behind the ``sweep.*`` families: one memoized node per grid
point (a single-value :mod:`repro.harness.campaigns` sweep, so its
verdicts are identical to the same point inside the full sweep -- seeds
derive per ``(parameter, fault, replication)``, never from scheduling)
and one aggregation node per family rendering the classic sweep table
byte-identically from the point payloads.

Also the canonical home of the technique-name registry the CLI, the
serve daemon and the campaign engine share (:data:`TECHNIQUES`,
:func:`resolve_technique`).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, TYPE_CHECKING

from repro.recovery import (
    CheckpointRollback,
    ProcessPairs,
    ProgressiveRetry,
    RestartFresh,
    SoftwareRejuvenation,
    replay_study,
)
from repro.recovery.base import RecoveryTechnique
from repro.recovery.campaign import SweepPoint
from repro.recovery.driver import REPLAY_COLUMNS
from repro.recovery.rejuvenation_schedule import (
    LeakModel,
    RejuvenationPolicy,
    simulate_rejuvenation_schedule,
)
from repro.reports.tableformat import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.studygraph.context import StudyContext

#: CLI technique names, in the paper's presentation order.
TECHNIQUES = {
    "process-pairs": ProcessPairs,
    "checkpoint-rollback": CheckpointRollback,
    "progressive-retry": ProgressiveRetry,
    "restart-fresh": RestartFresh,
    "software-rejuvenation": SoftwareRejuvenation,
}

#: Default ``techniques`` param for the E1 node (comma-joined names).
ALL_TECHNIQUES = ",".join(TECHNIQUES)


def resolve_technique(name: str) -> Callable[..., RecoveryTechnique]:
    """The technique class registered under ``name``.

    Raises:
        ValueError: unknown name; the message lists the valid names.
    """
    try:
        return TECHNIQUES[name]
    except KeyError:
        raise ValueError(
            f"unknown technique {name!r}; choose from " + ", ".join(TECHNIQUES)
        ) from None


def e1_replay(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Experiment E1: deterministic replay under recovery techniques.

    Params:
        techniques: comma-joined technique names, replayed in order.
    """
    rows = []
    rates: dict[str, float] = {}
    for name in params["techniques"].split(","):
        report = replay_study(ctx.study, resolve_technique(name))
        rates[report.technique] = report.survival_rate()
        rows.append(report.row())
    text = format_table(
        REPLAY_COLUMNS,
        rows,
        title="Recovery replay over all 139 study faults",
    )
    return {"overall_rates": rates, "text": text}


# -- §5a sweep grids ------------------------------------------------------ #

#: Default retry budgets for the ``sweep.retry-budget`` grid family.
RETRY_BUDGETS: tuple[int, ...] = (1, 2, 3, 4, 6, 8)

#: Default race-window widths for the ``sweep.race-window`` grid family.
RACE_WINDOWS: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 0.75, 0.95)

#: Fixed race window for the retry-budget family (the classic default).
SWEEP_RACE_WINDOW = 0.25

#: Replications per (parameter, fault) pair in both replay sweeps.
SWEEP_REPLICATIONS = 5

#: Technique the replay sweeps exercise (must accept ``max_attempts``).
SWEEP_TECHNIQUE = "checkpoint-rollback"

#: Rejuvenation intervals for the ``sweep.rejuvenation`` family; None is
#: the never-rejuvenate baseline.  Declared order is the table order.
REJUVENATION_INTERVALS: tuple[float | None, ...] = (
    None, 0.5, 2.0, 8.0, 15.0, 19.0, 30.0
)

#: Planned-downtime axis (minutes per rejuvenation) for the same family.
REJUVENATION_DOWNTIMES: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 45.0, 90.0)

#: The downtime slice the aggregation table renders (the classic
#: example's 10-minute HUP restart).
REJUVENATION_TABLE_DOWNTIME = 10.0

#: Fixed leak model + horizon for the rejuvenation family (the classic
#: example: the leak kills httpd after 20 h of uptime; 90-day horizon).
REJUVENATION_FIXED_PARAMS: dict[str, float] = {
    "leak_per_request": 1.0,
    "failure_threshold": 10_000.0,
    "requests_per_hour": 500.0,
    "crash_repair_hours": 1.0,
    "duration_hours": 24.0 * 90,
}


def _sweep_point_payload(point: SweepPoint) -> dict[str, Any]:
    return {
        "parameter": point.parameter,
        "survived": point.survived,
        "total": point.total,
        "survival_rate": point.survival_rate,
    }


def sweep_retry_budget_point(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """One retry-budget grid point: the classic sweep at a single budget.

    Seeds derive per ``(budget, fault, replication)``, so this point's
    verdicts are bit-identical to the same budget inside the full sweep
    -- the aggregation node reassembles the classic table from point
    payloads without re-running anything.
    """
    # Imported here so that importing the CLI does not load the harness.
    from repro.harness.campaigns import run_sweep_retry_budget

    factory = TECHNIQUES[params["technique"]]
    point = run_sweep_retry_budget(
        ctx.study,
        lambda budget: factory(max_attempts=budget),
        budgets=(int(params["budget"]),),
        race_window=params["race_window"],
        replications=params["replications"],
    )[0]
    payload = _sweep_point_payload(point)
    payload["text"] = (
        f"retry budget {int(point.parameter)}: {point.survived}/{point.total} "
        f"timing faults survived ({point.survival_rate:.0%})"
    )
    return payload


def sweep_race_window_point(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """One race-window grid point: the classic sweep at a single width."""
    from repro.harness.campaigns import run_sweep_race_window

    factory = TECHNIQUES[params["technique"]]
    point = run_sweep_race_window(
        ctx.study,
        factory,
        windows=(params["window"],),
        replications=params["replications"],
    )[0]
    payload = _sweep_point_payload(point)
    payload["text"] = (
        f"race window {point.parameter:g}: {point.survived}/{point.total} "
        f"timing faults survived ({point.survival_rate:.0%})"
    )
    return payload


def sweep_rejuvenation_point(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """One rejuvenation grid point: one (interval, downtime) simulation."""
    interval = params["interval_hours"]
    policy = RejuvenationPolicy(
        interval_hours=interval,
        rejuvenation_downtime_minutes=params["downtime_minutes"],
        crash_repair_hours=params["crash_repair_hours"],
    )
    leak = LeakModel(
        leak_per_request=params["leak_per_request"],
        failure_threshold=params["failure_threshold"],
        requests_per_hour=params["requests_per_hour"],
    )
    outcome = simulate_rejuvenation_schedule(
        policy, leak, duration_hours=params["duration_hours"]
    )
    schedule = "never (baseline)" if interval is None else f"every {interval:g} h"
    return {
        "interval_hours": interval,
        "downtime_minutes": params["downtime_minutes"],
        "crashes": outcome.crashes,
        "rejuvenations": outcome.rejuvenations,
        "downtime_hours": outcome.downtime_hours,
        "availability": outcome.availability,
        "text": (
            f"{schedule} (restart {params['downtime_minutes']:g} min): "
            f"{outcome.crashes} crashes, {outcome.rejuvenations} rejuvenations, "
            f"{outcome.availability:.4%} available"
        ),
    }


def render_retry_budget_table(
    points: list[SweepPoint], *, race_window: float
) -> str:
    """The classic retry-budget sweep table (shared, byte-stable render)."""
    return format_table(
        ["retry budget", "timing faults survived", "survival rate"],
        [
            [
                int(point.parameter),
                f"{point.survived}/{point.total}",
                f"{point.survival_rate:.0%}",
            ]
            for point in points
        ],
        title=f"Retry-budget sweep (race window {race_window:g})",
    )


def render_race_window_table(points: list[SweepPoint], *, retries: int) -> str:
    """The classic race-window sweep table (shared, byte-stable render)."""
    return format_table(
        ["race window", "timing faults survived", "survival rate"],
        [
            [
                point.parameter,
                f"{point.survived}/{point.total}",
                f"{point.survival_rate:.0%}",
            ]
            for point in points
        ],
        title=f"Race-window sweep ({retries} retries)",
    )


def render_rejuvenation_table(
    results: list[tuple[float | None, Any]],
    *,
    hours_to_failure: float,
    duration_hours: float,
) -> str:
    """The classic rejuvenation-schedule table (shared, byte-stable render).

    ``results`` pairs each interval with an outcome exposing
    ``crashes`` / ``rejuvenations`` / ``downtime_hours`` /
    ``availability`` (the simulator's outcome or a point payload proxy).
    """
    rows = []
    for interval, outcome in results:
        rows.append(
            [
                "never (baseline)" if interval is None else f"every {interval:g} h",
                outcome.crashes,
                outcome.rejuvenations,
                f"{outcome.downtime_hours:.1f} h",
                f"{outcome.availability:.4%}",
            ]
        )
    return format_table(
        ["schedule", "crashes", "rejuvenations", "downtime", "availability"],
        rows,
        title=(
            f"{duration_hours / 24.0:g} days of a leaking server "
            f"(leak kills httpd after {hours_to_failure:g} h of uptime)"
        ),
    )


def _points_by_parameter(inputs: Mapping[str, Any]) -> dict[float, SweepPoint]:
    points: dict[float, SweepPoint] = {}
    for payload in inputs.values():
        point = SweepPoint(
            parameter=float(payload["parameter"]),
            survived=int(payload["survived"]),
            total=int(payload["total"]),
        )
        points[point.parameter] = point
    return points


def sweep_retry_budget_table(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Aggregation node: the classic retry-budget table from grid points."""
    by_budget = _points_by_parameter(inputs)
    points = [by_budget[float(budget)] for budget in RETRY_BUDGETS]
    text = render_retry_budget_table(points, race_window=params["race_window"])
    return {
        "points": [_sweep_point_payload(point) for point in points],
        "text": text,
    }


def sweep_race_window_table(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Aggregation node: the classic race-window table from grid points."""
    by_window = _points_by_parameter(inputs)
    points = [by_window[float(window)] for window in RACE_WINDOWS]
    retries = TECHNIQUES[params["technique"]]().max_attempts
    text = render_race_window_table(points, retries=retries)
    return {
        "points": [_sweep_point_payload(point) for point in points],
        "text": text,
    }


class _OutcomeProxy:
    """Adapts a rejuvenation point payload to the renderer's outcome shape."""

    def __init__(self, payload: Mapping[str, Any]) -> None:
        self.crashes = int(payload["crashes"])
        self.rejuvenations = int(payload["rejuvenations"])
        self.downtime_hours = float(payload["downtime_hours"])
        self.availability = float(payload["availability"])


def sweep_rejuvenation_table(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Aggregation node over the full (interval x downtime) grid.

    The rendered table is the classic example's slice (the
    ``REJUVENATION_TABLE_DOWNTIME``-minute restart); the payload also
    carries the whole availability surface for downstream consumers.
    """
    table_downtime = params["table_downtime_minutes"]
    surface: dict[str, dict[str, Any]] = {}
    slice_results: list[tuple[float | None, _OutcomeProxy]] = []
    by_key = {
        (payload["interval_hours"], payload["downtime_minutes"]): payload
        for payload in inputs.values()
    }
    for downtime in REJUVENATION_DOWNTIMES:
        for interval in REJUVENATION_INTERVALS:
            payload = by_key[(interval, downtime)]
            label = (
                f"{'none' if interval is None else format(interval, 'g')}"
                f"@{downtime:g}min"
            )
            surface[label] = {
                "interval_hours": interval,
                "downtime_minutes": downtime,
                "availability": payload["availability"],
                "crashes": payload["crashes"],
                "rejuvenations": payload["rejuvenations"],
            }
            if downtime == table_downtime:
                slice_results.append((interval, _OutcomeProxy(payload)))
    leak = LeakModel(
        leak_per_request=REJUVENATION_FIXED_PARAMS["leak_per_request"],
        failure_threshold=REJUVENATION_FIXED_PARAMS["failure_threshold"],
        requests_per_hour=REJUVENATION_FIXED_PARAMS["requests_per_hour"],
    )
    text = render_rejuvenation_table(
        slice_results,
        hours_to_failure=leak.hours_to_failure,
        duration_hours=REJUVENATION_FIXED_PARAMS["duration_hours"],
    )
    return {"surface": surface, "text": text}
