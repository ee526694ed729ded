"""Study-graph producers and registration for the scenario sweeps.

The ``scenario.*`` nodes put the multi-fault workload on the same
machinery every other experiment uses -- memoized wave scheduling,
obs tracing, and the serve daemon all absorb it unchanged:

* ``scenario.baseline`` (artifact) -- the 139 single-fault replay
  verdicts under the scenario technique, shared by every pair point;
* ``scenario.pairs[pair=A+B]`` (grid family) -- one memoized point per
  sampled catalog pair, replaying the composition and classifying it
  against the baseline;
* ``scenario.pairs`` (aggregate) -- the pair-interaction matrix
  (stratum x interaction-class counts) plus the recovery-defeated roll;
* ``scenario.temporal`` -- temporal clustering of the synthetic
  archives (arrival gaps, burstiness, cluster sizes).

Verdicts are bit-identical across worker counts, dispatch orders, and
served-vs-batch execution: every seed derives from the scenario content
digest, never from scheduling.
"""

from __future__ import annotations

from typing import Any, Mapping, TYPE_CHECKING

from repro.corpus.loader import StudyData, default_study
from repro.reports.tableformat import format_table
from repro.rng import DEFAULT_SEED
from repro.scenarios.engine import (
    CLASS_RECOVERY_DEFEATED,
    INTERACTION_CLASSES,
    BaselineOutcome,
    baseline_outcomes,
    classify_interaction,
    run_scenario,
)
from repro.scenarios.enumerate import (
    fault_index,
    pair_stratum,
    stratified_pair_sample,
)
from repro.scenarios.spec import SHAPE_CONCURRENT, pair_label, pair_scenario
from repro.scenarios.temporal import DEFAULT_CLUSTER_WINDOW_DAYS, temporal_profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.studygraph.context import StudyContext
    from repro.studygraph.registry import Registry

#: Technique the scenario sweep replays under.
SCENARIO_TECHNIQUE = "checkpoint-rollback"

#: Default pair budget for the registered grid (stratified sample of the
#: 9591-pair space; the tiny interaction-dense strata enter whole).
SCENARIO_BUDGET = 40

#: Sample seed for the registered grid.
SCENARIO_SAMPLE_SEED = DEFAULT_SEED

#: Activation shape of the registered grid's scenarios.
SCENARIO_SHAPE = SHAPE_CONCURRENT

#: The grid family / aggregate node name.
PAIRS_FAMILY = "scenario.pairs"

#: The shared single-fault baseline artifact node name.
BASELINE_NODE = "scenario.baseline"

#: The temporal-clustering experiment node name.
TEMPORAL_NODE = "scenario.temporal"


def scenario_pair_labels(
    study: StudyData | None = None,
    *,
    budget: int = SCENARIO_BUDGET,
    seed: int = SCENARIO_SAMPLE_SEED,
    shape: str = SCENARIO_SHAPE,
) -> list[str]:
    """The pair-axis values of the scenario grid, in sample order.

    A pure function of (catalog, budget, seed, shape): the registry, the
    CLI, and tests all derive the same point set from it.
    """
    if study is None:
        study = default_study()
    sample = stratified_pair_sample(study, budget, seed=seed, shape=shape)
    return [pair_label(scenario) for scenario in sample]


def _baselines_from_payload(payload: Mapping[str, Any]) -> dict[str, BaselineOutcome]:
    return {
        fault_id: BaselineOutcome(
            fault_id=fault_id,
            survived=bool(entry["survived"]),
            attempts_used=int(entry["attempts"]),
        )
        for fault_id, entry in payload["baselines"].items()
    }


def scenario_baseline(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Artifact node: single-fault baselines under the scenario technique.

    One standard replay per catalog fault (the same per-fault seed labels
    as E1, so these verdicts are byte-identical to the single-fault
    study).  Every pair point consumes this payload instead of re-running
    139 replays each.
    """
    baselines = baseline_outcomes(ctx.study, params["technique"])
    survived = sum(b.survived for b in baselines.values())
    return {
        "technique": params["technique"],
        "baselines": {
            fault_id: {"survived": b.survived, "attempts": b.attempts_used}
            for fault_id, b in sorted(baselines.items())
        },
        "text": (
            f"single-fault baselines ({params['technique']}): "
            f"{survived}/{len(baselines)} survived"
        ),
    }


def scenario_pair_point(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """One pair-scenario grid point: replay the composition, classify it.

    Params:
        pair: the ``FAULT-A+FAULT-B`` axis value.
        technique: recovery technique name.
        shape: activation shape.
        window: racy-window width for timing components.
    """
    fault_a, fault_b = params["pair"].split("+")
    scenario = pair_scenario(
        fault_a,
        fault_b,
        shape=params["shape"],
        overlap_window=params["window"],
    )
    faults = fault_index(ctx.study)
    outcome = run_scenario(scenario, faults, params["technique"])
    baselines = _baselines_from_payload(inputs[BASELINE_NODE])
    classification = classify_interaction(outcome, baselines)
    stratum = pair_stratum(faults[fault_a], faults[fault_b])
    return {
        "pair": params["pair"],
        "scenario_id": outcome.scenario_id,
        "shape": outcome.shape,
        "technique": outcome.technique,
        "stratum": list(stratum),
        "classification": classification,
        "survived": outcome.survived,
        "attempts": outcome.attempts_used,
        "manifested": [
            {
                "fault_id": record.fault_id,
                "first_run": record.first_run,
                "first_step": record.first_step,
                "fires": record.fires,
            }
            for record in outcome.manifested
        ],
        "collateral": list(outcome.collateral),
        "text": (
            f"{params['pair']}: {classification} "
            f"(survived={outcome.survived}, attempts={outcome.attempts_used})"
        ),
    }


def render_interaction_matrix(points: list[Mapping[str, Any]]) -> str:
    """The pair-interaction matrix: stratum rows x interaction columns.

    Byte-stable: rows in sorted stratum order, a fixed column per
    interaction class, and a totals row.
    """
    by_stratum: dict[tuple[str, str], dict[str, int]] = {}
    for payload in points:
        stratum = (payload["stratum"][0], payload["stratum"][1])
        counts = by_stratum.setdefault(
            stratum, {name: 0 for name in INTERACTION_CLASSES}
        )
        counts[payload["classification"]] += 1
    totals = {name: 0 for name in INTERACTION_CLASSES}
    rows = []
    for stratum in sorted(by_stratum):
        counts = by_stratum[stratum]
        for name in INTERACTION_CLASSES:
            totals[name] += counts[name]
        rows.append(
            [" x ".join(stratum)]
            + [counts[name] for name in INTERACTION_CLASSES]
            + [sum(counts.values())]
        )
    rows.append(
        ["all"] + [totals[name] for name in INTERACTION_CLASSES] + [len(points)]
    )
    return format_table(
        ["stratum"] + list(INTERACTION_CLASSES) + ["pairs"],
        rows,
        title="Pair-interaction matrix (multi-fault scenario sweep)",
    )


def scenario_pair_matrix(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Aggregation node: the interaction matrix over every pair point."""
    points = sorted(
        (dict(payload) for payload in inputs.values()),
        key=lambda payload: payload["pair"],
    )
    counts = {name: 0 for name in INTERACTION_CLASSES}
    defeated = []
    for payload in points:
        counts[payload["classification"]] += 1
        if payload["classification"] == CLASS_RECOVERY_DEFEATED:
            defeated.append(payload["pair"])
    matrix = render_interaction_matrix(points)
    lines = [matrix, ""]
    lines.append(
        "recovery-defeated pairs (each fault survivable alone, pair not):"
    )
    if defeated:
        lines.extend(f"  {pair}" for pair in sorted(defeated))
    else:
        lines.append("  (none in this sample)")
    return {
        "technique": params["technique"],
        "budget": params["budget"],
        "counts": counts,
        "defeated": sorted(defeated),
        "points": points,
        "text": "\n".join(lines),
    }


def scenario_temporal(
    ctx: "StudyContext", inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Temporal clustering of the synthetic archives.

    Params:
        window_days: reports at most this many days apart cluster.
    """
    profiles = temporal_profile(ctx.study, window_days=params["window_days"])
    rows = [
        [
            profile.application,
            profile.faults,
            profile.span_days,
            f"{profile.mean_gap_days:.1f}",
            f"{profile.median_gap_days:.1f}",
            f"{profile.burstiness:+.2f}",
            profile.clusters,
            profile.largest_cluster,
            f"{profile.multi_fault_share:.0%}",
        ]
        for profile in profiles
    ]
    text = format_table(
        [
            "archive",
            "faults",
            "span (d)",
            "mean gap",
            "median gap",
            "burstiness",
            "clusters",
            "largest",
            "multi-fault share",
        ],
        rows,
        title=(
            f"Temporal clustering of study faults "
            f"({params['window_days']}-day window)"
        ),
    )
    return {
        "window_days": params["window_days"],
        "profiles": [
            {
                "application": p.application,
                "faults": p.faults,
                "span_days": p.span_days,
                "mean_gap_days": p.mean_gap_days,
                "median_gap_days": p.median_gap_days,
                "burstiness": p.burstiness,
                "clusters": p.clusters,
                "largest_cluster": p.largest_cluster,
                "multi_fault_share": p.multi_fault_share,
            }
            for p in profiles
        ],
        "text": text,
    }


def register_scenario_nodes(
    registry: "Registry",
    *,
    corpus_deps: tuple[str, ...],
    budget: int = SCENARIO_BUDGET,
    seed: int = SCENARIO_SAMPLE_SEED,
    shape: str = SCENARIO_SHAPE,
    technique: str = SCENARIO_TECHNIQUE,
    study: StudyData | None = None,
) -> None:
    """Register the scenario nodes on a registry.

    The pair grid's axis values come from the stratified sample, so the
    registered point set is a pure function of (catalog, budget, seed,
    shape) -- rebuilding the registry anywhere reproduces the same grid.
    """
    from repro.scenarios.spec import DEFAULT_RACE_WINDOW
    from repro.studygraph.node import KIND_ARTIFACT, GridSpec, NodeSpec

    registry.register(
        NodeSpec.build(
            BASELINE_NODE,
            scenario_baseline,
            deps=corpus_deps,
            params={"technique": technique},
            kind=KIND_ARTIFACT,
            title="Single-fault baselines for the scenario sweep",
        )
    )
    pairs_grid = GridSpec.build(
        PAIRS_FAMILY,
        scenario_pair_point,
        axes={
            "pair": tuple(
                scenario_pair_labels(study, budget=budget, seed=seed, shape=shape)
            )
        },
        deps=(BASELINE_NODE,),
        params={
            "technique": technique,
            "shape": shape,
            "window": DEFAULT_RACE_WINDOW,
        },
        kind=KIND_ARTIFACT,
        title="Multi-fault pair-scenario point",
    )
    registry.register_grid(
        pairs_grid,
        aggregate=NodeSpec.build(
            PAIRS_FAMILY,
            scenario_pair_matrix,
            deps=tuple(pairs_grid.point_names()),
            params={"technique": technique, "budget": budget},
            title="Multi-fault pair-interaction matrix",
        ),
    )
    registry.register(
        NodeSpec.build(
            TEMPORAL_NODE,
            scenario_temporal,
            deps=corpus_deps,
            params={"window_days": DEFAULT_CLUSTER_WINDOW_DAYS},
            title="Temporal clustering of the synthetic archives",
        )
    )
