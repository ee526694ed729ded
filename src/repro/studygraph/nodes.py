"""The full study graph: every DESIGN §4 experiment, declaratively wired.

This module is pure wiring -- each node names its producer adapter (in
the owning subsystem's ``nodes`` module), its input artifacts, and its
scalar parameters.  Reading it top to bottom *is* reading the study::

    corpus.<app>   curated corpora (roots; content-fingerprinted)
    parsed.<app>   rendered + parsed 1999-style archives
    mined.<app>    mined study sets with narrowing traces
    T1-T3 F1-F3    per-application tables and figures
    A1 A2 C1 E1    aggregate, Lee & Iyer, classifier fidelity, replay
    M1 mine.* funnel.*   the Section 4 mining narrowing
    report catalog       the top-level documents
    ablate.*             the Section 6 sensitivity ablations
    sweep.*              the §5a parameter-grid families (one memoized
                         artifact node per grid point, one aggregation
                         experiment per family rendering the classic
                         sweep table byte-identically)
    scenario.*           the multi-fault scenario sweep (single-fault
                         baseline artifact, one memoized point per
                         sampled catalog pair, the pair-interaction
                         matrix, and temporal clustering)

Bump a node's ``version`` whenever its producer's behaviour changes;
memoized results for it (and its downstream cone) become unreachable.
"""

from __future__ import annotations

from repro.analysis import nodes as analysis_nodes
from repro.bugdb.enums import Application
from repro.classify import nodes as classify_nodes
from repro.commands import FIGURE_NODES, TABLE_NODES
from repro.corpus import nodes as corpus_nodes
from repro.mining import nodes as mining_nodes
from repro.recovery import nodes as recovery_nodes
from repro.reports import nodes as reports_nodes
from repro.scenarios import nodes as scenario_nodes
from repro.studygraph.node import KIND_ARTIFACT, GridSpec, NodeSpec
from repro.studygraph.registry import Registry

#: MySQL keyword subsets for the Section 6 mining ablation.  Each subset
#: is cheap on its own: the decoded archive, its index and its threads
#: are built once per wave and shared with ``mined.mysql`` (see
#: :mod:`repro.mining.nodes`), so a subset adds only its keyword filter,
#: candidate extraction and dedup.
KEYWORD_SUBSETS = {
    "crash": "crash",
    "crash-seg": "crash,segmentation",
    "crash-seg-race": "crash,segmentation,race",
}

_APPS = (Application.APACHE, Application.GNOME, Application.MYSQL)
_CORPUS_DEPS = tuple(f"corpus.{app.value}" for app in _APPS)


def build_registry() -> Registry:
    """Construct the default study graph."""
    registry = Registry()

    for app in _APPS:
        registry.register(
            NodeSpec.build(
                f"corpus.{app.value}",
                corpus_nodes.corpus_artifact,
                params={"application": app.value},
                kind=KIND_ARTIFACT,
                title=f"Curated {app.display_name} corpus (fingerprinted root)",
            )
        )

    for app in _APPS:
        registry.register(
            NodeSpec.build(
                f"parsed.{app.value}",
                mining_nodes.parsed_archive,
                deps=(f"corpus.{app.value}",),
                params={"application": app.value, "scale": None},
                kind=KIND_ARTIFACT,
                title=f"Rendered + parsed {app.display_name} archive",
            )
        )
        registry.register(
            NodeSpec.build(
                f"mined.{app.value}",
                mining_nodes.mined_result,
                deps=(f"parsed.{app.value}",),
                params={"application": app.value},
                kind=KIND_ARTIFACT,
                title=f"Mined {app.display_name} study set + narrowing trace",
            )
        )
        registry.register(
            NodeSpec.build(
                f"mine.{app.value}",
                mining_nodes.mine_report_text,
                deps=(f"mined.{app.value}",),
                params={"application": app.value},
                title=f"Section 4 narrowing report for {app.display_name}",
            )
        )
        registry.register(
            NodeSpec.build(
                f"funnel.{app.value}",
                mining_nodes.funnel_text,
                deps=(f"mined.{app.value}",),
                params={"application": app.value},
                title=f"Narrowing funnel selectivity for {app.display_name}",
            )
        )

    for app in _APPS:
        registry.register(
            NodeSpec.build(
                TABLE_NODES[app],
                analysis_nodes.table_text,
                deps=(f"corpus.{app.value}",),
                params={"application": app.value},
                title=f"Table: {app.display_name} fault classification",
            )
        )
    for app in _APPS:
        params = {"application": app.value, "width": 40}
        if app is Application.GNOME:
            params["granularity"] = "month"
        registry.register(
            NodeSpec.build(
                FIGURE_NODES[app],
                analysis_nodes.figure_text,
                deps=(f"corpus.{app.value}",),
                params=params,
                title=f"Figure: {app.display_name} fault distribution",
            )
        )

    registry.register(
        NodeSpec.build(
            "A1",
            analysis_nodes.aggregate_text,
            deps=_CORPUS_DEPS,
            title="Section 5.4 aggregate across applications",
        )
    )
    registry.register(
        NodeSpec.build(
            "A2",
            analysis_nodes.leeiyer_text,
            title="Section 7 Lee & Iyer reconciliation",
        )
    )
    registry.register(
        NodeSpec.build(
            "C1",
            classify_nodes.classifier_fidelity,
            deps=_CORPUS_DEPS,
            title="Classifier fidelity vs. the paper's hand labels",
        )
    )
    registry.register(
        NodeSpec.build(
            "E1",
            recovery_nodes.e1_replay,
            deps=_CORPUS_DEPS,
            params={"techniques": recovery_nodes.ALL_TECHNIQUES},
            title="Recovery replay under the five techniques",
        )
    )
    registry.register(
        NodeSpec.build(
            "M1",
            mining_nodes.m1_narrowing,
            deps=("mine.apache", "mine.gnome", "mine.mysql"),
            title="Section 4 narrowing across all three archives",
        )
    )

    registry.register(
        NodeSpec.build(
            "report",
            reports_nodes.report_text,
            deps=_CORPUS_DEPS,
            params={"format": "text", "with_replay": False},
            title="The full study report",
        )
    )
    registry.register(
        NodeSpec.build(
            "catalog",
            reports_nodes.catalog_text,
            deps=_CORPUS_DEPS,
            title="The 139-fault markdown catalog",
        )
    )

    _register_sweep_grids(registry)
    scenario_nodes.register_scenario_nodes(registry, corpus_deps=_CORPUS_DEPS)

    registry.register(
        NodeSpec.build(
            "ablate.dedup",
            mining_nodes.ablate_dedup,
            deps=("parsed.apache",),
            title="Section 6 ablation: Apache dedup strategies",
        )
    )
    for label, keywords in KEYWORD_SUBSETS.items():
        registry.register(
            NodeSpec.build(
                f"ablate.keywords.{label}",
                mining_nodes.ablate_keywords,
                deps=("parsed.mysql",),
                params={"keywords": keywords},
                title=f"Section 6 ablation: MySQL keywords [{keywords}]",
            )
        )

    return registry


def _register_sweep_grids(registry: Registry) -> None:
    """Register the §5a sweeps as grid families.

    Each family expands into one memoized artifact node per grid point
    (axis values folded into the point's name, version tag, and memo
    key) plus one aggregation experiment, named after the family,
    depending on every point and rendering the classic sweep table
    byte-identically (``tests/recovery/test_sweep_grids.py`` pins the
    equivalences).
    """
    retry_grid = GridSpec.build(
        "sweep.retry-budget",
        recovery_nodes.sweep_retry_budget_point,
        axes={"budget": recovery_nodes.RETRY_BUDGETS},
        deps=_CORPUS_DEPS,
        params={
            "technique": recovery_nodes.SWEEP_TECHNIQUE,
            "race_window": recovery_nodes.SWEEP_RACE_WINDOW,
            "replications": recovery_nodes.SWEEP_REPLICATIONS,
        },
        kind=KIND_ARTIFACT,
        title="§5a retry-budget sweep point",
    )
    registry.register_grid(
        retry_grid,
        aggregate=NodeSpec.build(
            "sweep.retry-budget",
            recovery_nodes.sweep_retry_budget_table,
            deps=tuple(retry_grid.point_names()),
            params={"race_window": recovery_nodes.SWEEP_RACE_WINDOW},
            title="§5a sweep: survival vs. recovery retry budget",
        ),
    )

    race_grid = GridSpec.build(
        "sweep.race-window",
        recovery_nodes.sweep_race_window_point,
        axes={"window": recovery_nodes.RACE_WINDOWS},
        deps=_CORPUS_DEPS,
        params={
            "technique": recovery_nodes.SWEEP_TECHNIQUE,
            "replications": recovery_nodes.SWEEP_REPLICATIONS,
        },
        kind=KIND_ARTIFACT,
        title="§5a race-window sweep point",
    )
    registry.register_grid(
        race_grid,
        aggregate=NodeSpec.build(
            "sweep.race-window",
            recovery_nodes.sweep_race_window_table,
            deps=tuple(race_grid.point_names()),
            params={"technique": recovery_nodes.SWEEP_TECHNIQUE},
            title="§5a sweep: survival vs. racy-window width",
        ),
    )

    rejuvenation_grid = GridSpec.build(
        "sweep.rejuvenation",
        recovery_nodes.sweep_rejuvenation_point,
        axes={
            "interval_hours": recovery_nodes.REJUVENATION_INTERVALS,
            "downtime_minutes": recovery_nodes.REJUVENATION_DOWNTIMES,
        },
        params=recovery_nodes.REJUVENATION_FIXED_PARAMS,
        kind=KIND_ARTIFACT,
        title="§5a rejuvenation-schedule point",
    )
    registry.register_grid(
        rejuvenation_grid,
        aggregate=NodeSpec.build(
            "sweep.rejuvenation",
            recovery_nodes.sweep_rejuvenation_table,
            deps=tuple(rejuvenation_grid.point_names()),
            params={
                "table_downtime_minutes": recovery_nodes.REJUVENATION_TABLE_DOWNTIME
            },
            title="§5a sweep: availability vs. rejuvenation schedule",
        ),
    )

    model_grid = GridSpec.build(
        "sweep.recovery-model",
        classify_nodes.recovery_model_point,
        axes={"model": tuple(label for label, _ in classify_nodes.RECOVERY_MODELS)},
        deps=_CORPUS_DEPS,
        kind=KIND_ARTIFACT,
        title="§5.4 recovery-model point",
    )
    registry.register_grid(
        model_grid,
        aggregate=NodeSpec.build(
            "ablate.recovery-model",
            classify_nodes.ablate_recovery_model_from_points,
            deps=tuple(model_grid.point_names()),
            title="Section 6 ablation: recovery-model boundary",
        ),
    )
