"""``repro.studygraph`` -- one typed artifact graph for every experiment.

The paper is a single coherent study -- archives -> mining ->
classification -> tables/figures -> replay -- but historically each CLI
command and benchmark rebuilt that chain inline around the module-global
study memo.  This package turns every experiment in DESIGN section 4
(T1-T3, F1-F3, A1, A2, E1, M1, C1, plus the section 6 ablations) into a
registered :class:`~repro.studygraph.node.NodeSpec` that declares its
input artifacts and produces a content-addressed output payload.

A scheduler (:func:`~repro.studygraph.scheduler.run_study`) topo-sorts
the graph, runs independent nodes in parallel on the existing
:mod:`repro.harness` pool, and memoizes every node through the
:mod:`repro.pipeline` cache, keyed on input artifact digests plus node
version tags -- so ``repro study run`` reproduces the entire paper in
one parallel, resumable, warm-cache-fast command, with outputs
byte-identical to the per-command paths.

Layering: this package imports from ``corpus``, ``mining``, ``classify``,
``analysis``, ``recovery``, ``reports``, ``harness``, and ``pipeline``;
none of those import back (the CLI is the only caller above this layer).
"""

from repro.studygraph.artifact import ArtifactStore, artifact_digest, canonical_json
from repro.studygraph.context import StudyContext
from repro.studygraph.diff import DiffReport, NodeDiff, diff_caches
from repro.studygraph.node import (
    GridSpec,
    NodeSpec,
    format_grid_value,
    grid_point_label,
    grid_point_name,
)
from repro.studygraph.registry import GridFamily, Registry, default_registry
from repro.studygraph.scheduler import (
    NodeRun,
    StudyRunResult,
    order_longest_first,
    run_single_node,
    run_study,
    study_status,
)

__all__ = [
    "ArtifactStore",
    "DiffReport",
    "GridFamily",
    "GridSpec",
    "NodeDiff",
    "NodeRun",
    "NodeSpec",
    "Registry",
    "StudyContext",
    "StudyRunResult",
    "artifact_digest",
    "canonical_json",
    "default_registry",
    "diff_caches",
    "format_grid_value",
    "grid_point_label",
    "grid_point_name",
    "order_longest_first",
    "run_single_node",
    "run_study",
    "study_status",
]
