"""The study-graph scheduler: parallel, memoized node execution.

:func:`run_study` executes a set of target nodes (every registered
experiment by default) plus their dependency closure:

1. the closure is topo-sorted (:meth:`~repro.studygraph.registry.
   Registry.topo_order`) and executed in dependency *waves* -- every
   node whose inputs are resolved runs in the current wave;
2. each wave's cache misses run as self-describing
   :class:`~repro.harness.workunit.WorkUnit`\\ s on the existing
   :mod:`repro.harness` campaign engine, so node execution inherits the
   pool's fork semantics, telemetry, and determinism contract;
3. every node is memoized through the :class:`~repro.pipeline.cache.
   ParseMineCache`: the memo key is the node's content digest over
   (name, version, params, input artifact digests).  Hits resolve from
   a tiny metadata entry -- the payload itself is loaded lazily, only
   if a downstream miss (or a requested output) needs it, so a fully
   warm re-run does no heavy deserialization at all.

Equivalence contract: for any worker count and any cache state, every
node's payload is identical to the serial cold execution -- producers
are deterministic functions of (study, inputs, params), seeds never
derive from scheduling, and memo hits are content-addressed.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Iterable, Mapping, Sequence

from repro import obs
from repro.obs import resources as obs_resources
from repro.obs.metrics import MetricsRegistry
from repro.harness.engine import run_campaign
from repro.harness.telemetry import ProgressReporter
from repro.harness.workunit import WorkUnit
from repro.studygraph.artifact import (
    DATA_TAG,
    META_TAG,
    ArtifactStore,
    artifact_digest,
)
from repro.studygraph.context import StudyContext
from repro.studygraph.node import NodeSpec
from repro.studygraph.registry import GraphError, Registry, default_registry

#: WorkUnit.kind for study-graph node executions.
KIND_STUDYGRAPH = "studygraph"

#: Memo payload format version (bump to invalidate every node entry).
MEMO_VERSION = 1

STATUS_EXECUTED = "executed"
STATUS_CACHED = "cached"


@dataclasses.dataclass(frozen=True)
class NodeRun:
    """How one node was satisfied during a run.

    Attributes:
        name: the node.
        status: ``"executed"`` (producer ran) or ``"cached"`` (memo hit).
        digest: the output artifact's content digest.
        key: the node's memo key for this run.
        wall_seconds: producer wall time (0.0 for memo hits).
        cpu_seconds: process CPU time the producer consumed (None for
            memo hits).
        peak_rss_bytes: peak RSS the resource sampler saw while the
            producer ran (None when sampling is off or the node was a
            memo hit).
    """

    name: str
    status: str
    digest: str
    key: str
    wall_seconds: float
    cpu_seconds: float | None = None
    peak_rss_bytes: int | None = None


@dataclasses.dataclass
class StudyRunResult:
    """One completed study-graph execution.

    Attributes:
        runs: per-node outcome, in topological execution order.
        outputs: materialized payloads for the requested output nodes.
        telemetry: counters/timers accumulated across all waves.
        waves: number of dependency waves executed.
    """

    runs: dict[str, NodeRun]
    outputs: dict[str, dict[str, Any]]
    telemetry: MetricsRegistry
    waves: int

    @property
    def executed(self) -> int:
        """Nodes whose producer actually ran."""
        return sum(1 for run in self.runs.values() if run.status == STATUS_EXECUTED)

    @property
    def cached(self) -> int:
        """Nodes satisfied from the memo cache."""
        return sum(1 for run in self.runs.values() if run.status == STATUS_CACHED)

    def output_text(self, name: str) -> str:
        """The rendered text of one output node.

        Raises:
            KeyError: the node was not requested as an output, or its
                payload carries no ``"text"`` field.
        """
        return self.outputs[name]["text"]

    def summary_rows(self) -> list[list[Any]]:
        """``[node, status, wall ms, digest prefix]`` rows for the CLI."""
        return [
            [
                run.name,
                run.status,
                f"{run.wall_seconds * 1000:.1f}",
                run.digest[:12],
            ]
            for run in self.runs.values()
        ]


@dataclasses.dataclass
class _WaveContext:
    """Shared state a wave's forked workers inherit (never pickled)."""

    ctx: StudyContext
    nodes: dict[str, NodeSpec]
    inputs: dict[str, dict[str, Any]]


def _node_runner(unit: WorkUnit, wave: _WaveContext) -> dict[str, Any]:
    """Execute one node inside a pool worker.

    The unit's ``fault_id`` carries the node name; inputs were
    materialized by the parent before the fork.  The payload digest is
    computed worker-side so the parent never re-encodes large payloads.
    """
    node = wave.nodes[unit.fault_id]
    inputs = {dep: wave.inputs[dep] for dep in node.deps}
    started = time.monotonic()
    cpu_started = time.process_time()
    with obs.span(f"node:{node.name}", kind=node.kind):
        payload = node.producer(wave.ctx, inputs, node.params_dict())
    cpu = time.process_time() - cpu_started
    wall = time.monotonic() - started
    # Peak RSS over the node's window, when a sampler covers this
    # process (dispatcher-side on the serial path, worker-side after a
    # fork).  None when sampling is off or the node outran the interval.
    sampler = obs_resources.active_sampler()
    peak_rss = sampler.peak_rss_since(started) if sampler is not None else None
    return {
        "payload": payload,
        "digest": artifact_digest(payload),
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "peak_rss_bytes": peak_rss,
    }


def _make_store(
    context: StudyContext,
    registry: Registry,
    runs: dict[str, NodeRun],
) -> ArtifactStore:
    """An artifact store whose misses resolve through the memo cache.

    If a cached node's data entry has vanished or rotted (the cache
    treats corruption as a miss, never an error), the node is re-executed
    inline from its own (recursively materialized) inputs.
    """

    def load(name: str) -> dict[str, Any]:
        run = runs.get(name)
        if run is not None and context.cache is not None:
            entry = context.cache.load(run.key, DATA_TAG)
            if entry is not None and "payload" in entry:
                return entry["payload"]
        node = registry.node(name)
        inputs = {dep: store.get(dep) for dep in node.deps}
        context.telemetry.count("studygraph.payload_rebuilds")
        with obs.span(f"rebuild:{name}"):
            # A copy: ``derived`` memos must not outlive this rebuild.
            return node.producer(
                dataclasses.replace(context), inputs, node.params_dict()
            )

    store = ArtifactStore(loader=load)
    return store


def order_longest_first(
    names: Sequence[str], priorities: Mapping[str, float]
) -> list[str]:
    """Order a wave's ready nodes by expected cost, longest first.

    ``priorities`` is the perfdb ETA model (node name -> median wall
    seconds, :meth:`repro.obs.PerfDB.node_medians`).  Nodes with history
    run longest-first (name breaks ties deterministically); grid points
    the history has never seen fall back to their family's median (the
    median of the family's per-point medians); nodes with no estimate at
    all keep their FIFO position after the estimated ones.  A pure
    dispatch-order permutation: payloads and digests are unaffected.
    """
    families = obs.family_medians(priorities)
    known: list[tuple[float, str]] = []
    unseen: list[str] = []
    for name in names:
        estimate = priorities.get(name)
        if estimate is None:
            family = obs.grid_family(name)
            estimate = families.get(family) if family is not None else None
        if estimate is None:
            unseen.append(name)
        else:
            known.append((estimate, name))
    known.sort(key=lambda item: (-item[0], item[1]))
    return [name for _, name in known] + unseen


def run_study(
    context: StudyContext | None = None,
    *,
    nodes: Sequence[str] | None = None,
    outputs: Sequence[str] | None = None,
    registry: Registry | None = None,
    progress: ProgressReporter | None = None,
    monitor: Any = None,
    priorities: Mapping[str, float] | None = None,
) -> StudyRunResult:
    """Execute the study graph; see the module docstring for the story.

    Args:
        context: execution context (defaults to a serial, uncached
            context over the shared curated study).
        nodes: target node names (default: every registered experiment).
        outputs: node names whose payloads to materialize in the result
            (default: the targets).  Anything in the executed closure
            may be requested.
        registry: node registry (default: the full study graph).
        progress: optional reporter driven once per wave (resolved nodes
            out of the closure size).
        monitor: optional live monitor (e.g. :class:`repro.obs.
            RunMonitor`): receives run/wave/node lifecycle events here
            and the unit heartbeat from the campaign engine, and writes
            the snapshot ``repro study watch`` renders.  Monitoring
            never touches node payloads or memo keys.
        priorities: perfdb medians (node -> wall seconds) used to
            dispatch each wave's cache misses longest-first
            (:func:`order_longest_first`); None keeps FIFO dispatch.
            Ordering is scheduling-only -- results are bit-identical
            either way.

    Returns:
        Per-node outcomes, requested payloads, and telemetry.
    """
    context = context if context is not None else StudyContext.default()
    registry = registry if registry is not None else default_registry()
    targets = list(nodes) if nodes is not None else [
        node.name for node in registry.experiments()
    ]
    outputs = list(outputs) if outputs is not None else list(targets)
    order = registry.topo_order(targets)
    for name in outputs:
        if name not in order:
            raise GraphError(
                f"requested output {name!r} is not in the executed closure"
            )

    telemetry = context.telemetry
    cache = context.cache
    digests: dict[str, str] = {}
    runs: dict[str, NodeRun] = {}
    store = _make_store(context, registry, runs)
    node_map = {name: registry.node(name) for name in order}

    # In-degree bookkeeping: the reverse-dependency index is built once
    # and each finished node decrements its dependents, so computing the
    # next wave costs O(edges resolved) instead of rescanning every
    # remaining node's dep list per wave.
    position = {name: index for index, name in enumerate(order)}
    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {name: [] for name in order}
    for name in order:
        deps = node_map[name].deps
        indegree[name] = len(deps)
        for dep in deps:
            dependents[dep].append(name)

    waves = 0
    resolved = 0
    ready = [name for name in order if indegree[name] == 0]
    if monitor is not None:
        monitor.run_started(
            total=len(order), workers=context.workers, pending=list(order)
        )
    with telemetry.timed("studygraph.wall"), obs.span(
        "study.run", nodes=len(order), targets=len(targets), workers=context.workers
    ):
        while ready:
            waves += 1
            if monitor is not None:
                monitor.wave_started(waves, ready=len(ready))

            with obs.span("wave", index=waves, ready=len(ready)) as wave_span:
                to_run: list[tuple[str, str]] = []
                for name in ready:
                    node = node_map[name]
                    key = node.cache_digest(
                        {dep: digests[dep] for dep in node.deps}
                    )
                    with obs.span(f"memo:{name}") as memo_span:
                        meta = (
                            cache.load(key, META_TAG) if cache is not None else None
                        )
                        hit = (
                            meta is not None
                            and meta.get("memo_version") == MEMO_VERSION
                            and "digest" in meta
                        )
                        memo_span.set(hit=hit)
                    if hit:
                        digests[name] = meta["digest"]
                        runs[name] = NodeRun(
                            name, STATUS_CACHED, meta["digest"], key,
                            0.0,
                        )
                        telemetry.count("studygraph.nodes.cached")
                        if monitor is not None:
                            monitor.node_finished(name, status=STATUS_CACHED)
                    else:
                        to_run.append((name, key))
                wave_span.set(executed=len(to_run), cached=len(ready) - len(to_run))

                if priorities and len(to_run) > 1:
                    keys = dict(to_run)
                    to_run = [
                        (name, keys[name])
                        for name in order_longest_first(list(keys), priorities)
                    ]
                if to_run:
                    needed = sorted(
                        {dep for name, _ in to_run for dep in node_map[name].deps}
                    )
                    wave_ctx = _WaveContext(
                        ctx=_worker_context(context),
                        nodes=node_map,
                        inputs=store.subset(tuple(needed)),
                    )
                    units = [
                        WorkUnit.build(KIND_STUDYGRAPH, name, params={"key": key})
                        for name, key in to_run
                    ]
                    keys = dict(to_run)
                    campaign = run_campaign(
                        units,
                        _node_runner,
                        context=wave_ctx,
                        workers=context.workers,
                        telemetry=telemetry,
                        heartbeat=monitor,
                    )
                    for unit, result in campaign.pairs():
                        name = unit.fault_id
                        payload = result["payload"]
                        digest = result["digest"]
                        store.put(name, payload)
                        digests[name] = digest
                        runs[name] = NodeRun(
                            name, STATUS_EXECUTED, digest, keys[name],
                            result["wall_seconds"],
                            cpu_seconds=result.get("cpu_seconds"),
                            peak_rss_bytes=result.get("peak_rss_bytes"),
                        )
                        telemetry.count("studygraph.nodes.executed")
                        if cache is not None:
                            cache.store(keys[name], DATA_TAG, {"payload": payload})
                            meta_entry = {
                                "memo_version": MEMO_VERSION,
                                "node": name,
                                "digest": digest,
                                "wall_seconds": round(
                                    result["wall_seconds"], 6
                                ),
                            }
                            if result.get("cpu_seconds") is not None:
                                meta_entry["cpu_seconds"] = round(
                                    result["cpu_seconds"], 6
                                )
                            if result.get("peak_rss_bytes") is not None:
                                meta_entry["peak_rss_bytes"] = int(
                                    result["peak_rss_bytes"]
                                )
                            cache.store(keys[name], META_TAG, meta_entry)

            resolved += len(ready)
            unlocked: list[str] = []
            for name in ready:
                for child in dependents[name]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        unlocked.append(child)
            ready = sorted(unlocked, key=position.__getitem__)
            if progress is not None:
                progress.update(len(digests))

        if resolved != len(order):  # topo_order guarantees progress; belt and braces
            raise GraphError(
                "scheduler stalled; unresolved nodes: "
                + ", ".join(name for name in order if name not in digests)
            )

    if progress is not None:
        progress.finish()
    if monitor is not None:
        monitor.run_finished()
    ordered_runs = {name: runs[name] for name in order}
    return StudyRunResult(
        runs=ordered_runs,
        outputs={name: store.get(name) for name in outputs},
        telemetry=telemetry,
        waves=waves,
    )


def _worker_context(context: StudyContext) -> StudyContext:
    """The context handed to producers inside pool workers.

    Producers always see ``workers=1`` so any nested campaign they start
    (the replay nodes run on the harness themselves) stays inline
    instead of forking from a forked worker.
    """
    return StudyContext(
        study=context.study,
        workers=1,
        cache=None,
        telemetry=MetricsRegistry(),
    )


def run_single_node(
    name: str,
    *,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
    context: StudyContext | None = None,
    registry: Registry | None = None,
) -> dict[str, Any]:
    """Execute one node (plus dependencies) serially; return its payload.

    This is the CLI's per-command path: each classic command resolves
    its registered node, applies flag overrides, and prints the node's
    rendered text -- single-node invocations of the same graph that
    ``study run`` executes wholesale.
    """
    registry = registry if registry is not None else default_registry()
    if overrides:
        registry = registry.with_overrides(overrides)
    result = run_study(
        context if context is not None else StudyContext.default(),
        nodes=[name],
        outputs=[name],
        registry=registry,
    )
    return result.outputs[name]


def study_status(
    context: StudyContext,
    *,
    nodes: Sequence[str] | None = None,
    registry: Registry | None = None,
    trace_records: Sequence[Mapping[str, Any]] | None = None,
) -> list[list[str]]:
    """Per-node memo state without executing anything.

    Walks the closure in topo order resolving digests from metadata
    entries alone.  A node is ``cached`` when its memo entry exists,
    ``missing`` when its inputs resolve but no entry does, and
    ``unknown`` when an upstream miss makes its key uncomputable.

    Returns:
        ``[node, kind, state, digest-or-"-", wall-ms-or-"-"]`` rows; the
        wall column is the producer time recorded when the cached entry
        was originally executed (cached-vs-executed cost at a glance).
        With ``trace_records`` (the spans of a traced run) every row
        gains a ``traced-ms-or-"-"`` column: the summed wall time of
        that node's ``node:*`` spans, so recorded META time and traced
        time sit side by side.
    """
    registry = registry if registry is not None else default_registry()
    targets = list(nodes) if nodes is not None else [
        node.name for node in registry.experiments()
    ]
    order = registry.topo_order(targets)
    traced = (
        traced_node_walls(trace_records) if trace_records is not None else None
    )
    digests: dict[str, str] = {}
    rows: list[list[str]] = []
    for name in order:
        node = registry.node(name)
        if any(dep not in digests for dep in node.deps):
            row = [name, node.kind, "unknown", "-", "-"]
        else:
            key = node.cache_digest({dep: digests[dep] for dep in node.deps})
            meta = (
                context.cache.load(key, META_TAG)
                if context.cache is not None
                else None
            )
            if (
                meta is not None
                and meta.get("memo_version") == MEMO_VERSION
                and "digest" in meta
            ):
                digests[name] = meta["digest"]
                wall = meta.get("wall_seconds")
                row = [
                    name,
                    node.kind,
                    "cached",
                    meta["digest"][:12],
                    f"{wall * 1000:.1f}" if wall is not None else "-",
                ]
            else:
                row = [name, node.kind, "missing", "-", "-"]
        if traced is not None:
            seconds = traced.get(name)
            row.append(f"{seconds * 1000:.1f}" if seconds is not None else "-")
        rows.append(row)
    return rows


def traced_node_walls(
    trace_records: Sequence[Mapping[str, Any]],
) -> dict[str, float]:
    """Wall seconds per node from a trace's ``node:*`` spans.

    Repeated executions of one node (a rebuild after payload rot) sum.
    """
    walls: dict[str, float] = {}
    for record in trace_records:
        name = record.get("name", "")
        if not name.startswith("node:") or "start" not in record or "end" not in record:
            continue
        node = name[len("node:"):]
        seconds = max(0.0, record.get("end", 0.0) - record.get("start", 0.0))
        walls[node] = walls.get(node, 0.0) + seconds
    return walls


def memo_walls(
    context: StudyContext,
    *,
    nodes: Sequence[str] | None = None,
    registry: Registry | None = None,
) -> dict[str, float]:
    """Recorded producer wall seconds for memo-satisfied nodes.

    The same metadata walk as :func:`study_status`, reduced to
    ``{node: wall_seconds}`` for every node whose memo entry resolves
    and recorded a producer time -- the join ``repro perf record`` uses
    to carry cache-satisfied nodes into the perf history.
    """
    registry = registry if registry is not None else default_registry()
    targets = list(nodes) if nodes is not None else [
        node.name for node in registry.experiments()
    ]
    if context.cache is None:
        return {}
    digests: dict[str, str] = {}
    walls: dict[str, float] = {}
    for name in registry.topo_order(targets):
        node = registry.node(name)
        if any(dep not in digests for dep in node.deps):
            continue
        key = node.cache_digest({dep: digests[dep] for dep in node.deps})
        meta = context.cache.load(key, META_TAG)
        if (
            meta is not None
            and meta.get("memo_version") == MEMO_VERSION
            and "digest" in meta
        ):
            digests[name] = meta["digest"]
            if meta.get("wall_seconds") is not None:
                walls[name] = float(meta["wall_seconds"])
    return walls
