"""The study-graph scheduler: parallel, memoized node execution.

:func:`run_study` executes a set of target nodes (every registered
experiment by default) plus their dependency closure:

1. the closure is partitioned into dependency *waves* by
   :meth:`~repro.studygraph.registry.Registry.waves` -- every node
   whose inputs are resolved runs in the current wave;
2. each wave's cache misses run as self-describing
   :class:`~repro.harness.workunit.WorkUnit`\\ s on the existing
   :mod:`repro.harness` campaign engine, so node execution inherits the
   pool's fork semantics, telemetry, and determinism contract;
3. every node is memoized through the :class:`~repro.pipeline.cache.
   ParseMineCache`: the memo key is the node's content digest over
   (name, version, params, input artifact digests).  Hits resolve from
   a tiny metadata entry -- the payload itself is loaded lazily, only
   if a downstream miss needs it or a caller reads a requested output,
   so a fully warm re-run does no heavy deserialization at all.  The
   entry also records the payload's canonical-JSON size
   (``payload_bytes``) and where its ``"text"`` member sits in it
   (``text_span``), so a caller can judge a payload's size before
   loading it.  The payload entry *is* that canonical JSON, written
   verbatim by the node's runner from the one encoding its digest
   hashes, so :func:`stored_payload_json` can hand out verified bytes
   that are never decoded.  One check
   (:func:`_memo_meta`) decides whether a metadata entry is a hit, and
   ``study status`` and ``study diff`` read the same check through
   :func:`resolve_memo`.

Equivalence contract: for any worker count and any cache state, every
node's payload is identical to the serial cold execution -- producers
are deterministic functions of (study, inputs, params), seeds never
derive from scheduling, and memo hits are content-addressed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Any, Iterable, Mapping, Sequence

from repro import obs
from repro.obs import resources as obs_resources
from repro.obs.metrics import MetricsRegistry
from repro.harness.engine import run_campaign
from repro.harness.telemetry import ProgressReporter
from repro.harness.workunit import WorkUnit
from repro.pipeline.cache import ParseMineCache
from repro.studygraph.artifact import (
    DATA_TAG,
    META_TAG,
    ArtifactStore,
    OutputView,
    encode_artifact,
)
from repro.studygraph.context import StudyContext
from repro.studygraph.node import NodeSpec
from repro.studygraph.registry import GraphError, Registry, default_registry

#: WorkUnit.kind for study-graph node executions.
KIND_STUDYGRAPH = "studygraph"

#: Memo payload format version (bump to invalidate every node entry).
#: Version 2: the ``sgdata`` entry is the canonical payload JSON, and
#: ``sgmeta`` requires ``payload_bytes`` and ``text_span``.
MEMO_VERSION = 2

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
        payload_bytes: length of the output's canonical JSON, measured
            when the digest was computed and recorded in the memo entry.
        text_span: ``(start, end)`` of the output's top-level ``"text"``
            value inside that canonical JSON, or None without one.
    """

    name: str
    status: str
    digest: str
    key: str
    wall_seconds: float
    payload_bytes: int
    text_span: tuple[int, int] | None


@dataclasses.dataclass
class StudyRunResult:
    """One completed study-graph execution.

    Attributes:
        runs: per-node outcome, in topological execution order.
        outputs: payloads of the requested output nodes, each loaded
            through the run's artifact store on first read (check
            ``runs[name]`` first to avoid loading one at all).
        telemetry: counters/timers accumulated across all waves.
        waves: number of dependency waves executed.
    """

    runs: dict[str, NodeRun]
    outputs: Mapping[str, dict[str, Any]]
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
    cache: ParseMineCache | None


def _node_runner(unit: WorkUnit, wave: _WaveContext) -> dict[str, Any]:
    """Execute one node inside a pool worker and commit its memo entry.

    The unit's ``fault_id`` carries the node name and its ``key`` param
    the memo key; inputs were materialized by the parent before the
    fork.  The payload is encoded once, worker-side: that encoding gives
    the digest, size and text span, and is the ``sgdata`` entry written
    verbatim, so the parent never re-encodes a large payload.  The
    ``sgdata`` entry is written before the ``sgmeta`` entry that makes
    it a hit.
    """
    node = wave.nodes[unit.fault_id]
    inputs = {dep: wave.inputs[dep] for dep in node.deps}
    started = time.monotonic()
    cpu_started = time.process_time()
    with obs.span(f"node:{node.name}", kind=node.kind) as node_span:
        payload = node.producer(wave.ctx, inputs, node.params_dict())
        cpu = time.process_time() - cpu_started
        node_span.set(cpu_seconds=round(cpu, 6))
    wall = time.monotonic() - started
    # Peak RSS over the node's window, when a sampler covers this
    # process (dispatcher-side on the serial path, worker-side after a
    # fork).  None when sampling is off or the node outran the interval.
    sampler = obs_resources.active_sampler()
    peak_rss = sampler.peak_rss_since(started) if sampler is not None else None
    encoded = encode_artifact(payload)
    if wave.cache is not None:
        key = unit.params_dict()["key"]
        wave.cache.store(key, DATA_TAG, encoded.pieces)
        meta_entry = {
            "memo_version": MEMO_VERSION,
            "node": node.name,
            "digest": encoded.digest,
            "payload_bytes": encoded.size,
            "text_span": encoded.text_span,
            "wall_seconds": round(wall, 6),
            "cpu_seconds": round(cpu, 6),
        }
        if peak_rss is not None:
            meta_entry["peak_rss_bytes"] = int(peak_rss)
        wave.cache.store(key, META_TAG, meta_entry)
    return {
        "payload": payload,
        "digest": encoded.digest,
        "payload_bytes": encoded.size,
        "text_span": encoded.text_span,
        "wall_seconds": wall,
    }


def stored_payload_json(
    cache: ParseMineCache | None, run: NodeRun
) -> memoryview | None:
    """``run``'s payload as its ``sgdata`` entry holds it: canonical JSON.

    None unless the entry verifies: its wrapper is intact, and the bytes
    inside are ``run.payload_bytes`` long and hash to ``run.digest``.
    Only verified bytes are ever decoded or sent, so an entry that has
    vanished or rotted in any byte is a miss, never a wrong payload.
    """
    if cache is None:
        return None
    data = cache.load_encoded(run.key, DATA_TAG)
    if (
        data is None
        or len(data) != run.payload_bytes
        or hashlib.sha256(data).hexdigest() != run.digest
    ):
        return None
    return data


class _MemoStore(ArtifactStore):
    """An artifact store whose misses resolve through the memo cache.

    A cached node's payload is decoded from its verified ``sgdata``
    entry (:func:`stored_payload_json`).  If the entry has vanished or
    rotted, the node is re-executed inline from its own (recursively
    materialized) inputs.
    """

    def __init__(
        self, context: StudyContext, registry: Registry, runs: dict[str, NodeRun]
    ):
        super().__init__()
        self._context = context
        self._registry = registry
        self._runs = runs

    def load(self, name: str) -> dict[str, Any]:
        run = self._runs.get(name)
        cache = self._context.cache
        if run is not None:
            data = stored_payload_json(cache, run)
            if data is not None:
                return json.loads(str(data, "ascii"))
        node = self._registry.node(name)
        inputs = {dep: self.get(dep) for dep in node.deps}
        self._context.telemetry.count("studygraph.payload_rebuilds")
        with obs.span(f"rebuild:{name}"):
            # A copy: ``derived`` memos must not outlive this rebuild.
            return node.producer(
                dataclasses.replace(self._context), inputs, node.params_dict()
            )


def order_longest_first(
    names: Sequence[str], priorities: Mapping[str, float]
) -> list[str]:
    """Order a wave's ready nodes by expected cost, longest first.

    ``priorities`` maps node name -> expected wall seconds.  Nodes with
    a priority run longest-first (name breaks ties deterministically);
    nodes without one keep their FIFO position after them.  A pure
    dispatch-order permutation: payloads and digests are unaffected.
    """
    known: list[tuple[float, str]] = []
    unseen: list[str] = []
    for name in names:
        estimate = priorities.get(name)
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
        priorities: expected wall seconds per node, used to dispatch
            each wave's cache misses longest-first
            (:func:`order_longest_first`); None keeps FIFO dispatch.
            Ordering is scheduling-only -- results are bit-identical
            either way.

    Returns:
        Per-node outcomes, requested payloads, and telemetry.
    """
    context = context if context is not None else StudyContext.default()
    registry = registry if registry is not None else default_registry()
    targets = registry.targets(nodes)
    outputs = list(outputs) if outputs is not None else list(targets)
    waves = registry.waves(targets)
    order = [name for wave in waves for name in wave]
    for name in outputs:
        if name not in order:
            raise GraphError(
                f"requested output {name!r} is not in the executed closure"
            )

    telemetry = context.telemetry
    cache = context.cache
    digests: dict[str, str] = {}
    runs: dict[str, NodeRun] = {}
    store = _MemoStore(context, registry, runs)
    node_map = {name: registry.node(name) for name in order}

    if monitor is not None:
        monitor.run_started(
            total=len(order), workers=context.workers, pending=list(order)
        )
    with telemetry.timed("studygraph.wall"), obs.span(
        "study.run", nodes=len(order), targets=len(targets), workers=context.workers
    ):
        for index, ready in enumerate(waves, start=1):
            if monitor is not None:
                monitor.wave_started(index, ready=len(ready))

            with obs.span("wave", index=index, ready=len(ready)) as wave_span:
                to_run: list[tuple[str, str]] = []
                for name in ready:
                    node = node_map[name]
                    key = node.cache_digest(
                        {dep: digests[dep] for dep in node.deps}
                    )
                    with obs.span(f"memo:{name}") as memo_span:
                        meta = _memo_meta(cache, key)
                        memo_span.set(hit=meta is not None)
                    if meta is not None:
                        digests[name] = meta["digest"]
                        span = meta["text_span"]
                        runs[name] = NodeRun(
                            name, STATUS_CACHED, meta["digest"], key, 0.0,
                            meta["payload_bytes"],
                            tuple(span) if span is not None else None,
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
                        cache=cache,
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
                        digest = result["digest"]
                        store.put(name, result["payload"])
                        digests[name] = digest
                        runs[name] = NodeRun(
                            name, STATUS_EXECUTED, digest, keys[name],
                            result["wall_seconds"],
                            result["payload_bytes"],
                            result["text_span"],
                        )
                        telemetry.count("studygraph.nodes.executed")

            if progress is not None:
                progress.update(len(digests))

    if progress is not None:
        progress.finish()
    if monitor is not None:
        monitor.run_finished()
    ordered_runs = {name: runs[name] for name in order}
    # Only the requested outputs stay in memory; a cached one is loaded
    # from the memo cache when the caller first reads it.
    store.retain(outputs)
    return StudyRunResult(
        runs=ordered_runs,
        outputs=OutputView(store, outputs),
        telemetry=telemetry,
        waves=len(waves),
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


def _memo_meta(
    cache: ParseMineCache | None, key: str
) -> dict[str, Any] | None:
    """The memo metadata entry under ``key``, or None unless it is valid.

    The one memo-validity rule: an entry counts only when it carries the
    current :data:`MEMO_VERSION`, an output digest, the payload's size
    and its text span (null, or offsets within that size).  Every
    reader of ``sgmeta`` entries goes through here.
    """
    if cache is None:
        return None
    meta = cache.load(key, META_TAG)
    if (
        meta is None
        or meta.get("memo_version") != MEMO_VERSION
        or "digest" not in meta
        or not isinstance(meta.get("payload_bytes"), int)
        or "text_span" not in meta
        or not _valid_span(meta["text_span"], meta["payload_bytes"])
    ):
        return None
    return meta


def _valid_span(span: Any, size: int) -> bool:
    """Whether ``span`` is null or ``[start, end]`` within ``size`` bytes."""
    if span is None:
        return True
    return (
        isinstance(span, list)
        and len(span) == 2
        and all(isinstance(offset, int) for offset in span)
        and 0 <= span[0] <= span[1] <= size
    )


def resolve_memo(
    cache: ParseMineCache | None,
    registry: Registry,
    order: Sequence[str],
) -> dict[str, dict[str, Any]]:
    """Chain memo keys through ``cache`` without executing anything.

    Walks ``order`` (a topological order) deriving each node's memo key
    from its inputs' resolved digests, exactly as :func:`run_study`
    does, and returns ``{node: metadata}`` for every node whose entry
    is valid.  A node whose inputs do not all resolve is left out: its
    key cannot be computed.
    """
    resolved: dict[str, dict[str, Any]] = {}
    for name in order:
        node = registry.node(name)
        if any(dep not in resolved for dep in node.deps):
            continue
        key = node.cache_digest({dep: resolved[dep]["digest"] for dep in node.deps})
        meta = _memo_meta(cache, key)
        if meta is not None:
            resolved[name] = meta
    return resolved


def traced_node_walls(
    trace_records: Iterable[Mapping[str, Any]],
) -> dict[str, float]:
    """Wall seconds per node from a trace's ``node:*`` spans.

    Repeated executions of one node (a rebuild after payload rot) sum;
    a span without both ``start`` and ``end`` is skipped.
    """
    walls: dict[str, float] = {}
    for record in trace_records:
        name = record.get("name", "")
        if not name.startswith("node:") or "start" not in record or "end" not in record:
            continue
        node = name[len("node:"):]
        seconds = max(0.0, record["end"] - record["start"])
        walls[node] = walls.get(node, 0.0) + seconds
    return walls


def study_status(
    context: StudyContext,
    *,
    nodes: Sequence[str] | None = None,
    registry: Registry | None = None,
    trace_records: Sequence[Mapping[str, Any]] | None = None,
) -> list[list[str]]:
    """Per-node memo state without executing anything.

    Reads the :func:`resolve_memo` walk.  A node is ``cached`` when its
    memo entry resolves, ``missing`` when its inputs resolve but no
    entry does, and ``unknown`` when an upstream miss makes its key
    uncomputable.

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
    order = registry.topo_order(registry.targets(nodes))
    resolved = resolve_memo(context.cache, registry, order)
    traced = (
        traced_node_walls(trace_records) if trace_records is not None else None
    )
    rows: list[list[str]] = []
    for name in order:
        node = registry.node(name)
        meta = resolved.get(name)
        if meta is not None:
            wall = meta.get("wall_seconds")
            row = [
                name,
                node.kind,
                "cached",
                meta["digest"][:12],
                f"{wall * 1000:.1f}" if wall is not None else "-",
            ]
        elif all(dep in resolved for dep in node.deps):
            row = [name, node.kind, "missing", "-", "-"]
        else:
            row = [name, node.kind, "unknown", "-", "-"]
        if traced is not None:
            seconds = traced.get(name)
            row.append(f"{seconds * 1000:.1f}" if seconds is not None else "-")
        rows.append(row)
    return rows

