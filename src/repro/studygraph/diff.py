"""Node-by-node drift report between two study memo caches.

``diff_caches`` resolves each node's memo entry in two caches
independently with :func:`~repro.studygraph.scheduler.resolve_memo`,
the same walk ``study status`` reads and the same validity check
``study run`` applies.
Because memo keys are content digests over (name, version, params,
input digests), two caches populated by equivalent runs must resolve
every node to the same digest; any divergence is classified:

``match``
    both caches resolve the node to the same output digest.
``payload-drift``
    the node's inputs agree between the caches but its output digest
    differs -- the producer (or its environment) changed behaviour.
``inherited-drift``
    the output digests differ only because an upstream node already
    drifted; the memo keys themselves diverge.
``only-a`` / ``only-b``
    the node resolves in one cache but not the other.
``absent``
    neither cache has an entry (or an upstream gap makes the node's
    key uncomputable in both).

This is the equivalence contract's audit tool: a warm cache diffed
against a fresh cold run of the same code must report zero drift.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Sequence

from repro.pipeline.cache import ParseMineCache
from repro.studygraph.registry import Registry, default_registry
from repro.studygraph.scheduler import resolve_memo

STATE_MATCH = "match"
STATE_PAYLOAD_DRIFT = "payload-drift"
STATE_INHERITED_DRIFT = "inherited-drift"
STATE_ONLY_A = "only-a"
STATE_ONLY_B = "only-b"
STATE_ABSENT = "absent"

#: States that indicate the two caches disagree about a resolvable node.
DRIFT_STATES = frozenset(
    {STATE_PAYLOAD_DRIFT, STATE_INHERITED_DRIFT, STATE_ONLY_A, STATE_ONLY_B}
)


@dataclasses.dataclass(frozen=True)
class NodeDiff:
    """How one node compares between cache A and cache B.

    Attributes:
        name: the node.
        kind: the node's registered kind.
        state: one of the ``STATE_*`` constants above.
        digest_a: output digest resolved in cache A (None if unresolved).
        digest_b: output digest resolved in cache B (None if unresolved).
        wall_a: producer wall seconds recorded in cache A's memo entry.
        wall_b: producer wall seconds recorded in cache B's memo entry.
    """

    name: str
    kind: str
    state: str
    digest_a: str | None
    digest_b: str | None
    wall_a: float | None
    wall_b: float | None

    @property
    def drifted(self) -> bool:
        """True when the caches disagree about this node."""
        return self.state in DRIFT_STATES

    @property
    def wall_delta(self) -> float | None:
        """B minus A producer wall seconds, when both sides recorded it."""
        if self.wall_a is None or self.wall_b is None:
            return None
        return self.wall_b - self.wall_a


@dataclasses.dataclass(frozen=True)
class DiffReport:
    """The full node-by-node comparison, in topological order."""

    nodes: tuple[NodeDiff, ...]

    @property
    def drifted(self) -> tuple[NodeDiff, ...]:
        """Nodes where the caches disagree."""
        return tuple(node for node in self.nodes if node.drifted)

    @property
    def clean(self) -> bool:
        """True when no resolvable node drifted."""
        return not self.drifted

    def rows(self) -> list[list[str]]:
        """``[node, kind, state, digest a, digest b, Δwall ms]`` CLI rows."""

        def _digest(digest: str | None) -> str:
            return digest[:12] if digest else "-"

        rows = []
        for node in self.nodes:
            delta = node.wall_delta
            rows.append(
                [
                    node.name,
                    node.kind,
                    node.state,
                    _digest(node.digest_a),
                    _digest(node.digest_b),
                    f"{delta * 1000:+.1f}" if delta is not None else "-",
                ]
            )
        return rows


def diff_caches(
    cache_a: str | Path,
    cache_b: str | Path,
    *,
    nodes: Sequence[str] | None = None,
    registry: Registry | None = None,
) -> DiffReport:
    """Compare two memo caches node by node.

    Args:
        cache_a: first memo directory (the baseline).
        cache_b: second memo directory (the candidate).
        nodes: restrict to these targets plus dependencies (default:
            every registered experiment).
        registry: node registry (default: the full study graph).

    Returns:
        A :class:`DiffReport` in topological order; ``report.clean`` is
        the "zero drift" assertion.
    """
    registry = registry if registry is not None else default_registry()
    order = registry.topo_order(registry.targets(nodes))
    resolved_a = resolve_memo(ParseMineCache(cache_a), registry, order)
    resolved_b = resolve_memo(ParseMineCache(cache_b), registry, order)

    diffs: list[NodeDiff] = []
    drifted: set[str] = set()
    for name in order:
        node = registry.node(name)
        meta_a, meta_b = resolved_a.get(name, {}), resolved_b.get(name, {})
        digest_a, digest_b = meta_a.get("digest"), meta_b.get("digest")
        if digest_a is not None and digest_b is not None:
            if digest_a == digest_b:
                state = STATE_MATCH
            elif any(dep in drifted for dep in node.deps):
                state = STATE_INHERITED_DRIFT
            else:
                state = STATE_PAYLOAD_DRIFT
        elif digest_a is not None:
            state = STATE_ONLY_A
        elif digest_b is not None:
            state = STATE_ONLY_B
        else:
            state = STATE_ABSENT
        if state in DRIFT_STATES:
            drifted.add(name)
        diffs.append(
            NodeDiff(
                name=name,
                kind=node.kind,
                state=state,
                digest_a=digest_a,
                digest_b=digest_b,
                wall_a=meta_a.get("wall_seconds"),
                wall_b=meta_b.get("wall_seconds"),
            )
        )
    return DiffReport(nodes=tuple(diffs))
