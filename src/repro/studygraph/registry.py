"""The node registry: every experiment, declaratively wired.

A :class:`Registry` maps node names to :class:`~repro.studygraph.node.
NodeSpec`\\ s and answers the structural questions the scheduler and the
CLI ask: dependency closures, deterministic topological order, the
experiment catalog.  :func:`default_registry` builds (once per process)
the full study graph from the per-subsystem adapters -- see
:mod:`repro.studygraph.nodes` for the wiring itself.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Iterable, Mapping

from repro.errors import ReproError
from repro.studygraph.node import KIND_EXPERIMENT, GridSpec, NodeSpec


class GraphError(ReproError):
    """Structural problem in the study graph (unknown node, cycle, ...)."""


@dataclasses.dataclass(frozen=True)
class GridFamily:
    """One registered grid family: its axes, points, and aggregate.

    Attributes:
        name: the family name (also the aggregate node's name, when
            one was registered).
        axes: the grid's ``(axis, values)`` pairs, sorted by axis name.
        points: the point node names, in expansion order.
        aggregate: the aggregation node's name, or None.
    """

    name: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    points: tuple[str, ...]
    aggregate: str | None = None

    @property
    def size(self) -> int:
        """Number of grid points."""
        return len(self.points)


class Registry:
    """A named collection of study-graph nodes.

    Structural queries scale to thousands-node grids: dependents are
    indexed incrementally at registration time and :meth:`waves` runs
    Kahn's algorithm over in-degree counts (O(nodes + edges) per target
    set), memoizing the partition per target set until the next
    :meth:`register` invalidates it.
    """

    def __init__(self, nodes: Iterable[NodeSpec] = ()):
        self._nodes: dict[str, NodeSpec] = {}
        self._dependents: dict[str, list[str]] = {}
        self._families: dict[str, GridFamily] = {}
        self._topo_cache: dict[tuple[str, ...] | None, list[list[str]]] = {}
        for node in nodes:
            self.register(node)

    def register(self, node: NodeSpec) -> NodeSpec:
        """Add a node; duplicate names are a wiring bug.

        Raises:
            GraphError: if the name is already registered.
        """
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        for dep in node.deps:
            self._dependents.setdefault(dep, []).append(node.name)
        self._topo_cache.clear()
        return node

    def register_grid(
        self, grid: GridSpec, *, aggregate: NodeSpec | None = None
    ) -> list[NodeSpec]:
        """Expand and register a grid family, plus its aggregation node.

        Every point of ``grid`` is registered as an ordinary node (so
        the scheduler, the memo cache, and ``study run --nodes`` treat
        points exactly like hand-registered nodes); the family itself is
        recorded for family-aware listing (:meth:`families`,
        :meth:`family_of`).  ``aggregate`` -- typically a node named
        after the family whose deps are all the points -- is registered
        alongside and recorded on the family.

        Returns:
            The registered point specs, in expansion order.
        """
        points = grid.expand()
        for point in points:
            self.register(point)
        if aggregate is not None:
            self.register(aggregate)
        self._families[grid.name] = GridFamily(
            name=grid.name,
            axes=grid.axes,
            points=tuple(spec.name for spec in points),
            aggregate=aggregate.name if aggregate is not None else None,
        )
        return points

    def families(self) -> dict[str, GridFamily]:
        """Every registered grid family, keyed by name."""
        return dict(self._families)

    def family(self, name: str) -> GridFamily:
        """Look up one grid family.

        Raises:
            GraphError: unknown family name.
        """
        try:
            return self._families[name]
        except KeyError:
            raise GraphError(
                f"unknown grid family {name!r}; known: "
                + ", ".join(sorted(self._families))
            ) from None

    def family_of(self, name: str) -> str | None:
        """The grid family owning node ``name``, or None."""
        return self.node(name).family or None

    def dependents(self, name: str) -> list[str]:
        """Nodes that declare ``name`` as a dependency (indexed)."""
        return list(self._dependents.get(name, ()))

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> NodeSpec:
        """Look up one node.

        Raises:
            GraphError: unknown name (with the known names listed).
        """
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(
                f"unknown study-graph node {name!r}; known: "
                + ", ".join(sorted(self._nodes))
            ) from None

    def names(self) -> list[str]:
        """All node names, in registration order."""
        return list(self._nodes)

    def nodes(self) -> list[NodeSpec]:
        """All nodes, in registration order."""
        return list(self._nodes.values())

    def experiments(self) -> list[NodeSpec]:
        """The experiment-kind nodes (the default ``study run`` targets)."""
        return [node for node in self._nodes.values() if node.kind == KIND_EXPERIMENT]

    def closure(self, targets: Iterable[str]) -> list[str]:
        """Targets plus every transitive dependency, in registration order."""
        needed: set[str] = set()
        stack = list(targets)
        while stack:
            name = stack.pop()
            if name in needed:
                continue
            needed.add(name)
            stack.extend(self.node(name).deps)
        return [name for name in self._nodes if name in needed]

    def targets(self, nodes: Iterable[str] | None = None) -> list[str]:
        """``nodes`` as a list, or every experiment when None.

        The one place the "no targets means the whole study" rule lives:
        ``study run``, ``study status``, ``study diff`` and ``perf
        record`` all resolve their targets here.
        """
        if nodes is not None:
            return list(nodes)
        return [node.name for node in self.experiments()]

    def waves(self, targets: Iterable[str] | None = None) -> list[list[str]]:
        """Dependency waves over the closure of ``targets``.

        Wave ``k`` holds every node whose last dependency lands in wave
        ``k - 1`` (Kahn's algorithm over in-degree counts), registration
        order breaking ties inside each wave, so the serial reference
        execution is reproducible.  ``None`` means every registered
        node.  Waves are memoized per target set and invalidated by
        :meth:`register`; callers receive copies.

        Raises:
            GraphError: on a dependency cycle.
        """
        key = None if targets is None else tuple(sorted(set(targets)))
        cached = self._topo_cache.get(key)
        if cached is not None:
            return [list(wave) for wave in cached]
        names = self.closure(key) if key is not None else self.names()
        in_set = set(names)
        position = {name: index for index, name in enumerate(names)}
        indegree: dict[str, int] = {}
        dependents: dict[str, list[str]] = {name: [] for name in names}
        for name in names:
            deps = [dep for dep in self.node(name).deps if dep in in_set]
            indegree[name] = len(deps)
            for dep in deps:
                dependents[dep].append(name)
        waves: list[list[str]] = []
        wave = [name for name in names if indegree[name] == 0]
        while wave:
            waves.append(wave)
            unlocked: list[str] = []
            for name in wave:
                for child in dependents[name]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        unlocked.append(child)
            wave = sorted(unlocked, key=position.__getitem__)
        remaining = [name for name in names if indegree[name]]
        if remaining:
            raise GraphError(
                "dependency cycle among study-graph nodes: "
                + ", ".join(sorted(remaining))
            )
        self._topo_cache[key] = waves
        return [list(wave) for wave in waves]

    def topo_order(self, targets: Iterable[str] | None = None) -> list[str]:
        """The flattened :meth:`waves`: a dependency-respecting order.

        Raises:
            GraphError: on a dependency cycle.
        """
        return [name for wave in self.waves(targets) for name in wave]

    def edges(self) -> list[tuple[str, str]]:
        """``(dependency, node)`` pairs for every declared edge."""
        return [
            (dep, node.name) for node in self._nodes.values() for dep in node.deps
        ]

    def with_overrides(self, overrides: Mapping[str, Mapping[str, object]]) -> "Registry":
        """A copy with per-node parameter overrides applied.

        The CLI uses this to run ad-hoc variants (``figure gnome
        --granularity quarter``) through exactly the registered wiring:
        overridden params flow into the nodes' memo keys, so variants
        never collide with the canonical entries.
        """
        for name in overrides:
            self.node(name)  # raise early on unknown names
        copy = Registry(
            node.with_params(**overrides[node.name]) if node.name in overrides else node
            for node in self._nodes.values()
        )
        copy._families = dict(self._families)
        return copy


_DEFAULT: Registry | None = None
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> Registry:
    """The full study graph, built once per process.

    The wiring lives in :mod:`repro.studygraph.nodes`; importing it is
    deferred so the registry layer stays free of domain imports.

    Thread-safe: concurrent first calls (the ``repro serve`` daemon's
    request threads) build the graph exactly once under a lock and every
    caller receives the same fully-wired registry; the scheduler never
    mutates it mid-request (:meth:`Registry.with_overrides` copies).
    """
    global _DEFAULT
    registry = _DEFAULT
    if registry is None:
        with _DEFAULT_LOCK:
            registry = _DEFAULT
            if registry is None:
                from repro.studygraph.nodes import build_registry

                registry = build_registry()
                _DEFAULT = registry
    return registry
