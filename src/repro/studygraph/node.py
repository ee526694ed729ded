"""Typed node specifications: the study graph's unit of declaration.

A :class:`NodeSpec` declares one experiment or intermediate artifact:
its name, the artifacts it consumes (``deps``), scalar parameters, a
version tag, and the producer adapter that computes its payload.  The
spec is pure data plus a function reference -- scheduling, parallelism,
and memoization live in :mod:`repro.studygraph.scheduler`.

Memo keys are content-addressed: :meth:`NodeSpec.cache_digest` hashes
the node's identity (name, version, params) together with the digests
of its input artifacts, so editing an upstream corpus or bumping a
node's version invalidates exactly the downstream cone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from typing import Any, Callable, Mapping, Sequence, TYPE_CHECKING

from repro.harness.workunit import JSON_SCALARS, canonical_params
from repro.studygraph.artifact import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.studygraph.context import StudyContext

#: Producer signature: ``(context, inputs, params) -> JSON payload``.
#: ``inputs`` maps each dependency name to its payload.
Producer = Callable[["StudyContext", Mapping[str, Any], Mapping[str, Any]], dict[str, Any]]

#: Node roles: experiments are the default ``repro study run`` targets;
#: artifacts are intermediate data (corpora, parsed archives, mined sets).
KIND_EXPERIMENT = "experiment"
KIND_ARTIFACT = "artifact"


@dataclasses.dataclass(frozen=True)
class NodeSpec:
    """One declared node of the study graph.

    Attributes:
        name: unique node name (``"T1"``, ``"parsed.mysql"``, ...).
        producer: the adapter computing this node's payload.
        deps: names of the input artifacts, in declaration order.
        params: canonicalized scalar parameters, part of the memo key.
        version: bump to invalidate memoized results after a behavioural
            change in the producer (or anything it calls).
        kind: ``"experiment"`` or ``"artifact"``.
        title: human-readable one-liner for catalogs and ``study graph``.
        family: owning grid family name for grid-expanded points
            (``""`` for ordinary nodes).  Presentation metadata only --
            deliberately *not* part of :meth:`cache_digest`, which
            already covers the point via its name, version, and params.
    """

    name: str
    producer: Producer
    deps: tuple[str, ...] = ()
    params: tuple[tuple[str, Any], ...] = ()
    version: str = "1"
    kind: str = KIND_EXPERIMENT
    title: str = ""
    family: str = ""

    @classmethod
    def build(
        cls,
        name: str,
        producer: Producer,
        *,
        deps: tuple[str, ...] = (),
        params: Mapping[str, Any] | None = None,
        version: str = "1",
        kind: str = KIND_EXPERIMENT,
        title: str = "",
        family: str = "",
    ) -> "NodeSpec":
        """Construct a spec, canonicalising the parameters."""
        return cls(
            name=name,
            producer=producer,
            deps=tuple(deps),
            params=canonical_params(params),
            version=version,
            kind=kind,
            title=title,
            family=family,
        )

    def params_dict(self) -> dict[str, Any]:
        """The parameters as a plain dict (what the producer receives)."""
        return dict(self.params)

    def with_params(self, **overrides: Any) -> "NodeSpec":
        """A copy with some parameters overridden (same name and deps).

        Unknown parameter names are rejected so CLI flags cannot drift
        from the node's declaration.
        """
        current = self.params_dict()
        for key in overrides:
            if key not in current:
                raise KeyError(f"node {self.name!r} has no parameter {key!r}")
        current.update(overrides)
        return dataclasses.replace(self, params=canonical_params(current))

    def cache_digest(self, input_digests: Mapping[str, str]) -> str:
        """The content-addressed memo key for this node.

        Args:
            input_digests: dependency name -> output artifact digest;
                must cover exactly :attr:`deps`.
        """
        missing = [dep for dep in self.deps if dep not in input_digests]
        if missing:
            raise KeyError(f"node {self.name!r} missing input digests for {missing}")
        identity = {
            "node": self.name,
            "version": self.version,
            "params": [[key, value] for key, value in self.params],
            "inputs": {dep: input_digests[dep] for dep in self.deps},
        }
        return hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()


# -- parameter grids ------------------------------------------------------ #

#: Characters an axis name or string value may not contain -- they carry
#: structure in grid-point node names (``family[axis=value,...]``).
_GRID_FORBIDDEN = frozenset("[],= \t\r\n")


def format_grid_value(value: Any) -> str:
    """Render one axis value for a grid-point node name.

    ``None`` renders as ``none`` and booleans as ``true``/``false`` so
    every scalar has exactly one spelling; numbers use their canonical
    ``str`` form (``0.05``, ``30.0``, ``4``).
    """
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def grid_point_label(point: Mapping[str, Any]) -> str:
    """The canonical ``axis=value,...`` label (axes in sorted order)."""
    return ",".join(
        f"{name}={format_grid_value(point[name])}" for name in sorted(point)
    )


def grid_point_name(family: str, point: Mapping[str, Any]) -> str:
    """The node name of one grid point: ``family[axis=value,...]``.

    This is the naming contract between :meth:`GridSpec.expand` and
    everything that addresses points from outside -- aggregation
    producers wiring their inputs, the CLI's family collapsing, and the
    livestatus ETA fallback all rely on it.
    """
    return f"{family}[{grid_point_label(point)}]"


def _validate_grid_token(kind: str, token: str) -> None:
    if not token:
        raise ValueError(f"grid {kind} must be non-empty")
    bad = _GRID_FORBIDDEN.intersection(token)
    if bad:
        raise ValueError(
            f"grid {kind} {token!r} contains reserved characters "
            + "".join(sorted(bad))
        )


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """A ``NodeSpec`` template plus named scalar-parameter axes.

    A grid expands into one content-digested :class:`NodeSpec` per point
    of the cartesian product of its axes: the point's axis assignment is
    folded into the node *name* (``family[axis=value,...]``), its
    *version* tag (``base.version+axis=value,...``), and -- because axis
    values land in ``params`` -- its memo key.  Each point is therefore
    individually memoized, individually schedulable, and individually
    addressable from the CLI and the serve daemon.

    Attributes:
        base: the template; its name is the family name, its params are
            the fixed (non-swept) parameters shared by every point.
        axes: ``(axis name, values)`` pairs in sorted axis-name order;
            values keep their declared order (it defines the expansion
            order).
    """

    base: NodeSpec
    axes: tuple[tuple[str, tuple[Any, ...]], ...]

    @classmethod
    def build(
        cls,
        name: str,
        producer: Producer,
        *,
        axes: Mapping[str, Sequence[Any]],
        deps: tuple[str, ...] = (),
        params: Mapping[str, Any] | None = None,
        version: str = "1",
        kind: str = KIND_EXPERIMENT,
        title: str = "",
    ) -> "GridSpec":
        """Construct a grid, validating axes against the base template.

        Raises:
            ValueError: empty axes, an axis colliding with a fixed
                parameter, duplicate values on one axis, or a name/value
                carrying the reserved ``[],=`` characters.
            TypeError: a non-scalar axis value.
        """
        base = NodeSpec.build(
            name,
            producer,
            deps=deps,
            params=params,
            version=version,
            kind=kind,
            title=title,
        )
        _validate_grid_token("family name", name)
        if not axes:
            raise ValueError(f"grid {name!r} declares no axes")
        fixed = base.params_dict()
        canonical: list[tuple[str, tuple[Any, ...]]] = []
        for axis in sorted(axes):
            _validate_grid_token("axis name", axis)
            if axis in fixed:
                raise ValueError(
                    f"grid {name!r} axis {axis!r} collides with a fixed parameter"
                )
            values = tuple(axes[axis])
            if not values:
                raise ValueError(f"grid {name!r} axis {axis!r} has no values")
            seen: set[Any] = set()
            for value in values:
                if not isinstance(value, JSON_SCALARS):
                    raise TypeError(
                        f"grid {name!r} axis {axis!r} value must be a JSON "
                        f"scalar, got {type(value).__name__}"
                    )
                if isinstance(value, str):
                    _validate_grid_token("axis value", value)
                key = (type(value).__name__, value)
                if key in seen:
                    raise ValueError(
                        f"grid {name!r} axis {axis!r} repeats value {value!r}"
                    )
                seen.add(key)
            canonical.append((axis, values))
        return cls(base=base, axes=tuple(canonical))

    @property
    def name(self) -> str:
        """The family name (the base template's name)."""
        return self.base.name

    @property
    def size(self) -> int:
        """Number of grid points (product of axis lengths)."""
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def points(self) -> list[dict[str, Any]]:
        """Every axis assignment, in deterministic expansion order.

        The cartesian product iterates the (sorted) axes with the last
        axis fastest, each axis's values in declared order.
        """
        names = [axis for axis, _ in self.axes]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(values for _, values in self.axes))
        ]

    def point_names(self) -> list[str]:
        """The node names of every point, in expansion order."""
        return [grid_point_name(self.name, point) for point in self.points()]

    def expand(self) -> list[NodeSpec]:
        """One :class:`NodeSpec` per grid point, in expansion order.

        Point params are the fixed params overlaid with the axis
        assignment; the version tag carries the assignment too, so a
        family-level version bump *or* an axis re-definition invalidates
        exactly the affected memo entries.
        """
        specs: list[NodeSpec] = []
        for point in self.points():
            label = grid_point_label(point)
            merged = self.base.params_dict()
            merged.update(point)
            specs.append(
                NodeSpec.build(
                    grid_point_name(self.name, point),
                    self.base.producer,
                    deps=self.base.deps,
                    params=merged,
                    version=f"{self.base.version}+{label}",
                    kind=self.base.kind,
                    title=f"{self.base.title} [{label}]" if self.base.title else "",
                    family=self.name,
                )
            )
        return specs
