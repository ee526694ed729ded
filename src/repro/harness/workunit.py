"""Self-describing work units: the harness's unit of execution.

A campaign is a stream of independent :class:`WorkUnit`\\ s, each carrying
everything a worker needs to execute it deterministically: which study
fault to replay, which campaign family it belongs to (``kind``), the
technique label, any parameter overrides (race window, retry budget,
replication index, ...), and the **fully derived seed**.

The seed is derived by the unit *builder* (from the campaign's base seed
and the unit's identity, via :func:`repro.rng.derive_seed`), never by the
worker -- so verdicts cannot depend on worker identity, worker count, or
scheduling order.  Two units with the same content are the same unit:
:meth:`WorkUnit.key` hashes the canonical JSON encoding, and the journal
(:mod:`repro.harness.journal`) uses that hash to recognise already
completed units on resume.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Mapping

#: JSON-scalar types allowed as parameter values (keeps keys canonical).
JSON_SCALARS = (str, int, float, bool, type(None))

#: The canonical encoding content keys hash, built once: ``json.dumps``
#: with non-default options builds a new encoder on every call.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_params(params: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    """Sort and validate work-unit or node parameters into a hashable tuple."""
    if not params:
        return ()
    items = []
    for name in sorted(params):
        value = params[name]
        if not isinstance(value, JSON_SCALARS):
            raise TypeError(
                f"parameter {name!r} must be a JSON scalar, got {type(value).__name__}"
            )
        items.append((name, value))
    return tuple(items)


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One independent replay in a campaign.

    Attributes:
        kind: the campaign family (``"replay"``, ``"retry-budget"``,
            ``"race-window"``, or any user-defined family).
        fault_id: the study fault to replay.
        technique: the recovery technique's display name (informational,
            but part of the unit's identity and hence its journal key).
        params: canonicalised ``(name, value)`` parameter overrides,
            sorted by name.
        seed: the fully derived seed for this unit's environment.
    """

    kind: str
    fault_id: str
    technique: str
    params: tuple[tuple[str, Any], ...]
    seed: int

    @classmethod
    def build(
        cls,
        kind: str,
        fault_id: str,
        *,
        technique: str = "",
        params: Mapping[str, Any] | None = None,
        seed: int = 0,
    ) -> "WorkUnit":
        """Construct a unit, canonicalising the parameter overrides."""
        return cls(
            kind=kind,
            fault_id=fault_id,
            technique=technique,
            params=canonical_params(params),
            seed=seed,
        )

    def params_dict(self) -> dict[str, Any]:
        """The parameter overrides as a plain dict."""
        return dict(self.params)

    def key(self) -> str:
        """Content hash identifying this unit (stable across processes).

        The journal is keyed by this hash, so a resumed campaign
        recognises a completed unit by *what it is*, not by its position
        in the stream.
        """
        return self._content_key

    @functools.cached_property
    def _content_key(self) -> str:
        # Computed once per unit (a campaign asks several times) and kept
        # outside the dataclass fields, so equality, hashing and
        # ``to_dict`` never see it.
        canonical = _KEY_ENCODER.encode(self.to_dict())
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable encoding (used for hashing and journaling)."""
        return {
            "kind": self.kind,
            "fault_id": self.fault_id,
            "technique": self.technique,
            "params": [[name, value] for name, value in self.params],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkUnit":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            fault_id=data["fault_id"],
            technique=data.get("technique", ""),
            params=tuple((name, value) for name, value in data.get("params", ())),
            seed=data["seed"],
        )


def check_unique(units: list[WorkUnit]) -> None:
    """Raise if two units in a campaign share a content key.

    Duplicate keys would make the journal ambiguous (one completion would
    satisfy both units), so campaign builders must disambiguate -- e.g.
    with a ``replication`` parameter.
    """
    seen: dict[str, WorkUnit] = {}
    for unit in units:
        key = unit.key()
        if key in seen:
            raise ValueError(
                f"duplicate work units in campaign: {unit} and {seen[key]} "
                "share a content key; add a disambiguating parameter"
            )
        seen[key] = unit
