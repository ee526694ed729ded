"""Content-addressed artifacts: canonical JSON, digests, and the store.

Every node in the study graph produces a JSON payload; the payload's
digest (SHA-256 over its canonical encoding) *is* the artifact's
identity.  Downstream nodes key their own cache entries on these input
digests, so a change anywhere -- a curated fault edited, a miner
version bumped, a parameter overridden -- re-executes exactly the
affected subgraph and nothing else.

:class:`ArtifactStore` is the scheduler's working set: executed payloads
live in memory; payloads of cache-satisfied nodes are loaded lazily from
the :class:`~repro.pipeline.cache.ParseMineCache` only when a downstream
cache miss (or a requested output) actually needs them.  A warm re-run
therefore never deserializes the heavy parsed-archive artifacts at all,
and a run's requested outputs (:class:`OutputView`) are loaded only when
a caller reads them.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import enum
import hashlib
import json
from typing import Any, Iterable, Iterator, Mapping

#: Cache tags for studygraph entries (see ParseMineCache path layout).
META_TAG = "sgmeta"
DATA_TAG = "sgdata"


def jsonable(value: Any) -> Any:
    """Recursively convert a value into plain JSON-compatible data.

    Enums become their values, dates their ISO strings, tuples lists,
    and mappings plain dicts with string keys (enum keys use ``.value``).
    Used by fingerprint helpers that serialize domain objects; node
    payloads themselves must already be plain JSON data.
    """
    if isinstance(value, enum.Enum):
        return jsonable(value.value)
    if isinstance(value, (_dt.datetime, _dt.date)):
        return value.isoformat()
    if isinstance(value, Mapping):
        return {
            (key.value if isinstance(key, enum.Enum) else str(key)): jsonable(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot make {type(value).__name__} JSON-compatible")


def canonical_json(data: Any) -> str:
    """The canonical encoding digests are computed over.

    Sorted keys, no whitespace, ASCII-only escapes: byte-for-byte stable
    across processes and platforms for any JSON-compatible payload.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


#: Characters of canonical JSON encoded and hashed at a time.
_DIGEST_SLICE = 1 << 20


@dataclasses.dataclass(frozen=True)
class EncodedArtifact:
    """A payload's canonical JSON, and what is measured from that one encoding.

    Attributes:
        pieces: the canonical JSON, in order; their concatenation is
            :func:`canonical_json` of the payload.  They are kept apart
            so that no joined copy of a large payload is ever built.
        digest: SHA-256 hex of the encoding: the artifact's identity.
        size: length of the encoding in bytes (``ensure_ascii`` makes
            it its length in characters).
        text_span: ``(start, end)`` offsets of the top-level ``"text"``
            member's value inside the encoding, or None without one.
    """

    pieces: tuple[str, ...]
    digest: str
    size: int
    text_span: tuple[int, int] | None


def encode_artifact(payload: Mapping[str, Any]) -> EncodedArtifact:
    """Encode a node payload canonically, once.

    The top-level members are encoded one at a time in sorted key
    order, so the ``"text"`` value's offsets come from the same pass.
    The pieces are hashed in bounded slices rather than as one bytes
    copy of the whole text (12 MB for the parsed MySQL archive).

    Raises:
        TypeError: a top-level key is not a string (its canonical
            encoding would depend on how it sorts among strings).
    """
    if not all(isinstance(key, str) for key in payload):
        raise TypeError("payload keys must be strings")
    pieces: list[str] = []
    text_span = None
    size = 0
    digest = hashlib.sha256()
    for key in sorted(payload):
        head = ("," if pieces else "{") + canonical_json(key) + ":"
        value = canonical_json(payload[key])
        if key == "text":
            text_span = (size + len(head), size + len(head) + len(value))
        for piece in (head, value):
            for start in range(0, len(piece), _DIGEST_SLICE):
                digest.update(piece[start : start + _DIGEST_SLICE].encode("ascii"))
            size += len(piece)
            pieces.append(piece)
    tail = "}" if pieces else "{}"
    digest.update(tail.encode("ascii"))
    pieces.append(tail)
    return EncodedArtifact(tuple(pieces), digest.hexdigest(), size + len(tail), text_span)


def artifact_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a payload's canonical JSON encoding."""
    return encode_artifact(payload).digest


class ArtifactStore:
    """Payloads by node name, with lazy loads for cache-satisfied nodes.

    A miss calls :meth:`load`; the scheduler's store overrides it with a
    cache read or, failing that, an inline re-execution of the node.
    """

    def __init__(self) -> None:
        self._payloads: dict[str, dict[str, Any]] = {}

    def put(self, name: str, payload: dict[str, Any]) -> None:
        """Record an in-memory payload for ``name``."""
        self._payloads[name] = payload

    def has(self, name: str) -> bool:
        """Whether ``name`` is materialized in memory."""
        return name in self._payloads

    def get(self, name: str) -> dict[str, Any]:
        """The payload for ``name``, loading it through :meth:`load`.

        Raises:
            KeyError: unknown artifact and no way to load it.
        """
        if name not in self._payloads:
            self._payloads[name] = self.load(name)
        return self._payloads[name]

    def load(self, name: str) -> dict[str, Any]:
        """Produce the payload for a name not held in memory.

        The base store holds only what was :meth:`put`.  Loading is a
        method, not a callable handed in, because a loader usually needs
        the store itself (to materialize inputs): a closure over the
        store would make a reference cycle that keeps every payload
        alive until the cyclic collector runs.
        """
        raise KeyError(f"artifact {name!r} is not materialized")

    def retain(self, names: Iterable[str]) -> None:
        """Drop every in-memory payload except those for ``names``.

        A dropped payload is loaded again on its next :meth:`get`.
        """
        keep = set(names)
        self._payloads = {
            name: payload for name, payload in self._payloads.items() if name in keep
        }

    def subset(self, names: tuple[str, ...] | list[str]) -> dict[str, dict[str, Any]]:
        """Materialize and return ``{name: payload}`` for ``names``."""
        return {name: self.get(name) for name in names}


class OutputView(Mapping[str, dict[str, Any]]):
    """Read-only ``{name: payload}`` over a store, loaded on first read.

    Membership, iteration and length never touch a payload; indexing
    one name materializes only that payload, through ``store``.
    """

    def __init__(self, store: ArtifactStore, names: Iterable[str]):
        self.store = store
        self._names = tuple(dict.fromkeys(names))

    def __getitem__(self, name: str) -> dict[str, Any]:
        if name not in self._names:
            raise KeyError(name)
        return self.store.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self) -> str:
        return f"OutputView({list(self._names)!r})"
