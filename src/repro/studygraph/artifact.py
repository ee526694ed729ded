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
therefore never deserializes the heavy parsed-archive artifacts at all.
"""

from __future__ import annotations

import datetime as _dt
import enum
import hashlib
import json
from typing import Any, Callable, Mapping

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


def artifact_digest(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON encoding.

    The encoding is hashed in bounded slices rather than as one bytes
    copy of the whole text (12 MB for the parsed MySQL archive).  The
    digest is the same: ``ensure_ascii`` makes every character one byte.
    """
    text = canonical_json(payload)
    digest = hashlib.sha256()
    for start in range(0, len(text), _DIGEST_SLICE):
        digest.update(text[start : start + _DIGEST_SLICE].encode("ascii"))
    return digest.hexdigest()


class ArtifactStore:
    """Payloads by node name, with lazy loads for cache-satisfied nodes.

    Args:
        loader: ``name -> payload`` fallback invoked on a miss (the
            scheduler wires this to a cache read or, failing that, an
            inline re-execution of the node).
    """

    def __init__(self, loader: Callable[[str], dict[str, Any]] | None = None):
        self._payloads: dict[str, dict[str, Any]] = {}
        self._loader = loader

    def put(self, name: str, payload: dict[str, Any]) -> None:
        """Record an in-memory payload for ``name``."""
        self._payloads[name] = payload

    def has(self, name: str) -> bool:
        """Whether ``name`` is materialized in memory."""
        return name in self._payloads

    def get(self, name: str) -> dict[str, Any]:
        """The payload for ``name``, loading it through the fallback.

        Raises:
            KeyError: unknown artifact and no loader configured.
        """
        if name not in self._payloads:
            if self._loader is None:
                raise KeyError(f"artifact {name!r} is not materialized")
            self._payloads[name] = self._loader(name)
        return self._payloads[name]

    def subset(self, names: tuple[str, ...] | list[str]) -> dict[str, dict[str, Any]]:
        """Materialize and return ``{name: payload}`` for ``names``."""
        return {name: self.get(name) for name in names}
