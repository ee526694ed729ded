"""Content-addressed on-disk cache for parsed archives and mined results.

Keys are the SHA-256 of the raw archive text plus a stage *tag* carrying
the application and parser/miner version (see
:class:`~repro.pipeline.formats.ArchiveFormat`).  Identical bytes mined
by identical code hit; anything else -- a changed archive, a bumped
parser, a different application -- misses into a different file.  There
is deliberately no mtime or TTL logic: content addressing plus version
tags *is* the invalidation policy, with :meth:`ParseMineCache.
invalidate` as the explicit escape hatch (and ``repro mine run
--no-cache`` bypassing the cache entirely).

Entries are JSON files under ``cache_dir/<digest[:2]>/<digest>.<tag>.json``,
written with :func:`repro.fileio.atomic_write` (temp file + rename) so a
killed writer can never leave a half-entry that later reads as a hit.
Corrupt or unreadable entries are treated as misses.  Entries are not
fsynced: after power loss an entry may be missing, which is a miss.

This mirrors the per-file analysis caches used for whole-kernel sweeps
in *Faults in Linux 2.6* (Palix et al.): re-running over an unchanged
input is a hash lookup, not a re-parse.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro import fileio, obs

#: Cache format version, embedded in every payload for debuggability.
CACHE_FORMAT_VERSION = 1


def archive_digest(text: str) -> str:
    """SHA-256 hex digest of raw archive text (the cache's content key)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def archive_file_digest(path: str | Path, *, block_size: int = 1 << 20) -> str:
    """SHA-256 of an archive file, streamed in blocks.

    Equals :func:`archive_digest` of the file's decoded text (the file
    is the UTF-8 encoding), so file-fed and text-fed pipeline runs share
    cache entries.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(block_size)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _entry_prefix(digest: str, tag: str) -> str:
    """Everything an entry file holds before its data's JSON.

    An entry is ``{"cache_format":…,"digest":…,"tag":…,"data":<data>}``
    in that key order; the data's JSON is followed only by ``}``.
    """
    return (
        f'{{"cache_format":{CACHE_FORMAT_VERSION},"digest":{json.dumps(digest)},'
        f'"tag":{json.dumps(tag)},"data":'
    )


class ParseMineCache:
    """On-disk parse/mine cache rooted at ``cache_dir``.

    The directory is created lazily on first store, so constructing a
    cache never touches the filesystem.  Hit/miss counts accumulate on
    the instance for telemetry.
    """

    def __init__(self, cache_dir: str | Path):
        self.root = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    def _entry_path(self, digest: str, tag: str) -> Path:
        return self.root / digest[:2] / f"{digest}.{tag}.json"

    def load(self, digest: str, tag: str) -> dict[str, Any] | None:
        """The stored payload for (digest, tag), or None on a miss.

        Corrupt or unreadable entries are misses, never errors.
        """
        path = self._entry_path(digest, tag)
        with obs.span("cache:load", tag=tag) as load_span:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                self.misses += 1
                load_span.set(hit=False)
                return None
            if (
                not isinstance(payload, dict)
                or payload.get("cache_format") != CACHE_FORMAT_VERSION
            ):
                self.misses += 1
                load_span.set(hit=False)
                return None
            self.hits += 1
            load_span.set(hit=True)
            return payload.get("data", {})

    def load_encoded(self, digest: str, tag: str) -> memoryview | None:
        """The stored JSON of (digest, tag)'s data, undecoded, or None on a miss.

        Only the wrapper :meth:`store` writes around the data is checked
        (its exact prefix for this digest and tag, and its closing
        brace); the caller verifies the data bytes themselves.
        """
        prefix = _entry_prefix(digest, tag).encode("ascii")
        with obs.span("cache:load", tag=tag) as load_span:
            try:
                with open(self._entry_path(digest, tag), "rb") as handle:
                    head = handle.read(len(prefix))
                    body = handle.read()
            except OSError:
                head = body = b""
            if head != prefix or not body.endswith(b"}"):
                self.misses += 1
                load_span.set(hit=False)
                return None
            self.hits += 1
            load_span.set(hit=True)
            return memoryview(body)[:-1]

    def store(
        self, digest: str, tag: str, data: dict[str, Any] | Sequence[str]
    ) -> Path:
        """Atomically write a payload for (digest, tag); returns its path.

        ``data`` is the payload, or its JSON already encoded as a
        sequence of string pieces, which are written verbatim (and
        never joined) inside the entry's wrapper.
        """
        path = self._entry_path(digest, tag)
        with obs.span("cache:store", tag=tag):
            if isinstance(data, Mapping):
                # dumps, not dump: only dumps takes the C encoder.
                data = (json.dumps(data, separators=(",", ":")),)
            fileio.atomic_write(path, (_entry_prefix(digest, tag), *data, "}"))
            return path

    def entry_paths(self, digest: str | None = None) -> list[Path]:
        """All entry files, optionally restricted to one archive digest."""
        if not self.root.is_dir():
            return []
        pattern = f"{digest}.*.json" if digest else "*.json"
        return sorted(
            path for bucket in self.root.iterdir() if bucket.is_dir()
            for path in bucket.glob(pattern)
        )

    def entry_count(self) -> int:
        """Number of cache entries on disk."""
        return len(self.entry_paths())

    def invalidate(self, digest: str | None = None) -> int:
        """Explicitly drop entries; returns how many were removed.

        Args:
            digest: drop only entries for this archive digest; None
                drops every entry under the cache root.
        """
        removed = 0
        for path in self.entry_paths(digest):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
