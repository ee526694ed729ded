"""LSM-style segmented text index for million-report archives.

:class:`~repro.bugdb.textindex.TextIndex` is a single in-memory
inverted index: fine at 44k messages, hopeless at 1M+.  This module
keeps the same query semantics but stores postings in **immutable
on-disk segments**, LSM-tree style:

* Each parse shard writes one *write-ahead segment* — sorted
  ``token\\tid,id,...`` lines over the shard's **local** doc ids
  (0..n-1) — without knowing how many records earlier shards hold.
* The **manifest** (``manifest.json``, replaced atomically by
  :func:`repro.fileio.atomic_write`) assigns
  every segment a ``doc_base``; a segment's global ids are
  ``doc_base + local_id``.  Staged segments are committed in shard
  order with cumulative bases, so the segmented index is
  query-identical to indexing the whole archive serially.
* Every segment carries a ``.toc`` sidecar sampling every
  :data:`TOC_SAMPLE_EVERY`-th token with its byte offset; queries
  binary-search the samples, ``seek`` into the segment, and scan a
  bounded run of lines, decoding doc ids only on the lines that
  match.  Memory per query is O(matched postings), not O(index).
* **Size-tiered compaction** merges segments whose sizes fall in the
  same power-of-two tier once a tier holds ``tier_fanout`` of them
  (or everything, with ``full=True``).  Merging is a streaming k-way
  merge over segment files — bounded memory at any corpus size — and
  the merged segment keeps global ids stable by adopting the smallest
  constituent ``doc_base``.

A small in-memory *memtable* (a plain :class:`TextIndex`) absorbs
incremental :meth:`SegmentedTextIndex.add` calls and is flushed to a
segment explicitly or when it exceeds ``memtable_limit`` documents.
"""

from __future__ import annotations

import bisect
import heapq
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro import fileio

from .textindex import TextIndex

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
SEGMENT_SUFFIX = ".seg"
TOC_SUFFIX = ".toc"
TOC_SAMPLE_EVERY = 128
DEFAULT_MEMTABLE_LIMIT = 50_000
DEFAULT_TIER_FANOUT = 4


class SegmentError(RuntimeError):
    """A segment store is missing, corrupt, or inconsistently staged."""


@dataclass(frozen=True)
class SegmentInfo:
    """One immutable segment as recorded in the manifest."""

    name: str
    doc_base: int
    doc_count: int
    token_count: int
    size_bytes: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "doc_base": self.doc_base,
            "doc_count": self.doc_count,
            "token_count": self.token_count,
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SegmentInfo":
        return cls(
            name=str(payload["name"]),
            doc_base=int(payload["doc_base"]),
            doc_count=int(payload["doc_count"]),
            token_count=int(payload["token_count"]),
            size_bytes=int(payload["size_bytes"]),
        )


@dataclass(frozen=True)
class CompactionStats:
    """What one :meth:`SegmentedTextIndex.compact` call did."""

    merged_segments: int
    produced_segments: int
    bytes_read: int
    bytes_written: int

    @property
    def compacted(self) -> bool:
        return self.merged_segments > 0


def _write_segment_file(
    path: Path, postings: Iterable[tuple[str, list[int]]]
) -> tuple[int, int, list[tuple[str, int]]]:
    """Write sorted postings lines; return (tokens, bytes, toc samples)."""
    samples: list[tuple[str, int]] = []
    tokens = 0
    offset = 0
    with open(path, "wb") as handle:
        for token, doc_ids in postings:
            if tokens % TOC_SAMPLE_EVERY == 0:
                samples.append((token, offset))
            line = ("%s\t%s\n" % (token, ",".join(map(str, doc_ids)))).encode("utf-8")
            handle.write(line)
            offset += len(line)
            tokens += 1
    return tokens, offset, samples


def _write_toc(path: Path, *, doc_count: int, token_count: int, size_bytes: int, samples: list[tuple[str, int]]) -> None:
    payload = {
        "doc_count": doc_count,
        "token_count": token_count,
        "size_bytes": size_bytes,
        "samples": [[token, offset] for token, offset in samples],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def _split_line(line: bytes) -> tuple[bytes, bytes]:
    """``(token, encoded ids)`` of one postings line, ids still undecoded."""
    token, _, ids = line.rstrip(b"\n").partition(b"\t")
    return token, ids


def _decode_ids(ids: bytes) -> list[int]:
    return [int(part) for part in ids.split(b",")] if ids else []


def _parse_line(line: bytes) -> tuple[str, list[int]]:
    token, ids = _split_line(line)
    return token.decode("utf-8"), _decode_ids(ids)


def write_segment(
    directory: Path, name: str, postings: Iterable[tuple[str, list[int]]], *, doc_count: int
) -> SegmentInfo:
    """Write one immutable segment (+ TOC sidecar) under ``directory``.

    ``postings`` must yield ``(token, sorted local doc ids)`` in
    ascending token order — exactly what
    :meth:`TextIndex.iter_postings` produces.  The segment is *staged*:
    it exists on disk but is not in any manifest until a
    :class:`SegmentedTextIndex` commits it with a ``doc_base``.
    """
    seg_path = directory / (name + SEGMENT_SUFFIX)
    token_count, size_bytes, samples = _write_segment_file(seg_path, postings)
    _write_toc(
        directory / (name + TOC_SUFFIX),
        doc_count=doc_count,
        token_count=token_count,
        size_bytes=size_bytes,
        samples=samples,
    )
    return SegmentInfo(
        name=name,
        doc_base=0,
        doc_count=doc_count,
        token_count=token_count,
        size_bytes=size_bytes,
    )


def segment_from_index(
    directory: Path, name: str, index: TextIndex[int], *, doc_count: int | None = None
) -> SegmentInfo:
    """Stage a segment from an in-memory :class:`TextIndex`.

    This is the per-shard write-ahead path: a parse worker indexes its
    byte-range under local positional ids, dumps the index here, and
    reports only the segment name + record count back to the parent.
    """
    count = index.document_count if doc_count is None else doc_count
    return write_segment(directory, name, index.iter_postings(), doc_count=count)


class _SegmentReader:
    """Seek + scan access to one immutable segment file."""

    def __init__(self, directory: Path, info: SegmentInfo):
        self.info = info
        self._path = directory / (info.name + SEGMENT_SUFFIX)
        toc_path = directory / (info.name + TOC_SUFFIX)
        try:
            payload = json.loads(toc_path.read_text(encoding="utf-8"))
        except FileNotFoundError as error:
            raise SegmentError(f"segment {info.name} has no TOC sidecar") from error
        self._sample_tokens = [str(token) for token, _ in payload["samples"]]
        self._sample_offsets = [int(offset) for _, offset in payload["samples"]]

    def _scan_from(self, token: str) -> Iterator[tuple[bytes, bytes]]:
        """Yield undecoded (token, ids) lines from the sampled block for ``token``.

        Up to :data:`TOC_SAMPLE_EVERY` - 1 lines before the query sort
        first; callers compare tokens as UTF-8 bytes (which order like
        the strings) and decode ids only for the lines they return.
        """
        if not self._sample_tokens:
            return
        slot = bisect.bisect_right(self._sample_tokens, token) - 1
        offset = self._sample_offsets[slot] if slot >= 0 else 0
        with open(self._path, "rb") as handle:
            handle.seek(offset)
            for line in handle:
                yield _split_line(line)

    def lookup(self, token: str) -> list[int]:
        """Local doc ids containing the exact token."""
        wanted = token.encode("utf-8")
        for found, ids in self._scan_from(token):
            if found == wanted:
                return _decode_ids(ids)
            if found > wanted:
                break
        return []

    def lookup_prefix(self, prefix: str) -> set[int]:
        """Local doc ids containing any token starting with ``prefix``."""
        wanted = prefix.encode("utf-8")
        matched: set[int] = set()
        for found, ids in self._scan_from(prefix):
            if found < wanted:
                continue
            if not found.startswith(wanted):
                break
            matched.update(_decode_ids(ids))
        return matched

    def iter_postings(self) -> Iterator[tuple[str, list[int]]]:
        with open(self._path, "rb") as handle:
            for line in handle:
                yield _parse_line(line)


class SegmentedTextIndex:
    """Query-equivalent to :class:`TextIndex`, backed by disk segments.

    Doc ids are non-negative ints.  Query results are global ids —
    identical to what a monolithic ``TextIndex`` over the same
    ``(global_id, text)`` stream would return.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        memtable_limit: int = DEFAULT_MEMTABLE_LIMIT,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._memtable_limit = memtable_limit
        self._memtable: TextIndex[int] = TextIndex()
        self._memtable_base = 0
        self._readers: dict[str, _SegmentReader] = {}
        self._segments: list[SegmentInfo] = []
        self._next_id = 1
        self._load_manifest()
        self._memtable_base = self.document_count

    # ------------------------------------------------------------------
    # manifest

    @property
    def _manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _load_manifest(self) -> None:
        try:
            payload = json.loads(self._manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self._segments = []
            return
        if payload.get("version") != MANIFEST_VERSION:
            raise SegmentError(
                f"manifest version {payload.get('version')!r} unsupported"
            )
        self._segments = [SegmentInfo.from_dict(item) for item in payload["segments"]]
        self._next_id = int(payload.get("next_segment_id", len(self._segments) + 1))

    def _store_manifest(self) -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "next_segment_id": self._next_id,
            "segments": [info.to_dict() for info in self._segments],
        }
        fileio.atomic_write(self._manifest_path, json.dumps(payload, indent=1))

    def _reader(self, info: SegmentInfo) -> _SegmentReader:
        reader = self._readers.get(info.name)
        if reader is None:
            reader = _SegmentReader(self.root, info)
            self._readers[info.name] = reader
        return reader

    def next_segment_name(self) -> str:
        """Mint a fresh segment name from the persistent id counter."""
        name = f"seg-{self._next_id:06d}"
        self._next_id += 1
        return name

    def reserve_segment_names(self, count: int, *, prefix: str = "wal") -> list[str]:
        """Mint ``count`` fresh staged-segment names in one block.

        Names come from the same persistent id counter as
        :meth:`next_segment_name`, so staged write-ahead segments can
        never collide with segments already committed to the manifest —
        re-running a parse against an existing index *extends* it
        instead of silently clobbering earlier runs' postings.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        names = [f"{prefix}-{self._next_id + offset:06d}" for offset in range(count)]
        self._next_id += count
        return names

    # ------------------------------------------------------------------
    # write path

    @property
    def document_count(self) -> int:
        """Distinct documents across segments + memtable."""
        return (
            sum(info.doc_count for info in self._segments)
            + self._memtable.document_count
        )

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def segments(self) -> list[SegmentInfo]:
        return list(self._segments)

    def add(self, text: str) -> int:
        """Index one document under the next global id; return that id.

        The document lands in the memtable; once ``memtable_limit``
        documents accumulate the memtable is flushed to a segment.
        """
        local = self._memtable.document_count
        self._memtable.add(local, text)
        global_id = self._memtable_base + local
        if self._memtable.document_count >= self._memtable_limit:
            self.flush()
        return global_id

    def flush(self) -> SegmentInfo | None:
        """Flush the memtable to an immutable segment (no-op if empty)."""
        if self._memtable.document_count == 0:
            return None
        name = self.next_segment_name()
        info = segment_from_index(self.root, name, self._memtable)
        # Clear the memtable before committing: commit_segments refuses
        # to run with memtable documents (their global ids would shift).
        # The staged segment's doc_base lands exactly at the old
        # memtable base, so every id handed out by add() is preserved.
        self._memtable = TextIndex()
        return self.commit_segments([info.name])[0]

    def commit_segments(self, names: list[str]) -> list[SegmentInfo]:
        """Attach staged segments to the manifest **in the given order**.

        Each segment's ``doc_base`` is assigned cumulatively — this is
        the point where per-shard local ids become a single global id
        space.  The commit is atomic: one manifest replace covers all
        names.

        Raises :class:`SegmentError` if the memtable holds documents
        (committing would shift the global ids :meth:`add` already
        returned — call :meth:`flush` first) or if a name is already in
        the manifest (committing it again would re-read the same file
        under two doc bases).
        """
        if self._memtable.document_count:
            raise SegmentError(
                "cannot commit segments while the memtable holds "
                f"{self._memtable.document_count} document(s); flush() first"
            )
        existing = {info.name for info in self._segments}
        for name in names:
            if name in existing:
                raise SegmentError(f"segment {name} is already committed")
            existing.add(name)
        committed: list[SegmentInfo] = []
        base = sum(info.doc_count for info in self._segments)
        for name in names:
            toc_path = self.root / (name + TOC_SUFFIX)
            try:
                payload = json.loads(toc_path.read_text(encoding="utf-8"))
            except FileNotFoundError as error:
                raise SegmentError(f"staged segment {name} not found") from error
            info = SegmentInfo(
                name=name,
                doc_base=base,
                doc_count=int(payload["doc_count"]),
                token_count=int(payload["token_count"]),
                size_bytes=int(payload["size_bytes"]),
            )
            committed.append(info)
            base += info.doc_count
        self._segments.extend(committed)
        self._next_id = max(
            self._next_id,
            1 + max(
                (int(info.name.rsplit("-", 1)[-1])
                 for info in self._segments
                 if info.name.rsplit("-", 1)[-1].isdigit()),
                default=0,
            ),
        )
        self._store_manifest()
        self._memtable_base = self.document_count
        return committed

    # ------------------------------------------------------------------
    # query path (mirrors TextIndex)

    def lookup(self, token: str) -> set[int]:
        """Global doc ids containing the exact token."""
        token = token.lower()
        matched: set[int] = set()
        for info in self._segments:
            reader = self._reader(info)
            for local in reader.lookup(token):
                matched.add(info.doc_base + local)
        for local in self._memtable.lookup(token):
            matched.add(self._memtable_base + local)
        return matched

    def lookup_prefix(self, prefix: str) -> set[int]:
        """Global doc ids containing any token starting with ``prefix``."""
        prefix = prefix.lower()
        matched: set[int] = set()
        for info in self._segments:
            reader = self._reader(info)
            for local in reader.lookup_prefix(prefix):
                matched.add(info.doc_base + local)
        for local in self._memtable.lookup_prefix(prefix):
            matched.add(self._memtable_base + local)
        return matched

    def search_any(self, keywords: Iterable[str], *, prefix: bool = True) -> set[int]:
        """Documents matching any keyword (prefix semantics by default)."""
        matched: set[int] = set()
        for keyword in keywords:
            matched |= self.lookup_prefix(keyword) if prefix else self.lookup(keyword)
        return matched

    def search_all(self, keywords: Iterable[str], *, prefix: bool = True) -> set[int]:
        """Documents matching every keyword."""
        result: set[int] | None = None
        for keyword in keywords:
            hits = self.lookup_prefix(keyword) if prefix else self.lookup(keyword)
            result = hits if result is None else (result & hits)
            if not result:
                return set()
        return result or set()

    def iter_postings(self) -> Iterator[tuple[str, list[int]]]:
        """Global ``(token, sorted doc ids)`` pairs, k-way merged."""

        def rebased(
            postings: Iterable[tuple[str, list[int]]], base: int
        ) -> Iterator[tuple[str, list[int]]]:
            for token, ids in postings:
                yield token, [base + local for local in ids]

        sources: list[Iterator[tuple[str, list[int]]]] = []
        for info in self._segments:
            sources.append(
                rebased(self._reader(info).iter_postings(), info.doc_base)
            )
        if self._memtable.document_count:
            sources.append(
                rebased(self._memtable.iter_postings(), self._memtable_base)
            )
        merged = heapq.merge(*sources, key=lambda item: item[0])
        current: str | None = None
        bucket: list[int] = []
        for token, ids in merged:
            if token != current:
                if current is not None:
                    yield current, sorted(set(bucket))
                current, bucket = token, []
            bucket.extend(ids)
        if current is not None:
            yield current, sorted(set(bucket))

    # ------------------------------------------------------------------
    # compaction

    def _merge_to_segment(self, group: list[SegmentInfo]) -> tuple[SegmentInfo, int]:
        """K-way merge ``group`` into one staged segment; return (info, bytes read)."""
        new_base = min(info.doc_base for info in group)

        def rebased(info: SegmentInfo) -> Iterator[tuple[str, list[int]]]:
            shift = info.doc_base - new_base
            for token, ids in self._reader(info).iter_postings():
                yield token, [shift + local for local in ids]

        merged = heapq.merge(
            *(rebased(info) for info in group), key=lambda item: item[0]
        )

        def coalesced() -> Iterator[tuple[str, list[int]]]:
            current: str | None = None
            bucket: list[int] = []
            for token, ids in merged:
                if token != current:
                    if current is not None:
                        yield current, sorted(set(bucket))
                    current, bucket = token, []
                bucket.extend(ids)
            if current is not None:
                yield current, sorted(set(bucket))

        name = self.next_segment_name()
        doc_count = sum(info.doc_count for info in group)
        staged = write_segment(self.root, name, coalesced(), doc_count=doc_count)
        info = SegmentInfo(
            name=staged.name,
            doc_base=new_base,
            doc_count=doc_count,
            token_count=staged.token_count,
            size_bytes=staged.size_bytes,
        )
        return info, sum(item.size_bytes for item in group)

    def _replace_segments(self, group: list[SegmentInfo], merged: SegmentInfo) -> None:
        names = {info.name for info in group}
        remaining = [info for info in self._segments if info.name not in names]
        remaining.append(merged)
        remaining.sort(key=lambda info: info.doc_base)
        self._segments = remaining
        self._store_manifest()
        for info in group:
            self._readers.pop(info.name, None)
            for suffix in (SEGMENT_SUFFIX, TOC_SUFFIX):
                try:
                    os.unlink(self.root / (info.name + suffix))
                except FileNotFoundError:
                    pass

    def compaction_candidates(
        self, *, tier_fanout: int = DEFAULT_TIER_FANOUT
    ) -> list[list[SegmentInfo]]:
        """Size tiers holding >= ``tier_fanout`` segments (smallest first)."""
        tiers: dict[int, list[SegmentInfo]] = {}
        for info in self._segments:
            tiers.setdefault(max(info.size_bytes, 1).bit_length(), []).append(info)
        return [
            group
            for _, group in sorted(tiers.items())
            if len(group) >= tier_fanout
        ]

    def compact(
        self, *, full: bool = False, tier_fanout: int = DEFAULT_TIER_FANOUT
    ) -> CompactionStats:
        """Merge segments per the size-tiered policy (or all, if ``full``).

        Runs the policy to a fixed point: merging a tier produces a
        larger segment that may itself complete a higher tier.  The
        memtable is flushed first so compaction covers every document.
        """
        self.flush()
        merged_total = 0
        produced = 0
        bytes_read = 0
        bytes_written = 0
        if full:
            if len(self._segments) > 1:
                group = list(self._segments)
                info, read = self._merge_to_segment(group)
                self._replace_segments(group, info)
                merged_total += len(group)
                produced += 1
                bytes_read += read
                bytes_written += info.size_bytes
        else:
            while True:
                candidates = self.compaction_candidates(tier_fanout=tier_fanout)
                if not candidates:
                    break
                group = candidates[0]
                info, read = self._merge_to_segment(group)
                self._replace_segments(group, info)
                merged_total += len(group)
                produced += 1
                bytes_read += read
                bytes_written += info.size_bytes
        return CompactionStats(
            merged_segments=merged_total,
            produced_segments=produced,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
        )

    # ------------------------------------------------------------------
    # status

    def status(self) -> dict:
        """Summary for ``repro index status`` (JSON-safe)."""
        return {
            "root": str(self.root),
            "documents": self.document_count,
            "segments": [info.to_dict() for info in self._segments],
            "segment_count": len(self._segments),
            "size_bytes": sum(info.size_bytes for info in self._segments),
            "memtable_documents": self._memtable.document_count,
            "compaction_candidates": [
                [info.name for info in group]
                for group in self.compaction_candidates()
            ],
        }


def segmented_equal_to_monolithic(
    segmented: SegmentedTextIndex,
    monolithic: TextIndex[int],
    *,
    probes: Iterable[str],
    prefix: bool = True,
    on_mismatch: Callable[[str], None] | None = None,
) -> bool:
    """True when every probe keyword returns identical doc-id sets.

    The equivalence check used by tests and the scale benchmark: the
    segmented index must answer exactly like the monolithic one for
    every probe (prefix semantics by default, matching the mining
    keyword filter).
    """
    equal = True
    for keyword in probes:
        seg_hits = (
            segmented.lookup_prefix(keyword) if prefix else segmented.lookup(keyword)
        )
        mono_hits = (
            monolithic.lookup_prefix(keyword) if prefix else monolithic.lookup(keyword)
        )
        if seg_hits != mono_hits:
            equal = False
            if on_mismatch is not None:
                on_mismatch(keyword)
    return equal
