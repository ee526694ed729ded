"""Byte-offset record boundaries for streaming archive ingestion.

The in-memory splitters in :mod:`repro.bugdb` need the whole archive as
one ``str``; at 1M+ reports (multi-GB) that alone blows the memory
budget.  This module finds the same record boundaries **as byte
offsets**, scanning block-by-block with bounded memory, and cuts the
archive into *shard byte-ranges* that each start exactly on a record
boundary.

An archive source is either a file path or the archive's UTF-8 bytes
already in memory (:data:`ArchiveSource`); the same bytes give the same
ranges either way, so in-memory text is just another source for the
one streamed parser in :mod:`repro.pipeline.shardparse`.

The equivalence contract (asserted in tests on the full 44k archives):
for any ``max_shard_bytes``, reading each range, splitting it with the
format's in-memory splitter, and concatenating the per-range record
lists yields records byte-identical to splitting the whole archive in
memory.  That holds because:

* gnats/debbugs split on a **substring marker** (``"="*72`` /
  ``"\\x0c"``) with ``str.split`` semantics — left-to-right,
  non-overlapping.  :func:`iter_cut_points` reproduces exactly those
  occurrences (it advances past each match), and a range starting at a
  marker splits into a leading empty block that the splitter's
  strip-and-filter drops, just as it drops the empty block between
  adjacent separators in the whole text.
* mbox splits on a **line-anchored marker** (``^From ``).  Ranges cut
  at boundary offsets start at a line start, so the range-local
  ``^From `` scan finds precisely the whole-text boundaries; the
  preamble check only ever sees real content in the first range.

Markers are ASCII, and UTF-8 is self-synchronizing, so byte offsets of
marker occurrences always fall on character boundaries — each range
decodes independently.
"""

from __future__ import annotations

import dataclasses
import io
import os
from typing import Any, BinaryIO, Iterator, Union

DEFAULT_BLOCK_SIZE = 1 << 20
DEFAULT_MAX_SHARD_BYTES = 8 << 20

#: An archive file path, or the archive's UTF-8 encoded bytes in memory.
ArchiveSource = Union[str, os.PathLike, bytes]


@dataclasses.dataclass(frozen=True)
class ByteRange:
    """One shard byte-range, cut on a record boundary."""

    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


def iter_cut_points(
    handle: BinaryIO,
    marker: bytes,
    *,
    line_anchored: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[int]:
    """Absolute byte offsets of record-boundary marker occurrences.

    Substring mode reproduces ``str.split`` semantics (left-to-right,
    non-overlapping: the scan resumes *after* each match).  With
    ``line_anchored`` a match only counts at offset 0 or right after a
    newline (``re.MULTILINE`` ``^`` semantics).  The scan holds one
    block plus a marker-sized carry — memory is O(block_size)
    regardless of file size.
    """
    if not marker:
        raise ValueError("marker must be non-empty")
    marker_len = len(marker)
    anchor = 1 if line_anchored else 0
    buffer = b""
    base = 0  # absolute offset of buffer[0]
    scan = 0  # next in-buffer scan position
    while True:
        block = handle.read(block_size)
        if not block:
            return
        buffer += block
        while True:
            found = buffer.find(marker, scan)
            if found < 0:
                break
            absolute = base + found
            if line_anchored and absolute != 0 and buffer[found - 1 : found] != b"\n":
                scan = found + 1
                continue
            yield absolute
            scan = found + marker_len
        # Keep the unsearchable tail (a marker may straddle blocks) and,
        # when line-anchored, one extra byte for the newline check.
        tail_start = max(scan - anchor, len(buffer) - (marker_len - 1) - anchor)
        if tail_start > 0:
            buffer = buffer[tail_start:]
            base += tail_start
            scan = max(scan - tail_start, 0)


def shard_byte_ranges(
    source: ArchiveSource,
    marker: bytes,
    *,
    line_anchored: bool = False,
    max_shard_bytes: int = DEFAULT_MAX_SHARD_BYTES,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[ByteRange]:
    """Cut an archive into record-aligned ranges of at most ``max_shard_bytes``.

    Every range starts at byte 0 or at a boundary marker offset, so each
    can be read, decoded, and split independently.  A range only exceeds
    ``max_shard_bytes`` when a *single record* does — records are never
    split mid-body.
    """
    if max_shard_bytes <= 0:
        raise ValueError("max_shard_bytes must be positive")
    if isinstance(source, bytes):
        total, handle = len(source), io.BytesIO(source)
    else:
        total, handle = os.path.getsize(source), open(source, "rb")
    ranges: list[ByteRange] = []
    start = 0
    pending: int | None = None  # last cut seen after `start`, not yet closed on
    with handle:
        for cut in iter_cut_points(
            handle, marker, line_anchored=line_anchored, block_size=block_size
        ):
            if cut <= start:
                continue
            if cut - start > max_shard_bytes:
                if pending is not None:
                    ranges.append(ByteRange(start, pending))
                    start = pending
                    pending = None
                if cut - start > max_shard_bytes:
                    # A single oversized record (or head) gets its own range.
                    ranges.append(ByteRange(start, cut))
                    start = cut
                    continue
            pending = cut
    if total > start:
        if pending is not None and total - start > max_shard_bytes:
            # Close at the last boundary first so only a single
            # oversized tail record can ever exceed the budget.
            ranges.append(ByteRange(start, pending))
            start = pending
        ranges.append(ByteRange(start, total))
    return ranges


def read_range(source: ArchiveSource, byte_range: ByteRange) -> str:
    """Read and decode one shard byte-range."""
    if isinstance(source, bytes):
        payload = source[byte_range.start : byte_range.end]
    else:
        with open(source, "rb") as handle:
            handle.seek(byte_range.start)
            payload = handle.read(byte_range.size)
    return payload.decode("utf-8")


def format_byte_ranges(
    fmt: Any,
    source: ArchiveSource,
    *,
    max_shard_bytes: int = DEFAULT_MAX_SHARD_BYTES,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[ByteRange]:
    """Shard byte-ranges for a format that declares a boundary marker."""
    if fmt.boundary_marker is None:
        raise ValueError(
            f"format {fmt.application.value} declares no record-boundary marker"
        )
    return shard_byte_ranges(
        source,
        fmt.boundary_marker.encode("utf-8"),
        line_anchored=fmt.boundary_line_anchored,
        max_shard_bytes=max_shard_bytes,
        block_size=block_size,
    )
