"""The archive parse driver: record-aligned byte ranges on the worker pool.

An archive -- a file path, or its UTF-8 bytes already in memory (see
:data:`~repro.pipeline.streamsplit.ArchiveSource`) -- is cut into
record-aligned byte ranges of at most ``max_shard_bytes``
(:mod:`repro.pipeline.streamsplit`); each range is read, split, and
parsed on its own, serially or on the fork-based
:class:`~repro.harness.pool.WorkerPool`.  Results are reassembled in
range order (keyed by work-unit content hash), so the record list is
identical to the serial ``fmt.parse`` reference for any worker count and
shard budget -- sharding can reorder *completion*, never *output*.

With ``index_dir``, every range also stages a write-ahead segment of an
LSM-style :class:`~repro.bugdb.segments.SegmentedTextIndex` as a parse
by-product.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Any

from repro import obs
from repro.bugdb.segments import SegmentedTextIndex, segment_from_index
from repro.bugdb.textindex import TextIndex
from repro.harness.pool import UnitExecution, WorkerPool
from repro.harness.shard import assemble_results
from repro.harness.workunit import WorkUnit
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.formats import ArchiveFormat
from repro.pipeline.streamsplit import (
    DEFAULT_MAX_SHARD_BYTES,
    ArchiveSource,
    ByteRange,
    format_byte_ranges,
    read_range,
)

#: Work-unit kind for byte-range shards (appears in unit keys and telemetry).
KIND_STREAM_SHARD = "stream-shard"


@dataclasses.dataclass
class StreamedParse:
    """The outcome of streaming one archive through the parser.

    Records are **not retained** unless asked for, so multi-GB archive
    files parse and index with memory bounded by ``max_shard_bytes``,
    independent of corpus size.

    Attributes:
        record_count: records parsed across all byte-ranges.
        bytes_total: archive bytes consumed.
        ranges: shard byte-ranges the archive was cut into.
        shards: number of ranges (== ``len(ranges)``).
        workers: worker processes requested.
        worker_pids: distinct process ids that executed ranges.
        wall_seconds: end-to-end wall time.
        index: the :class:`~repro.bugdb.segments.SegmentedTextIndex`
            the parse appended write-ahead segments to, when an
            ``index_dir`` was given; None otherwise.
        records: parsed records in archive order when
            ``keep_records=True`` (byte-identical to the serial
            reference path); None otherwise.
    """

    record_count: int
    bytes_total: int
    ranges: list[ByteRange]
    workers: int
    worker_pids: tuple[int, ...]
    wall_seconds: float
    index: SegmentedTextIndex | None
    records: list[Any] | None

    @property
    def shards(self) -> int:
        return len(self.ranges)

    @property
    def mb_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.bytes_total / (1024 * 1024) / self.wall_seconds

    @property
    def records_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.record_count / self.wall_seconds


def _index_range_records(
    fmt: ArchiveFormat, records: list[Any], index_root: Path, name: str
) -> str | None:
    """Stage one write-ahead segment for a range's records (local ids).

    ``name`` must come from
    :meth:`SegmentedTextIndex.reserve_segment_names` so a re-run against
    an existing index never clobbers previously committed segments.
    """
    if not records:
        return None
    partial: TextIndex[int] = TextIndex()
    for local, record in enumerate(records):
        partial.add(local, fmt.index_text(record))
    segment_from_index(index_root, name, partial)
    return name


def _parse_range(
    fmt: ArchiveFormat,
    source: ArchiveSource,
    byte_range: ByteRange,
    index_root: Path | None,
    wal_name: str | None,
) -> tuple[list[Any], str | None]:
    """Parse one byte-range; stage its index segment when indexing."""
    records = [
        fmt.parse_record(chunk) for chunk in fmt.split(read_range(source, byte_range))
    ]
    if index_root is None:
        return records, None
    return records, _index_range_records(fmt, records, index_root, wal_name)


def _stream_shard_runner(unit: WorkUnit, context: Any) -> dict[str, Any]:
    """Parse one byte-range (worker side).

    Workers read their own range from the source -- a file, or the
    in-memory bytes inherited through the fork -- so archive text never
    crosses the result queue.  When indexing, the worker writes a staged
    write-ahead segment under local ids and sends back only its name;
    the parent later assigns doc bases by committing segments in range
    order.
    """
    fmt, source, ranges, index_root, wal_names, keep_records = context
    position = unit.params_dict()["range"]
    records, segment = _parse_range(
        fmt, source, ranges[position], index_root, wal_names[position]
    )
    return {
        "count": len(records),
        "segment": segment,
        "records": records if keep_records else None,
    }


def check_index_dir(fmt: ArchiveFormat, index_dir: str | os.PathLike | None) -> None:
    """Reject ``index_dir`` for a format without ``index_text``.

    Callers that open the index before parsing (which creates its
    directory) check first, so a rejected request leaves nothing behind.

    Raises:
        ValueError: ``index_dir`` given for a format that cannot index.
    """
    if index_dir is not None and fmt.index_text is None:
        raise ValueError(
            f"format {fmt.application.value} defines no index_text; "
            "cannot build a segmented index"
        )


def parse_archive_streamed(
    fmt: ArchiveFormat,
    source: ArchiveSource,
    *,
    max_shard_bytes: int = DEFAULT_MAX_SHARD_BYTES,
    workers: int = 1,
    telemetry: MetricsRegistry | None = None,
    index_dir: str | os.PathLike | None = None,
    keep_records: bool = False,
) -> StreamedParse:
    """Parse an archive in byte-range shards with bounded memory.

    ``source`` is a file path or the archive's UTF-8 bytes; the same
    bytes give the same ranges and records either way.  Shards are
    record-aligned byte-ranges of at most ``max_shard_bytes`` (see
    :mod:`repro.pipeline.streamsplit`); each is read, split, and parsed
    independently, so for a file peak memory tracks the shard budget --
    not the archive.  With ``index_dir`` (requires the format to define
    ``index_text``), every shard stages a write-ahead index segment and
    the parent commits them in range order: the resulting
    :class:`SegmentedTextIndex` is query-identical to indexing the whole
    archive serially under global positional ids.  ``keep_records=True``
    retains the full record list on the result, in archive order.
    """
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    check_index_dir(fmt, index_dir)
    index = SegmentedTextIndex(index_dir) if index_dir is not None else None
    index_root = index.root if index is not None else None

    with obs.span(
        f"stream:parse:{fmt.application.value}", workers=max(1, workers)
    ) as stream_span:
        started = time.monotonic()
        with telemetry.timed("stream.split"):
            ranges = format_byte_ranges(fmt, source, max_shard_bytes=max_shard_bytes)
        bytes_total = sum(byte_range.size for byte_range in ranges)
        telemetry.count("stream.ranges", len(ranges))
        telemetry.count("stream.bytes", bytes_total)
        stream_span.set(ranges=len(ranges), bytes=bytes_total)

        pool = WorkerPool(max(1, workers))
        kept: list[Any] | None = [] if keep_records else None
        # Reserve one staged-segment name per range up front: names come
        # from the index's persistent id counter, so a second run against
        # the same index_dir appends new segments instead of overwriting
        # the earlier run's wal-*.seg files.
        wal_names = (
            index.reserve_segment_names(len(ranges))
            if index is not None
            else [None] * len(ranges)
        )
        segment_names: list[str] = []
        record_count = 0

        if not pool.parallel or len(ranges) < 2:
            for position, byte_range in enumerate(ranges):
                with telemetry.timed("stream.range.wall"):
                    records, segment = _parse_range(
                        fmt, source, byte_range, index_root, wal_names[position]
                    )
                if segment is not None:
                    segment_names.append(segment)
                record_count += len(records)
                if kept is not None:
                    kept.extend(records)
            pids: tuple[int, ...] = (os.getpid(),)
        else:
            units = [
                WorkUnit.build(
                    KIND_STREAM_SHARD,
                    f"{fmt.application.value}:range{position:06d}",
                    params={
                        "range": position,
                        "start": byte_range.start,
                        "end": byte_range.end,
                    },
                )
                for position, byte_range in enumerate(ranges)
            ]
            executions: dict[str, UnitExecution] = {}

            def on_unit(execution: UnitExecution) -> None:
                executions[execution.key] = execution
                telemetry.observe("stream.range.wall", execution.wall_seconds)
                telemetry.observe("stream.range.queue", execution.queue_seconds)

            pool.execute(
                units,
                _stream_shard_runner,
                (fmt, source, ranges, index_root, wal_names, keep_records),
                on_unit=on_unit,
            )
            ordered = assemble_results(units, executions)
            for execution in ordered:
                result = execution.result
                record_count += result["count"]
                if result["segment"] is not None:
                    segment_names.append(result["segment"])
                if kept is not None:
                    kept.extend(result["records"])
            pids = tuple(sorted({execution.worker_pid for execution in ordered}))

        if index is not None and segment_names:
            with obs.span("stream:commit", segments=len(segment_names)):
                index.commit_segments(segment_names)

        wall = time.monotonic() - started
        telemetry.observe("stream.wall", wall)
        telemetry.count("stream.records", record_count)
        telemetry.gauge("stream.worker_processes", len(pids))
        stream_span.set(records=record_count, shards=len(ranges))
        return StreamedParse(
            record_count=record_count,
            bytes_total=bytes_total,
            ranges=ranges,
            workers=pool.workers,
            worker_pids=pids,
            wall_seconds=wall,
            index=index,
            records=kept,
        )
