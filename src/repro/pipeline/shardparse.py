"""Parallel sharded archive parsing on the repro.harness worker pool.

The splitters in :mod:`repro.bugdb` cut an archive into per-record
chunks with one cheap boundary scan; this module shards those chunks
contiguously and parses the shards on the fork-based
:class:`~repro.harness.pool.WorkerPool`.  Results are reassembled in
submission order (keyed by work-unit content hash), so the record list
is bit-identical to the serial ``parse_archive`` path for any worker
count -- sharding can reorder *completion*, never *output*.

When the format defines :attr:`~repro.pipeline.formats.ArchiveFormat.
index_text`, every shard also builds a partial inverted index over its
records (keyed by global archive position) as a parse by-product; the
partials merge into one :class:`~repro.bugdb.textindex.TextIndex`
identical to indexing the archive serially.  This is what makes the
index-backed keyword prefilter effectively free on the parallel path.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.bugdb.segments import SegmentedTextIndex, segment_from_index
from repro.bugdb.textindex import TextIndex
from repro.harness.pool import UnitExecution, WorkerPool
from repro.harness.shard import assemble_results, shard_count_for, shard_units
from repro.harness.workunit import WorkUnit
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.formats import ArchiveFormat
from repro.pipeline.streamsplit import (
    DEFAULT_MAX_SHARD_BYTES,
    ByteRange,
    format_byte_ranges,
    read_range,
)

#: Work-unit kind for parse shards (appears in unit keys and telemetry).
KIND_PARSE_SHARD = "parse-shard"

#: Work-unit kind for streaming byte-range shards.
KIND_STREAM_SHARD = "stream-shard"


@dataclasses.dataclass
class ParsedArchive:
    """The outcome of parsing one archive.

    Attributes:
        records: parsed records in archive order (identical to the
            serial ``parse_archive`` output for any worker count).
        index: merged positional inverted index over the records, when
            the format defines ``index_text``; None otherwise.
        shards: number of shards the parse ran in (1 on the serial path).
        workers: worker processes requested.
        worker_pids: distinct process ids that executed shards.
        wall_seconds: end-to-end parse wall time.
    """

    records: list[Any]
    index: TextIndex | None
    shards: int
    workers: int
    worker_pids: tuple[int, ...]
    wall_seconds: float

    @property
    def shard_utilization(self) -> float:
        """Fraction of usable workers that actually executed shards."""
        usable = max(1, min(self.workers, self.shards))
        return len(self.worker_pids) / usable


def _build_partial_index(
    fmt: ArchiveFormat, records: list[Any], start: int
) -> TextIndex | None:
    if fmt.index_text is None:
        return None
    index: TextIndex = TextIndex()
    for offset, record in enumerate(records):
        index.add(start + offset, fmt.index_text(record))
    return index


def _parse_shard_runner(unit: WorkUnit, context: Any) -> dict[str, Any]:
    """Parse one shard of chunks (worker side).

    The chunk shards travel to workers through fork inheritance (the
    pool's context), not pickling, so the archive text is never copied
    through the result queue; only parsed records come back.
    """
    fmt, shards = context
    params = unit.params_dict()
    chunks = shards[params["shard"]]
    records = [fmt.parse_record(chunk) for chunk in chunks]
    return {
        "records": records,
        "index": _build_partial_index(fmt, records, params["start"]),
    }


def parse_archive_sharded(
    fmt: ArchiveFormat,
    text: str,
    *,
    workers: int = 1,
    telemetry: MetricsRegistry | None = None,
) -> ParsedArchive:
    """Parse an archive, in parallel shards when ``workers > 1``.

    Args:
        fmt: the archive's format descriptor.
        text: raw archive text.
        workers: worker processes; 1 (or a platform without fork)
            selects the serial reference path.
        telemetry: optional sink for parse timers/counters/gauges.

    The record list (and merged index) is identical to the serial path
    for any worker count.
    """
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    with obs.span(
        f"parse:{fmt.application.value}", workers=max(1, workers)
    ) as parse_span:
        started = time.monotonic()
        chunks = fmt.split(text)
        telemetry.observe("parse.split", time.monotonic() - started)
        telemetry.count("parse.chunks", len(chunks))
        parse_span.set(chunks=len(chunks))

        pool = WorkerPool(max(1, workers))
        if not pool.parallel or len(chunks) < 2:
            records = [fmt.parse_record(chunk) for chunk in chunks]
            index = _build_partial_index(fmt, records, 0)
            wall = time.monotonic() - started
            telemetry.observe("parse.wall", wall)
            telemetry.gauge("parse.shards", 1)
            telemetry.gauge("parse.worker_processes", 1)
            telemetry.gauge("parse.shard_utilization", 1.0)
            parse_span.set(shards=1)
            return ParsedArchive(
                records=records,
                index=index,
                shards=1,
                workers=pool.workers,
                worker_pids=(os.getpid(),),
                wall_seconds=wall,
            )

        shards = shard_units(chunks, shard_count_for(len(chunks), pool.workers))
        starts, offset = [], 0
        for shard in shards:
            starts.append(offset)
            offset += len(shard)
        units = [
            WorkUnit.build(
                KIND_PARSE_SHARD,
                f"{fmt.application.value}:shard{position:05d}",
                params={
                    "shard": position,
                    "start": starts[position],
                    "chunks": len(shard),
                },
            )
            for position, shard in enumerate(shards)
        ]

        executions: dict[str, UnitExecution] = {}

        def on_unit(execution: UnitExecution) -> None:
            executions[execution.key] = execution
            telemetry.observe("parse.shard.wall", execution.wall_seconds)
            telemetry.observe("parse.shard.queue", execution.queue_seconds)

        pool.execute(units, _parse_shard_runner, (fmt, shards), on_unit=on_unit)
        ordered = assemble_results(units, executions)

        with obs.span("parse:merge", shards=len(shards)):
            records = []
            index = TextIndex() if fmt.index_text is not None else None
            for execution in ordered:
                records.extend(execution.result["records"])
                if index is not None:
                    index.merge(execution.result["index"])

        pids = tuple(sorted({execution.worker_pid for execution in ordered}))
        wall = time.monotonic() - started
        telemetry.observe("parse.wall", wall)
        telemetry.gauge("parse.shards", len(shards))
        telemetry.gauge("parse.worker_processes", len(pids))
        parse_span.set(shards=len(shards))
        parsed = ParsedArchive(
            records=records,
            index=index,
            shards=len(shards),
            workers=pool.workers,
            worker_pids=pids,
            wall_seconds=wall,
        )
        telemetry.gauge("parse.shard_utilization", parsed.shard_utilization)
        return parsed


@dataclasses.dataclass
class StreamedParse:
    """The outcome of streaming one archive file through the parser.

    Unlike :class:`ParsedArchive`, records are **not retained** unless
    asked for: the streaming path exists so that multi-GB archives parse
    and index with memory bounded by ``max_shard_bytes``, independent of
    corpus size.

    Attributes:
        record_count: records parsed across all byte-ranges.
        bytes_total: archive bytes consumed.
        ranges: shard byte-ranges the file was cut into.
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


def _stream_shard_runner(unit: WorkUnit, context: Any) -> dict[str, Any]:
    """Parse one byte-range (worker side).

    Workers read their own range straight from the file — the archive
    text never crosses the fork or the result queue.  When indexing,
    the worker writes a staged write-ahead segment under local ids and
    sends back only its name; the parent later assigns doc bases by
    committing segments in range order.
    """
    fmt, path, ranges, index_root, wal_names, keep_records = context
    params = unit.params_dict()
    position = params["range"]
    byte_range = ranges[position]
    records = [fmt.parse_record(chunk) for chunk in fmt.split(read_range(path, byte_range))]
    segment = None
    if index_root is not None:
        segment = _index_range_records(fmt, records, index_root, wal_names[position])
    return {
        "count": len(records),
        "segment": segment,
        "records": records if keep_records else None,
    }


def parse_archive_streamed(
    fmt: ArchiveFormat,
    path: str | os.PathLike,
    *,
    max_shard_bytes: int = DEFAULT_MAX_SHARD_BYTES,
    workers: int = 1,
    telemetry: MetricsRegistry | None = None,
    index_dir: str | os.PathLike | None = None,
    keep_records: bool = False,
    consumer: Callable[[int, list[Any]], None] | None = None,
) -> StreamedParse:
    """Parse an archive **file** in byte-range shards with bounded memory.

    Shards are record-aligned byte-ranges of at most ``max_shard_bytes``
    (see :mod:`repro.pipeline.streamsplit`); each is read, split, and
    parsed independently, so peak memory tracks the shard budget — not
    the archive.  With ``index_dir`` (requires the format to define
    ``index_text``), every shard stages a write-ahead index segment and
    the parent commits them in range order: the resulting
    :class:`SegmentedTextIndex` is query-identical to indexing the whole
    archive serially under global positional ids.

    ``consumer(range_index, records)`` receives each range's records in
    archive order.  On the serial path records stream straight to the
    consumer and are dropped; with ``workers > 1`` records return
    through the result queue first (use serial streaming when the
    archive is too large to rematerialize).  ``keep_records=True``
    additionally retains the full record list on the result.
    """
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    path = Path(path)
    if index_dir is not None and fmt.index_text is None:
        raise ValueError(
            f"format {fmt.application.value} defines no index_text; "
            "cannot build a segmented index"
        )
    index = SegmentedTextIndex(index_dir) if index_dir is not None else None
    index_root = index.root if index is not None else None

    with obs.span(
        f"stream:parse:{fmt.application.value}", workers=max(1, workers)
    ) as stream_span:
        started = time.monotonic()
        with telemetry.timed("stream.split"):
            ranges = format_byte_ranges(fmt, path, max_shard_bytes=max_shard_bytes)
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
        wal_names = index.reserve_segment_names(len(ranges)) if index is not None else []
        segment_names: list[str] = []
        record_count = 0

        if not pool.parallel or len(ranges) < 2:
            for position, byte_range in enumerate(ranges):
                with telemetry.timed("stream.range.wall"):
                    records = [
                        fmt.parse_record(chunk)
                        for chunk in fmt.split(read_range(path, byte_range))
                    ]
                    if index_root is not None:
                        name = _index_range_records(
                            fmt, records, index_root, wal_names[position]
                        )
                        if name is not None:
                            segment_names.append(name)
                record_count += len(records)
                if consumer is not None:
                    consumer(position, records)
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
                (
                    fmt,
                    path,
                    ranges,
                    index_root,
                    wal_names,
                    keep_records or consumer is not None,
                ),
                on_unit=on_unit,
            )
            ordered = assemble_results(units, executions)
            for position, execution in enumerate(ordered):
                result = execution.result
                record_count += result["count"]
                if result["segment"] is not None:
                    segment_names.append(result["segment"])
                if consumer is not None:
                    consumer(position, result["records"] or [])
                if kept is not None:
                    kept.extend(result["records"] or [])
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
