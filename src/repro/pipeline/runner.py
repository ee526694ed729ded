"""The end-to-end fast archive path: render -> parse -> mine, cached.

:func:`mine_archive_text` (raw archive text) and
:func:`mine_archive_file` (an archive file) return the mined study set
exactly as the serial ``fmt.parse`` + ``mine_*`` path would.  Both parse
through the one driver,
:func:`~repro.pipeline.shardparse.parse_archive_streamed` -- text as its
encoded bytes, a file by path, cut into the same record-aligned byte
ranges -- and both supply a digest and that parse call to one cached
parse -> mine body, the only reader and writer of the ``parse.*`` and
``mine.*`` cache entries, which short-circuits when the same bytes were
mined before.  :func:`mine_application` is the render-first convenience
used by the CLI and benchmarks.

Equivalence contract: for every application, any worker count, and any
cache state, the returned :class:`~repro.mining.pipeline.MiningResult`
(items and narrowing trace) is identical to the serial cold path.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.bugdb.enums import Application
from repro.bugdb.segments import SegmentedTextIndex
from repro.corpus.loader import full_study
from repro.corpus.studyspec import StudyCorpus
from repro.mining.pipeline import MiningResult
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import records as _records
from repro.pipeline.cache import ParseMineCache, archive_digest, archive_file_digest
from repro.pipeline.formats import ArchiveFormat, format_for
from repro.pipeline.shardparse import check_index_dir, parse_archive_streamed
from repro.pipeline.streamsplit import DEFAULT_MAX_SHARD_BYTES


@dataclasses.dataclass
class PipelineRun:
    """One execution of the archive pipeline.

    Attributes:
        application: the mined application.
        result: the mined study set plus narrowing trace (identical to
            the serial cold path, whatever ``workers`` or cache state).
        digest: SHA-256 of the raw archive text.
        mine_cache_hit: the mined result came straight from the cache.
        parse_cache_hit: the parsed records came from the cache (only
            meaningful when ``mine_cache_hit`` is False).
        telemetry: timers/counters/gauges recorded during the run.
    """

    application: Application
    result: MiningResult
    digest: str
    mine_cache_hit: bool
    parse_cache_hit: bool
    telemetry: MetricsRegistry

    def summary_lines(self) -> list[str]:
        """Human-readable pipeline footer for the CLI."""
        lines = []
        stream = self.telemetry.timer("stream.wall")
        if stream.count:
            mb = self.telemetry.counter("stream.bytes") / (1024 * 1024)
            records = self.telemetry.counter("stream.records")
            wall = stream.total
            rate = f", {mb / wall:.1f} MB/s, {records / wall:.0f} records/s" if wall > 0 else ""
            lines.append(
                f"stream: {wall * 1000:.1f} ms over "
                f"{self.telemetry.counter('stream.ranges'):.0f} byte-range(s), "
                f"{mb:.1f} MB, {records:.0f} record(s){rate}"
            )
        mine = self.telemetry.timer("mine.wall")
        if mine.count:
            lines.append(f"mine: {mine.total * 1000:.1f} ms")
        if self.mine_cache_hit:
            lines.append("cache: mine hit")
        elif self.telemetry.counter("cache.bypassed"):
            lines.append(
                "cache: reads bypassed to build the segment index (entries stored)"
            )
        elif self.telemetry.counter("cache.lookups"):
            parse_state = "hit" if self.parse_cache_hit else "miss"
            lines.append(f"cache: mine miss, parse {parse_state} (entries stored)")
        else:
            lines.append("cache: disabled")
        total = self.telemetry.timer("pipeline.wall")
        if total.count:
            lines.append(f"pipeline total: {total.total * 1000:.1f} ms")
        return lines


def _mine_cached(
    application: Application,
    digest: str,
    parse: Callable[[ArchiveFormat], Any],
    *,
    cache: ParseMineCache | None,
    read_cache: bool,
    telemetry: MetricsRegistry,
    **span_attrs: Any,
) -> PipelineRun:
    """The one cache -> parse -> mine -> store body behind both entry points.

    Looks up the mined result, then the parsed records, under
    ``digest``; on a miss calls ``parse(fmt)`` (returning anything with
    ``records`` and ``index``), mines, and stores both entries.  With
    ``read_cache`` False the lookups are skipped (and counted as
    ``cache.bypassed``) but fresh entries are still stored.
    """
    fmt = format_for(application)
    parse_cache_hit = False

    with telemetry.timed("pipeline.wall"), obs.span(
        f"pipeline:{application.value}", **span_attrs
    ) as pipeline_span:
        records = None
        index = None
        if cache is not None and not read_cache:
            telemetry.count("cache.bypassed")
        elif cache is not None:
            telemetry.count("cache.lookups")
            payload = cache.load(digest, fmt.mine_tag)
            if payload is not None:
                telemetry.count("cache.mine.hits")
                pipeline_span.set(mine_cache_hit=True)
                result = _records.result_from_payload(payload, fmt.item_from_dict)
                return PipelineRun(
                    application=application,
                    result=result,
                    digest=digest,
                    mine_cache_hit=True,
                    parse_cache_hit=False,
                    telemetry=telemetry,
                )
            telemetry.count("cache.mine.misses")

            payload = cache.load(digest, fmt.parse_tag)
            if payload is not None:
                telemetry.count("cache.parse.hits")
                parse_cache_hit = True
                pipeline_span.set(parse_cache_hit=True)
                with telemetry.timed("parse.decode"):
                    records = [
                        fmt.record_from_dict(data)
                        for data in payload.get("records", [])
                    ]
            else:
                telemetry.count("cache.parse.misses")

        if records is None:
            parsed = parse(fmt)
            records, index = parsed.records, parsed.index
            if cache is not None:
                with telemetry.timed("cache.store.parse"):
                    cache.store(
                        digest,
                        fmt.parse_tag,
                        {"records": [fmt.record_to_dict(r) for r in records]},
                    )

        with telemetry.timed("mine.wall"), obs.span(
            f"mine:{application.value}", records=len(records)
        ):
            result = fmt.mine(records, index)

        if cache is not None:
            with telemetry.timed("cache.store.mine"):
                cache.store(
                    digest,
                    fmt.mine_tag,
                    _records.result_to_payload(result, fmt.item_to_dict),
                )

    return PipelineRun(
        application=application,
        result=result,
        digest=digest,
        mine_cache_hit=False,
        parse_cache_hit=parse_cache_hit,
        telemetry=telemetry,
    )


def mine_archive_text(
    application: Application,
    text: str,
    *,
    workers: int = 1,
    cache: ParseMineCache | None = None,
    telemetry: MetricsRegistry | None = None,
) -> PipelineRun:
    """Mine raw archive text through the fast path.

    The text is parsed as its UTF-8 bytes, cut into the same byte ranges
    (at the default shard budget) as the same archive read from a file.

    Args:
        application: which archive format/miner to use.
        text: the raw archive.
        workers: parse-shard worker processes (1 = serial reference).
        cache: optional content-addressed store; hits skip parse+mine.
        telemetry: optional sink (one is created when omitted).
    """
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    return _mine_cached(
        application,
        archive_digest(text),
        lambda fmt: parse_archive_streamed(
            fmt,
            text.encode("utf-8"),
            workers=workers,
            telemetry=telemetry,
            keep_records=True,
        ),
        cache=cache,
        read_cache=True,
        telemetry=telemetry,
        workers=workers,
    )


def mine_archive_file(
    application: Application,
    path: str | Path,
    *,
    max_shard_bytes: int = DEFAULT_MAX_SHARD_BYTES,
    workers: int = 1,
    cache: ParseMineCache | None = None,
    telemetry: MetricsRegistry | None = None,
    index_dir: str | Path | None = None,
) -> PipelineRun:
    """Mine an archive **file** through the streaming byte-range path.

    The archive text is never loaded whole: shards are record-aligned
    byte-ranges of at most ``max_shard_bytes`` (each worker's memory is
    bounded by the shard budget), and with ``index_dir`` the parse
    appends write-ahead segments to an LSM-style
    :class:`~repro.bugdb.segments.SegmentedTextIndex` that the miner
    then queries in place of the monolithic in-memory index.  Mining
    itself still holds the parsed records; for parse+index-only
    workloads at extreme scale, call
    :func:`~repro.pipeline.shardparse.parse_archive_streamed` directly.

    The mined result is identical to :func:`mine_archive_text` on the
    file's contents, and the two share cache entries (same digest).
    When ``index_dir`` names an index with no documents yet, cache
    *reads* are bypassed so the parse that builds the segmented index
    always runs — otherwise a warm cache would silently skip the
    requested on-disk artifact.  An already-populated index is left
    as-is and cache hits short-circuit as usual.  ``index_dir`` for a
    format without ``index_text`` raises the driver's ``ValueError``
    before the index directory is opened (or created).
    """
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    check_index_dir(format_for(application), index_dir)
    return _mine_cached(
        application,
        archive_file_digest(path),
        lambda fmt: parse_archive_streamed(
            fmt,
            path,
            max_shard_bytes=max_shard_bytes,
            workers=workers,
            telemetry=telemetry,
            index_dir=index_dir,
            keep_records=True,
        ),
        cache=cache,
        read_cache=(
            cache is None
            or index_dir is None
            or SegmentedTextIndex(index_dir).document_count > 0
        ),
        telemetry=telemetry,
        workers=workers,
        streaming=True,
    )


def mine_application(
    application: Application,
    *,
    scale: int | None = None,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    telemetry: MetricsRegistry | None = None,
    corpus: StudyCorpus | None = None,
) -> PipelineRun:
    """Render an application's archive and mine it through the fast path.

    Args:
        application: apache | gnome | mysql.
        scale: raw archive size (None = the paper's full scale).
        workers: parse-shard worker processes.
        cache_dir: content-addressed cache directory (None = no cache).
        use_cache: the ``--no-cache`` escape hatch; False ignores
            ``cache_dir`` entirely (no reads, no writes).
        telemetry: optional sink.
        corpus: curated corpus override (defaults to the full study's).
    """
    fmt = format_for(application)
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    if corpus is None:
        corpus = full_study().corpus(application)
    with telemetry.timed("render.wall"):
        text = fmt.render(corpus, scale)
    cache = ParseMineCache(cache_dir) if (cache_dir is not None and use_cache) else None
    return mine_archive_text(
        application, text, workers=workers, cache=cache, telemetry=telemetry
    )
