"""Which ``repro`` functions a traced run wraps, and the per-layer metrics.

Each :class:`~perfbench.tracer.Target` names a public function or
method at a layer boundary.  The one exception is
``pipeline.shardparse._index_range_records``: the streamed archive path
builds its per-range index there and exposes no public entry for it.

The metric table below is the ``per_layer`` list of ``BENCHMARK.json``
(a test keeps the two equal).  Every traced run reports every metric;
a layer that a workload does not exercise reads 0, and the wrappers a
workload is expected to fire are checked by :data:`EXPECTED`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from perfbench.stats import ratio
from perfbench.tracer import Target, Tracer


def _store_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("cache.store_bytes", Path(result).stat().st_size)


def _load_hit(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("cache.load_hits", result is not None)


def _mined(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("mine.items", len(result.items))
    tracer.count("mine.raw", result.trace.initial)


def _replayed(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    triggered, survived, attempts = result
    tracer.count("replay.attempts", attempts)
    tracer.count("replay.triggered", bool(triggered))
    tracer.count("replay.survived", bool(survived))


def _study_ran(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("studygraph.executed", result.executed)
    tracer.count("studygraph.cached", result.cached)


def _campaign(tracer: Tracer, original: Any) -> Any:
    """Time ``run_campaign`` and, nested inside it, its unit runner."""

    def run_campaign(units: Any, runner: Any, *args: Any, **kwargs: Any) -> Any:
        return original(units, tracer.timed("campaign.runner", runner), *args, **kwargs)

    run_campaign.__name__ = original.__name__
    return tracer.timed("campaign", run_campaign)


TARGETS: tuple[Target, ...] = (
    # Rendering the curated corpus into raw archive text.
    Target("repro.corpus.render:apache_raw_archive", "render"),
    Target("repro.corpus.render:gnome_raw_archive", "render"),
    Target("repro.corpus.render:mysql_raw_archive", "render"),
    # bugdb parsers: one call per record.
    Target("repro.bugdb.mbox:parse_message", "parse"),
    Target("repro.bugdb.gnats:parse_pr", "parse"),
    Target("repro.bugdb.debbugs:parse_report", "parse"),
    # Splitting an archive into record chunks / byte ranges.
    Target("repro.bugdb.mbox:split_archive", "split"),
    Target("repro.bugdb.gnats:split_archive", "split"),
    Target("repro.bugdb.debbugs:split_archive", "split"),
    Target("repro.pipeline.streamsplit:format_byte_ranges", "split"),
    Target("repro.pipeline.streamsplit:read_range", "split"),
    # Index builds (in-memory for the study, per range when streaming).
    Target("repro.mining.mysql:build_message_index", "index"),
    Target("repro.pipeline.shardparse:_index_range_records", "index"),
    # On-disk segments.
    Target("repro.bugdb.segments:segment_from_index", "segments.write"),
    Target("repro.bugdb.segments:SegmentedTextIndex.commit_segments", "segments.write"),
    Target("repro.bugdb.segments:SegmentedTextIndex.search_any", "segments.query"),
    Target("repro.bugdb.segments:SegmentedTextIndex.search_all", "segments.query"),
    # Payload decode: one call per record.
    Target("repro.pipeline.records:message_from_dict", "decode"),
    Target("repro.bugdb.jsonstore:report_from_dict", "decode"),
    # The content-addressed cache.
    Target("repro.pipeline.cache:ParseMineCache.store", "cache.store", _store_bytes),
    Target("repro.pipeline.cache:ParseMineCache.load", "cache.load", _load_hit),
    # Mining.
    Target("repro.mining.threads:group_threads", "threads"),
    Target("repro.mining.mysql:keyword_matching_messages", "keywords"),
    Target("repro.mining.dedup:Deduplicator.dedup", "dedup"),
    Target("repro.mining.mysql:mine_mysql", "mine", _mined),
    Target("repro.mining.apache:mine_apache", "mine", _mined),
    Target("repro.mining.gnome:mine_gnome", "mine", _mined),
    # Classification.
    Target("repro.classify.rules:RuleClassifier.classify_evidence", "classify.evidence"),
    Target("repro.classify.rules:RuleClassifier.classify_report", "classify.report"),
    Target("repro.classify.text:TextClassifier.classify_report", "classify.report"),
    # Recovery replay, the harness, scenarios, the study graph.
    Target("repro.recovery.driver:run_replay_attempts", "replay", _replayed),
    Target("repro.harness.engine:run_campaign", "campaign", factory=_campaign),
    Target("repro.harness.journal:JournalWriter.append", "journal"),
    Target("repro.scenarios.engine:run_scenario", "scenario"),
    Target("repro.studygraph.scheduler:run_study", "studygraph", _study_ran),
)

#: Wrapper groups each workload must see fire (zero calls is an error).
EXPECTED: dict[str, tuple[str, ...]] = {
    "study": (
        "render", "parse", "split", "index", "decode", "cache.store", "cache.load",
        "threads", "keywords", "dedup", "mine", "classify.evidence",
        "replay", "campaign", "campaign.runner", "scenario", "studygraph",
    ),
    "archive-stream": (
        "parse", "split", "index", "segments.write", "segments.query",
        "threads", "keywords", "dedup", "mine",
    ),
    "replay": ("replay", "campaign", "campaign.runner", "journal", "scenario"),
    "serve": ("studygraph", "cache.load", "campaign", "campaign.runner", "replay"),
}

#: ``(name, unit, better)`` for every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("corpus.render_s", "s", "lower"),
    ("bugdb.parse_s", "s", "lower"),
    ("bugdb.parse.records", "count", "lower"),
    ("bugdb.index.builds", "count", "lower"),
    ("bugdb.index_s", "s", "lower"),
    ("bugdb.segments.write_s", "s", "lower"),
    ("bugdb.segments.bytes", "bytes", "lower"),
    ("bugdb.segments.query_s", "s", "lower"),
    ("pipeline.split_s", "s", "lower"),
    ("pipeline.decode_s", "s", "lower"),
    ("pipeline.decode.records", "count", "lower"),
    ("pipeline.cache.stores", "count", "lower"),
    ("pipeline.cache.store_s", "s", "lower"),
    ("pipeline.cache.store_bytes", "bytes", "lower"),
    ("pipeline.cache.loads", "count", "lower"),
    ("pipeline.cache.load_s", "s", "lower"),
    ("pipeline.cache.hit_ratio", "ratio", "higher"),
    ("mining.threads.calls", "count", "lower"),
    ("mining.threads_s", "s", "lower"),
    ("mining.keywords_s", "s", "lower"),
    ("mining.dedup_s", "s", "lower"),
    ("mining.mine_s", "s", "lower"),
    ("mining.yield", "ratio", "higher"),
    ("classify.calls", "count", "lower"),
    ("classify_s", "s", "lower"),
    ("recovery.units", "count", "lower"),
    ("recovery.replay_s", "s", "lower"),
    ("recovery.attempts_per_unit", "count", "lower"),
    ("recovery.survival_ratio", "ratio", "higher"),
    ("harness.overhead_s", "s", "lower"),
    ("harness.journal.append_s", "s", "lower"),
    ("harness.journal.bytes", "bytes", "lower"),
    ("scenarios.pairs", "count", "lower"),
    ("scenarios_s", "s", "lower"),
    ("studygraph.executed", "count", "lower"),
    ("studygraph.cached", "count", "higher"),
    ("studygraph.overhead_s", "s", "lower"),
    ("studygraph.registry_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("serve.service_p50_ms", "ms", "lower"),
    ("serve.service_p99_ms", "ms", "lower"),
    ("serve.queue_p99_ms", "ms", "lower"),
    ("serve.transport_ms", "ms", "lower"),
    ("serve.memo_hit_ratio", "ratio", "higher"),
    ("serve.node_runs", "count", "lower"),
    ("serve.daemon_cpu_ms_per_req", "ms", "lower"),
    ("serve.ok_drift", "count", "lower"),
    ("serve.reconnects", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics derived from one traced pass's wrappers.

    Times are self times (nested wrapped calls subtracted), except
    ``harness.overhead_s``: each campaign's wall time minus the time its
    unit runner took, summed over campaigns (journal appends included).
    """
    s = tracer.stat
    c = tracer.counts.get
    loads = s("cache.load").calls
    units = s("replay").calls
    return {
        "corpus.render_s": s("render").self_s,
        "bugdb.parse_s": s("parse").self_s,
        "bugdb.parse.records": s("parse").calls,
        "bugdb.index.builds": s("index").calls,
        "bugdb.index_s": s("index").self_s,
        "bugdb.segments.write_s": s("segments.write").self_s,
        "bugdb.segments.bytes": c("segments.bytes", 0),
        "bugdb.segments.query_s": s("segments.query").self_s,
        "pipeline.split_s": s("split").self_s,
        "pipeline.decode_s": s("decode").self_s,
        "pipeline.decode.records": s("decode").calls,
        "pipeline.cache.stores": s("cache.store").calls,
        "pipeline.cache.store_s": s("cache.store").self_s,
        "pipeline.cache.store_bytes": c("cache.store_bytes", 0),
        "pipeline.cache.loads": loads,
        "pipeline.cache.load_s": s("cache.load").self_s,
        "pipeline.cache.hit_ratio": ratio(c("cache.load_hits", 0), loads),
        "mining.threads.calls": s("threads").calls,
        "mining.threads_s": s("threads").self_s,
        "mining.keywords_s": s("keywords").self_s,
        "mining.dedup_s": s("dedup").self_s,
        "mining.mine_s": s("mine").self_s,
        "mining.yield": ratio(c("mine.items", 0), c("mine.raw", 0)),
        "classify.calls": s("classify.evidence").calls,
        "classify_s": s("classify.evidence").self_s + s("classify.report").self_s,
        "recovery.units": units,
        "recovery.replay_s": s("replay").self_s,
        "recovery.attempts_per_unit": ratio(c("replay.attempts", 0), units),
        "recovery.survival_ratio": ratio(
            c("replay.survived", 0), c("replay.triggered", 0)
        ),
        "harness.overhead_s": s("campaign").total_s - s("campaign.runner").total_s,
        "harness.journal.append_s": s("journal").self_s,
        "harness.journal.bytes": c("journal.bytes", 0),
        "scenarios.pairs": s("scenario").calls,
        "scenarios_s": s("scenario").self_s,
        "studygraph.executed": c("studygraph.executed", 0),
        "studygraph.cached": c("studygraph.cached", 0),
        "studygraph.overhead_s": s("studygraph").self_s,
    }


def metrics_block(values: Mapping[str, float]) -> dict[str, dict[str, Any]]:
    """Every per-layer metric as ``{"value", "unit"}``; absent ones read 0."""
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
