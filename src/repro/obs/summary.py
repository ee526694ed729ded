"""Trace summaries: wall-time attribution from span records.

:func:`summarize_trace` turns a list of span records into the numbers
the ``repro trace summary`` CLI prints: per-phase and per-span-name
wall-time aggregates, *self-time* aggregates (a span's wall time minus
its direct children's -- where the time was actually spent, not just
where it was enclosed), the top-N slowest spans, and *root coverage* --
the fraction of the root span's wall time attributed to its direct
children.  For a study run the root is ``study.run`` and its children
are the ``wave`` spans, so coverage answers "how much of the scheduler's
wall time do named spans account for?" (the acceptance bar is >= 95%).

When the trace carries resource-sample records
(:mod:`repro.obs.resources`), each self-time aggregate also reports the
peak RSS and CPU seconds the sampler attributed to that span name.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable


def _duration(record: dict[str, Any]) -> float:
    return max(0.0, record.get("end", 0.0) - record.get("start", 0.0))


def _phase(name: str) -> str:
    return name.split(":", 1)[0]


@dataclasses.dataclass(frozen=True)
class NameStats:
    """Aggregate wall time for one span name (or phase)."""

    name: str
    count: int
    total_seconds: float
    max_seconds: float


@dataclasses.dataclass(frozen=True)
class SelfTimeStats:
    """Self-time attribution for one span name.

    Attributes:
        name: the span name.
        count: spans with this name.
        self_seconds: total wall time minus time spent in direct
            children -- the time this code itself consumed.
        total_seconds: total (inclusive) wall time.
        peak_rss_bytes: sampler-attributed peak RSS (None without
            resource samples for this name).
        cpu_seconds: sampler-attributed CPU time; without samples, the
            sum of the spans' own ``cpu_seconds`` attribute (``node:*``
            spans carry one); None when neither exists.
    """

    name: str
    count: int
    self_seconds: float
    total_seconds: float
    peak_rss_bytes: int | None = None
    cpu_seconds: float | None = None


#: Synthetic phase adopting spans whose parent record is missing.
ORPHAN_PHASE = "(orphaned)"


@dataclasses.dataclass
class TraceSummary:
    """Everything ``repro trace summary`` renders.

    Attributes:
        spans: total span records in the trace.
        processes: distinct recording pids.
        root: the root span record (no parent; earliest start wins ties),
            or None for an empty trace.
        root_seconds: the root span's wall time.
        coverage: fraction of the root's wall time covered by its direct
            children plus orphaned subtrees (0.0 with no root or a
            zero-length root).
        orphaned: spans whose parent record is missing from the trace
            (a truncated trace); they aggregate under the synthetic
            :data:`ORPHAN_PHASE` phase and still count toward coverage.
        phases: per-phase aggregates (span name before the first ``:``),
            sorted by total time descending.
        names: per-full-name aggregates, sorted by total time descending.
        slowest: the top-N span records by duration, longest first.
        self_times: per-span-name self-time aggregates (with resource
            attribution when the trace carries samples), sorted by self
            time descending.
    """

    spans: int
    processes: int
    root: dict[str, Any] | None
    root_seconds: float
    coverage: float
    orphaned: int
    phases: list[NameStats]
    names: list[NameStats]
    slowest: list[dict[str, Any]]
    self_times: list[SelfTimeStats] = dataclasses.field(default_factory=list)

    def phase_rows(self) -> list[list[Any]]:
        """``[phase, spans, total ms, max ms]`` rows for the CLI."""
        return [
            [s.name, s.count, f"{s.total_seconds * 1000:.1f}",
             f"{s.max_seconds * 1000:.1f}"]
            for s in self.phases
        ]

    def name_rows(self, limit: int | None = None) -> list[list[Any]]:
        """``[name, spans, total ms, max ms]`` rows for the CLI."""
        names = self.names if limit is None else self.names[:limit]
        return [
            [s.name, s.count, f"{s.total_seconds * 1000:.1f}",
             f"{s.max_seconds * 1000:.1f}"]
            for s in names
        ]

    def slowest_rows(self) -> list[list[Any]]:
        """``[name, wall ms, pid, parent]`` rows, longest span first."""
        return [
            [
                record.get("name", "?"),
                f"{_duration(record) * 1000:.1f}",
                record.get("pid", "?"),
                (record.get("parent_id") or "-"),
            ]
            for record in self.slowest
        ]

    def self_time_rows(self, limit: int | None = None) -> list[list[Any]]:
        """``[span, calls, self ms, total ms, peak RSS MB, cpu ms]``
        rows, hottest self-time first; resource columns are ``-`` when
        the trace carried no samples for the name."""
        stats = self.self_times if limit is None else self.self_times[:limit]
        rows: list[list[Any]] = []
        for s in stats:
            rows.append(
                [
                    s.name,
                    s.count,
                    f"{s.self_seconds * 1000:.1f}",
                    f"{s.total_seconds * 1000:.1f}",
                    (
                        f"{s.peak_rss_bytes / (1024 * 1024):.1f}"
                        if s.peak_rss_bytes is not None
                        else "-"
                    ),
                    (
                        f"{s.cpu_seconds * 1000:.1f}"
                        if s.cpu_seconds is not None
                        else "-"
                    ),
                ]
            )
        return rows


def _aggregate(records: list[dict[str, Any]], key) -> list[NameStats]:
    totals: dict[str, list[float]] = {}
    for record in records:
        name = key(record)
        duration = _duration(record)
        stats = totals.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += duration
        stats[2] = max(stats[2], duration)
    return sorted(
        (
            NameStats(name=name, count=int(c), total_seconds=t, max_seconds=m)
            for name, (c, t, m) in totals.items()
        ),
        key=lambda s: s.total_seconds,
        reverse=True,
    )


def _self_times(
    records: list[dict[str, Any]], spans: list[dict[str, Any]]
) -> list[SelfTimeStats]:
    """Per-name self-time aggregates, hottest first.

    A span's self time is its duration minus the summed durations of
    its direct children (clamped at zero: concurrent children -- forked
    workers under one dispatch span -- can overlap past the parent).
    Resource attribution joins in from sample records when present;
    CPU falls back to the spans' own ``cpu_seconds`` attribute.
    """
    child_seconds: dict[str, float] = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + _duration(record)

    totals: dict[str, list[float]] = {}
    span_cpu: dict[str, float] = {}
    for record in spans:
        name = record.get("name", "?")
        duration = _duration(record)
        own = max(0.0, duration - child_seconds.get(record.get("span_id"), 0.0))
        stats = totals.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += own
        stats[2] += duration
        cpu = record.get("attrs", {}).get("cpu_seconds")
        if cpu is not None:
            span_cpu[name] = span_cpu.get(name, 0.0) + float(cpu)

    usage: dict[str, Any] = {}
    if any(r.get("kind") == "resource" for r in records):
        from repro.obs.resources import usage_by_span_name

        usage = usage_by_span_name(records)

    result = []
    for name, (count, self_seconds, total_seconds) in totals.items():
        attributed = usage.get(name)
        result.append(
            SelfTimeStats(
                name=name,
                count=int(count),
                self_seconds=self_seconds,
                total_seconds=total_seconds,
                peak_rss_bytes=attributed.peak_rss_bytes if attributed else None,
                cpu_seconds=(
                    attributed.cpu_seconds
                    if attributed and attributed.cpu_seconds > 0
                    else span_cpu.get(name)
                ),
            )
        )
    result.sort(key=lambda s: s.self_seconds, reverse=True)
    return result


def summarize_trace(
    records: Iterable[dict[str, Any]], *, top: int = 10
) -> TraceSummary:
    """Aggregate span records into a :class:`TraceSummary`.

    Spans whose parent record is missing from the trace (a crashed
    writer truncated the file mid-run) are *orphans*: they aggregate
    under the synthetic :data:`ORPHAN_PHASE` phase and their wall time
    counts toward root coverage, so a truncated trace never silently
    loses whole worker subtrees from the attribution.
    """
    records = list(records)
    spans = [r for r in records if "start" in r and "end" in r]
    roots = [r for r in spans if not r.get("parent_id")]
    root = min(roots, key=lambda r: r["start"]) if roots else None

    present_ids = {r.get("span_id") for r in spans}
    orphan_ids = {
        r.get("span_id")
        for r in spans
        if r.get("parent_id") and r["parent_id"] not in present_ids
    }

    root_seconds = _duration(root) if root else 0.0
    coverage = 0.0
    if root is not None and root_seconds > 0:
        child_total = sum(
            _duration(r)
            for r in spans
            if r.get("parent_id") == root["span_id"]
            or r.get("span_id") in orphan_ids
        )
        coverage = min(1.0, child_total / root_seconds)

    def _phase_key(record: dict[str, Any]) -> str:
        if record.get("span_id") in orphan_ids:
            return ORPHAN_PHASE
        return _phase(record.get("name", "?"))

    return TraceSummary(
        self_times=_self_times(records, spans),
        spans=len(spans),
        processes=len({r.get("pid") for r in spans}),
        root=root,
        root_seconds=root_seconds,
        coverage=coverage,
        orphaned=len(orphan_ids),
        phases=_aggregate(spans, _phase_key),
        names=_aggregate(spans, lambda record: record.get("name", "?")),
        slowest=sorted(spans, key=_duration, reverse=True)[:top],
    )
