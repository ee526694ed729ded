"""The perf history database: append-only, trace-backed, gated.

Every traced run so far threw its numbers away when the process exited;
this module is where they accrue instead.  A :class:`PerfDB` is one
JSONL file of :class:`PerfRecord`\\ s -- per-node wall seconds, cache
hit/miss counters, and worker counts, keyed by node version tags and
the recording git SHA -- appended one line per run through
:mod:`repro.fileio`, like the harness journal and the trace sink: a
killed writer tears at most its own line, which :meth:`PerfDB.read`
skips and counts; nothing is fsynced, so power loss is not covered.

On top of the history sit the two consumers:

* :func:`check_regressions` -- ``repro perf check``'s engine: the
  latest run's per-node wall seconds against the median of a rolling
  baseline window (same node, same version tag, same source), flagging
  anything slower than ``median * (1 + tolerance)``;
* :func:`node_history` / :func:`node_medians` -- the longitudinal view
  ``repro perf report`` renders and ``repro study watch`` uses for
  ETAs.

Longitudinal fault/perf studies (*Faults in Linux 2.6*, the multi-fault
repository analyses) draw their conclusions from trends, not snapshots;
this is the same lens pointed at the reproduction's own performance.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import json
import os
import statistics
import subprocess
import uuid
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro import fileio

#: Perf record format version (bump on incompatible shape changes).
PERFDB_VERSION = 1

#: Environment override for the recording git SHA (tests, CI).
GIT_SHA_ENV = "REPRO_GIT_SHA"

#: Node statuses a record can carry.
STATUS_EXECUTED = "executed"  # producer ran; wall measured worker-side
STATUS_CACHED = "cached"  # memo hit; wall is the recorded historical one
STATUS_TRACED = "traced"  # wall taken from a node:* span in a trace
STATUS_BENCH = "benchmark"  # wall is a pytest-benchmark timing


def git_sha() -> str:
    """The recording git SHA: env override, then ``git rev-parse HEAD``.

    Falls back to ``"unknown"`` outside a git checkout -- a perfdb must
    stay usable from an exported tarball.
    """
    override = os.environ.get(GIT_SHA_ENV)
    if override:
        return override
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = probe.stdout.strip()
    return sha if probe.returncode == 0 and sha else "unknown"


def utc_timestamp() -> str:
    """The current UTC time as an ISO-8601 string."""
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def new_run_id() -> str:
    """A fresh 12-hex-digit run id."""
    return uuid.uuid4().hex[:12]


@dataclasses.dataclass(frozen=True)
class NodePerf:
    """One node's timing inside one recorded run.

    Attributes:
        wall_seconds: producer (or benchmark) wall time.
        status: how the number was obtained (see the STATUS_* constants).
        version: the node's version tag at recording time; regression
            checks only compare runs whose tags match.
        peak_rss_bytes: highest RSS the resource sampler attributed to
            this node (None when sampling was off -- the fields are
            optional so old records round-trip unchanged).
        cpu_seconds: CPU time the sampler attributed to this node.
    """

    wall_seconds: float
    status: str = STATUS_EXECUTED
    version: str | None = None
    peak_rss_bytes: int | None = None
    cpu_seconds: float | None = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "wall_seconds": round(self.wall_seconds, 6),
            "status": self.status,
        }
        if self.version is not None:
            data["version"] = self.version
        if self.peak_rss_bytes is not None:
            data["peak_rss_bytes"] = int(self.peak_rss_bytes)
        if self.cpu_seconds is not None:
            data["cpu_seconds"] = round(self.cpu_seconds, 6)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NodePerf":
        peak_rss = data.get("peak_rss_bytes")
        cpu = data.get("cpu_seconds")
        return cls(
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            status=str(data.get("status", STATUS_EXECUTED)),
            version=data.get("version"),
            peak_rss_bytes=int(peak_rss) if peak_rss is not None else None,
            cpu_seconds=float(cpu) if cpu is not None else None,
        )


@dataclasses.dataclass(frozen=True)
class PerfRecord:
    """One run's perf snapshot: the unit the history accumulates.

    Attributes:
        run_id: unique id for this record.
        recorded_at: ISO-8601 UTC timestamp.
        git_sha: the recording checkout's HEAD (or ``"unknown"``).
        source: what produced the numbers (``"study-run"``, ``"trace"``,
            ``"benchmark"``); checks never compare across sources.
        workers: worker processes the run used.
        trace_id: the originating trace's id, when there was one.
        nodes: per-node timings.
        counters: run-level counters (cache hits/misses, node counts).
        label: free-form annotation (``--label`` on ``perf record``).
    """

    run_id: str
    recorded_at: str
    git_sha: str
    source: str
    workers: int
    nodes: dict[str, NodePerf]
    counters: dict[str, float] = dataclasses.field(default_factory=dict)
    trace_id: str | None = None
    label: str | None = None

    @classmethod
    def new(
        cls,
        nodes: Mapping[str, NodePerf],
        *,
        source: str,
        workers: int = 1,
        counters: Mapping[str, float] | None = None,
        trace_id: str | None = None,
        label: str | None = None,
        sha: str | None = None,
    ) -> "PerfRecord":
        """A record stamped with a fresh id, timestamp, and git SHA."""
        return cls(
            run_id=new_run_id(),
            recorded_at=utc_timestamp(),
            git_sha=sha if sha is not None else git_sha(),
            source=source,
            workers=workers,
            nodes=dict(nodes),
            counters=dict(counters or {}),
            trace_id=trace_id,
            label=label,
        )

    def total_wall_seconds(self) -> float:
        """Sum of every node's wall seconds in this record."""
        return sum(perf.wall_seconds for perf in self.nodes.values())

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "perfdb_version": PERFDB_VERSION,
            "run_id": self.run_id,
            "recorded_at": self.recorded_at,
            "git_sha": self.git_sha,
            "source": self.source,
            "workers": self.workers,
            "nodes": {
                name: self.nodes[name].to_dict() for name in sorted(self.nodes)
            },
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
        }
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerfRecord":
        return cls(
            run_id=str(data.get("run_id", "")),
            recorded_at=str(data.get("recorded_at", "")),
            git_sha=str(data.get("git_sha", "unknown")),
            source=str(data.get("source", "unknown")),
            workers=int(data.get("workers", 1)),
            nodes={
                str(name): NodePerf.from_dict(perf)
                for name, perf in data.get("nodes", {}).items()
                if isinstance(perf, Mapping)
            },
            counters={
                str(name): float(value)
                for name, value in data.get("counters", {}).items()
            },
            trace_id=data.get("trace_id"),
            label=data.get("label"),
        )


class PerfDB:
    """One append-only JSONL perf history file.

    Each append is one :func:`repro.fileio.append_line` write, so
    concurrent recorders interleave whole records and a killed writer
    tears at most its own line -- which :meth:`read` skips and counts in
    :attr:`skipped_lines`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.skipped_lines = 0
        self._cache_key: tuple[int, int] | None = None
        self._cache_records: list[PerfRecord] = []
        self._cache_medians: dict[str, float] | None = None

    def append(self, record: PerfRecord) -> None:
        """Append one record as a single JSON line."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), separators=(",", ":"), sort_keys=True)
        fileio.append_line(self.path, line)

    def read(self) -> list[PerfRecord]:
        """Every readable record, oldest first (a missing file is empty).

        Torn or corrupt lines are skipped and counted in
        :attr:`skipped_lines`; records with a different format version
        are skipped without counting.
        """
        try:
            entries, self.skipped_lines = fileio.read_jsonl(self.path)
        except FileNotFoundError:
            entries, self.skipped_lines = [], 0
        return [
            PerfRecord.from_dict(data)
            for data in entries
            if data.get("perfdb_version") == PERFDB_VERSION
        ]

    def _stat_key(self) -> tuple[int, int]:
        """The file's ``(mtime_ns, size)`` -- the cache validity token."""
        try:
            stat = os.stat(self.path)
        except OSError:
            return (-1, -1)
        return (stat.st_mtime_ns, stat.st_size)

    def read_cached(self) -> list[PerfRecord]:
        """Like :meth:`read`, parsing only when the file changed on disk.

        The parse is cached behind the file's ``(mtime_ns, size)`` pair,
        so repeated consumers -- per-wave scheduler ordering, the
        ``study watch`` refresh loop, ``perf report`` -- re-read a
        thousand-run history only after an actual append.  Callers share
        the cached list and must not mutate it.
        """
        key = self._stat_key()
        if key != self._cache_key:
            self._cache_records = self.read()
            self._cache_medians = None
            self._cache_key = key
        return self._cache_records

    def node_medians(self) -> dict[str, float]:
        """The history's ETA model (see :func:`node_medians`), cached.

        Derived from :meth:`read_cached`, with the median computation
        itself memoized on the same file-state token.  The returned dict
        is shared; callers must not mutate it.
        """
        records = self.read_cached()
        if self._cache_medians is None:
            self._cache_medians = node_medians(records)
        return self._cache_medians

    def runs(self, *, source: str | None = None) -> list[PerfRecord]:
        """Records, optionally restricted to one source."""
        records = self.read()
        if source is None:
            return records
        return [record for record in records if record.source == source]


# -- throughput records --------------------------------------------------- #


def throughput_counters(
    name: str,
    *,
    wall_seconds: float,
    bytes_count: float,
    records_count: float,
) -> dict[str, float]:
    """Throughput counters (`<name>.mb_per_s` etc.) for one ingest span."""
    counters = {
        f"{name}.bytes": float(bytes_count),
        f"{name}.records": float(records_count),
    }
    if wall_seconds > 0:
        counters[f"{name}.mb_per_s"] = bytes_count / (1024 * 1024) / wall_seconds
        counters[f"{name}.reports_per_s"] = records_count / wall_seconds
    return counters


def throughput_record(
    name: str,
    *,
    wall_seconds: float,
    bytes_count: int,
    records_count: int,
    workers: int = 1,
    source: str = "stream",
    status: str = STATUS_EXECUTED,
    version: str | None = None,
    label: str | None = None,
    sha: str | None = None,
    peak_rss_bytes: int | None = None,
    cpu_seconds: float | None = None,
) -> PerfRecord:
    """A :class:`PerfRecord` for one streaming-ingest measurement.

    The direct (no-trace) way the scale benchmark and ``repro mine run
    --max-shard-bytes`` land MB/s and reports/sec in the history: one
    node carrying the wall time, plus throughput counters from
    :func:`throughput_counters`.  ``peak_rss_bytes``/``cpu_seconds``
    land sampler-measured resource cost on the node, so memory
    regressions in streaming ingest are caught longitudinally too.
    """
    return PerfRecord.new(
        {
            name: NodePerf(
                wall_seconds=wall_seconds,
                status=status,
                version=version,
                peak_rss_bytes=peak_rss_bytes,
                cpu_seconds=cpu_seconds,
            )
        },
        source=source,
        workers=workers,
        counters=throughput_counters(
            name,
            wall_seconds=wall_seconds,
            bytes_count=float(bytes_count),
            records_count=float(records_count),
        ),
        label=label,
        sha=sha,
    )


# -- building records from traces --------------------------------------- #


def traced_node_walls(
    trace_records: Iterable[Mapping[str, Any]],
) -> dict[str, float]:
    """Wall seconds per node from a trace's ``node:*`` spans.

    Repeated executions of one node (a rebuild after payload rot) sum;
    a span without both ``start`` and ``end`` is skipped.
    """
    walls: dict[str, float] = {}
    for record in trace_records:
        name = record.get("name", "")
        if not name.startswith("node:") or "start" not in record or "end" not in record:
            continue
        node = name[len("node:"):]
        seconds = max(0.0, record["end"] - record["start"])
        walls[node] = walls.get(node, 0.0) + seconds
    return walls


def record_from_trace(
    trace_records: Iterable[dict[str, Any]],
    *,
    versions: Mapping[str, str] | None = None,
    memo_walls: Mapping[str, float] | None = None,
    label: str | None = None,
    sha: str | None = None,
) -> PerfRecord:
    """Build a :class:`PerfRecord` from span records.

    Per-node wall seconds come from ``node:*`` spans (summed across
    repeats); cache hit/miss counters from ``memo:*`` and ``cache:*``
    span attributes; workers and trace id from the root span.
    ``stream:parse:*`` spans (the streaming archive parser) become
    nodes too, and their ``bytes``/``records`` attributes land as
    throughput counters (``<span>.mb_per_s``, ``<span>.reports_per_s``)
    so ingest rates accrue in the history alongside wall times.
    ``memo_walls`` adds nodes the traced run satisfied from the memo
    cache, carrying the historical wall seconds their META entry
    recorded.  ``versions`` stamps each node's version tag so later
    regression checks compare like with like.  When the trace carries
    resource-sample records (``repro.obs.resources``), each node's
    sampler-attributed peak RSS and CPU seconds ride along on its
    :class:`NodePerf`; without sampler CPU, a node's CPU seconds are the
    sum of its ``node:*`` spans' own ``cpu_seconds`` attribute.
    """
    trace_records = list(trace_records)
    spans = [r for r in trace_records if "start" in r and "end" in r]
    versions = dict(versions or {})

    nodes: dict[str, NodePerf] = {}
    counters: dict[str, float] = {}
    workers = 1
    trace_id = None

    roots = [r for r in spans if not r.get("parent_id")]
    if roots:
        root = min(roots, key=lambda r: r["start"])
        trace_id = root.get("trace_id")
        attrs = root.get("attrs", {})
        try:
            workers = int(attrs.get("workers", 1))
        except (TypeError, ValueError):
            workers = 1

    walls = traced_node_walls(spans)
    span_cpu: dict[str, float] = {}
    stream_walls: dict[str, float] = {}
    stream_totals: dict[str, dict[str, float]] = {}
    for record in spans:
        name = record.get("name", "")
        seconds = max(0.0, record.get("end", 0.0) - record.get("start", 0.0))
        attrs = record.get("attrs", {})
        if name.startswith("node:") and attrs.get("cpu_seconds") is not None:
            span_cpu[name] = span_cpu.get(name, 0.0) + float(attrs["cpu_seconds"])
        elif name.startswith("stream:parse:"):
            stream_walls[name] = stream_walls.get(name, 0.0) + seconds
            totals = stream_totals.setdefault(name, {"bytes": 0.0, "records": 0.0})
            for key in ("bytes", "records"):
                try:
                    totals[key] += float(attrs.get(key, 0) or 0)
                except (TypeError, ValueError):
                    pass
        elif name.startswith("memo:"):
            key = "memo.hits" if attrs.get("hit") else "memo.misses"
            counters[key] = counters.get(key, 0) + 1
        elif name.startswith("cache:load"):
            key = "cache.hits" if attrs.get("hit") else "cache.misses"
            counters[key] = counters.get(key, 0) + 1

    resource_usage: dict[str, Any] = {}
    if any(r.get("kind") == "resource" for r in trace_records):
        from repro.obs.resources import usage_by_span_name

        resource_usage = usage_by_span_name(trace_records)

    for node, seconds in walls.items():
        usage = resource_usage.get(f"node:{node}")
        nodes[node] = NodePerf(
            wall_seconds=seconds,
            status=STATUS_TRACED,
            version=versions.get(node),
            peak_rss_bytes=usage.peak_rss_bytes if usage else None,
            cpu_seconds=(
                round(usage.cpu_seconds, 6)
                if usage and usage.cpu_seconds > 0
                else span_cpu.get(f"node:{node}")
            ),
        )
    for name, seconds in stream_walls.items():
        nodes[name] = NodePerf(
            wall_seconds=seconds,
            status=STATUS_TRACED,
            version=versions.get(name),
        )
        totals = stream_totals.get(name, {})
        counters.update(
            throughput_counters(
                name,
                wall_seconds=seconds,
                bytes_count=totals.get("bytes", 0.0),
                records_count=totals.get("records", 0.0),
            )
        )
    for node, seconds in (memo_walls or {}).items():
        if node not in nodes:
            nodes[node] = NodePerf(
                wall_seconds=seconds,
                status=STATUS_CACHED,
                version=versions.get(node),
            )

    return PerfRecord.new(
        nodes,
        source="trace",
        workers=workers,
        counters=counters,
        trace_id=trace_id,
        label=label,
        sha=sha,
    )


# -- history views ------------------------------------------------------- #

#: Statuses whose wall seconds describe an actual fresh execution.
_MEASURED = (STATUS_EXECUTED, STATUS_TRACED, STATUS_BENCH)


def node_history(
    records: Iterable[PerfRecord],
    *,
    version_of: Mapping[str, str] | None = None,
) -> dict[str, list[tuple[PerfRecord, NodePerf]]]:
    """Measured samples per node, oldest first.

    Only fresh executions count -- memo hits replay an old number and
    would flatten any trend.  With ``version_of``, samples whose version
    tag disagrees with the current one are dropped (a version bump
    deliberately resets a node's history).
    """
    history: dict[str, list[tuple[PerfRecord, NodePerf]]] = {}
    for record in records:
        for name, perf in record.nodes.items():
            if perf.status not in _MEASURED:
                continue
            if version_of is not None and perf.version is not None:
                if version_of.get(name, perf.version) != perf.version:
                    continue
            history.setdefault(name, []).append((record, perf))
    return history


def node_medians(records: Iterable[PerfRecord]) -> dict[str, float]:
    """Median measured wall seconds per node (the ETA model)."""
    return {
        name: statistics.median(perf.wall_seconds for _, perf in samples)
        for name, samples in node_history(records).items()
        if samples
    }


def grid_family(name: str) -> str | None:
    """The grid family a node name belongs to, or None.

    Grid points are named ``family[axis=value,...]`` (the studygraph
    naming contract); this is the pure string-side parse, so the obs
    layer can aggregate per-family without importing the graph.
    """
    if name.endswith("]"):
        family, bracket, _ = name.partition("[")
        if bracket and family:
            return family
    return None


def family_medians(medians: Mapping[str, float]) -> dict[str, float]:
    """Per-family median of the per-point medians.

    The fallback ETA model for grid points the history has never seen:
    a fresh point of a 1000-point family is budgeted at its siblings'
    typical cost instead of being treated as unknowable.
    """
    groups: dict[str, list[float]] = {}
    for name, seconds in medians.items():
        family = grid_family(name)
        if family is not None:
            groups.setdefault(family, []).append(seconds)
    return {
        family: statistics.median(values) for family, values in groups.items()
    }


# -- regression gating --------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class Regression:
    """One node flagged by :func:`check_regressions`.

    Attributes:
        node: the regressed node.
        latest_seconds: the latest run's wall seconds.
        baseline_seconds: the baseline window's median wall seconds.
        ratio: ``latest / baseline`` (>= 1 + tolerance by construction).
        samples: how many baseline runs backed the median.
    """

    node: str
    latest_seconds: float
    baseline_seconds: float
    ratio: float
    samples: int


def check_regressions(
    records: list[PerfRecord],
    *,
    window: int = 3,
    tolerance: float = 0.25,
    min_seconds: float = 0.001,
) -> tuple[PerfRecord | None, list[Regression]]:
    """Gate the latest run against a rolling baseline window.

    The latest record is compared node-by-node against the median wall
    seconds of the (up to) ``window`` most recent *earlier* records from
    the same source.  A node regresses when its latest measured time
    exceeds ``median * (1 + tolerance)``.  Comparisons only happen
    between matching version tags, between measured (non-cached)
    samples, and above ``min_seconds`` -- sub-millisecond producers are
    all scheduling noise.

    Returns:
        ``(latest_record, regressions)``; ``(None, [])`` on an empty
        history, ``(latest, [])`` when there is no baseline yet.
    """
    if not records:
        return None, []
    latest = records[-1]
    baseline_pool = [
        record for record in records[:-1] if record.source == latest.source
    ]
    regressions: list[Regression] = []
    for name in sorted(latest.nodes):
        perf = latest.nodes[name]
        if perf.status not in _MEASURED or perf.wall_seconds < min_seconds:
            continue
        samples: list[float] = []
        for record in reversed(baseline_pool):
            base = record.nodes.get(name)
            if base is None or base.status not in _MEASURED:
                continue
            if base.version != perf.version:
                continue
            if base.wall_seconds < min_seconds:
                continue
            samples.append(base.wall_seconds)
            if len(samples) >= window:
                break
        if not samples:
            continue
        baseline = statistics.median(samples)
        if baseline <= 0:
            continue
        ratio = perf.wall_seconds / baseline
        if ratio > 1.0 + tolerance:
            regressions.append(
                Regression(
                    node=name,
                    latest_seconds=perf.wall_seconds,
                    baseline_seconds=baseline,
                    ratio=ratio,
                    samples=len(samples),
                )
            )
    return latest, regressions


# -- CLI row shaping ------------------------------------------------------ #


def report_rows(records: list[PerfRecord]) -> list[list[Any]]:
    """``[node, version, runs, latest ms, median ms, best ms, vs median]``
    rows for ``repro perf report``, one per node, sorted by name."""
    history = node_history(records)
    rows: list[list[Any]] = []
    for name in sorted(history):
        samples = history[name]
        walls = [perf.wall_seconds for _, perf in samples]
        latest = walls[-1]
        median = statistics.median(walls)
        delta = (latest / median - 1.0) if median > 0 else 0.0
        version = samples[-1][1].version or "-"
        rows.append(
            [
                name,
                version,
                len(walls),
                f"{latest * 1000:.1f}",
                f"{median * 1000:.1f}",
                f"{min(walls) * 1000:.1f}",
                f"{delta:+.1%}",
            ]
        )
    return rows


def run_rows(records: list[PerfRecord], *, limit: int = 10) -> list[list[Any]]:
    """``[run, recorded at, sha, source, workers, nodes, total s]`` rows
    for the newest ``limit`` runs, newest first."""
    return [
        [
            record.run_id,
            record.recorded_at,
            record.git_sha[:10],
            record.source,
            record.workers,
            len(record.nodes),
            f"{record.total_wall_seconds():.2f}",
        ]
        for record in reversed(records[-limit:])
    ]
