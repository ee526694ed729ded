"""repro.obs: unified tracing, metrics, and profiling.

PRs 1-3 gave the reproduction three execution layers -- the harness
campaign pool, the sharded parse/mine pipeline, and the study-graph
wave scheduler -- each with ad-hoc telemetry that could not be
correlated.  This package is the one observability layer they all
report into:

* :mod:`~repro.obs.span` -- hierarchical trace spans (``span(name,
  **attrs)``) with monotonic timestamps, parent/child ids, and
  cross-process propagation: a dispatcher's span context travels to
  forked pool workers, whose spans ship back parented under the
  dispatching wave;
* :mod:`~repro.obs.metrics` -- :class:`MetricsRegistry`, the one
  counters/timers/gauges registry, with deterministic (shard-keyed)
  gauge merges;
* :mod:`~repro.obs.sinks` -- pluggable span sinks: in-memory for tests,
  append-only JSONL for ``repro study run --trace`` (a killed run tears
  at most its last line; not fsynced, so power loss is not covered);
* :mod:`~repro.obs.chrome` -- Chrome ``trace_event`` export, loadable
  in ``chrome://tracing`` / Perfetto;
* :mod:`~repro.obs.summary` -- wall-time attribution for ``repro trace
  summary``;
* :mod:`~repro.obs.flame` -- folded stacks, ASCII icicles, and
  speedscope export (``repro trace summary --flame`` / ``repro trace
  export --format folded|speedscope``);
* :mod:`~repro.obs.perfdb` -- the append-only JSONL perf history with
  rolling-baseline regression gating (``repro perf record|report|check``);
* :mod:`~repro.obs.livestatus` -- atomic heartbeat snapshots and the
  ``repro study watch`` renderer for live run monitoring;
* :mod:`~repro.obs.hist` -- the deterministic log-linear
  :class:`Histogram` shared by the serve metrics exposition, the
  closed-loop load generator, and the SLO checker, plus the
  Prometheus-style text exposition reader/writer;
* :mod:`~repro.obs.resources` -- the background ``/proc`` resource
  sampler (:class:`ResourceSampler`) whose span-attributed RSS/CPU/IO
  samples travel the same trace channel spans do;
* :mod:`~repro.obs.slo` -- declarative service-level objectives
  evaluated offline from exposition text, perf history, and traces
  (``repro slo check``).

**Zero overhead by default**: with no tracer installed, :func:`span`
returns a shared no-op object and :func:`current_context` returns None;
instrumented hot paths pay one module-global check.  The studygraph
benchmark asserts < 5% wall-time overhead with tracing *enabled*.

Layering: this package imports nothing from the rest of ``repro`` but
the leaf :mod:`repro.fileio` (on-disk I/O), so every other subsystem
may instrument itself freely.
"""

from repro.obs.chrome import chrome_trace
from repro.obs.hist import (
    Histogram,
    bucket_percentile,
    exposition_buckets,
    exposition_value,
    histogram_lines,
    parse_exposition,
)
from repro.obs.flame import (
    ORPHAN_FRAME,
    fold_stacks,
    format_folded,
    parse_folded,
    render_icicle,
    speedscope_document,
)
from repro.obs.livestatus import (
    RunMonitor,
    eta_seconds,
    healthz_view,
    read_snapshot,
    render_watch_line,
    write_snapshot,
)
from repro.obs.metrics import LOCAL_SHARD, MetricsRegistry, TimerStats
from repro.obs.perfdb import (
    NodePerf,
    PerfDB,
    PerfRecord,
    Regression,
    check_regressions,
    family_medians,
    grid_family,
    node_medians,
    record_from_trace,
    throughput_counters,
    throughput_record,
)
from repro.obs.resources import (
    RESOURCE_KIND,
    ResourceSample,
    ResourceSampler,
    ResourceUsage,
    active_sampler,
    is_resource_record,
    proc_available,
    resource_records,
    rss_series_by_span,
    sampling_enabled,
    usage_by_phase,
    usage_by_span_name,
)
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, read_trace
from repro.obs.slo import (
    Objective,
    SloResult,
    default_objectives,
    evaluate_objectives,
    load_objectives,
)
from repro.obs.span import (
    Span,
    Tracer,
    active_tracer,
    capture,
    current_context,
    ingest,
    install,
    span,
    tracing,
    uninstall,
)
from repro.obs.summary import (
    ORPHAN_PHASE,
    NameStats,
    SelfTimeStats,
    TraceSummary,
    summarize_trace,
)

__all__ = [
    "Histogram",
    "JsonlSink",
    "LOCAL_SHARD",
    "MemorySink",
    "MetricsRegistry",
    "NameStats",
    "NodePerf",
    "NullSink",
    "Objective",
    "ORPHAN_FRAME",
    "ORPHAN_PHASE",
    "PerfDB",
    "PerfRecord",
    "RESOURCE_KIND",
    "Regression",
    "ResourceSample",
    "ResourceSampler",
    "ResourceUsage",
    "RunMonitor",
    "SelfTimeStats",
    "SloResult",
    "Span",
    "TimerStats",
    "TraceSummary",
    "Tracer",
    "active_sampler",
    "active_tracer",
    "bucket_percentile",
    "capture",
    "check_regressions",
    "chrome_trace",
    "current_context",
    "default_objectives",
    "eta_seconds",
    "evaluate_objectives",
    "exposition_buckets",
    "exposition_value",
    "family_medians",
    "fold_stacks",
    "format_folded",
    "grid_family",
    "healthz_view",
    "histogram_lines",
    "ingest",
    "install",
    "is_resource_record",
    "load_objectives",
    "node_medians",
    "parse_exposition",
    "parse_folded",
    "proc_available",
    "read_snapshot",
    "read_trace",
    "record_from_trace",
    "render_icicle",
    "render_watch_line",
    "resource_records",
    "rss_series_by_span",
    "sampling_enabled",
    "span",
    "speedscope_document",
    "summarize_trace",
    "throughput_counters",
    "throughput_record",
    "tracing",
    "uninstall",
    "usage_by_phase",
    "usage_by_span_name",
    "write_snapshot",
]
