"""Service-level evidence read offline: exposition text and trace samples.

Latency percentiles, request budgets and per-span peak RSS are judged
from a scraped exposition or a recorded trace, never from the live
process.  These tests pin the readers that make that possible: strict
exposition parsing, bucket percentiles equal to the live histogram's,
absent-versus-zero counters, and resource samples attributed to spans
through the trace's span records.
"""

from __future__ import annotations

import pytest

from repro.obs.hist import (
    Histogram,
    bucket_percentile,
    exposition_buckets,
    exposition_value,
    histogram_lines,
    metric_line,
    parse_exposition,
)
from repro.obs.resources import resource_records, usage_by_span_name

MB = 1024 * 1024
REQUESTS = "repro_requests_total"
LATENCY = "repro_request_latency_seconds"


def exposition_with_latencies(
    kind: str, latencies: list[float], *, rejected: int = 0
) -> str:
    """A minimal but well-formed exposition for one request kind."""
    lines = [metric_line(REQUESTS, len(latencies), {"kind": kind, "status": "ok"})]
    if rejected:
        lines.append(
            metric_line(
                REQUESTS, rejected, {"kind": kind, "status": "rejected-busy"}
            )
        )
    lines.extend(
        histogram_lines(LATENCY, Histogram.from_values(latencies), {"kind": kind})
    )
    return "\n".join(lines) + "\n"


class TestThreeValuedVerdicts:
    def test_malformed_exposition_raises(self):
        with pytest.raises(ValueError, match="malformed exposition line"):
            parse_exposition("this is not exposition{{{\n")


class TestLatencyObjective:
    def test_percentile_matches_live_histogram(self):
        latencies = [0.001 * i for i in range(1, 200)]
        samples = parse_exposition(exposition_with_latencies("study", latencies))
        buckets = exposition_buckets(samples, LATENCY, {"kind": "study"})
        assert bucket_percentile(buckets, 0.95) == (
            Histogram.from_values(latencies).percentile(0.95)
        )
        # another kind's histogram is not this one's evidence
        assert exposition_buckets(samples, LATENCY, {"kind": "ping"}) == []


class TestBudgetObjectives:
    def test_rejection_budget_counts_rejected_busy(self):
        samples = parse_exposition(
            exposition_with_latencies("study", [0.01] * 6, rejected=4)
        )
        total = exposition_value(samples, REQUESTS)
        rejected = exposition_value(samples, REQUESTS, {"status": "rejected-busy"})
        assert total == 10
        assert rejected == 4
        assert rejected / total == pytest.approx(0.4)

    def test_no_requests_is_no_data(self):
        samples = parse_exposition("# nothing here\n")
        assert samples == []
        assert exposition_value(samples, REQUESTS) is None
        assert exposition_value(samples, REQUESTS, {"status": "error"}) is None


class TestPeakRssObjective:
    def test_default_target_takes_node_spans_resolved_by_id(self):
        # Real traces tag samples with a span id; the span records name it.
        trace = [
            {"name": "study", "span_id": "r", "start": 0.0, "end": 9.0, "pid": 1},
            {"name": "node:T1", "span_id": "n", "start": 1.0, "end": 2.0, "pid": 1},
        ]
        for t, span_id, rss in [(0.5, "r", 999 * MB), (1.5, "n", 50 * MB)]:
            trace.append(
                {"kind": "resource", "pid": 1, "t": t, "rss_bytes": rss,
                 "cpu_seconds": t, "span_id": span_id}
            )
        usage = usage_by_span_name(trace)
        nodes = {name: u for name, u in usage.items() if name.startswith("node:")}
        assert set(nodes) == {"node:T1"}
        assert nodes["node:T1"].peak_rss_bytes == 50 * MB
        assert usage["study"].peak_rss_bytes == 999 * MB

    def test_no_resource_fields_anywhere_is_no_data(self):
        trace = [{"name": "node:T1", "span_id": "n", "start": 0.0, "end": 1.0}]
        assert resource_records(trace) == []
        assert usage_by_span_name(trace) == {}


class TestRssGrowthObjective:
    def test_samples_attributed_via_span_records(self):
        # samples carrying span_id resolve through the trace's span records
        span = {
            "span_id": "s1", "name": "node:attributed",
            "start": 10.0, "end": 11.0, "pid": 1234,
        }
        samples = [
            {
                "kind": "resource", "pid": 1234, "t": 10.0 + 0.01 * i,
                "rss_bytes": 100 * MB + i * 20 * MB,
                "cpu_seconds": 0.0, "span_id": "s1",
            }
            for i in range(8)
        ]
        usage = usage_by_span_name([span] + samples)
        assert set(usage) == {"node:attributed"}
        assert usage["node:attributed"].samples == 8
        assert usage["node:attributed"].peak_rss_bytes == 100 * MB + 7 * 20 * MB
