"""SLO checker: objectives, three-valued verdicts, and the leak lens."""

from __future__ import annotations

import json

import pytest

from repro.obs.hist import Histogram, histogram_lines, metric_line
from repro.obs.slo import (
    KIND_ERROR_BUDGET,
    KIND_LATENCY,
    KIND_PEAK_RSS,
    KIND_REJECTION_BUDGET,
    KIND_RSS_GROWTH,
    STATUS_NO_DATA,
    STATUS_OK,
    STATUS_VIOLATED,
    Objective,
    SloResult,
    default_objectives,
    evaluate_objectives,
    load_objectives,
)

MB = 1024 * 1024


def _one(results: list[SloResult]) -> SloResult:
    assert len(results) == 1
    return results[0]


# -- evidence builders ---------------------------------------------------- #


def exposition_with_latencies(
    kind: str,
    latencies: list[float],
    *,
    errors: int = 0,
    rejected: int = 0,
) -> str:
    """A minimal but well-formed exposition for one request kind."""
    hist = Histogram.from_values(latencies)
    lines: list[str] = []
    ok = len(latencies) - errors
    if ok:
        lines.append(
            metric_line("repro_requests_total", ok, {"kind": kind, "status": "ok"})
        )
    if errors:
        lines.append(
            metric_line(
                "repro_requests_total", errors, {"kind": kind, "status": "error"}
            )
        )
    if rejected:
        lines.append(
            metric_line(
                "repro_requests_total",
                rejected,
                {"kind": kind, "status": "rejected-busy"},
            )
        )
    lines.extend(
        histogram_lines("repro_request_latency_seconds", hist, {"kind": kind})
    )
    return "\n".join(lines) + "\n"


def rss_samples(
    span_name: str, rss_values: list[int], *, pid: int = 1234
) -> list[dict]:
    """Resource-sample records: one per value, 10ms apart."""
    return [
        {
            "kind": "resource",
            "pid": pid,
            "t": 10.0 + 0.01 * i,
            "rss_bytes": rss,
            "cpu_seconds": 0.001 * i,
            "span_name": span_name,
        }
        for i, rss in enumerate(rss_values)
    ]


# -- Objective / SloResult basics ----------------------------------------- #


class TestObjective:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown objective kind"):
            Objective(name="x", kind="throughput", threshold=1.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Objective(name="x", kind=KIND_LATENCY, threshold=-1.0)

    def test_round_trips_through_dict(self):
        obj = Objective(
            name="p95", kind=KIND_LATENCY, threshold=0.5, target="ping", fraction=0.95
        )
        assert Objective.from_dict(obj.to_dict()) == obj

    def test_default_objectives_cover_every_kind(self):
        kinds = {o.kind for o in default_objectives()}
        assert kinds == {
            KIND_LATENCY,
            KIND_ERROR_BUDGET,
            KIND_REJECTION_BUDGET,
            KIND_PEAK_RSS,
            KIND_RSS_GROWTH,
        }

    def test_load_objectives_from_json(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps(
                [
                    {"name": "p99", "kind": "latency", "target": "study",
                     "threshold": 1.0},
                    {"kind": "error-budget", "threshold": 0.01},
                ]
            )
        )
        objectives = load_objectives(path)
        assert [o.name for o in objectives] == ["p99", "error-budget"]
        assert objectives[1].threshold == 0.01

    def test_load_objectives_rejects_non_list(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"kind": "latency"}')
        with pytest.raises(ValueError, match="JSON list"):
            load_objectives(path)


class TestThreeValuedVerdicts:
    def test_no_evidence_at_all_is_all_no_data(self):
        results = evaluate_objectives(default_objectives())
        assert [r.status for r in results] == [STATUS_NO_DATA] * 5
        assert all(r.observed is None for r in results)
        assert not any(r.violated for r in results)

    def test_partial_evidence_judges_only_what_it_can(self):
        text = exposition_with_latencies("study", [0.01] * 10)
        results = evaluate_objectives(default_objectives(), exposition_text=text)
        by_name = {r.objective.name: r for r in results}
        assert by_name["serve-study-p99"].status == STATUS_OK
        assert by_name["serve-error-budget"].status == STATUS_OK
        assert by_name["campaign-peak-rss"].status == STATUS_NO_DATA
        assert by_name["span-rss-leak"].status == STATUS_NO_DATA

    def test_malformed_exposition_raises(self):
        with pytest.raises(ValueError):
            evaluate_objectives(
                default_objectives(), exposition_text="this is not exposition{{{\n"
            )

    def test_row_shape(self):
        result = _one(
            evaluate_objectives(
                [Objective(name="x", kind=KIND_LATENCY, threshold=1.0)]
            )
        )
        row = result.row()
        assert row[0] == "x"
        assert row[2] == STATUS_NO_DATA
        assert row[3] == "-"


# -- latency -------------------------------------------------------------- #


class TestLatencyObjective:
    def test_ok_under_threshold(self):
        text = exposition_with_latencies("study", [0.01, 0.02, 0.03] * 10)
        result = _one(
            evaluate_objectives(
                [Objective(name="p99", kind=KIND_LATENCY, target="study",
                           threshold=1.0)],
                exposition_text=text,
            )
        )
        assert result.status == STATUS_OK
        assert result.observed is not None and result.observed < 1.0

    def test_violated_over_threshold(self):
        text = exposition_with_latencies("study", [5.0] * 20)
        result = _one(
            evaluate_objectives(
                [Objective(name="p99", kind=KIND_LATENCY, target="study",
                           threshold=1.0)],
                exposition_text=text,
            )
        )
        assert result.violated
        assert result.observed > 1.0

    def test_wrong_kind_is_no_data(self):
        text = exposition_with_latencies("ping", [0.01] * 5)
        result = _one(
            evaluate_objectives(
                [Objective(name="p99", kind=KIND_LATENCY, target="study",
                           threshold=1.0)],
                exposition_text=text,
            )
        )
        assert result.status == STATUS_NO_DATA

    def test_percentile_matches_live_histogram(self):
        latencies = [0.001 * i for i in range(1, 200)]
        text = exposition_with_latencies("study", latencies)
        result = _one(
            evaluate_objectives(
                [Objective(name="p95", kind=KIND_LATENCY, target="study",
                           threshold=10.0, fraction=0.95)],
                exposition_text=text,
            )
        )
        assert result.observed == Histogram.from_values(latencies).percentile(0.95)


# -- error / rejection budgets -------------------------------------------- #


class TestBudgetObjectives:
    def test_error_budget_ok(self):
        text = exposition_with_latencies("study", [0.01] * 100, errors=2)
        result = _one(
            evaluate_objectives(
                [Objective(name="eb", kind=KIND_ERROR_BUDGET, threshold=0.05)],
                exposition_text=text,
            )
        )
        assert result.status == STATUS_OK
        assert result.observed == pytest.approx(0.02)

    def test_error_budget_violated(self):
        text = exposition_with_latencies("study", [0.01] * 10, errors=4)
        result = _one(
            evaluate_objectives(
                [Objective(name="eb", kind=KIND_ERROR_BUDGET, threshold=0.05)],
                exposition_text=text,
            )
        )
        assert result.violated
        assert result.observed == pytest.approx(0.4)

    def test_rejection_budget_counts_rejected_busy(self):
        text = exposition_with_latencies("study", [0.01] * 6, rejected=4)
        result = _one(
            evaluate_objectives(
                [Objective(name="rb", kind=KIND_REJECTION_BUDGET, threshold=0.25)],
                exposition_text=text,
            )
        )
        assert result.violated
        assert result.observed == pytest.approx(0.4)

    def test_no_requests_is_no_data(self):
        result = _one(
            evaluate_objectives(
                [Objective(name="eb", kind=KIND_ERROR_BUDGET, threshold=0.05)],
                exposition_text="# nothing here\n",
            )
        )
        assert result.status == STATUS_NO_DATA


# -- peak RSS from trace resource samples -------------------------------- #


class TestPeakRssObjective:
    def objective(self, target: str = "node:") -> Objective:
        return Objective(
            name="rss", kind=KIND_PEAK_RSS, target=target, threshold=256 * MB
        )

    def test_ok_under_threshold(self):
        trace = rss_samples("node:T1", [60 * MB, 100 * MB, 80 * MB])
        result = _one(evaluate_objectives([self.objective()], trace_records=trace))
        assert result.status == STATUS_OK
        assert result.observed == 100 * MB

    def test_violated_names_worst_node(self):
        trace = rss_samples("node:T1", [100 * MB]) + rss_samples(
            "node:mine", [900 * MB], pid=5678
        )
        result = _one(evaluate_objectives([self.objective()], trace_records=trace))
        assert result.violated
        assert result.observed == 900 * MB
        assert "node:mine" in result.detail

    def test_target_matches_grid_family(self):
        trace = rss_samples("node:mine[scale=3]", [500 * MB]) + rss_samples(
            "node:other", [900 * MB], pid=5678
        )
        result = _one(
            evaluate_objectives(
                [self.objective(target="node:mine")], trace_records=trace
            )
        )
        assert result.violated
        assert result.observed == 500 * MB  # 'other' excluded by target

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
        (objective,) = [
            o for o in default_objectives() if o.kind == KIND_PEAK_RSS
        ]
        result = _one(evaluate_objectives([objective], trace_records=trace))
        assert result.status == STATUS_OK
        assert result.observed == 50 * MB
        assert "node:T1" in result.detail

    def test_no_resource_fields_anywhere_is_no_data(self):
        trace = [{"name": "node:T1", "span_id": "n", "start": 0.0, "end": 1.0}]
        result = _one(evaluate_objectives([self.objective()], trace_records=trace))
        assert result.status == STATUS_NO_DATA


# -- RSS growth (the leak lens) ------------------------------------------- #


class TestRssGrowthObjective:
    def leak_objective(self, threshold: float = 32 * MB) -> Objective:
        return Objective(
            name="leak", kind=KIND_RSS_GROWTH, threshold=threshold, fraction=4
        )

    def test_monotonic_growth_is_flagged(self):
        """The acceptance fixture: a leak-injected span family whose
        sampled RSS series grows monotonically must be flagged."""
        trace = rss_samples(
            "node:leaky", [100 * MB + i * 20 * MB for i in range(8)]
        )
        result = _one(
            evaluate_objectives([self.leak_objective()], trace_records=trace)
        )
        assert result.violated
        assert "node:leaky" in result.detail
        assert result.observed == pytest.approx(7 * 20 * MB)

    def test_flat_series_passes(self):
        trace = rss_samples("node:steady", [100 * MB] * 8)
        result = _one(
            evaluate_objectives([self.leak_objective()], trace_records=trace)
        )
        assert result.status == STATUS_OK

    def test_sawtooth_passes(self):
        # allocate/free cycles: grows then drops -- not monotonic.
        values = [100 * MB, 300 * MB, 120 * MB, 320 * MB, 110 * MB, 330 * MB]
        trace = rss_samples("node:sawtooth", values)
        result = _one(
            evaluate_objectives([self.leak_objective()], trace_records=trace)
        )
        assert result.status == STATUS_OK

    def test_small_monotonic_growth_under_threshold_passes(self):
        trace = rss_samples("node:warmup", [100 * MB + i * MB for i in range(8)])
        result = _one(
            evaluate_objectives([self.leak_objective()], trace_records=trace)
        )
        assert result.status == STATUS_OK

    def test_too_few_samples_is_no_data(self):
        trace = rss_samples("node:short", [100 * MB, 500 * MB])
        result = _one(
            evaluate_objectives([self.leak_objective()], trace_records=trace)
        )
        assert result.status == STATUS_NO_DATA

    def test_jitter_tolerated_within_one_percent(self):
        # a 0.5% dip must not break the monotonic classification
        base = 1000 * MB
        values = [base, base + 50 * MB, int((base + 50 * MB) * 0.997),
                  base + 100 * MB, base + 150 * MB]
        trace = rss_samples("node:jitter", values)
        result = _one(
            evaluate_objectives([self.leak_objective()], trace_records=trace)
        )
        assert result.violated

    def test_target_prefix_filters_spans(self):
        trace = rss_samples(
            "node:leaky", [100 * MB + i * 20 * MB for i in range(8)]
        ) + rss_samples("phase:other", [100 * MB] * 8, pid=5678)
        objective = Objective(
            name="leak", kind=KIND_RSS_GROWTH, target="phase:",
            threshold=32 * MB, fraction=4,
        )
        result = _one(evaluate_objectives([objective], trace_records=trace))
        assert result.status == STATUS_OK  # the leak is outside the target

    def test_worst_of_multiple_leaks_reported(self):
        trace = rss_samples(
            "node:slow-leak", [100 * MB + i * 10 * MB for i in range(8)]
        ) + rss_samples(
            "node:fast-leak", [100 * MB + i * 50 * MB for i in range(8)], pid=5678
        )
        result = _one(
            evaluate_objectives([self.leak_objective()], trace_records=trace)
        )
        assert result.violated
        assert "node:fast-leak" in result.detail
        assert "1 other span" in result.detail

    def test_cli_check_warn_only_and_exit_codes(self, tmp_path, capsys):
        from repro import cli

        trace_path = tmp_path / "trace.jsonl"
        leak = rss_samples(
            "node:leaky", [100 * MB + i * 20 * MB for i in range(8)]
        )
        trace_path.write_text("\n".join(json.dumps(r) for r in leak) + "\n")
        slo_path = tmp_path / "slo.json"
        slo_path.write_text(
            json.dumps(
                [{"name": "leak", "kind": "rss-growth",
                  "threshold": 32 * MB, "fraction": 4}]
            )
        )

        argv = ["slo", "check", "--trace", str(trace_path),
                "--slo-file", str(slo_path)]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert "violated" in out and "node:leaky" in out

        assert cli.main(argv + ["--warn-only"]) == 0
        out = capsys.readouterr().out
        assert "warn-only" in out

    def test_cli_check_all_no_data_exits_zero(self, capsys):
        from repro import cli

        assert cli.main(["slo", "check"]) == 0
        out = capsys.readouterr().out
        assert "no-data" in out

    def test_cli_check_metrics_file(self, tmp_path, capsys):
        from repro import cli

        metrics = tmp_path / "metrics.txt"
        metrics.write_text(exposition_with_latencies("study", [120.0] * 20))
        assert cli.main(["slo", "check", "--metrics", str(metrics)]) == 1
        out = capsys.readouterr().out
        assert "serve-study-p99" in out and "violated" in out

    def test_cli_check_missing_metrics_file_fails_loudly(self, tmp_path):
        from repro import cli

        with pytest.raises(SystemExit, match="no metrics exposition"):
            cli.main(["slo", "check", "--metrics", str(tmp_path / "absent.txt")])

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
        result = _one(
            evaluate_objectives(
                [self.leak_objective()], trace_records=[span] + samples
            )
        )
        assert result.violated
        assert "node:attributed" in result.detail
