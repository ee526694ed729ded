"""Chrome trace_event export and trace summaries."""

import json

from repro import obs
from repro.obs import chrome_trace, summarize_trace
from repro.obs.sinks import MemorySink


def _toy_records():
    sink = MemorySink()
    with obs.tracing(sink):
        with obs.span("study.run"):
            with obs.span("wave", index=1):
                with obs.span("unit:echo"):
                    pass
            with obs.span("wave", index=2):
                pass
    return sink.records


def test_export_is_valid_json_with_one_event_per_span():
    records = _toy_records()
    payload = chrome_trace(records)
    json.loads(json.dumps(payload))  # round-trips as plain JSON
    events = payload["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert len(complete) == len(records)
    assert len(metadata) == 1  # one recording process
    assert metadata[0]["args"]["name"] == "repro (main)"
    assert payload["displayTimeUnit"] == "ms"


def test_ts_and_dur_are_rebased_microseconds():
    records = _toy_records()
    payload = chrome_trace(records)
    complete = {
        (e["name"], e["args"]["span_id"]): e
        for e in payload["traceEvents"]
        if e["ph"] == "X"
    }
    epoch = min(r["start"] for r in records)
    for record in records:
        event = complete[(record["name"], record["span_id"])]
        expected_ts = (record["start"] - epoch) * 1_000_000
        expected_dur = (record["end"] - record["start"]) * 1_000_000
        assert abs(event["ts"] - expected_ts) < 0.01
        assert abs(event["dur"] - expected_dur) < 0.01
        assert event["ts"] >= 0
        assert event["dur"] >= 0
    # Complete events are timestamp-sorted.
    ts_values = [e["ts"] for e in payload["traceEvents"] if e["ph"] == "X"]
    assert ts_values == sorted(ts_values)


def test_export_carries_hierarchy_in_args():
    records = _toy_records()
    by_name = {r["name"]: r for r in records if r["name"].startswith("unit")}
    payload = chrome_trace(records)
    [unit_event] = [
        e for e in payload["traceEvents"] if e.get("name") == "unit:echo"
    ]
    assert unit_event["cat"] == "unit"
    assert unit_event["args"]["span_id"] == by_name["unit:echo"]["span_id"]
    assert unit_event["args"]["parent_id"] == by_name["unit:echo"]["parent_id"]


def _span(name, span_id, start, end, pid, parent_id=None):
    return {
        "name": name, "span_id": span_id, "parent_id": parent_id,
        "trace_id": "t", "start": start, "end": end, "pid": pid,
    }


def test_one_process_name_per_pid():
    records = [
        _span("unit:a", "a", 2.0, 3.0, pid=30, parent_id="w"),
        _span("study.run", "r", 1.0, 9.0, pid=20),
        _span("wave", "w", 1.5, 8.0, pid=20, parent_id="r"),
        _span("unit:b", "b", 2.5, 4.0, pid=10, parent_id="w"),
        _span("unit:c", "c", 5.0, 6.0, pid=30, parent_id="w"),
    ]
    events = chrome_trace(records)["traceEvents"]
    labels = {
        e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"
    }
    assert len([e for e in events if e["ph"] == "M"]) == 3
    # The earliest span's process is the dispatcher, whatever its pid.
    assert labels == {
        20: "repro (main)",
        10: "repro worker 10",
        30: "repro worker 30",
    }


def test_orphaned_span_exports_as_one_event():
    records = [
        _span("study.run", "r", 0.0, 10.0, pid=1),
        _span("unit:lost", "u", 1.0, 5.0, pid=2, parent_id="gone"),
    ]
    [orphan] = [
        e for e in chrome_trace(records)["traceEvents"]
        if e["ph"] == "X" and e["name"] == "unit:lost"
    ]
    assert orphan["args"]["parent_id"] == "gone"
    assert orphan["ts"] == 1_000_000.0
    assert orphan["dur"] == 4_000_000.0


def test_export_of_empty_trace():
    assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


def test_summary_attribution_and_coverage():
    records = _toy_records()
    summary = summarize_trace(records, top=2)
    assert summary.spans == 4
    assert summary.processes == 1
    assert summary.root["name"] == "study.run"
    assert 0.0 < summary.coverage <= 1.0
    phases = {stats.name for stats in summary.phases}
    assert {"study.run", "wave", "unit"} <= phases
    assert len(summary.slowest) == 2
    assert summary.slowest[0]["name"] == "study.run"
    wave = next(stats for stats in summary.phases if stats.name == "wave")
    assert wave.count == 2
    assert wave.total_seconds >= wave.max_seconds


def test_summary_of_empty_trace():
    summary = summarize_trace([])
    assert summary.spans == 0
    assert summary.root is None
    assert summary.coverage == 0.0
    assert summary.phases == []
