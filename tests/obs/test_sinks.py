"""Sink behaviour, especially torn-line tolerance of JSONL traces."""

import json

import pytest

from repro.obs import JsonlSink, MemorySink, read_trace


def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    sink.emit({"name": "a", "start": 1.0})
    sink.emit({"name": "b", "start": 2.0})
    sink.close()
    assert sink.emitted == 2
    records, skipped = read_trace(path)
    assert [r["name"] for r in records] == ["a", "b"]
    assert skipped == 0


def test_jsonl_sink_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "trace.jsonl"
    sink = JsonlSink(path)
    sink.emit({"name": "x"})
    sink.close()
    assert read_trace(path) == ([{"name": "x"}], 0)


def test_jsonl_sink_truncates_an_existing_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"name": "old"}\n', encoding="utf-8")
    sink = JsonlSink(path)
    sink.emit({"name": "new"})
    sink.close()
    assert read_trace(path) == ([{"name": "new"}], 0)


def test_read_trace_tolerates_truncated_tail(tmp_path):
    """A killed writer leaves a partial last line; reads keep the prefix."""
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    for index in range(3):
        sink.emit({"name": f"span{index}"})
    sink.close()
    intact = path.read_text(encoding="utf-8")
    # Chop the last line mid-record, as a crash mid-write would.
    path.write_text(intact[: intact.rfind('"name"') + 3], encoding="utf-8")
    records, skipped = read_trace(path)
    assert [r["name"] for r in records] == ["span0", "span1"]
    assert skipped == 1


def test_read_trace_skips_and_counts_corrupt_line(tmp_path):
    """A torn line mid-file hides nothing after it: skipped and counted."""
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps({"name": "good"}), "{not json", json.dumps({"name": "after"})]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records, skipped = read_trace(path)
    assert [r["name"] for r in records] == ["good", "after"]
    assert skipped == 1


def test_read_trace_counts_non_object_and_binary_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b'{"name": "a"}\n[1, 2]\n\n\xff\xfe{\n{"name": "b"}\n')
    records, skipped = read_trace(path)
    assert [r["name"] for r in records] == ["a", "b"]
    assert skipped == 2


def test_read_trace_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_trace(tmp_path / "nope.jsonl")


def test_memory_sink_accumulates_in_order():
    sink = MemorySink()
    sink.emit({"n": 1})
    sink.emit({"n": 2})
    sink.close()
    assert [r["n"] for r in sink.records] == [1, 2]
