"""Tests for the append-only JSONL journal."""

import json

import pytest

from repro.harness import JournalWriter, WorkUnit, load_journal


def _write_sample(path, count=3):
    units = [WorkUnit.build("replay", f"F-{i}", seed=i) for i in range(count)]
    with JournalWriter(path, meta={"kind": "replay", "seed": 7}) as writer:
        for unit in units:
            writer.append(
                unit.key(), unit.to_dict(), {"survived": i_even(unit)},
                wall_seconds=0.001,
            )
    return units


def i_even(unit):
    return int(unit.fault_id.split("-")[1]) % 2 == 0


class TestRoundTrip:
    def test_header_and_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        units = _write_sample(path)
        contents = load_journal(path)
        assert contents.meta == {"kind": "replay", "seed": 7}
        assert contents.completed == 3
        assert contents.skipped_lines == 0
        for unit in units:
            record = contents.records[unit.key()]
            assert record["unit"] == unit.to_dict()
            assert record["result"] == {"survived": i_even(unit)}
            assert record["wall_ms"] == 1.0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_journal(tmp_path / "absent.jsonl")


class TestTruncationTolerance:
    def test_truncated_last_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_sample(path)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # cut into the last record
        contents = load_journal(path)
        assert contents.completed == 2
        assert contents.skipped_lines == 1

    def test_garbage_middle_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_sample(path)
        lines = path.read_text().splitlines()
        lines.insert(2, "{not json")
        path.write_text("\n".join(lines) + "\n")
        contents = load_journal(path)
        assert contents.completed == 3
        assert contents.skipped_lines == 1

    def test_duplicate_key_last_record_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        unit = WorkUnit.build("replay", "F-0", seed=0)
        with JournalWriter(path) as writer:
            writer.append(unit.key(), unit.to_dict(), {"survived": False})
            writer.append(unit.key(), unit.to_dict(), {"survived": True})
        contents = load_journal(path)
        assert contents.completed == 1
        assert contents.records[unit.key()]["result"]["survived"] is True


class TestAppendSemantics:
    def test_reopening_does_not_rewrite_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_sample(path, count=1)
        unit = WorkUnit.build("replay", "F-99", seed=99)
        with JournalWriter(path, meta={"kind": "other"}) as writer:
            writer.append(unit.key(), unit.to_dict(), {"survived": True})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        headers = [line for line in lines if line.get("type") == "header"]
        assert len(headers) == 1
        assert headers[0]["meta"] == {"kind": "replay", "seed": 7}
        assert load_journal(path).completed == 2
