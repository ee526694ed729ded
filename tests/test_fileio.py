"""The on-disk I/O module: line appends, skip-and-count reads, atomic writes."""

import os
import threading

import pytest

from repro import fileio


class TestAppendLine:
    def test_creates_then_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        fileio.append_line(path, '{"n": 1}')
        fileio.append_line(path, '{"n": 2}')
        assert path.read_text(encoding="utf-8") == '{"n": 1}\n{"n": 2}\n'

    def test_concurrent_threads_write_whole_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        line = "x" * 20_000

        def append_many():
            for _ in range(25):
                fileio.append_line(path, line)

        threads = [threading.Thread(target=append_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert path.read_text(encoding="utf-8").splitlines() == [line] * 100


class TestReadJsonl:
    def test_skips_and_counts_bad_lines_anywhere(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            b'{"n": 1}\n'
            b"{torn\n"  # undecodable JSON
            b"\n"  # blank: ignored, not counted
            b"[1, 2]\n"  # decodable but not a dict
            b"\xff\xfe\n"  # not UTF-8
            b'{"n": 2}\n'
            b'{"n": 3'  # torn last line, no newline
        )
        records, skipped = fileio.read_jsonl(path)
        assert records == [{"n": 1}, {"n": 2}]
        assert skipped == 4

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fileio.read_jsonl(tmp_path / "absent.jsonl")

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("", encoding="utf-8")
        assert fileio.read_jsonl(path) == ([], 0)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "sub" / "state.json"
        fileio.atomic_write(path, "first")
        fileio.atomic_write(path, "second")
        assert path.read_text(encoding="utf-8") == "second"
        assert os.listdir(path.parent) == ["state.json"]

    def test_pieces_are_written_in_order(self, tmp_path):
        path = tmp_path / "entry.json"
        pieces = ['{"data":', '"caf\u00e9"', "}"]
        fileio.atomic_write(path, iter(pieces))
        assert path.read_text(encoding="utf-8") == "".join(pieces)
        fileio.atomic_write(path, ())
        assert path.read_bytes() == b""

    def test_failure_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        fileio.atomic_write(path, "kept")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            fileio.atomic_write(path, "lost")
        assert path.read_text(encoding="utf-8") == "kept"
        assert os.listdir(tmp_path) == ["state.json"]

    def test_each_write_uses_a_fresh_temp_name(self, tmp_path, monkeypatch):
        """No fixed temp name, so two concurrent writers cannot clobber."""
        path = tmp_path / "manifest.json"
        seen = []
        real_replace = os.replace

        def record_then_replace(src, dst):
            seen.append(os.path.basename(src))
            real_replace(src, dst)

        monkeypatch.setattr(fileio.os, "replace", record_then_replace)
        fileio.atomic_write(path, "a")
        fileio.atomic_write(path, "b")
        assert len(set(seen)) == 2
        assert all(name.startswith("manifest.json") for name in seen)
