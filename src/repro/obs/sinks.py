"""Span sinks: where finished trace spans go.

A sink receives one JSON-serialisable span record per finished span (see
:mod:`repro.obs.span` for the record shape).  Three implementations
cover the subsystem's needs:

* :class:`NullSink` -- swallows everything; the disabled-tracing path
  never reaches a sink at all, this exists for explicit plumbing;
* :class:`MemorySink` -- collects records in a list, for tests and for
  worker-side capture buffers;
* :class:`JsonlSink` -- on-disk trace log: one JSON line per record,
  appended with :func:`repro.fileio.append_line`, so a killed run tears
  at most its last line, which :func:`read_trace` skips and counts.
  Nothing is fsynced: power loss is not covered.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

from repro import fileio


class NullSink:
    """Discards every record."""

    def emit(self, record: dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Collects records in memory (tests, worker capture buffers)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends one JSON line per span record to ``path``.

    The file starts empty: one trace file describes one run.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        fileio.atomic_write(self.path, "")
        self._lock = threading.Lock()  # serve daemon threads share a sink
        self.emitted = 0

    def emit(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        fileio.append_line(self.path, line)
        with self._lock:
            self.emitted += 1

    def close(self) -> None:
        pass


def read_trace(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Span records from a JSONL trace file, plus the count of torn or
    corrupt lines skipped (wherever they are; later records still load)."""
    return fileio.read_jsonl(path)
