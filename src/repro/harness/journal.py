"""JSONL run journal: resumable campaign persistence.

Every completed work unit is appended to the journal as one JSON line
(one :func:`repro.fileio.append_line` write), so a killed campaign loses
at most the units in flight and tears at most its last line; nothing is
fsynced, so power loss is not covered.  On resume the engine loads the
journal, skips every unit whose content key already has a record, and
appends the rest to the same file -- the final report is identical to
an uninterrupted run.

The first line is a header carrying campaign metadata (kind, technique,
seed, scope), which lets ``repro campaign resume`` rebuild the unit
stream from the journal alone.  Loading skips and counts a torn or
corrupt line anywhere (:func:`repro.fileio.read_jsonl`), never fatal.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Any, Mapping

from repro import fileio

JOURNAL_MAGIC = "repro.harness.journal"
JOURNAL_VERSION = 1


@dataclasses.dataclass(frozen=True)
class JournalContents:
    """A loaded journal: header metadata plus completed-unit records."""

    meta: dict[str, Any]
    records: dict[str, dict[str, Any]]  # unit key -> record
    skipped_lines: int

    @property
    def completed(self) -> int:
        return len(self.records)


def load_journal(path: str | os.PathLike[str]) -> JournalContents:
    """Load a journal file, skipping and counting torn or corrupt lines.

    Returns:
        The header metadata (empty dict if the header is missing or
        unreadable) and a ``key -> record`` map; later records win on
        duplicate keys, so a unit journaled twice is counted once.
    """
    entries, skipped = fileio.read_jsonl(path)
    meta: dict[str, Any] = {}
    records: dict[str, dict[str, Any]] = {}
    for index, entry in enumerate(entries):
        if entry.get("type") == "header":
            if index == 0 and entry.get("journal") == JOURNAL_MAGIC:
                meta = entry.get("meta", {})
            continue
        if entry.get("type") == "unit" and "key" in entry:
            records[entry["key"]] = entry
        else:
            skipped += 1
    return JournalContents(meta=meta, records=records, skipped_lines=skipped)


class JournalWriter:
    """Append-only JSONL writer: one unbuffered write per line.

    Args:
        path: the journal file; created (with a header) when missing,
            appended to when present.
        meta: campaign metadata for the header of a new journal.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.path = os.fspath(path)
        if not (os.path.exists(self.path) and os.path.getsize(self.path) > 0):
            self._write_line(
                {
                    "type": "header",
                    "journal": JOURNAL_MAGIC,
                    "version": JOURNAL_VERSION,
                    "created": time.time(),
                    "meta": dict(meta or {}),
                }
            )

    def _write_line(self, entry: dict[str, Any]) -> None:
        fileio.append_line(self.path, json.dumps(entry, sort_keys=True))

    def append(
        self,
        key: str,
        unit: Mapping[str, Any],
        result: Mapping[str, Any],
        *,
        wall_seconds: float = 0.0,
    ) -> None:
        """Journal one completed unit.

        Written to the OS on every append (not fsynced).
        """
        self._write_line(
            {
                "type": "unit",
                "key": key,
                "unit": dict(unit),
                "result": dict(result),
                "wall_ms": round(wall_seconds * 1000.0, 3),
            }
        )

    def close(self) -> None:
        """Nothing to release: every append opens and closes the file."""

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
