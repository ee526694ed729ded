"""On-disk I/O: one JSONL append, one skip-and-count reader, one atomic write.

Journals and traces are JSONL logs appended with :func:`append_line`
and read with :func:`read_jsonl`; memo-cache entries, live snapshots
and the segment manifest are replaced whole with :func:`atomic_write`.
Callers own encoding and record validation.

A killed process tears at most its last appended line, which readers
skip and count.  Nothing is fsynced, so power loss is not covered.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable


def append_line(path: str | os.PathLike[str], line: str) -> None:
    """Append one encoded line (without its newline) to a JSONL log.

    One ``os.write`` to an ``O_APPEND`` descriptor, so concurrent
    appenders interleave whole lines.  The log is created when missing.
    """
    handle = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        data = memoryview((line + "\n").encode("utf-8"))
        while data:  # one write; more only to finish a short (disk-full) write
            data = data[os.write(handle, data):]
    finally:
        os.close(handle)


def read_jsonl(path: str | os.PathLike[str]) -> tuple[list[dict[str, Any]], int]:
    """Every dict line of a JSONL file, plus the count of lines skipped.

    An undecodable or non-dict line anywhere is skipped and counted,
    never a reason to stop; blank lines are ignored.  A missing file
    raises ``FileNotFoundError``.
    """
    records: list[dict[str, Any]] = []
    skipped = 0
    with open(path, "rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:  # bad JSON or bad UTF-8
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped


def atomic_write(path: str | os.PathLike[str], text: str | Iterable[str]) -> None:
    """Replace ``path`` with ``text`` via a unique temp file and one rename.

    ``text`` is one string or a sequence of pieces written in order
    through the one text stream, so a large file made of pieces is never
    joined into one copy first.  Readers see the old contents or the
    new, never a mix.  The parent is created when missing; the file gets
    ``mkstemp``'s mode (0600).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            for piece in (text,) if isinstance(text, str) else text:
                stream.write(piece)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
