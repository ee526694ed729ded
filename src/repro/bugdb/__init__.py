"""Bug-report data model, databases, and archive formats.

This package is the substrate the fault study runs on: a structured
:class:`~repro.bugdb.model.BugReport` record matching the fields the paper
relies on (severity, version, symptoms, the "How To Repeat" field,
developer comments, fix information), an indexed in-memory
:class:`~repro.bugdb.database.BugDatabase` with a small query engine, and
writers/parsers for the three on-line archive formats the paper mined:

* GNATS-style bug dumps (Apache, ``bugs.apache.org``),
* debbugs-style report logs (GNOME, ``bugs.gnome.org``),
* RFC-822 mbox mailing-list archives (MySQL, geocrawler archives).
"""

from repro.bugdb.enums import (
    Application,
    FaultClass,
    Resolution,
    Severity,
    Status,
    Symptom,
    TriggerKind,
)
from repro.bugdb.model import BugReport, Comment, TriggerEvidence
from repro.bugdb.database import BugDatabase
from repro.bugdb.query import Query
from repro.bugdb.textindex import TextIndex
from repro.bugdb.segments import (
    CompactionStats,
    SegmentedTextIndex,
    SegmentInfo,
    segment_from_index,
)
from repro.bugdb.jsonstore import dump_database, load_database

__all__ = [
    "CompactionStats",
    "SegmentInfo",
    "SegmentedTextIndex",
    "segment_from_index",
    "TextIndex",
    "dump_database",
    "load_database",
    "Application",
    "BugDatabase",
    "BugReport",
    "Comment",
    "FaultClass",
    "Query",
    "Resolution",
    "Severity",
    "Status",
    "Symptom",
    "TriggerEvidence",
    "TriggerKind",
]
