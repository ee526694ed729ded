"""Per-application archive format descriptors for the fast archive path.

An :class:`ArchiveFormat` bundles everything the pipeline needs to treat
one application's 1999-style archive uniformly: how to render it from a
curated corpus, how to split it into per-record chunks (cheaply, without
parsing), how to parse one chunk, how to mine the parsed records, and
how to serialize records for the content-addressed cache.

Version tags are part of every cache key: bump ``parser_version`` when
parse output changes shape or semantics, ``miner_version`` when the
narrowing changes, and stale entries become unreachable (content-
addressed stores never serve a mixed-version entry).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.bugdb import debbugs, gnats, mbox
from repro.bugdb.enums import Application
from repro.bugdb.textindex import TextIndex
from repro.corpus.render import (
    apache_raw_archive,
    gnome_raw_archive,
    mysql_raw_archive,
)
from repro.corpus.studyspec import StudyCorpus
from repro.mining import mine_apache, mine_gnome, mine_mysql
from repro.mining.gnome import GNOME_STUDY_COMPONENTS
from repro.mining.mysql import message_search_text
from repro.mining.pipeline import MiningResult
from repro.pipeline import records as _records


@dataclasses.dataclass(frozen=True)
class ArchiveFormat:
    """Everything the pipeline needs to know about one archive format.

    Attributes:
        application: the application this format belongs to.
        parser_version: cache tag component; bump on parse changes.
        miner_version: cache tag component; bump on mining changes.
        render: ``(corpus, scale) -> archive text``.
        split: ``archive text -> per-record chunks`` (cheap boundary
            scan; no record parsing).
        parse_record: ``chunk -> record``; applying it to every chunk of
            :meth:`split` is, by construction, the serial
            ``parse_archive`` reference path.
        mine: ``(records, index) -> MiningResult``; ``index`` is a
            positional :class:`TextIndex` or None (only the MySQL miner
            uses one).
        record_to_dict / record_from_dict: JSON codec for cached parse
            entries (the raw parsed records).
        item_to_dict / item_from_dict: JSON codec for cached mine
            entries.  Mined items are always :class:`~repro.bugdb.model.
            BugReport` -- even for MySQL, whose *records* are mail
            messages but whose miner folds threads into reports.
        index_text: when set, the text to index per record -- the
            parse driver can then stage per-range segments of an
            on-disk index as a parse by-product.
        boundary_marker: the record-boundary marker :attr:`split` cuts
            on, as text -- lets :mod:`repro.pipeline.streamsplit` find
            the same boundaries as byte offsets, so the parse driver can
            shard an archive into byte ranges.  None means the format
            cannot go through the driver.
        boundary_line_anchored: the marker only counts at a line start
            (mbox ``^From ``); False means plain substring semantics
            (gnats/debbugs ``str.split``).
    """

    application: Application
    parser_version: str
    miner_version: str
    render: Callable[[StudyCorpus, int | None], str]
    split: Callable[[str], list[str]]
    parse_record: Callable[[str], Any]
    mine: Callable[[list[Any], TextIndex | None], MiningResult]
    record_to_dict: Callable[[Any], dict[str, Any]]
    record_from_dict: Callable[[dict[str, Any]], Any]
    item_to_dict: Callable[[Any], dict[str, Any]] = _records.report_to_dict
    item_from_dict: Callable[[dict[str, Any]], Any] = _records.report_from_dict
    index_text: Callable[[Any], str] | None = None
    boundary_marker: str | None = None
    boundary_line_anchored: bool = False

    @property
    def parse_tag(self) -> str:
        """Cache tag for parsed-archive entries."""
        return f"parse.{self.application.value}.v{self.parser_version}"

    @property
    def mine_tag(self) -> str:
        """Cache tag for mined-result entries."""
        return (
            f"mine.{self.application.value}"
            f".p{self.parser_version}.m{self.miner_version}"
        )

    def parse(self, text: str) -> list[Any]:
        """Serial reference parse: split then parse every chunk."""
        return [self.parse_record(chunk) for chunk in self.split(text)]


def _render_apache(corpus: StudyCorpus, scale: int | None) -> str:
    return apache_raw_archive(corpus, total_reports=scale)


def _render_gnome(corpus: StudyCorpus, scale: int | None) -> str:
    return gnome_raw_archive(
        corpus, total_reports=scale, study_components=GNOME_STUDY_COMPONENTS
    )


def _render_mysql(corpus: StudyCorpus, scale: int | None) -> str:
    return mysql_raw_archive(corpus, total_messages=scale)


def _mine_apache(records: list[Any], index: TextIndex | None) -> MiningResult:
    return mine_apache(records)


def _mine_gnome(records: list[Any], index: TextIndex | None) -> MiningResult:
    return mine_gnome(records)


def _mine_mysql(records: list[Any], index: TextIndex | None) -> MiningResult:
    return mine_mysql(records, index=index)


FORMATS: dict[Application, ArchiveFormat] = {
    Application.APACHE: ArchiveFormat(
        application=Application.APACHE,
        parser_version="1",
        miner_version="1",
        render=_render_apache,
        split=gnats.split_archive,
        parse_record=gnats.parse_pr,
        mine=_mine_apache,
        record_to_dict=_records.report_to_dict,
        record_from_dict=_records.report_from_dict,
        boundary_marker="=" * 72,
    ),
    Application.GNOME: ArchiveFormat(
        application=Application.GNOME,
        parser_version="1",
        miner_version="1",
        render=_render_gnome,
        split=debbugs.split_archive,
        parse_record=debbugs.parse_report,
        mine=_mine_gnome,
        record_to_dict=_records.report_to_dict,
        record_from_dict=_records.report_from_dict,
        boundary_marker="\x0c",
    ),
    Application.MYSQL: ArchiveFormat(
        application=Application.MYSQL,
        parser_version="1",
        miner_version="1",
        render=_render_mysql,
        split=mbox.split_archive,
        parse_record=mbox.parse_message,
        mine=_mine_mysql,
        record_to_dict=_records.message_to_dict,
        record_from_dict=_records.message_from_dict,
        index_text=message_search_text,
        boundary_marker="From ",
        boundary_line_anchored=True,
    ),
}


def format_for(application: Application) -> ArchiveFormat:
    """The archive format descriptor for ``application``."""
    return FORMATS[application]
