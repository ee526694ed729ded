"""Index-backed keyword prefilter vs. the linear-scan oracle.

The MySQL miner narrows ~44,000 messages through keyword matching; the
miner prefilters through an inverted index before confirming with the
same regex matcher.  A linear :class:`KeywordMatcher` scan, defined
here, is the verification oracle: on the paper's full-scale archive
both must select exactly the same messages and mine exactly the same
bugs.  (The benchmark suite measures the speed; *this* test pins the
equivalence.)
"""

import datetime

import pytest

from repro.bugdb import mbox
from repro.corpus.render import mysql_raw_archive
from repro.mining import group_threads, mine_mysql
from repro.mining.keywords import KeywordMatcher, MYSQL_STUDY_KEYWORDS
from repro.mining.mysql import (
    build_message_index,
    keyword_matching_messages,
    message_search_text,
)


def linear_matching_messages(messages, matcher):
    """The reference scan: every message, regex-matched, in archive order."""
    return [
        message for message in messages
        if matcher.matches(message_search_text(message))
    ]


class EveryPosition:
    """An "index" whose prefilter keeps every message, which turns the
    miner's keyword stage into the linear reference scan."""

    def __init__(self, messages):
        self._positions = range(len(messages))

    def search_any(self, keywords):
        return self._positions


@pytest.fixture(scope="module")
def full_scale_messages(mysql):
    """The paper's full ~44,000-message archive, parsed once."""
    return mbox.parse_archive(mysql_raw_archive(mysql, total_messages=None))


class TestFullArchiveEquivalence:
    def test_archive_is_full_scale(self, full_scale_messages):
        assert len(full_scale_messages) >= 44000

    def test_index_hit_set_equals_linear_scan(self, full_scale_messages):
        matcher = KeywordMatcher(MYSQL_STUDY_KEYWORDS)
        linear = linear_matching_messages(full_scale_messages, matcher)
        index = build_message_index(full_scale_messages)
        indexed = keyword_matching_messages(
            full_scale_messages, matcher, index=index
        )
        assert indexed == linear

    def test_mining_with_and_without_index_is_identical(self, full_scale_messages):
        with_index = mine_mysql(full_scale_messages)
        without_index = mine_mysql(
            full_scale_messages, index=EveryPosition(full_scale_messages)
        )
        assert with_index.items == without_index.items
        assert with_index.trace.as_rows() == without_index.trace.as_rows()
        assert len(with_index.items) == 44

    def test_prebuilt_index_matches_internally_built_one(self, full_scale_messages):
        index = build_message_index(full_scale_messages)
        prebuilt = mine_mysql(full_scale_messages, index=index)
        internal = mine_mysql(full_scale_messages)
        assert prebuilt.items == internal.items
        assert prebuilt.trace.as_rows() == internal.trace.as_rows()

    def test_prebuilt_threads_match_internally_grouped_ones(
        self, full_scale_messages
    ):
        threads = group_threads(full_scale_messages)
        prebuilt = mine_mysql(full_scale_messages, threads=threads)
        internal = mine_mysql(full_scale_messages)
        assert prebuilt.items == internal.items
        assert prebuilt.trace.as_rows() == internal.trace.as_rows()


class TestPrefilterIsSuperset:
    """The index prefilter may only ever over-select, never under-select.

    Index tokens split on ``[a-z0-9]+`` while the regex matcher allows
    ``\\w*`` suffixes (underscores included), so every regex hit is
    token-prefix-reachable; the regex confirm then trims the surplus.
    """

    def test_candidates_cover_every_linear_hit(self, full_scale_messages):
        matcher = KeywordMatcher(MYSQL_STUDY_KEYWORDS)
        index = build_message_index(full_scale_messages)
        candidates = index.search_any(matcher.keywords)
        for position, message in enumerate(full_scale_messages):
            if matcher.matches(message_search_text(message)):
                assert position in candidates

    def test_underscore_compounds_stay_covered(self):
        # "crash_me" is a regex hit ("crash" + \w* suffix) but tokenizes
        # as two index tokens; the prefix lookup must still surface it.
        messages = [
            mbox.MailMessage(
                message_id="m1@x",
                sender="a@x",
                date=datetime.date(1999, 1, 1),
                subject="the crash_me script fails",
                body="running crash_me against 3.22",
            )
        ]
        matcher = KeywordMatcher(MYSQL_STUDY_KEYWORDS)
        linear = linear_matching_messages(messages, matcher)
        indexed = keyword_matching_messages(
            messages, matcher, index=build_message_index(messages)
        )
        assert indexed == linear == messages
