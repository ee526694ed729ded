"""Tests for the inverted text index."""

from repro.bugdb.textindex import TextIndex
from repro.mining.keywords import KeywordMatcher, MYSQL_STUDY_KEYWORDS


class TestTextIndex:
    def build(self):
        index = TextIndex()
        index.add("d1", "the server crashed during startup")
        index.add("d2", "question about LEFT JOIN syntax")
        index.add("d3", "a race between two threads; crashes often")
        index.add("d4", "the stack trace shows nothing")
        return index

    def test_exact_lookup(self):
        index = self.build()
        assert index.lookup("crashed") == {"d1"}
        assert index.lookup("server") == {"d1"}
        assert index.lookup("missing") == set()

    def test_lookup_is_case_insensitive(self):
        index = self.build()
        assert index.lookup("LEFT") == {"d2"}

    def test_prefix_lookup(self):
        index = self.build()
        assert index.lookup_prefix("crash") == {"d1", "d3"}

    def test_prefix_does_not_cross_word_boundaries(self):
        # "trace" contains "race" but the token is "trace", so a "race"
        # prefix query must not match d4.
        index = self.build()
        assert index.lookup_prefix("race") == {"d3"}

    def test_search_any(self):
        index = self.build()
        assert index.search_any(("crash", "race")) == {"d1", "d3"}

    def test_search_all(self):
        index = self.build()
        assert index.search_all(("race", "crash")) == {"d3"}
        assert index.search_all(("race", "join")) == set()

    def test_search_all_empty_keywords(self):
        assert self.build().search_all(()) == set()

    def test_counts(self):
        index = self.build()
        assert index.document_count == 4
        assert index.token_count > 0

    def test_incremental_add_after_prefix_query(self):
        index = self.build()
        assert index.lookup_prefix("crash") == {"d1", "d3"}
        index.add("d5", "another crashing report")
        assert index.lookup_prefix("crash") == {"d1", "d3", "d5"}

    def test_agrees_with_keyword_matcher_on_archive(self, mysql):
        """Index-based search finds the same messages as the linear scan."""
        from repro.corpus.render import mysql_raw_archive
        from repro.bugdb import mbox

        messages = mbox.parse_archive(mysql_raw_archive(mysql, total_messages=1200))
        matcher = KeywordMatcher(MYSQL_STUDY_KEYWORDS)
        index = TextIndex()
        linear_hits = set()
        for message in messages:
            text = message.subject + "\n" + message.body
            index.add(message.message_id, text)
            if matcher.matches(text):
                linear_hits.add(message.message_id)
        assert index.search_any(MYSQL_STUDY_KEYWORDS) == linear_hits


class TestSortedTokenCache:
    def test_add_existing_token_does_not_invalidate(self):
        index = TextIndex()
        index.add("d1", "server crashed")
        assert index.lookup_prefix("serv") == {"d1"}
        cache = index._sorted_tokens
        index.add("d2", "crashed server")  # no new tokens
        assert index._sorted_tokens is cache
        assert index.lookup_prefix("serv") == {"d1", "d2"}

    def test_new_token_inserted_into_live_cache(self):
        index = TextIndex()
        index.add("d1", "server crashed")
        assert index.lookup_prefix("serv") == {"d1"}
        cache = index._sorted_tokens
        index.add("d2", "assertion tripped")
        # the cache object is extended in place, never rebuilt
        assert index._sorted_tokens is cache
        assert index._sorted_tokens == sorted(index._postings)
        assert index.lookup_prefix("assert") == {"d2"}

    def test_iter_postings_sorted_and_complete(self):
        index = TextIndex()
        index.add(1, "zebra apple")
        index.add(0, "apple mango")
        postings = list(index.iter_postings())
        assert [token for token, _ in postings] == ["apple", "mango", "zebra"]
        assert dict(postings)["apple"] == [0, 1]


class TestListPostings:
    """Postings are append-only lists; every reader dedupes them."""

    def test_iter_postings_sorted_unique_after_out_of_order_adds(self):
        index = TextIndex()
        for doc_id in (5, 2, 9, 2, 0, 5):
            index.add(doc_id, "crash report")
        assert dict(index.iter_postings()) == {
            "crash": [0, 2, 5, 9],
            "report": [0, 2, 5, 9],
        }
        assert index.document_count == 4

    def test_repeated_add_of_one_document_posts_once(self):
        index = TextIndex()
        index.add(3, "server crashed")
        index.add(3, "server crashed again")
        assert index._postings["server"] == [3]
        assert dict(index.iter_postings()) == {
            "again": [3],
            "crashed": [3],
            "server": [3],
        }

    def test_lookups_return_fresh_sets(self):
        index = TextIndex()
        index.add(1, "crash")
        hits = index.lookup("crash")
        hits.add(99)
        assert index.lookup("crash") == {1}
        prefix_hits = index.lookup_prefix("cr")
        prefix_hits.add(99)
        assert index.lookup_prefix("cr") == {1}
