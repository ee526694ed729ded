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


class TestMerge:
    def test_merge_combines_postings(self):
        left = TextIndex()
        left.add("d1", "server crashed")
        right = TextIndex()
        right.add("d2", "another crash; a race too")
        left.merge(right)
        assert left.lookup("crashed") == {"d1"}
        assert left.lookup("crash") == {"d2"}
        assert left.lookup("race") == {"d2"}

    def test_merge_equals_serial_indexing(self):
        texts = [
            "server crashed during startup",
            "question about LEFT JOIN",
            "a race between threads",
            "segmentation fault in the parser",
        ]
        serial = TextIndex()
        for position, text in enumerate(texts):
            serial.add(position, text)
        left, right = TextIndex(), TextIndex()
        for position, text in enumerate(texts):
            (left if position < 2 else right).add(position, text)
        left.merge(right)
        assert left.document_count == serial.document_count
        assert left.search_any(MYSQL_STUDY_KEYWORDS) == (
            serial.search_any(MYSQL_STUDY_KEYWORDS)
        )
        for token in ("server", "race", "segmentation", "join"):
            assert left.lookup_prefix(token) == serial.lookup_prefix(token)

    def test_prefix_queries_see_merged_tokens(self):
        # merge must invalidate the sorted-token cache built by an
        # earlier prefix query.
        left = TextIndex()
        left.add("d1", "server crashed")
        assert left.lookup_prefix("crash") == {"d1"}
        right = TextIndex()
        right.add("d2", "crashing again")
        left.merge(right)
        assert left.lookup_prefix("crash") == {"d1", "d2"}

    def test_merge_empty_index_is_a_no_op(self):
        index = TextIndex()
        index.add("d1", "server crashed")
        index.merge(TextIndex())
        assert index.document_count == 1
        assert index.lookup("crashed") == {"d1"}

    def test_merge_never_double_counts_shared_doc_ids(self):
        # both sides indexed the same document (e.g. a record on a shard
        # boundary); the merged count is distinct documents, not a sum.
        left, right = TextIndex(), TextIndex()
        left.add("d1", "server crashed")
        left.add("d2", "race condition")
        right.add("d2", "race condition")
        right.add("d3", "deadlock found")
        left.merge(right)
        assert left.document_count == 3
        assert left.lookup("race") == {"d2"}

    def test_merge_with_no_new_tokens_keeps_prefix_cache(self):
        left, right = TextIndex(), TextIndex()
        left.add("d1", "server crashed")
        right.add("d2", "server crashed")
        assert left.lookup_prefix("crash") == {"d1"}
        cache = left._sorted_tokens
        assert cache is not None
        left.merge(right)
        # same token set: the sorted cache survives and stays correct
        assert left._sorted_tokens is cache
        assert left.lookup_prefix("crash") == {"d1", "d2"}


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

    def test_merge_with_overlapping_ids(self):
        left, right = TextIndex(), TextIndex()
        left.add(1, "crash race")
        left.add(4, "crash")
        right.add(4, "crash died")
        right.add(2, "race")
        left.merge(right)
        assert dict(left.iter_postings()) == {
            "crash": [1, 4],
            "died": [4],
            "race": [1, 2],
        }
        assert left.lookup("crash") == {1, 4}
        assert left.lookup_prefix("r") == {1, 2}
        assert left.document_count == 3

    def test_lookups_return_fresh_sets(self):
        index = TextIndex()
        index.add(1, "crash")
        hits = index.lookup("crash")
        hits.add(99)
        assert index.lookup("crash") == {1}
        prefix_hits = index.lookup_prefix("cr")
        prefix_hits.add(99)
        assert index.lookup_prefix("cr") == {1}
