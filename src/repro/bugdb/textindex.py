"""Inverted text index for large archives.

The MySQL archive holds ~44,000 messages; scanning every message body
per keyword query is what the paper's authors effectively did by hand,
but a library should do better.  :class:`TextIndex` builds an inverted
index (token -> document ids) with the same word-boundary semantics as
:class:`~repro.mining.keywords.KeywordMatcher`, supporting prefix
queries so ``crash`` finds ``crashed`` and ``crashes``.

Postings are append-only lists, not sets: documents are almost always
added in ascending id order, so a list whose last entry is the current
document already says "seen" and an append is all a new posting costs
(about 18 bytes a posting on the 44k-message archive, against 77 for a
set).  Readers dedupe: :meth:`TextIndex.lookup` returns a set and
:meth:`TextIndex.iter_postings` sorts and dedupes each list.
"""

from __future__ import annotations

import bisect
import re
from typing import Generic, Hashable, Iterable, TypeVar

_TOKEN = re.compile(r"[a-z0-9]+")

DocId = TypeVar("DocId", bound=Hashable)


class TextIndex(Generic[DocId]):
    """An inverted index over (doc_id, text) pairs.

    Tokens are lowercased alphanumeric runs; queries match whole tokens
    or token prefixes.
    """

    def __init__(self):
        self._postings: dict[str, list[DocId]] = {}
        self._sorted_tokens: list[str] | None = None
        self._doc_ids: set[DocId] = set()

    @property
    def document_count(self) -> int:
        """Number of distinct indexed documents."""
        return len(self._doc_ids)

    @property
    def token_count(self) -> int:
        """Number of distinct tokens."""
        return len(self._postings)

    def add(self, doc_id: DocId, text: str) -> None:
        """Index one document (repeat calls extend the same document).

        The sorted-token cache behind prefix queries survives adds that
        introduce no new token; a genuinely new token is inserted into
        the cache in place, so interleaved add/query workloads never
        rebuild the full sorted list.
        """
        self._doc_ids.add(doc_id)
        for token in set(_TOKEN.findall(text.lower())):
            postings = self._postings.get(token)
            if postings is not None:
                if postings[-1] != doc_id:
                    postings.append(doc_id)
                continue
            self._postings[token] = [doc_id]
            if self._sorted_tokens is not None:
                bisect.insort(self._sorted_tokens, token)

    def add_all(self, documents: Iterable[tuple[DocId, str]]) -> None:
        """Index many (doc_id, text) pairs."""
        for doc_id, text in documents:
            self.add(doc_id, text)

    def iter_postings(self) -> Iterable[tuple[str, list[DocId]]]:
        """``(token, sorted doc ids)`` pairs in ascending token order.

        This is the export surface segment writers consume
        (:mod:`repro.bugdb.segments`): every posting list is sorted, so
        dumping an index to an immutable on-disk segment is one linear
        pass.  Doc ids must be orderable (the segmented index uses
        ints).
        """
        for token in sorted(self._postings):
            yield token, sorted(set(self._postings[token]))

    def lookup(self, token: str) -> set[DocId]:
        """Documents containing the exact token."""
        return set(self._postings.get(token.lower(), ()))

    def lookup_prefix(self, prefix: str) -> set[DocId]:
        """Documents containing any token starting with ``prefix``."""
        prefix = prefix.lower()
        if self._sorted_tokens is None:
            self._sorted_tokens = sorted(self._postings)
        start = bisect.bisect_left(self._sorted_tokens, prefix)
        matched: set[DocId] = set()
        for index in range(start, len(self._sorted_tokens)):
            token = self._sorted_tokens[index]
            if not token.startswith(prefix):
                break
            matched.update(self._postings[token])
        return matched

    def search_any(self, keywords: Iterable[str], *, prefix: bool = True) -> set[DocId]:
        """Documents matching any keyword (prefix semantics by default).

        This mirrors the mining keyword filter: ``search_any(("crash",
        "race"))`` finds documents containing crash/crashed/crashes or
        race/races, but never 'trace' (tokens are whole words).
        """
        matched: set[DocId] = set()
        for keyword in keywords:
            if prefix:
                matched |= self.lookup_prefix(keyword)
            else:
                matched |= self.lookup(keyword)
        return matched

    def search_all(self, keywords: Iterable[str], *, prefix: bool = True) -> set[DocId]:
        """Documents matching every keyword."""
        result: set[DocId] | None = None
        for keyword in keywords:
            hits = self.lookup_prefix(keyword) if prefix else self.lookup(keyword)
            result = hits if result is None else (result & hits)
            if not result:
                return set()
        return result or set()
