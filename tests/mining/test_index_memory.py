"""The positional MySQL index holds each posting compactly.

Postings are append-only lists of message positions.  With one Python
set per token the 44,000-message archive's index retained about 77
bytes a posting (64.6 MB); as lists it is under 18.  The bound below
sits between the two, on a small archive so the test stays fast.
"""

import gc
import tracemalloc

from repro.bugdb import mbox
from repro.corpus.render import mysql_raw_archive
from repro.mining.mysql import build_message_index

#: Retained bytes per (token, message) posting the index may hold.
MAX_BYTES_PER_POSTING = 32


def test_index_retains_at_most_32_bytes_per_posting(mysql):
    messages = mbox.parse_archive(mysql_raw_archive(mysql, total_messages=3000))
    assert len(messages) >= 3000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build_message_index(messages)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    postings = sum(len(ids) for _, ids in index.iter_postings())
    assert postings > 50_000
    assert retained / postings <= MAX_BYTES_PER_POSTING, (
        f"{retained} bytes for {postings} postings"
    )
