"""``group_threads`` against a frozen copy of its earlier implementation.

The oracle below is the grouping as it stood before threads computed
their root once at construction: the root was a property re-derived on
every access.  The current implementation must return the same threads,
holding the same message objects in the same order, with the same root.
"""

import dataclasses
import datetime

from repro.bugdb import mbox
from repro.bugdb.mbox import MailMessage
from repro.corpus.render import mysql_raw_archive
from repro.mining.threads import group_threads


@dataclasses.dataclass(frozen=True)
class OracleThread:
    messages: tuple[MailMessage, ...]

    @property
    def root(self) -> MailMessage:
        for message in self.messages:
            if not message.is_reply:
                return message
        return self.messages[0]


def oracle_group_threads(messages: list[MailMessage]) -> list[OracleThread]:
    parent: dict[str, str] = {}

    def find(node: str) -> str:
        root = node
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(left: str, right: str) -> None:
        left_root, right_root = find(left), find(right)
        if left_root != right_root:
            parent[right_root] = left_root

    by_id = {message.message_id: message for message in messages}
    subject_anchor: dict[str, str] = {}
    for message in messages:
        find(message.message_id)
        if message.in_reply_to and message.in_reply_to in by_id:
            union(message.in_reply_to, message.message_id)
        subject_key = message.normalized_subject.lower()
        if subject_key:
            anchor = subject_anchor.setdefault(subject_key, message.message_id)
            union(anchor, message.message_id)

    clusters: dict[str, list[MailMessage]] = {}
    for message in messages:
        clusters.setdefault(find(message.message_id), []).append(message)

    threads = [
        OracleThread(messages=tuple(sorted(cluster, key=lambda m: (m.date, m.message_id))))
        for cluster in clusters.values()
    ]
    threads.sort(key=lambda thread: (thread.root.date, thread.root.message_id))
    return threads


def assert_same_threads(messages: list[MailMessage]) -> None:
    got = group_threads(messages)
    want = oracle_group_threads(messages)
    assert len(got) == len(want)
    for thread, expected in zip(got, want):
        assert [id(m) for m in thread.messages] == [id(m) for m in expected.messages]
        assert thread.root is expected.root


def message(message_id, subject, *, day=1, in_reply_to=None, body="body"):
    return MailMessage(
        message_id=message_id,
        sender="u@x",
        date=datetime.date(1999, 5, day),
        subject=subject,
        body=body,
        in_reply_to=in_reply_to,
    )


def test_full_archive_equals_oracle(mysql):
    messages = mbox.parse_archive(mysql_raw_archive(mysql, total_messages=None))
    assert len(messages) >= 44000
    assert_same_threads(messages)


def test_duplicate_message_ids():
    assert_same_threads([
        message("dup@x", "server crashes", day=3),
        message("other@x", "unrelated question", day=1),
        message("dup@x", "Re: server crashes", day=2, body="second copy"),
        message("r@x", "Re: server crashes", day=4, in_reply_to="dup@x"),
    ])


def test_reply_whose_subject_changed():
    assert_same_threads([
        message("root@x", "server crashes", day=1),
        message("r1@x", "Re: server crashes", day=2, in_reply_to="root@x"),
        message("r2@x", "what I found in the core dump", day=3, in_reply_to="r1@x"),
        message("new@x", "what I found in the core dump", day=4),
    ])


def test_reply_to_unknown_id():
    assert_same_threads([
        message("orphan@x", "Re: lost thread", day=5, in_reply_to="gone@x"),
        message("root@x", "crash report", day=1),
        message("late@x", "another topic", day=9, in_reply_to="nowhere@x"),
    ])


def test_root_is_not_a_compared_or_constructor_field():
    (thread,) = group_threads([message("a@x", "crash"), message("b@x", "Re: crash")])
    assert thread.root.message_id == "a@x"
    assert type(thread)(messages=thread.messages) == thread
    assert "root" not in repr(thread)
