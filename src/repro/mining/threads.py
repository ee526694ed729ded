"""Mailing-list thread reconstruction.

Messages are grouped into threads by following ``In-Reply-To`` chains,
falling back to normalized-subject equality for mailers that drop the
header (common in 1999-era archives).  The thread root is the earliest
message that is not a reply.
"""

from __future__ import annotations

import dataclasses

from repro.bugdb.mbox import MailMessage


@dataclasses.dataclass(frozen=True, slots=True)
class Thread:
    """One reconstructed discussion thread.

    Attributes:
        messages: all messages in the thread, sorted by (date, id).
        root: the thread's root -- the earliest non-reply, else the
            earliest message.  Derived from ``messages`` once, at
            construction: grouping sorts by it and every miner run over
            the same threads filters on it.
    """

    messages: tuple[MailMessage, ...]
    root: MailMessage = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        root = next(
            (message for message in self.messages if not message.is_reply),
            self.messages[0],
        )
        object.__setattr__(self, "root", root)

    @property
    def subject(self) -> str:
        """The normalized root subject."""
        return self.root.normalized_subject

    @property
    def size(self) -> int:
        """Number of messages in the thread."""
        return len(self.messages)

    @property
    def full_text(self) -> str:
        """All message bodies and the subject, for keyword search."""
        parts = [self.subject]
        parts.extend(message.body for message in self.messages)
        return "\n".join(parts)


def group_threads(messages: list[MailMessage]) -> list[Thread]:
    """Group messages into threads.

    Uses union-find over two relations: reply edges (``in_reply_to``) and
    normalized-subject equality.  Returns threads ordered by their root
    date.
    """
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

    known_ids = {message.message_id for message in messages}
    subject_anchor: dict[str, str] = {}
    for message in messages:
        find(message.message_id)
        if message.in_reply_to and message.in_reply_to in known_ids:
            union(message.in_reply_to, message.message_id)
        subject_key = message.normalized_subject.lower()
        if subject_key:
            anchor = subject_anchor.setdefault(subject_key, message.message_id)
            union(anchor, message.message_id)

    clusters: dict[str, list[MailMessage]] = {}
    for message in messages:
        clusters.setdefault(find(message.message_id), []).append(message)

    threads = [
        Thread(messages=tuple(sorted(cluster, key=lambda m: (m.date, m.message_id))))
        for cluster in clusters.values()
    ]
    threads.sort(key=lambda thread: (thread.root.date, thread.root.message_id))
    return threads
