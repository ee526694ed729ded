"""MySQL mining: ~44,000 mailing-list messages -> 44 unique study bugs.

Section 4: "we use all the messages from the archives that matched one of
the following keywords: 'crash', 'segmentation', 'race', and 'died' ...
We then narrowed these messages to 44 unique bugs."

The miner keyword-filters messages, reconstructs threads, extracts one
candidate bug per *reporting* thread (a thread whose root message matched
the keywords -- threads where only a follow-up mentions a crash are
discussions, not reports), and reduces candidates to unique bugs.
"""

from __future__ import annotations

import re

from repro.bugdb.enums import Application, Resolution, Severity, Status, Symptom
from repro.bugdb.mbox import MailMessage
from repro.bugdb.textindex import TextIndex
from repro.bugdb.model import BugReport, Comment
from repro.mining.dedup import Deduplicator
from repro.mining.keywords import KeywordMatcher, MYSQL_STUDY_KEYWORDS
from repro.mining.pipeline import MiningResult, NarrowingTrace
from repro.mining.threads import Thread, group_threads

_VERSION_PATTERN = re.compile(r"mysql version:\s*([\w.]+)", re.IGNORECASE)
_COMPONENT_PATTERN = re.compile(r"component:\s*([\w-]+)", re.IGNORECASE)
_REPEAT_MARKER = "How-To-Repeat:"
_FIX_MARKER = re.compile(r"\bfixed\b", re.IGNORECASE)

_SYMPTOM_BY_STEM = {
    "crash": Symptom.CRASH,
    "segmentation": Symptom.CRASH,
    "died": Symptom.CRASH,
    "race": Symptom.CRASH,
}

#: The study matcher, hoisted to module level: mining constructs one per
#: reporting thread otherwise, and the archive holds tens of them.
_STUDY_MATCHER = KeywordMatcher(MYSQL_STUDY_KEYWORDS)


def message_search_text(message: MailMessage) -> str:
    """The text keyword filtering runs over: subject plus body."""
    return message.subject + "\n" + message.body


def build_message_index(messages: list[MailMessage]) -> TextIndex[int]:
    """Inverted index over an archive, keyed by message position.

    Positional ids (not message ids) are what the streamed parser's
    segmented index assigns too, committing per-range segments at their
    archive offsets, so either index can back the keyword stage.
    """
    index: TextIndex[int] = TextIndex()
    for position, message in enumerate(messages):
        index.add(position, message_search_text(message))
    return index


def keyword_matching_messages(
    messages: list[MailMessage],
    matcher: KeywordMatcher,
    *,
    index: TextIndex[int],
) -> list[MailMessage]:
    """Messages whose subject+body match ``matcher``, in archive order.

    The positional ``index`` narrows the archive to candidate positions
    first and only candidates are regex-confirmed -- the confirm step
    guarantees the hit set equals a linear scan's even where
    tokenization is looser than regex word boundaries (the index splits
    ``my_race`` into ``my``/``race``; ``\\b`` does not).
    """
    candidates = index.search_any(matcher.keywords)
    return [
        message
        for position, message in enumerate(messages)
        if position in candidates and matcher.matches(message_search_text(message))
    ]


def report_from_thread(
    thread: Thread, *, matcher: KeywordMatcher = _STUDY_MATCHER
) -> BugReport:
    """Build a candidate bug report from a reporting thread."""
    root = thread.root
    body = root.body
    description, how_to_repeat = body, ""
    if _REPEAT_MARKER in body:
        description, _, how_to_repeat = body.partition(_REPEAT_MARKER)

    version_match = _VERSION_PATTERN.search(body)
    component_match = _COMPONENT_PATTERN.search(body)

    stems = matcher.matched_stems(root.subject + "\n" + body)
    symptom = next(
        (_SYMPTOM_BY_STEM[stem] for stem in MYSQL_STUDY_KEYWORDS if stem in stems),
        Symptom.CRASH,
    )

    comments = []
    fix_summary = ""
    for message in thread.messages:
        if message is root:
            continue
        comments.append(
            Comment(author=message.sender, date=message.date, text=message.body)
        )
        if not fix_summary and _FIX_MARKER.search(message.body):
            fix_summary = message.body

    return BugReport(
        report_id=root.message_id,
        application=Application.MYSQL,
        component=component_match.group(1) if component_match else "mysqld",
        version=version_match.group(1) if version_match else "unknown",
        date=root.date,
        reporter=root.sender,
        synopsis=root.normalized_subject,
        severity=Severity.CRITICAL,
        status=Status.CLOSED if fix_summary else Status.OPEN,
        resolution=Resolution.FIXED if fix_summary else Resolution.UNRESOLVED,
        symptom=symptom,
        description=description.strip("\n"),
        how_to_repeat=how_to_repeat.strip("\n"),
        comments=comments,
        fix_summary=fix_summary,
    )


def mine_mysql(
    messages: list[MailMessage],
    *,
    keywords: tuple[str, ...] = MYSQL_STUDY_KEYWORDS,
    deduplicator: Deduplicator | None = None,
    index: TextIndex[int] | None = None,
    threads: list[Thread] | None = None,
) -> MiningResult[BugReport]:
    """Narrow a raw mailing-list archive to the unique study bugs.

    The keyword stage is index-backed: an inverted
    :class:`~repro.bugdb.textindex.TextIndex` prefilters the archive to
    candidate messages, and only candidates are confirmed against the
    compiled matcher, so the hit set is identical to a linear scan.

    Neither the index nor the threads depend on ``keywords``, so callers
    mining one archive several times (the keyword ablations) build both
    once and pass them in.

    Args:
        messages: the parsed mbox archive.
        keywords: keyword stems to filter messages with (ablatable).
        deduplicator: duplicate-reduction strategy.
        index: prebuilt positional index over ``messages`` (as built by
            :func:`build_message_index`, or a segmented index the
            streamed parser wrote); built here when omitted.
        threads: prebuilt ``group_threads(messages)``; grouped here when
            omitted.
    """
    dedup = deduplicator or Deduplicator()
    matcher = KeywordMatcher(keywords)
    trace = NarrowingTrace()
    trace.record("raw messages", len(messages))

    if index is None:
        index = build_message_index(messages)
    matching = keyword_matching_messages(messages, matcher, index=index)
    trace.record("keyword-matching messages", len(matching))

    # Threads are grouped over the *full* archive so replies that matched
    # a keyword still attach to their (non-matching) root.
    if threads is None:
        threads = group_threads(messages)
    trace.record("threads", len(threads))

    matching_ids = {message.message_id for message in matching}
    reporting_threads = [
        thread for thread in threads if thread.root.message_id in matching_ids
    ]
    trace.record("reporting threads (root matches keywords)", len(reporting_threads))

    candidates = [report_from_thread(thread) for thread in reporting_threads]
    unique = dedup.unique(candidates)
    trace.record("unique bugs", len(unique))

    # Keep stable, archive-independent ordering: by date then synopsis.
    unique.sort(key=lambda report: (report.date, report.synopsis))
    return MiningResult(items=unique, trace=trace)
