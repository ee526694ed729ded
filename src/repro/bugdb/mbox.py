"""mbox mailing-list archive format (MySQL's geocrawler archives).

MySQL fault data in the paper came from the ``mysql`` mailing-list
archives, not from a structured tracker: "we use all the messages from
the archives that matched one of the following keywords: 'crash',
'segmentation', 'race', and 'died'" (Section 4).  This module provides a
:class:`MailMessage` record and an mbox writer/parser.  Turning message
threads into :class:`~repro.bugdb.model.BugReport` records is mining
logic and lives in :mod:`repro.mining.mysql`.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import re
from typing import Iterable

from repro.errors import ParseError

_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}


def parse_mail_date(value: str) -> _dt.date:
    """Parse a Date header: ISO (1999-06-10) or RFC-822 style.

    Accepts the common 1999-era forms ``Thu, 10 Jun 1999 12:01:02 +0200``
    and ``10 Jun 1999``; time-of-day and zone are ignored (the study
    works at day granularity).

    Two-digit years are accepted only in the 70-99 window (1970-1999, the
    archives' era).  00-69 would silently mean 1900-1969 under the old
    pivot while almost certainly being 2000-era mail, so they are
    rejected instead of mis-filed.

    Raises:
        ValueError: when neither form parses, or a two-digit year falls
            outside the 70-99 window.
    """
    text = value.strip()
    try:
        return _dt.date.fromisoformat(text)
    except ValueError:
        pass
    if "," in text:
        text = text.split(",", 1)[1].strip()
    parts = text.split()
    if len(parts) >= 3:
        day_text, month_text, year_text = parts[0], parts[1], parts[2]
        month = _MONTHS.get(month_text[:3].lower())
        if month is not None:
            try:
                year = int(year_text)
                day = int(day_text)
            except ValueError:
                raise ValueError(f"unparseable mail date: {value!r}") from None
            if year < 100:
                if not 70 <= year <= 99:
                    raise ValueError(
                        f"ambiguous two-digit year {year:02d} "
                        f"(outside the 1970-1999 window) in mail date: {value!r}"
                    )
                year += 1900
            try:
                return _dt.date(year, month, day)
            except ValueError:
                raise ValueError(f"unparseable mail date: {value!r}") from None
    raise ValueError(f"unparseable mail date: {value!r}")


@dataclasses.dataclass(frozen=True, slots=True)
class MailMessage:
    """One message in a mailing-list archive.

    Slotted: an archive holds tens of thousands of these, and a slotted
    instance carries no per-instance ``__dict__``.

    Attributes:
        message_id: globally unique message identifier.
        sender: ``From:`` header value.
        date: message date.
        subject: ``Subject:`` header value.
        body: message body text.
        in_reply_to: message_id of the parent message, when a reply.
    """

    message_id: str
    sender: str
    date: _dt.date
    subject: str
    body: str
    in_reply_to: str | None = None

    @property
    def normalized_subject(self) -> str:
        """Subject with any number of leading ``Re:`` prefixes stripped."""
        subject = self.subject.strip()
        lowered = subject.lower()
        while lowered.startswith("re:"):
            subject = subject[3:].strip()
            lowered = subject.lower()
        return subject

    @property
    def is_reply(self) -> bool:
        """Whether this message replies to another."""
        return self.in_reply_to is not None or self.subject.lower().lstrip().startswith("re:")


def render_message(message: MailMessage) -> str:
    """Render one message in mbox form (with ``From `` separator line)."""
    lines = [
        f"From {message.sender} {message.date.isoformat()}",
        f"Message-ID: <{message.message_id}>",
        f"From: {message.sender}",
        f"Date: {message.date.isoformat()}",
        f"Subject: {message.subject}",
    ]
    if message.in_reply_to:
        lines.append(f"In-Reply-To: <{message.in_reply_to}>")
    lines.append("")
    for line in message.body.splitlines():
        # mbox "From-stuffing": escape body lines that look like separators.
        lines.append(">" + line if line.startswith("From ") else line)
    return "\n".join(lines)


def render_archive(messages: Iterable[MailMessage]) -> str:
    """Render many messages as one mbox archive."""
    return "\n\n".join(render_message(message) for message in messages) + "\n"


# A message starts at any line beginning "From " (the mbox separator);
# true body lines that look like separators are From-stuffed on render.
_MESSAGE_BOUNDARY = re.compile(r"^From ", re.MULTILINE)


def split_archive(text: str, *, source: str = "mbox") -> list[str]:
    """Split an mbox archive into per-message chunks without parsing them.

    The record-boundary scan is a single regex pass, so large archives
    can be cut into chunks cheaply and the chunks parsed independently
    (in parallel shards, by :mod:`repro.pipeline`).  Concatenating the
    chunks reproduces the archive text exactly from the first separator.

    Raises:
        ParseError: on non-blank content before the first separator.
    """
    boundaries = [match.start() for match in _MESSAGE_BOUNDARY.finditer(text)]
    preamble = text[: boundaries[0]] if boundaries else text
    for line in preamble.splitlines():
        if line.strip():
            raise ParseError(f"content before first separator: {line!r}", source=source)
    if not boundaries:
        return []
    return [
        text[start:end]
        for start, end in zip(boundaries, boundaries[1:] + [len(text)])
    ]


def parse_message(chunk: str, *, source: str = "mbox") -> MailMessage:
    """Parse one message chunk (as produced by :func:`split_archive`).

    Raises:
        ParseError: on missing required headers.
    """
    return _parse_message(chunk.splitlines(), source=source)


def parse_archive(text: str, *, source: str = "mbox") -> list[MailMessage]:
    """Parse an mbox archive into messages.

    Raises:
        ParseError: on messages missing required headers.
    """
    return [
        parse_message(chunk, source=source)
        for chunk in split_archive(text, source=source)
    ]


def _parse_message(lines: list[str], *, source: str) -> MailMessage:
    headers: dict[str, str] = {}
    body_start = len(lines)
    for index, line in enumerate(lines[1:], start=1):
        if not line.strip():
            body_start = index + 1
            break
        name, separator, value = line.partition(":")
        if not separator:
            raise ParseError(f"malformed header line: {line!r}", source=source)
        headers[name.strip().lower()] = value.strip()

    def require(name: str) -> str:
        try:
            return headers[name]
        except KeyError:
            raise ParseError(f"missing header {name}:", source=source) from None

    try:
        date = parse_mail_date(require("date"))
    except ValueError as exc:
        raise ParseError(f"bad Date header: {exc}", source=source) from exc

    body_lines = [
        line[1:] if line.startswith(">From ") else line
        for line in lines[body_start:]
    ]
    in_reply_to = headers.get("in-reply-to")
    return MailMessage(
        message_id=_strip_brackets(require("message-id")),
        sender=require("from"),
        date=date,
        subject=require("subject"),
        body="\n".join(body_lines).strip("\n"),
        in_reply_to=_strip_brackets(in_reply_to) if in_reply_to else None,
    )


def _strip_brackets(value: str) -> str:
    value = value.strip()
    if value.startswith("<") and value.endswith(">"):
        return value[1:-1]
    return value
