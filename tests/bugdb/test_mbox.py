"""Tests for the mbox mailing-list format (MySQL)."""

import dataclasses
import datetime

import pytest

from repro.bugdb.mbox import MailMessage, parse_archive, render_archive, render_message
from repro.errors import ParseError


def make_message(**overrides):
    defaults = dict(
        message_id="msg-1@lists.mysql.com",
        sender="reporter@example.com",
        date=datetime.date(1999, 6, 10),
        subject="server crashes on ORDER BY with zero records",
        body="SELECT with order by crashes.\nmysql version: 3.22.25",
    )
    defaults.update(overrides)
    return MailMessage(**defaults)


class TestMailMessage:
    def test_normalized_subject_strips_re_prefixes(self):
        message = make_message(subject="Re: Re: server crashes")
        assert message.normalized_subject == "server crashes"

    def test_normalized_subject_is_case_insensitive_on_re(self):
        message = make_message(subject="RE: re: server crashes")
        assert message.normalized_subject == "server crashes"

    def test_is_reply_by_header(self):
        assert make_message(in_reply_to="root@x").is_reply
        assert not make_message().is_reply

    def test_slotted_and_picklable(self):
        import pickle

        message = make_message(in_reply_to="root@x")
        assert not hasattr(message, "__dict__")
        assert pickle.loads(pickle.dumps(message)) == message
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.subject = "changed"

    def test_is_reply_by_subject(self):
        assert make_message(subject="Re: anything").is_reply


class TestRoundTrip:
    def test_single_message_round_trip(self):
        original = make_message()
        parsed = parse_archive(render_message(original))
        assert len(parsed) == 1
        message = parsed[0]
        assert message.message_id == original.message_id
        assert message.sender == original.sender
        assert message.date == original.date
        assert message.subject == original.subject
        assert message.body == original.body
        assert message.in_reply_to is None

    def test_reply_round_trip(self):
        original = make_message(message_id="r1@x", in_reply_to="msg-1@lists.mysql.com",
                                subject="Re: server crashes")
        parsed = parse_archive(render_message(original))[0]
        assert parsed.in_reply_to == "msg-1@lists.mysql.com"

    def test_from_stuffing(self):
        # Body lines starting with "From " must survive the round trip.
        original = make_message(body="From here it looks bad.\nFrom  the logs: nothing.")
        parsed = parse_archive(render_message(original))[0]
        assert parsed.body == original.body

    def test_archive_round_trip_many(self):
        messages = [make_message(message_id=f"m{index}@x", subject=f"subject {index}")
                    for index in range(6)]
        parsed = parse_archive(render_archive(messages))
        assert [m.message_id for m in parsed] == [f"m{index}@x" for index in range(6)]

    def test_multiline_bodies_preserved(self):
        body = "line one\n\nline three after a blank"
        parsed = parse_archive(render_message(make_message(body=body)))[0]
        assert parsed.body == body


class TestParseErrors:
    def test_missing_subject(self):
        text = render_message(make_message()).replace("Subject: server crashes on ORDER BY with zero records\n", "")
        with pytest.raises(ParseError, match="subject"):
            parse_archive(text)

    def test_bad_date(self):
        text = render_message(make_message()).replace("Date: 1999-06-10", "Date: June 10")
        with pytest.raises(ParseError, match="bad Date"):
            parse_archive(text)

    def test_content_before_first_separator(self):
        with pytest.raises(ParseError, match="before first separator"):
            parse_archive("garbage\nFrom x 1999-06-10\nMessage-ID: <a@b>\nFrom: x\nDate: 1999-06-10\nSubject: s\n\nbody")

    def test_malformed_header_line(self):
        bad = "From x 1999-06-10\nMessage-ID <a@b>\n\nbody"
        with pytest.raises(ParseError, match="malformed header"):
            parse_archive(bad)

    def test_empty_archive(self):
        assert parse_archive("") == []


class TestMailDateParsing:
    def test_rfc822_with_weekday(self):
        from repro.bugdb.mbox import parse_mail_date
        import datetime

        assert parse_mail_date("Thu, 10 Jun 1999 12:01:02 +0200") == datetime.date(1999, 6, 10)

    def test_rfc822_without_weekday(self):
        from repro.bugdb.mbox import parse_mail_date
        import datetime

        assert parse_mail_date("10 Jun 1999") == datetime.date(1999, 6, 10)

    def test_two_digit_year(self):
        from repro.bugdb.mbox import parse_mail_date
        import datetime

        assert parse_mail_date("3 Mar 99") == datetime.date(1999, 3, 3)

    def test_two_digit_year_window_boundaries(self):
        from repro.bugdb.mbox import parse_mail_date
        import datetime

        # The study era only spans 1970-1999, so only 70-99 are safe.
        assert parse_mail_date("1 Jan 70") == datetime.date(1970, 1, 1)
        assert parse_mail_date("31 Dec 99") == datetime.date(1999, 12, 31)

    @pytest.mark.parametrize("value", ["1 Jan 69", "1 Jan 00", "15 Jun 04"])
    def test_two_digit_year_outside_window_is_ambiguous(self, value):
        from repro.bugdb.mbox import parse_mail_date

        with pytest.raises(ValueError, match="ambiguous two-digit year"):
            parse_mail_date(value)

    def test_four_digit_years_bypass_the_window(self):
        from repro.bugdb.mbox import parse_mail_date
        import datetime

        # 2004 is outside the study era but unambiguous as written.
        assert parse_mail_date("15 Jun 2004") == datetime.date(2004, 6, 15)

    def test_iso_still_accepted(self):
        from repro.bugdb.mbox import parse_mail_date
        import datetime

        assert parse_mail_date("1999-06-10") == datetime.date(1999, 6, 10)

    def test_garbage_rejected(self):
        from repro.bugdb.mbox import parse_mail_date

        with pytest.raises(ValueError, match="unparseable"):
            parse_mail_date("sometime last week")

    def test_rfc822_date_in_archive(self):
        text = (
            "From x 1999-06-10\n"
            "Message-ID: <a@b>\n"
            "From: x@example.com\n"
            "Date: Thu, 10 Jun 1999 12:01:02 +0200\n"
            "Subject: s\n"
            "\n"
            "body"
        )
        message = parse_archive(text)[0]
        import datetime

        assert message.date == datetime.date(1999, 6, 10)


class TestSplitArchive:
    def make_archive(self, count=5):
        messages = [
            make_message(
                message_id=f"m{i}@lists.mysql.com",
                subject=f"crash report {i}",
                body=f"body {i}\nFrom the start it crashed",
            )
            for i in range(count)
        ]
        return render_archive(messages), messages

    def test_split_then_parse_equals_parse_archive(self):
        from repro.bugdb.mbox import parse_message, split_archive

        text, _ = self.make_archive()
        chunks = split_archive(text)
        assert len(chunks) == 5
        assert [parse_message(chunk) for chunk in chunks] == parse_archive(text)

    def test_chunks_are_contiguous_slices(self):
        from repro.bugdb.mbox import split_archive

        text, _ = self.make_archive()
        assert "".join(split_archive(text)) == text

    def test_from_stuffed_bodies_do_not_split(self):
        from repro.bugdb.mbox import split_archive

        # "From " inside a body is escaped by the renderer, so the body
        # line above never becomes a record boundary.
        text, messages = self.make_archive(count=2)
        assert len(split_archive(text)) == 2
        assert parse_archive(text) == messages

    def test_blank_preamble_tolerated(self):
        from repro.bugdb.mbox import split_archive

        text, _ = self.make_archive(count=2)
        assert len(split_archive("\n\n" + text)) == 2

    def test_non_blank_preamble_rejected(self):
        from repro.bugdb.mbox import split_archive

        text, _ = self.make_archive(count=1)
        with pytest.raises(ParseError, match="content before first separator"):
            split_archive("not a separator\n" + text)

    def test_empty_text(self):
        from repro.bugdb.mbox import split_archive

        assert split_archive("") == []
