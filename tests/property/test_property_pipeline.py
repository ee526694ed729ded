"""Property-style checks for the fast archive path.

The pipeline's whole claim is an equivalence: splitting, sharding, and
worker count must never change what gets parsed or mined.  These tests
sweep worker counts and archive sizes (including sizes that leave torn,
odd-sized final shards) across all three formats and compare against
the serial reference.
"""

import pytest

from repro.bugdb import debbugs, gnats, mbox
from repro.bugdb.enums import Application
from repro.pipeline import format_for, mine_archive_text, parse_archive_streamed

WORKER_COUNTS = (1, 2, 7)

#: Shard budget small enough that the larger sub-archives span several
#: byte ranges, with a final range smaller than the rest.
SHARD_BYTES = 4 << 10

_RENDERERS = {
    Application.APACHE: gnats.render_archive,
    Application.GNOME: debbugs.render_archive,
    Application.MYSQL: mbox.render_archive,
}


@pytest.fixture(scope="module")
def base_records(study):
    """A pool of parsed records per application to cut sub-archives from."""
    scales = {
        Application.APACHE: 200,
        Application.GNOME: None,
        Application.MYSQL: 900,
    }
    pool = {}
    for application, scale in scales.items():
        fmt = format_for(application)
        pool[application] = fmt.parse(fmt.render(study.corpus(application), scale))
    return pool


class TestShardedParseEqualsSerial:
    @pytest.mark.parametrize("application", list(Application))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    # Sizes chosen to exercise: fewer records than shards, one-record
    # shards, and torn final shards (sizes not divisible by shard count).
    @pytest.mark.parametrize("size", [1, 2, 7, 23, 61])
    def test_subarchive_equivalence(self, base_records, application, workers, size):
        fmt = format_for(application)
        records = base_records[application][:size]
        assert len(records) == size
        text = _RENDERERS[application](records)
        serial = fmt.parse(text)
        assert serial == records
        parsed = parse_archive_streamed(
            fmt,
            text.encode("utf-8"),
            max_shard_bytes=SHARD_BYTES,
            workers=workers,
            keep_records=True,
        )
        assert parsed.records == serial

    @pytest.mark.parametrize("application", list(Application))
    def test_split_then_parse_is_parse_archive(self, base_records, application):
        fmt = format_for(application)
        text = _RENDERERS[application](base_records[application])
        legacy = {
            Application.APACHE: gnats.parse_archive,
            Application.GNOME: debbugs.parse_archive,
            Application.MYSQL: mbox.parse_archive,
        }[application]
        assert [fmt.parse_record(chunk) for chunk in fmt.split(text)] == legacy(text)


class TestMiningEqualsSerial:
    @pytest.mark.parametrize("application", list(Application))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_full_pipeline_equivalence(self, study, application, workers):
        fmt = format_for(application)
        scale = {
            Application.APACHE: 300,
            Application.GNOME: None,
            Application.MYSQL: 1500,
        }[application]
        text = fmt.render(study.corpus(application), scale)
        serial = fmt.mine(fmt.parse(text), None)
        run = mine_archive_text(application, text, workers=workers)
        assert run.result.items == serial.items
        assert run.result.trace.as_rows() == serial.trace.as_rows()
