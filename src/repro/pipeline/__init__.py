"""repro.pipeline: the fast archive path (parallel, cached, indexed).

The paper's Section 4 narrowing (5220 Apache reports -> 50, ~500 GNOME
-> 45, ~44,000 MySQL messages -> 44) is the repo's biggest hot path.
This package makes ``render -> parse_archive -> mine_*`` parallel,
cached, and index-backed while keeping mined bug sets and narrowing
traces bit-identical to the serial path:

* :mod:`~repro.pipeline.formats` -- per-application
  :class:`~repro.pipeline.formats.ArchiveFormat` descriptors (render,
  record-boundary split, chunk parse, mine, cache codec, version tags);
* :mod:`~repro.pipeline.streamsplit` -- byte-offset record boundaries
  over an archive file or its in-memory bytes: record-aligned shard
  byte-ranges scanned with bounded memory;
* :mod:`~repro.pipeline.shardparse` -- the one parse driver,
  :func:`~repro.pipeline.shardparse.parse_archive_streamed`: parses
  those ranges on the fork-based :mod:`repro.harness` pool with an
  order-preserving merge, optionally landing them in an LSM-style
  :class:`~repro.bugdb.segments.SegmentedTextIndex`;
* :mod:`~repro.pipeline.cache` -- content-addressed (SHA-256 + version
  tag) on-disk parse/mine store with explicit invalidation;
* :mod:`~repro.pipeline.records` -- JSON codecs for cached records;
* :mod:`~repro.pipeline.runner` -- :func:`mine_archive_text` /
  :func:`mine_archive_file` / :func:`mine_application`, tying the
  stages together with :class:`~repro.obs.metrics.MetricsRegistry`.

**Equivalence contract**: for every application, any worker count, and
any cache state, the pipeline's :class:`~repro.mining.pipeline.
MiningResult` (items and trace) is identical to the serial cold path.
"""

from repro.pipeline.cache import CACHE_FORMAT_VERSION, ParseMineCache, archive_digest
from repro.pipeline.formats import FORMATS, ArchiveFormat, format_for
from repro.pipeline.runner import PipelineRun, mine_application, mine_archive_text
from repro.pipeline.shardparse import (
    KIND_STREAM_SHARD,
    StreamedParse,
    parse_archive_streamed,
)
from repro.pipeline.streamsplit import (
    ByteRange,
    format_byte_ranges,
    read_range,
    shard_byte_ranges,
)

__all__ = [
    "ArchiveFormat",
    "ByteRange",
    "CACHE_FORMAT_VERSION",
    "FORMATS",
    "KIND_STREAM_SHARD",
    "ParseMineCache",
    "PipelineRun",
    "StreamedParse",
    "archive_digest",
    "format_byte_ranges",
    "format_for",
    "mine_application",
    "mine_archive_text",
    "parse_archive_streamed",
    "read_range",
    "shard_byte_ranges",
]
