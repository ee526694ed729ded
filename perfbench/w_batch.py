"""``batch``: the study, a streamed archive and the replay campaigns, one run.

The three batch parts run one after another in this process, each
with its own set-up, passes and output checks (see
:mod:`perfbench.w_study`, :mod:`perfbench.w_archive` and
:mod:`perfbench.w_replay`), splitting ``--seconds`` by :data:`PARTS`.

One batch pass is one pass of each part, so ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` are the sums of the parts' figures (each part's peak is
taken over its own first pass, from a reset high-water mark) and a
set-up sample is the sum of the parts' set-ups.  Each part's own figures are printed with their
samples.

The parts share one run for steadiness.  On a 2-vCPU VM (Python 3.11),
a pure-Python loop on one vCPU ran 1.8x slower while the other vCPU was
busy, and slow and fast periods lasted tens of seconds.
Measured alone in 24-second runs, a part's median varied between runs
by up to 0.28 (inter-quartile range over the median, ten runs); the
three parts in one 40-second run varied by 0.084.
"""

from __future__ import annotations

from pathlib import Path

from perfbench import layers, w_archive, w_replay, w_study
from perfbench.common import Outcome
from perfbench.stats import median
from perfbench.tracer import Tracer

#: ``(name, module, share of --seconds)``; the study's passes are the
#: longest, so it gets the largest share.
PARTS = (
    ("study", w_study, 0.5),
    ("archive-stream", w_archive, 0.25),
    ("replay", w_replay, 0.25),
)


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    parts = []
    for name, module, share in PARTS:
        part_work = work / name
        part_work.mkdir()
        part = module.run(seed, seconds * share, trace, part_work)
        parts.append(part)
        out.samples(f"{name}.setup_s", part.setup_s, "s")
        out.samples(f"{name}.wall_s", part.wall_s, "s")
        out.samples(f"{name}.cpu_s", part.cpu_s, "s")
        out.line(f"{name}.peak_rss_mb", part.peak_rss_mb, "MB", 1, "first pass")
        out.lines += part.lines
        out.errors += part.errors
        out.ops.add(part.ops.attempted, part.ops.failed)
    out.setup_s = [sum(samples) for samples in zip(*(part.setup_s for part in parts))]
    out.wall_s = [sum(median(part.wall_s) for part in parts)]
    out.cpu_s = [sum(median(part.cpu_s) for part in parts)]
    out.peak_rss_mb = sum(part.peak_rss_mb for part in parts)

    if trace:
        tracer = Tracer()
        for part in parts:
            tracer.merge_report(part.trace_report)
            out.layers.update(part.layers)
        out.layers.update(layers.layer_values(tracer))
        out.layers["trace.overhead"] = sum(part.traced_s for part in parts) / out.wall_s[0]
    return out
