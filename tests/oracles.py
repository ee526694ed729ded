"""Equality oracles shared by the tests and the benchmarks."""

from __future__ import annotations

from typing import Callable, Iterable

from repro.bugdb.segments import SegmentedTextIndex
from repro.bugdb.textindex import TextIndex


def segmented_equal_to_monolithic(
    segmented: SegmentedTextIndex,
    monolithic: TextIndex[int],
    *,
    probes: Iterable[str],
    prefix: bool = True,
    on_mismatch: Callable[[str], None] | None = None,
) -> bool:
    """True when every probe keyword returns identical doc-id sets.

    The segmented index must answer exactly like the monolithic one for
    every probe (prefix semantics by default, matching the mining
    keyword filter).
    """
    equal = True
    for keyword in probes:
        seg_hits = (
            segmented.lookup_prefix(keyword) if prefix else segmented.lookup(keyword)
        )
        mono_hits = (
            monolithic.lookup_prefix(keyword) if prefix else monolithic.lookup(keyword)
        )
        if seg_hits != mono_hits:
            equal = False
            if on_mismatch is not None:
                on_mismatch(keyword)
    return equal
