"""The benchmark's own arithmetic: medians, the reported percentile, failures.

Percentile values themselves come from the program's shared
``repro.obs.hist`` histogram; this module only chooses which one to
report.

Kept free of any ``repro`` import so the tests in ``perfbench/tests``
exercise it without the program under test.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: Percentiles the benchmark may report, lowest first.
CANDIDATE_PERCENTILES = (0.50, 0.90, 0.99, 0.999)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def reported_percentile(count: int) -> float:
    """The highest candidate percentile with enough samples beyond it.

    A percentile ``p`` over ``count`` samples leaves ``count * (1 - p)``
    samples above it; it is reportable only when that is at least
    :data:`MIN_SAMPLES_BEYOND`.  The median needs 20 samples.

    Raises:
        ValueError: fewer samples than even the median needs.
    """
    best = None
    for fraction in CANDIDATE_PERCENTILES:
        # Round before comparing: 1000 * (1 - 0.99) is 9.999... in floats.
        if round(count * (1.0 - fraction), 9) >= MIN_SAMPLES_BEYOND:
            best = fraction
    if best is None:
        raise ValueError(
            f"{count} samples cannot support any percentile "
            f"(need {MIN_SAMPLES_BEYOND} beyond the median)"
        )
    return best


def percentile_label(fraction: float) -> str:
    """``0.99 -> "p99"``, ``0.999 -> "p99.9"``, ``0.5 -> "p50"``."""
    text = f"{fraction * 100:.1f}".rstrip("0").rstrip(".")
    return "p" + text


class FailureCount:
    """Attempted and failed operations, summed over a run's passes.

    An operation fails when it raised, was refused, or its connection
    dropped before a reply: anything but an ``ok`` outcome.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        """Fold in one pass's counts."""
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError(f"bad counts: {failed} failed of {attempted}")
        self.attempted += attempted
        self.failed += failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def ok_drift(server_ok: int, client_ok: int) -> int:
    """Requests the server counted ``ok`` that no client received as ``ok``.

    Positive when the server recorded success for a reply that never
    arrived (e.g. the reply failed to encode and the connection died);
    negative would mean clients saw replies the server never counted,
    which is a reconciliation error, not drift.

    Raises:
        ValueError: the client saw more ``ok`` replies than the server
            recorded.
    """
    drift = server_ok - client_ok
    if drift < 0:
        raise ValueError(
            f"client received {client_ok} ok replies but the server "
            f"counted only {server_ok}"
        )
    return drift


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there is no base."""
    return numerator / denominator if denominator else 0.0
