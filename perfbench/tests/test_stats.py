"""The benchmark's own arithmetic."""

import pytest

from perfbench.stats import (
    FailureCount,
    ok_drift,
    percentile_label,
    reported_percentile,
)


@pytest.mark.parametrize(
    "count, expected",
    [
        (20, 0.50),
        (99, 0.50),  # 99 * 0.1 = 9.9 samples beyond p90: too few
        (100, 0.90),
        (999, 0.90),
        (1000, 0.99),  # exactly 10 beyond, despite 1000 * 0.01 != 10.0 in floats
        (9999, 0.99),
        (10000, 0.999),
        (10**6, 0.999),
    ],
)
def test_reported_percentile_leaves_ten_samples_beyond(count, expected):
    assert reported_percentile(count) == expected


def test_reported_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        reported_percentile(19)


def test_percentile_label():
    assert percentile_label(0.5) == "p50"
    assert percentile_label(0.99) == "p99"
    assert percentile_label(0.999) == "p99.9"


def test_failure_counts_add_up_over_passes():
    count = FailureCount()
    count.add(6, 3)
    count.add(4, 1)
    assert (count.attempted, count.failed) == (10, 4)
    assert count.error_rate == 0.4
    with pytest.raises(ValueError):
        count.add(1, 2)


def test_ok_drift_reconciles_server_and_client_counts():
    assert ok_drift(server_ok=1200, client_ok=1196) == 4
    assert ok_drift(server_ok=5, client_ok=5) == 0
    with pytest.raises(ValueError):
        ok_drift(server_ok=3, client_ok=4)
