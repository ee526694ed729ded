"""CSV export of tables and figure series (for external plotting)."""

from __future__ import annotations

import csv
import io

from repro.analysis.distributions import FigureSeries
from repro.analysis.tables import ClassificationTable
from repro.bugdb.enums import FaultClass


def classification_table_csv(table: ClassificationTable) -> str:
    """Render a Table 1/2/3 as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["application", "class", "faults"])
    for name, count in table.rows():
        writer.writerow([table.application.value, name, count])
    return buffer.getvalue()


def figure_series_csv(series: FigureSeries) -> str:
    """Render a Figure 1-3 series as CSV text (one row per bucket)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["bucket"]
        + [fault_class.value for fault_class in FaultClass]
        + ["total", "env_independent_fraction"]
    )
    for index, label in enumerate(series.labels):
        writer.writerow(
            [label]
            + [series.counts[fault_class][index] for fault_class in FaultClass]
            + [series.total(index), f"{series.env_independent_fraction(index):.4f}"]
        )
    return buffer.getvalue()
