"""Tests for CSV export."""

import csv
import io

from repro.analysis.distributions import release_distribution
from repro.analysis.tables import classification_table
from repro.reports.csvexport import classification_table_csv, figure_series_csv


class TestClassificationTableCsv:
    def test_rows_and_header(self, apache):
        text = classification_table_csv(classification_table(apache))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["application", "class", "faults"]
        assert rows[1] == ["apache", "environment-independent", "36"]
        assert len(rows) == 4

    def test_counts_sum_to_total(self, mysql):
        text = classification_table_csv(classification_table(mysql))
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert sum(int(row[2]) for row in rows) == 44


class TestFigureSeriesCsv:
    def test_one_row_per_bucket(self, apache):
        series = release_distribution(apache)
        text = figure_series_csv(series)
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1 + len(series.labels)
        assert rows[0][0] == "bucket"
        assert rows[0][-1] == "env_independent_fraction"

    def test_totals_column_consistent(self, apache):
        series = release_distribution(apache)
        rows = list(csv.reader(io.StringIO(figure_series_csv(series))))[1:]
        for index, row in enumerate(rows):
            class_counts = [int(value) for value in row[1:4]]
            assert sum(class_counts) == int(row[4]) == series.total(index)

    def test_fraction_column_parses(self, gnome):
        from repro.analysis.distributions import time_distribution

        series = time_distribution(gnome)
        rows = list(csv.reader(io.StringIO(figure_series_csv(series))))[1:]
        for row in rows:
            assert 0.0 <= float(row[-1]) <= 1.0

