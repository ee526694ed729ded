"""Rendering: the paper's tables and figures as text and markdown."""

from repro.reports.tableformat import format_table, render_classification_table
from repro.reports.figures import render_figure
from repro.reports.markdown import markdown_table, markdown_classification_table
from repro.reports.studyreport import render_study_report
from repro.reports.csvexport import classification_table_csv, figure_series_csv

__all__ = [
    "classification_table_csv",
    "figure_series_csv",
    "format_table",
    "markdown_classification_table",
    "markdown_table",
    "render_classification_table",
    "render_figure",
    "render_study_report",
]
