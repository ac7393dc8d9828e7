"""Reporting helpers for the case studies."""

from repro.analysis.report import Table, format_table, bar_chart, timings_table

__all__ = [
    "Table",
    "format_table",
    "bar_chart",
    "timings_table",
]
