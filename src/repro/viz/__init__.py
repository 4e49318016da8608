"""Terminal visualization primitives for reports and benchmarks.

The paper's figures are reproduced as data series; these helpers render
them readably in a terminal: horizontal bar charts, sparklines, CDF
staircases, and aligned two-series comparisons. Pure text, no plotting
dependencies — the bench harness prints the same rows/series the paper
plots.
"""

from repro.viz.ascii import (
    bar_chart,
    cdf_plot,
    histogram,
    series_table,
    sparkline,
)
from repro.viz.dash import render_dashboard, render_prometheus
from repro.viz.fleet import render_fleet_report
from repro.viz.trace import (
    hot_stages,
    render_gauges,
    render_span_tree,
    render_timings,
    render_trace,
)

__all__ = [
    "bar_chart",
    "sparkline",
    "cdf_plot",
    "histogram",
    "series_table",
    "render_dashboard",
    "render_gauges",
    "render_prometheus",
    "render_trace",
    "render_span_tree",
    "render_timings",
    "render_fleet_report",
    "hot_stages",
]
