"""Terminal visualization primitives for reports and benchmarks.

The paper's figures are reproduced as data series; these helpers render
them readably in a terminal: horizontal bar charts, sparklines and
histograms. Pure text, no plotting dependencies — the bench harness
prints the same rows/series the paper plots.
"""

from repro.viz.ascii import bar_chart, histogram, sparkline
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
    "histogram",
    "render_dashboard",
    "render_gauges",
    "render_prometheus",
    "render_trace",
    "render_span_tree",
    "render_timings",
    "render_fleet_report",
    "hot_stages",
]
