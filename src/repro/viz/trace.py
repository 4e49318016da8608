"""Terminal rendering of spans: the flat stage-timing table and a
telemetry run manifest.

:func:`render_timings` is the flat view over :class:`repro.obs.Span`
records that ``--timings`` and the report's ``Stage timings (perf)``
section print. ``python -m repro trace run.jsonl`` prints the span tree
with per-span total and self time (self = wall minus the wall of direct
children), CPU time and row counts, followed by a top-N "hot stages"
table that aggregates self time by span name — the quickest answer to
"where did this run actually spend its time?" — and, when the manifest
carries gauge metrics, a levels table (watermark position, checkpoint
age, feed lag; monotonic gauges are flagged ``^``).
"""

from __future__ import annotations

import math

__all__ = [
    "render_gauges",
    "render_span_tree",
    "render_timings",
    "render_trace",
    "hot_stages",
]


def _children_index(spans: list[dict]) -> dict:
    """Parent id -> ordered child spans; unknown parents act as roots."""
    ids = {s["id"] for s in spans}
    children: dict = {}
    for span in spans:
        parent = span.get("parent")
        key = parent if parent in ids else None
        children.setdefault(key, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.get("start_s", 0.0), s["id"]))
    return children


def _self_s(span: dict, children: dict) -> float:
    kids = children.get(span["id"], ())
    return max(0.0, span["wall_s"] - sum(k["wall_s"] for k in kids))


def _label(span: dict) -> str:
    note = span.get("note", "")
    label = f"{span['name']}[{note}]" if note else span["name"]
    if span.get("status") == "error":
        # degraded stages must jump out of the tree: the boundary kept
        # the run alive, but this span's body raised
        err = (span.get("attrs") or {}).get("error.type")
        label = f"!! {label} (error" + (f": {err})" if err else ")")
    return label


def render_span_tree(spans: list[dict], title: str = "span tree") -> str:
    """The indented span tree with total/self/CPU time and rows."""
    children = _children_index(spans)

    rows: list[tuple[str, dict]] = []

    def walk(span: dict, depth: int) -> None:
        rows.append(("  " * depth + _label(span), span))
        for child in children.get(span["id"], ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)

    width = max([24, *(len(label) for label, _ in rows)])
    lines = [f"-- {title} " + "-" * max(1, 58 - len(title))]
    lines.append(
        f"{'span':<{width}} {'total':>10} {'self':>10}"
        f" {'cpu':>10} {'rows':>10}"
    )
    for label, span in rows:
        self_s = _self_s(span, children)
        rows_text = str(span["rows"]) if span.get("rows", -1) >= 0 else "-"
        lines.append(
            f"{label:<{width}} {1e3 * span['wall_s']:>8.2f}ms"
            f" {1e3 * self_s:>8.2f}ms"
            f" {1e3 * span.get('cpu_s', 0.0):>8.2f}ms"
            f" {rows_text:>10}"
        )
    return "\n".join(lines)


def render_timings(spans, title: str = "stage timings") -> str:
    """An aligned flat table of :class:`repro.obs.Span` records.

    One row per span, labelled ``stage[note]``; the stage column widens
    to the longest label. The total sums the wall time of the spans
    whose parent is not in *spans*, so a nested span never counts twice.
    """
    spans = list(spans)
    labels = [f"{s.name}[{s.note}]" if s.note else s.name for s in spans]
    width = max([28, *(len(label) for label in labels)])
    lines = [f"-- {title} " + "-" * max(1, 58 - len(title))]
    lines.append(
        f"{'stage':<{width}} {'wall':>10} {'rows':>10} {'rows/s':>12}"
    )
    for span, label in zip(spans, labels):
        rows = str(span.rows) if span.rows >= 0 else "-"
        rate = span.rows_per_s
        rate_text = "-" if math.isnan(rate) else f"{rate:,.0f}"
        lines.append(
            f"{label:<{width}} {1e3 * span.wall_s:>8.2f}ms {rows:>10}"
            f" {rate_text:>12}"
        )
    ids = {s.span_id for s in spans}
    total = sum(s.wall_s for s in spans if s.parent_id not in ids)
    lines.append(f"{'total':<{width}} {1e3 * total:>8.2f}ms")
    return "\n".join(lines)


def hot_stages(
    spans: list[dict], top: int = 5
) -> list[tuple[str, float, int, float]]:
    """Top-*top* span names by aggregate self time.

    Returns ``(name, self_seconds, count, share_of_root)`` tuples,
    hottest first; *share_of_root* is against the total wall of the
    root spans.
    """
    children = _children_index(spans)
    totals: dict[str, tuple[float, int]] = {}
    for span in spans:
        self_s = _self_s(span, children)
        acc, count = totals.get(span["name"], (0.0, 0))
        totals[span["name"]] = (acc + self_s, count + 1)
    root_wall = sum(s["wall_s"] for s in children.get(None, ()))
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])[:top]
    return [
        (name, self_s, count, self_s / root_wall if root_wall else 0.0)
        for name, (self_s, count) in ranked
    ]


def render_hot_stages(spans: list[dict], top: int = 5) -> str:
    title = f"hot stages (top {top} by self time)"
    lines = [f"-- {title} " + "-" * max(1, 58 - len(title))]
    ranked = hot_stages(spans, top)
    width = max([24, *(len(name) for name, *_ in ranked)]) if ranked else 24
    for rank, (name, self_s, count, share) in enumerate(ranked, start=1):
        lines.append(
            f"{rank:>2}. {name:<{width}} {1e3 * self_s:>8.2f}ms"
            f" {100.0 * share:>5.1f}%  x{count}"
        )
    if not ranked:
        lines.append("  (no spans)")
    return "\n".join(lines)


def render_gauges(metrics: list[dict]) -> str:
    """The gauge levels in one manifest.

    Gauges are levels, not per-run deltas, so they get their own table
    instead of drowning among the counters: watermark positions,
    checkpoint age, buffered-row counts. Monotonic gauges (positions
    that only advance) are flagged with ``^``; one that was never set
    exports ``null`` and renders as ``unset``.
    """
    rows = [
        m
        for m in metrics
        if isinstance(m, dict)
        and m.get("kind") in ("gauge", "monotonic_gauge")
    ]
    title = "gauges (levels at export)"
    lines = [f"-- {title} " + "-" * max(1, 58 - len(title))]
    if not rows:
        lines.append("  (no gauges)")
        return "\n".join(lines)

    def _key(metric: dict) -> str:
        labels = metric.get("labels") or {}
        if not labels:
            return metric["name"]
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return f"{metric['name']}{{{inner}}}"

    labelled = sorted((_key(m), m) for m in rows)
    width = max([24, *(len(text) for text, _ in labelled)])
    for text, metric in labelled:
        value = metric.get("value")
        shown = "unset" if value is None else f"{float(value):.6g}"
        mark = " ^" if metric["kind"] == "monotonic_gauge" else ""
        lines.append(f"{text:<{width}} {shown:>16}{mark}")
    return "\n".join(lines)


def render_trace(manifest: dict, top: int = 5) -> str:
    """Full terminal rendering of one run manifest."""
    run = manifest.get("run") or {}
    spans = manifest.get("spans", [])
    failed = sum(1 for s in spans if s.get("status") == "error")
    header = (
        f"run: git {str(run.get('git_rev', 'unknown'))[:12]}"
        f" | config {run.get('config_fingerprint', '?')}"
        f" | {len(spans)} spans"
        + (f" ({failed} failed)" if failed else "")
        + f" | {len(manifest.get('metrics', []))} metrics"
        f" | {len(manifest.get('observations', []))} observations"
    )
    parts = [header, render_span_tree(spans)]
    if spans:
        parts.append(render_hot_stages(spans, top))
    metrics = manifest.get("metrics", [])
    if any(
        isinstance(m, dict) and m.get("kind") in ("gauge", "monotonic_gauge")
        for m in metrics
    ):
        parts.append(render_gauges(metrics))
    return "\n".join(parts)
