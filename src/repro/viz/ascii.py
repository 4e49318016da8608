"""ASCII chart rendering."""

from __future__ import annotations

from typing import Sequence

import numpy as np

_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline (8 levels) of a numeric series."""
    v = np.asarray(list(values), dtype=np.float64)
    if len(v) == 0:
        return ""
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return _SPARK_LEVELS[4] * len(v)
    idx = np.round((v - lo) / (hi - lo) * (len(_SPARK_LEVELS) - 2)).astype(int)
    return "".join(_SPARK_LEVELS[i + 1] for i in idx)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal bar chart with right-aligned labels and values."""
    labels = list(labels)
    values = [float(v) for v in values]
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        return ""
    vmax = max(max(values), 1e-12)
    label_w = max(len(s) for s in labels)
    lines = []
    for label, v in zip(labels, values):
        bar = "#" * max(0, int(round(width * v / vmax)))
        lines.append(f"{label:>{label_w}} | {bar} {v:g}{unit}")
    return "\n".join(lines)


def histogram(
    samples: Sequence[float],
    bins: int = 10,
    width: int = 40,
    log_bins: bool = False,
) -> str:
    """Binned counts of a sample as a bar chart.

    ``log_bins`` uses logarithmically spaced edges — the natural view
    for interarrival times spanning seconds to days.
    """
    x = np.asarray(list(samples), dtype=np.float64)
    if len(x) == 0:
        return "(empty)"
    if log_bins:
        lo = max(x.min(), 1e-9)
        edges = np.logspace(np.log10(lo), np.log10(x.max() + 1e-9), bins + 1)
    else:
        edges = np.linspace(x.min(), x.max() + 1e-9, bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    labels = [f"{edges[i]:.3g}-{edges[i + 1]:.3g}" for i in range(bins)]
    return bar_chart(labels, counts.tolist(), width=width)
