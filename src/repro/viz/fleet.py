"""Terminal rendering of a fleet analysis result."""

from __future__ import annotations

import numpy as np

from repro.viz.ascii import bar_chart

__all__ = ["render_fleet_report"]


def _summary_table(summary) -> str:
    """Aligned per-machine table (index column sized to the names)."""
    names = [n for n in summary.columns if n != "machine"]
    index = [str(m) for m in summary["machine"]]
    idx_w = max(len(s) for s in index)
    widths = [max(len(n), 10) for n in names]
    header = f"{'':>{idx_w}} " + " ".join(
        f"{n:>{w}}" for n, w in zip(names, widths)
    )
    lines = [header]
    for i, label in enumerate(index):
        cells = " ".join(
            f"{float(summary[n][i]):.4g}".rjust(w)
            for n, w in zip(names, widths)
        )
        lines.append(f"{label:>{idx_w}} " + cells)
    return "\n".join(lines)


def render_fleet_report(fleet) -> str:
    """The cross-machine comparison report for a
    :class:`repro.store.mapreduce.FleetResult`."""
    lines: list[str] = []
    n_ok = len(fleet.ok_machines)
    lines.append("FLEET CO-ANALYSIS")
    lines.append("=" * 60)
    window = (
        f"{fleet.time_range[0]:.0f}..{fleet.time_range[1]:.0f}"
        if fleet.time_range
        else "full span"
    )
    lines.append(
        f"machines: {n_ok}/{len(fleet.machines)} analyzed"
        f"   window: {window}   seed: {fleet.seed}"
    )
    for ma in fleet.machines:
        if not ma.ok:
            lines.append(f"  DEGRADED {ma.machine}: {ma.error}")
    lines.append("")

    summary = fleet.summary_frame()
    if summary.num_rows:
        lines.append("Per-machine summary")
        lines.append("-" * 60)
        lines.append(_summary_table(summary))
        lines.append("")
        lines.append("Interrupted jobs by machine")
        lines.append("-" * 60)
        lines.append(
            bar_chart(
                list(summary["machine"]),
                [int(v) for v in summary["interrupted_jobs"]],
            )
        )
        lines.append("")
        mtbf = np.asarray(summary["mtbf_h"], dtype=np.float64)
        finite = mtbf[np.isfinite(mtbf)]
        if len(finite) > 1:
            spread = float(finite.max() / max(finite.min(), 1e-9))
            lines.append(
                f"MTBF spread across fleet: {finite.min():.1f}h .. "
                f"{finite.max():.1f}h ({spread:.2f}x)"
            )
            lines.append("")

    lines.append("Observations across the fleet")
    lines.append("-" * 60)
    if not fleet.observations:
        lines.append("(no observations: every machine failed)")
    for obs in fleet.observations:
        lines.append(obs.summary())
    consensus = sum(1 for o in fleet.observations if o.consensus)
    if fleet.observations:
        lines.append("")
        lines.append(
            f"consensus: {consensus}/{len(fleet.observations)} observations "
            f"hold on a majority of machines"
        )
    return "\n".join(lines)
