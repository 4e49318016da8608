"""Text rendering of co-analysis results: tables and ASCII figures."""

from __future__ import annotations

import numpy as np

from repro.core.vulnerability import CATEGORY_APPLICATION, CATEGORY_SYSTEM
from repro.workload.tables import RUNTIME_BUCKETS, SIZE_CLASSES


def render_report(result) -> str:
    """A full human-readable report over a :class:`CoAnalysisResult`.

    Studies that degraded (see ``CoAnalysisResult.stage_failures``)
    render as a DEGRADED stub naming the failed stage and why, and the
    degradation summary lists every captured failure.
    """
    sections = [
        _header(result),
        _filtering_section(result),
        _identification_section(result),
        _classification_section(result),
        _section(result, _table4, "Table IV: fatal interarrival Weibull fits",
                 "studies.interarrivals", result.interarrivals),
        _section(result, _table5, "Table V: interruption interarrival Weibull fits",
                 "studies.rates", result.rates),
        _section(result, _table6, "Table VI: system interruptions / jobs by size x time",
                 "studies.vulnerability", result.vulnerability),
        _section(result, _figure4, "Figure 4a: fatal events per midplane",
                 "studies.midplane_profile", result.midplane_profile,
                 "studies.skew", result.skew),
        _section(result, _figure5, "Figure 5: interruptions per day",
                 "studies.bursts", result.bursts),
        _section(result, _figure7, "Figure 7: P(interrupt on resubmission | k prior)",
                 "studies.vulnerability", result.vulnerability),
        _observations_section(result),
    ]
    if getattr(result, "stage_failures", ()):
        sections.append(_degradation_section(result))
    if getattr(result, "timings", ()):
        sections.append(_timings_section(result))
    return "\n\n".join(sections)


def _section(r, render, title, *stage_value_pairs) -> str:
    """Render a study-backed section, or a DEGRADED stub if its inputs
    are missing."""
    stages = stage_value_pairs[::2]
    values = stage_value_pairs[1::2]
    missing = [s for s, v in zip(stages, values) if v is None]
    if not missing:
        return render(r)
    reasons = []
    for stage in missing:
        f = r.failure(stage)
        reasons.append(f.describe() if f else f"{stage}: unavailable")
    return "\n".join(
        [f"-- {title} " + "-" * max(1, 58 - len(title)),
         "DEGRADED: " + "; ".join(reasons)]
    )


def _degradation_section(r) -> str:
    lines = ["-- Degraded stages " + "-" * 40]
    for f in r.stage_failures:
        lines.append(f"  {f.describe()}")
    lines.append(
        f"=> {len(r.stage_failures)} stage(s) degraded;"
        " all other results are from clean inputs"
    )
    return "\n".join(lines)


def _timings_section(r) -> str:
    """Top-level stage timings (spans whose parent is not a stage); the
    sub-stage breakdown is printed by ``--timings`` in the CLI."""
    from repro.viz.trace import render_timings

    ids = {sp.span_id for sp in r.timings}
    top = [sp for sp in r.timings if sp.parent_id not in ids]
    return render_timings(top, title="Stage timings (perf)")


def _header(r) -> str:
    days = r.duration / 86400.0
    cats = r.interruptions_by_category()
    source = getattr(r, "source", "")
    return "\n".join(
        [
            "=" * 72,
            "CO-ANALYSIS OF RAS LOG AND JOB LOG"
            + (f" [{source}]" if source else ""),
            "=" * 72,
            f"window: {days:.0f} days | jobs: {r.num_jobs}"
            f" (distinct: {r.num_distinct_jobs})",
            f"interrupted jobs: {r.num_interrupted_jobs}"
            f" (distinct: {r.num_interrupted_distinct_jobs()})"
            f" | system: {cats[CATEGORY_SYSTEM]}"
            f" | application: {cats[CATEGORY_APPLICATION]}",
        ]
    )


def _filtering_section(r) -> str:
    s = r.filter_stats
    jr = len(r.job_related_redundant_ids)
    return "\n".join(
        [
            "-- Filtering (SIV) " + "-" * 40,
            f"raw FATAL records:        {s.raw}",
            f"after temporal filter:    {s.after_temporal}",
            f"after spatial filter:     {s.after_spatial}",
            f"after causality filter:   {s.after_causal}"
            f"  (compression {100 * s.compression_ratio:.2f}%)",
            f"job-related redundant:    {jr}"
            f"  (further {100 * jr / max(1, s.after_causal):.1f}%)",
            f"independent fatal events: {len(r.events_final)}",
        ]
    )


def _identification_section(r) -> str:
    from repro.core.identify import TypeBehavior

    ident = r.identification
    return "\n".join(
        [
            "-- Interruption-related fatal events (SIV-A) " + "-" * 14,
            f"interruption-related types: "
            f"{ident.count(TypeBehavior.INTERRUPTION_RELATED)}",
            f"non-fatal types:            {ident.count(TypeBehavior.NONFATAL)}"
            f"  ({', '.join(ident.nonfatal_types()) or 'none'})",
            f"undetermined (idle) types:  "
            f"{ident.count(TypeBehavior.UNDETERMINED_IDLE)}",
            f"undetermined (mixed) types: "
            f"{ident.count(TypeBehavior.UNDETERMINED_MIXED)}",
        ]
    )


def _classification_section(r) -> str:
    c = r.classification
    return "\n".join(
        [
            "-- System failures vs application errors (SIV-B) " + "-" * 10,
            f"system failure types:     {len(c.system_types())}",
            f"application error types:  {len(c.application_types())}"
            f"  ({', '.join(c.application_types()) or 'none'})",
        ]
    )


def _fit_row(label: str, cmp) -> str:
    if cmp is None:
        return f"{label:<28} (insufficient data)"
    w = cmp.weibull
    return (
        f"{label:<28} shape={w.shape:<10.6g} scale={w.scale:<12.6g}"
        f" mean={w.mean:<12.6g} var={w.variance:.6g}"
    )


def _table4(r) -> str:
    ia = r.interarrivals
    return "\n".join(
        [
            "-- Table IV: fatal interarrival Weibull fits " + "-" * 14,
            _fit_row("before job-related filter", ia.before),
            _fit_row("after job-related filter", ia.after),
            f"MTBF ratio (after/before): {ia.mtbf_ratio:.2f}"
            " | LRT prefers Weibull: "
            f"{ia.after.weibull_preferred if ia.after else 'n/a'}",
        ]
    )


def _table5(r) -> str:
    return "\n".join(
        [
            "-- Table V: interruption interarrival Weibull fits " + "-" * 8,
            _fit_row("system failures", r.rates.system),
            _fit_row("application errors", r.rates.application),
            f"MTTI/MTBF: {r.rates.mtti_over_mtbf:.2f}",
        ]
    )


def _table6(r) -> str:
    grid = r.vulnerability.grid
    lines = ["-- Table VI: system interruptions / jobs by size x time " + "-" * 2]
    header = f"{'midplanes':>10} |" + "".join(
        f" {f'{int(lo)}-{int(hi)}s':>16}" for lo, hi in RUNTIME_BUCKETS
    ) + f" {'proportion':>12}"
    lines.append(header)
    by_size = grid.proportion_by_size()
    for i, size in enumerate(SIZE_CLASSES):
        cells = "".join(
            f" {grid.interrupted[i, j]:>6}/{grid.totals[i, j]:<9}"
            for j in range(len(RUNTIME_BUCKETS))
        )
        lines.append(f"{size:>10} |{cells} {100 * by_size[i]:>11.2f}%")
    col = "".join(
        f" {grid.interrupted[:, j].sum():>6}/{grid.totals[:, j].sum():<9}"
        for j in range(len(RUNTIME_BUCKETS))
    )
    lines.append(f"{'sum':>10} |{col} {100 * grid.overall_proportion:>11.2f}%")
    return "\n".join(lines)


def _bar(value: float, vmax: float, width: int = 40) -> str:
    if vmax <= 0:
        return ""
    return "#" * max(0, int(round(width * value / vmax)))


def _figure4(r) -> str:
    p = r.midplane_profile
    fatal = p["fatal_events"]
    lines = ["-- Figure 4a: fatal events per midplane (ASCII) " + "-" * 10]
    vmax = float(fatal.max()) if len(fatal) else 0.0
    for block in range(0, 80, 8):
        row = fatal[block : block + 8]
        lines.append(
            f"mp {block:>2}-{block + 7:>2}: "
            + " ".join(f"{int(v):>4}" for v in row)
            + f" | {_bar(float(row.sum()), max(1.0, vmax * 8), 24)}"
        )
    s = r.skew
    lines.append(
        f"wide region [32,64): events {100 * s.wide_region_event_share:.1f}%"
        f" | wide workload {100 * s.wide_region_wide_workload_share:.1f}%"
        f" | total workload {100 * s.wide_region_total_workload_share:.1f}%"
    )
    return "\n".join(lines)


def _figure5(r) -> str:
    from repro.viz import sparkline

    per_day = r.bursts.per_day
    lines = ["-- Figure 5: interruptions per day (weekly bins, ASCII) " + "-" * 2]
    lines.append(f"daily: {sparkline(per_day)}")
    weeks = [per_day[i : i + 7].sum() for i in range(0, len(per_day), 7)]
    vmax = max(weeks) if weeks else 0
    for w, count in enumerate(weeks):
        lines.append(f"week {w + 1:>3}: {int(count):>4} {_bar(count, max(1, vmax))}")
    lines.append(
        f"bursty: index of dispersion {r.bursts.burstiness:.2f},"
        f" {r.bursts.quick_successions} quick successions"
        f" (< {r.bursts.quick_window:.0f} s)"
    )
    return "\n".join(lines)


def _figure7(r) -> str:
    v = r.vulnerability
    lines = ["-- Figure 7: P(interrupt on resubmission | k prior) " + "-" * 7]
    for risk, label in (
        (v.risk_system, "category 1 (system)"),
        (v.risk_application, "category 2 (application)"),
    ):
        probs = risk.probabilities()
        cells = "  ".join(
            f"k={k + 1}: {100 * p:>5.1f}% ({risk.counts[k][0]}/{risk.counts[k][1]})"
            for k, p in enumerate(probs)
        )
        lines.append(f"{label:<26} {cells}")
    return "\n".join(lines)


def _observations_section(r) -> str:
    lines = ["-- The twelve observations " + "-" * 32]
    lines += [obs.summary() for obs in r.observations]
    held = sum(1 for o in r.observations if o.holds)
    skipped = sum(1 for o in r.observations if not o.available)
    tally = f"=> {held}/{len(r.observations) - skipped} observations hold"
    if skipped:
        tally += f" ({skipped} skipped on degraded inputs)"
    lines.append(tally)
    return "\n".join(lines)
