#!/usr/bin/env python
"""Tune the §VII failure predictor's alarm threshold on a trace.

Sweeps the alarm threshold of the location-aware job-risk predictor,
prints the precision/recall trade-off with terminal charts, and marks
the operating point maximizing protected work under a configurable
alarm budget (proactive actions — checkpoint-now, migrate, delay —
aren't free, so the site caps how often the predictor may cry wolf).

Usage::

    python -m benchmarks.ext.predictor_tuning [--scale 0.2] [--alarm-budget 0.05]
"""

import argparse
from typing import Sequence

import numpy as np

from benchmarks.ext.predict import (
    JobRiskPredictor,
    MidplaneHazard,
    RiskWeights,
    sweep_thresholds,
)
from repro.core import CoAnalysis
from repro.simulate import CalibrationProfile, IntrepidSimulation
from repro.viz import sparkline


def series_table(
    columns: dict[str, Sequence[float]],
    index: Sequence | None = None,
    float_format: str = "{:.4g}",
) -> str:
    """Aligned table of parallel series, one row per index entry."""
    if not columns:
        return ""
    names = list(columns)
    arrays = [list(columns[n]) for n in names]
    n = len(arrays[0])
    for a in arrays:
        if len(a) != n:
            raise ValueError("all series must share a length")
    idx = list(index) if index is not None else list(range(n))
    widths = [max(len(name), 10) for name in names]
    header = f"{'':>8} " + " ".join(
        f"{name:>{w}}" for name, w in zip(names, widths)
    )
    lines = [header]
    for i in range(n):
        cells = " ".join(
            f"{float_format.format(float(a[i])):>{w}}"
            for a, w in zip(arrays, widths)
        )
        lines.append(f"{str(idx[i]):>8} " + cells)
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument(
        "--alarm-budget", type=float, default=0.05,
        help="max fraction of jobs that may raise alarms (default 5%%)",
    )
    args = parser.parse_args()

    print(f"building trace (scale={args.scale}) and running co-analysis ...")
    trace = IntrepidSimulation(
        CalibrationProfile(seed=args.seed, scale=args.scale)
    ).run()
    result = CoAnalysis().run(trace.ras_log, trace.job_log)
    shape = result.interarrivals.after.weibull.shape

    def make():
        return JobRiskPredictor(
            hazard=MidplaneHazard(shape=shape), weights=RiskWeights()
        )

    thresholds = np.geomspace(0.05, 20.0, 10)
    print(f"sweeping {len(thresholds)} thresholds ...\n")
    results = sweep_thresholds(
        make, trace.job_log, result.interruptions, thresholds
    )

    print("=" * 64)
    print("PREDICTOR OPERATING CURVE (category-1 interruptions)")
    print("=" * 64)
    print(
        series_table(
            {
                "threshold": [t for t, _ in results],
                "precision": [s.precision for _, s in results],
                "recall": [s.recall for _, s in results],
                "alarm_rate": [s.alarm_rate for _, s in results],
                "work_cover": [s.work_coverage for _, s in results],
            },
            index=[f"#{i}" for i in range(len(results))],
        )
    )
    print("\nrecall curve:     ", sparkline([s.recall for _, s in results]))
    print("precision curve:  ", sparkline([s.precision for _, s in results]))

    feasible = [(t, s) for t, s in results if s.alarm_rate <= args.alarm_budget]
    if feasible:
        best_t, best = max(feasible, key=lambda ts: ts[1].work_coverage)
        print(
            f"\nbest under a {100 * args.alarm_budget:.0f}% alarm budget: "
            f"threshold {best_t:.2f} -> recall {best.recall:.2f}, "
            f"precision {best.precision:.2f}, "
            f"{100 * best.work_coverage:.0f}% of interrupted work covered"
        )
    else:
        print("\nno threshold satisfies the alarm budget; raise it")
    print(
        "\nreading: precision is intrinsically low (interruptions are\n"
        "0.4% of jobs), but a small alarm budget still covers most of\n"
        "the at-risk *work* because risk concentrates after failures at\n"
        "specific locations (Obs. 6/7/9) and on wide jobs (Obs. 10)."
    )


if __name__ == "__main__":
    main()
