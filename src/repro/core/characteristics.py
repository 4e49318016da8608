"""Failure characteristics (§V): interarrival fits and midplane profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.events import FatalEventTable
from repro.core.jobindex import expand_spans, midplane_spans
from repro.frame import Frame
from repro.logs.job import JobLog
from repro.machine.topology import NUM_MIDPLANES
from repro.stats import ModelComparison, compare_interarrival_models


@dataclass(frozen=True)
class InterarrivalStudy:
    """Table IV: systemwide Weibull/exponential fits, before and after
    job-related filtering. Fields are ``None`` when the event stream is
    too sparse to fit (degenerate inputs)."""

    before: ModelComparison | None
    after: ModelComparison | None

    @property
    def mtbf_ratio(self) -> float:
        """How much job-related filtering inflates the fitted MTBF."""
        if self.before is None or self.after is None:
            return float("nan")
        return self.after.weibull.mean / self.before.weibull.mean


def interarrival_study(
    events_before: FatalEventTable,
    events_after: FatalEventTable,
    min_samples: int = 5,
) -> InterarrivalStudy:
    """Fit both event sets' systemwide interarrival distributions."""

    def fit(events: FatalEventTable) -> ModelComparison | None:
        gaps = events.interarrival_times()
        if len(gaps) < min_samples or len(np.unique(gaps)) < 2:
            return None
        return compare_interarrival_models(gaps)

    return InterarrivalStudy(before=fit(events_before), after=fit(events_after))


def midplane_profile(
    events: FatalEventTable,
    job_log: JobLog,
    wide_threshold: int = 32,
) -> Frame:
    """Figure 4's three per-midplane series.

    Returns one row per midplane with ``fatal_events`` (4a), ``workload``
    in midplane-seconds (4b), and ``wide_workload`` counting only jobs of
    at least *wide_threshold* midplanes (4c).
    """
    frame = job_log.frame
    # bincount adds each midplane's weights in input order: job order,
    # as a per-job loop would
    rows, mps = expand_spans(*midplane_spans(frame["location"]))
    runtimes = (frame["end_time"] - frame["start_time"])[rows]
    is_wide = frame["size_midplanes"][rows] >= wide_threshold

    def per_midplane(at: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # float even with no jobs, where bincount would give int zeros
        return np.bincount(
            at, weights=weights, minlength=NUM_MIDPLANES
        ).astype(np.float64)

    return Frame(
        {
            "midplane": np.arange(NUM_MIDPLANES, dtype=np.int64),
            "fatal_events": events.midplane_counts(NUM_MIDPLANES),
            "workload": per_midplane(mps, runtimes),
            "wide_workload": per_midplane(mps[is_wide], runtimes[is_wide]),
        }
    )


@dataclass(frozen=True)
class MidplaneSkewSummary:
    """Observation 5's quantitative core."""

    top_failure_midplanes: tuple[int, ...]
    wide_region_event_share: float
    wide_region_wide_workload_share: float
    wide_region_total_workload_share: float


def midplane_skew(
    profile: Frame, region: tuple[int, int] = (32, 64), top_n: int = 3
) -> MidplaneSkewSummary:
    """Summarize how failures track wide-job workload, not total workload."""
    fatal = profile["fatal_events"].astype(np.float64)
    workload = profile["workload"]
    wide = profile["wide_workload"]
    lo, hi = region
    in_region = (profile["midplane"] >= lo) & (profile["midplane"] < hi)

    def share(series: np.ndarray) -> float:
        total = series.sum()
        return float(series[in_region].sum() / total) if total > 0 else 0.0

    top = tuple(
        int(i) for i in np.argsort(fatal, kind="stable")[::-1][:top_n]
    )
    return MidplaneSkewSummary(
        top_failure_midplanes=top,
        wide_region_event_share=share(fatal),
        wide_region_wide_workload_share=share(wide),
        wide_region_total_workload_share=share(workload),
    )
