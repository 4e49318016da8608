"""Job interruption rates (§VI-B): Table V."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.vulnerability import CATEGORY_APPLICATION, CATEGORY_SYSTEM
from repro.frame import Frame
from repro.stats import ModelComparison, compare_interarrival_models


@dataclass(frozen=True)
class InterruptionRateStudy:
    """Interarrival fits of interruptions per category."""

    system: ModelComparison | None
    application: ModelComparison | None
    #: MTTI(system) / MTBF — the paper's 4.07x (Obs. 7)
    mtti_over_mtbf: float

    @property
    def mtti_system(self) -> float:
        return self.system.weibull.mean if self.system else float("nan")

    @property
    def mtti_application(self) -> float:
        return self.application.weibull.mean if self.application else float("nan")


def category_interarrivals(interruptions_cat: Frame, category: int) -> np.ndarray:
    """Positive interarrival gaps of one category's interruptions."""
    if interruptions_cat.num_rows == 0:
        return np.array([])
    sub = interruptions_cat.filter(interruptions_cat.mask_eq("category", category))
    times = np.sort(sub["event_time"])
    gaps = np.diff(times)
    return gaps[gaps > 0]


def interruption_rate_study(
    interruptions_cat: Frame, mtbf: float, min_samples: int = 5
) -> InterruptionRateStudy:
    """Fit Table V's two rows and compute the MTTI/MTBF ratio.

    *mtbf* is the fitted systemwide failure interarrival mean (after
    job-related filtering, Table IV bottom row).
    """
    fits: dict[int, ModelComparison | None] = {}
    for category in (CATEGORY_SYSTEM, CATEGORY_APPLICATION):
        gaps = category_interarrivals(interruptions_cat, category)
        fits[category] = (
            compare_interarrival_models(gaps) if len(gaps) >= min_samples else None
        )
    system = fits[CATEGORY_SYSTEM]
    ratio = system.weibull.mean / mtbf if (system and mtbf > 0) else float("nan")
    return InterruptionRateStudy(
        system=system,
        application=fits[CATEGORY_APPLICATION],
        mtti_over_mtbf=ratio,
    )
