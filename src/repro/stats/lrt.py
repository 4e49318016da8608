"""Model selection between Weibull and exponential interarrival fits.

The exponential is the Weibull with shape fixed at 1, so the two models
are nested and the likelihood-ratio statistic ``2(ℓ_W − ℓ_E)`` is
asymptotically χ²(1) under the exponential null (§V-A, ref. [16]). AIC
is reported alongside for readers who prefer a non-test criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.stats.exponential import ExponentialFit, fit_exponential
from repro.stats.weibull import WeibullFit, fit_weibull


@dataclass(frozen=True)
class ModelComparison:
    """Outcome of fitting both models to one interarrival sample."""

    weibull: WeibullFit
    exponential: ExponentialFit
    lr_statistic: float
    p_value: float

    @property
    def weibull_preferred(self) -> bool:
        """True when the LRT rejects the exponential at the 5% level."""
        return self.p_value < 0.05

    def summary(self) -> str:
        w, e = self.weibull, self.exponential
        pick = "Weibull" if self.weibull_preferred else "exponential"
        return (
            f"Weibull(shape={w.shape:.6g}, scale={w.scale:.6g}, "
            f"mean={w.mean:.6g}, var={w.variance:.6g}) vs "
            f"Exp(mean={e.mean:.6g}); LRT={self.lr_statistic:.2f}, "
            f"p={self.p_value:.3g} -> {pick}"
        )


def _chi2_sf_1df(x: float) -> float:
    """Survival function of χ² with one degree of freedom.

    ``P(χ²₁ > x) = P(|Z| > √x) = erfc(√(x/2))`` for a standard normal Z.
    """
    return math.erfc(math.sqrt(x / 2.0))


def compare_interarrival_models(samples: np.ndarray) -> ModelComparison:
    """Fit both models to positive interarrival *samples* and test.

    The degenerate LR statistic is clamped at zero (finite-sample MLE
    noise can make it fractionally negative).
    """
    w = fit_weibull(samples)
    e = fit_exponential(samples)
    lr = max(0.0, 2.0 * (w.log_likelihood - e.log_likelihood))
    return ModelComparison(
        weibull=w, exponential=e, lr_statistic=lr, p_value=_chi2_sf_1df(lr)
    )
