"""Maximum-likelihood Weibull fitting.

The paper fits failure and interruption interarrival times with a
two-parameter Weibull distribution (density
``f(t) = (k/λ) (t/λ)^(k-1) exp(-(t/λ)^k)``) via MLE (§V-A, ref. [8]),
reporting shape, scale, mean and variance (Tables IV and V). Shape < 1
means a decreasing hazard rate, the property driving Observation 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _gamma(x: float) -> np.float64:
    """Γ(x) for x > 1, saturating to ``inf`` past x ≈ 171.6.

    ``math.gamma`` raises ``OverflowError`` there; a shape below ~0.006
    (samples spanning hundreds of decades) makes the moments infinite.
    A numpy scalar keeps ``inf`` arithmetic in the moment formulas
    (``inf - inf`` is ``nan``, not an exception).
    """
    try:
        return np.float64(math.gamma(x))
    except OverflowError:
        return np.float64(np.inf)


@dataclass(frozen=True)
class WeibullFit:
    """A fitted two-parameter Weibull distribution."""

    shape: float
    scale: float
    n: int
    log_likelihood: float

    @property
    def mean(self) -> float:
        """Distribution mean ``λ Γ(1 + 1/k)`` (the MTBF/MTTI columns)."""
        return self.scale * _gamma(1.0 + 1.0 / self.shape)

    @property
    def variance(self) -> float:
        g1 = _gamma(1.0 + 1.0 / self.shape)
        g2 = _gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)

    @property
    def decreasing_hazard(self) -> bool:
        """True when shape < 1: failures cluster after recent failures."""
        return self.shape < 1.0

    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=np.float64)
        out = -np.expm1(-np.power(np.maximum(t, 0.0) / self.scale, self.shape))
        return out if out.ndim else float(out)

    def sf(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=np.float64)
        out = np.exp(-np.power(np.maximum(t, 0.0) / self.scale, self.shape))
        return out if out.ndim else float(out)

    def hazard(self, t: np.ndarray | float) -> np.ndarray | float:
        """Instantaneous failure rate ``(k/λ)(t/λ)^(k-1)``."""
        t = np.asarray(t, dtype=np.float64)
        out = (self.shape / self.scale) * np.power(t / self.scale, self.shape - 1.0)
        return out if out.ndim else float(out)

    def conditional_interruption_probability(
        self, elapsed_since_failure: float, horizon: float
    ) -> float:
        """P(failure within *horizon* | survived *elapsed_since_failure*).

        This is the conditional probability the paper invokes (§VI-D,
        ref. [30]) to explain why short jobs submitted right after a
        failure are more exposed than long jobs submitted later.
        """
        s0 = self.sf(elapsed_since_failure)
        s1 = self.sf(elapsed_since_failure + horizon)
        if s0 <= 0.0:
            return 1.0
        return 1.0 - s1 / s0


def _brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float,
    maxiter: int = 100,
) -> float:
    """Root of *f* in the sign-changing bracket ``[xa, xb]`` by Brent's method.

    A line-for-line port of SciPy's C ``brentq`` (``optimize/Zeros/
    brentq.c``; BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc.
    and 2003 onwards SciPy Developers), so it returns the same root, bit
    for bit, as SciPy's ``optimize.brentq`` with the same tolerances.
    Raises ``ValueError`` when ``f(xa)`` and ``f(xb)`` have the same
    sign and ``RuntimeError`` when *maxiter* steps do not converge.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre)
                    / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations")


def fit_weibull(samples: np.ndarray) -> WeibullFit:
    """MLE fit of a two-parameter Weibull to positive *samples*.

    Solves the profile-likelihood shape equation

    ``Σ x^k ln x / Σ x^k − 1/k − mean(ln x) = 0``

    by bracketed root finding, then recovers scale analytically. Needs at
    least two distinct positive samples; otherwise raises ``ValueError``.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("samples must be 1-D")
    if len(x) < 2:
        raise ValueError(f"need at least 2 samples, got {len(x)}")
    if np.any(x <= 0) or np.any(~np.isfinite(x)):
        raise ValueError("samples must be positive and finite")
    if np.all(x == x[0]):
        raise ValueError("samples are all identical; Weibull MLE diverges")

    logx = np.log(x)
    mean_logx = logx.mean()
    log_max = logx.max()

    def shape_equation(k: float) -> float:
        # Weighted mean of log x with weights x^k, computed in log space
        # so huge shapes (near-identical samples) cannot overflow.
        w = np.exp(k * (logx - log_max))
        return float(np.dot(w, logx) / w.sum() - 1.0 / k - mean_logx)

    # shape_equation is increasing in k; bracket a sign change.
    lo, hi = 1e-3, 1.0
    while shape_equation(hi) < 0.0 and hi < 1e8:
        hi *= 2.0
    while shape_equation(lo) > 0.0 and lo > 1e-12:
        lo /= 2.0
    if shape_equation(hi) < 0.0:
        # Samples distinct only in their last float bits: the profile
        # equation has no root below the cap (the MLE shape diverges the
        # same way truly identical samples make it diverge). Clamp to
        # the cap — a near-degenerate spike distribution — instead of
        # handing _brentq two same-signed endpoints.
        k = hi
    elif shape_equation(lo) > 0.0:
        k = lo
    else:
        k = _brentq(shape_equation, lo, hi, xtol=1e-12, rtol=1e-12)
    # scale^k = mean(x^k); evaluated in log space for the same reason.
    w = np.exp(k * (logx - log_max))
    scale = float(np.exp(log_max + np.log(w.mean()) / k))

    # At the MLE scale, sum((x/scale)^k) == n exactly.
    n = len(x)
    loglik = float(
        n * (np.log(k) - k * np.log(scale)) + (k - 1.0) * logx.sum() - n
    )
    return WeibullFit(shape=k, scale=scale, n=n, log_likelihood=loglik)
