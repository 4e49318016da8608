"""Figure 6: empirical CDFs of interruption interarrivals, split by
cause (system failures vs application errors).

Shape criteria: both CDFs are better tracked by the Weibull than the
exponential fit, mirroring Figure 3 at the interruption level.
"""

from benchmarks.conftest import banner
from repro.core.rates import category_interarrivals
from repro.core.vulnerability import CATEGORY_APPLICATION, CATEGORY_SYSTEM
from repro.frame import Frame
from repro.stats import EmpiricalCDF


def interruption_cdfs(interruptions_cat: Frame) -> dict[int, EmpiricalCDF]:
    """Figure 6's empirical CDFs, keyed by category."""
    out: dict[int, EmpiricalCDF] = {}
    for category in (CATEGORY_SYSTEM, CATEGORY_APPLICATION):
        gaps = category_interarrivals(interruptions_cat, category)
        if len(gaps):
            out[category] = EmpiricalCDF.from_samples(gaps)
    return out


def test_figure6_category_cdfs(benchmark, analysis):
    cdfs = benchmark(interruption_cdfs, analysis.interruptions)
    banner("FIGURE 6: interruption interarrival CDFs by cause")
    assert CATEGORY_SYSTEM in cdfs, "need system-failure interruptions"
    for cat, label in ((CATEGORY_SYSTEM, "system"), (CATEGORY_APPLICATION, "application")):
        if cat not in cdfs:
            print(f"{label}: (insufficient data at this scale)")
            continue
        cdf = cdfs[cat]
        grid, y = cdf.log_spaced_series(10)
        series = " ".join(f"{t:.0f}:{v:.2f}" for t, v in zip(grid, y))
        print(f"{label:>12} (n={cdf.n}): {series}")

    rates = analysis.rates
    if rates.system is not None:
        ks_w = cdfs[CATEGORY_SYSTEM].ks_distance(rates.system.weibull.cdf)
        ks_e = cdfs[CATEGORY_SYSTEM].ks_distance(rates.system.exponential.cdf)
        print(f"system: KS Weibull {ks_w:.3f} vs exponential {ks_e:.3f}")
        assert ks_w < ks_e
    if rates.application is not None and CATEGORY_APPLICATION in cdfs:
        ks_w = cdfs[CATEGORY_APPLICATION].ks_distance(
            rates.application.weibull.cdf
        )
        ks_e = cdfs[CATEGORY_APPLICATION].ks_distance(
            rates.application.exponential.cdf
        )
        print(f"application: KS Weibull {ks_w:.3f} vs exponential {ks_e:.3f}")
        assert ks_w <= ks_e + 0.02
