"""Unit tests for exponential fitting and the likelihood-ratio test."""

import numpy as np
import pytest

from repro.stats import compare_interarrival_models, fit_exponential, fit_weibull
from repro.stats.lrt import ModelComparison, _chi2_sf_1df


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


class TestExponentialFit:
    def test_rate_is_inverse_mean(self):
        fit = fit_exponential(np.array([2.0, 4.0, 6.0]))
        assert fit.rate == pytest.approx(1.0 / 4.0)
        assert fit.mean == pytest.approx(4.0)
        assert fit.variance == pytest.approx(16.0)

    def test_cdf_sf(self):
        fit = fit_exponential(np.array([1.0, 1.0, 4.0]))
        assert fit.cdf(0.0) == 0.0
        t = np.array([0.5, 2.0])
        assert np.allclose(fit.cdf(t) + fit.sf(t), 1.0)

    def test_constant_hazard(self):
        fit = fit_exponential(np.array([1.0, 3.0]))
        h = fit.hazard(np.array([1.0, 100.0]))
        assert h[0] == h[1] == pytest.approx(fit.rate)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_exponential(np.array([]))
        with pytest.raises(ValueError):
            fit_exponential(np.array([-1.0]))

    def test_loglik_at_mle(self, rng):
        x = rng.exponential(10.0, 1000)
        fit = fit_exponential(x)
        # MLE log-likelihood: n(log rate - 1)
        assert fit.log_likelihood == pytest.approx(len(x) * (np.log(fit.rate) - 1.0))


class TestLikelihoodRatio:
    def test_weibull_wins_on_weibull_data(self, rng):
        """The paper's core fit result: Weibull beats exponential on
        failure interarrivals with shape well below 1."""
        x = 8000.0 * rng.weibull(0.4, size=2000)
        cmp = compare_interarrival_models(x[x > 0])
        assert cmp.weibull_preferred
        assert cmp.p_value < 1e-6
        assert cmp.weibull.shape < 1.0

    def test_exponential_survives_on_exponential_data(self, rng):
        x = rng.exponential(100.0, size=500)
        cmp = compare_interarrival_models(x)
        # LRT should rarely reject; statistic should be small.
        assert cmp.lr_statistic < 10.0

    def test_lr_statistic_nonnegative(self, rng):
        x = rng.exponential(1.0, size=50)
        cmp = compare_interarrival_models(x)
        assert cmp.lr_statistic >= 0.0

    def test_aic_ordering_consistent(self, rng):
        x = 100.0 * rng.weibull(0.5, size=2000)
        cmp = compare_interarrival_models(x[x > 0])
        assert cmp.aic_weibull < cmp.aic_exponential

    def test_summary_mentions_preferred_model(self, rng):
        x = 100.0 * rng.weibull(0.4, size=1000)
        cmp = compare_interarrival_models(x[x > 0])
        assert "Weibull" in cmp.summary()


class TestPValue:
    """P-values pinned at ``scipy.stats.chi2.sf(lr, df=1)``, which the
    closed form ``erfc(sqrt(lr / 2))`` replaced."""

    @pytest.mark.parametrize(
        "shape,n,seed,p",
        [
            (1.0, 200, 11, 0.6060374081732103),
            (0.85, 100, 12, 0.3263478167474493),
            (0.6, 120, 13, 1.7692307671068984e-12),
            (0.5, 400, 14, 1.0427695739258976e-116),
        ],
    )
    def test_p_value_pinned(self, shape, n, seed, p):
        x = 1000.0 * np.random.default_rng(seed).weibull(shape, size=n)
        assert compare_interarrival_models(x).p_value == pytest.approx(p, rel=1e-13)

    def test_zero_statistic_gives_one(self):
        assert _chi2_sf_1df(0.0) == 1.0

    @pytest.mark.parametrize("lr", [1500.0, 5000.0, 1e6])
    def test_huge_statistic_underflows_to_zero(self, lr):
        assert _chi2_sf_1df(lr) == 0.0

    @pytest.mark.parametrize("lr,preferred", [(3.80, False), (3.90, True)])
    def test_decision_either_side_of_critical_value(self, lr, preferred):
        x = np.array([1.0, 2.0, 5.0])
        cmp = ModelComparison(
            weibull=fit_weibull(x),
            exponential=fit_exponential(x),
            lr_statistic=lr,
            p_value=_chi2_sf_1df(lr),
        )
        assert cmp.weibull_preferred is preferred

    def test_critical_value_knife_edge(self):
        """At the exact 5% critical value of χ²(1), ``chi2.sf`` gave
        0.04999999999999989 (Weibull preferred); erfc gives a value one
        rounding above 0.05 (not preferred). This single point is the
        only decision the closed form moves."""
        assert _chi2_sf_1df(3.841458820694124) == 0.05000000000000008
