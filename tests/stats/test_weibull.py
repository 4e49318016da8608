"""Unit tests for Weibull MLE fitting."""

import math

import numpy as np
import pytest

from repro.stats import WeibullFit, fit_weibull
from repro.stats.weibull import _brentq


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


class TestRecovery:
    @pytest.mark.parametrize("shape,scale", [(0.4, 8000.0), (0.6, 70000.0), (1.5, 10.0)])
    def test_parameters_recovered(self, rng, shape, scale):
        x = scale * rng.weibull(shape, size=20000)
        x = x[x > 0]
        fit = fit_weibull(x)
        assert fit.shape == pytest.approx(shape, rel=0.05)
        assert fit.scale == pytest.approx(scale, rel=0.05)

    def test_exponential_data_gives_shape_one(self, rng):
        x = rng.exponential(100.0, size=20000)
        fit = fit_weibull(x)
        assert fit.shape == pytest.approx(1.0, rel=0.05)

    def test_mean_formula(self):
        fit = WeibullFit(shape=0.5, scale=100.0, n=10, log_likelihood=0.0)
        # mean = scale * Gamma(3) = 100 * 2
        assert fit.mean == pytest.approx(200.0)

    def test_variance_formula(self):
        fit = WeibullFit(shape=1.0, scale=50.0, n=10, log_likelihood=0.0)
        assert fit.variance == pytest.approx(2500.0)

    def test_table4_regime(self, rng):
        """Shapes and scales of Table IV order of magnitude fit cleanly."""
        x = 8116.7 * rng.weibull(0.387, size=5000)
        fit = fit_weibull(x[x > 0])
        assert 0.3 < fit.shape < 0.5
        assert fit.decreasing_hazard


class TestDistributionFunctions:
    @pytest.fixture(scope="class")
    def fit(self):
        return WeibullFit(shape=0.5, scale=1000.0, n=100, log_likelihood=0.0)

    def test_cdf_limits(self, fit):
        assert fit.cdf(0.0) == 0.0
        assert fit.cdf(1e12) == pytest.approx(1.0)

    def test_cdf_sf_complement(self, fit):
        t = np.array([1.0, 10.0, 1000.0])
        assert np.allclose(fit.cdf(t) + fit.sf(t), 1.0)

    def test_cdf_monotone(self, fit):
        t = np.linspace(0, 5000, 100)
        assert (np.diff(fit.cdf(t)) >= 0).all()

    def test_hazard_decreasing_for_shape_below_one(self, fit):
        t = np.array([10.0, 100.0, 1000.0])
        h = fit.hazard(t)
        assert h[0] > h[1] > h[2]

    def test_scalar_in_scalar_out(self, fit):
        assert isinstance(fit.cdf(5.0), float)
        assert isinstance(fit.hazard(5.0), float)

    def test_conditional_probability_decreases_with_elapsed(self, fit):
        """Decreasing hazard: surviving longer lowers near-term risk —
        the mechanism behind Observation 10."""
        p_fresh = fit.conditional_interruption_probability(0.0, 100.0)
        p_aged = fit.conditional_interruption_probability(10000.0, 100.0)
        assert p_fresh > p_aged

    def test_conditional_probability_bounds(self, fit):
        p = fit.conditional_interruption_probability(100.0, 100.0)
        assert 0.0 <= p <= 1.0


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_weibull(np.array([1.0]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_weibull(np.array([1.0, 0.0]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fit_weibull(np.array([1.0, np.nan]))

    def test_identical_samples_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_weibull(np.full(10, 3.0))

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            fit_weibull(np.ones((2, 2)))

    def test_loglik_finite(self):
        fit = fit_weibull(np.array([1.0, 2.0, 3.0, 10.0]))
        assert np.isfinite(fit.log_likelihood)


# (true shape, n, seed, fitted shape, fitted scale) for
# ``fit_weibull(1000 * default_rng(seed).weibull(shape, n))``. The fitted
# values were computed once with ``scipy.optimize.brentq`` (SciPy 1.17.1)
# as the root finder; the port must reproduce them bit for bit.
PINNED_FITS = [
    (0.3, 2, 1, "0x1.279ecf9cfd3fap-1", "0x1.ba9d3d7a3203dp+8"),
    (0.387, 50, 2, "0x1.decf01c743852p-2", "0x1.b8517d191990cp+9"),
    (0.5, 7, 3, "0x1.177f84ec0eb27p-1", "0x1.21ce316f92691p+9"),
    (0.7, 300, 4, "0x1.661905a4c44cbp-1", "0x1.19e337aae8925p+10"),
    (1.0, 1000, 5, "0x1.f70e3e947cf3fp-1", "0x1.d7d37b276a553p+9"),
    (1.5, 2000, 6, "0x1.90ea0dcc8e723p+0", "0x1.f55916bcd8f68p+9"),
    (3.0, 25, 7, "0x1.874f921ffd947p+1", "0x1.f44a2fbe0589dp+9"),
    (2.2, 3, 8, "0x1.271ccf9126af9p+2", "0x1.e868f233bf821p+9"),
]


class TestPinnedFits:
    @pytest.mark.parametrize("shape,n,seed,k_hex,scale_hex", PINNED_FITS)
    def test_fit_bit_identical(self, shape, n, seed, k_hex, scale_hex):
        x = 1000.0 * np.random.default_rng(seed).weibull(shape, size=n)
        fit = fit_weibull(x)
        assert fit.shape.hex() == k_hex
        assert fit.scale.hex() == scale_hex

    def test_near_degenerate_sample_clamps(self):
        """Samples one ulp apart: no root below the cap, shape clamps."""
        fit = fit_weibull(np.array([1.0, np.nextafter(1.0, 2.0), 1.0]))
        assert fit.shape == 2.0**27
        assert fit.scale == 1.0

    @pytest.mark.parametrize(
        "shape,scale,mean,variance",
        [
            (0.387, 8116.7, 29627.234256312637, 9678001868.890484),
            (0.5, 100.0, 200.0, 200000.0),
            (2.5, 3.0, 2.6617914525092257, 1.2973202021710097),
            (0.2, 1e4, 1200000.0, 361440000000000.0),
        ],
    )
    def test_mean_variance_pinned(self, shape, scale, mean, variance):
        """Values from ``scipy.special.gamma``; ``math.gamma`` agrees."""
        fit = WeibullFit(shape=shape, scale=scale, n=10, log_likelihood=0.0)
        assert fit.mean == pytest.approx(mean, rel=1e-13)
        assert fit.variance == pytest.approx(variance, rel=1e-13)

    def test_tiny_shape_moments_saturate(self):
        """Past Γ's float range the moments are inf/nan, not an error:
        samples spanning 600 decades fit a shape near 0.003."""
        x = 10.0 ** np.random.default_rng(1).uniform(-300, 300, 100)
        fit = fit_weibull(x)
        assert fit.shape < 0.005
        with np.errstate(invalid="ignore"):
            assert fit.mean == math.inf
            assert math.isnan(fit.variance)


class TestBrentq:
    def test_endpoint_root_returned_unchanged(self):
        assert _brentq(lambda x: x - 0.1, 0.1, 5.0, 1e-12, 1e-12) == 0.1
        assert _brentq(lambda x: x - 0.3, -1.0, 0.3, 1e-12, 1e-12) == 0.3

    def test_same_sign_endpoints_raise(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)

    def test_nonconvergence_raises(self):
        """A jump at 1/3 with a tolerance below the float spacing there
        can never shrink the bracket enough."""
        def step(x):
            return -1.0 if x < 1.0 / 3.0 else 1.0

        with pytest.raises(RuntimeError, match="100 iterations"):
            _brentq(step, 0.0, 1.0, xtol=1e-300, rtol=0.0)

    def test_root_within_tolerance(self):
        root = _brentq(lambda x: math.cos(x) - x, 0.0, 1.0, 1e-12, 1e-12)
        assert abs(root - 0.7390851332151607) < 1e-12

    def test_matches_scipy_exactly(self, monkeypatch):
        """Seeded fuzz: the port returns SciPy's root, bit for bit, on the
        profile equations ``fit_weibull`` solves and on generic brackets."""
        optimize = pytest.importorskip("scipy.optimize")
        from repro.stats import weibull

        solved = []

        def checked(f, lo, hi, xtol, rtol):
            root = _brentq(f, lo, hi, xtol, rtol)
            assert root == optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol)
            solved.append(root)
            return root

        monkeypatch.setattr(weibull, "_brentq", checked)
        rng = np.random.default_rng(2011)
        for _ in range(200):
            shape = float(rng.uniform(0.2, 4.0))
            n = int(rng.integers(2, 3000))
            x = float(rng.uniform(1.0, 1e5)) * rng.weibull(shape, size=n)
            x = x[x > 0]
            if len(x) >= 2 and not np.all(x == x[0]):
                fit_weibull(x)
        assert len(solved) >= 190

        for _ in range(200):
            c = rng.normal(size=4)

            def g(x, c=c):
                return float(c[0] + c[1] * x + c[2] * x**3 + c[3] * math.sin(5 * x))

            if math.copysign(1.0, g(-3.0)) != math.copysign(1.0, g(3.0)):
                checked(g, -3.0, 3.0, 1e-12, 1e-12)
