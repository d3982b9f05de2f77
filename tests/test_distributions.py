import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from crpstail import (
    Exponential,
    Gamma,
    GeneralizedPareto,
    Normal,
    NormalMixture2,
    ParameterError,
    Spliced,
    UniformMixture,
    UnsupportedFamilyError,
    batch_cdf,
    from_family,
)

ALL_DISTS = [
    Normal(0.3, 1.2),
    NormalMixture2(0.5, -1.0, 1.0, 1.5, 0.7),
    NormalMixture2(0.2, 0.0, 0.5, 3.0, 2.0),
    Exponential(1.7),
    Gamma(4.0, 4.0),
    GeneralizedPareto(1.0, 0.25),
    GeneralizedPareto(2.0, 0.0),
    GeneralizedPareto(1.5, -0.3),
    UniformMixture([(0.25, 0.0, 1.0), (0.75, 2.0, 5.0)]),
]


class TestNormal:
    def test_matches_scipy(self):
        d = Normal(0.3, 1.2)
        x = np.linspace(-4, 5, 41)
        ref = stats.norm(0.3, 1.2)
        assert_allclose(d.cdf(x), ref.cdf(x), rtol=1e-13)
        assert_allclose(d.pdf(x), ref.pdf(x), rtol=1e-13)
        assert_allclose(d.quantile(ref.cdf(x)), x, atol=1e-9)

    def test_mean(self):
        assert Normal(-2.5, 0.4).mean() == -2.5

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            Normal(0.0, 0.0)
        with pytest.raises(ParameterError):
            Normal(0.0, -1.0)


class TestNormalMixture2:
    def test_cdf_is_weighted_sum(self):
        d = NormalMixture2(0.3, -1.0, 0.8, 2.0, 1.5)
        x = np.linspace(-5, 7, 31)
        want = 0.3 * stats.norm(-1.0, 0.8).cdf(x) + 0.7 * stats.norm(2.0, 1.5).cdf(x)
        assert_allclose(d.cdf(x), want, rtol=1e-13)

    def test_quantile_roundtrip(self):
        d = NormalMixture2(0.5, 0.0, 1.0, 2.0, 1.0)
        p = np.array([1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6])
        assert_allclose(d.cdf(d.quantile(p)), p, atol=1e-10)

    def test_mean(self):
        d = NormalMixture2(0.25, -2.0, 1.0, 4.0, 3.0)
        assert_allclose(d.mean(), 0.25 * -2.0 + 0.75 * 4.0, rtol=1e-14)

    def test_sampling_moments(self, rng):
        d = NormalMixture2(0.5, 0.0, 1.0, 2.0, 1.0)
        x = d.sample(200_000, rng)
        assert abs(x.mean() - 1.0) < 0.02
        # var = E[sigma^2] + var of means = 1 + 1
        assert abs(x.var() - 2.0) < 0.05

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            NormalMixture2(1.5, 0.0, 1.0, 1.0, 1.0)


class TestExponential:
    def test_matches_scipy(self):
        d = Exponential(1.7)
        x = np.linspace(0, 8, 33)
        ref = stats.expon(scale=1 / 1.7)
        assert_allclose(d.cdf(x), ref.cdf(x), rtol=1e-13)
        assert_allclose(d.survival(x), ref.sf(x), rtol=1e-13)

    def test_mean_excess_is_constant(self):
        d = Exponential(0.4)
        for u in (0.0, 1.0, 10.0):
            assert_allclose(d.mean_excess(u), 2.5, rtol=1e-13)


class TestGamma:
    def test_matches_scipy(self):
        d = Gamma(4.0, 4.0)
        x = np.linspace(0.01, 6, 25)
        ref = stats.gamma(4.0, scale=0.25)
        assert_allclose(d.cdf(x), ref.cdf(x), rtol=1e-12)
        assert_allclose(d.pdf(x), ref.pdf(x), rtol=1e-12)
        assert_allclose(d.mean(), 1.0, rtol=1e-14)


class TestGeneralizedPareto:
    def test_cdf_formula(self):
        d = GeneralizedPareto(2.0, 0.25)
        x = np.linspace(0, 30, 40)
        want = 1.0 - (1.0 + 0.25 * x / 2.0) ** (-1.0 / 0.25)
        assert_allclose(d.cdf(x), want, rtol=1e-12)

    def test_zero_shape_is_exponential(self):
        gp = GeneralizedPareto(0.5, 0.0)
        ex = Exponential(2.0)
        x = np.linspace(0, 10, 21)
        assert_allclose(gp.cdf(x), ex.cdf(x), rtol=1e-13)
        assert_allclose(gp.quantile([0.1, 0.5, 0.99]), ex.quantile([0.1, 0.5, 0.99]))

    def test_shape_limit_continuity(self):
        """cdf is continuous in the shape through 0 (exp-limit switch)."""
        x = np.linspace(0.01, 12, 30)
        near = GeneralizedPareto(1.0, 1e-9).cdf(x)
        at = GeneralizedPareto(1.0, 0.0).cdf(x)
        assert_allclose(near, at, atol=1e-8)

    def test_negative_shape_has_finite_endpoint(self):
        d = GeneralizedPareto(1.5, -0.3)
        lo, hi = d.support()
        assert lo == 0.0
        assert_allclose(hi, 1.5 / 0.3, rtol=1e-14)
        assert d.cdf(hi + 1.0) == 1.0
        assert d.survival(hi + 1.0) == 0.0

    @pytest.mark.parametrize("shape", [-10.0, -2.0, -1.0, -0.5, 0.0, 0.3])
    def test_batch_cdf_matches_scalar(self, shape):
        d = GeneralizedPareto(1.5, shape)
        hi = d.support()[1]
        x = [-1.0, 0.0, 0.01, 0.1, 0.5, 1.4, 10.0]
        if np.isfinite(hi):
            # inside, just inside, at and beyond the finite upper endpoint
            x += [0.5 * hi, hi * (1.0 - 1e-12), hi, hi * (1.0 + 1e-12), 2.0 * hi, 1e6]
        x = np.array(x)
        got = batch_cdf("generalized_pareto", np.tile([1.5, shape], (x.size, 1)), x)
        want = np.array([float(d.cdf(xi)) for xi in x])
        assert_allclose(got, want, rtol=1e-15, atol=0.0)
        if np.isfinite(hi):
            assert np.all(got[x >= hi] == 1.0)

    def test_mean_excess_linear(self):
        d = GeneralizedPareto(1.0, 0.25)
        for u in (0.0, 2.0, 7.5):
            assert_allclose(d.mean_excess(u), (1.0 + 0.25 * u) / 0.75, rtol=1e-12)

    def test_infinite_mean(self):
        assert GeneralizedPareto(1.0, 1.0).mean() == np.inf
        assert GeneralizedPareto(1.0, 1.3).mean() == np.inf

    def test_scale_validation(self):
        with pytest.raises(ParameterError):
            GeneralizedPareto(0.0, 0.25)


class TestUniformMixture:
    def test_cdf_piecewise(self):
        d = UniformMixture([(0.25, 0.0, 1.0), (0.75, 2.0, 5.0)])
        assert d.cdf(-1.0) == 0.0
        assert_allclose(d.cdf(0.5), 0.125, rtol=1e-14)
        assert_allclose(d.cdf(1.5), 0.25, rtol=1e-14)  # gap between components
        assert_allclose(d.cdf(3.5), 0.25 + 0.75 * 0.5, rtol=1e-14)
        assert d.cdf(6.0) == 1.0

    def test_quantile_roundtrip(self):
        d = UniformMixture([(0.5, 0.0, 1.0), (0.5, 1.0, 3.0)])
        p = np.linspace(0.01, 0.99, 23)
        assert_allclose(d.cdf(d.quantile(p)), p, atol=1e-12)

    def test_mean(self):
        d = UniformMixture([(0.25, 0.0, 1.0), (0.75, 2.0, 5.0)])
        assert_allclose(d.mean(), 0.25 * 0.5 + 0.75 * 3.5, rtol=1e-14)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            UniformMixture([(0.5, 0.0, 1.0), (0.4, 1.0, 2.0)])


class TestSpliced:
    def setup_method(self):
        self.base = GeneralizedPareto(1.0, 0.25)
        self.u = float(self.base.quantile(0.99))
        sigma_u = 1.0 + 0.25 * self.u
        self.repl = Exponential(1.0 / sigma_u)
        self.d = Spliced(self.base, self.repl, self.u)

    def test_agrees_with_base_below(self):
        x = np.linspace(0, self.u, 50)
        assert_allclose(self.d.cdf(x), self.base.cdf(x), rtol=1e-14)

    def test_survival_product_form_above(self):
        t = np.array([0.5, 2.0, 10.0, 40.0])
        want = self.base.survival(self.u) * self.repl.survival(t)
        assert_allclose(self.d.survival(self.u + t), want, rtol=1e-12)

    def test_cdf_continuous_at_splice(self):
        eps = 1e-9
        below = float(self.d.cdf(self.u - eps))
        above = float(self.d.cdf(self.u + eps))
        assert abs(above - below) < 1e-7

    def test_quantile_roundtrip_across_splice(self):
        p = np.array([0.5, 0.98, 0.99, 0.995, 0.9999])
        assert_allclose(self.d.cdf(self.d.quantile(p)), p, atol=1e-11)

    def test_mean_matches_quadrature(self):
        # mean of a non-negative variable = integral of the survival
        want, _ = integrate.quad(
            lambda s: float(self.d.survival(s / (1 - s))) / (1 - s) ** 2,
            0.0,
            1.0,
            limit=300,
            points=[0.5],
        )
        assert_allclose(self.d.mean(), want, rtol=1e-8)

    def test_pdf_integrates_to_one(self):
        val, _ = integrate.quad(
            lambda s: float(self.d.pdf(s / (1 - s))) / (1 - s) ** 2,
            0.0,
            1.0,
            limit=300,
            points=[0.5],
        )
        assert_allclose(val, 1.0, rtol=1e-7)


class TestFamilyRegistry:
    @pytest.mark.parametrize(
        "family, params, cls",
        [
            ("normal", [0.5, 1.5], Normal),
            ("normal_mixture2", [0.5, 0.0, 1.0, 2.0, 1.0], NormalMixture2),
            ("exponential", [0.7], Exponential),
            ("gamma", [4.0, 4.0], Gamma),
            ("generalized_pareto", [1.0, 0.25], GeneralizedPareto),
            ("uniform_mixture", [0.5, 0.0, 1.0, 0.5, 1.0, 2.0], UniformMixture),
        ],
    )
    def test_round_trip(self, family, params, cls):
        d = from_family(family, params)
        assert isinstance(d, cls)
        assert_allclose(d.params, params, rtol=1e-14)

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            from_family("cauchy", [0.0, 1.0])

    def test_wrong_param_count(self):
        with pytest.raises(ParameterError):
            from_family("normal", [0.0])


class TestSharedInvariants:
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_cdf_plus_survival_is_one(self, dist):
        lo, hi = dist.support()
        a = lo if np.isfinite(lo) else float(dist.quantile(1e-6))
        b = hi if np.isfinite(hi) else float(dist.quantile(1 - 1e-6))
        x = np.linspace(a, b, 97)
        assert_allclose(
            np.asarray(dist.cdf(x)) + np.asarray(dist.survival(x)),
            np.ones_like(x),
            atol=1e-14,
        )

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_quantile_cdf_roundtrip(self, dist):
        p = np.linspace(0.001, 0.999, 51)
        assert_allclose(np.asarray(dist.cdf(dist.quantile(p))), p, atol=1e-10)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_cdf_monotone(self, dist):
        x = np.linspace(*map(float, dist.quantile([1e-4, 1 - 1e-4])), 200)
        c = np.asarray(dist.cdf(x))
        assert np.all(np.diff(c) >= -1e-15)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_sample_reproducible(self, dist):
        a = dist.sample(64, np.random.default_rng(7))
        b = dist.sample(64, np.random.default_rng(7))
        assert_allclose(a, b, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "dist",
        [d for d in ALL_DISTS if not isinstance(d, UniformMixture)],
        ids=lambda d: type(d).__name__,
    )
    def test_sample_mean_close(self, dist):
        x = dist.sample(150_000, np.random.default_rng(11))
        se = x.std() / np.sqrt(x.size)
        assert abs(x.mean() - dist.mean()) < 4 * se + 1e-3
