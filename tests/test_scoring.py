import functools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from crpstail import (
    DivergenceError,
    Exponential,
    Gamma,
    GeneralizedPareto,
    InfiniteMeanError,
    Normal,
    NormalMixture2,
    QuantileIndicatorWeight,
    TabulatedWeight,
    UnitWeight,
    crps_closed,
    crps_closed_batch,
    crps_ensemble,
    crps_quadrature,
    crps_shift_constant,
    survival_sq_tail,
    wcrps_quantile,
    wcrps_quantile_batch,
)
from crpstail.distributions import _FAMILIES, family_entry, from_family

CLOSED_CASES = [
    (Normal(0.0, 1.0), 0.7),
    (Normal(1.0, 2.0), -3.0),
    (NormalMixture2(0.5, 0.0, 1.0, 2.0, 1.0), 1.3),
    (NormalMixture2(0.2, -1.0, 0.5, 3.0, 2.0), 4.0),
    (Exponential(1.0), 2.0),
    (Exponential(0.3), 0.1),
    (GeneralizedPareto(1.0, 0.25), 5.0),
    (GeneralizedPareto(2.0, 0.0), 1.0),
    (GeneralizedPareto(1.5, -0.3), 2.0),
    (Gamma(4.0, 4.0), 0.5),
    (Gamma(10.0, 0.3), 3.0),
]

# observations far beyond the forecast's bulk, checked against the definition
# and against the x-space quadrature entry point
FAR_TAIL_CASES = [
    (Gamma(4.0, 4.0), 20.0),
    (Gamma(4.0, 4.0), 10.0 * float(Gamma(4.0, 4.0).quantile(1.0 - 1e-12))),
    (Gamma(4.0, 4.0), -1.0),
    (Gamma(2.0, 0.5), 1e4),
]


def brute_crps(dist, y):
    """CRPS by direct quadrature of (F - 1{x >= y})^2 on the real line."""

    def integrand(x):
        f = float(dist.cdf(x))
        return (f - (x >= y)) ** 2

    lo, hi = dist.support()
    a = lo if np.isfinite(lo) else float(dist.quantile(1e-13))
    b = hi if np.isfinite(hi) else float(dist.quantile(1.0 - 1e-13))
    total = 0.0
    pieces = sorted({a, min(max(y, a), b), b})
    for p, q in zip(pieces[:-1], pieces[1:]):
        val, _ = integrate.quad(integrand, p, q, limit=400)
        total += val
    if y < a:
        total += a - y
    if y > b:
        total += y - b
    return total


class TestClosedForms:
    def test_standard_normal_at_center(self):
        # sigma * (2*phi(0) - 1/sqrt(pi))
        assert_allclose(crps_closed(Normal(0.0, 1.0), 0.0), 0.2336949772551091, rtol=1e-14)

    def test_exponential_values(self):
        d = Exponential(1.0)
        assert_allclose(crps_closed(d, 0.0), 0.5, rtol=1e-14)
        assert_allclose(crps_closed(d, 1.0), 1.0 + 2.0 / np.e - 1.5, rtol=1e-14)
        # below the support: distance plus the constant tail term
        assert_allclose(crps_closed(d, -1.0), 1.5, rtol=1e-14)

    def test_gp_values(self):
        d = GeneralizedPareto(1.0, 0.25)
        assert_allclose(crps_closed(d, 0.0), 4.0 / 7.0, rtol=1e-14)
        assert_allclose(crps_closed(d, -2.0), 2.0 + 1.0 / 1.75, rtol=1e-14)

    @pytest.mark.parametrize("dist, y", CLOSED_CASES, ids=lambda v: str(v))
    def test_matches_definition(self, dist, y):
        assert_allclose(crps_closed(dist, y), brute_crps(dist, y), rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("dist, y", CLOSED_CASES, ids=lambda v: str(v))
    def test_matches_quadrature_entry_point(self, dist, y):
        assert_allclose(crps_closed(dist, y), crps_quadrature(dist, y), rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("dist, y", FAR_TAIL_CASES, ids=lambda v: str(v))
    def test_far_tail_matches_definition(self, dist, y):
        assert_allclose(crps_closed(dist, y), brute_crps(dist, y), rtol=1e-12)
        assert_allclose(crps_quadrature(dist, y), crps_closed(dist, y), rtol=1e-12)

    def test_gamma_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        params = np.column_stack([rng.uniform(0.5, 10.0, 40), rng.uniform(0.2, 4.0, 40)])
        y = rng.uniform(-1.0, 30.0, 40)
        batch = crps_closed_batch("gamma", params, y)
        ref = np.array([crps_closed(Gamma(a, b), yi) for (a, b), yi in zip(params, y)])
        assert_allclose(batch, ref, rtol=1e-13)

    def test_gp_shape_just_above_exponential_switch(self):
        # log(1 + shape*y/scale) would lose about eps/shape of the survival here
        scale, shape, y = 5.0, 1.19e-7, 1e-3
        with mp.workdps(50):
            sc, sh, yy = mp.mpf(scale), mp.mpf(shape), mp.mpf(y)

            def sbar(x):
                return (1 + sh * x / sc) ** (-1 / sh)

            want = mp.quad(lambda x: (1 - sbar(x)) ** 2, [0, yy]) + mp.quad(
                lambda x: sbar(x) ** 2, [yy, yy + sc, mp.inf]
            )
        assert_allclose(crps_closed(GeneralizedPareto(scale, shape), y), float(want), rtol=1e-12)

    def test_gp_heavy_shape_infinite_mean(self):
        with pytest.raises(InfiniteMeanError):
            crps_closed(GeneralizedPareto(1.0, 1.0), 2.0)

    def test_vectorized_in_y(self):
        d = Normal(0.5, 1.5)
        y = np.linspace(-3, 4, 17)
        vec = crps_closed(d, y)
        scalar = np.array([crps_closed(d, yi) for yi in y])
        assert_allclose(vec, scalar, rtol=1e-15)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        y = rng.exponential(size=40)
        rates = rng.uniform(0.5, 2.0, size=40)
        batch = crps_closed_batch("exponential", rates[:, None], y)
        ref = np.array([crps_closed(Exponential(r), yi) for r, yi in zip(rates, y)])
        assert_allclose(batch, ref, rtol=1e-13)

    def test_translation_invariance(self):
        """CRPS(F(.-c), y+c) == CRPS(F, y)."""
        c = 3.7
        a = crps_closed(Normal(0.0, 1.2), 0.4)
        b = crps_closed(Normal(c, 1.2), 0.4 + c)
        assert_allclose(a, b, rtol=1e-13)


# observations many quantiles beyond the bulk, above and below it
FAR_BEYOND_BULK = [
    (Normal(0.0, 1.0), 9.0),
    (Normal(0.0, 1.0), 40.0),
    (Normal(0.0, 1.0), -40.0),
    (Exponential(1.0), 60.0),
    (Gamma(4.0, 4.0), 20.0),
    (GeneralizedPareto(1.0, 0.3), 1e4),
    (NormalMixture2(0.5, 0.0, 1.0, 2.0, 1.0), -30.0),
]


class TestQuadratureFarBeyondTheBulk:
    @pytest.mark.parametrize("dist, y", FAR_BEYOND_BULK, ids=lambda v: str(v))
    def test_matches_closed_form(self, dist, y):
        assert_allclose(crps_quadrature(dist, y), crps_closed(dist, y), rtol=1e-12)

    def test_pinned_values(self):
        got = crps_quadrature(GeneralizedPareto(1.0, 0.3), 1e4)
        assert_allclose(got, 9997.73109245897, rtol=1e-12)
        # y < q: the tail int_q^inf S^2, which is CRPS(F, -30) + 20 this far down
        d = NormalMixture2(0.5, 0.0, 1.0, 2.0, 1.0)
        got = crps_quadrature(d, -51.0, QuantileIndicatorWeight(-50.0))
        assert_allclose(got, 50.192777937396116, rtol=1e-12)


class TestWeights:
    def test_quantile_indicator(self):
        w = QuantileIndicatorWeight(2.0)
        x = np.array([0.0, 1.9, 2.0, 2.5, 10.0])
        assert_allclose(w.w(x), [0, 0, 1, 1, 1])
        assert_allclose(w.antiderivative(x), [0, 0, 0, 0.5, 8.0])

    def test_tabulated_matches_linear_interp(self):
        xs = np.array([0.0, 1.0, 3.0])
        ws = np.array([0.0, 2.0, 1.0])
        w = TabulatedWeight(xs, ws)
        assert_allclose(w.w(0.5), 1.0)
        assert_allclose(w.w(2.0), 1.5)
        assert w.w(-1.0) == 0.0 and w.w(4.0) == 0.0

    def test_tabulated_antiderivative_exact(self):
        xs = np.array([0.0, 1.0, 3.0])
        ws = np.array([0.0, 2.0, 1.0])
        w = TabulatedWeight(xs, ws)
        for b in (0.5, 1.0, 2.7, 3.0, 5.0):
            knots = [k for k in (1.0, 3.0) if k < b]
            val, _ = integrate.quad(lambda t: float(w.w(t)), 0.0, b, points=knots)
            assert_allclose(float(w.antiderivative(b)) - float(w.antiderivative(0.0)), val, rtol=1e-10)

    def test_unit_weight(self):
        w = UnitWeight()
        assert w.w(123.0) == 1.0
        assert_allclose(w.antiderivative(4.0) - w.antiderivative(1.0), 3.0)


class TestTailSurvivalIntegral:
    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(0.8),
            GeneralizedPareto(1.0, 0.25),
            GeneralizedPareto(2.0, 0.6),
            Normal(0.0, 1.0),
            NormalMixture2(0.5, 0.0, 1.0, 2.0, 1.0),
            Gamma(4.0, 4.0),
            Gamma(0.5, 2.0),
        ],
        ids=lambda d: type(d).__name__,
    )
    # q = -20 and -50 lie far below the bulk: the survival is 1 over a long
    # stretch before it falls through the bulk
    @pytest.mark.parametrize("q", [0.5, 2.0, -20.0, -50.0])
    def test_matches_quadrature(self, dist, q):
        def integrand(s):
            x = q + s / (1.0 - s)
            return float(dist.survival(x)) ** 2 / (1.0 - s) ** 2

        want, _ = integrate.quad(integrand, 0.0, 1.0, limit=300, points=[0.5])
        assert_allclose(survival_sq_tail(dist, q), want, rtol=1e-9)
        assert wcrps_quantile(dist, 0.0, q) >= 0.0

    def test_below_support_adds_head(self):
        d = Exponential(1.0)
        # below the lower endpoint the survival is identically 1
        assert_allclose(
            survival_sq_tail(d, -2.0), 2.0 + survival_sq_tail(d, 0.0), rtol=1e-12
        )

    def test_divergent_shape(self):
        with pytest.raises(DivergenceError):
            survival_sq_tail(GeneralizedPareto(1.0, 2.0), 1.0)

    def test_unit_weight_quadrature_divergence(self):
        with pytest.raises((DivergenceError, InfiniteMeanError)):
            crps_quadrature(GeneralizedPareto(1.0, 1.2), 1.0)


@functools.lru_cache(maxsize=None)
def _gamma_tail_oracle(shape, c):
    """int_c^inf S(t)^2 dt for Gamma(shape, 1), by 50-digit quadrature."""
    with mp.workdps(50):
        if shape == 0.5:
            # the same survival; mpmath's gammainc is slow at half-integer shapes
            def sbar(t):
                return mp.erfc(mp.sqrt(t))
        else:
            def sbar(t):
                return mp.gammainc(mp.mpf(shape), t, mp.inf, regularized=True)

        c = mp.mpf(c)
        s_c = sbar(c)
        # scaled by S(c)^2, so that quad's absolute error target is a relative one
        return s_c * s_c * mp.quad(lambda t: (sbar(t) / s_c) ** 2, [c, c + 1, c + 8, mp.inf])


@pytest.mark.parametrize("shape", [0.5, 2.0, 5.0, 10.0, 50.0])
@pytest.mark.parametrize("means", [-3.0, -0.5, 0.01, 0.5, 1.0, 3.0, 10.0])
def test_gamma_tail_matches_mpmath(shape, means):
    """The Gamma tail at q = ``means`` forecast means: within 1e-10 relative of
    the oracle while the value is >= 1e-30, and never negative."""
    c = max(means, 0.0) * shape
    for rate in (1.0 / 32.0, 1.0, 4.0):
        q = means * shape / rate  # powers of two: rate * q is c exactly
        want = float(_gamma_tail_oracle(shape, c) / rate) + max(-q, 0.0)
        got = survival_sq_tail(Gamma(shape, rate), q)
        assert got >= 0.0
        if want >= 1e-30:
            assert_allclose(got, want, rtol=1e-10)


class TestQuantileWeightedScore:
    """Scores under the weight W_q(x) = (x - q) * 1{x >= q}."""

    @pytest.mark.parametrize(
        "dist",
        [
            Normal(0.0, 1.0),
            NormalMixture2(0.4, -0.5, 0.8, 1.5, 1.2),
            Exponential(0.7),
            GeneralizedPareto(1.0, 0.25),
            Gamma(4.0, 4.0),
            Gamma(0.5, 2.0),
        ],
        ids=lambda d: type(d).__name__,
    )
    @pytest.mark.parametrize("q", [0.8, 2.5])
    def test_matches_weighted_quadrature(self, dist, q):
        for y in (q - 1.0, q + 0.3, q + 3.0):
            want = crps_quadrature(dist, y, weight=QuantileIndicatorWeight(q))
            assert_allclose(wcrps_quantile(dist, y, q), want, rtol=1e-7, atol=1e-10)

    def test_constant_below_threshold(self):
        """For y < q the weighted score no longer depends on y."""
        d = Exponential(1.0)
        a = wcrps_quantile(d, 0.1, q=2.0)
        b = wcrps_quantile(d, 1.9, q=2.0)
        assert_allclose(a, b, rtol=1e-13)
        assert_allclose(a, survival_sq_tail(d, 2.0), rtol=1e-12)

    @pytest.mark.parametrize(
        "dist",
        [
            Normal(0.3, 1.1),
            Exponential(1.3),
            GeneralizedPareto(1.0, 0.3),
            Gamma(4.0, 4.0),
            Gamma(0.5, 2.0),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_shift_identity_above_threshold(self, dist):
        """CRPS(F, y) = wCRPS(F, y; q) + c_F(q) pointwise for y >= q."""
        q = float(dist.quantile(0.7))
        c = crps_shift_constant(dist, q)
        for y in (q, q + 0.5, q + 4.0):
            assert_allclose(
                crps_closed(dist, y),
                wcrps_quantile(dist, y, q) + c,
                rtol=1e-9,
                atol=1e-11,
            )

    @pytest.mark.parametrize("q, want", [(1.0, 119.625), (0.5, 120.125)])
    def test_gamma_below_the_bulk(self, q, want):
        # Gamma(5, 1/32) has mean 160, so the tail from q is CRPS(F, 0) - q plus
        # 2 int_0^q F - int_0^q F^2 < 1e-10; CRPS(F, 0) = 160 - 945/24 = 120.625
        d = Gamma(5.0, 0.03125)
        got = wcrps_quantile(d, 0.0, q)
        assert_allclose(got, want, rtol=1e-12)
        assert got <= crps_closed(d, 0.0) == 120.625

    def test_shift_constant_is_cdf_square_integral(self):
        d = Normal(0.0, 1.0)
        q = 0.8
        want, _ = integrate.quad(
            lambda s: float(d.cdf(q - s / (1.0 - s))) ** 2 / (1.0 - s) ** 2,
            0.0,
            1.0,
            limit=300,
            points=[0.5],
        )
        assert_allclose(crps_shift_constant(d, q), want, rtol=1e-9)

    def test_never_above_crps(self):
        """wCRPS <= CRPS exactly: with q below the bulk, rounding alone puts
        tail(q) + CRPS(y) - CRPS(q) an ulp above CRPS(y) on many of these rows."""
        rng = np.random.default_rng(8)
        n, q = 300, -2.0
        y = rng.uniform(q, 6.0, n)
        for family, params in [
            ("normal", np.column_stack([rng.normal(size=n), rng.uniform(0.1, 3.0, n)])),
            ("generalized_pareto", np.column_stack([rng.uniform(0.1, 3.0, n), rng.uniform(-0.5, 0.9, n)])),
        ]:
            crps = crps_closed_batch(family, params, y)
            assert (wcrps_quantile_batch(family, params, y, q) <= crps).all()
            scalar = [wcrps_quantile(from_family(family, p), yi, q) for p, yi in zip(params, y)]
            assert (np.array(scalar) <= crps).all()

    def test_heavy_pareto_threshold_below_support(self):
        # below the support F = 0 and y > 0, so the score is
        # int_0^y F^2 + sigma S(y)^(2 - xi) / (2 - xi), here by 40-digit mpmath
        d = GeneralizedPareto(0.22201435901866298, 1.5435661951111648)
        got = wcrps_quantile(d, 0.10189085219393677, q=-848.9619288778048)
        assert_allclose(got, 0.41875513423530246, rtol=1e-10)

    @pytest.mark.parametrize(
        "dist",
        [
            NormalMixture2(
                0.8479694301231584, -48.37395964967821, 0.09753016558485518,
                54.523270076632485, 10.701583622568503,
            ),
            Normal(0.0, 1.0),
            Gamma(4.0, 4.0),
            GeneralizedPareto(1.0, 1.5),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_shift_constant_nonnegative_and_nondecreasing(self, dist):
        qs = np.linspace(-1000.0, 200.0, 61)
        c = np.array([crps_shift_constant(dist, q) for q in qs])
        assert (c >= 0.0).all() and (np.diff(c) >= 0.0).all(), c

    def test_shift_constant_far_below_a_mixture(self):
        # both components' cdfs underflow to 0 at q
        d = NormalMixture2(
            0.8479694301231584, -48.37395964967821, 0.09753016558485518,
            54.523270076632485, 10.701583622568503,
        )
        assert crps_shift_constant(d, -726.6959842266824) == 0.0

    def test_shift_constant_vanishes_at_lower_endpoint(self):
        assert crps_shift_constant(Exponential(1.0), 0.0) == 0.0
        assert crps_shift_constant(Exponential(1.0), -5.0) == 0.0

    def test_finite_for_infinite_mean_shapes(self):
        """The tail-weighted score exists for 1 <= shape < 2 even though the
        unweighted CRPS does not."""
        d = GeneralizedPareto(1.0, 1.5)
        val = wcrps_quantile(d, 3.0, q=2.0)
        assert np.isfinite(val) and val > 0.0

    def test_batch_matches_scalar_closed_families(self):
        rng = np.random.default_rng(2)
        n = 30
        y = rng.uniform(0.0, 6.0, n)
        for family, params in [
            ("exponential", rng.uniform(0.5, 2.0, (n, 1))),
            ("generalized_pareto", np.column_stack([rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 0.5, n)])),
            ("normal", np.column_stack([rng.normal(2.0, 1.0, n), rng.uniform(0.8, 2.0, n)])),
            ("gamma", np.column_stack([rng.uniform(0.5, 10.0, n), rng.uniform(0.2, 4.0, n)])),
        ]:
            batch = wcrps_quantile_batch(family, params, y, 2.0)
            from crpstail import from_family

            ref = np.array(
                [wcrps_quantile(from_family(family, p), yi, 2.0) for p, yi in zip(params, y)]
            )
            assert_allclose(batch, ref, rtol=1e-10, atol=1e-13)

    def test_batch_mixture_table_path(self):
        rng = np.random.default_rng(3)
        n = 50
        delta = rng.normal(0.0, 1.0, n)
        tau = np.where(rng.random(n) < 0.5, -2.0, 2.0)
        params = np.column_stack(
            [np.full(n, 0.5), delta, np.ones(n), delta + tau, np.ones(n)]
        )
        y = rng.normal(0.0, 1.4, n)
        q = 1.2
        batch = wcrps_quantile_batch("normal_mixture2", params, y, q)
        from crpstail import from_family

        ref = np.array(
            [wcrps_quantile(from_family("normal_mixture2", p), yi, q) for p, yi in zip(params, y)]
        )
        assert_allclose(batch, ref, rtol=0, atol=2e-6)


def _wcrps_all_rows(family, params, y, q):
    """tail(q) + 1{y >= q} (CRPS(y) - CRPS(q)), capped at CRPS(y), with both
    scores on every row: the reference for the batch path, which scores only
    the rows y >= q."""
    fam = family_entry(family)
    tail, crps_y = fam.tail(params, q), fam.crps(params, y)
    return np.where(y >= q, np.minimum(tail + (crps_y - fam.crps(params, q)), crps_y), tail)


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 40_000])
@pytest.mark.parametrize(
    "family", ["normal", "normal_mixture2", "exponential", "gamma", "generalized_pareto"]
)
def test_batch_equals_all_rows_form_bit_for_bit(family, n):
    rng = np.random.default_rng(n)
    y = rng.normal(0.5, 2.0, n)
    m = rng.normal(size=n)
    params = {
        "normal": np.column_stack([m, rng.uniform(0.1, 3.0, n)]),
        "normal_mixture2": np.column_stack(
            [rng.choice([0.3, 0.5], n), m, rng.choice([0.5, 1.0], n),
             m + rng.choice([-2.0, 2.0], n), np.ones(n)]
        ),
        "exponential": rng.uniform(0.1, 3.0, (n, 1)),
        "gamma": np.column_stack([rng.uniform(0.2, 20.0, n), rng.uniform(0.1, 3.0, n)]),
        "generalized_pareto": np.column_stack([rng.uniform(0.1, 3.0, n), rng.uniform(-0.5, 0.9, n)]),
    }[family]
    for q in (-2.0, 0.0, 0.7, 3.0, 50.0):
        got = wcrps_quantile_batch(family, params, y, q)
        assert got.tobytes() == _wcrps_all_rows(family, params, y, q).tobytes()


class TestEnsembleScore:
    def brute(self, members, y):
        x = np.asarray(members, dtype=float)
        return np.mean(np.abs(x - y)) - 0.5 * np.mean(
            np.abs(x[:, None] - x[None, :])
        )

    def test_matches_double_sum(self, rng):
        for m in (1, 2, 7, 40):
            x = rng.normal(size=m)
            y = float(rng.normal())
            assert_allclose(crps_ensemble(x, y), self.brute(x, y), rtol=1e-12)

    def test_single_member_is_absolute_error(self):
        assert_allclose(crps_ensemble([1.5], 0.2), 1.3, rtol=1e-15)

    def test_batch_rows(self, rng):
        members = rng.normal(size=(9, 12))
        y = rng.normal(size=9)
        batch = crps_ensemble(members, y)
        ref = [self.brute(members[i], y[i]) for i in range(9)]
        assert_allclose(batch, ref, rtol=1e-12)

    def test_closed_batch_family(self, rng):
        members = rng.normal(size=(5, 8))
        y = rng.normal(size=5)
        assert_allclose(
            crps_closed_batch("ensemble", members, y),
            crps_ensemble(members, y),
            rtol=1e-14,
        )

    @staticmethod
    def step_wcrps(members, y, q):
        """int_q^inf (F_m(x) - 1{x >= y})^2 dx, exact on the step function."""
        x = np.sort(np.asarray(members, dtype=float))
        knots = np.unique(np.concatenate([[q, y], x]))
        knots = knots[knots >= q]
        total = 0.0
        for a, b in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (a + b)
            f = np.searchsorted(x, mid, side="right") / x.size
            total += (f - float(mid >= y)) ** 2 * (b - a)
        return total

    def test_weighted_matches_step_definition(self, rng):
        members = rng.normal(size=(30, 7))
        y = rng.normal(size=30) * 1.5
        for q in (-3.0, -0.2, 0.4, 5.0):
            got = wcrps_quantile_batch("ensemble", members, y, q)
            want = [self.step_wcrps(members[i], y[i], q) for i in range(30)]
            assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_weighted_below_all_members_is_plain(self, rng):
        members = rng.normal(size=(5, 9))
        y = rng.normal(size=5)
        assert_allclose(
            wcrps_quantile_batch("ensemble", members, y, -50.0),
            crps_ensemble(members, y),
            rtol=1e-13,
        )

    def test_more_members_reduce_score_against_truth(self, rng):
        """Finite-ensemble CRPS of the true law decreases toward the closed
        form as the ensemble grows (the (1 + 1/m) inflation)."""
        d = Normal(0.0, 1.0)
        y = d.sample(4000, rng)
        closed = crps_closed_batch("normal", np.tile([0.0, 1.0], (4000, 1)), y)
        small = np.array([crps_ensemble(d.sample(4, rng), yi) for yi in y])
        big = np.array([crps_ensemble(d.sample(64, rng), yi) for yi in y])
        assert small.mean() > big.mean() > closed.mean()


# valid parameter rows of every record family, the ensemble as 1-6 members
_FAMILY_PARAMS = {
    "normal": st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
    "normal_mixture2": st.tuples(
        st.floats(0.0, 1.0), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3),
        st.floats(-1e3, 1e3), st.floats(1e-3, 1e3),
    ),
    "exponential": st.tuples(st.floats(1e-3, 1e3)),
    "gamma": st.tuples(st.floats(0.1, 50.0), st.floats(1e-2, 1e2)),
    "generalized_pareto": st.tuples(st.floats(1e-2, 1e2), st.floats(-2.0, 0.9)),
    "ensemble": st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6).map(tuple),
}


class _Pinned:
    """Stands in for ``st.data()`` in an explicit example: draws ``row`` for
    ``family`` and rejects the example for every other family."""

    def __init__(self, family, row):
        self.family, self.row = family, row

    def draw(self, strategy):
        assume(strategy is _FAMILY_PARAMS[self.family])
        return self.row


@pytest.mark.parametrize("family", sorted(_FAMILY_PARAMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), y=st.floats(-1e4, 1e4), q=st.floats(-1e4, 1e4))
# a subnormal negative shape puts the upper endpoint -scale/shape past the
# largest float
@example(data=_Pinned("generalized_pareto", (1.0, -2.2250738585e-313)), y=0.0, q=0.0)
def test_batch_kernel_invariants(family, data, y, q):
    """On every family's batch kernels: CRPS >= 0, wCRPS <= CRPS and wCRPS
    continuous at y = q."""
    assert sorted(_FAMILY_PARAMS) == sorted(_FAMILIES)
    step = 1e-7 * max(1.0, abs(q))
    ys = np.array([y, q - step, q, q + step])
    params = np.array([data.draw(_FAMILY_PARAMS[family])] * 4)
    crps = crps_closed_batch(family, params, ys)
    assert (crps >= 0.0).all(), crps
    wcrps = wcrps_quantile_batch(family, params, ys, q)
    tol = 1e-9 * (1.0 + np.abs(crps))
    assert (wcrps <= crps + tol).all(), (wcrps, crps)
    # the score is 1-Lipschitz in y: a jump at y = q would show beyond the steps
    assert abs(wcrps[3] - wcrps[1]) <= 2.0 * step + tol[2], wcrps
    assert abs(wcrps[2] - wcrps[1]) <= step + tol[2], wcrps


@pytest.mark.parametrize("family", sorted(set(_FAMILY_PARAMS) - {"ensemble"}))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), y=st.floats(-1e4, 1e4))
# scoring this shape as 0 in the closed form but not in the cdf the quadrature
# integrates puts the two 1.6e-9 relative apart
@example(data=_Pinned("generalized_pareto", (1.0, 1e-9)), y=1.0)
# near the endpoint of a subnormal negative shape log1p(z) / shape overflows
@example(data=_Pinned("generalized_pareto", (1.0, -1.1125369292536007e-308)), y=0.0)
# a narrow law: a score of 3.8e-4 against a fixed 1e-12 absolute tolerance per
# piece put the two 1.3e-9 relative apart
@example(data=_Pinned("gamma", (0.109375, 36.0)), y=0.0)
# a break point m2 a subnormal distance above the node at y = 0: QUADPACK
# cannot bisect that piece and warned of extremely bad integrand behaviour
@example(data=_Pinned("normal_mixture2", (5.960464477539063e-08, 1.0, 1.0,
                                          1.1125369292536007e-308, 0.0625)), y=0.0)
def test_quadrature_matches_closed_forms(family, data, y):
    """The x-space quadrature is >= 0 and agrees with every closed form,
    however far y lies from the forecast's bulk."""
    dist = from_family(family, data.draw(_FAMILY_PARAMS[family]))
    got = crps_quadrature(dist, y)
    assert got >= 0.0
    assert_allclose(got, crps_closed(dist, y), rtol=1e-9)


def test_mixture_tail_far_below_the_bulk():
    # all weight on N(-165, 546); q = -5440 lies 9.7 std below its mean, where
    # wCRPS = int_q^inf (1 - F)^2 <= CRPS
    params = np.array([[0.0, 0.0, 1.0, -165.0, 546.0]])
    y = np.array([0.0])
    q = -5440.0
    wcrps = wcrps_quantile_batch("normal_mixture2", params, y, q)
    assert wcrps[0] <= crps_closed_batch("normal_mixture2", params, y)[0]
    # below q the score is the tail itself; 40-digit mpmath quadrature
    tail = wcrps_quantile_batch("normal_mixture2", params, np.array([q - 1.0]), q)
    assert_allclose(tail[0], 4966.952487382925, rtol=1e-9)


@pytest.mark.parametrize(
    "row, q, want",
    [
        # found by test_batch_kernel_invariants: the step 2 stds below the
        # upper mean ends a 1,516-wide plateau of the remainder
        ((0.0, -239.0, 1.0, -237.0, 1.0), -1756.0, 1518.4358104164523),
        # the lower component's upper flank, 5000 of its stds below the other
        ((0.5, 0.0, 1e-3, 5000.0, 1e-3), -100.0, 1349.9997179052082),
        ((0.3, 0.0, 1.0, 800.0, 2.0), -9000.0, 9391.396317145603),
    ],
)
def test_mixture_tail_far_below_both_components(row, q, want):
    # 30-digit mpmath quadrature, broken at each mean and 10 stds either side
    tail = wcrps_quantile_batch("normal_mixture2", np.array([row]), np.array([q - 1.0]), q)
    assert_allclose(tail[0], want, rtol=1e-9)
