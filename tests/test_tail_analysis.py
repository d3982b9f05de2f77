import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate

from crpstail import distributions
from crpstail import (
    ConstructionError,
    DomainError,
    ParameterError,
    Exponential,
    GeneralizedPareto,
    Normal,
    QuantileIndicatorWeight,
    TabulatedWeight,
    UnitWeight,
    ambiguity_region,
    ambiguous_counterpart,
    crps_closed,
    expected_crps_pareto,
    splice_tail,
    spliced_gap_mc,
    wcrps_gap_bound,
    wcrps_gap_exact,
    wcrps_quantile,
)


def phi_brute(a, gamma, sigma=1.0):
    """E CRPS(GP(a*sigma, a*gamma), Y) with Y ~ GP(sigma, gamma).

    The forecast's survival is the truth's survival to the power 1/a, so the
    whole tail is inflated or deflated by the single factor ``a``. The
    substitution p = 1 - s**4 resolves the heavy-tail endpoint.
    """
    forecast = GeneralizedPareto(a * sigma, a * gamma)

    def integrand(s):
        # quantile of GP(sigma, gamma) at survival s**4, via logs so the
        # endpoint s -> 0 never rounds the probability to 1.0
        if s <= 0.0:
            return 0.0
        if gamma == 0.0:
            y = -4.0 * sigma * np.log(s)
        else:
            y = sigma / gamma * np.expm1(-4.0 * gamma * np.log(s))
        return crps_closed(forecast, y) * 4.0 * s**3

    val, _ = integrate.quad(integrand, 0.0, 1.0, limit=400)
    return val


class TestExpectedScoreCup:
    def test_flat_value_at_edges(self):
        """phi(0) = phi(a0) = sigma / (1 - gamma) with a0 = 3 / (1 + gamma)."""
        for gamma in (0.0, 0.1, 0.25, 0.4):
            a0 = 3.0 / (1.0 + gamma)
            flat = 1.0 / (1.0 - gamma)
            assert_allclose(expected_crps_pareto(0.0, gamma), flat, rtol=1e-14)
            assert_allclose(expected_crps_pareto(a0, gamma), flat, rtol=1e-12)

    def test_minimum_at_true_scale(self):
        """The cup bottoms out at a = 1 with value sigma/((2-gamma)(1-gamma))."""
        gamma = 0.1
        assert_allclose(expected_crps_pareto(1.0, gamma), 1.0 / (1.9 * 0.9), rtol=1e-13)
        grid = np.linspace(0.0, 3.0 / 1.1, 301)
        vals = expected_crps_pareto(grid, gamma)
        assert_allclose(grid[np.argmin(vals)], 1.0, atol=0.01)

    def test_known_point(self):
        assert_allclose(
            expected_crps_pareto(0.5, 0.1), 0.6778661951075745, rtol=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25, 0.4])
    @pytest.mark.parametrize("a", [0.3, 1.0, 2.0])
    def test_matches_quadrature(self, gamma, a):
        assert_allclose(
            expected_crps_pareto(a, gamma), phi_brute(a, gamma), rtol=1e-8
        )

    def test_scale_equivariance(self):
        assert_allclose(
            expected_crps_pareto(1.7, 0.2, sigma=3.0),
            3.0 * expected_crps_pareto(1.7, 0.2, sigma=1.0),
            rtol=1e-13,
        )

    def test_vectorized(self):
        a = np.array([0.0, 0.5, 1.0, 2.0])
        vec = expected_crps_pareto(a, 0.25)
        assert_allclose(vec, [expected_crps_pareto(ai, 0.25) for ai in a], rtol=1e-14)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            expected_crps_pareto(-0.5, 0.1)
        with pytest.raises(ParameterError):
            expected_crps_pareto(1.0, 1.0)
        with pytest.raises(DomainError):
            # a * gamma beyond the divergence wall of the tail integral
            expected_crps_pareto(4.5, 0.45)


class TestAmbiguityRegion:
    def test_geometry_fields(self):
        geom = ambiguity_region(0.1)
        assert_allclose(geom.a0, 3.0 / 1.1, rtol=1e-14)
        assert geom.argmin == 1.0
        assert_allclose(geom.phi_flat, 1.0 / 0.9, rtol=1e-14)
        assert_allclose(geom.phi_min, 1.0 / (1.9 * 0.9), rtol=1e-13)
        assert geom.phi_min < geom.phi_flat

    def test_area_quarter_shape(self):
        # closed form: 2*[a0(1+g)/(2g(1-g)) - log(1+(1-g)a0)/(1-g)^2 + log(1-a0*g/2)/g^2]
        assert_allclose(ambiguity_region(0.25).area, 0.9255327550942222, rtol=1e-12)

    def test_area_exponential_limit(self):
        # gamma -> 0: 2*(15/8 - log 4)
        want = 2.0 * (15.0 / 8.0 - np.log(4.0))
        assert_allclose(ambiguity_region(0.0).area, want, rtol=1e-10)
        assert_allclose(want, 0.9774112777602188, rtol=1e-14)

    def test_area_continuous_through_tiny_shapes(self):
        """The closed form cancels catastrophically near zero; the
        quadrature branch must join it smoothly."""
        a_zero = ambiguity_region(0.0).area
        assert abs(ambiguity_region(1e-4).area - a_zero) < 5e-4
        assert abs(ambiguity_region(2e-3).area - ambiguity_region(1e-3).area) < 5e-3

    @pytest.mark.parametrize("gamma", np.arange(0.05, 0.55, 0.05))
    def test_area_matches_direct_quadrature(self, gamma):
        geom = ambiguity_region(gamma)
        want, _ = integrate.quad(
            lambda a: geom.phi_flat - expected_crps_pareto(a, gamma),
            0.0,
            geom.a0,
            limit=200,
        )
        assert_allclose(geom.area, want, rtol=1e-9)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ParameterError, match="scale"):
            ambiguity_region(0.2, sigma)

    def test_area_scales_with_sigma(self):
        assert_allclose(
            ambiguity_region(0.2, sigma=2.5).area,
            2.5 * ambiguity_region(0.2).area,
            rtol=1e-12,
        )

    @pytest.mark.parametrize("gamma", [0.0, 5e-4, 0.2, 0.9])
    def test_every_quantity_is_sigma_times_its_unit_value(self, gamma):
        # exactly, so a scale near the largest float overflows nothing that
        # the flat level does not
        unit = ambiguity_region(gamma)
        a = np.linspace(0.0, unit.a0, 7)
        for sigma in (2.5, 1e308 * (1.0 - gamma)):
            geom = ambiguity_region(gamma, sigma)
            for name in ("phi_flat", "phi_min", "area"):
                assert getattr(geom, name) == sigma * getattr(unit, name)
            assert_array_equal(
                expected_crps_pareto(a, gamma, sigma), sigma * expected_crps_pareto(a, gamma)
            )

    def test_scale_overflowing_the_flat_level_is_rejected(self):
        ambiguity_region(0.2, 1e308)  # flat level 1.25e308
        for call in (ambiguity_region, lambda g, s: expected_crps_pareto(1.0, g, s)):
            with pytest.raises(ParameterError, match="overflows"):
                call(0.2, 1.5e308)


class TestAmbiguousCounterpart:
    def test_pairs_share_expected_score(self):
        gamma = 0.1
        a2 = ambiguous_counterpart(0.5, gamma)
        assert a2 > 1.0
        assert_allclose(
            expected_crps_pareto(a2, gamma),
            expected_crps_pareto(0.5, gamma),
            rtol=1e-9,
        )

    def test_involution(self):
        gamma = 0.25
        a2 = ambiguous_counterpart(0.4, gamma)
        assert_allclose(ambiguous_counterpart(a2, gamma), 0.4, atol=1e-6)

    def test_edges_map_to_each_other(self):
        gamma = 0.1
        a0 = 3.0 / 1.1
        assert_allclose(ambiguous_counterpart(0.0, gamma), a0, rtol=1e-9)
        assert_allclose(ambiguous_counterpart(a0, gamma), 0.0, atol=1e-9)

    def test_minimizer_has_no_counterpart(self):
        with pytest.raises(DomainError):
            ambiguous_counterpart(1.0, 0.1)

    @pytest.mark.parametrize("gamma", [0.0, 0.06, 0.12, 0.5, 0.88, 0.96])
    def test_stays_inside_the_cup(self, gamma):
        a0 = 3.0 / (1.0 + gamma)
        near = np.logspace(-16, -3, 50)
        for a in np.r_[np.linspace(0.0, a0, 401), a0 * near, a0 * (1.0 - near)]:
            if abs(a - 1.0) >= 1e-6:
                assert 0.0 <= ambiguous_counterpart(a, gamma) <= a0

    def test_loads_no_scipy_optimize(self, python_stdout):
        code = (
            "import sys; from crpstail import ambiguous_counterpart; "
            "ambiguous_counterpart(0.5, 0.1); print('scipy.optimize' in sys.modules)"
        )
        assert python_stdout(code) == "False"

    def test_mixture_paths_load_no_scipy_optimize(self, python_stdout):
        # the mixture quantile, where its quadrature breaks and where a splice
        # over it lays its grid, is the package's own bisection
        code = (
            "import sys; from crpstail import *\n"
            "base = NormalMixture2(0.3, -1.0, 0.5, 2.0, 1.5); u = base.quantile(0.99)\n"
            "spliced = splice_tail(base, Exponential(10.0), u)\n"
            "crps = crps_quadrature(base, 1.0)\n"
            "gap, _ = spliced_gap_mc(base, spliced, n=1000, rng=1)\n"
            "print(u > 0, crps > 0, gap > 0, [m for m in sys.modules if 'scipy.optimize' in m])"
        )
        assert python_stdout(code) == "True True True []"

    def test_no_module_names_scipy_optimize(self):
        package = Path(distributions.__file__).parent
        texts = [p.read_text(encoding="utf-8") for p in package.glob("*.py")]
        assert len(texts) > 5
        assert not any("scipy.optimize" in t or "from scipy import optimize" in t for t in texts)

    def test_outside_cup_rejected(self):
        with pytest.raises(DomainError):
            ambiguous_counterpart(3.5, 0.1)
        with pytest.raises(DomainError):
            ambiguous_counterpart(-0.1, 0.1)


class TestSpliceConstruction:
    def setup_method(self):
        self.base = GeneralizedPareto(1.0, 0.25)
        self.u = float(self.base.quantile(0.999))
        self.sigma_u = 1.0 + 0.25 * self.u

    def test_valid_exponential_replacement(self):
        spliced = splice_tail(self.base, Exponential(1.0 / self.sigma_u), self.u)
        assert spliced.splice_point == self.u

    def test_too_slow_replacement_rejected(self):
        """An exponential slower than the base's hazard at the splice point
        pokes above the conditional tail immediately."""
        with pytest.raises(ConstructionError):
            splice_tail(self.base, Exponential(0.8 / self.sigma_u), self.u)

    def test_negative_support_replacement_rejected(self):
        with pytest.raises(ConstructionError):
            splice_tail(self.base, Normal(0.0, 1.0), self.u)

    def test_splice_beyond_support(self):
        bounded = GeneralizedPareto(1.0, -0.5)  # endpoint at 2
        with pytest.raises(ConstructionError):
            splice_tail(bounded, Exponential(1.0), 2.5)

    def test_tail_ratio_vanishes(self):
        """The spliced law is tail non-equivalent to the base: the survival
        ratio at 10x the splice point is tiny even though scores barely move."""
        spliced = splice_tail(self.base, Exponential(1.0 / self.sigma_u), self.u)
        ratio = float(spliced.survival(10 * self.u)) / float(
            self.base.survival(10 * self.u)
        )
        assert ratio < 1e-6


class TestExpectedScoreGap:
    def setup_method(self):
        self.base = GeneralizedPareto(1.0, 0.25)
        self.u = float(self.base.quantile(0.95))
        sigma_u = 1.0 + 0.25 * self.u
        self.spliced = splice_tail(self.base, Exponential(1.0 / sigma_u), self.u)

    def test_exact_gap_nonnegative(self):
        for weight in (UnitWeight(), QuantileIndicatorWeight(self.u)):
            gap = wcrps_gap_exact(self.base, self.spliced, weight)
            assert gap >= 0.0

    def test_exact_gap_below_bound(self):
        for weight in (UnitWeight(), QuantileIndicatorWeight(self.u)):
            gap = wcrps_gap_exact(self.base, self.spliced, weight)
            bound = wcrps_gap_bound(self.base, self.u, weight)
            assert gap <= bound

    def test_bound_unit_weight_closed_form(self):
        """With unit weight the conditional weight excess is the mean excess."""
        s_u = float(self.base.survival(self.u))
        want = 2.0 * s_u**2 * self.base.mean_excess(self.u)
        assert_allclose(wcrps_gap_bound(self.base, self.u, UnitWeight()), want, rtol=1e-9)

    def test_mc_agrees_with_exact(self):
        weight = QuantileIndicatorWeight(self.u)
        exact = wcrps_gap_exact(self.base, self.spliced, weight)
        mean, se = spliced_gap_mc(self.base, self.spliced, weight, n=200_000, rng=9)
        assert abs(mean - exact) < 3.0 * se

    @pytest.mark.parametrize(
        "offset, want", [(20.0, 2.3672658532246825e-7), (0.37, 4.3399576385616401e-5)]
    )
    def test_indicator_gap_breaks_at_the_weight_jump(self, offset, want):
        # GP(1, 0.25) with an exponential tail of twice its hazard bound spliced
        # at Q(0.99); the weight jumps to 1 at u + offset. Values from mpmath
        # at 40 digits; integrated across the jump, the first was 0.59 % off.
        base = GeneralizedPareto(1.0, 0.25)
        u = float(base.quantile(0.99))
        spliced = splice_tail(base, Exponential(2.0 / (1.0 + 0.25 * u)), u)
        gap = wcrps_gap_exact(base, spliced, QuantileIndicatorWeight(u + offset))
        assert_allclose(gap, want, rtol=1e-9)

    @pytest.mark.parametrize(
        "base, u, weight, want",
        [
            (Normal(0.0, 1.0), 0.5, TabulatedWeight([0.0, 1.0, 3.0], [0.0, 1.0, 0.5]),
             0.096550588033691449),
            (GeneralizedPareto(1.0, 0.25), 1.0, TabulatedWeight([0.0, 2.0, 30.0], [1.0] * 3),
             0.55746195948164732),
        ],
    )
    def test_tabulated_bound_breaks_at_the_knots(self, base, u, weight, want):
        # the weight steps to 0 at its last knot; values from mpmath at 30 digits
        assert_allclose(wcrps_gap_bound(base, u, weight), want, rtol=1e-13)

    def test_mc_reproducible(self):
        a = spliced_gap_mc(self.base, self.spliced, n=10_000, rng=5)
        b = spliced_gap_mc(self.base, self.spliced, n=10_000, rng=5)
        assert a == b

    def test_gap_matches_direct_score_difference(self):
        """Independent check of the coupled representation: score a small
        common sample both ways and difference the weighted scores."""
        weight_q = self.u
        rng = np.random.default_rng(17)
        x = self.base.sample(400, rng)
        direct = np.array(
            [
                wcrps_quantile(self.spliced, xi, weight_q)
                - wcrps_quantile(self.base, xi, weight_q)
                for xi in x
            ]
        )
        exact = wcrps_gap_exact(self.base, self.spliced, QuantileIndicatorWeight(weight_q))
        se = direct.std(ddof=1) / np.sqrt(x.size)
        assert abs(direct.mean() - exact) < 4.0 * se + 1e-12

    @pytest.mark.parametrize("n", [2, 23, 100])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "indicator"])
    def test_block_size_leaves_the_estimate_bit_for_bit(self, n, weighted, monkeypatch):
        weight = QuantileIndicatorWeight(self.u + 1.0) if weighted else UnitWeight()
        want = spliced_gap_mc(self.base, self.spliced, weight, n=n, rng=n)
        monkeypatch.setattr(distributions, "_BLOCK_DRAWS", 7)  # 23 = 3 blocks + 2
        got = spliced_gap_mc(self.base, self.spliced, weight, n=n, rng=n)
        assert repr(got) == repr(want)

    def test_peak_memory_is_the_draws_and_their_deviations(self):
        import tracemalloc

        n = 1 << 20
        spliced_gap_mc(self.base, self.spliced, n=10, rng=0)  # loads scipy.special
        tracemalloc.start()
        try:
            spliced_gap_mc(self.base, self.spliced, n=n, rng=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the draws, then std's one temporary of deviations; the parent's
        # whole-array temporaries peaked at 4.0x
        assert peak <= 2.25 * 8 * n, peak / (8 * n)

    @pytest.mark.parametrize("n", [1, 0, -5, 2.0, 1e6, True, "10", None])
    def test_too_few_draws_raise_before_drawing(self, n):
        gen = np.random.default_rng(4)
        state = gen.bit_generator.state
        with pytest.raises(ParameterError, match="number of draws"):
            spliced_gap_mc(self.base, self.spliced, n=n, rng=gen)
        assert gen.bit_generator.state == state
