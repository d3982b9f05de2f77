import inspect
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

import crpstail
from crpstail import (
    DomainError,
    Exponential,
    Gamma,
    GeneralizedPareto,
    Normal,
    NormalMixture2,
    ParameterError,
    Spliced,
    UnsupportedFamilyError,
    batch_cdf,
    from_family,
)
from crpstail import distributions
from crpstail.distributions import _quad


def _gp_exponential_splice():
    base = GeneralizedPareto(1.0, 0.25)
    u = float(base.quantile(0.99))
    return Spliced(base, Exponential(2.0 / (1.0 + 0.25 * u)), u)


ALL_DISTS = [
    Normal(0.3, 1.2),
    NormalMixture2(0.5, -1.0, 1.0, 1.5, 0.7),
    NormalMixture2(0.2, 0.0, 0.5, 3.0, 2.0),
    Exponential(1.7),
    Gamma(4.0, 4.0),
    GeneralizedPareto(1.0, 0.25),
    GeneralizedPareto(2.0, 0.0),
    GeneralizedPareto(1.5, -0.3),
    # a rare, narrow far mode: the quantile must cross the empty gap before it
    NormalMixture2(0.9, 0.0, 1.0, 6.0, 0.3),
    # the heaviest tail that still has a finite variance to test the mean with
    GeneralizedPareto(0.5, 0.4),
    _gp_exponential_splice(),
]


class TestNormal:
    def test_matches_scipy(self):
        d = Normal(0.3, 1.2)
        x = np.linspace(-4, 5, 41)
        ref = stats.norm(0.3, 1.2)
        assert_allclose(d.cdf(x), ref.cdf(x), rtol=1e-13)
        assert_allclose(d.survival(x), ref.sf(x), rtol=1e-13)
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

    def test_quantile_with_a_weightless_component(self):
        # the root sits on a bracket end, where rounding can leave it outside
        p = np.array([1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-12])
        for w, ref in ((0.0, Normal(0.0, 1.0)), (1.0, Normal(0.0, 0.5))):
            got = NormalMixture2(w, 0.0, 0.5, 0.0, 1.0).quantile(p)
            assert_allclose(got, ref.quantile(p), rtol=1e-12)

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
        assert_allclose(d.survival(x), ref.sf(x), rtol=1e-12)
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

    def test_overflowing_ratio_gives_the_limits(self):
        # shape x / scale overflows to inf, which Tier-1 would raise as a warning
        d = GeneralizedPareto(1e-10, 0.5)
        assert d.cdf(1e300) == 1.0
        assert d.survival(1e300) == 0.0

    def test_quantile_where_scale_over_shape_overflows(self):
        # 40-digit mpmath: scale expm1(-shape log1p(-p)) / shape
        got = GeneralizedPareto(1e305, 1e-5).quantile(0.5)
        assert_allclose(got, 6.931495828305653e304, rtol=1e-14)

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


class TestQuadratureHelper:
    def test_empty_and_reversed_ranges_are_zero(self):
        assert _quad(math.exp, 1.0, 1.0) == 0.0
        assert _quad(math.exp, 2.0, 1.0) == 0.0

    def test_infinite_range_with_break_points(self):
        # a kink at 1 and a jump at 3; -1 and 0 lie outside the range
        def f(x):
            return abs(x - 1.0) * math.exp(-x) + (x >= 3.0) * math.exp(-x)

        want = 2.0 / math.e + math.exp(-3.0)
        got = _quad(f, 0.0, math.inf, points=[3.0, -1.0, 0.0, 1.0], tol=1e-13, limit=200)
        assert_allclose(got, want, rtol=1e-12)

    def test_minus_infinite_range_with_break_points(self):
        # the mirror image of the test above: a kink at -1, a jump at -3
        def f(x):
            return abs(x + 1.0) * math.exp(x) + (x <= -3.0) * math.exp(x)

        want = 2.0 / math.e + math.exp(-3.0)
        got = _quad(f, -math.inf, 0.0, points=[-3.0, 1.0, 0.0, -1.0], tol=1e-13, limit=200)
        assert_allclose(got, want, rtol=1e-12)

    def test_algebraic_tail_cut_far_out(self):
        # GP(1, 1.95) holds sigma S(q)^(2 - xi) / (2 - xi) of int S^2 beyond
        # q = Q(1 - 1e-12), over some 1e16 of its scale; the infinite-range map
        # with L = 1 returns 1.4e-21 of it, the gap L = q - Q(1 - 1e-11) all.
        # At a tighter tol QUADPACK warns that its extrapolation stalls.
        d = GeneralizedPareto(1.0, 1.95)
        q11, q12 = d.quantile(1.0 - 1e-11), d.quantile(1.0 - 1e-12)
        got = _quad(
            lambda x: float(d.survival(x)) ** 2 * (x >= q12), q11, math.inf, points=[q12], tol=1e-9
        )
        assert_allclose(got, 5.023767306235897, rtol=1e-9)

    def test_pieces_tile_the_range(self):
        # one DQAGSE run per piece between consecutive kept nodes, and one per
        # mapped tail over (0, 1)
        from crpstail import _quadpack, scoring

        runs = []
        real = _quadpack.quad

        def spy(f, a, b, tol, limit):
            runs.append((a, b))
            return real(f, a, b, tol, limit)

        dist = Normal(0.3, 1.2)
        with mock.patch.object(_quadpack, "quad", spy):
            scoring.crps_quadrature(dist, 1.0, scoring.QuantileIndicatorWeight(0.5))
        pieces = [run for run in runs if run != (0, 1)]
        assert len(runs) - len(pieces) == 2
        # below y = 1, then above it: end to end from the first kept node
        # (the lowest quantile) to the last, split at the weight's jump and y
        nodes = dist.quantile(scoring._LEVELS)
        assert (pieces[0][0], pieces[-1][1]) == (nodes[0], nodes[-1])
        assert all(b == a for (_, b), (a, _) in zip(pieces, pieces[1:]))
        ends = {x for run in pieces for x in run}
        assert {0.5, 1.0} <= ends
        assert not any(a < x < b for a, b in pieces for x in [*nodes, 0.5, 1.0])

    def test_one_function_calls_quad(self):
        """Every integral goes through ``_quad`` and the package's own QUADPACK:
        no module names scipy's integration package, every mention of
        ``_quadpack`` outside it lies in ``_quad``, and ``_quadpack`` has one
        driver, DQAGSE, behind ``quad(f, a, b, tol, limit)``."""
        from crpstail import _quadpack

        texts = {
            p.name: p.read_text(encoding="utf-8")
            for p in Path(crpstail.__file__).parent.glob("*.py")
        }
        assert not any(
            "scipy.integrate" in t or "from scipy import integrate" in t for t in texts.values()
        )
        uses = sum(t.count("_quadpack") for name, t in texts.items() if name != "_quadpack.py")
        helper = inspect.getsource(_quad)
        assert uses == helper.count("_quadpack")
        assert helper.count("_quadpack.quad(") == 1
        assert list(inspect.signature(_quadpack.quad).parameters) == ["f", "a", "b", "tol", "limit"]
        functions = {
            name for name, obj in vars(_quadpack).items()
            if inspect.isfunction(obj) and obj.__module__ == _quadpack.__name__
        }
        assert functions == {
            "quad", "_qk21", "_qpsrt", "_qelg", "_qagse", "_final", "_divide", "_out"
        }


class TestFamilyRegistry:
    @pytest.mark.parametrize(
        "family, params, cls",
        [
            ("normal", [0.5, 1.5], Normal),
            ("normal_mixture2", [0.5, 0.0, 1.0, 2.0, 1.0], NormalMixture2),
            ("exponential", [0.7], Exponential),
            ("gamma", [4.0, 4.0], Gamma),
            ("generalized_pareto", [1.0, 0.25], GeneralizedPareto),
        ],
    )
    def test_round_trip(self, family, params, cls):
        d = from_family(family, params)
        assert isinstance(d, cls)
        assert_allclose(d.params, params, rtol=1e-14)

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            from_family("cauchy", [0.0, 1.0])

    def test_uniform_mixture_is_not_a_family(self):
        with pytest.raises(UnsupportedFamilyError):
            from_family("uniform_mixture", [0.5, 0.0, 1.0, 0.5, 1.0, 2.0])

    def test_wrong_param_count(self):
        with pytest.raises(ParameterError):
            from_family("normal", [0.0])

    @pytest.mark.parametrize("family", ["normal", "normal_mixture2", "exponential", "gamma",
                                        "generalized_pareto"])
    def test_point_wise_calls_reuse_one_row(self, family):
        # each instance builds its (1, k) parameter row once; cdf, survival and
        # quantile run the family kernels on it without reading ``params`` again
        d = from_family(family, {"normal": [0.5, 1.5], "normal_mixture2": [0.5, 0, 1, 2, 1],
                                 "exponential": [0.7], "gamma": [4.0, 4.0],
                                 "generalized_pareto": [1.0, 0.25]}[family])
        row = np.array([d.params])
        assert_array_equal(d._row, row)
        assert not d._row.flags.writeable
        x = np.array([-0.5, 0.3, 1.3, 4.0])
        p = np.array([1e-9, 0.3, 0.5, 1.0 - 1e-9])
        with mock.patch.object(type(d), "params", new_callable=mock.PropertyMock,
                               side_effect=AssertionError):
            got = [[d.cdf(v), d.survival(v), d.quantile(q)] for v, q in zip(x, p)]
        kernels = crpstail.distributions.family_entry(family)
        want = np.stack([kernels.cdf(row, x), kernels.survival(row, x),
                         kernels.quantile(row, p)], axis=1)
        assert_array_equal(got, want)

    def test_every_quantile_is_a_table_kernel(self):
        # the classes keep one quantile, _TableFamily's one-row batch
        for family, fam in distributions._FAMILIES.items():
            assert (fam.quantile is None) == (fam.cls is None), family
            if fam.cls is not None:
                assert "quantile" not in vars(fam.cls), family
                assert fam.cls.quantile is distributions._TableFamily.quantile


class TestSharedInvariants:
    def test_every_family_writes_its_own_survival(self):
        # no ``1 - cdf`` default, which loses the tail's relative precision
        assert "survival" in distributions.Distribution.__abstractmethods__

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
    def test_pointwise_shape_contract(self, dist):
        """A scalar gives a Python float; an array keeps its shape."""
        for x in (0.7, np.float64(0.7), np.array(0.7)):
            assert type(dist.cdf(x)) is float and type(dist.survival(x)) is float
            assert type(dist.quantile(x)) is float
        for shape in ((0,), (1,), (5,), (1, 1), (3, 4)):
            x = np.linspace(-1.0, 6.0, math.prod(shape)).reshape(shape)
            assert dist.cdf(x).shape == shape and dist.survival(x).shape == shape
            p = np.linspace(0.05, 0.95, math.prod(shape)).reshape(shape)
            assert dist.quantile(p).shape == shape

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_quantile_takes_levels_inside_zero_one_only(self, dist):
        for p in (0.0, 1.0, -0.5, 1.5, np.nan, np.inf, [0.5, 1.0]):
            with pytest.raises(DomainError):
                dist.quantile(p)

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

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_sample_mean_close(self, dist):
        x = dist.sample(150_000, np.random.default_rng(11))
        se = x.std() / np.sqrt(x.size)
        assert abs(x.mean() - dist.mean()) < 4 * se + 1e-3


class TestBlockedSampling:
    """``sample`` draws and transforms its uniforms a block at a time."""

    @pytest.mark.parametrize("n", [1, 23, 64])
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_block_size_leaves_every_draw_bit_for_bit(self, dist, n, monkeypatch):
        ref = np.random.default_rng(n)
        want = dist.sample(n, ref)
        monkeypatch.setattr(distributions, "_BLOCK_DRAWS", 7)  # 23 = 3 blocks + 2
        gen = np.random.default_rng(n)
        got = dist.sample(n, gen)
        assert got.shape == (n,) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        # and the stream is left where the default block size leaves it
        assert gen.random() == ref.random()

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_peak_memory_is_the_output_and_one_block(self, dist):
        import tracemalloc

        n = 1 << 20
        dist.sample(10, 0)  # scipy.special loads on first use; its allocations are traced
        tracemalloc.start()
        try:
            x = dist.sample(n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # drawn whole, the parent peaked at 2.0x (Normal) to 6.1x (NormalMixture2)
        assert peak <= 1.5 * x.nbytes, peak / x.nbytes

    @pytest.mark.parametrize("n", [-1, 2.0, 2.5, "3", True, None, (2, 3)])
    def test_draw_count_must_be_a_non_negative_integer(self, n):
        for dist in (Normal(0.0, 1.0), NormalMixture2(0.5, -1.0, 1.0, 1.5, 0.7),
                     _gp_exponential_splice()):
            with pytest.raises(ParameterError, match="number of draws") as exc:
                dist.sample(n, 0)
            assert isinstance(exc.value, ValueError)

    def test_zero_and_numpy_integer_counts(self):
        for dist in ALL_DISTS:
            assert dist.sample(0, 1).shape == (0,)
            got = dist.sample(np.int64(5), 1)
            assert got.tobytes() == dist.sample(5, 1).tobytes()


def _family_rows(family, n, seed):
    """n seeded parameter rows of a record family, and n observations of both
    signs reaching into the laws' tails."""
    g = np.random.default_rng(seed)
    u = g.random((n, 5))
    rows = {
        "normal": lambda: np.column_stack([4 * u[:, 0] - 2, 0.2 + 2 * u[:, 1]]),
        "normal_mixture2": lambda: np.column_stack(
            [u[:, 0], 4 * u[:, 1] - 2, 0.2 + 2 * u[:, 2], 4 * u[:, 3] - 2, 0.2 + 2 * u[:, 4]]
        ),
        "exponential": lambda: 0.2 + 3 * u[:, :1],
        "gamma": lambda: np.column_stack([0.5 + 9.5 * u[:, 0], 0.2 + 3 * u[:, 1]]),
        "generalized_pareto": lambda: np.column_stack([0.2 + 3 * u[:, 0], 1.3 * u[:, 1] - 0.4]),
        "ensemble": lambda: 2 * g.standard_normal((n, 7)),
    }[family]()
    return rows, 4.0 * g.standard_normal(n)


def _kernel_calls(family, params, x):
    """(name, values) of every kernel of the family's table entry, on the
    rows ``params`` at ``x``; ``quantile`` takes seeded uniforms as many as
    ``x``, and ``tail`` one threshold for all rows."""
    fam = distributions.family_entry(family)
    p = np.random.default_rng(len(x)).random(len(x))
    calls = {
        "cdf": lambda: fam.cdf(params, x),
        "survival": lambda: fam.survival(params, x),
        "quantile": lambda: fam.quantile(params, p),
        "crps": lambda: fam.crps(params, x),
        "tail": lambda: fam.tail(params, 0.7),
        "wcrps": lambda: fam.wcrps(params, x, 0.7),
    }
    return [(name, call()) for name, call in calls.items() if getattr(fam, name) is not None]


class TestBlockedKernels:
    """Every family-table kernel runs a block of rows at a time."""

    @pytest.mark.parametrize("one_row", [False, True], ids=["rows", "one_row"])
    @pytest.mark.parametrize("n", [1, 23, 64])
    @pytest.mark.parametrize("family", sorted(distributions._FAMILIES))
    def test_block_size_leaves_every_value_bit_for_bit(self, family, n, one_row, monkeypatch):
        params, x = _family_rows(family, n, seed=n)
        if one_row:
            params = params[:1]  # one law at n points
        want = _kernel_calls(family, params, x)
        assert {name for name, _ in want} >= {"cdf", "crps"}
        monkeypatch.setattr(distributions, "_BLOCK_DRAWS", 7)  # 23 = 3 blocks + 2
        got = _kernel_calls(family, params, x)
        for (name, g), (_, w) in zip(got, want):
            size = 1 if one_row and name == "tail" else n
            assert g.shape == w.shape == (size,) and g.dtype == np.float64, name
            assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("family", ["normal", "generalized_pareto"])
    def test_out_takes_each_block_over_its_argument(self, family, monkeypatch):
        monkeypatch.setattr(distributions, "_BLOCK_DRAWS", 7)
        params, x = _family_rows(family, 64, seed=3)
        law = from_family(family, params[0])
        want = law.cdf(x)
        got = law._one_row(distributions.family_entry(family).cdf, x, out=x)
        assert got is x and x.tobytes() == want.tobytes()

    def test_argument_of_two_dimensions_runs_whole(self, monkeypatch):
        monkeypatch.setattr(distributions, "_BLOCK_DRAWS", 7)
        law = Normal(0.3, 1.2)
        x = np.linspace(-5.0, 5.0, 60).reshape(6, 10)
        assert law.cdf(x).shape == (6, 10)
        assert_array_equal(law.cdf(x), law.cdf(x.ravel()).reshape(6, 10))

    def test_kernel_runs_once_per_block(self, monkeypatch):
        calls = []

        def kernel(params, x):
            calls.append(len(x))
            return x * params[:, 0]

        monkeypatch.setattr(distributions, "_BLOCK_DRAWS", 7)
        run = distributions._row_blocks(kernel)
        got = run(np.full((23, 1), 2.0), np.arange(23.0))
        assert calls == [7, 7, 7, 2]
        assert_array_equal(got, 2.0 * np.arange(23.0))
