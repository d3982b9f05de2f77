import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import crpstail
from crpstail import (
    DomainError,
    GpTail,
    InsufficientDataError,
    ParameterError,
    RecordBatch,
    UnsupportedFamilyError,
    crps_quadrature,
    cvm_from_probs,
    cvm_log_pvalue,
    cvm_pvalue,
    cvm_statistic,
    diebold_mariano,
    discrepancy,
    dm_matrix,
    exceedance_calibration,
    extremes_index,
    index_curve,
    ks_one_sample_critical,
    ks_two_sample_critical,
    pit_calibration,
    qq_pp,
    score_series,
    shuffled_score_series,
    simulate_forecasters,
    tail_shape_of_scores,
    threshold_grid,
)
from crpstail.scoring import crps_closed
from crpstail.verification import ScoreSeries
from crpstail.distributions import GeneralizedPareto, Normal


def _normal_batch(mus, sigmas, y):
    mus = np.asarray(mus, dtype=float)
    return RecordBatch(
        t=np.arange(mus.size),
        y=np.asarray(y, dtype=float),
        family="normal",
        params=np.column_stack([mus, np.broadcast_to(sigmas, mus.shape)]),
    )


class TestScoreSeries:
    def test_matches_closed_form_per_record(self):
        rng = np.random.default_rng(0)
        mus = rng.normal(size=50)
        y = mus + rng.normal(size=50)
        batch = _normal_batch(mus, 1.0, y)
        series = score_series(batch)
        want = [crps_closed(Normal(m, 1.0), yy) for m, yy in zip(mus, y)]
        assert_allclose(series.values, want, rtol=1e-12)
        assert series.pairing == "paired"
        assert_allclose(series.obs, y)
        assert len(series) == 50

    def test_quadrature_fallback_for_gamma_family(self):
        # the gamma batch kernel must match per-record quadrature
        rng = np.random.default_rng(1)
        shapes = rng.uniform(1.5, 4.0, size=8)
        rates = rng.uniform(0.5, 2.0, size=8)
        y = rng.gamma(shapes, 1.0 / rates)
        batch = RecordBatch(
            t=np.arange(8),
            y=y,
            family="gamma",
            params=np.column_stack([shapes, rates]),
        )
        series = score_series(batch)
        from crpstail.distributions import from_family

        want = [
            crps_quadrature(from_family("gamma", batch.params[i]), float(y[i]))
            for i in range(8)
        ]
        assert_allclose(series.values, want, rtol=1e-9)

    def test_weighted_scores(self):
        from crpstail.scoring import wcrps_quantile

        rng = np.random.default_rng(2)
        mus = rng.normal(size=20)
        y = mus + rng.normal(size=20)
        batch = _normal_batch(mus, 1.0, y)
        series = score_series(batch, weight_threshold=0.5)
        want = [
            wcrps_quantile(Normal(m, 1.0), yy, 0.5) for m, yy in zip(mus, y)
        ]
        assert_allclose(series.values, want, rtol=1e-12)

    def test_shuffle_is_seeded_permutation(self):
        rng = np.random.default_rng(3)
        mus = rng.normal(size=100)
        y = mus + rng.normal(size=100)
        batch = _normal_batch(mus, 1.0, y)
        s1 = shuffled_score_series(batch, shuffle_seed=7)
        s2 = shuffled_score_series(batch, shuffle_seed=7)
        assert_allclose(s1.values, s2.values)
        assert_allclose(s1.obs, s2.obs)
        assert s1.pairing == "shuffled"
        # the observation margin is preserved exactly
        assert_allclose(np.sort(s1.obs), np.sort(y))
        s3 = shuffled_score_series(batch, shuffle_seed=8)
        assert not np.array_equal(s3.obs, s1.obs)

    def test_negative_shuffle_seed(self):
        batch = _normal_batch(np.zeros(5), 1.0, np.arange(5.0))
        with pytest.raises(ParameterError, match="shuffle seed"):
            shuffled_score_series(batch, shuffle_seed=-1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ScoreSeries(values=np.ones(3), pairing="mixed", obs=np.ones(3))
        with pytest.raises(ParameterError):
            ScoreSeries(values=np.ones(3), pairing="paired", obs=np.ones(4))


class TestQqPp:
    def test_identical_samples(self):
        x = np.array([0.3, 1.2, 0.1, 4.0])
        res = qq_pp(x, x.copy())
        assert res.ks_distance == 0.0
        assert_allclose(res.qq[:, 0], res.qq[:, 1])
        assert_allclose(res.pp[:, 0], res.pp[:, 1])

    def test_equal_length_sorts(self):
        a = np.array([3.0, 1.0, 2.0])
        b = np.array([6.0, 4.0, 5.0])
        res = qq_pp(a, b)
        assert_allclose(res.qq, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])

    def test_hand_ks_and_pp(self):
        # pooled support {0, 0.5, 1, 1.5}: edfs differ by 0.5 at 0 and 1
        res = qq_pp([0.0, 1.0], [0.5, 1.5])
        assert_allclose(res.ks_distance, 0.5)
        assert_allclose(res.pp[:, 0], [0.5, 0.5, 1.0, 1.0])
        assert_allclose(res.pp[:, 1], [0.0, 0.5, 0.5, 1.0])

    def test_unequal_lengths_use_plotting_positions(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=50), rng.normal(size=80)
        res = qq_pp(a, b)
        assert res.qq.shape == (50, 2)
        probs = (np.arange(1, 51) - 0.5) / 50
        assert_allclose(res.qq[:, 0], np.quantile(a, probs))
        assert_allclose(res.qq[:, 1], np.quantile(b, probs))

    def test_accepts_score_series(self):
        s = ScoreSeries(values=[1.0, 2.0], pairing="paired", obs=[0.0, 0.0])
        res = qq_pp(s, [1.0, 2.0])
        assert res.ks_distance == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            qq_pp([], [1.0])


class TestKsCritical:
    def test_known_constant(self):
        # c(alpha) = sqrt(-ln(alpha/2) / 2) at alpha = 0.05
        assert_allclose(
            ks_one_sample_critical(0.05, 1), 1.3581015157406195, rtol=1e-12
        )

    def test_one_sample_scaling(self):
        assert_allclose(
            ks_one_sample_critical(0.05, 400),
            1.3581015157406195 / 20.0,
            rtol=1e-12,
        )

    def test_two_sample_reduces_to_one(self):
        # m -> infinity recovers the one-sample distance
        assert_allclose(
            ks_two_sample_critical(0.01, 100, 10**12),
            ks_one_sample_critical(0.01, 100),
            rtol=1e-5,
        )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.5, -0.1, math.nan])
    def test_level_must_lie_inside_the_unit_interval(self, alpha):
        # 1 <= alpha < 2 gave a distance, alpha >= 2 a bare math domain error
        with pytest.raises(ParameterError, match="significance level"):
            ks_one_sample_critical(alpha, 10)
        with pytest.raises(ParameterError, match="significance level"):
            ks_two_sample_critical(alpha, 10, 20)

    @pytest.mark.parametrize("size", [0, -3, 0.5, math.nan])
    def test_sample_sizes_must_be_at_least_one(self, size):
        # a size of 0 raised ZeroDivisionError
        for call in (lambda: ks_one_sample_critical(0.05, size),
                     lambda: ks_two_sample_critical(0.05, size, 5),
                     lambda: ks_two_sample_critical(0.05, 5, size)):
            with pytest.raises(ParameterError, match="sample sizes"):
                call()

    def test_two_sample_symmetric(self):
        assert ks_two_sample_critical(0.05, 30, 70) == ks_two_sample_critical(
            0.05, 70, 30
        )


class TestDiscrepancy:
    def test_hand_value(self):
        assert_allclose(discrepancy([0.0, 1.0], [0.5, 1.5]), 0.5, rtol=1e-14)

    def test_equals_mean_difference(self):
        rng = np.random.default_rng(5)
        f = rng.exponential(2.0, size=137)
        g = rng.gamma(3.0, 1.0, size=211)
        assert_allclose(discrepancy(f, g), g.mean() - f.mean(), rtol=1e-10)

    def test_antisymmetric(self):
        rng = np.random.default_rng(6)
        f, g = rng.exponential(size=40), rng.exponential(size=40)
        assert_allclose(discrepancy(f, g), -discrepancy(g, f), rtol=1e-12)

    def test_identical_is_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert discrepancy(x, x) == 0.0


class TestDieboldMariano:
    def test_hand_statistic(self):
        # d = [2, 0, 2, 0]: mean 1, gamma0 = 1, stat = 1 / sqrt(1/4) = 2
        a = np.array([2.0, 0.0, 2.0, 0.0])
        b = np.zeros(4)
        res = diebold_mariano(a, b)
        assert_allclose(res.statistic, 2.0, rtol=1e-14)
        assert_allclose(res.p_value, 0.04550026389635842, rtol=1e-12)
        assert_allclose(res.mean_diff, 1.0)
        assert res.n == 4
        assert not res.degenerate

    def test_newey_west_hand_statistic(self):
        # same d with lag 1: var = (1 + 2*(1/2)*(-0.75)) / 4 = 1/16, stat = 4
        a = np.array([2.0, 0.0, 2.0, 0.0])
        b = np.zeros(4)
        res = diebold_mariano(a, b, lag=1)
        assert_allclose(res.statistic, 4.0, rtol=1e-12)
        assert_allclose(res.p_value, 6.33424836662398e-05, rtol=1e-10)

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        a = rng.exponential(size=300)
        b = rng.exponential(size=300)
        r1, r2 = diebold_mariano(a, b), diebold_mariano(b, a)
        assert_allclose(r1.statistic, -r2.statistic, rtol=1e-12)
        assert_allclose(r1.p_value, r2.p_value, rtol=1e-12)

    def test_sign_convention(self):
        # positive statistic means the second series scored lower (better)
        rng = np.random.default_rng(8)
        good = rng.exponential(size=500)
        bad = good + 1.0 + rng.exponential(size=500)
        assert diebold_mariano(bad, good).statistic > 0.0

    def test_degenerate_identical(self):
        x = np.array([1.0, 2.0, 3.0])
        res = diebold_mariano(x, x)
        assert res.degenerate
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_degenerate_constant_shift(self):
        x = np.array([1.0, 2.0, 3.0])
        res = diebold_mariano(x + 0.5, x)
        assert res.degenerate
        assert res.statistic == math.inf
        assert res.p_value == 0.0
        res = diebold_mariano(x - 0.5, x)
        assert res.statistic == -math.inf

    def test_validation(self):
        with pytest.raises(ParameterError):
            diebold_mariano([1.0, 2.0], [1.0])
        with pytest.raises(InsufficientDataError):
            diebold_mariano([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_raises(self, bad):
        # a NaN score gave statistic=nan, p_value=nan
        with pytest.raises(DomainError, match="not finite"):
            diebold_mariano([1.0, bad, 2.0], [0.5, 0.5, 0.5])
        with pytest.raises(DomainError, match="not finite"):
            diebold_mariano([1.0, 1.5, 2.0], [0.5, bad, 0.5], lag=1)

    @pytest.mark.parametrize("lag", [-1, 1.5, 2.0, True, None])
    def test_lag_must_be_a_non_negative_integer(self, lag):
        # lag=-1 ran as lag 0
        with pytest.raises(ParameterError, match="lag"):
            diebold_mariano([1.0, 3.0, 2.0], [0.5, 0.5, 0.5], lag=lag)

    @pytest.mark.parametrize("lag", [0, 1, 3, np.int64(2)])
    def test_keeps_the_bits_of_the_whole_array_form(self, lag):
        a, b = np.random.default_rng(4).exponential(size=(2, 1001))
        n, d = a.size, a - b
        mean = float(d.mean())
        dc = d - mean
        var = float(np.sum(dc * dc)) / n
        for ell in range(1, lag + 1):
            var += 2.0 * (1.0 - ell / (lag + 1.0)) * float(np.sum(dc[ell:] * dc[:-ell])) / n
        res = diebold_mariano(a, b, lag=lag)
        assert res.mean_diff == mean and res.statistic == mean / math.sqrt(var / n)


class TestNoBlas:
    """No result may depend on the BLAS build or its thread count."""

    def test_dm_bits_do_not_depend_on_blas_threads(self, python_stdout):
        # seed 0 gave -0.9154487086666889 on one thread and ...888 on two
        # while the variance was a BLAS dot product
        def statistics(threads):
            return python_stdout(
                f"import os; os.environ['OPENBLAS_NUM_THREADS'] = '{threads}'; "
                "import numpy as np; from crpstail import diebold_mariano; "
                "a, b = np.random.default_rng(0).standard_normal((2, 300_000)); "
                "print([diebold_mariano(a, b, lag).statistic.hex() for lag in (0, 5)])"
            )

        assert statistics(1) == statistics(2)

    def test_package_makes_no_blas_call(self):
        blas = {"dot", "matmul", "vdot", "inner", "einsum"}
        found = []
        for path in sorted(Path(crpstail.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.MatMult):
                    found.append((path.name, "@"))
                elif isinstance(node, ast.Call):
                    fn = node.func
                    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                    if name in blas:
                        found.append((path.name, node.lineno, name))
        assert found == []


class TestDmMatrix:
    def test_structure_and_signs(self):
        rng = np.random.default_rng(9)
        base = rng.exponential(size=400)
        scores = {
            "sharp": base,
            "dull": base + 0.5 + rng.exponential(size=400),
        }
        mat = dm_matrix(scores)
        assert mat.names == ["sharp", "dull"]
        assert mat.statistics.shape == (2, 2)
        assert_allclose(np.diag(mat.statistics), 0.0)
        assert_allclose(mat.statistics, -mat.statistics.T, atol=1e-12)
        assert_allclose(mat.p_values, mat.p_values.T)
        # row "sharp" scored lower, so its off-diagonal entry is positive
        assert mat.statistics[0, 1] > 0.0
        assert mat.statistics[1, 0] < 0.0

    def test_matches_pairwise_call(self):
        rng = np.random.default_rng(10)
        s = {k: rng.exponential(size=100) for k in "abc"}
        mat = dm_matrix(s, lag=2)
        res = diebold_mariano(s["c"], s["a"], lag=2)
        assert_allclose(mat.statistics[0, 2], res.statistic, rtol=1e-14)
        assert_allclose(mat.p_values[0, 2], res.p_value, rtol=1e-14)


class TestCvmStatistic:
    def test_single_point_center(self):
        assert_allclose(cvm_from_probs([0.5]), 1.0 / 12.0, rtol=1e-15)

    def test_two_points_at_plotting_positions(self):
        assert_allclose(cvm_from_probs([0.25, 0.75]), 1.0 / 24.0, rtol=1e-15)

    def test_rank_order_sensitivity(self):
        # the same probabilities out of rank order inflate the statistic
        assert_allclose(cvm_from_probs([0.75, 0.25]), 13.0 / 24.0, rtol=1e-15)

    def test_statistic_sorts_values(self):
        tail = GpTail(sigma=1.0, gamma=0.2, threshold_ref=1.0)
        v = np.array([4.0, 1.5, 2.5, 9.0, 1.1])
        t1 = cvm_statistic(v, tail)
        t2 = cvm_statistic(np.sort(v), tail)
        assert_allclose(t1, t2, rtol=1e-15)

    def test_perfect_quantiles_give_floor(self):
        tail = GpTail(sigma=1.0, gamma=0.2, threshold_ref=0.0)
        m = 50
        v = tail.quantile((np.arange(1, m + 1) - 0.5) / m)
        assert_allclose(cvm_statistic(v, tail), 1.0 / (12.0 * m), rtol=1e-10)

    def test_below_threshold_penalized(self):
        tail = GpTail(sigma=1.0, gamma=0.2, threshold_ref=5.0)
        good = tail.quantile((np.arange(1, 21) - 0.5) / 20.0)
        bad = good - 5.0  # all mass below the threshold
        assert cvm_statistic(bad, tail) > cvm_statistic(good, tail) * 10

    def test_validation(self):
        with pytest.raises(DomainError):
            cvm_from_probs([0.5, 1.2])
        with pytest.raises(ParameterError):
            cvm_from_probs([])
        with pytest.raises(ParameterError):
            cvm_from_probs(np.ones((2, 2)))
        with pytest.raises(InsufficientDataError):
            cvm_statistic([], GpTail(1.0, 0.1))

    def test_nan_raises(self):
        # the [0, 1] range check let NaN through: both returned nan
        with pytest.raises(DomainError):
            cvm_from_probs([0.2, math.nan])
        with pytest.raises(DomainError, match="NaN"):
            cvm_statistic([1.5, math.nan, 2.0], GpTail(1.0, 0.1, 1.0))

    @pytest.mark.parametrize("m", [1, 23, 64, 1001])
    def test_keeps_the_bits_of_the_whole_array_form(self, m, monkeypatch):
        import crpstail.distributions as distributions

        monkeypatch.setattr(distributions, "_BLOCK_DRAWS", 7)  # 23 = 3 blocks + 2
        tail = GpTail(sigma=1.3, gamma=0.2, threshold_ref=0.5)
        v = tail.quantile(np.random.default_rng(m).random(m)) - 0.05
        h = np.clip(tail.cdf(np.sort(v)), 0.0, 1.0)
        i = np.arange(1, m + 1)
        want = float(1.0 / (12.0 * m) + np.sum(((2.0 * i - 1.0) / (2.0 * m) - h) ** 2))
        assert cvm_from_probs(h) == want
        assert cvm_statistic(v, tail) == want
        # the caller's probabilities are left as they were
        assert_array_equal(h, np.clip(tail.cdf(np.sort(v)), 0.0, 1.0))


class TestCvmPvalue:
    def test_known_quantiles_of_limiting_law(self):
        # classical upper-tail critical values of the limiting distribution
        assert_allclose(cvm_pvalue(0.34730), 0.10, atol=5e-5)
        assert_allclose(cvm_pvalue(0.46136), 0.05, atol=5e-5)
        assert_allclose(cvm_pvalue(0.74346), 0.01, atol=5e-5)

    def test_median_region_value(self):
        assert_allclose(cvm_pvalue(1.0 / 6.0), 0.3426, atol=2e-4)

    def test_monotone_across_all_regimes(self):
        t = np.concatenate(
            [
                np.linspace(1e-4, 0.02, 40),
                np.linspace(0.0201, 2.0, 200),
                np.linspace(2.001, 6.0, 100),
            ]
        )
        p = cvm_pvalue(t)
        assert np.all(np.diff(p) <= 0.0)
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_regime_seams_are_small(self):
        eps = 1e-9
        lo, hi = cvm_log_pvalue(0.02 - eps), cvm_log_pvalue(0.02 + eps)
        assert abs(lo - hi) < 1e-4
        lo, hi = cvm_log_pvalue(2.0 - eps), cvm_log_pvalue(2.0 + eps)
        assert abs(lo - hi) < 0.05

    def test_table_edge_is_the_same_on_first_use(self, python_stdout):
        # the table's right edge comes from the series on first use: p-values
        # asked for first in a fresh interpreter carry the same bits as those
        # after a mid-range call has run the series
        ts = [0.001, 0.0125, 0.02, 0.021, 0.5, 3.0]
        calls = f"print([(cvm_pvalue(t).hex(), cvm_log_pvalue(t).hex()) for t in {ts!r}])"
        imports = "from crpstail.verification import cvm_log_pvalue, cvm_pvalue"
        first = python_stdout(f"{imports}; {calls}")
        assert first == python_stdout(f"{imports}; cvm_pvalue(0.5); {calls}")
        cvm_pvalue(0.5)
        assert first == str([(cvm_pvalue(t).hex(), cvm_log_pvalue(t).hex()) for t in ts])

    def test_tiny_statistic_saturates_at_one(self):
        assert cvm_pvalue(0.0) == 1.0
        assert cvm_pvalue(0.001) == 1.0

    def test_log_pvalue_far_past_underflow(self):
        t = 1e4
        assert cvm_pvalue(t) == 0.0
        lp = cvm_log_pvalue(t)
        assert np.isfinite(lp)
        # asymptotic regime: log p ~ -pi^2 t / 2
        assert_allclose(lp, -math.pi**2 * t / 2.0, rtol=1e-2)

    def test_log_matches_exp_in_normal_range(self):
        t = np.array([0.05, 0.2, 0.5, 1.0, 3.0])
        assert_allclose(np.exp(cvm_log_pvalue(t)), cvm_pvalue(t), rtol=1e-12)

    def test_scalar_and_vector_forms(self):
        assert isinstance(cvm_pvalue(0.3), float)
        out = cvm_pvalue(np.array([0.3, 0.5]))
        assert out.shape == (2,)
        assert_allclose(out[0], cvm_pvalue(0.3))

    def test_null_pvalues_look_uniform(self):
        # scores drawn from the reference tail itself: p-values ~ U(0, 1)
        tail = GpTail(sigma=1.0, gamma=0.25, threshold_ref=2.0)
        rng = np.random.default_rng(12)
        m, reps = 100, 2000
        pvals = np.empty(reps)
        for r in range(reps):
            v = tail.quantile(rng.uniform(size=m))
            pvals[r] = cvm_pvalue(cvm_statistic(v, tail))
        u = np.sort(pvals)
        k = np.arange(1, reps + 1)
        ks = max(np.max(k / reps - u), np.max(u - (k - 1) / reps))
        assert ks < ks_one_sample_critical(0.01, reps)


class TestPitCalibration:
    def test_exact_uniform_grid(self):
        n = 100
        u = (np.arange(1, n + 1) - 0.5) / n
        from scipy.special import ndtri

        batch = _normal_batch(np.zeros(n), 1.0, ndtri(u))
        res = pit_calibration(batch)
        assert_allclose(np.sort(res.values), u, atol=1e-12)
        assert_allclose(res.max_dev, 0.5 / n, atol=1e-12)
        assert not res.approximate
        assert res.auto_calibrated()

    @pytest.mark.parametrize("n", [1, 2, 37, 1000])
    def test_max_dev_matches_ks_formula(self, n):
        rng = np.random.default_rng(n)
        res = pit_calibration(_normal_batch(np.zeros(n), 1.0, rng.normal(size=n)))
        u = np.sort(res.values)
        k = np.arange(1, n + 1)
        want = max(float(np.max(k / n - u)), float(np.max(u - (k - 1) / n)))
        assert res.max_dev == want

    def test_band_matches_critical(self):
        n = 400
        res = pit_calibration(
            _normal_batch(np.zeros(n), 1.0, np.linspace(-2, 2, n))
        )
        assert_allclose(res.band(0.05), ks_one_sample_critical(0.05, n))

    def test_biased_forecast_fails(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=2000)
        batch = _normal_batch(np.full(2000, 1.5), 1.0, y)
        res = pit_calibration(batch)
        assert not res.auto_calibrated()

    def test_ensemble_is_approximate(self):
        rng = np.random.default_rng(14)
        members = rng.normal(size=(30, 9))
        batch = RecordBatch(
            t=np.arange(30),
            y=rng.normal(size=30),
            family="ensemble",
            params=members,
        )
        res = pit_calibration(batch)
        assert res.approximate
        assert np.all((res.values >= 0.0) & (res.values <= 1.0))


class TestExceedanceCalibration:
    def test_ideal_nn_is_exact(self):
        from crpstail import simulate

        batch = simulate("nn", "ideal", 300, seed=21)
        out = exceedance_calibration(batch, [0.0, 1.0, 2.0])
        assert_allclose(out, 0.0, atol=1e-8)

    def test_ideal_ge_is_exact(self):
        from crpstail import simulate

        batch = simulate("ge", "ideal", 300, seed=22)
        out = exceedance_calibration(batch, [0.5, 1.0, 3.0])
        assert_allclose(out, 0.0, atol=1e-8)

    def test_clim_ge_deviates(self):
        from crpstail import simulate

        batch = simulate("ge", "climatological", 2000, seed=23)
        out = exceedance_calibration(batch, [2.0])
        assert abs(out[0]) > 0.01

    def test_requires_simulated_batch(self):
        batch = _normal_batch(np.zeros(5), 1.0, np.zeros(5))
        with pytest.raises(UnsupportedFamilyError):
            exceedance_calibration(batch, [0.0])


class TestExtremesIndex:
    def test_clim_self_index_is_zero(self, ge_small):
        clim = ge_small["climatological"]
        u = float(threshold_grid(clim.y, [0.9])[0])
        fit = _fit_obs_tail(clim.y, 0.875)
        res = extremes_index(clim, clim, u, fit)
        assert res.index == 0.0
        assert not res.pathological
        assert res.t_forecast == res.t_clim

    def test_ideal_beats_clim(self, ge_small):
        ideal, clim = ge_small["ideal"], ge_small["climatological"]
        u = float(threshold_grid(ideal.y, [0.9])[0])
        fit = _fit_obs_tail(ideal.y, 0.875)
        res = extremes_index(ideal, clim, u, fit)
        assert res.index > 0.99
        assert not res.pathological
        assert res.auto_calibrated
        assert res.log_p_forecast < res.log_p_clim
        assert res.n_tail == int((ideal.y > u).sum())

    def test_swapped_roles_flag_pathological(self, ge_small):
        ideal, clim = ge_small["ideal"], ge_small["climatological"]
        u = float(threshold_grid(ideal.y, [0.9])[0])
        fit = _fit_obs_tail(ideal.y, 0.875)
        res = extremes_index(clim, ideal, u, fit)
        assert res.pathological
        assert res.index < 0.0

    def test_mismatched_observations_rejected(self, ge_small):
        from crpstail import simulate

        other = simulate("ge", "climatological", len(ge_small["ideal"]), seed=99)
        u = float(threshold_grid(ge_small["ideal"].y, [0.9])[0])
        fit = _fit_obs_tail(ge_small["ideal"].y, 0.875)
        with pytest.raises(ParameterError):
            extremes_index(ge_small["ideal"], other, u, fit)

    def test_too_little_tail_data(self, ge_small):
        ideal, clim = ge_small["ideal"], ge_small["climatological"]
        u = float(ideal.y.max())
        fit = _fit_obs_tail(ideal.y, 0.875)
        with pytest.raises(InsufficientDataError):
            extremes_index(ideal, clim, u, fit)


def _fit_obs_tail(y, order):
    from crpstail import fit_gp

    u0 = float(np.quantile(y, order))
    return fit_gp(y[y > u0] - u0, threshold=u0)


class TestIndexCurve:
    def test_rows_follow_orders(self, ge_small):
        ideal, clim = ge_small["ideal"], ge_small["climatological"]
        orders = [0.875, 0.9, 0.95]
        curve = index_curve(ideal, clim, orders)
        assert [r.order for r in curve.rows] == orders
        want_u = np.quantile(ideal.y, orders)
        assert_allclose([r.threshold for r in curve.rows], want_u)
        assert curve.fit.tail.threshold_ref == pytest.approx(want_u[0])
        for row in curve.rows:
            assert row.index > 0.99
            assert row.note == ""

    def test_gap_row_instead_of_abort(self, ge_small):
        ideal, clim = ge_small["ideal"], ge_small["climatological"]
        curve = index_curve(ideal, clim, [0.875, 0.9999])
        good, gap = curve.rows
        assert good.note == ""
        assert math.isnan(gap.index)
        assert gap.note != ""
        assert not gap.pathological

    def test_fit_order_overrides_base(self, ge_small):
        ideal, clim = ge_small["ideal"], ge_small["climatological"]
        curve = index_curve(ideal, clim, [0.9, 0.95], fit_order=0.8)
        assert curve.fit.tail.threshold_ref == pytest.approx(
            float(np.quantile(ideal.y, 0.8))
        )

    def test_extremist_not_auto_calibrated(self, ge_small):
        ext, clim = ge_small["extremist"], ge_small["climatological"]
        curve = index_curve(ext, clim, [0.9])
        assert not curve.rows[0].auto_calibrated

    def test_one_pit_per_curve(self, ge_small, monkeypatch):
        import crpstail.verification as verification

        calls = []

        def counted(batch):
            calls.append(batch)
            return pit_calibration(batch)

        monkeypatch.setattr(verification, "pit_calibration", counted)
        unf, clim = ge_small["unfocused"], ge_small["climatological"]
        orders = [0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
        curve = index_curve(unf, clim, orders)
        assert len(calls) == 1 and calls[0] is unf
        # each row equals the stand-alone index at its threshold
        for row in curve.rows:
            alone = extremes_index(unf, clim, row.threshold, curve.fit)
            assert replace(alone, order=row.order) == row

    def test_each_batch_scored_once_per_curve(self, ge_small, monkeypatch):
        calls = []
        subset = RecordBatch.subset

        def counted(batch, index):
            calls.append(int(np.count_nonzero(index)))
            return subset(batch, index)

        monkeypatch.setattr(RecordBatch, "subset", counted)
        ext, clim = ge_small["extremist"], ge_small["climatological"]
        orders = [0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
        curve = index_curve(ext, clim, orders)
        # the exceedances of the lowest threshold, once per batch
        assert calls == [curve.rows[0].n_tail] * 2
        monkeypatch.setattr(RecordBatch, "subset", subset)
        for row in curve.rows:
            alone = extremes_index(ext, clim, row.threshold, curve.fit)
            assert replace(alone, order=row.order) == row

    def test_curve_opens_and_closes_with_gaps(self, ge_small, monkeypatch):
        calls = []
        subset = RecordBatch.subset

        def counted(batch, index):
            calls.append(batch)
            return subset(batch, index)

        monkeypatch.setattr(RecordBatch, "subset", counted)
        ext, clim = ge_small["extremist"], ge_small["climatological"]
        orders = [0.75, 0.9, 0.95, 0.9999]
        curve = index_curve(ext, clim, orders, fit_order=0.9)
        assert len(calls) == 2 and calls[0] is ext and calls[1] is clim
        monkeypatch.setattr(RecordBatch, "subset", subset)
        below, *good, few = curve.rows
        assert [r.order for r in curve.rows] == orders
        # the lowest threshold lies below the fit threshold
        assert "below the fit threshold" in below.note
        assert math.isnan(below.index) and math.isnan(below.pit_max_dev)
        assert below.n_tail == int((ext.y > below.threshold).sum())
        assert not below.pathological and not below.auto_calibrated
        # the highest leaves too few exceedances
        assert few.note == (
            f"only {few.n_tail} observations exceed the threshold {few.threshold}"
        )
        assert few.n_tail == int((ext.y > few.threshold).sum()) < 10
        assert math.isnan(few.index)
        for row in good:
            alone = extremes_index(ext, clim, row.threshold, curve.fit)
            assert replace(alone, order=row.order) == row

    def test_validation(self, ge_small):
        ideal, clim = ge_small["ideal"], ge_small["climatological"]
        with pytest.raises(ParameterError):
            index_curve(ideal, clim, [])
        with pytest.raises(DomainError):
            index_curve(ideal, clim, [0.9, 0.8])


class TestPeakMemory:
    """Each step holds its full-length columns once; a kernel's temporaries
    are bounded by one block of rows."""

    @staticmethod
    def _peak(call) -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cvm_statistic_sorts_into_one_array(self):
        m = 1 << 18
        tail = GpTail(sigma=1.0, gamma=0.25, threshold_ref=0.5)
        v = tail.quantile(np.random.default_rng(1).random(m))
        peak = self._peak(lambda: cvm_statistic(v, tail))
        # whole-array temporaries peaked at 7.1 columns
        assert peak <= 2.5 * v.nbytes, peak / v.nbytes

    def test_diebold_mariano_holds_one_differential(self):
        a, b = np.random.default_rng(2).exponential(size=(2, 1 << 18))
        diebold_mariano(a[:10], b[:10])  # scipy.special loads on first use
        peak = self._peak(lambda: diebold_mariano(a, b))
        # the centred differential and its square were 3.0 columns
        assert peak <= 2.5 * a.nbytes, peak / a.nbytes

    def test_index_curve_holds_each_column_once(self, ge_small):
        n = 1 << 18
        batches = simulate_forecasters("ge", ("ideal", "climatological"), n, seed=5)
        orders = [0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
        index_curve(ge_small["ideal"], ge_small["climatological"], orders)  # warm
        peak = self._peak(
            lambda: index_curve(batches["ideal"], batches["climatological"], orders)
        )
        # 5.1 columns of n floats with whole-array kernels and a held PIT; 3.4 now
        assert peak <= 4.0 * 8 * n, peak / (8 * n)


class TestTailShapeOfScores:
    def test_recovers_shape_of_synthetic_scores(self):
        # scores = shift + GP sample; the re-anchoring must not disturb gamma
        rng = np.random.default_rng(15)
        vals = 5.0 + GeneralizedPareto(1.0, 0.2).sample(5000, rng)
        series = ScoreSeries(
            values=vals, pairing="paired", obs=np.full(5000, 10.0)
        )
        fit = tail_shape_of_scores(series, u=1.0)
        assert abs(fit.gamma - 0.2) < 0.05
        assert fit.diagnostics["n_selected"] == 5000
        assert_allclose(fit.diagnostics["shift"], vals.min(), rtol=1e-12)
        assert fit.n_excesses <= 5000

    def test_clim_scores_inherit_observation_shape(self, ge_small):
        clim = ge_small["climatological"]
        series = score_series(clim)
        u = float(np.quantile(clim.y, 0.95))
        fit = tail_shape_of_scores(series, u)
        assert abs(fit.gamma - 0.25) < 0.1

    def test_too_few_selected(self):
        series = ScoreSeries(
            values=np.arange(20.0), pairing="paired", obs=np.arange(20.0)
        )
        with pytest.raises(InsufficientDataError):
            tail_shape_of_scores(series, u=15.0)
