import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crpstail import (
    DegenerateDataError,
    DomainError,
    Exponential,
    GeneralizedPareto,
    GpFitResult,
    GpTail,
    InsufficientDataError,
    ParameterError,
    evt,
    fit_gp,
    shift_scale,
    threshold_grid,
)


class TestGpTail:
    def test_cdf_quantile_roundtrip(self):
        tail = GpTail(sigma=2.0, gamma=0.25, threshold_ref=5.0)
        p = np.array([0.01, 0.3, 0.5, 0.9, 0.999])
        assert_allclose(tail.cdf(tail.quantile(p)), p, atol=1e-12)

    def test_anchored_at_threshold(self):
        tail = GpTail(sigma=1.0, gamma=0.1, threshold_ref=3.0)
        assert_allclose(tail.cdf(3.0), 0.0)
        assert_allclose(tail.survival(3.0), 1.0)
        # below the anchor the conditional law has no mass
        assert_allclose(tail.survival(2.0), 1.0)

    def test_cdf_plus_survival(self):
        tail = GpTail(sigma=1.5, gamma=-0.2, threshold_ref=1.0)
        x = np.linspace(1.0, 8.0, 30)
        assert_allclose(tail.cdf(x) + tail.survival(x), 1.0, atol=1e-14)

    def test_excess_law_matches(self):
        tail = GpTail(sigma=2.0, gamma=0.3, threshold_ref=4.0)
        law = tail.excess_law
        assert_allclose(tail.survival(6.5), law.survival(2.5), rtol=1e-14)

    def test_rejects_bad_scale(self):
        with pytest.raises(ParameterError):
            GpTail(sigma=0.0, gamma=0.2)
        with pytest.raises(ParameterError):
            GpTail(sigma=-1.0, gamma=0.2)


class TestPwmFit:
    def test_exact_hand_value(self):
        # excesses 1..10: b0 = 5.5, b1 = 165/90, so gamma = -1, sigma = 11
        res = fit_gp(np.arange(1.0, 11.0))
        assert res.method == "pwm"
        assert res.n_excesses == 10
        assert_allclose(res.gamma, -1.0, atol=1e-12)
        assert_allclose(res.sigma, 11.0, rtol=1e-12)
        assert_allclose(res.diagnostics["b0"], 5.5, rtol=1e-15)
        assert_allclose(res.diagnostics["b1"], 165.0 / 90.0, rtol=1e-15)

    @pytest.mark.parametrize("n", [10, 1001])
    def test_b1_keeps_the_bits_of_the_weighted_sum(self, n):
        x = np.random.default_rng(n).pareto(3.0, n) + 0.1
        xs = np.sort(x)
        want = float(np.sum(xs * (n - np.arange(1, n + 1))) / (n * (n - 1)))
        assert fit_gp(x).diagnostics["b1"] == want

    def test_order_invariance(self):
        rng = np.random.default_rng(11)
        x = GeneralizedPareto(1.0, 0.2).sample(500, rng)
        a = fit_gp(x)
        b = fit_gp(x[::-1].copy())
        assert_allclose(a.sigma, b.sigma, rtol=1e-14)
        assert_allclose(a.gamma, b.gamma, rtol=1e-14)

    def test_consistency_heavy_tail(self):
        rng = np.random.default_rng(77)
        x = GeneralizedPareto(2.0, 0.3).sample(50_000, rng)
        res = fit_gp(x)
        assert abs(res.gamma - 0.3) < 0.03
        assert abs(res.sigma - 2.0) < 0.1

    def test_exponential_sample_has_zero_shape(self):
        rng = np.random.default_rng(5)
        x = Exponential(1.0).sample(50_000, rng)
        res = fit_gp(x)
        assert abs(res.gamma) < 0.02
        assert abs(res.sigma - 1.0) < 0.05

    def test_threshold_anchors_result(self):
        x = np.arange(1.0, 21.0)
        res = fit_gp(x, threshold=7.5)
        assert res.tail.threshold_ref == 7.5
        # anchoring is bookkeeping only; the excess law is unchanged
        base = fit_gp(x)
        assert_allclose(res.sigma, base.sigma, rtol=1e-15)
        assert_allclose(res.gamma, base.gamma, rtol=1e-15)


class TestMleFit:
    def test_agrees_with_truth(self):
        rng = np.random.default_rng(77)
        x = GeneralizedPareto(2.0, 0.3).sample(50_000, rng)
        res = fit_gp(x, method="mle")
        assert res.method == "mle"
        assert res.diagnostics["converged"] is True
        assert "negloglik" in res.diagnostics
        assert abs(res.gamma - 0.3) < 0.03
        assert abs(res.sigma - 2.0) < 0.1

    def test_close_to_pwm_on_clean_sample(self):
        rng = np.random.default_rng(3)
        x = GeneralizedPareto(1.0, 0.1).sample(20_000, rng)
        pwm = fit_gp(x, method="pwm")
        mle = fit_gp(x, method="mle")
        assert abs(mle.gamma - pwm.gamma) < 0.02
        assert abs(mle.sigma - pwm.sigma) < 0.05

    def test_fallback_flag_when_optimizer_fails(self, monkeypatch):
        def failed(*args, **kwargs):
            return np.array([np.nan, np.nan]), np.inf, False

        monkeypatch.setattr(evt, "_nelder_mead", failed)
        x = np.arange(1.0, 31.0)
        res = fit_gp(x, method="mle")
        assert res.method == "mle"
        assert res.diagnostics["converged"] is False
        assert res.diagnostics["fallback"] == "pwm"
        pwm = fit_gp(x, method="pwm")
        assert_allclose(res.sigma, pwm.sigma, rtol=1e-15)
        assert_allclose(res.gamma, pwm.gamma, rtol=1e-15)


def _simplex_and_scipy(x, maxiter):
    """(x, f(x), converged) of the package's Nelder-Mead and of scipy's, the
    oracle, on the GP likelihood of x from the start that fit_gp takes."""
    from scipy.optimize import minimize

    sigma, gamma, _ = evt._pwm_estimate(x)
    start = evt._mle_start(x, sigma, gamma)
    got = evt._nelder_mead(lambda p: evt._gp_negloglik(p, x), start, 1e-10, 1e-10, maxiter)
    ref = minimize(evt._gp_negloglik, start, args=(x,), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": maxiter})
    return got, (ref.x, ref.fun, ref.success)


class TestNelderMead:
    def test_matches_scipy_bit_for_bit(self):
        converged = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 5001))
            law = GeneralizedPareto(10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-0.45, 1.5))
            x = law.sample(n, rng)
            (x_got, f_got, ok_got), (x_ref, f_ref, ok_ref) = _simplex_and_scipy(x, 2000)
            assert x_got.tobytes() == x_ref.tobytes(), (seed, x_got, x_ref)
            assert np.float64(f_got).tobytes() == np.float64(f_ref).tobytes(), seed
            assert ok_got == ok_ref, seed
            converged += ok_got
        assert converged >= 190

    def test_start_inside_support(self):
        # seed 152 of the comparison above: the PWM shape, -0.403, puts the
        # endpoint at 0.2835, below the largest excess 0.2900; started there,
        # every vertex scored inf and the fit fell back to PWM after 2,000
        # shrinks, warning on each inf - inf of the stop test
        rng = np.random.default_rng(152)
        n = int(rng.integers(10, 5001))
        law = GeneralizedPareto(10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-0.45, 1.5))
        x = law.sample(n, rng)
        sigma, gamma, _ = evt._pwm_estimate(x)
        assert gamma < 0.0 and -sigma / gamma < x.max()
        log_sigma, start_gamma = evt._mle_start(x, sigma, gamma)
        assert -0.45 <= start_gamma < 0.0
        assert -math.exp(log_sigma) / start_gamma > x.max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_gp(x, method="mle")
        assert res.diagnostics["converged"] is True
        assert -res.sigma / res.gamma > x.max()
        assert abs(res.gamma - law.shape) < 0.05

    def test_start_inside_support_keeps_its_bits(self):
        x = GeneralizedPareto(1.0, -0.3).sample(1000, np.random.default_rng(5))
        sigma, gamma, _ = evt._pwm_estimate(x)
        assert -0.45 < gamma < 0.0 and -sigma / gamma > x.max()
        start = np.array([math.log(sigma), np.clip(gamma, -0.45, 5.0)])
        assert evt._mle_start(x, sigma, gamma).tobytes() == start.tobytes()

    def test_both_fail_when_iterations_run_out(self):
        x = GeneralizedPareto(2.0, 0.3).sample(1000, np.random.default_rng(5))
        (x_got, f_got, ok_got), (x_ref, f_ref, ok_ref) = _simplex_and_scipy(x, 10)
        assert ok_got is False and not ok_ref
        assert x_got.tobytes() == x_ref.tobytes()
        assert f_got == f_ref


class TestFitValidation:
    def test_too_few_excesses(self):
        with pytest.raises(InsufficientDataError):
            fit_gp(np.arange(1.0, 10.0))

    def test_nonpositive_excesses(self):
        x = np.arange(0.0, 10.0)
        with pytest.raises(DomainError):
            fit_gp(x)
        x = np.arange(1.0, 11.0)
        x[3] = -0.5
        with pytest.raises(DomainError):
            fit_gp(x)

    def test_nonfinite_excesses(self):
        x = np.arange(1.0, 11.0)
        x[0] = np.inf
        with pytest.raises(DomainError):
            fit_gp(x)

    def test_constant_excesses(self):
        with pytest.raises(DegenerateDataError):
            fit_gp(np.full(12, 3.0))

    def test_wrong_shape(self):
        with pytest.raises(ParameterError):
            fit_gp(np.ones((4, 5)))

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            fit_gp(np.arange(1.0, 11.0), method="moments")


class TestShiftScale:
    def test_rescaled_scale(self):
        tail = GpTail(sigma=1.0, gamma=0.25, threshold_ref=2.0)
        shifted = shift_scale(tail, 6.0)
        assert_allclose(shifted.sigma, 1.0 + 0.25 * 4.0, rtol=1e-12)
        assert shifted.gamma == tail.gamma
        assert shifted.threshold_ref == 6.0

    def test_accepts_fit_result(self):
        res = fit_gp(np.arange(1.0, 21.0), threshold=1.0)
        shifted = shift_scale(res, 3.0)
        assert_allclose(
            shifted.sigma, res.sigma + res.gamma * 2.0, rtol=1e-12
        )

    def test_conditional_survival_identity(self):
        # the shifted tail is the original tail conditioned on exceeding w
        tail = GpTail(sigma=2.0, gamma=0.3, threshold_ref=1.0)
        w = 4.0
        shifted = shift_scale(tail, w)
        x = np.array([4.0, 5.0, 8.0, 20.0])
        assert_allclose(
            shifted.survival(x),
            tail.survival(x) / tail.survival(w),
            rtol=1e-12,
        )

    def test_noop_at_same_threshold(self):
        tail = GpTail(sigma=1.5, gamma=-0.1, threshold_ref=2.0)
        shifted = shift_scale(tail, 2.0)
        assert_allclose(shifted.sigma, tail.sigma, rtol=1e-15)
        assert shifted.threshold_ref == 2.0

    def test_below_reference_rejected(self):
        tail = GpTail(sigma=1.0, gamma=0.2, threshold_ref=5.0)
        with pytest.raises(DomainError):
            shift_scale(tail, 4.0)

    def test_beyond_upper_endpoint_rejected(self):
        # gamma < 0 puts the endpoint at ref + sigma/|gamma| = 2
        tail = GpTail(sigma=1.0, gamma=-0.5, threshold_ref=0.0)
        with pytest.raises(DomainError):
            shift_scale(tail, 3.0)


class TestThresholdGrid:
    def test_matches_quantiles(self):
        rng = np.random.default_rng(8)
        obs = rng.standard_normal(5000)
        orders = [0.5, 0.9, 0.95, 0.99]
        assert_allclose(threshold_grid(obs, orders), np.quantile(obs, orders))

    def test_monotone_output(self):
        rng = np.random.default_rng(9)
        obs = rng.exponential(size=2000)
        grid = threshold_grid(obs, [0.1, 0.5, 0.9, 0.99])
        assert np.all(np.diff(grid) >= 0.0)

    def test_rejects_out_of_range_orders(self):
        obs = np.arange(100.0)
        with pytest.raises(DomainError):
            threshold_grid(obs, [0.0, 0.5])
        with pytest.raises(DomainError):
            threshold_grid(obs, [0.5, 1.0])

    def test_rejects_non_finite_observations_and_orders(self):
        # a NaN observation gave [nan], a NaN order nan
        for obs in ([1.0, np.nan, 3.0], [1.0, np.inf, 3.0], [-np.inf, 2.0]):
            with pytest.raises(DomainError, match="finite"):
                threshold_grid(obs, [0.5])
        with pytest.raises(DomainError, match="inside"):
            threshold_grid(np.arange(100.0), [0.5, np.nan])

    def test_rejects_decreasing_orders(self):
        obs = np.arange(100.0)
        with pytest.raises(DomainError):
            threshold_grid(obs, [0.9, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(InsufficientDataError):
            threshold_grid([], [0.5])


class TestFitResultSurface:
    def test_properties_mirror_tail(self):
        res = GpFitResult(
            tail=GpTail(1.5, 0.2, 3.0), method="pwm", n_excesses=42
        )
        assert res.sigma == 1.5
        assert res.gamma == 0.2
