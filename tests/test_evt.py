import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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

    def test_excesses_past_1e154_do_not_overflow(self):
        # 2 b0 b1 / (b0 - 2 b1) overflowed here, and the fit raised; scaled by
        # a power of two, the excesses give the same fit scaled, bit for bit
        x = np.array([1e155, 2e155, 3e155, 5e155, 1e156, 2e156, 3e156, 4e156, 6e156, 9e156])
        res = fit_gp(x)
        small = fit_gp(x * 2.0**-520)
        assert res.sigma == small.sigma * 2.0**520 and res.gamma == small.gamma
        assert res.diagnostics == {k: v * 2.0**520 for k, v in small.diagnostics.items()}
        assert_allclose([res.sigma, res.gamma], [1.5409e156, 0.4096], rtol=1e-4)

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
            return None

        monkeypatch.setattr(evt, "_root", failed)
        x = np.arange(1.0, 31.0)
        res = fit_gp(x, method="mle")
        assert res.method == "mle"
        assert res.diagnostics["converged"] is False
        assert res.diagnostics["fallback"] == "pwm"
        pwm = fit_gp(x, method="pwm")
        assert_allclose(res.sigma, pwm.sigma, rtol=1e-15)
        assert_allclose(res.gamma, pwm.gamma, rtol=1e-15)

    def test_start_inside_support(self, monkeypatch):
        # the PWM shape, -0.403, puts the endpoint at 0.2835, below the
        # largest excess 0.2900; a search started there would score every
        # point outside the support
        rng = np.random.default_rng(152)
        n = int(rng.integers(10, 5001))
        law = GeneralizedPareto(10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-0.45, 1.5))
        x = law.sample(n, rng)
        sigma, gamma, _ = evt._pwm_estimate(np.sort(x))
        assert gamma < 0.0 and -sigma / gamma < x.max()
        starts = []
        search = evt._mle
        monkeypatch.setattr(evt, "_mle", lambda y, theta: starts.append(theta) or search(y, theta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_gp(x, method="mle")
        # the start in units of the largest excess: its shape at the PWM scale
        log_sigma, start_gamma = math.log(sigma), sigma * starts[0] / x.max()
        assert -0.45 <= start_gamma < 0.0
        assert -math.exp(log_sigma) / start_gamma > x.max()
        assert res.diagnostics["converged"] is True
        assert -res.sigma / res.gamma > x.max()
        assert abs(res.gamma - law.shape) < 0.05


def _negloglik(x, sigma, gamma):
    """The GP negative log-likelihood of x at (sigma, gamma) and the sum of
    the magnitudes of its terms, which bounds its rounding."""
    z = x / sigma if gamma == 0.0 else np.log1p(gamma * x / sigma)
    weight = 1.0 if gamma == 0.0 else 1.0 + 1.0 / gamma
    log_sigma = x.size * math.log(sigma)
    return log_sigma + weight * float(np.sum(z)), abs(log_sigma) + abs(weight) * float(np.sum(np.abs(z)))


def _mp_root(f, guess, width):
    """The root of f in (guess - width, guess + width)."""
    return mp.findroot(f, (guess - width, guess + width), solver="anderson")


def _mp_profile_root(x, theta, width):
    """sigma and gamma at the root of Grimshaw's h(theta)/theta**2 within
    ``width`` of ``theta``, at 40 digits: gamma = mean log1p(theta x) and
    sigma = gamma/theta."""
    with mp.workdps(40):
        xs = [mp.mpf(float(v)) for v in x]

        def gamma_of(t):
            return mp.fsum(mp.log1p(t * v) for v in xs) / len(xs)

        def g(t):
            u = mp.fsum(1 / (1 + t * v) for v in xs) / len(xs)
            return ((1 + gamma_of(t)) * u - 1) / t**2

        t = _mp_root(g, mp.mpf(theta), mp.mpf(width))
        return float(gamma_of(t) / t), float(gamma_of(t))


def _mp_boundary(x, sigma):
    """The root of m = sum x/(2 sigma - x) next to ``sigma``, and the slope
    in gamma of the negative log-likelihood there, at 40 digits."""
    with mp.workdps(40):
        xs = [mp.mpf(float(v)) for v in x]
        s0 = mp.mpf(sigma)
        root = _mp_root(lambda s: mp.fsum(v / (2 * s - v) for v in xs) - len(xs),
                        s0, s0 * mp.mpf("1e-9"))

        def negloglik(gamma):
            return len(xs) * mp.log(root) + (1 + 1 / gamma) * mp.fsum(
                mp.log1p(gamma * v / root) for v in xs)

        return float(root), float(mp.diff(negloglik, mp.mpf(-0.5)))


class TestProfileMle:
    """The MLE is the root of Grimshaw's one-dimensional likelihood equation."""

    @pytest.mark.parametrize("m", [30, 1000])
    @pytest.mark.parametrize("shape", [-0.3, 0.0, 0.2, 0.5, 1.0])
    def test_matches_mpmath(self, shape, m):
        # each fit against the equations it solves: the profile's root, or
        # (the GP(1, -0.3) sample of 30) the maximum on gamma = -1/2
        x = GeneralizedPareto(1.0, shape).sample(m, np.random.default_rng(26))
        res = fit_gp(x, method="mle")
        assert res.diagnostics["converged"] is True
        if res.gamma == -0.5:
            sigma, slope = _mp_boundary(x, res.sigma)
            gamma = -0.5
            assert slope > 0.0
        else:
            theta = res.gamma / res.sigma
            sigma, gamma = _mp_profile_root(x, theta, 1e-9 * abs(theta))
        assert_allclose(res.sigma, sigma, rtol=1e-12, atol=0.0)
        assert_allclose(res.gamma, gamma, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [30, 1000])
    def test_boundary_matches_mpmath(self, m):
        # the likelihood of a GP(1, -0.8) sample rises towards gamma = -1/2
        # (its slope in gamma is positive there), so the fit is the maximum
        # on that line
        x = GeneralizedPareto(1.0, -0.8).sample(m, np.random.default_rng(26))
        res = fit_gp(x, method="mle")
        assert res.diagnostics["converged"] is True
        assert res.gamma == -0.5
        sigma, slope = _mp_boundary(x, res.sigma)
        assert slope > 0.0
        assert_allclose(res.sigma, sigma, rtol=1e-12, atol=0.0)
        assert res.diagnostics["negloglik"] == pytest.approx(_negloglik(x, res.sigma, -0.5)[0],
                                                             rel=1e-12)

    @pytest.mark.parametrize("case", ["shape 20", "outlier 1e160"])
    def test_extreme_tails(self, case):
        # the PWM theta lies orders of magnitude from the root: the walk in
        # log1p(theta) still brackets it, and g's bounded scale lets the
        # regula falsi take it
        rng = np.random.default_rng(5)
        if case == "shape 20":
            x = GeneralizedPareto(1.0, 20.0).sample(25, rng)
        else:
            x = rng.exponential(size=25)
            x[0] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_gp(x, method="mle")
        assert res.diagnostics["converged"] is True
        theta = res.gamma / res.sigma
        sigma, gamma = _mp_profile_root(x, theta, 1e-9 * abs(theta))
        assert_allclose(res.sigma, sigma, rtol=1e-12, atol=0.0)
        assert_allclose(res.gamma, gamma, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exponential_root_near_zero(self, seed):
        # the largest excess of an exponential sample is moved until
        # mean(x**2) = 2 mean(x)**2, so the root lies within rounding of
        # theta = 0, where Grimshaw's h is O(theta**2) and only its series
        # resolves the root
        x = np.random.default_rng(seed).exponential(size=200)
        x.sort()
        rest, m = x[:-1], x.size
        # m * (rest2 + t**2) = 2 * (rest1 + t)**2 for the largest excess t
        a, b, c = m - 2.0, -4.0 * rest.sum(), m * (rest**2).sum() - 2.0 * rest.sum() ** 2
        x[-1] = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        assert abs(np.mean(x**2) / (2.0 * np.mean(x) ** 2) - 1.0) < 1e-14
        res = fit_gp(x, method="mle")
        assert res.diagnostics["converged"] is True
        assert abs(res.gamma) < 1e-12
        assert_allclose(res.sigma, np.mean(x), rtol=1e-12)
        sigma, gamma = _mp_profile_root(x, 0.0, 1e-10)
        assert_allclose(res.sigma, sigma, rtol=1e-12, atol=0.0)
        assert_allclose(res.gamma, gamma, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 1e-300, -1e-300, 1e-9, -1e-9, 0.03, -0.03,
                                       0.0999, -0.0999, 0.1001, -0.1001, 0.5, -0.5, 4.0,
                                       1e200, math.expm1(709.0)])
    def test_profile_through_zero(self, theta):
        # g = (A - B)/(A + B), where A - B = h/theta**2, against 60-digit
        # mpmath on both sides of the series' edge, up to the walk's largest
        # theta, and next to theta = 0 against its limit, A = mean(y**2)/2
        # and B = mean(y)**2
        y = np.sort(np.random.default_rng(4).exponential(size=50))
        y /= y[-1]
        g, gamma, _ = evt._profile(theta, y)
        with mp.workdps(60):
            ys = [mp.mpf(float(v)) for v in y]
            t = mp.mpf(theta)

            def mean(terms):
                return mp.fsum(terms) / len(ys)

            if abs(theta) < 1e-20:
                want_gamma, a, b = 0, mean(v**2 for v in ys) / 2, mean(ys) ** 2
            else:
                want_gamma = mean(mp.log1p(t * v) for v in ys)
                a = mean((mp.log1p(t * v) - t * v / (1 + t * v)) / t**2 for v in ys)
                b = want_gamma / t * mean(v / (1 + t * v) for v in ys)
                h = (1 + want_gamma) * mean(1 / (1 + t * v) for v in ys) - 1
                assert abs(h / t**2 - (a - b)) <= mp.mpf("1e-25") * (a + b)
            want_g = (a - b) / (a + b)
        assert abs(g - float(want_g)) <= 1e-14
        assert abs(gamma - float(want_gamma)) <= 1e-15 * max(1.0, abs(float(want_gamma)))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_never_below_the_pwm_likelihood(self, data):
        # whenever the PWM estimate lies in the fit's domain (gamma >= -1/2,
        # upper endpoint above every excess), the fit's likelihood is at
        # least the PWM estimate's, and its reported negloglik is its own
        if data.draw(st.booleans()):
            x = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=10, max_size=60)))
        else:
            law = GeneralizedPareto(10.0 ** data.draw(st.floats(-3.0, 3.0)),
                                    data.draw(st.floats(-0.49, 2.0)))
            x = law.sample(data.draw(st.integers(10, 400)),
                           np.random.default_rng(data.draw(st.integers(0, 2**32))))
        assume(np.ptp(x) > 0.0)
        try:
            sigma, gamma, _ = evt._pwm_estimate(np.sort(x))
        except DegenerateDataError:
            assume(False)
        assume(gamma >= -0.5 and (gamma >= 0.0 or -sigma / gamma > x.max()))
        res = fit_gp(x, method="mle")
        assert res.diagnostics["converged"] is True
        fitted, rounding = _negloglik(x, res.sigma, res.gamma)
        pwm, pwm_rounding = _negloglik(x, sigma, gamma)
        assert fitted <= pwm + 1e-13 * pwm_rounding
        assert abs(res.diagnostics["negloglik"] - fitted) <= 1e-12 * rounding


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
