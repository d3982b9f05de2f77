"""Generalized Pareto tail fitting and threshold plumbing.

fit_gp estimates (sigma, gamma) from positive threshold excesses by
probability-weighted moments (default) or maximum likelihood; shift_scale
moves a fitted tail to a higher threshold using the GP threshold-stability
property sigma_w = sigma + gamma * (w - u0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .distributions import GeneralizedPareto
from .errors import (
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
    ParameterError,
)

__all__ = ["GpTail", "GpFitResult", "fit_gp", "shift_scale", "threshold_grid"]

_MIN_EXCESSES = 10


@dataclass(frozen=True)
class GpTail:
    """A GP tail law anchored at a threshold: P(X > x | X > ref) for x >= ref."""

    sigma: float
    gamma: float
    threshold_ref: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ParameterError(f"tail scale must be positive, got {self.sigma}")

    @property
    def excess_law(self) -> GeneralizedPareto:
        return GeneralizedPareto(scale=self.sigma, shape=self.gamma)

    def cdf(self, x):
        return self.excess_law.cdf(np.asarray(x, dtype=float) - self.threshold_ref)

    def survival(self, x):
        return self.excess_law.survival(np.asarray(x, dtype=float) - self.threshold_ref)

    def quantile(self, p):
        return self.threshold_ref + self.excess_law.quantile(p)


@dataclass(frozen=True)
class GpFitResult:
    tail: GpTail
    method: str
    n_excesses: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def sigma(self):
        return self.tail.sigma

    @property
    def gamma(self):
        return self.tail.gamma


def _pwm_estimate(xs: np.ndarray) -> tuple[float, float, dict]:
    n = xs.size
    # in units of 2**e, the largest excess in [1/2, 1): sigma's product
    # overflows from excesses of about 1e154 on, and powers of two keep the bits
    e = math.frexp(xs[-1])[1]
    xs = np.ldexp(xs, -e)
    b0 = xs.mean()
    # unbiased first probability-weighted moment E[X (1 - F(X))] of the
    # sorted excesses: each x_(i) times n - i
    b1 = float(np.sum(xs * np.arange(n - 1.0, -1.0, -1.0)) / (n * (n - 1)))
    denom = b0 - 2.0 * b1
    if denom <= 0.0:
        raise DegenerateDataError(
            "probability-weighted moments degenerate (b0 - 2*b1 <= 0); "
            "excesses carry no usable tail spread"
        )
    gamma = 2.0 - b0 / denom
    sigma = 2.0 * b0 * b1 / denom
    return np.ldexp(sigma, e), gamma, {"b0": math.ldexp(b0, e), "b1": math.ldexp(b1, e)}


# w(a) = (log1p(a) - a/(1 + a))/a**2 = 1/2 - 2a/3 + 3a**2/4 - ...: for |a| below
# _EDGE the first 17 terms reach double precision, where the closed form cancels
_EDGE = 0.1
_SERIES = [(-1) ** k * (k + 1) / (k + 2) for k in range(16, -1, -1)]


def _profile(theta, y):
    """(g, gamma, sigma) of the GP likelihood of the sorted excesses ``y``
    (max y = 1) profiled at theta = gamma/sigma: gamma = mean log1p(theta y),
    sigma = gamma/theta and g = (A - B)/(A + B), A = mean(y**2 w(theta y)),
    B = sigma mean(y/(1 + theta y)). A - B is Grimshaw's
    h = (1 + gamma) mean(1/(1 + theta y)) - 1 over theta**2, without h's
    double zero at 0; g, in (-1, 1), keeps its sign: the profile negative
    log-likelihood m (log sigma + 1 + gamma) falls in theta where g > 0."""
    a = theta * y
    log1p = np.log1p(a)
    yr = y / (1.0 + a)
    gamma = float(np.mean(log1p))
    sigma = gamma / theta if theta else float(np.mean(y))
    # w takes its series where |theta y| < _EDGE, on a prefix of y
    k = y.size if abs(theta) < _EDGE else int(np.searchsorted(y, _EDGE / abs(theta)))
    w = np.zeros(k)
    for c in _SERIES:
        w = w * a[:k] + c
    if k == y.size:
        a_term, b_term = float(np.mean(y * y * w)), sigma * float(np.mean(yr))
    else:
        # A and B times theta**2, so that neither underflows at a large theta
        big = float(np.sum(log1p[k:])) - theta * float(np.sum(yr[k:]))
        a_term = (float(np.sum(a[:k] * a[:k] * w)) + big) / y.size
        b_term = gamma * (theta * float(np.mean(yr)))
    return (a_term - b_term) / (a_term + b_term), gamma, sigma


def _root(f, a, b, fa):
    """A zero of f between a and b (f(b) and ``fa`` = f(a), maybe infinite,
    differ in sign) by the Illinois regula falsi, bisecting where the secant
    leaves the bracket; None if 100 steps leave it wider than 4 ulp of max(|b|, 1)."""
    fb = f(b)
    for _ in range(100):
        if fb == 0.0 or abs(b - a) <= 4.0 * np.finfo(float).eps * max(abs(b), 1.0):
            return b
        c = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)
        fc = f(c)
        if (fc > 0.0) != (fb > 0.0):
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    return None


def _mle(y, theta):
    """(sigma, gamma, negloglik) of the GP likelihood's maximum over
    gamma >= -1/2 for the sorted excesses ``y`` (max y = 1), or None: a walk
    downhill from ``theta`` > -1 in s = log1p(theta), 2**k / 16 from the start
    within [-36, 709] (where expm1(s) is a float above -1), to a sign change
    of g, then its root. A root at gamma <= -1/2, or a walk down past that
    line, gives the maximum on it, where sigma > 1/2 solves
    mean(y/(2 sigma - y)) = 1."""
    profile = cache(lambda s: _profile(math.expm1(s), y))
    s = math.log1p(theta)
    up = profile(s)[0] > 0.0
    sign = 1.0 if up else -1.0
    walk = [s] + [min(max(s + sign * 2.0 ** k / 16.0, -36.0), 709.0) for k in range(14)]
    for a, b in zip(walk, walk[1:]):
        if not up and profile(a)[1] <= -0.5:
            break
        if (profile(b)[0] > 0.0) != up:
            root = _root(lambda s: profile(s)[0], a, b, profile(a)[0])
            if root is None:
                return None
            _, gamma, sigma = profile(root)
            if gamma > -0.5:
                return sigma, gamma, y.size * (math.log(sigma) + 1.0 + gamma)
            break
    else:
        if up:
            return None
    # at hi, mean(y/(2 sigma - y)) <= mean(y)/(2 hi - 1) = 1
    hi = 0.5 * (1.0 + float(np.mean(y)))
    sigma = _root(lambda s: float(np.mean(y / (2.0 * s - y))) - 1.0, 0.5, hi, np.inf)
    if sigma is None:
        return None
    return sigma, -0.5, y.size * math.log(sigma) - float(np.sum(np.log1p(-0.5 * y / sigma)))


def fit_gp(excesses, method: str = "pwm", threshold: float = 0.0) -> GpFitResult:
    """Fit a GP tail to positive threshold excesses.

    method "pwm": probability-weighted moments, closed form, the default.
    method "mle": maximum likelihood over gamma >= -1/2: the root of one
    equation in theta = gamma/sigma (Grimshaw 1993, Technometrics 35, 185),
    searched from the PWM estimate (its endpoint raised, if need be, above
    every excess), or the maximum on gamma = -1/2 where that root lies past
    it; a failed search falls back to PWM (``diagnostics["fallback"] =
    "pwm"``). It loads no part of scipy.

    ``threshold`` only anchors the returned tail (threshold_ref); the
    excesses themselves must already be relative to it and strictly positive.
    """
    x = np.asarray(excesses, dtype=float)
    if x.ndim != 1:
        raise ParameterError("excesses must be a 1-d array")
    if x.size < _MIN_EXCESSES:
        raise InsufficientDataError(
            f"need at least {_MIN_EXCESSES} excesses, got {x.size}"
        )
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("excesses must be finite and strictly positive")
    if float(np.ptp(x)) == 0.0:
        raise DegenerateDataError("all excesses identical; no tail to fit")

    xs = np.sort(x)
    sigma, gamma, diag = _pwm_estimate(xs)
    if method == "mle":
        # in units of the largest excess, from the PWM theta, raised if need
        # be until the upper endpoint -1/theta lies 1 % above every excess
        top = float(xs[-1])
        fit = _mle(xs / top, max(gamma / sigma * top, -1.0 / 1.01))
        if fit is None:
            diag = {**diag, "converged": False, "fallback": "pwm"}
        else:
            sigma, gamma = fit[0] * top, fit[1]
            diag = {**diag, "negloglik": fit[2] + x.size * math.log(top), "converged": True}
    elif method != "pwm":
        raise ParameterError(f"unknown fit method {method!r} (expected pwm or mle)")
    return GpFitResult(GpTail(sigma, gamma, threshold), method, x.size, diag)


def shift_scale(fit: GpFitResult | GpTail, w: float) -> GpTail:
    """Move a fitted tail to the higher threshold ``w``.

    Threshold stability of the GP family gives the excess law above w the
    same shape and scale ``sigma + gamma * (w - u0)``. Raises
    :class:`~crpstail.errors.DomainError` when w sits below the fit
    threshold or beyond the upper endpoint (non-positive rescaled scale).
    """
    tail = fit.tail if isinstance(fit, GpFitResult) else fit
    w = float(w)
    if w < tail.threshold_ref:
        raise DomainError(
            f"target threshold {w} below the fit threshold {tail.threshold_ref}"
        )
    sigma_w = tail.sigma + tail.gamma * (w - tail.threshold_ref)
    if sigma_w <= 0.0:
        raise DomainError(
            f"threshold {w} beyond the fitted upper endpoint; rescaled scale "
            f"{sigma_w:.6g} <= 0"
        )
    return GpTail(sigma=sigma_w, gamma=tail.gamma, threshold_ref=w)


def threshold_grid(observations, orders) -> np.ndarray:
    """Empirical quantiles of ``observations`` at the given sorted orders.

    A non-finite observation or order raises :class:`DomainError`.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        raise InsufficientDataError("no observations")
    if not np.isfinite(obs).all():
        raise DomainError("observations must be finite")
    orders = np.asarray(orders, dtype=float)
    # NaN fails both comparisons
    if not np.all((orders > 0.0) & (orders < 1.0)):
        raise DomainError("quantile orders must lie strictly inside (0, 1)")
    if np.any(np.diff(orders) < 0.0):
        raise DomainError("quantile orders must be non-decreasing")
    return np.quantile(obs, orders)
