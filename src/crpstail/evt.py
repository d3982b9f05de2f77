"""Generalized Pareto tail fitting and threshold plumbing.

fit_gp estimates (sigma, gamma) from positive threshold excesses by
probability-weighted moments (default) or maximum likelihood; shift_scale
moves a fitted tail to a higher threshold using the GP threshold-stability
property sigma_w = sigma + gamma * (w - u0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _pwm_estimate(x: np.ndarray) -> tuple[float, float, dict]:
    n = x.size
    xs = np.sort(x)
    b0 = xs.mean()
    # unbiased first probability-weighted moment E[X (1 - F(X))]
    b1 = float(np.sum(xs * (n - np.arange(1, n + 1))) / (n * (n - 1)))
    denom = b0 - 2.0 * b1
    if denom <= 0.0:
        raise DegenerateDataError(
            "probability-weighted moments degenerate (b0 - 2*b1 <= 0); "
            "excesses carry no usable tail spread"
        )
    gamma = 2.0 - b0 / denom
    sigma = 2.0 * b0 * b1 / denom
    return sigma, gamma, {"b0": float(b0), "b1": b1}


def _gp_negloglik(params, x):
    log_sigma, gamma = params
    sigma = math.exp(log_sigma)
    if gamma <= -0.5:
        return np.inf
    z = gamma * x / sigma
    if np.any(z <= -1.0):
        return np.inf
    if abs(gamma) < 1e-10:
        return x.size * log_sigma + float(np.sum(x)) / sigma
    return x.size * log_sigma + (1.0 + 1.0 / gamma) * float(np.sum(np.log1p(z)))


def _mle_start(x, sigma, gamma):
    """The likelihood search's start (log sigma, gamma) from the PWM estimate:
    gamma clipped to [-0.45, 5] and, where that leaves the upper endpoint
    -sigma/gamma at or below the largest excess (every simplex vertex would
    then score inf), raised until the endpoint lies 1 % above it."""
    gamma = float(np.clip(gamma, -0.45, 5.0))
    top = float(np.max(x))
    if gamma < 0.0 and -sigma / gamma <= top:
        gamma = -sigma / (1.01 * top)
    return np.array([math.log(sigma), gamma])


def _sorted(sim, fsim):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(f, x0, xatol, fatol, maxiter):
    """Minimize f from x0 by Nelder & Mead's simplex (1965, Comput. J. 7, 308)
    as scipy 1.17 runs it without bounds or adaptive steps, operation for
    operation, so both take the same iterates; returns (x, f(x), converged),
    converged meaning it stopped before maxiter iterations, counted from 1.
    """
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(v) for v in sim], dtype=float)
    # sorted twice, as scipy does: argsort need not keep tied vertices in place
    sim, fsim = _sorted(*_sorted(sim, fsim))
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # contract outside the worst vertex, or inside when xr is no better
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = f(xc)
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = _sorted(sim, fsim)
    return sim[0], np.min(fsim), iterations < maxiter


def fit_gp(excesses, method: str = "pwm", threshold: float = 0.0) -> GpFitResult:
    """Fit a GP tail to positive threshold excesses.

    method "pwm": probability-weighted moments, closed form, the default.
    method "mle": Nelder-Mead over (log sigma, gamma) restricted to
    gamma > -0.5, started at the PWM estimate (its shape raised, if need be,
    until the upper endpoint lies above every excess); falls back to PWM (with
    ``diagnostics["fallback"] = "pwm"``) if the optimizer fails. The simplex
    is the package's own, which follows scipy's Nelder-Mead iterate for
    iterate, so the fit loads no part of scipy.

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

    sigma_pwm, gamma_pwm, diag = _pwm_estimate(x)
    if method == "pwm":
        return GpFitResult(
            tail=GpTail(sigma_pwm, gamma_pwm, threshold),
            method="pwm",
            n_excesses=x.size,
            diagnostics=diag,
        )
    if method != "mle":
        raise ParameterError(f"unknown fit method {method!r} (expected pwm or mle)")

    start = _mle_start(x, sigma_pwm, gamma_pwm)
    xopt, fun, converged = _nelder_mead(
        lambda p: _gp_negloglik(p, x), start, xatol=1e-10, fatol=1e-10, maxiter=2000
    )
    if converged and np.all(np.isfinite(xopt)):
        sigma, gamma = math.exp(xopt[0]), float(xopt[1])
        diag = {**diag, "negloglik": float(fun), "converged": True}
        return GpFitResult(
            tail=GpTail(sigma, gamma, threshold),
            method="mle",
            n_excesses=x.size,
            diagnostics=diag,
        )
    diag = {**diag, "converged": False, "fallback": "pwm"}
    return GpFitResult(
        tail=GpTail(sigma_pwm, gamma_pwm, threshold),
        method="mle",
        n_excesses=x.size,
        diagnostics=diag,
    )


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
    """Empirical quantiles of ``observations`` at the given sorted orders."""
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        raise InsufficientDataError("no observations")
    orders = np.asarray(orders, dtype=float)
    if np.any((orders <= 0.0) | (orders >= 1.0)):
        raise DomainError("quantile orders must lie strictly inside (0, 1)")
    if np.any(np.diff(orders) < 0.0):
        raise DomainError("quantile orders must be non-decreasing")
    return np.quantile(obs, orders)
