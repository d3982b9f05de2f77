"""Continuous ranked probability score and weighted variants.

The CRPS of a forecast distribution F at an observation y is

    CRPS(F, y) = int (F(x) - 1{x >= y})^2 dx,

and the weighted form inserts a non-negative weight w(x) under the integral.
Closed forms are provided for the normal, two-component normal mixture,
exponential, Gamma and generalized Pareto families (their kernels live in
the family table of :mod:`crpstail.distributions`); everything else goes
through adaptive quadrature. Batch entry points score a whole column of
same-family forecasts against paired observations in vectorized numpy,
which is what the simulation testbeds and the verification tooling run on.

The quantile-indicator weight w(x) = 1{x >= q} gets dedicated treatment: for
y >= q the weighted score equals CRPS(F, y) minus the constant
``crps_shift_constant(F, q)``, so above the threshold it is the plain CRPS
shifted by a forecast-dependent constant. That is the identity the tail
diagnostics in this package are built on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _FAMILIES,
    Distribution,
    Spliced,
    UniformMixture,
    _crps_ensemble_kernel,
    family_entry,
)
from .errors import (
    DivergenceError,
    DomainError,
    InfiniteMeanError,
    ParameterError,
    UnsupportedFamilyError,
)

__all__ = [
    "WeightFunction",
    "UnitWeight",
    "QuantileIndicatorWeight",
    "TabulatedWeight",
    "UNIT",
    "crps_closed",
    "crps_closed_batch",
    "crps_quadrature",
    "wcrps_quantile",
    "wcrps_quantile_batch",
    "crps_shift_constant",
    "survival_sq_tail",
    "crps_ensemble",
]

# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------


class WeightFunction(ABC):
    """Non-negative weight w(x) with antiderivative W(x) = int_-inf^x w."""

    @abstractmethod
    def w(self, x): ...

    @abstractmethod
    def antiderivative(self, x): ...

    def knots(self) -> np.ndarray:
        """Points where w has a kink or jump (quadrature split points)."""
        return np.empty(0)


class UnitWeight(WeightFunction):
    def w(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def antiderivative(self, x):
        return np.asarray(x, dtype=float)

    def __repr__(self):
        return "UnitWeight()"


UNIT = UnitWeight()


@dataclass(frozen=True)
class QuantileIndicatorWeight(WeightFunction):
    """w(x) = 1{x >= q}: all weight on the region above the threshold q."""

    q: float

    def __post_init__(self):
        if not np.isfinite(self.q):
            raise ParameterError("quantile-indicator threshold must be finite")

    def w(self, x):
        return (np.asarray(x, dtype=float) >= self.q).astype(float)

    def antiderivative(self, x):
        return np.maximum(np.asarray(x, dtype=float) - self.q, 0.0)

    def knots(self):
        return np.array([self.q])


class TabulatedWeight(WeightFunction):
    """Piecewise-linear weight given on a grid; zero outside the grid."""

    def __init__(self, xs, ws):
        xs = np.asarray(xs, dtype=float)
        ws = np.asarray(ws, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != ws.shape:
            raise ParameterError("tabulated weight needs matching 1-d grids, >= 2 points")
        if np.any(np.diff(xs) <= 0):
            raise ParameterError("tabulated weight grid must be strictly increasing")
        if np.any(ws < 0) or not np.all(np.isfinite(ws)):
            raise ParameterError("weight values must be finite and non-negative")
        self.xs = xs
        self.ws = ws
        # antiderivative at the grid points, trapezoid-exact for the linear pieces
        self._W = np.concatenate(
            [[0.0], np.cumsum(0.5 * (ws[1:] + ws[:-1]) * np.diff(xs))]
        )

    def w(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.xs[0]) & (x <= self.xs[-1])
        return np.where(inside, np.interp(x, self.xs, self.ws), 0.0)

    def antiderivative(self, x):
        # piecewise quadratic: the integral of each linear segment, constant
        # outside the grid (clamping supplies both flat extensions)
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, self.xs[0], self.xs[-1])
        i = np.clip(np.searchsorted(self.xs, xc, side="right") - 1, 0, self.xs.size - 2)
        x0, w0 = self.xs[i], self.ws[i]
        slope = (self.ws[i + 1] - w0) / (self.xs[i + 1] - x0)
        dt = xc - x0
        return self._W[i] + w0 * dt + 0.5 * slope * dt * dt

    def knots(self):
        return self.xs.copy()

    def __repr__(self):
        return f"TabulatedWeight({self.xs[0]}..{self.xs[-1]}, {self.xs.size} pts)"


# ---------------------------------------------------------------------------
# Closed forms: the family-table kernels, on a batch or on one row
# ---------------------------------------------------------------------------


def _one_row(dist: Distribution):
    """(family-table entry, one-row parameter batch) of ``dist``, or (None, None)."""
    fam = _FAMILIES.get(dist.family)
    if fam is None:
        return None, None
    return fam, np.array([dist.params], dtype=float)


def crps_closed(dist: Distribution, y):
    """Closed-form CRPS; vectorized over ``y``.

    Supported families: normal, two-component normal mixture, exponential,
    Gamma, generalized Pareto with shape < 1. Raises
    :class:`~crpstail.errors.UnsupportedFamilyError` otherwise and
    :class:`~crpstail.errors.InfiniteMeanError` for a Pareto shape >= 1.
    """
    fam, params = _one_row(dist)
    if fam is None:
        raise UnsupportedFamilyError(
            f"no closed-form CRPS for family {dist.family!r}"
        )
    y_arr = np.asarray(y, dtype=float)
    out = fam.crps(params, y_arr)
    return float(out[0]) if y_arr.ndim == 0 else out


def crps_closed_batch(family: str, params: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form CRPS for a column of same-family forecasts.

    ``params`` has one row per record (see the record-batch layout); ``y``
    is the paired observation vector.
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    return family_entry(family).crps(params, np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _pdf_knots(dist: Distribution) -> list[float]:
    if isinstance(dist, UniformMixture):
        pts = []
        for _, a, b in dist.components:
            pts.extend([a, b])
        return pts
    if isinstance(dist, Spliced):
        return _pdf_knots(dist.base) + [dist.splice_point]
    return []


def _quad(f, a, b, points=None, tol=1e-12):
    from scipy import integrate

    if a >= b:
        return 0.0
    kw = {"epsabs": tol, "epsrel": tol, "limit": 400}
    if points:
        pts = sorted(p for p in points if a < p < b)
        if pts:
            kw["points"] = pts
    val, _ = integrate.quad(f, a, b, **kw)
    return val


def _quad_prob_space(dist, p_lo, p_hi, weight, kind, points_p=None):
    """int of c(p) * w(Q(p)) / pdf(Q(p)) dp with c = p^2 ('cdf') or (1-p)^2."""

    def integrand(p):
        x = dist.quantile(min(max(p, 1e-300), 1.0 - 1e-16))
        d = float(dist.pdf(x))
        if d <= 0.0:
            return 0.0
        c = p * p if kind == "cdf" else (1.0 - p) * (1.0 - p)
        return c * float(weight.w(x)) / d

    return _quad(integrand, p_lo, p_hi, points=points_p)


def crps_quadrature(dist: Distribution, y, weight: WeightFunction = UNIT) -> float:
    """Weighted CRPS by adaptive quadrature (absolute tolerance ~1e-10).

    Works for every family; bounded-support distributions integrate in x
    space, unbounded ones in probability space p = F(x), where the change of
    variables keeps heavy-tail integrands finite. A unit-weight request on a
    distribution without a finite mean raises
    :class:`~crpstail.errors.DivergenceError`.
    """
    y = float(y)
    if not np.isfinite(y):
        raise DomainError("observation must be finite")
    lo, hi = dist.support()
    if isinstance(weight, UnitWeight) and math.isinf(dist.mean()):
        raise DivergenceError(
            "unit-weight CRPS diverges: distribution has no finite mean"
        )

    extra = 0.0
    yc = y
    if y < lo:
        extra = float(weight.antiderivative(lo)) - float(weight.antiderivative(y))
        yc = lo
    elif y > hi:
        extra = float(weight.antiderivative(y)) - float(weight.antiderivative(hi))
        yc = hi

    knots = list(weight.knots()) + _pdf_knots(dist)
    if math.isfinite(lo) and math.isfinite(hi):
        left = _quad(
            lambda x: float(dist.cdf(x)) ** 2 * float(weight.w(x)), lo, yc, points=knots
        )
        right = _quad(
            lambda x: float(dist.survival(x)) ** 2 * float(weight.w(x)),
            yc,
            hi,
            points=knots,
        )
        return extra + left + right

    p_y = float(dist.cdf(yc))
    points_p = [float(dist.cdf(k)) for k in knots]
    left = _quad_prob_space(dist, 0.0, p_y, weight, "cdf", points_p)
    right = _quad_prob_space(dist, p_y, 1.0, weight, "survival", points_p)
    return extra + left + right


# ---------------------------------------------------------------------------
# Survival-squared tail integral and the quantile-weight decomposition
# ---------------------------------------------------------------------------


def survival_sq_tail(dist: Distribution, q: float) -> float:
    """int_q^inf survival(x)^2 dx.

    Closed form for generalized Pareto (shape < 2), exponential and normal;
    quadrature otherwise. Diverges (and raises) for Pareto shape >= 2.
    """
    q = float(q)
    fam, params = _one_row(dist)
    if fam is not None and fam.tail is not None and fam.tail_exact:
        return float(fam.tail(params, q)[0])
    lo, hi = dist.support()
    head = max(lo - q, 0.0)  # survival == 1 below the support
    qc = max(q, lo)
    if math.isfinite(hi):
        return head + _quad(
            lambda x: float(dist.survival(x)) ** 2, qc, hi, points=_pdf_knots(dist)
        )
    # probability space: int_0^{sbar(q)} p^2 / pdf(Q(1-p)) dp
    sbar = float(dist.survival(qc))

    def integrand(p):
        x = dist.quantile(min(max(1.0 - p, 1e-300), 1.0 - 1e-16))
        d = float(dist.pdf(x))
        return 0.0 if d <= 0.0 else p * p / d

    return head + _quad(integrand, 0.0, sbar)


def wcrps_quantile(dist: Distribution, y, q: float):
    """CRPS weighted by the indicator w(x) = 1{x >= q}; vectorized over y.

    Equals ``survival_sq_tail(dist, q)`` when y < q, and adds
    ``CRPS(F, y) - CRPS(F, q)`` when y >= q, so it is continuous at y = q.
    Finite for any Pareto shape < 2.
    """
    tail = survival_sq_tail(dist, q)
    y_arr = np.asarray(y, dtype=float)
    try:
        diff = crps_closed(dist, y_arr) - crps_closed(dist, float(q))
    except (UnsupportedFamilyError, InfiniteMeanError):
        # int_q^y F^2 - (1 - F)^2, finite even for Pareto 1 <= shape < 2
        def quad_diff(yi):
            return _quad(
                lambda x: float(dist.cdf(x)) ** 2 - float(dist.survival(x)) ** 2,
                q,
                yi,
                points=_pdf_knots(dist),
            )

        diff = np.vectorize(quad_diff, otypes=[float])(y_arr)
    out = tail + np.where(y_arr >= q, diff, 0.0)
    return float(out) if y_arr.ndim == 0 else out


def crps_shift_constant(dist: Distribution, q: float) -> float:
    """int_{-inf}^q F(x)^2 dx: the constant separating CRPS from its
    quantile-weighted form above the threshold (non-negative, non-decreasing
    in q, zero at the lower end of the support)."""
    q = float(q)
    lo, hi = dist.support()
    if q <= lo:
        return 0.0
    qc = min(q, hi)
    tail_extra = max(q - hi, 0.0)  # cdf == 1 above the support
    try:
        val = float(crps_closed(dist, qc)) - survival_sq_tail(dist, qc)
        return val + tail_extra
    except (UnsupportedFamilyError, InfiniteMeanError):
        pass
    if math.isfinite(lo):
        return tail_extra + _quad(
            lambda x: float(dist.cdf(x)) ** 2, lo, qc, points=_pdf_knots(dist)
        )
    return tail_extra + _quad_prob_space(dist, 0.0, float(dist.cdf(qc)), UNIT, "cdf")


def wcrps_quantile_batch(family: str, params: np.ndarray, y: np.ndarray, q: float):
    """Quantile-indicator weighted CRPS for a same-family forecast column.

    tail(q) + 1{y >= q} (CRPS(y) - CRPS(q)) on the family's kernels: exact
    for exponential / Pareto / normal rows; the two-component normal mixture
    tail is a dense table per unique (w, std1, std2, mean-offset) signature,
    accurate to ~1e-7 (fine for the Monte Carlo summaries this path exists
    for; use :func:`wcrps_quantile` for scalar full-precision values).
    Ensemble rows use the chaining form CRPS(max(x, q), max(y, q)). Families
    without a batch tail kernel (Gamma) raise
    :class:`~crpstail.errors.UnsupportedFamilyError`; score them row by row
    with :func:`wcrps_quantile`.
    """
    fam = family_entry(family)
    params = np.atleast_2d(np.asarray(params, dtype=float))
    y = np.asarray(y, dtype=float)
    q = float(q)
    if fam.wcrps is not None:
        return fam.wcrps(params, y, q)
    if fam.tail is None:
        raise UnsupportedFamilyError(
            f"no quantile-weight batch path for family {family!r}"
        )
    diff = fam.crps(params, y) - fam.crps(params, q)
    return fam.tail(params, q) + np.where(y >= q, diff, 0.0)


# ---------------------------------------------------------------------------
# Ensemble CRPS
# ---------------------------------------------------------------------------


def crps_ensemble(members, y):
    """Empirical-distribution CRPS from ensemble members.

    CRPS = mean|x_i - y| - 0.5 * mean|x_i - x_j|, the CRPS of the ensemble's
    empirical cdf (not the fair, unbiased variant), computed in O(m log m).
    ``members`` may be a single vector (scalar y) or a (T, m) matrix paired
    with a length-T ``y``.
    """
    arr = np.asarray(members, dtype=float)
    if arr.ndim == 1:
        if arr.size == 0:
            raise ParameterError("ensemble must contain at least one member")
        return float(_crps_ensemble_kernel(arr[None, :], np.array([float(y)]))[0])
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ParameterError("ensemble batch must be a (T, m) matrix")
    return _crps_ensemble_kernel(arr, np.asarray(y, dtype=float))
