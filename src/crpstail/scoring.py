"""Continuous ranked probability score and weighted variants.

The CRPS of a forecast distribution F at an observation y is

    CRPS(F, y) = int (F(x) - 1{x >= y})^2 dx,

and the weighted form inserts a non-negative weight w(x) under the integral.
Closed forms are provided for the normal, two-component normal mixture,
exponential, Gamma and generalized Pareto families (their kernels live in
the family table of :mod:`crpstail.distributions`); everything else is one
adaptive quadrature of F^2 w or (1 - F)^2 w in x space, broken at the law's
own quantiles. Batch entry points score a whole column of same-family
forecasts against paired observations in vectorized numpy, which is what
the simulation testbeds and the verification tooling run on.

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
    NormalMixture2,
    Spliced,
    UniformMixture,
    _quad,
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


def crps_closed(dist: Distribution, y):
    """Closed-form CRPS; vectorized over ``y``.

    Supported families: normal, two-component normal mixture, exponential,
    Gamma, generalized Pareto with shape < 1. Raises
    :class:`~crpstail.errors.UnsupportedFamilyError` otherwise and
    :class:`~crpstail.errors.InfiniteMeanError` for a Pareto shape >= 1.
    """
    if dist.family not in _FAMILIES:
        raise UnsupportedFamilyError(
            f"no closed-form CRPS for family {dist.family!r}"
        )
    return dist._one_row(_FAMILIES[dist.family].crps, y)


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
        return [x for _, a, b in dist.components for x in (a, b)]
    if isinstance(dist, Spliced):
        return _pdf_knots(dist.base) + [dist.splice_point]
    if isinstance(dist, NormalMixture2):
        # a narrow component's step would hide between the nodes of a wide one
        return [m + k * s for _, m, s in dist._components() for k in (-8.0, 0.0, 8.0)]
    return []


# levels of the law's own quantiles: break points that give the bulk and each decade
# of tail mass subintervals of their own, and map an infinite end on its last decade
_LEVELS = np.concatenate([10.0 ** -np.arange(12, 0, -1), [0.5], 1.0 - 10.0 ** -np.arange(1, 13)])


def _sq_integral(dist, a, b, weight: WeightFunction = UNIT, survival=False) -> float:
    """int_a^b F(x)^2 w(x) dx, or (1 - F(x))^2 w(x) dx with ``survival``, in x
    space, each piece between break points to 1e-12 (absolute and relative)
    in at most 400 subintervals.

    Break points: the weight's knots, the law's kinks and steps, the finite
    ends of its support and its quantiles at ``_LEVELS``.
    """
    sq = dist.survival if survival else dist.cdf
    points = [*weight.knots(), *_pdf_knots(dist), *dist.support(), *dist.quantile(_LEVELS)]
    return _quad(lambda x: float(sq(x)) ** 2 * float(weight.w(x)), a, b, points, 1e-12, 400)


def crps_quadrature(dist: Distribution, y, weight: WeightFunction = UNIT) -> float:
    """Weighted CRPS by adaptive quadrature in x space (tolerance 1e-12,
    absolute and relative).

    Works for every family: int_lo^y F^2 w + int_y^hi (1 - F)^2 w over the
    support [lo, hi], plus the weight's mass between y and the support when y
    lies outside it. A unit-weight request on a distribution without a finite
    mean raises :class:`~crpstail.errors.DivergenceError`.
    """
    y = float(y)
    if not np.isfinite(y):
        raise DomainError("observation must be finite")
    lo, hi = dist.support()
    if isinstance(weight, UnitWeight) and math.isinf(dist.mean()):
        raise DivergenceError("unit-weight CRPS diverges: distribution has no finite mean")
    yc = min(max(y, lo), hi)
    extra = abs(float(weight.antiderivative(y)) - float(weight.antiderivative(yc)))
    return extra + _sq_integral(dist, lo, yc, weight) + _sq_integral(dist, yc, hi, weight, True)


# ---------------------------------------------------------------------------
# Survival-squared tail integral and the quantile-weight decomposition
# ---------------------------------------------------------------------------


def survival_sq_tail(dist: Distribution, q: float) -> float:
    """int_q^inf survival(x)^2 dx.

    The family table's closed form on a one-row batch for every record family,
    x-space quadrature for other laws. Diverges (and raises) for Pareto shape
    >= 2.
    """
    q = float(q)
    if dist.family in _FAMILIES:
        return dist._one_row(_FAMILIES[dist.family].tail, q)
    lo, hi = dist.support()
    # survival == 1 below the support
    return max(lo - q, 0.0) + _sq_integral(dist, max(q, lo), hi, survival=True)


def wcrps_quantile(dist: Distribution, y, q: float):
    """CRPS weighted by the indicator w(x) = 1{x >= q}; vectorized over y.

    Equals ``survival_sq_tail(dist, q)`` when y < q, and adds
    ``CRPS(F, y) - CRPS(F, q)`` when y >= q (capped at CRPS(F, y) against
    rounding), so it is continuous at y = q. Finite for any Pareto shape < 2.
    """
    tail = survival_sq_tail(dist, q)
    y_arr = np.asarray(y, dtype=float)
    try:
        crps_y = crps_closed(dist, y_arr)
        diff = crps_y - crps_closed(dist, float(q))
    except (UnsupportedFamilyError, InfiniteMeanError):
        # int_q^y F^2 - (1 - F)^2, finite even for Pareto 1 <= shape < 2
        def quad_diff(yi):
            return _sq_integral(dist, q, yi) - _sq_integral(dist, q, yi, survival=True)

        crps_y, diff = np.inf, np.vectorize(quad_diff, otypes=[float])(y_arr)
    out = np.where(y_arr >= q, np.minimum(tail + diff, crps_y), tail)
    return float(out) if y_arr.ndim == 0 else out


def crps_shift_constant(dist: Distribution, q: float) -> float:
    """int_{-inf}^q F(x)^2 dx: the constant separating CRPS from its
    quantile-weighted form above the threshold (non-negative, non-decreasing
    in q, zero at the lower end of the support)."""
    lo, hi = dist.support()
    # cdf == 1 above the support
    return max(float(q) - hi, 0.0) + _sq_integral(dist, lo, min(float(q), hi))


def wcrps_quantile_batch(family: str, params: np.ndarray, y: np.ndarray, q: float):
    """Quantile-indicator weighted CRPS for a same-family forecast column.

    tail(q) + 1{y >= q} (CRPS(y) - CRPS(q)), at most CRPS(y), on the family's
    closed-form kernels, the same that :func:`wcrps_quantile` runs on one row.
    Ensemble rows use the chaining form CRPS(max(x, q), max(y, q)).
    """
    fam = family_entry(family)
    params = np.atleast_2d(np.asarray(params, dtype=float))
    y = np.asarray(y, dtype=float)
    q = float(q)
    if fam.wcrps is not None:
        return fam.wcrps(params, y, q)
    # CRPS(y) - CRPS(q) enters only where y >= q: score just those rows, in
    # place on the fresh array the tail kernel returns. The score there is
    # CRPS(y) - int_-inf^q F^2 <= CRPS(y), which the rounding of the sum
    # breaks where that integral is below the last digit of CRPS(q).
    y = np.broadcast_to(y, (len(params),))
    above = y >= q
    out = fam.tail(params, q)
    crps_y = fam.crps(params[above], y[above])
    out[above] = np.minimum(out[above] + (crps_y - fam.crps(params[above], q)), crps_y)
    return out


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
        return float(_FAMILIES["ensemble"].crps(arr[None, :], np.array([float(y)]))[0])
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ParameterError("ensemble batch must be a (T, m) matrix")
    return _FAMILIES["ensemble"].crps(arr, np.asarray(y, dtype=float))
