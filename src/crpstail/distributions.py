"""Forecast distribution families.

Every family exposes the same small surface: ``cdf``, ``pdf``, ``survival``,
``quantile``, ``sample``, ``mean``, ``mean_excess`` and ``support``. All
point-wise methods accept scalars or numpy arrays and return the matching
shape. Heavy-tail families compute ``survival`` natively (not as ``1 - cdf``)
so tail probabilities keep relative precision.

Families
--------
Normal(mean, std)
NormalMixture2(w, mean1, std1, mean2, std2)      two-component normal mixture
Exponential(rate)
Gamma(shape, rate)
GeneralizedPareto(scale, shape)                  shape >= 0 heavy tail, < 0 bounded
UniformMixture((w, a, b), ...)                   mixture of uniform components
Spliced(base, replacement, splice_point)         base below u, rescaled tail above

The record families (the first five, and raw ensemble members) also have an
entry in the family table at the end of this module, which holds their
parameter rule and the vectorized kernels the batch scoring paths run on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

# scipy.integrate and scipy.optimize are imported where they are used, so a
# command that never integrates or optimizes does not pay to load them.
from scipy.special import beta, gammainc, gammaincinv, ndtr, ndtri

from .errors import (
    ConditioningError,
    DivergenceError,
    DomainError,
    InfiniteMeanError,
    ParameterError,
    UnsupportedFamilyError,
)

__all__ = [
    "Distribution",
    "Normal",
    "NormalMixture2",
    "Exponential",
    "Gamma",
    "GeneralizedPareto",
    "UniformMixture",
    "Spliced",
    "from_family",
]

# Below this |shape| the generalized Pareto switches to its exponential limit form.
_GP_SHAPE_EPS = 1e-8


def _prepare(x):
    """Return (array, was_scalar) for a point-wise method argument."""
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr, scalar):
    return float(arr) if scalar else arr


def _check_prob(p):
    arr, scalar = _prepare(p)
    if np.any((arr <= 0.0) | (arr >= 1.0)) or np.any(~np.isfinite(arr)):
        raise DomainError("probability level must lie strictly inside (0, 1)")
    return arr, scalar


def _as_generator(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


class Distribution(ABC):
    """Abstract base for all forecast distribution families."""

    family: ClassVar[str]

    def __post_init__(self):
        # table families share their parameter rule with the record batches
        check_params(self.family, self.params)

    # -- point-wise surface -------------------------------------------------

    @abstractmethod
    def cdf(self, x): ...

    @abstractmethod
    def pdf(self, x): ...

    def survival(self, x):
        x, scalar = _prepare(x)
        return _finish(1.0 - self.cdf(x), scalar)

    @abstractmethod
    def quantile(self, p): ...

    @abstractmethod
    def support(self) -> tuple[float, float]: ...

    @abstractmethod
    def mean(self) -> float: ...

    # -- derived ------------------------------------------------------------

    @property
    def params(self) -> list[float]:
        """Flat parameter vector: the dataclass fields of a family-table class,
        in the order of its table columns."""
        if self.family not in _FAMILIES:
            raise UnsupportedFamilyError(
                f"{self.family} does not have a flat parameter vector"
            )
        return [getattr(self, f.name) for f in fields(self)]

    def sample(self, n: int, rng) -> np.ndarray:
        """Draw ``n`` values by inverse-cdf from caller-owned RNG state."""
        gen = _as_generator(rng)
        u = np.clip(gen.random(n), 1e-300, 1.0 - 1e-16)
        return np.asarray(self.quantile(u), dtype=float)

    def mean_excess(self, u: float) -> float:
        """E(X - u | X > u), by quadrature of the survival function.

        Families with a closed form (generalized Pareto, exponential)
        override this.
        """
        from scipy import integrate

        s_u = float(self.survival(u))
        if s_u <= 0.0:
            raise ConditioningError(f"survival({u}) = 0; conditional mean undefined")
        hi = self.support()[1]
        val, _ = integrate.quad(
            lambda x: float(self.survival(x)), u, hi, limit=200
        )
        return val / s_u


# ---------------------------------------------------------------------------
# Normal and two-component normal mixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normal(Distribution):
    mean_: float
    std: float

    family: ClassVar[str] = "normal"

    def cdf(self, x):
        x, scalar = _prepare(x)
        return _finish(ndtr((x - self.mean_) / self.std), scalar)

    def survival(self, x):
        x, scalar = _prepare(x)
        return _finish(ndtr(-(x - self.mean_) / self.std), scalar)

    def pdf(self, x):
        x, scalar = _prepare(x)
        z = (x - self.mean_) / self.std
        return _finish(np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi)), scalar)

    def quantile(self, p):
        p, scalar = _check_prob(p)
        return _finish(self.mean_ + self.std * ndtri(p), scalar)

    def support(self):
        return (-math.inf, math.inf)

    def mean(self):
        return self.mean_


@dataclass(frozen=True)
class NormalMixture2(Distribution):
    """w * Normal(mean1, std1) + (1 - w) * Normal(mean2, std2)."""

    w: float
    mean1: float
    std1: float
    mean2: float
    std2: float

    family: ClassVar[str] = "normal_mixture2"

    def _components(self):
        return (
            (self.w, self.mean1, self.std1),
            (1.0 - self.w, self.mean2, self.std2),
        )

    def cdf(self, x):
        x, scalar = _prepare(x)
        out = sum(w * ndtr((x - m) / s) for w, m, s in self._components())
        return _finish(out, scalar)

    def survival(self, x):
        x, scalar = _prepare(x)
        out = sum(w * ndtr(-(x - m) / s) for w, m, s in self._components())
        return _finish(out, scalar)

    def pdf(self, x):
        x, scalar = _prepare(x)
        out = np.zeros_like(x, dtype=float)
        for w, m, s in self._components():
            z = (x - m) / s
            out = out + w * np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
        return _finish(out, scalar)

    def quantile(self, p):
        from scipy.optimize import brentq

        p, scalar = _check_prob(p)
        flat = np.atleast_1d(p)
        out = np.empty_like(flat)
        for i, pi in enumerate(flat):
            # component quantiles bracket the mixture quantile
            qs = [m + s * ndtri(pi) for _, m, s in self._components()]
            lo, hi = min(qs), max(qs)
            if hi - lo < 1e-14:
                out[i] = lo
            else:
                out[i] = brentq(
                    lambda x: self.cdf(x) - pi, lo, hi, xtol=1e-12, rtol=1e-14
                )
        out = out.reshape(np.shape(p))
        return _finish(out, scalar)

    def sample(self, n, rng):
        gen = _as_generator(rng)
        pick = gen.random(n)
        u = np.clip(gen.random(n), 1e-300, 1.0 - 1e-16)
        z = ndtri(u)
        first = pick < self.w
        out = np.where(
            first, self.mean1 + self.std1 * z, self.mean2 + self.std2 * z
        )
        return out

    def support(self):
        return (-math.inf, math.inf)

    def mean(self):
        return self.w * self.mean1 + (1.0 - self.w) * self.mean2


# ---------------------------------------------------------------------------
# Exponential / Gamma
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float

    family: ClassVar[str] = "exponential"

    def cdf(self, x):
        x, scalar = _prepare(x)
        return _finish(np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0))), scalar)

    def survival(self, x):
        x, scalar = _prepare(x)
        return _finish(np.where(x <= 0.0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0))), scalar)

    def pdf(self, x):
        x, scalar = _prepare(x)
        return _finish(np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0))), scalar)

    def quantile(self, p):
        p, scalar = _check_prob(p)
        return _finish(-np.log1p(-p) / self.rate, scalar)

    def support(self):
        return (0.0, math.inf)

    def mean(self):
        return 1.0 / self.rate

    def mean_excess(self, u):
        # memoryless, so any finite threshold works — the survival may
        # underflow to 0.0 long before the conditional law degenerates
        if not np.isfinite(u):
            raise ConditioningError(f"conditional mean undefined at u = {u}")
        return 1.0 / self.rate


@dataclass(frozen=True)
class Gamma(Distribution):
    shape: float
    rate: float

    family: ClassVar[str] = "gamma"

    def cdf(self, x):
        x, scalar = _prepare(x)
        return _finish(gammainc(self.shape, self.rate * np.maximum(x, 0.0)), scalar)

    def pdf(self, x):
        x, scalar = _prepare(x)
        xp = np.maximum(x, 1e-300)
        logpdf = (
            self.shape * math.log(self.rate)
            + (self.shape - 1.0) * np.log(xp)
            - self.rate * xp
            - math.lgamma(self.shape)
        )
        return _finish(np.where(x < 0.0, 0.0, np.exp(logpdf)), scalar)

    def quantile(self, p):
        p, scalar = _check_prob(p)
        return _finish(gammaincinv(self.shape, p) / self.rate, scalar)

    def support(self):
        return (0.0, math.inf)

    def mean(self):
        return self.shape / self.rate


# ---------------------------------------------------------------------------
# Generalized Pareto
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralizedPareto(Distribution):
    """Generalized Pareto on [0, inf) (shape >= 0) or [0, -scale/shape] (shape < 0).

    Survival (1 + shape*x/scale)^(-1/shape); the shape -> 0 limit is the
    exponential with mean ``scale`` and is taken automatically for
    |shape| < 1e-8.
    """

    scale: float
    shape: float

    family: ClassVar[str] = "generalized_pareto"

    def _is_exp(self):
        return abs(self.shape) < _GP_SHAPE_EPS

    def _log_survival(self, x):
        """log of survival on x >= 0, -inf beyond a finite upper endpoint."""
        if self._is_exp():
            return -x / self.scale
        z = self.shape * x / self.scale
        if self.shape < 0.0:
            inside = z > -1.0
            out = np.full(np.shape(x), -np.inf)
            out = np.where(inside, -np.log1p(np.where(inside, z, 0.0)) / self.shape, out)
            return out
        return -np.log1p(z) / self.shape

    def survival(self, x):
        x, scalar = _prepare(x)
        xx = np.maximum(x, 0.0)
        s = np.exp(self._log_survival(xx))
        return _finish(np.where(x <= 0.0, 1.0, s), scalar)

    def cdf(self, x):
        x, scalar = _prepare(x)
        xx = np.maximum(x, 0.0)
        if self._is_exp():
            c = -np.expm1(-xx / self.scale)
        else:
            c = -np.expm1(self._log_survival(xx))
        return _finish(np.where(x <= 0.0, 0.0, c), scalar)

    def pdf(self, x):
        x, scalar = _prepare(x)
        xx = np.maximum(x, 0.0)
        if self._is_exp():
            d = np.exp(-xx / self.scale) / self.scale
        else:
            z = self.shape * xx / self.scale
            if self.shape < 0.0:
                inside = z > -1.0
                d = np.where(
                    inside,
                    np.exp(-(1.0 / self.shape + 1.0) * np.log1p(np.where(inside, z, 0.0)))
                    / self.scale,
                    0.0,
                )
            else:
                d = np.exp(-(1.0 / self.shape + 1.0) * np.log1p(z)) / self.scale
        return _finish(np.where(x < 0.0, 0.0, d), scalar)

    def quantile(self, p):
        p, scalar = _check_prob(p)
        if self._is_exp():
            out = -self.scale * np.log1p(-p)
        else:
            out = self.scale / self.shape * np.expm1(-self.shape * np.log1p(-p))
        return _finish(out, scalar)

    def support(self):
        if self.shape < -_GP_SHAPE_EPS:
            return (0.0, -self.scale / self.shape)
        return (0.0, math.inf)

    def mean(self):
        if self.shape >= 1.0:
            return math.inf
        return self.scale / (1.0 - self.shape)

    def mean_excess(self, u):
        """(scale + shape*u) / (1 - shape); requires shape < 1 and u in support."""
        if self.shape >= 1.0:
            return math.inf
        u = float(u)
        # guard on the support endpoint, not on the floating-point survival,
        # which underflows to 0.0 far inside an infinite support
        if not np.isfinite(u) or u >= self.support()[1]:
            raise ConditioningError(f"conditional mean undefined at u = {u}")
        uu = max(u, 0.0)
        return (self.scale + self.shape * uu) / (1.0 - self.shape)


# ---------------------------------------------------------------------------
# Uniform mixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformMixture(Distribution):
    """Mixture of uniform components given as (weight, low, high) triples."""

    components: tuple[tuple[float, float, float], ...]

    family: ClassVar[str] = "uniform_mixture"

    def __post_init__(self):
        comps = tuple(tuple(map(float, c)) for c in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ParameterError("uniform mixture needs at least one component")
        for w, a, b in comps:
            if not (w >= 0.0 and b > a):
                raise ParameterError(f"bad uniform component (w={w}, a={a}, b={b})")
        total = sum(w for w, _, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"component weights must sum to 1, got {total}")

    @property
    def params(self):
        return [v for comp in self.components for v in comp]

    def cdf(self, x):
        x, scalar = _prepare(x)
        out = np.zeros_like(x, dtype=float)
        for w, a, b in self.components:
            out = out + w * np.clip((x - a) / (b - a), 0.0, 1.0)
        return _finish(out, scalar)

    def pdf(self, x):
        x, scalar = _prepare(x)
        out = np.zeros_like(x, dtype=float)
        for w, a, b in self.components:
            out = out + np.where((x >= a) & (x < b), w / (b - a), 0.0)
        return _finish(out, scalar)

    def quantile(self, p):
        p, scalar = _check_prob(p)
        knots = np.unique(
            np.concatenate([[a, b] for _, a, b in self.components])
        )
        cdfk = np.asarray(self.cdf(knots))
        flat = np.atleast_1d(p).ravel()
        out = np.empty_like(flat)
        for i, pi in enumerate(flat):
            j = int(np.searchsorted(cdfk, pi, side="left"))
            if j == 0:
                out[i] = knots[0]
                continue
            x0, x1 = knots[j - 1], knots[j]
            c0, c1 = cdfk[j - 1], cdfk[j]
            out[i] = x0 if c1 == c0 else x0 + (pi - c0) * (x1 - x0) / (c1 - c0)
        out = out.reshape(np.shape(p))
        return _finish(out, scalar)

    def sample(self, n, rng):
        gen = _as_generator(rng)
        weights = np.array([w for w, _, _ in self.components])
        edges = np.cumsum(weights)
        pick = np.searchsorted(edges, gen.random(n), side="right")
        pick = np.minimum(pick, len(self.components) - 1)
        u = gen.random(n)
        a = np.array([c[1] for c in self.components])[pick]
        b = np.array([c[2] for c in self.components])[pick]
        return a + u * (b - a)

    def support(self):
        return (
            min(a for _, a, _ in self.components),
            max(b for _, _, b in self.components),
        )

    def mean(self):
        return sum(w * 0.5 * (a + b) for w, a, b in self.components)


# ---------------------------------------------------------------------------
# Spliced tail replacement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spliced(Distribution):
    """Base distribution below ``splice_point``, rescaled tail law above it.

    cdf(x) = F(x)                                     for x <= u
             1 - H_bar(x - u) * F_bar(u)              for x >  u

    where F is the base, H the replacement tail law (supported on [0, inf))
    and u the splice point. The construction keeps total mass 1 and is
    continuous at u by design; validity of a *stochastically dominated* tail
    replacement is checked by :func:`crpstail.tail_analysis.splice_tail`.
    """

    base: Distribution
    replacement: Distribution
    splice_point: float

    family: ClassVar[str] = "spliced"

    def __post_init__(self):
        if not np.isfinite(self.splice_point):
            raise ParameterError("splice point must be finite")
        if float(self.base.survival(self.splice_point)) <= 0.0:
            raise ParameterError("base distribution has no mass above the splice point")
        rlo, _ = self.replacement.support()
        if rlo < 0.0:
            raise ParameterError("replacement tail law must be supported on [0, inf)")

    def _tail_mass(self):
        return float(self.base.survival(self.splice_point))

    def cdf(self, x):
        x, scalar = _prepare(x)
        below = np.asarray(self.base.cdf(x), dtype=float)
        above = 1.0 - self._tail_mass() * np.asarray(
            self.replacement.survival(np.maximum(x - self.splice_point, 0.0)),
            dtype=float,
        )
        return _finish(np.where(x <= self.splice_point, below, above), scalar)

    def survival(self, x):
        x, scalar = _prepare(x)
        below = np.asarray(self.base.survival(x), dtype=float)
        above = self._tail_mass() * np.asarray(
            self.replacement.survival(np.maximum(x - self.splice_point, 0.0)),
            dtype=float,
        )
        return _finish(np.where(x <= self.splice_point, below, above), scalar)

    def pdf(self, x):
        x, scalar = _prepare(x)
        below = np.asarray(self.base.pdf(x), dtype=float)
        above = self._tail_mass() * np.asarray(
            self.replacement.pdf(np.maximum(x - self.splice_point, 0.0)), dtype=float
        )
        return _finish(np.where(x <= self.splice_point, below, above), scalar)

    def quantile(self, p):
        p, scalar = _check_prob(p)
        s_u = self._tail_mass()
        p_u = 1.0 - s_u
        flat = np.atleast_1d(p).ravel()
        out = np.empty_like(flat)
        lower = flat <= p_u
        if np.any(lower):
            out[lower] = np.atleast_1d(self.base.quantile(np.clip(flat[lower], 1e-300, p_u)))
        if np.any(~lower):
            inner = 1.0 - (1.0 - flat[~lower]) / s_u
            inner = np.clip(inner, 1e-300, 1.0 - 1e-16)
            out[~lower] = self.splice_point + np.atleast_1d(self.replacement.quantile(inner))
        out = out.reshape(np.shape(p))
        return _finish(out, scalar)

    def support(self):
        lo = self.base.support()[0]
        rhi = self.replacement.support()[1]
        hi = math.inf if math.isinf(rhi) else self.splice_point + rhi
        return (lo, hi)

    def mean(self):
        # E = E_F[X] + F_bar(u) * (E_H[X] - base mean excess at u)
        mu_h = self.replacement.mean()
        if math.isinf(mu_h):
            return math.inf
        return self.base.mean() + self._tail_mass() * (
            mu_h - self.base.mean_excess(self.splice_point)
        )

    def mean_excess(self, u):
        if u >= self.splice_point:
            return self.replacement.mean_excess(u - self.splice_point)
        return super().mean_excess(u)




# ---------------------------------------------------------------------------
# Family table
# ---------------------------------------------------------------------------
#
# Each record family is described once, here: its class, its parameter rule
# and the kernels every batch path runs on. A kernel takes an (n, k) array of
# parameter rows and broadcasts its other arguments against the rows; the
# scalar entry points call the same kernels on a one-row batch.

_SQRT_PI = math.sqrt(math.pi)


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _crps_normal_kernel(mu, sigma, y):
    z = (y - mu) / sigma
    return sigma * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * _phi(z) - 1.0 / _SQRT_PI)


def _A(m, v):
    """E|X - 0| for X ~ N(m, v); the building block of the mixture closed form."""
    s = np.sqrt(v)
    z = m / s
    return m * (2.0 * ndtr(z) - 1.0) + 2.0 * s * _phi(z)


def _crps_mixture2_kernel(w, m1, s1, m2, s2, y):
    w2 = 1.0 - w
    cross = (
        w * w * _A(0.0 * m1, 2.0 * s1 * s1)
        + w2 * w2 * _A(0.0 * m2, 2.0 * s2 * s2)
        + 2.0 * w * w2 * _A(m1 - m2, s1 * s1 + s2 * s2)
    )
    return w * _A(y - m1, s1 * s1) + w2 * _A(y - m2, s2 * s2) - 0.5 * cross


def _crps_exponential_kernel(rate, y):
    yc = np.maximum(y, 0.0)
    inside = yc + (2.0 / rate) * np.exp(-rate * yc) - 1.5 / rate
    # below the support the score grows linearly with the distance to 0
    return inside + np.maximum(-y, 0.0)


def _crps_gamma_kernel(shape, rate, y):
    """Scheuerer & Moller (2015). Below 0 both cdfs vanish and the first term
    becomes -y, the distance to the support."""
    x = rate * np.maximum(y, 0.0)
    return (
        y * (2.0 * gammainc(shape, x) - 1.0)
        - shape / rate * (2.0 * gammainc(shape + 1.0, x) - 1.0)
        - 1.0 / (rate * beta(0.5, shape))
    )


def _crps_gp_kernel(scale, shape, y):
    """CRPS for the generalized Pareto; requires shape < 1 (finite mean)."""
    if np.any(shape >= 1.0):
        raise InfiniteMeanError("generalized Pareto CRPS requires shape < 1")
    # clamp y into the support, add |y - clamp| afterwards (exact extension)
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.where(
            shape < -_GP_SHAPE_EPS, -scale / np.minimum(shape, -_GP_SHAPE_EPS), np.inf
        )
    yc = np.clip(y, 0.0, hi)
    exp_like = np.abs(shape) < _GP_SHAPE_EPS
    safe_shape = np.where(exp_like, 0.5, shape)
    base = np.maximum(1.0 + safe_shape * yc / scale, 0.0)
    with np.errstate(divide="ignore"):
        sbar = np.where(
            exp_like,
            np.exp(-yc / scale),
            np.exp(np.where(base > 0.0, -np.log(np.maximum(base, 1e-300)) / safe_shape, -np.inf)),
        )
    crps = (
        yc
        + 2.0 * sbar * (scale + shape * yc) / (1.0 - shape)
        - 2.0 * scale * (1.0 / (1.0 - shape) - 0.5 / (2.0 - shape))
    )
    return crps + np.abs(y - yc)


def _crps_ensemble_kernel(members, y):
    """mean|x_i - y| - 0.5 mean|x_i - x_j|, the pairwise term in O(m log m)
    from the sorted members."""
    xs = np.sort(members, axis=1)
    m = xs.shape[1]
    k = np.arange(1, m + 1)
    return np.abs(xs - np.asarray(y)[..., None]).mean(axis=1) - xs @ (2 * k - m - 1) / (m * m)


def _normal_tail_sq(s):
    """int_s^inf ndtr(-z)^2 dz in closed form."""
    sb = ndtr(-s)
    return -s * sb * sb + 2.0 * _phi(s) * sb - ndtr(-s * math.sqrt(2.0)) / _SQRT_PI


def _gp_tail_sq_kernel(scale, shape, q):
    """Vectorized int_q^inf survival^2 for generalized Pareto rows, q >= 0."""
    if np.any(shape >= 2.0):
        raise DivergenceError("tail integral diverges for Pareto shape >= 2")
    exp_like = np.abs(shape) < _GP_SHAPE_EPS
    safe = np.where(exp_like, 0.5, shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sbar = np.where(
            exp_like,
            -q / scale,
            -np.log1p(np.maximum(safe * q / scale, -1.0 + 1e-15)) / safe,
        )
    return scale * np.exp((2.0 - shape) * log_sbar) / (2.0 - shape)


def _mixture2_tail_table(w, s1, s2, delta, s, n=8193):
    """s -> int_s^inf Fbar0(t)^2 dt for the zero-based mixture Fbar0, by the
    trapezoid rule on a dense grid over the range of ``s``."""
    from scipy import integrate

    def fbar(t):
        return w * ndtr(-t / s1) + (1.0 - w) * ndtr(-(t - delta) / s2)

    grid = np.linspace(float(np.min(s)) - 1.0, float(np.max(s)) + 1.0, n)
    f = fbar(grid)
    sq = f * f
    rem, _ = integrate.quad(lambda t: fbar(t) ** 2, grid[-1], np.inf)
    # cumulative from the right edge inward
    seg = 0.5 * (sq[1:] + sq[:-1]) * np.diff(grid)
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]]) + rem
    return np.interp(s, grid, tail)


def _mixture2_tail_sq(params, q):
    """Batch int_q^inf survival^2 for mixture rows, accurate to ~1e-7: one
    table per unique (w, std1, std2, mean-offset) signature."""
    w, m1, s1, m2, s2 = params.T
    s = q - m1
    key = np.round(np.column_stack([w, s1, s2, m2 - m1]), 12)
    tail = np.empty(len(params))
    for row in np.unique(key, axis=0):
        sel = np.all(key == row, axis=1)
        tail[sel] = _mixture2_tail_table(*row, s[sel])
    return tail


def _gp_cdf(params, x):
    scale, shape = params[:, 0], params[:, 1]
    exp_like = np.abs(shape) < _GP_SHAPE_EPS
    safe = np.where(exp_like, 0.5, shape)
    z = safe * np.maximum(x, 0.0) / scale
    # z <= -1 only at or past the finite upper endpoint of a negative shape
    inside = z > -1.0
    c = np.where(
        exp_like,
        -np.expm1(-np.maximum(x, 0.0) / scale),
        np.where(inside, -np.expm1(-np.log1p(np.where(inside, z, 0.0)) / safe), 1.0),
    )
    return np.where(x <= 0.0, 0.0, c)


def _ensemble_cdf(members, x):
    """Mid-rank PIT surrogate: (# members below + half # equal) / m."""
    below = (members < x[:, None]).sum(axis=1)
    equal = (members == x[:, None]).sum(axis=1)
    return (below + 0.5 * equal) / members.shape[1]


def _columns(kernel):
    """Adapt ``kernel(col_0, ..., col_k-1, arg)`` to ``(params, arg)``."""
    return lambda params, arg: kernel(*params.T, arg)


class Family(NamedTuple):
    """One record family. Kernels map (params, x) to one value per row."""

    cls: type | None  # None: the rows are ensemble members, not parameters
    nparams: int | None  # None: any row length
    rule: str  # what ``valid`` demands beyond finite parameters
    valid: Callable  # params -> bool per row
    cdf: Callable  # (params, x) -> F(x)
    crps: Callable  # (params, y) -> CRPS(F, y)
    tail: Callable | None = None  # (params, q) -> int_q^inf (1 - F)^2, q scalar
    tail_exact: bool = True  # False: ``tail`` is a table for batch use only
    wcrps: Callable | None = None  # (params, y, q) -> weighted CRPS, w = 1{x >= q}


_FAMILIES = {
    "normal": Family(
        Normal, 2, "std > 0",
        valid=lambda p: p[:, 1] > 0.0,
        cdf=lambda p, x: ndtr((x - p[:, 0]) / p[:, 1]),
        crps=_columns(_crps_normal_kernel),
        tail=lambda p, q: p[:, 1] * _normal_tail_sq((q - p[:, 0]) / p[:, 1]),
    ),
    "normal_mixture2": Family(
        NormalMixture2, 5, "weight in [0, 1] and component stds > 0",
        valid=lambda p: (p[:, 0] >= 0.0) & (p[:, 0] <= 1.0) & (p[:, 2] > 0.0) & (p[:, 4] > 0.0),
        cdf=lambda p, x: p[:, 0] * ndtr((x - p[:, 1]) / p[:, 2])
        + (1.0 - p[:, 0]) * ndtr((x - p[:, 3]) / p[:, 4]),
        crps=_columns(_crps_mixture2_kernel),
        tail=_mixture2_tail_sq,
        tail_exact=False,
    ),
    "exponential": Family(
        Exponential, 1, "rate > 0",
        valid=lambda p: p[:, 0] > 0.0,
        cdf=lambda p, x: np.where(x <= 0.0, 0.0, -np.expm1(-p[:, 0] * np.maximum(x, 0.0))),
        crps=_columns(_crps_exponential_kernel),
        tail=lambda p, q: np.exp(-2.0 * p[:, 0] * max(q, 0.0)) / (2.0 * p[:, 0]) + max(-q, 0.0),
    ),
    "gamma": Family(
        Gamma, 2, "shape > 0 and rate > 0",
        valid=lambda p: (p[:, 0] > 0.0) & (p[:, 1] > 0.0),
        cdf=lambda p, x: gammainc(p[:, 0], p[:, 1] * np.maximum(x, 0.0)),
        crps=_columns(_crps_gamma_kernel),
    ),
    "generalized_pareto": Family(
        GeneralizedPareto, 2, "scale > 0",
        valid=lambda p: p[:, 0] > 0.0,
        cdf=_gp_cdf,
        crps=_columns(_crps_gp_kernel),
        tail=lambda p, q: _gp_tail_sq_kernel(p[:, 0], p[:, 1], max(q, 0.0)) + max(-q, 0.0),
    ),
    "ensemble": Family(
        None, None, "at least one member",
        valid=lambda p: np.full(len(p), p.shape[1] > 0),
        cdf=_ensemble_cdf,
        crps=_crps_ensemble_kernel,
        # chaining function v(z) = max(z, q) (Allen, Ginsbourger & Ziegel 2023)
        wcrps=lambda p, y, q: _crps_ensemble_kernel(np.maximum(p, q), np.maximum(y, q)),
    ),
}


def family_entry(family: str) -> Family:
    try:
        return _FAMILIES[family]
    except KeyError:
        raise UnsupportedFamilyError(f"unknown distribution family {family!r}") from None


def check_params(family: str, params) -> None:
    """Raise :class:`~crpstail.errors.ParameterError`, carrying the first bad
    row, on a wrong row length, a non-finite value or a broken family rule."""
    fam = family_entry(family)
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if fam.nparams is not None and params.shape[1] != fam.nparams:
        raise ParameterError(
            f"{family} rows need {fam.nparams} parameters, got {params.shape[1]}", row=0
        )
    ok = fam.valid(params)
    if not (ok.all() and np.isfinite(params).all()):
        # the per-row reduction is slow on narrow rows: only on failure
        i = int(np.argmin(ok & np.isfinite(params).all(axis=1)))
        raise ParameterError(
            f"{family} requires finite parameters and {fam.rule}, got {params[i].tolist()}",
            row=i,
        )


def from_family(family: str, params: Sequence[float]) -> Distribution:
    """Build a distribution from its family tag and flat parameter vector."""
    if family == "uniform_mixture":
        vals = list(map(float, params))
        if len(vals) % 3 != 0 or not vals:
            raise ParameterError(
                "uniform_mixture params must be (weight, low, high) triples"
            )
        comps = tuple(tuple(vals[i : i + 3]) for i in range(0, len(vals), 3))
        return UniformMixture(comps)
    fam = family_entry(family)
    if fam.cls is None:
        raise UnsupportedFamilyError(f"{family} rows have no parametric form")
    vals = list(map(float, params))
    if len(vals) != fam.nparams:
        raise ParameterError(
            f"{family} expects {fam.nparams} parameters, got {len(vals)}"
        )
    return fam.cls(*vals)
