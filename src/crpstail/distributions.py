"""Forecast distribution families.

Every family exposes the same small surface: ``cdf``, ``survival``,
``quantile``, ``sample``, ``mean``, ``mean_excess`` and ``support``. All
point-wise methods accept scalars or numpy arrays and return the matching
shape (a float for a scalar). The record families compute ``survival``
natively (not as ``1 - cdf``), so tail probabilities keep relative precision.

Families
--------
Normal(mean, std)
NormalMixture2(w, mean1, std1, mean2, std2)      two-component normal mixture
Exponential(rate)
Gamma(shape, rate)
GeneralizedPareto(scale, shape)                  shape >= 0 heavy tail, < 0 bounded
UniformMixture((w, a, b), ...)                   mixture of uniform components
Spliced(base, replacement, splice_point)         base below u, rescaled tail above

The record families (the first five, and raw ensemble members) are described
once, in the family table at the end of this module: their parameter rule and
the vectorized kernels that both the batch paths and the classes' point-wise
``cdf`` and ``survival`` (on a one-row batch) run on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

# scipy.optimize, scipy.special and the package's own quadrature are imported
# where they are used, so a command that never optimizes, calls a special
# function or integrates does not pay to load them.
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


# draws transformed at a time by the samplers: bounds what a sampler holds
# beside its output, whatever the number of draws
_BLOCK_DRAWS = 1 << 16


def _draw_count(n, least: int = 0) -> int:
    """``n`` as a number of draws: :class:`ParameterError` (a ``ValueError``)
    unless it is an integer of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ParameterError(f"the number of draws must be an integer >= {least}, got {n!r}")
    return int(n)


def _blocks(n: int):
    """Consecutive slices of ``range(n)`` of at most ``_BLOCK_DRAWS`` each."""
    for start in range(0, n, _BLOCK_DRAWS):
        yield slice(start, min(start + _BLOCK_DRAWS, n))


def _row_blocks(kernel):
    """``kernel(params, *args)`` of the family table, run on ``_blocks(n)``
    slices into one preallocated output, so that beside its ``n`` values a
    call holds the temporaries of one block.

    ``n`` is the broadcast length of the parameter rows and the 1-d
    arguments: a one-row law at many ``x`` is blocked over ``x``. Scalars and
    length-1 rows or arguments go whole to every block; with an argument of
    more than one dimension, or at most one block of rows, the kernel runs
    once on everything. Every value is the kernel's on the whole arrays, but
    a kernel that warns warns once per block. ``out`` may be an argument:
    each block's values replace its slice after the block is computed.
    """

    def run(params, *args, out=None):
        ndims = [getattr(a, "ndim", 0) for a in args]
        n = max([len(params)] + [len(a) for a, ndim in zip(args, ndims) if ndim == 1])
        if n <= _BLOCK_DRAWS or max(ndims, default=0) > 1:
            if out is None:
                return kernel(params, *args)
            out[...] = kernel(params, *args)
            return out
        if out is None:
            out = np.empty(n)
        for block in _blocks(n):
            out[block] = kernel(
                params[block] if len(params) == n else params,
                *(a[block] if ndim == 1 and len(a) == n else a for a, ndim in zip(args, ndims)),
            )
        return out

    return run


def _uniform_blocks(gen: np.random.Generator, n: int):
    """(slice, uniforms) for each block of ``n`` draws from ``gen``, the
    uniforms clipped in place into (0, 1) for an inverse cdf; together the
    blocks are the stream ``gen.random(n)`` draws."""
    for block in _blocks(n):
        u = gen.random(block.stop - block.start)
        yield block, np.clip(u, 1e-300, 1.0 - 1e-16, out=u)


def _quad(f, a, b, points=(), tol=1.49e-8, limit=50):
    """int_a^b f by adaptive QUADPACK quadrature (DQAGSE in
    :mod:`crpstail._quadpack`, which returns scipy's ``quad`` bits); the
    package's only integration path. The defaults are scipy's; ``tol`` and
    ``limit`` apply to each piece.

    Break points outside (a, b), or within 1e-12 (relative) of the node before
    them or of b, are dropped: QUADPACK bisects its smallest subintervals to
    extrapolate, and one a few ulps wide cannot be bisected. Each piece between
    two consecutive finite nodes is integrated on its own, and the pieces are
    summed left to right. An infinite end is integrated beyond the outermost
    node p after the map x = p +- L s / (1 - s), s in [0, 1), where L is the
    gap from p to the next node, or 1 when there is none: QUADPACK's own
    infinite-range rule, with L = 1 always, loses an algebraic tail cut far out.
    """
    from . import _quadpack

    def rule(g, lo, hi):
        return _quadpack.quad(g, lo, hi, tol, limit).result

    if a >= b:
        return 0.0
    nodes = [a]
    for p in sorted({p for p in points if a < p < b}):
        if min(p - nodes[-1], b - p) > 1e-12 * abs(p):
            nodes.append(p)
    # the finite nodes; 0 when both ends are infinite and nothing lies between
    nodes = [x for x in (*nodes, b) if math.isfinite(x)] or [0.0]
    total = 0.0
    for lo, hi in zip(nodes, nodes[1:]):
        total += rule(f, lo, hi)
    for end, p, nxt in ((a, nodes[0], nodes[1:2]), (b, nodes[-1], nodes[-2:-1])):
        if math.isinf(end):
            step = math.copysign(abs(p - nxt[0]) if nxt else 1.0, end)  # +-L
            total += rule(lambda s: f(p + step * s / (1 - s)) * abs(step) / (1 - s) ** 2, 0, 1)
    return total


class Distribution(ABC):
    """Abstract base for all forecast distribution families."""

    family: ClassVar[str]

    # -- point-wise surface -------------------------------------------------

    @abstractmethod
    def cdf(self, x): ...

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

    def sample(self, n: int, rng) -> np.ndarray:
        """Draw ``n`` values by inverse-cdf from caller-owned RNG state.

        ``n`` must be a non-negative integer (else :class:`ParameterError`).
        The uniforms are drawn and inverted ``_BLOCK_DRAWS`` at a time into
        one preallocated output, so beside its ``n`` values a call holds one
        block; the stream and every value are those of one ``gen.random(n)``.
        """
        n = _draw_count(n)
        gen = _as_generator(rng)
        out = np.empty(n)
        for block, u in _uniform_blocks(gen, n):
            out[block] = self.quantile(u)
        return out

    def mean_excess(self, u: float) -> float:
        """E(X - u | X > u), by quadrature of the survival function.

        Families with a closed form (generalized Pareto, exponential)
        override this.
        """
        s_u = float(self.survival(u))
        if s_u <= 0.0:
            raise ConditioningError(f"survival({u}) = 0; conditional mean undefined")
        return _quad(lambda x: float(self.survival(x)), u, self.support()[1], limit=200) / s_u


class _TableFamily(Distribution):
    """A record family: a dataclass whose fields are its family-table columns.
    ``cdf`` and ``survival`` are the table's kernels on a one-row batch."""

    def __post_init__(self):
        # the parameter rule the record batches are checked against, on the
        # one-row batch that every point-wise call (each quadrature node among
        # them) runs the kernels on, built once
        row = np.array([self.params], dtype=float)
        row.flags.writeable = False
        check_params(self.family, row)
        object.__setattr__(self, "_row", row)

    @property
    def params(self) -> list[float]:
        """Flat parameter vector: the dataclass fields, in table column order."""
        return [getattr(self, f.name) for f in fields(self)]

    def _one_row(self, kernel, x, out=None):
        """``kernel`` of the family table on this law's one-row batch at ``x``
        (into ``out`` if given, see :func:`_row_blocks`); the result keeps
        the shape of ``x``, a float for a scalar."""
        x = np.asarray(x, dtype=float)
        values = kernel(self._row, x, out=out)
        return float(values[0]) if x.ndim == 0 else values

    def cdf(self, x):
        return self._one_row(_FAMILIES[self.family].cdf, x)

    def survival(self, x):
        return self._one_row(_FAMILIES[self.family].survival, x)


# ---------------------------------------------------------------------------
# Normal and two-component normal mixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normal(_TableFamily):
    mean_: float
    std: float

    family: ClassVar[str] = "normal"

    def quantile(self, p):
        from scipy.special import ndtri

        p, scalar = _check_prob(p)
        return _finish(self.mean_ + self.std * ndtri(p), scalar)

    def support(self):
        return (-math.inf, math.inf)

    def mean(self):
        return self.mean_


@dataclass(frozen=True)
class NormalMixture2(_TableFamily):
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

    def quantile(self, p):
        from scipy.optimize import brentq
        from scipy.special import ndtri

        p, scalar = _check_prob(p)
        flat = np.atleast_1d(p)
        out = np.empty_like(flat)
        for i, pi in enumerate(flat):
            # component quantiles bracket the mixture quantile; a component of
            # weight 0 (or nearly) leaves it on a bracket end, where rounding
            # can put the sign change just outside
            qs = [m + s * ndtri(pi) for _, m, s in self._components()]
            lo, hi = min(qs), max(qs)
            try:
                out[i] = lo if hi - lo < 1e-14 else brentq(
                    lambda x: self.cdf(x) - pi, lo, hi, xtol=1e-12, rtol=1e-14
                )
            except ValueError:
                out[i] = min(qs, key=lambda x: abs(self.cdf(x) - pi))
        out = out.reshape(np.shape(p))
        return _finish(out, scalar)

    def sample(self, n, rng):
        """All ``n`` component picks, then ``n`` uniforms, from ``rng``, as
        one ``gen.random(n)`` each; a pick is held as a boolean and the
        uniforms are transformed a block at a time (see
        :meth:`Distribution.sample`)."""
        from scipy.special import ndtri

        n = _draw_count(n)
        gen = _as_generator(rng)
        first = np.empty(n, dtype=bool)
        for block in _blocks(n):
            first[block] = gen.random(block.stop - block.start) < self.w
        out = np.empty(n)
        for block, u in _uniform_blocks(gen, n):
            z = ndtri(u, out=u)
            out[block] = np.where(
                first[block], self.mean1 + self.std1 * z, self.mean2 + self.std2 * z
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
class Exponential(_TableFamily):
    rate: float

    family: ClassVar[str] = "exponential"

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
class Gamma(_TableFamily):
    shape: float
    rate: float

    family: ClassVar[str] = "gamma"

    def quantile(self, p):
        from scipy.special import gammaincinv

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
class GeneralizedPareto(_TableFamily):
    """Generalized Pareto on [0, inf) (shape >= 0) or [0, -scale/shape] (shape < 0).

    Survival (1 + shape*x/scale)^(-1/shape), and exp(-x/scale), the shape -> 0
    limit, wherever |shape*x/scale| < 1e-16, where the two agree to rounding.
    """

    scale: float
    shape: float

    family: ClassVar[str] = "generalized_pareto"

    def quantile(self, p):
        p, scalar = _check_prob(p)
        flat = np.atleast_1d(p)
        t = -self.shape * np.log1p(-flat)
        # the survival's rule on t = -shape log S: the shape-0 form where
        # |t| < 1e-16, as at a zero or subnormal shape, where scale / shape
        # is not finite
        small = np.abs(t) < 1e-16
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.expm1(t) * (np.float64(self.scale) / self.shape)
            # scale / shape alone can overflow where the quantile is finite
            big = ~np.isfinite(out)
            out[big] = np.expm1(t[big]) / self.shape * self.scale
        out[small] = -self.scale * np.log1p(-flat[small])
        return _finish(out.reshape(np.shape(p)), scalar)

    def support(self):
        if self.shape < 0.0:
            # beyond the largest float (inf) for a subnormal shape
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
        """All ``n`` component picks, then ``n`` uniforms, from ``rng``, as
        one ``gen.random(n)`` each; a pick is held as the smallest integer
        that indexes the components and the uniforms are transformed a block
        at a time (see :meth:`Distribution.sample`)."""
        n = _draw_count(n)
        gen = _as_generator(rng)
        last = len(self.components) - 1
        edges = np.cumsum([w for w, _, _ in self.components])
        pick = np.empty(n, dtype=np.min_scalar_type(last))
        for block in _blocks(n):
            at = np.searchsorted(edges, gen.random(block.stop - block.start), side="right")
            pick[block] = np.minimum(at, last)
        lows = np.array([a for _, a, _ in self.components])
        highs = np.array([b for _, _, b in self.components])
        out = np.empty(n)
        for block in _blocks(n):
            x = gen.random(out=out[block])
            a = lows[pick[block]]
            x *= highs[pick[block]] - a
            x += a  # a + u (b - a)
        return out

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
    from scipy.special import ndtr

    z = (y - mu) / sigma
    return sigma * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * _phi(z) - 1.0 / _SQRT_PI)


def _A(m, v):
    """E|X - 0| for X ~ N(m, v); the building block of the mixture closed form."""
    from scipy.special import ndtr

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
    from scipy.special import beta, gammainc

    x = rate * np.maximum(y, 0.0)
    return (
        y * (2.0 * gammainc(shape, x) - 1.0)
        - shape / rate * (2.0 * gammainc(shape + 1.0, x) - 1.0)
        - 1.0 / (rate * beta(0.5, shape))
    )


def _gp_log_survival(scale, shape, x):
    """log survival of generalized Pareto rows at x >= 0: -log1p(z) / shape,
    z = shape x / scale, and -x / scale where |z| < 1e-16, which equals it to
    rounding there (and is the shape 0 limit); -inf from a finite upper
    endpoint on, where z <= -1."""
    # log1p(-1) = -inf; 0 / 0 where shape is 0, which the rule replaces; an
    # overflow of z, log_s or -x / scale still gives log S = -inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = shape * x / scale
        log_s = -np.log1p(np.maximum(z, -1.0)) / shape
        exp_like = -x / scale
    # False also where z is nan: shape 0 at x = inf
    return np.where(np.abs(z) >= 1e-16, log_s, exp_like)


def _crps_gp_kernel(scale, shape, y):
    """CRPS for the generalized Pareto; requires shape < 1 (finite mean)."""
    if np.any(shape >= 1.0):
        raise InfiniteMeanError("generalized Pareto CRPS requires shape < 1")
    # clamp y into the support, add |y - clamp| afterwards (exact extension);
    # the upper endpoint overflows to inf for a subnormal shape
    with np.errstate(divide="ignore", over="ignore"):
        hi = np.where(shape < 0.0, -scale / shape, np.inf)
    yc = np.clip(y, 0.0, hi)
    sbar = np.exp(_gp_log_survival(scale, shape, yc))
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
    w = 2 * np.arange(1, m + 1) - m - 1
    # a pairwise sum, not a BLAS product, so no result depends on the BLAS build
    return np.abs(xs - np.asarray(y)[..., None]).mean(axis=1) - (xs * w).sum(axis=1) / (m * m)


def _normal_tail_sq(s):
    """int_s^inf ndtr(-z)^2 dz in closed form."""
    from scipy.special import ndtr

    sb = ndtr(-s)
    return -s * sb * sb + 2.0 * _phi(s) * sb - ndtr(-s * math.sqrt(2.0)) / _SQRT_PI


def _gp_tail_sq_kernel(scale, shape, q):
    """Vectorized int_q^inf survival^2 for generalized Pareto rows, q >= 0."""
    if np.any(shape >= 2.0):
        raise DivergenceError("tail integral diverges for Pareto shape >= 2")
    return scale * np.exp((2.0 - shape) * _gp_log_survival(scale, shape, q)) / (2.0 - shape)


def _gamma_tail_sq_kernel(shape, rate, q):
    """Vectorized int_q^inf survival^2 for Gamma rows: the CRPS of the forecast
    censored at q (Scheuerer & Hamill 2015), written in upper incomplete gamma
    functions, which keep their relative precision far in the tail; the cdf
    form cancels there."""
    from scipy.special import beta, gammaincc

    c = rate * max(q, 0.0)
    s_k = gammaincc(shape, c)
    return (
        2.0 * shape * s_k * gammaincc(shape + 1.0, c)
        - (shape + c) * s_k * s_k
        - shape / math.pi * beta(0.5, shape + 0.5) * gammaincc(2.0 * shape, 2.0 * c)
    ) / rate + max(-q, 0.0)


def _upper_orthant(h, k, rho, r):
    """P(Z1 > h, Z2 > k), k >= 0, at correlation rho, r = sqrt(1 - rho^2), as two
    wedges in Owen's (1956) T. A negative h is reflected, P = Sb(k) - P(-Z1 > -h,
    Z2 > k) at -rho (Sb = 1 - Phi), so no term is much larger than P; -0.0 is 0."""
    from scipy.special import ndtr, owens_t

    def wedge(h, k):
        # T(h, inf) - T(h, a), a = ah / h, 0 at h = 0; where a > 1, by T(h, a) + T(ah, 1/a)
        # = (Sb(h) + Sb(ah)) / 2 - Sb(h) Sb(ah), which keeps the digits of a far tail
        pos = h > 0.0
        h = np.where(pos, h, 1.0)
        ah = (k - rho * h) / r
        far = ah > h
        big = np.where(far, ah, h)
        t = owens_t(big, np.where(far, h, ah) / big)
        sh = ndtr(-h)
        return np.where(pos, np.where(far, t - ndtr(-ah) * (0.5 - sh), 0.5 * sh - t), 0.0)

    hn = h < 0.0
    h, rho = np.abs(h), np.where(hn, -rho, rho)
    both0 = (h == 0.0) & (k == 0.0)
    p = np.where(both0, 0.25 + np.arcsin(rho) / (2.0 * math.pi), wedge(h, k) + wedge(k, h))
    return np.where(hn, ndtr(-k) - p, p)


def _mixture2_tail_sq(params, q):
    """Batch int_q^inf survival^2 for mixture rows: w^2 T1 + (1 - w)^2 T2 +
    2 w (1 - w) E(min(X1, X2) - q)+ for independent Xi ~ N(mi, si), Ti the
    normal tails, the last term two truncated bivariate-normal first moments
    (Tallis 1961)."""
    from scipy.special import ndtr

    w, m1, s1, m2, s2 = params.T
    # 1 is the component with the larger mean: b >= 0 spares a reflection's digits
    first = m1 >= m2
    w1, w2 = np.where(first, w, 1.0 - w), np.where(first, 1.0 - w, w)
    m1, m2 = np.where(first, m1, m2), np.where(first, m2, m1)
    s1, s2 = np.where(first, s1, s2), np.where(first, s2, s1)
    a1, a2 = (q - m1) / s1, (q - m2) / s2
    d, sb1, sb2 = np.hypot(s1, s2), ndtr(-a1), ndtr(-a2)
    b = (m1 - m2) / d
    # P(X1 > q, X2 > X1); P(X2 > q, X1 > X2) is the rest of P(min(X1, X2) > q)
    p1 = _upper_orthant(a1, b, -s1 / d, s2 / d)
    pb = _phi(b) / d
    cross = (
        s1 * (_phi(a1) * sb2 - a1 * p1) - s1 * s1 * pb * ndtr(-(s1 * b + a1 * d) / s2)
        + s2 * (_phi(a2) * sb1 - a2 * (sb1 * sb2 - p1))
        - s2 * s2 * pb * ndtr((s2 * b - a2 * d) / s1)
    )
    tail = w1 * w1 * s1 * _normal_tail_sq(a1) + w2 * w2 * s2 * _normal_tail_sq(a2)
    return np.maximum(tail + 2.0 * w1 * w2 * cross, 0.0)


def _normal_cdf(params, x):
    from scipy.special import ndtr

    return ndtr((x - params[:, 0]) / params[:, 1])


def _mixture2_cdf(params, x):
    from scipy.special import ndtr

    w, m1, s1, m2, s2 = params.T
    return w * ndtr((x - m1) / s1) + (1.0 - w) * ndtr((x - m2) / s2)


def _normal_survival(params, x):
    from scipy.special import ndtr

    return ndtr(-(x - params[:, 0]) / params[:, 1])


def _mixture2_survival(params, x):
    from scipy.special import ndtr

    w, m1, s1, m2, s2 = params.T
    return w * ndtr(-(x - m1) / s1) + (1.0 - w) * ndtr(-(x - m2) / s2)


def _gamma_cdf(params, x):
    from scipy.special import gammainc

    return gammainc(params[:, 0], params[:, 1] * np.maximum(x, 0.0))


def _gamma_survival(params, x):
    from scipy.special import gammaincc

    return gammaincc(params[:, 0], params[:, 1] * np.maximum(x, 0.0))


def _gp_cdf(params, x):
    log_s = _gp_log_survival(params[:, 0], params[:, 1], np.maximum(x, 0.0))
    return np.where(x <= 0.0, 0.0, -np.expm1(log_s))


def _gp_survival(params, x):
    log_s = _gp_log_survival(params[:, 0], params[:, 1], np.maximum(x, 0.0))
    return np.where(x <= 0.0, 1.0, np.exp(log_s))


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
    survival: Callable | None  # (params, x) -> 1 - F(x) to relative precision
    crps: Callable  # (params, y) -> CRPS(F, y)
    tail: Callable | None = None  # (params, q) -> int_q^inf (1 - F)^2, q scalar
    wcrps: Callable | None = None  # (params, y, q) -> weighted CRPS, w = 1{x >= q}


# the fields that map rows to values: ``valid``, which gives booleans, is not one
_KERNELS = ("cdf", "survival", "crps", "tail", "wcrps")


_FAMILIES = {
    "normal": Family(
        Normal, 2, "std > 0",
        valid=lambda p: p[:, 1] > 0.0,
        cdf=_normal_cdf,
        survival=_normal_survival,
        crps=_columns(_crps_normal_kernel),
        tail=lambda p, q: p[:, 1] * _normal_tail_sq((q - p[:, 0]) / p[:, 1]),
    ),
    "normal_mixture2": Family(
        NormalMixture2, 5, "weight in [0, 1] and component stds > 0",
        valid=lambda p: (p[:, 0] >= 0.0) & (p[:, 0] <= 1.0) & (p[:, 2] > 0.0) & (p[:, 4] > 0.0),
        cdf=_mixture2_cdf,
        survival=_mixture2_survival,
        crps=_columns(_crps_mixture2_kernel),
        tail=_mixture2_tail_sq,
    ),
    "exponential": Family(
        Exponential, 1, "rate > 0",
        valid=lambda p: p[:, 0] > 0.0,
        cdf=lambda p, x: np.where(x <= 0.0, 0.0, -np.expm1(-p[:, 0] * np.maximum(x, 0.0))),
        survival=lambda p, x: np.where(x <= 0.0, 1.0, np.exp(-p[:, 0] * np.maximum(x, 0.0))),
        crps=_columns(_crps_exponential_kernel),
        tail=lambda p, q: np.exp(-2.0 * p[:, 0] * max(q, 0.0)) / (2.0 * p[:, 0]) + max(-q, 0.0),
    ),
    "gamma": Family(
        Gamma, 2, "shape > 0 and rate > 0",
        valid=lambda p: (p[:, 0] > 0.0) & (p[:, 1] > 0.0),
        cdf=_gamma_cdf,
        survival=_gamma_survival,
        crps=_columns(_crps_gamma_kernel),
        tail=lambda p, q: _gamma_tail_sq_kernel(p[:, 0], p[:, 1], q),
    ),
    "generalized_pareto": Family(
        GeneralizedPareto, 2, "scale > 0",
        valid=lambda p: p[:, 0] > 0.0,
        cdf=_gp_cdf,
        survival=_gp_survival,
        crps=_columns(_crps_gp_kernel),
        tail=lambda p, q: _gp_tail_sq_kernel(p[:, 0], p[:, 1], max(q, 0.0)) + max(-q, 0.0),
    ),
    "ensemble": Family(
        None, None, "at least one member",
        valid=lambda p: np.full(len(p), p.shape[1] > 0),
        cdf=_ensemble_cdf,
        survival=None,
        crps=_crps_ensemble_kernel,
        # chaining function v(z) = max(z, q) (Allen, Ginsbourger & Ziegel 2023)
        wcrps=lambda p, y, q: _crps_ensemble_kernel(np.maximum(p, q), np.maximum(y, q)),
    ),
}
# every kernel runs a block of rows at a time: see _row_blocks
_FAMILIES = {
    name: fam._replace(**{k: _row_blocks(getattr(fam, k)) for k in _KERNELS if getattr(fam, k)})
    for name, fam in _FAMILIES.items()
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
