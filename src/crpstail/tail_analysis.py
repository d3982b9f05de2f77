"""Pareto-tail score analytics: the ambiguity cup and tail splices.

Two facts about CRPS evaluation of heavy tails live here.

First, when the truth is a generalized Pareto with scale ``sigma`` and shape
``gamma``, the expected CRPS of a misspecified Pareto forecast whose scale
and shape are both off by the same factor ``a`` is

    phi_gamma(a) = sigma/(1-gamma)
                   + 2*a*sigma * ( 1/(2*(2-a*gamma)) - 1/(1+a-a*gamma) ).

``phi`` dips below the flat level phi(0) = sigma/(1-gamma) on an interval
(0, a0) with a0 = 3/(1+gamma): the "ambiguity cup". Inside the cup every
forecast except the minimum at a = 1 has an equally-scoring counterpart on
the other side of the minimum, and the cup is shallow (its area stays within
[0.9, 1.0] * sigma for gamma up to 0.5), which is why expected CRPS alone
separates tail-equivalent forecasts so weakly.

Second, replacing the tail of a forecast above a high threshold u with any
stochastically dominated tail law changes the *expected* weighted CRPS by at
most ``2 * Fbar(u)^2 * E[W(X) - W(u) | X > u]`` — quadratically small in the
tail mass. The exact change has a closed integral form (the weighted squared
distance between the two cdfs above u), implemented here both as a
quadrature oracle and as a low-variance coupled Monte Carlo estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, Spliced, _quad
from .errors import (
    ConstructionError,
    DomainError,
    InfiniteMeanError,
    ParameterError,
)
from .scoring import UNIT, QuantileIndicatorWeight, UnitWeight, WeightFunction

__all__ = [
    "expected_crps_pareto",
    "CupGeometry",
    "ambiguity_region",
    "ambiguous_counterpart",
    "splice_tail",
    "wcrps_gap_bound",
    "wcrps_gap_exact",
    "spliced_gap_mc",
]


def _check_cup_params(gamma, sigma):
    if not (0.0 <= gamma < 1.0):
        raise ParameterError(f"cup analytics require 0 <= gamma < 1, got {gamma}")
    if not 0.0 < sigma < math.inf:
        raise ParameterError(f"scale must be finite and positive, got {sigma}")
    # every cup quantity is sigma times its value at sigma = 1, and the flat
    # level sigma / (1 - gamma) is the largest of them
    if math.isinf(sigma / (1.0 - gamma)):
        raise ParameterError(f"scale {sigma} overflows the flat level sigma / (1 - gamma)")


def expected_crps_pareto(a, gamma: float, sigma: float = 1.0):
    """Expected CRPS of the factor-``a`` misspecified Pareto forecast.

    The truth is GP(sigma, gamma); the factor-``a`` forecast is
    GP(a*sigma, a*gamma), the member of the proportional-hazards family
    whose survival is the truth's survival raised to the power 1/a — ``a``
    inflates (a > 1) or deflates (a < 1) the whole upper tail at once.

    Vectorized over ``a``. ``a = 0`` is the degenerate point-mass limit and
    scores sigma/(1-gamma); ``a = 1`` is the truth and is the unique
    minimizer at sigma/((2-gamma)*(1-gamma)).
    """
    _check_cup_params(gamma, sigma)
    a_arr = np.asarray(a, dtype=float)
    scalar = a_arr.ndim == 0
    if np.any(a_arr < 0.0):
        raise DomainError("forecast factor a must be non-negative")
    if np.any(a_arr * gamma >= 2.0):
        raise DomainError("a * gamma must stay below 2 (divergent tail integral)")
    out = sigma * (
        1.0 / (1.0 - gamma)
        + 2.0 * a_arr * (0.5 / (2.0 - a_arr * gamma) - 1.0 / (1.0 + a_arr - a_arr * gamma))
    )
    return float(out) if scalar else out


@dataclass(frozen=True)
class CupGeometry:
    """Geometry of the ambiguity cup for a (sigma, gamma) Pareto truth."""

    gamma: float
    sigma: float
    a0: float          # right edge: phi(a0) = phi(0), forecasts beyond score worse
    argmin: float      # the truth, a = 1
    phi_flat: float    # phi(0) = phi(a0) = sigma / (1 - gamma)
    phi_min: float     # phi(1) = sigma / ((2 - gamma) * (1 - gamma))
    area: float        # int_0^{a0} (phi(0) - phi(a)) da


def _cup_area_closed(gamma):
    """The cup area at sigma = 1."""
    a0 = 3.0 / (1.0 + gamma)
    return 2.0 * (
        a0 * (1.0 + gamma) / (2.0 * gamma * (1.0 - gamma))
        - math.log1p((1.0 - gamma) * a0) / (1.0 - gamma) ** 2
        + math.log1p(-a0 * gamma / 2.0) / gamma ** 2
    )


def _cup_area_quadrature(gamma):
    """The cup area at sigma = 1, cancellation-free for every gamma >= 0
    including exactly 0."""
    flat = 1.0 / (1.0 - gamma)
    return _quad(
        lambda a: flat - expected_crps_pareto(a, gamma),
        0.0,
        3.0 / (1.0 + gamma),
        tol=1e-13,
        limit=200,
    )


def ambiguity_region(gamma: float, sigma: float = 1.0) -> CupGeometry:
    """Edge, minimum and area of the ambiguity cup.

    The area uses the closed form for gamma >= 1e-3; below that the three
    closed-form terms cancel catastrophically, so the defining integral is
    evaluated by quadrature instead (they agree to ~1e-12 at the switch).
    """
    _check_cup_params(gamma, sigma)
    a0 = 3.0 / (1.0 + gamma)
    area = _cup_area_closed(gamma) if gamma >= 1e-3 else _cup_area_quadrature(gamma)
    return CupGeometry(
        gamma=gamma,
        sigma=sigma,
        a0=a0,
        argmin=1.0,
        phi_flat=sigma * (1.0 / (1.0 - gamma)),
        phi_min=sigma * (1.0 / ((2.0 - gamma) * (1.0 - gamma))),
        area=sigma * area,
    )


def ambiguous_counterpart(a: float, gamma: float, sigma: float = 1.0) -> float:
    """The other factor a' != a inside the cup with the same expected CRPS.

    Raises :class:`~crpstail.errors.DomainError` when ``a`` lies outside the
    cup [0, a0] or sits at the minimizer (where the counterpart degenerates
    to ``a`` itself).
    """
    _check_cup_params(gamma, sigma)
    a = float(a)
    a0 = 3.0 / (1.0 + gamma)
    if not (0.0 <= a <= a0):
        raise DomainError(f"a = {a} lies outside the ambiguity cup [0, {a0:.6g}]")
    if abs(a - 1.0) < 1e-6:
        raise DomainError(
            "a sits at the cup minimum; its equal-score counterpart is itself"
        )
    # phi(x) = phi(a) is the quadratic A x^2 - B x - 4c = 0 with
    # c = (phi(a) - phi(0)) / (2 sigma), formed without the cancelling
    # subtraction; a is one root, so the other is B/A - a, clamped to the cup
    # against rounding at its edges
    c = a * (0.5 / (2.0 - a * gamma) - 1.0 / (1.0 + a - a * gamma))
    big_a = 1.0 + gamma + 2.0 * c * gamma * (1.0 - gamma)
    big_b = 3.0 + 2.0 * c * (2.0 - 3.0 * gamma)
    return min(max(big_b / big_a - a, 0.0), a0)


# ---------------------------------------------------------------------------
# Tail splices
# ---------------------------------------------------------------------------


def splice_tail(
    base: Distribution, replacement: Distribution, u: float, grid_size: int = 10_000
) -> Spliced:
    """Replace the tail of ``base`` above ``u`` with a dominated tail law.

    Checks the stochastic-ordering condition
    ``H_bar(t) <= F_bar(u + t) / F_bar(u)`` on a log-spaced grid of
    ``grid_size`` points (tiny numerical slack allowed) and raises
    :class:`~crpstail.errors.ConstructionError` on violation. The ordering is
    what makes the spliced forecast a genuinely *lighter*-tailed version of
    the base, and is a hypothesis of the expected-score gap bound.
    """
    s_u = float(base.survival(u))
    if s_u <= 0.0:
        raise ConstructionError("base has no tail mass above the splice point")
    rlo, rhi = replacement.support()
    if rlo < 0.0:
        raise ConstructionError("replacement tail law must be supported on [0, inf)")

    horizons = [replacement.quantile(1.0 - 1e-12) if math.isinf(rhi) else rhi]
    blo, bhi = base.support()
    if math.isinf(bhi):
        horizons.append(float(base.quantile(1.0 - 1e-12)) - u)
    else:
        horizons.append(bhi - u)
    t_max = max(h for h in horizons if np.isfinite(h) and h > 0)
    t = np.geomspace(max(t_max * 1e-9, 1e-12), t_max, grid_size)
    lhs = np.asarray(replacement.survival(t), dtype=float) * s_u
    rhs = np.asarray(base.survival(u + t), dtype=float)
    bad = lhs > rhs * (1.0 + 1e-9) + 1e-15
    if np.any(bad):
        t_bad = float(t[np.argmax(bad)])
        raise ConstructionError(
            f"tail ordering violated at excess t = {t_bad:.6g}: replacement "
            "survival exceeds the conditional base survival"
        )
    return Spliced(base=base, replacement=replacement, splice_point=float(u))


def _conditional_weight_excess(
    dist: Distribution, u: float, weight: WeightFunction
) -> float:
    """E[W(X) - W(u) | X > u] = int_u^inf w(x) Fbar(x) dx / Fbar(u)."""
    s_u = float(dist.survival(u))
    if s_u <= 0.0:
        raise DomainError(f"survival({u}) = 0; nothing above the threshold")
    if isinstance(weight, UnitWeight):
        m = dist.mean_excess(u)
        if math.isinf(m):
            raise InfiniteMeanError("unit-weight gap bound needs a finite mean excess")
        return m
    if isinstance(weight, QuantileIndicatorWeight):
        q = weight.q
        if q <= u:
            return dist.mean_excess(u)
        s_q = float(dist.survival(q))
        if s_q == 0.0:
            return 0.0
        return dist.mean_excess(q) * s_q / s_u
    hi = dist.support()[1]
    excess = _quad(
        lambda x: float(weight.w(x)) * float(dist.survival(x)), u, hi, weight.knots(), limit=200
    )
    return excess / s_u


def wcrps_gap_bound(
    base: Distribution, u: float, weight: WeightFunction = UNIT
) -> float:
    """Upper bound on |E wCRPS(spliced, X) - E wCRPS(base, X)|, X ~ base.

    Equals ``2 * Fbar(u)^2 * E[W(X) - W(u) | X > u]``: quadratic in the tail
    mass above the splice point, which is the whole point — replacing a far
    tail is nearly free in expected score.
    """
    s_u = float(base.survival(u))
    return 2.0 * s_u * s_u * _conditional_weight_excess(base, u, weight)


def wcrps_gap_exact(
    base: Distribution, spliced: Spliced, weight: WeightFunction = UNIT
) -> float:
    """Exact expected-score gap: int_u^inf (G(t) - F(t))^2 w(t) dt.

    ``E_{X~F}[wCRPS(G, X)] - E_{X~F}[wCRPS(F, X)]`` reduces to the weighted
    squared cdf distance above the splice point; always >= 0, so a dominated
    tail replacement can only cost expected score, never gain.
    """

    def dbar(t):
        return float(base.survival(t)) - float(spliced.survival(t))

    return _quad(
        lambda t: dbar(t) ** 2 * float(weight.w(t)),
        spliced.splice_point,
        base.support()[1],
        weight.knots(),
        limit=400,
    )


def spliced_gap_mc(
    base: Distribution,
    spliced: Spliced,
    weight: WeightFunction = UNIT,
    n: int = 1_000_000,
    rng=0,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the expected-score gap.

    Uses the coupled representation
    ``wCRPS(G, x) - wCRPS(F, x) = K - 2 * J(max(u, x))`` with
    ``K = int_u^inf (Fbar - Gbar)(2 - Fbar - Gbar) w dt`` and
    ``J(x) = int_x^inf (Fbar - Gbar) w dt``, so each draw contributes the
    *difference* directly instead of two noisy scores. J is tabulated on a
    survival-geometric grid above u and interpolated.
    """
    u = spliced.splice_point
    s_u = float(base.survival(u))
    # grid geometric in base survival down to 1e-12 of it
    levels = s_u * np.exp(np.linspace(0.0, math.log(1e-12), 4001))
    x = np.asarray(base.quantile(1.0 - levels), dtype=float)
    x[0] = u
    kinks = [k for k in weight.knots() if x[0] < k < x[-1]]
    if kinks:
        # straddle each weight kink so the trapezoid rule sees the jump
        eps = 1e-9 * (x[-1] - x[0])
        extra = np.ravel([[k - eps, k, k + eps] for k in kinks])
        x = np.unique(np.concatenate([x, extra]))
    fbar = np.asarray(base.survival(x), dtype=float)
    gbar = np.asarray(spliced.survival(x), dtype=float)
    wgt = np.asarray(weight.w(x), dtype=float)
    d = (fbar - gbar) * wgt

    seg = 0.5 * (d[1:] + d[:-1]) * np.diff(x)
    # tail remainder beyond the last grid point via conditional mean excesses
    rem = fbar[-1] * base.mean_excess(x[-1]) - gbar[-1] * spliced.mean_excess(x[-1])
    rem = max(rem * float(weight.w(x[-1])), 0.0)
    j = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]]) + rem

    k_int = (fbar - gbar) * (2.0 - fbar - gbar) * wgt
    k = float(np.sum(0.5 * (k_int[1:] + k_int[:-1]) * np.diff(x))) + 2.0 * rem

    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    draws = base.sample(n, gen)
    j_at = np.interp(np.maximum(draws, u), x, j, left=j[0], right=0.0)
    vals = k - 2.0 * j_at
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))
