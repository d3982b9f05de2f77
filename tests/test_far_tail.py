"""Accuracy against mpmath, far beyond the forecast's bulk as well as inside
it: of the closed-form tails int_q^inf S(x)^2 dx, of the mixture's quantile,
and of the survival and the CRPS of the generalized Pareto and the Gamma."""

import mpmath
import numpy as np
import pytest

from crpstail import Gamma, GeneralizedPareto, NormalMixture2, crps_closed, simulate
from crpstail.distributions import _FAMILIES, _normal_tail_sq
from crpstail.scoring import _LEVELS, survival_sq_tail


def _mixture_tail_mp(row, q):
    """40-digit tanh-sinh quadrature of S^2, broken at each mean and 8 stds
    either side of it, and 1/4, 1 and 4 stds above q: without the last, the
    rule misses the steep decay beyond a q far above the bulk."""
    with mpmath.workdps(40):
        w, m1, s1, m2, s2 = (mpmath.mpf(float(v)) for v in row)
        q = mpmath.mpf(float(q))
        r1, r2 = 1 / (s1 * mpmath.sqrt(2)), 1 / (s2 * mpmath.sqrt(2))

        def sq(x):
            return (w * mpmath.erfc((x - m1) * r1) + (1 - w) * mpmath.erfc((x - m2) * r2)) ** 2 / 4

        pts = {m + k * s for m, s in ((m1, s1), (m2, s2)) for k in (-8, 0, 8)}
        pts |= {q + k * s for s in (s1, s2) for k in (0.25, 1, 4)}
        return float(mpmath.quad(sq, [q, *sorted(p for p in pts if p > q), mpmath.inf]))


def _unfocused_rows(order):
    """Simulated unfocused rows at the observations' quantile q of ``order``:
    by the gap from the upper mean up to q, the smallest, the median and the
    two largest."""
    batch = simulate("nn", "unfocused", 20_000, seed=7)
    q = float(np.quantile(batch.y, order))
    by_gap = np.argsort(q - np.maximum(batch.params[:, 1], batch.params[:, 3]))
    return [(tuple(map(float, batch.params[i])), q) for i in by_gap[[0, len(by_gap) // 2, -2, -1]]]


MIXTURE_CASES = [
    *_unfocused_rows(0.875),
    *_unfocused_rows(0.975),
    # far below both components (also in test_scoring)
    ((0.0, -239.0, 1.0, -237.0, 1.0), -1756.0),
    ((0.5, 0.0, 1e-3, 5000.0, 1e-3), -100.0),
    ((0.3, 0.0, 1.0, 800.0, 2.0), -9000.0),
    # one component only
    ((0.0, 0.5, 2.0, -1.0, 0.7), 0.3),
    ((1.0, 0.5, 2.0, -1.0, 0.7), 1.0),
    # q at the upper mean: the first orthant corner is 0, and with equal means
    # (one of them -0.0) both are
    ((0.3, 1.0, 1.0, 0.0, 2.0), 1.0),
    ((0.3, 1.5, 1.0, 1.5, 2.0), 1.5),
    ((0.3, -0.0, 1.0, 0.0, 2.0), 0.0),
    # six decades between the stds
    ((0.4, 0.0, 1e-3, 0.0, 1e3), 0.0),
    ((0.4, 10.0, 1e-3, 0.0, 1e3), 12.0),
    # 12 stds above the upper mean, either component first
    ((0.4, 0.0, 1.0, 2.0, 1.0), 14.0),
    ((0.6, 2.0, 1.0, 0.0, 1.0), 14.0),
]


@pytest.mark.parametrize(
    "row, q", MIXTURE_CASES, ids=[",".join(f"{v:g}" for v in (*r, q)) for r, q in MIXTURE_CASES]
)
def test_mixture_tail_matches_mpmath(row, q):
    got = _FAMILIES["normal_mixture2"].tail(np.array([row]), q)[0]
    want = _mixture_tail_mp(row, q)
    assert np.isfinite(got) and got >= 0.0
    if want >= 1e-8:
        assert abs(got - want) <= 1e-9 * want, (got, want)
    else:
        assert abs(got - want) <= 1e-15 * max(row[2], row[4]), (got, want)


def test_mixture_scalar_tail_is_the_batch_kernel():
    rows = np.array([row for row, _ in MIXTURE_CASES])
    for q in (-100.0, 0.0, 1.5, 14.0):
        batch = _FAMILIES["normal_mixture2"].tail(rows, q)
        scalar = [survival_sq_tail(NormalMixture2(*row), q) for row in rows]
        assert np.array(scalar).tobytes() == batch.tobytes()


def test_mixture_tail_rows_do_not_depend_on_the_batch():
    # the kernel works block by block; 65,536 rows is a block boundary
    params = simulate("nn", "unfocused", 70_000, seed=7).params
    tail = _FAMILIES["normal_mixture2"].tail
    whole = tail(params, 1.5)
    for rows in (slice(0, 3), slice(65_534, 65_539), slice(-3, None)):
        assert whole[rows].tobytes() == tail(params[rows], 1.5).tobytes()


def _mixture_tail_prob_mp(law, x, upper):
    """40-digit mpmath S(x) if ``upper``, else F(x), of a mixture."""
    with mpmath.workdps(40):
        w, m1, s1, m2, s2 = (mpmath.mpf(float(v)) for v in law.params)
        sign = -1 if upper else 1
        x = mpmath.mpf(float(x))
        return w * mpmath.ncdf(sign * (x - m1) / s1) + (1 - w) * mpmath.ncdf(sign * (x - m2) / s2)


@pytest.mark.parametrize("weight", ["0", "1e-6", "uniform", "1-1e-6", "1"])
def test_mixture_quantile_holds_its_tail_probability(weight):
    """At Q(p), F (p <= 1/2) or S (p > 1/2) lies within 1e-11 relative of
    min(p, 1 - p), or the root lies between Q(p) and a neighbouring float
    (a narrow component far from 0). Root finding on F - p left 9.5e-5 here."""
    g = np.random.default_rng(["0", "1e-6", "uniform", "1-1e-6", "1"].index(weight))
    for u in g.random((24, 5)):
        w = {"0": 0.0, "1e-6": 1e-6, "uniform": u[0], "1-1e-6": 1.0 - 1e-6, "1": 1.0}[weight]
        law = NormalMixture2(w, 20 * u[1] - 10, 10 ** (4 * u[2] - 2), 20 * u[3] - 10,
                             10 ** (4 * u[4] - 2))
        for p, x in zip(_LEVELS, law.quantile(_LEVELS)):
            upper = p > 0.5
            with mpmath.workdps(40):
                target = mpmath.mpf(1.0 - p if upper else p)  # 1 - p is exact
                miss = _mixture_tail_prob_mp(law, x, upper) - target
                if abs(miss) <= 1e-11 * target:
                    continue
                across = [_mixture_tail_prob_mp(law, np.nextafter(x, end), upper) - target
                          for end in (-np.inf, np.inf)]
            assert any(m * miss <= 0 for m in across), (law, p, x, float(miss / target))


def test_mixture_quantile_far_out():
    # 40-digit mpmath root of S(x) = 1 - p at the float p = 1 - 1e-12;
    # root finding on F - p gave 8.962915068416965
    got = NormalMixture2(0.4, 0.0, 1.0, 2.0, 1.0).quantile(1.0 - 1e-12)
    assert got == pytest.approx(8.962905284201429, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "s, want",
    # the closed form -s Sb^2 + 2 phi Sb - Sb(s sqrt 2) / sqrt(pi), Sb = 1 - Phi(s),
    # in 400-digit mpmath
    [(10.0, 2.861141146298708e-48), (20.0, 1.88857006418956e-179),
     (26.0, 1.176415767424007e-299)],
)
def test_normal_tail_far_out(s, want):
    assert _normal_tail_sq(np.float64(s)) == pytest.approx(want, rel=1e-9)


GP_CASES = [(shape, x) for shape in (1e-9, 5e-9, -5e-9, 9e-9) for x in (1.0, 30.0, 100.0)]


@pytest.mark.parametrize("shape, x", GP_CASES)
def test_gp_near_zero_shape_matches_mpmath(shape, x):
    # shape 0 stands in for these shapes only where |shape x / scale| < 1e-16:
    # at 9e-9 and x = 100 it is 4.5e-5 off the survival
    d = GeneralizedPareto(1.0, shape)
    with mpmath.workdps(40):
        xi, y = mpmath.mpf(shape), mpmath.mpf(x)

        def sf(t):
            # 0 beyond the upper endpoint -1/shape of a negative shape
            return max(1 + xi * t, 0) ** (-1 / xi)

        end = -1 / xi if xi < 0 else mpmath.inf
        crps = mpmath.quad(lambda t: (1 - sf(t)) ** 2, [0, y]) + mpmath.quad(
            lambda t: sf(t) ** 2, [y, y + 1, y + 10, end]
        )
        want_sf, want_crps = float(sf(y)), float(crps)
    assert d.survival(x) == pytest.approx(want_sf, rel=1e-13, abs=0.0)
    assert crps_closed(d, x) == pytest.approx(want_crps, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("x", [5.0, 10.0, 20.0])
def test_gamma_survival_far_out(x):
    # 1 - cdf cancels here: 7.9e-4 off at 10 and 0.0 at 20
    with mpmath.workdps(40):
        want = float(mpmath.gammainc(4, 4 * mpmath.mpf(x), mpmath.inf, regularized=True))
    assert Gamma(4.0, 4.0).survival(x) == pytest.approx(want, rel=1e-13, abs=0.0)
