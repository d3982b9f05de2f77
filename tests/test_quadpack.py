"""The package's QUADPACK port (``crpstail._quadpack``) against scipy's
``quad``: the result, the error estimate, ``ier`` with its warning, the
evaluation count and every subinterval list, bit for bit."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy import integrate

from crpstail import _quadpack, scoring, tail_analysis
from crpstail.distributions import (
    Exponential,
    Gamma,
    GeneralizedPareto,
    Normal,
    NormalMixture2,
    UniformMixture,
)
from crpstail.errors import IntegrationWarning
from crpstail.scoring import QuantileIndicatorWeight, TabulatedWeight


def _bits(values):
    return [float(v).hex() for v in values]


def assert_same(f, a, b, tol=1.49e-8, limit=50):
    """Run scipy and the port on one integral, compare every field and the
    warning, and return the port's run."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        want = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=limit, full_output=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _quadpack.quad(f, a, b, tol, limit)
    # scipy returns a message, not ier, when ier is 1 to 5
    message = want[3] if len(want) > 3 else None
    assert [(w.category, str(w.message)) for w in caught] == (
        [] if message is None else [(IntegrationWarning, message)]
    )
    if message is None:
        assert got.ier == 0
    else:
        assert _quadpack._MESSAGES[got.ier].format(limit=limit) == message
    info = want[2]
    last = info["last"]
    assert (got.neval, got.last) == (info["neval"], last)
    assert _bits([got.result, got.abserr]) == _bits(want[:2])
    for name in ("alist", "blist", "rlist", "elist"):
        assert _bits(getattr(got, name)) == _bits(info[name][:last]), name
    # DQPSRT ranks the intervals that can still be bisected
    assert len(got.iord) == min(last, limit // 2 + 2)
    assert got.iord == info["iord"][: len(got.iord)].tolist()
    return got


def _cases(seed, n, make):
    rng = np.random.default_rng(seed)
    return [make(rng) for _ in range(n)]


def _tol_limit(rng):
    return float(rng.choice([1.49e-8, 1e-10, 1e-12, 1e-13])), int(rng.choice([50, 200, 400]))


def _smooth(rng):
    kind = int(rng.integers(4))
    c, k = rng.uniform(-3.0, 3.0), rng.uniform(1.0, 60.0)
    f = [
        lambda x: math.exp(c * x),
        lambda x: math.sin(k * x + c),
        lambda x: 1.0 / (1.0 + k * x * x),
        lambda x: c * x ** 5 - x ** 2 + 0.5,
    ][kind]
    a = rng.uniform(-2.0, 0.5)
    return (f, a, a + rng.uniform(0.1, 4.0), *_tol_limit(rng))


def _kinked(rng):
    p, s = rng.uniform(0.05, 0.95), rng.uniform(0.5, 1.5)
    return (lambda x: abs(x - p) ** s, 0.0, 1.0, *_tol_limit(rng))


def _jump(rng):
    p, c, k = rng.uniform(0.05, 0.95), rng.uniform(-2.0, 2.0), int(rng.integers(2, 9))
    f = [lambda x: c + (x > p), lambda x: c * math.floor(k * x)][int(rng.integers(2))]
    return (f, 0.0, 1.0, *_tol_limit(rng))


def _singular(rng):
    """x^-1/2 and log x at either end of [0, b], and a power singularity
    between the ends: each needs extrapolation."""
    b, s = rng.uniform(0.5, 3.0), rng.uniform(0.2, 0.8)
    f = [
        lambda x: x ** -0.5 if x > 0.0 else 0.0,
        lambda x: math.log(x) if x > 0.0 else 0.0,
        lambda x: (b - x) ** -0.5 if x < b else 0.0,
        lambda x: math.log(b - x) if x < b else 0.0,
        lambda x: abs(x - b / 3.0) ** -s if x != b / 3.0 else 0.0,
    ][int(rng.integers(5))]
    return (f, 0.0, b, *_tol_limit(rng))


SMOOTH = _cases(1, 60, _smooth)
KINKED = _cases(2, 40, _kinked)
JUMP = _cases(3, 40, _jump)
SINGULAR = _cases(4, 60, _singular)


@pytest.mark.parametrize("case", SMOOTH + KINKED + JUMP)
def test_without_break_points(case):
    assert_same(*case)


@pytest.mark.parametrize("case", SINGULAR)
def test_endpoint_singularities(case):
    assert_same(*case)


def test_singular_ends_extrapolate():
    # the extrapolated result is not the sum of the subinterval results
    got = [assert_same(*case) for case in SINGULAR[:20]]
    assert sum(q.result != math.fsum(q.rlist) for q in got) >= 10


# the integrals the package hands to ``_quad``'s rule, infinite ends mapped
# and pieces split at the break points: the weighted CRPS of every family (and
# of a splice), a mean excess, the conditional weight excess, the splice gap
# (also split at a weight's knot) and the cup area
_BASE = GeneralizedPareto(1.0, 0.25)
_U = float(_BASE.quantile(0.99))
_SPLICED = tail_analysis.splice_tail(_BASE, Exponential(2.0 / (1.0 + 0.25 * _U)), _U)
_TAB = TabulatedWeight([0.0, 1.0, 3.0], [0.0, 1.0, 0.5])
PACKAGE_RUNS = {
    "normal": lambda: scoring.crps_quadrature(Normal(0.3, 1.2), 1.0, QuantileIndicatorWeight(0.5)),
    "normal_mixture2": lambda: scoring.crps_quadrature(
        NormalMixture2(0.3, -1.0, 0.5, 2.0, 1.5), -0.5),
    "exponential": lambda: scoring.crps_quadrature(Exponential(1.7), 2.0, _TAB),
    "gamma": lambda: scoring.crps_quadrature(Gamma(4.0, 4.0), 3.0, QuantileIndicatorWeight(1.2)),
    "generalized_pareto": lambda: scoring.crps_quadrature(GeneralizedPareto(1.0, 0.4), 0.7),
    "uniform_mixture": lambda: scoring.crps_quadrature(
        UniformMixture(((0.5, 0.0, 1.0), (0.5, 2.0, 5.0))), 1.5, _TAB),
    "spliced": lambda: scoring.crps_quadrature(_SPLICED, 9.0),
    "mean_excess": lambda: Gamma(2.0, 0.5).mean_excess(3.0),
    "weight_excess": lambda: tail_analysis.wcrps_gap_bound(Normal(0.0, 1.0), 0.5, _TAB),
    "gap_exact": lambda: tail_analysis.wcrps_gap_exact(_BASE, _SPLICED),
    "gap_exact_indicator": lambda: tail_analysis.wcrps_gap_exact(
        _BASE, _SPLICED, QuantileIndicatorWeight(_U + 20.0)),
    "cup_area": lambda: tail_analysis.ambiguity_region(0.0),
    # the extrapolation stalls (ier 4) on the mapped tail of a heavy Pareto
    "heavy_pareto": lambda: scoring.crps_quadrature(
        GeneralizedPareto(1.0, 1.95), 3.0, QuantileIndicatorWeight(2.0)),
}


def _recorded(run):
    """The (f, a, b, tol, limit) of every QUADPACK run of ``run``."""
    calls = []
    real = _quadpack.quad

    def spy(f, a, b, tol, limit):
        calls.append((f, a, b, tol, limit))
        return real(f, a, b, tol, limit)

    with mock.patch.object(_quadpack, "quad", spy), warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        run()
    return calls


@pytest.mark.parametrize("name", PACKAGE_RUNS)
def test_package_integrals(name):
    calls = _recorded(PACKAGE_RUNS[name])
    assert calls
    runs = [assert_same(*call) for call in calls]
    if name == "heavy_pareto":
        assert 4 in [q.ier for q in runs]


def test_every_family_maps_an_infinite_end():
    # each family's CRPS integrates at least one mapped tail over [0, 1]
    for name in ("normal", "normal_mixture2", "exponential", "gamma", "generalized_pareto",
                 "spliced"):
        assert any((a, b) == (0, 1) for _, a, b, *_ in _recorded(PACKAGE_RUNS[name])), name


@pytest.mark.parametrize(
    "ier, f, a, b, tol, limit",
    [
        (1, lambda x: 1.0 / x if x else 0.0, 0.0, 1.0, 1.49e-8, 50),
        (1, lambda x: math.sin(1e4 * x) * 1e-3 + 1.0, 0.0, 1.0, 1e-12, 200),
        (2, lambda x: math.log(abs(x - 0.3)) if x != 0.3 else 0.0, 0.0, 1.0, 1e-14, 50),
        (2, lambda x: 1.0 if x > 1 / 3 else 0.0, 0.0, 1.0, 1e-15, 50),
        (3, lambda x: 1.0 / abs(x - 1 / 3) if x != 1 / 3 else 0.0, 0.0, 1.0, 1.49e-8, 50),
        (4, lambda x: x ** -0.99 if x else 0.0, 0.0, 1.0, 1e-14, 50),
        (4, lambda x: abs(x - 1 / 3) ** -0.9 if x != 1 / 3 else 0.0, 0.0, 1.0, 1e-15, 200),
        (5, lambda x: x ** -1.5 if x else 0.0, 0.0, 1.0, 1.49e-8, 50),
        (5, lambda x: 1.0 / (x - 0.3) if x != 0.3 else 0.0, 0.0, 1.0, 1e-12, 200),
    ],
)
def test_each_ier_warns_with_scipys_message(ier, f, a, b, tol, limit):
    assert assert_same(f, a, b, tol, limit).ier == ier


@pytest.mark.parametrize("limit, tol", [(0, 1e-8), (50, 0.0)])
def test_invalid_input_raises(limit, tol):
    # no subinterval, or a tolerance below 50 machine epsilons
    with pytest.raises(ValueError):
        integrate.quad(math.exp, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=limit)
    with pytest.raises(ValueError, match="The input is invalid"):
        _quadpack.quad(math.exp, 0.0, 1.0, tol, limit)


def test_empty_range():
    got = _quadpack.quad(math.exp, 1.0, 1.0, 1e-8, 50)
    assert (got.result, got.abserr, got.ier, got.neval, got.last) == (0.0, 0.0, 0, 0, 0)


def test_results_are_python_floats():
    # numpy scalar ends must not turn the arithmetic into numpy's
    got = _quadpack.quad(math.exp, np.float64(0.0), np.float64(1.0), 1e-8, 50)
    assert type(got.result) is float and type(got.abserr) is float
