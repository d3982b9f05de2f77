"""Two synthetic testbeds with a hidden state and four forecaster archetypes.

Model "nn" (normal location uncertainty):
    hidden    Delta_t ~ N(0, 1)
    obs       Y_t | Delta_t ~ N(Delta_t, 1)
    ideal          N(Delta_t, 1)
    climatological N(0, sqrt(2))              (the exact marginal of Y)
    unfocused      0.5 N(Delta_t, 1) + 0.5 N(Delta_t + tau_t, 1), tau_t = +-2
    extremist      N(Delta_t + 5/2, 1)

Model "ge" (heavy-tail rate uncertainty):
    hidden    Delta_t ~ Gamma(4, 4)           (shape, rate)
    obs       Y_t | Delta_t ~ Exponential(rate Delta_t)
    ideal          Exponential(Delta_t)
    climatological generalized Pareto, scale 1, shape 1/4
                   (the exact marginal of Y: a Gamma-mixed exponential)
    unfocused      Exponential(Delta_t / tau_t),
                   tau_t = (2/3) U[1/2, 1] + (1/3) U[1, 2]  (independent uniforms)
    extremist      Exponential(Delta_t / 1.5)

Every record consumes exactly one Philox counter block (four uniforms:
hidden state, observation, two for the focus multiplier), so streams are
reproducible from (seed, t): simulating [0, T) and then any window [t0, t1)
with the same seed yields bit-identical records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, ParameterError
from .evt import threshold_grid
from .records import RecordBatch
from .scoring import wcrps_quantile_batch

__all__ = [
    "MODELS",
    "FORECASTERS",
    "simulate",
    "simulate_forecasters",
    "RankingCurve",
    "wcrps_ranking_curve",
]

MODELS = ("nn", "ge")
FORECASTERS = ("ideal", "climatological", "unfocused", "extremist")

_UNIFORMS_PER_RECORD = 4
# records drawn and transformed at a time: the uniforms of a whole stream
# are never held at once
_BLOCK_RECORDS = 2**16


def _uniforms(t: int, seed: int, t0: int):
    """(start, block) pairs: the stream's (t, 4) uniforms from the
    counter-indexed substream of ``seed``, ``_BLOCK_RECORDS`` rows at a time.

    Philox.advance moves one 4-word counter block per unit — exactly one
    record's worth of draws — so advancing by t0 lands on record t0, and
    successive draws continue the stream where the last block stopped.
    """
    gen = Generator(Philox(key=seed))
    if t0:
        gen.bit_generator.advance(t0)
    for start in range(0, t, _BLOCK_RECORDS):
        u = gen.random((min(_BLOCK_RECORDS, t - start), _UNIFORMS_PER_RECORD))
        yield start, np.clip(u, 1e-17, 1.0 - 1e-16, out=u)


def simulate(
    model: str, forecaster: str, t: int, seed: int = 0, t0: int = 0
) -> RecordBatch:
    """Simulate ``t`` records of a model/forecaster pair.

    The observation stream depends only on (model, seed, t0), never on the
    forecaster, so batches simulated with different forecasters but the same
    seed are score-comparable record by record.
    """
    return simulate_forecasters(model, (forecaster,), t, seed, t0)[forecaster]


def simulate_forecasters(
    model: str, forecasters, t: int, seed: int = 0, t0: int = 0
) -> dict[str, RecordBatch]:
    """One batch per forecaster name on one simulated observation stream.

    Each batch equals ``simulate(model, name, t, seed, t0)`` bit for bit, but
    the hidden state and the observations are drawn once and shared: the
    batches hold the same ``t``, ``y`` and ``hidden`` arrays. The
    climatological forecaster's ``params`` are a read-only view of its one
    constant row.
    """
    forecasters = tuple(forecasters)
    if model not in MODELS:
        raise ParameterError(f"unknown model {model!r} (expected one of {MODELS})")
    for forecaster in forecasters:
        if forecaster not in FORECASTERS:
            raise ParameterError(
                f"unknown forecaster {forecaster!r} (expected one of {FORECASTERS})"
            )
    if t <= 0:
        raise DomainError("record count must be positive")
    if not 0 <= seed < 2**128:
        raise ParameterError(f"seed must lie in [0, 2**128), got {seed}")
    stream, focus, forecast = _STREAMS[model]
    delta, y = np.empty(t), np.empty(t)
    tau = np.empty(t) if "unfocused" in forecasters else None
    for start, u in _uniforms(t, seed, t0):
        rows = slice(start, start + len(u))
        delta[rows], y[rows] = stream(u)
        if tau is not None:
            tau[rows] = focus(u)
    ts = np.arange(t0, t0 + t, dtype=np.int64)
    batches = {}
    for name in forecasters:
        family, params = forecast(name, delta, tau)
        batches[name] = RecordBatch(
            t=ts, y=y, family=family, params=params, hidden=delta, model=model
        )
    return batches


def _nn_stream(u):
    from scipy.special import ndtri

    delta = ndtri(u[:, 0])
    return delta, delta + ndtri(u[:, 1])


def _nn_focus(u):
    return np.where(u[:, 2] < 0.5, -2.0, 2.0)


def _nn_forecast(forecaster, delta, tau):
    n = delta.size
    if forecaster == "climatological":
        return "normal", np.broadcast_to([0.0, math.sqrt(2.0)], (n, 2))
    # the rows are filled column by column: no column is held twice
    if forecaster == "unfocused":
        params = np.empty((n, 5))
        params[:, 0] = 0.5
        params[:, 1] = delta
        np.add(delta, tau, out=params[:, 3])
        params[:, 2::2] = 1.0
        return "normal_mixture2", params
    params = np.empty((n, 2))
    if forecaster == "ideal":
        params[:, 0] = delta
    else:
        np.add(delta, 2.5, out=params[:, 0])  # extremist
    params[:, 1] = 1.0
    return "normal", params


def _ge_stream(u):
    from scipy.special import gammaincinv

    delta = gammaincinv(4.0, u[:, 0]) / 4.0
    return delta, -np.log1p(-u[:, 1]) / delta


def _ge_focus(u):
    return (2.0 / 3.0) * (0.5 + 0.5 * u[:, 2]) + (1.0 / 3.0) * (1.0 + u[:, 3])


def _ge_forecast(forecaster, delta, tau):
    if forecaster == "ideal":
        return "exponential", delta[:, None].copy()
    if forecaster == "climatological":
        return "generalized_pareto", np.broadcast_to([1.0, 0.25], (delta.size, 2))
    if forecaster == "unfocused":
        return "exponential", (delta / tau)[:, None]
    return "exponential", (delta / 1.5)[:, None]  # extremist


# model -> (uniforms -> (hidden, y), uniforms -> the unfocused forecaster's
# focus multiplier tau, (forecaster, hidden, tau) -> (family, params))
_STREAMS = {
    "nn": (_nn_stream, _nn_focus, _nn_forecast),
    "ge": (_ge_stream, _ge_focus, _ge_forecast),
}


@dataclass(frozen=True)
class RankingCurve:
    """Mean quantile-weighted CRPS per forecaster along a threshold grid."""

    model: str
    orders: np.ndarray
    thresholds: np.ndarray
    means: dict[str, np.ndarray]

    def log1p_means(self) -> dict[str, np.ndarray]:
        return {k: np.log1p(v) for k, v in self.means.items()}

    def ranks(self) -> dict[str, np.ndarray]:
        """1 = lowest mean weighted score at that threshold."""
        names = list(self.means)
        stacked = np.vstack([self.means[k] for k in names])
        order = np.argsort(np.argsort(stacked, axis=0), axis=0) + 1
        return {k: order[i] for i, k in enumerate(names)}


def wcrps_ranking_curve(
    model: str,
    t: int,
    quantile_orders,
    seed: int = 0,
    forecasters=FORECASTERS,
) -> RankingCurve:
    """Simulate one observation stream with a batch per forecaster and average
    the quantile-indicator weighted CRPS at each threshold order."""
    orders = np.asarray(quantile_orders, dtype=float)
    batches = simulate_forecasters(model, forecasters, t, seed)
    y = batches[next(iter(batches))].y
    thresholds = threshold_grid(y, orders)
    means = {name: np.empty(orders.size) for name in batches}
    for j, q in enumerate(thresholds):
        for name, batch in batches.items():
            vals = wcrps_quantile_batch(batch.family, batch.params, batch.y, float(q))
            means[name][j] = float(vals.mean())
    return RankingCurve(model=model, orders=orders, thresholds=thresholds, means=means)
