"""Score-distribution verification tools.

Beyond mean scores: paired/shuffled score series, qq/pp comparison,
Diebold-Mariano equal-performance tests, and a Cramer-von Mises index that
scores how far a forecaster's extreme-event CRPS values sit from the
generalized-Pareto shape that climatological scores obey above a high
threshold.

The CvM machinery: order the m scores of threshold-exceedance records, map
them through a fitted GP tail law anchored at the threshold, and form

    T = 1/(12 m) + sum_i ( (2i-1)/(2m) - H(v_(i)) )^2.

Under a perfect match T follows the limiting Cramer-von Mises law, whose
log survival function is log1p(-cdf) with the cdf from the Anderson-Darling
Bessel-K_{1/4} series up to t = 2, and a smallest-eigenvalue asymptotic
above. Its log p against mpmath:

    t               reference                      |error in log p|
    0.0025 - 1.5    the series at 40 digits        1e-12 relative
    1.9 - 2         the series at 40 digits        2e-11 relative
    2.0001 - 1000   Smirnov's integral, 30 digits  0.04 / t

The extremes-skill index of a forecast F against a climatological reference is

    index = 1 - p_F / p_clim,

computed on log scale so the ratio stays meaningful long after both
p-values underflow (with 1e6 records the statistics are O(1e4)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import _FAMILIES, _blocks
from .errors import (
    DomainError,
    InsufficientDataError,
    ParameterError,
)
from .evt import GpFitResult, GpTail, fit_gp, shift_scale, threshold_grid
from .records import RecordBatch, _param_rows
from .scoring import crps_closed_batch, wcrps_quantile_batch

__all__ = [
    "ScoreSeries",
    "score_series",
    "shuffled_score_series",
    "QqPpResult",
    "qq_pp",
    "ks_two_sample_critical",
    "ks_one_sample_critical",
    "DmResult",
    "diebold_mariano",
    "DmMatrix",
    "dm_matrix",
    "cvm_from_probs",
    "cvm_statistic",
    "cvm_pvalue",
    "cvm_log_pvalue",
    "PitResult",
    "pit_calibration",
    "IndexResult",
    "extremes_index",
    "IndexCurve",
    "index_curve",
    "tail_shape_of_scores",
]


# ---------------------------------------------------------------------------
# Score series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreSeries:
    """Per-record scores with their pairing provenance."""

    values: np.ndarray
    pairing: str  # "paired" | "shuffled"
    obs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "obs", np.asarray(self.obs, dtype=float))
        if self.pairing not in ("paired", "shuffled"):
            raise ParameterError(f"unknown pairing {self.pairing!r}")
        if self.values.size != self.obs.size:
            raise ParameterError("scores and observations must align")

    def __len__(self):
        return self.values.size


def _score_batch(batch: RecordBatch, y: np.ndarray, weight_threshold) -> np.ndarray:
    if weight_threshold is None:
        return crps_closed_batch(batch.family, batch.params, y)
    return wcrps_quantile_batch(batch.family, batch.params, y, float(weight_threshold))


def score_series(batch: RecordBatch, weight_threshold: float | None = None) -> ScoreSeries:
    """CRPS (or quantile-weighted CRPS above ``weight_threshold``) per record.

    ``obs`` is a read-only view of ``batch.y``, not a copy.
    """
    vals = _score_batch(batch, batch.y, weight_threshold)
    obs = batch.y.view()
    obs.flags.writeable = False
    return ScoreSeries(values=vals, pairing="paired", obs=obs)


def _check_shuffle_seed(shuffle_seed: int) -> None:
    if shuffle_seed < 0:
        raise ParameterError(f"shuffle seed must be non-negative, got {shuffle_seed}")


def shuffled_score_series(
    batch: RecordBatch, shuffle_seed: int, weight_threshold: float | None = None
) -> ScoreSeries:
    """Scores against a seeded permutation of the observation column.

    Breaking the forecast/observation pairing while keeping both margins is
    the reference point for how much of the score distribution is pairing
    (information) rather than climatology.
    """
    _check_shuffle_seed(shuffle_seed)
    perm = np.random.default_rng(shuffle_seed).permutation(len(batch))
    y = batch.y[perm]
    vals = _score_batch(batch, y, weight_threshold)
    return ScoreSeries(values=vals, pairing="shuffled", obs=y)


# ---------------------------------------------------------------------------
# qq / pp comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QqPpResult:
    qq: np.ndarray  # (m, 2) paired quantiles
    pp: np.ndarray  # (k, 2) paired edf values on the pooled support
    ks_distance: float


def _values(x):
    return x.values if isinstance(x, ScoreSeries) else np.asarray(x, dtype=float)


def qq_pp(a, b) -> QqPpResult:
    """Quantile-quantile and probability-probability comparison of two samples.

    Each sample is sorted once; ``qq``, the pooled support and both edfs are
    taken from those two sorts, and the edfs are written into ``pp`` in place.
    """
    xa, xb = np.sort(_values(a)), np.sort(_values(b))
    if xa.size == 0 or xb.size == 0:
        raise InsufficientDataError("need non-empty samples to compare")
    if xa.size == xb.size:
        qq = np.column_stack([xa, xb])
    else:
        m = min(xa.size, xb.size)
        probs = (np.arange(1, m + 1) - 0.5) / m
        qq = np.column_stack([np.quantile(xa, probs), np.quantile(xb, probs)])
    pooled = np.unique(np.concatenate([xa, xb]))
    pp = np.empty((pooled.size, 2))
    for j, x in enumerate((xa, xb)):
        np.divide(np.searchsorted(x, pooled, side="right"), x.size, out=pp[:, j])
    del pooled
    gap = np.subtract(pp[:, 0], pp[:, 1])
    ks = float(np.max(np.abs(gap, out=gap)))
    return QqPpResult(qq=qq, pp=pp, ks_distance=ks)


def _ks_c(alpha: float, *sizes) -> float:
    """sqrt(-log(alpha / 2) / 2), after checking that 0 < alpha < 1 and that
    every sample size is at least 1 (:class:`ParameterError` otherwise)."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"significance level must lie in (0, 1), got {alpha}")
    if not all(size >= 1 for size in sizes):
        raise ParameterError(f"sample sizes must be at least 1, got {sizes}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


def ks_two_sample_critical(alpha: float, n: int, m: int) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical distance."""
    c = _ks_c(alpha, n, m)
    return c * math.sqrt((n + m) / (n * m))


def ks_one_sample_critical(alpha: float, n: int) -> float:
    return _ks_c(alpha, n) / math.sqrt(n)


# ---------------------------------------------------------------------------
# Diebold-Mariano
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DmResult:
    statistic: float
    p_value: float
    mean_diff: float
    n: int
    degenerate: bool = False  # zero-variance loss differential


def diebold_mariano(scores_a, scores_b, lag: int = 0) -> DmResult:
    """Equal-predictive-performance test on the loss differential a - b.

    Positive statistic: ``b`` scored lower (better). ``lag > 0`` switches the
    variance to a Newey-West window for serially dependent differentials;
    the default assumes independent records, which is what the simulation
    testbeds produce. A non-finite differential raises
    :class:`DomainError`, a negative or non-integer ``lag``
    :class:`ParameterError`.
    """
    from scipy.special import ndtr

    if isinstance(lag, bool) or not isinstance(lag, (int, np.integer)) or lag < 0:
        raise ParameterError(f"lag must be a non-negative integer, got {lag!r}")
    a, b = _values(scores_a), _values(scores_b)
    if a.size != b.size:
        raise ParameterError("score series must be paired (equal length)")
    n = a.size
    if n < 2:
        raise InsufficientDataError("need at least two paired scores")
    # the differential, centred and then squared in place: one array of n
    d = np.subtract(a, b)
    mean = float(d.mean())
    if not math.isfinite(mean):
        raise DomainError("score differential is not finite (NaN or infinite scores)")
    d -= mean
    # numpy's pairwise sums, not BLAS dot products, whose rounding depends on
    # the BLAS build and its thread count
    covs = [float(np.sum(d[ell:] * d[:-ell])) / n for ell in range(1, min(lag, n - 1) + 1)]
    var = float(np.sum(np.square(d, out=d))) / n
    for ell, cov in enumerate(covs, start=1):
        var += 2.0 * (1.0 - ell / (lag + 1.0)) * cov
    var /= n
    if var <= 0.0:
        if mean == 0.0:
            return DmResult(0.0, 1.0, mean, n, degenerate=True)
        return DmResult(math.copysign(math.inf, mean), 0.0, mean, n, degenerate=True)
    stat = mean / math.sqrt(var)
    p = 2.0 * float(ndtr(-abs(stat)))
    return DmResult(stat, p, mean, n)


@dataclass(frozen=True)
class DmMatrix:
    names: list[str]
    statistics: np.ndarray  # entry (i, j) > 0  <=>  row forecaster i better
    p_values: np.ndarray


def dm_matrix(scores: dict[str, np.ndarray], lag: int = 0) -> DmMatrix:
    """All-pairs DM statistics; entry (row, col) positive when row wins."""
    names = list(scores)
    k = len(names)
    stats = np.zeros((k, k))
    pvals = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            # d = col - row, so positive means the row's scores are lower
            res = diebold_mariano(scores[names[j]], scores[names[i]], lag=lag)
            stats[i, j] = res.statistic
            stats[j, i] = -res.statistic
            pvals[i, j] = pvals[j, i] = res.p_value
    return DmMatrix(names=names, statistics=stats, p_values=pvals)


# ---------------------------------------------------------------------------
# Cramer-von Mises statistic against a fitted GP tail
# ---------------------------------------------------------------------------


def cvm_from_probs(h) -> float:
    """T = 1/(12m) + sum((2i-1)/(2m) - h_i)^2 for probabilities in rank order.

    The probabilities must correspond to the *sorted* underlying values;
    feeding them out of rank order inflates the statistic, which is exactly
    what the formula is sensitive to.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ParameterError("need a non-empty 1-d probability vector")
    return _cvm_in_place(np.array(h))


def _cvm_in_place(h: np.ndarray) -> float:
    """:func:`cvm_from_probs` of ``h``, whose storage it reuses: each
    ``(2i - 1) / (2m) - h_i`` is formed and squared in place, a block of
    ranks at a time, and summed once over the whole array."""
    # NaN fails both comparisons
    if not np.all((h >= 0.0) & (h <= 1.0)):
        raise DomainError("probabilities must lie in [0, 1]")
    m = h.size
    for block in _blocks(m):
        i = np.arange(block.start + 1.0, block.stop + 1.0)
        i *= 2.0
        i -= 1.0
        i /= 2.0 * m
        np.subtract(i, h[block], out=h[block])
    return float(1.0 / (12.0 * m) + np.sum(np.square(h, out=h)))


def cvm_statistic(values, tail: GpTail) -> float:
    """CvM distance of sorted ``values`` from the tail law ``tail``.

    Values below the tail's threshold get probability 0 (they sit outside
    the fitted law's support), which correctly penalizes mass below it. A
    NaN value raises :class:`DomainError`.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise InsufficientDataError("no values")
    if np.isnan(v[-1]):  # NaN sorts last
        raise DomainError("values must not be NaN")
    # the tail law's cdf at v - u, each block of it written over its block of v
    v -= tail.threshold_ref
    law = tail.excess_law
    law._one_row(_FAMILIES[law.family].cdf, v, out=v)
    return _cvm_in_place(np.clip(v, 0.0, 1.0, out=v))


def _cvm_log_survival(t: np.ndarray) -> np.ndarray:
    """log P(W^2 > t) of the limiting Cramer-von Mises law, elementwise.

    Up to t = 2, log1p(-cdf) with Anderson and Darling's (1952) series
    cdf = sum_k c_k sqrt(4k + 1) e^(-z) K_{1/4}(z) / (pi sqrt(t)), where
    c_k = Gamma(k + 1/2) / (Gamma(1/2) k!) and z = (4k + 1)^2 / (16 t); above 2
    the asymptotic 2 sqrt(2) Phi_bar(pi sqrt(t)), whose p is 1.44 % low at
    t = 2.5 and 0.038 % low at t = 100. A NaN raises :class:`DomainError`.
    """
    from scipy.special import kve, log_ndtr

    if np.isnan(t).any():
        raise DomainError("CvM statistic must not be NaN")
    out = np.empty_like(t)
    big = t > 2.0
    # sits slightly below the series at the seam, preserving monotonicity
    out[big] = 1.5 * math.log(2.0) + log_ndtr(-math.pi * np.sqrt(t[big]))
    # below t = 1e-4 (t <= 0 too) each term is 0, and kve is NaN past z ~ 1e10
    s = np.maximum(t[~big], 1e-4)
    cdf = np.zeros_like(s)
    for k in range(7):  # at t = 2 the term k = 6 is below 1e-18 of the sum
        z = (4.0 * k + 1.0) ** 2 / (16.0 * s)
        log_c = (math.lgamma(k + 0.5) - math.lgamma(0.5) - math.lgamma(k + 1.0)
                 + 0.5 * math.log(4.0 * k + 1.0))
        # e^(-z) K_{1/4}(z) = e^(-2z) kve(1/4, z): no factor under- or overflows
        cdf += np.exp(log_c - 2.0 * z) * kve(0.25, z)
    out[~big] = np.log1p(-cdf / (np.pi * np.sqrt(s)))
    return out


def cvm_pvalue(t_stat):
    """Upper-tail p-value of the limiting Cramer-von Mises law.

    Vectorized over ``t_stat``; underflows to 0.0 for large statistics —
    use :func:`cvm_log_pvalue` when ratios of tiny p-values are needed.
    A NaN statistic raises :class:`DomainError`.
    """
    p = np.exp(cvm_log_pvalue(t_stat))
    return float(p) if p.ndim == 0 else p


def cvm_log_pvalue(t_stat):
    """log of :func:`cvm_pvalue`, finite far beyond float underflow."""
    t = np.asarray(t_stat, dtype=float)
    out = _cvm_log_survival(np.atleast_1d(t))
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


# ---------------------------------------------------------------------------
# Calibration screens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PitResult:
    values: np.ndarray
    max_dev: float  # Kolmogorov distance of the PIT sample from uniform
    approximate: bool = False  # True for rank-based ensemble PIT

    def band(self, alpha: float = 0.05) -> float:
        return ks_one_sample_critical(alpha, self.values.size)

    def auto_calibrated(self, alpha: float = 0.05) -> bool:
        return self.max_dev <= self.band(alpha)


def pit_calibration(batch: RecordBatch) -> PitResult:
    """Probability integral transform of every record, with its KS distance.

    Ensemble rows use the mid-rank surrogate and are flagged approximate.
    """
    pit = batch.cdf_at_obs()
    return PitResult(
        values=pit,
        max_dev=_ks_distance(np.sort(pit)),
        approximate=batch.family == "ensemble",
    )


def _ks_distance(u: np.ndarray) -> float:
    """Kolmogorov distance of the sorted sample ``u`` from uniform: the
    largest k / n - u_k and u_k - (k - 1) / n, a block of ranks at a time."""
    n = u.size
    if n == 0:
        raise InsufficientDataError("empty batch")
    max_dev = -math.inf
    for block in _blocks(n):
        side = np.arange(block.start + 1.0, block.stop + 1.0)
        side /= n
        side -= u[block]
        max_dev = max(max_dev, float(side.max()))
        side = np.arange(float(block.start), float(block.stop))
        side /= n
        max_dev = max(max_dev, float(np.subtract(u[block], side, out=side).max()))
    return max_dev


# ---------------------------------------------------------------------------
# Extremes-skill index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexResult:
    """CvM extremes-skill index of one forecast against a climatology."""

    threshold: float
    n_tail: int
    t_forecast: float
    t_clim: float
    p_forecast: float
    p_clim: float
    log_p_forecast: float
    log_p_clim: float
    index: float
    pathological: bool  # forecast fit the reference tail *better* than clim
    auto_calibrated: bool  # 5% KS screen on the forecast's PIT
    pit_max_dev: float
    order: float = math.nan  # quantile order when produced by index_curve
    note: str = ""


def extremes_index(
    batch_f: RecordBatch,
    batch_clim: RecordBatch,
    u: float,
    fit: GpFitResult,
    pit_alpha: float = 0.05,
) -> IndexResult:
    """index = 1 - p_F / p_clim from CvM distances above threshold ``u``.

    Both batches must carry the same observations; ``fit`` is a GP tail
    fitted to observation excesses at a base threshold at or below ``u``
    (see :func:`index_curve` for the standard pipeline). The p-ratio is
    formed on log scale, so the index saturates at 1 rather than turning
    into 0/0 when both p-values underflow. A forecast whose scores hug the
    reference tail more closely than the climatology's own scores gets a
    negative index and ``pathological=True``; an index from a forecast
    failing the PIT screen arrives with ``auto_calibrated=False`` and
    should not be read as extremes skill.
    """
    _, scores_f, scores_c = _tail_scores(batch_f, batch_clim, batch_f.y > u)
    pit = pit_calibration(batch_f)
    return _index_row(u, fit, scores_f, scores_c, pit.max_dev, pit.band(pit_alpha))


def _tail_scores(batch_f, batch_clim, rows):
    """The observations that ``rows`` (a mask or an index array) picks, and
    the CRPS of the forecast and of the climatology there, in that order."""
    if len(batch_f) != len(batch_clim) or not np.array_equal(batch_f.y, batch_clim.y):
        raise ParameterError("forecast and climatology batches must share observations")
    y = batch_f.y[rows]
    return (y, *(crps_closed_batch(b.family, _param_rows(b.params, rows, y.size), y)
                 for b in (batch_f, batch_clim)))


def _index_row(u, fit, scores_f, scores_c, pit_max_dev, pit_band) -> IndexResult:
    """The index row at threshold ``u`` from the CRPS of its exceedances and
    the forecast's PIT distance from uniform with its KS band."""
    m = scores_f.size
    if m < 10:
        raise InsufficientDataError(f"only {m} observations exceed the threshold {u}")
    tail_u = shift_scale(fit, float(u))
    t_f = cvm_statistic(scores_f, tail_u)
    t_c = cvm_statistic(scores_c, tail_u)
    log_pf = cvm_log_pvalue(t_f)
    log_pc = cvm_log_pvalue(t_c)
    ratio = math.exp(min(log_pf - log_pc, 500.0))
    return IndexResult(
        threshold=float(u),
        n_tail=m,
        t_forecast=t_f,
        t_clim=t_c,
        p_forecast=float(np.exp(log_pf)),
        p_clim=float(np.exp(log_pc)),
        log_p_forecast=log_pf,
        log_p_clim=log_pc,
        index=1.0 - ratio,
        pathological=log_pf > log_pc,
        auto_calibrated=pit_max_dev <= pit_band,
        pit_max_dev=pit_max_dev,
    )


# every field of a gap row but its threshold, order, tail count and note
_GAP_FIELDS = {
    **dict.fromkeys(("t_forecast", "t_clim", "p_forecast", "p_clim", "log_p_forecast",
                     "log_p_clim", "index", "pit_max_dev"), math.nan),
    "pathological": False,
    "auto_calibrated": False,
}


@dataclass(frozen=True)
class IndexCurve:
    rows: list[IndexResult]
    fit: GpFitResult


def index_curve(
    batch_f: RecordBatch,
    batch_clim: RecordBatch,
    quantile_orders,
    fit_order: float | None = None,
    method: str = "pwm",
) -> IndexCurve:
    """Extremes-skill index along a grid of observation quantile orders.

    The GP tail is fitted once, to observation excesses over the quantile at
    ``fit_order`` (default: the lowest requested order), then rescaled to
    each evaluation threshold by threshold stability. Thresholds that fail
    (too little tail data, threshold beyond the fitted endpoint) produce gap
    rows carrying a note instead of aborting the curve.
    """
    orders = np.asarray(quantile_orders, dtype=float)
    if orders.size == 0:
        raise ParameterError("need at least one quantile order")
    if np.any(np.diff(orders) < 0.0):
        raise DomainError("quantile orders must be non-decreasing")
    y = batch_f.y
    # the grid's thresholds and then the fit's, from one partition of y
    grid = np.append(orders, orders[0] if fit_order is None else fit_order)
    rank = np.argsort(grid, kind="stable")
    thresholds = np.empty(grid.size)
    thresholds[rank] = threshold_grid(y, grid[rank])
    thresholds, u0 = thresholds[:-1], float(thresholds[-1])
    excesses = y[y > u0]
    excesses -= u0
    fit = fit_gp(excesses, method=method, threshold=u0)
    del excesses
    # one PIT serves every threshold; only its distance and band are kept
    pit = batch_f.cdf_at_obs()
    pit.sort()
    pit_max_dev, pit_band = _ks_distance(pit), ks_one_sample_critical(0.05, pit.size)
    del pit
    # a record's CRPS does not depend on the threshold, and the exceedances
    # of a higher threshold are among those of the lowest one: scored once,
    # in observation order, each threshold's are a suffix
    tail = np.flatnonzero(y > thresholds[0])
    tail = tail[np.argsort(y[tail])]
    y_tail, scores_f, scores_c = _tail_scores(batch_f, batch_clim, tail)
    del tail
    rows = []
    for order, u in zip(orders, thresholds):
        keep = slice(int(np.searchsorted(y_tail, u, side="right")), None)
        try:
            row = _index_row(float(u), fit, scores_f[keep], scores_c[keep], pit_max_dev, pit_band)
        except (InsufficientDataError, DomainError) as exc:
            row = IndexResult(float(u), y_tail[keep].size, note=str(exc), **_GAP_FIELDS)
        rows.append(replace(row, order=float(order)))
    return IndexCurve(rows=rows, fit=fit)


def tail_shape_of_scores(series: ScoreSeries, u: float, method: str = "pwm") -> GpFitResult:
    """GP shape of the score values whose paired observation exceeds ``u``.

    Scores of exceedance records sit a forecast-dependent shift below the
    observations, so the selected scores are re-anchored at their minimum
    before fitting (the minimum estimates the lower endpoint of the
    conditional score law; the GP shape is unaffected by location).
    """
    sel = series.obs > u
    m = int(sel.sum())
    if m < 10:
        raise InsufficientDataError(f"only {m} scores have observations above {u}")
    v = series.values[sel]
    shift = float(v.min())
    excesses = v - shift
    excesses = excesses[excesses > 0.0]
    if excesses.size < 10:
        raise InsufficientDataError("too few strictly positive re-anchored scores")
    fit = fit_gp(excesses, method=method, threshold=0.0)
    diag = {**fit.diagnostics, "shift": shift, "n_selected": m}
    return GpFitResult(
        tail=fit.tail, method=fit.method, n_excesses=fit.n_excesses, diagnostics=diag
    )
