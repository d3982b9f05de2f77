"""Reference values and output checks for the benchmark workloads.

Every formula here is written from its definition, independently of the
``crpstail`` code it checks, and this module never imports ``crpstail``.
A check counts each row (or each invariant) it looks at as one attempted
operation; a row that misses any of its checks is one failure, and every
miss is printed.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import numpy as np
from scipy import integrate
from scipy.special import beta, gammainc

# closed form against closed form: only rounding separates them
CLOSED_RTOL = 1e-9
CLOSED_ATOL = 1e-12
# adaptive quadrature against the Gamma closed form: bulk rows agree to ~1e-13
GAMMA_RTOL = 1e-8
GAMMA_ATOL = 1e-10


class Checker:
    """Tallies attempted and failed checks and prints every miss on stderr.

    ``known`` marks misses that reproduce a defect already on record: they
    are tallied in ``known``, not in ``failed``, and do not make the run
    incorrect. Both are printed and reported.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0

    def _miss(self, label: str, known: bool) -> None:
        if known:
            self.known += 1
        else:
            self.failed += 1
        print(f"check {'known defect' if known else 'FAIL'}: {label}", file=sys.stderr)

    def expect(self, ok: bool, label: str, known: bool = False) -> None:
        """One invariant: one attempted operation."""
        self.attempted += 1
        if not ok:
            self._miss(label, known)

    def rows(self, what: str, checks: dict, known=None) -> None:
        """Per-row checks over a table: each row is one attempted operation.

        ``checks`` maps a check name to a boolean array (True = row passes);
        ``known`` is an optional boolean array of rows with a known defect.
        """
        masks = {k: np.asarray(v, dtype=bool) for k, v in checks.items()}
        n = len(next(iter(masks.values())))
        self.attempted += n
        ok = np.logical_and.reduce(list(masks.values()))
        for i in np.flatnonzero(~ok):
            missed = ", ".join(k for k, m in masks.items() if not m[i])
            self._miss(f"{what} row {i}: {missed}", bool(known is not None and known[i]))

    def error(self, label: str) -> None:
        """An operation that could not be checked at all (missing output)."""
        self.expect(False, label)


def close(a, b, rtol: float, atol: float) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.isfinite(a) & (np.abs(a - b) <= atol + rtol * np.abs(b))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def crps_exponential(rate, y):
    """CRPS of Exp(rate) at y >= 0: y + 2 e^{-rate y} / rate - 1.5 / rate."""
    return y + 2.0 * np.exp(-rate * y) / rate - 1.5 / rate


def twcrps_exponential(rate, y, q):
    """CRPS weighted by 1{x >= q} (q >= 0) for Exp(rate), from its definition.

    y < q:  int_q^inf S(x)^2 dx = e^{-2 rate q} / (2 rate);
    y >= q: int_q^y F(x)^2 dx + int_y^inf S(x)^2 dx
            = (y - q) - 2 (e^{-rate q} - e^{-rate y}) / rate + e^{-2 rate q} / (2 rate).
    """
    tail = np.exp(-2.0 * rate * q) / (2.0 * rate)
    above = (y - q) - 2.0 * (np.exp(-rate * q) - np.exp(-rate * y)) / rate + tail
    return np.where(y >= q, above, tail)


def crps_gamma(shape, rate, y):
    """Gamma CRPS (Scheuerer & Moeller 2015, Ann. Appl. Stat.).

    y (2 F_a(y) - 1) - (a / b)(2 F_{a+1}(y) - 1) - 1 / (b B(1/2, a)).
    """
    return (
        y * (2.0 * gammainc(shape, rate * y) - 1.0)
        - shape / rate * (2.0 * gammainc(shape + 1.0, rate * y) - 1.0)
        - 1.0 / (rate * beta(0.5, shape))
    )


def twcrps_gamma(shape, rate, y, q):
    """Gamma CRPS weighted by 1{x >= q}: CRPS(F, max(y, q)) - int_0^q F(x)^2 dx."""
    out = np.empty(len(y))
    for i in range(len(y)):
        head, _ = integrate.quad(
            lambda x: gammainc(shape[i], rate[i] * x) ** 2,
            0.0,
            q,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
        )
        out[i] = crps_gamma(shape[i], rate[i], max(y[i], q)) - head
    return out


def gp_survival(x, sigma, gamma):
    return (1.0 + gamma * x / sigma) ** (-1.0 / gamma)


def expected_crps_factor_pareto(a: float, gamma: float, sigma: float = 1.0) -> float:
    """E_{X ~ GP(sigma, gamma)} CRPS(GP(a sigma, a gamma), X) by quadrature.

    E CRPS(G, X) = int (G - F)^2 + F (1 - F) dx, and the factor-a forecast
    has survival S_F^{1/a}; a = 0 is the point mass at 0 (G = 1 on x > 0).
    """

    def integrand(x):
        s = gp_survival(x, sigma, gamma)
        sg = 0.0 if a == 0.0 else s ** (1.0 / a)
        return (sg - s) ** 2 + s * (1.0 - s)

    val, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400)
    return val


# ---------------------------------------------------------------------------
# file readers
# ---------------------------------------------------------------------------


def read_csv(path):
    """Header and rows of a CSV report (all cells as strings)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def csv_columns(path):
    header, rows = read_csv(path)
    return {name: [r[j] for r in rows] for j, name in enumerate(header)}, len(rows)


def floats(col) -> np.ndarray:
    return np.array([float(v) for v in col])


def read_jsonl(path):
    """t, y, hidden (or None), params and family of a record file."""
    t, y, hidden, params, families = [], [], [], [], set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            t.append(obj["t"])
            y.append(obj["y"])
            hidden.append(obj.get("hidden"))
            params.append(obj["forecast"]["params"])
            families.add(obj["forecast"]["family"])
    has_hidden = all(h is not None for h in hidden)
    return {
        "t": np.array(t),
        "y": np.array(y, dtype=float),
        "hidden": np.array(hidden, dtype=float) if has_hidden else None,
        "params": np.array(params, dtype=float),
        "families": families,
    }


# ---------------------------------------------------------------------------
# checks per output
# ---------------------------------------------------------------------------


def check_simulated(ck: Checker, path, t: int):
    """ge / ideal records: t = 0..T-1, y > 0, one positive rate equal to hidden."""
    rec = read_jsonl(path)
    ck.expect(rec["families"] == {"exponential"}, f"{path}: families {rec['families']}")
    ck.expect(len(rec["y"]) == t, f"{path}: {len(rec['y'])} records, expected {t}")
    rate = rec["params"][:, 0]
    n = len(rec["y"])
    hidden = rec["hidden"] if rec["hidden"] is not None else np.full(n, np.nan)
    ck.rows(
        str(path),
        {
            "t": rec["t"] == np.arange(n),
            "y>0": np.isfinite(rec["y"]) & (rec["y"] > 0.0),
            "rate>0": np.isfinite(rate) & (rate > 0.0),
            "rate==hidden": rate == hidden,
        },
    )
    return rec


def _shuffled(y, shuffle_seed):
    """Observations under the seeded permutation the score command documents."""
    return y[np.random.default_rng(shuffle_seed).permutation(len(y))]


def check_exponential_scores(ck: Checker, path, rec, weight_quantile, shuffle_seed):
    """score --weight-quantile --shuffle-seed on an exponential record file."""
    cols, n = csv_columns(path)
    ck.expect(
        list(cols) == ["t", "y", "crps", "wcrps", "crps_shuffled"],
        f"{path}: header {list(cols)}",
    )
    ck.expect(n == len(rec["y"]), f"{path}: {n} rows for {len(rec['y'])} records")
    if n != len(rec["y"]) or "crps_shuffled" not in cols:
        return
    rate, y = rec["params"][:, 0], rec["y"]
    q = float(np.quantile(y, weight_quantile))
    crps, wcrps = floats(cols["crps"]), floats(cols["wcrps"])
    ck.rows(
        str(path),
        {
            "t": floats(cols["t"]) == rec["t"],
            "y": floats(cols["y"]) == y,
            "crps oracle": close(crps, crps_exponential(rate, y), CLOSED_RTOL, CLOSED_ATOL),
            "wcrps oracle": close(wcrps, twcrps_exponential(rate, y, q), CLOSED_RTOL, CLOSED_ATOL),
            "0<=wcrps<=crps": (wcrps >= 0.0) & (wcrps <= crps * (1.0 + 1e-12)),
            "crps_shuffled oracle": close(
                floats(cols["crps_shuffled"]),
                crps_exponential(rate, _shuffled(y, shuffle_seed)),
                CLOSED_RTOL,
                CLOSED_ATOL,
            ),
        },
    )


def check_qqpp(ck: Checker, path, rec, weight_quantile, shuffle_seed):
    """verify qqpp: sorted paired / shuffled weighted scores, then the two edfs."""
    header, rows = read_csv(path)
    ck.expect(header == ["kind", "paired", "shuffled"], f"{path}: header {header}")
    rate, y = rec["params"][:, 0], rec["y"]
    q = float(np.quantile(y, weight_quantile))
    qq = np.array([[float(r[1]), float(r[2])] for r in rows if r[0] == "qq"]).reshape(-1, 2)
    pp = np.array([[float(r[1]), float(r[2])] for r in rows if r[0] == "pp"]).reshape(-1, 2)
    ck.expect(len(qq) == len(y), f"{path}: {len(qq)} qq rows for {len(y)} records")
    ck.expect(len(qq) + len(pp) == len(rows), f"{path}: rows of unknown kind")
    if len(qq) == len(y):
        paired = np.sort(twcrps_exponential(rate, y, q))
        shuffled = np.sort(twcrps_exponential(rate, _shuffled(y, shuffle_seed), q))
        ck.rows(
            f"{path} qq",
            {
                "paired oracle": close(qq[:, 0], paired, CLOSED_RTOL, CLOSED_ATOL),
                "shuffled oracle": close(qq[:, 1], shuffled, CLOSED_RTOL, CLOSED_ATOL),
            },
        )
    if len(pp):
        step = np.diff(pp, axis=0, prepend=0.0)
        ck.rows(
            f"{path} pp",
            {
                "in [0,1]": np.all((pp >= 0.0) & (pp <= 1.0), axis=1),
                "non-decreasing": np.all(step >= 0.0, axis=1),
            },
        )
        ck.expect(bool(np.all(pp[-1] == 1.0)), f"{path}: pp does not end at (1, 1)")


def check_fit_gp(ck: Checker, path, rec, order: float = 0.95):
    """The ge marginal is GP(1, 1/4); above u its excesses are GP(1 + u/4, 1/4).

    Shape and scale must sit within 5 asymptotic MLE standard errors:
    (1 + g) / sqrt(n) for the shape, sqrt(2 (1 + g) / n) relative for the scale.
    """
    cols, n = csv_columns(path)
    ck.expect(n == 1, f"{path}: {n} rows, expected 1")
    if n != 1:
        return
    y = rec["y"]
    u = float(np.quantile(y, order))
    n_exc = int((y > u).sum())
    sigma, gamma = float(cols["sigma"][0]), float(cols["gamma"][0])
    ck.expect(
        abs(gamma - 0.25) <= 5.0 * 1.25 / math.sqrt(n_exc),
        f"{path}: shape {gamma} not near 1/4",
    )
    ck.expect(
        abs(sigma / (1.0 + u / 4.0) - 1.0) <= 5.0 * math.sqrt(2.5 / n_exc),
        f"{path}: scale {sigma} not near {1.0 + u / 4.0}",
    )
    ck.expect(close(float(cols["threshold"][0]), u, 1e-12, 0.0).all(), f"{path}: threshold")
    ck.expect(int(cols["n_excesses"][0]) == n_exc, f"{path}: n_excesses")
    ck.expect(cols["method"][0] == "mle", f"{path}: method {cols['method'][0]}")


INDEX_ORDERS = (0.75, 0.8, 0.85, 0.9, 0.95, 0.99)


def ks_critical(alpha: float, n: int) -> float:
    """Asymptotic one-sample Kolmogorov-Smirnov critical distance."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def check_index_curve(ck: Checker, path, t: int):
    """Default index curve of the ideal forecaster: index in (0, 1], no gaps.

    The ideal forecaster's PIT is exactly uniform, so the 5% KS screen
    flags it on one seed in twenty. The flag is therefore checked against
    the 5% band, and calibration itself at the 1e-6 level.
    """
    cols, n = csv_columns(path)
    ck.expect(n == len(INDEX_ORDERS), f"{path}: {n} rows, expected {len(INDEX_ORDERS)}")
    if n != len(INDEX_ORDERS):
        return
    order = floats(cols["order"])
    index = floats(cols["index"])
    n_tail = floats(cols["n_tail"])
    pit_dev = floats(cols["pit_max_dev"])
    ck.rows(
        str(path),
        {
            "order": order == np.array(INDEX_ORDERS),
            "index in (0,1]": (index > 0.0) & (index <= 1.0),
            "no gap note": np.array(cols["note"]) == "",
            "n_tail": np.abs(n_tail - (1.0 - order) * t) <= 1.0,
            "auto_calibrated flag": np.array(cols["auto_calibrated"])
            == np.where(pit_dev <= ks_critical(0.05, t), "1", "0"),
            "calibrated at 1e-6": pit_dev <= ks_critical(1e-6, t),
        },
    )


DM_ORDERS = (0.875, 0.975)


def check_dm(ck: Checker, path):
    """All-pairs DM: antisymmetric, p in [0, 1], ideal beats climatological."""
    header, rows = read_csv(path)
    ck.expect(header == ["quantile", "row", "col", "statistic", "p_value"], f"{path}: header")
    ck.expect(len(rows) == 12 * len(DM_ORDERS), f"{path}: {len(rows)} rows")
    stat = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    p = np.array([float(r[4]) for r in rows])
    mirror = np.array([stat.get((r[0], r[2], r[1]), math.nan) for r in rows])
    ck.rows(
        str(path),
        {
            "p in [0,1]": (p >= 0.0) & (p <= 1.0),
            "antisymmetric": np.array([float(r[3]) for r in rows]) == -mirror,
        },
    )
    for order in DM_ORDERS:
        s = stat.get((repr(order), "ideal", "climatological"), math.nan)
        ck.expect(s > 0.0, f"{path}: ideal does not beat climatological at {order} ({s})")


def check_gamma_scores(ck: Checker, path, rec, weight_quantile, far):
    """score --weight-quantile on the gamma file.

    ``far`` marks the rows placed beyond Q(1 - 1e-12); the clamped
    quadrature integrand is known to miss those (ROADMAP item 1).
    """
    cols, n = csv_columns(path)
    ck.expect(list(cols) == ["t", "y", "crps", "wcrps"], f"{path}: header {list(cols)}")
    ck.expect(n == len(rec["y"]), f"{path}: {n} rows for {len(rec['y'])} records")
    if n != len(rec["y"]) or "wcrps" not in cols:
        return
    shape, rate, y = rec["params"][:, 0], rec["params"][:, 1], rec["y"]
    q = float(np.quantile(y, weight_quantile))
    crps, wcrps = floats(cols["crps"]), floats(cols["wcrps"])
    ck.rows(
        str(path),
        {
            "y": floats(cols["y"]) == y,
            "crps gamma oracle": close(crps, crps_gamma(shape, rate, y), GAMMA_RTOL, GAMMA_ATOL),
            "wcrps gamma oracle": close(
                wcrps, twcrps_gamma(shape, rate, y, q), GAMMA_RTOL, GAMMA_ATOL
            ),
            "0<=wcrps<=crps": (wcrps >= 0.0) & (wcrps <= crps * (1.0 + 1e-12)),
        },
        known=far,
    )


CUP_GAMMAS = (0.1, 0.25, 0.4)
CUP_GRID = 401
CUP_ORACLE_EVERY = 40


def check_cup(ck: Checker, path):
    """verify cup: grid on [0, 3/(1+g)], phi(0) = phi(a0) = 1/(1-g) >= phi(1).

    Every grid row is checked against the cup's floor; every 40th row also
    against the expected score computed from its definition.
    """
    header, rows = read_csv(path)
    ck.expect(header == ["gamma", "a", "phi"], f"{path}: header {header}")
    ck.expect(len(rows) == CUP_GRID * len(CUP_GAMMAS), f"{path}: {len(rows)} rows")
    for g in CUP_GAMMAS:
        sel = [r for r in rows if float(r[0]) == g]
        if len(sel) != CUP_GRID:
            ck.error(f"{path}: {len(sel)} rows for gamma={g}")
            continue
        a, phi = floats([r[1] for r in sel]), floats([r[2] for r in sel])
        flat, floor = 1.0 / (1.0 - g), 1.0 / ((2.0 - g) * (1.0 - g))
        oracle = np.full(CUP_GRID, np.nan)
        idx = np.arange(0, CUP_GRID, CUP_ORACLE_EVERY)
        oracle[idx] = [expected_crps_factor_pareto(a[i], g) for i in idx]
        has_oracle = np.isfinite(oracle)
        ck.rows(
            f"{path} gamma={g}",
            {
                "grid": close(a, np.linspace(0.0, 3.0 / (1.0 + g), CUP_GRID), 1e-14, 1e-15),
                "phi >= phi(1)": phi >= floor * (1.0 - 1e-12),
                "phi <= phi(0)": phi <= flat * (1.0 + 1e-12),
                "phi oracle": ~has_oracle | close(phi, oracle, 1e-8, 1e-12),
            },
        )
        ck.expect(
            close([phi[0], phi[-1]], [flat, flat], 1e-12, 0.0).all(),
            f"{path}: gamma={g} cup edges {phi[0]}, {phi[-1]} != {flat}",
        )


def check_splice(ck: Checker, path, n: int):
    """Library step: GP(1, 1/4) spliced above its 0.99 quantile with Exp(rate).

    Exact gap int_u^inf (F_bar - G_bar)^2 dt, with G_bar(t) = F_bar(u) e^{-rate (t-u)},
    and the bound 2 F_bar(u)^2 E[X - u | X > u] = 2 F_bar(u)^2 (1 + u/4) / (3/4).
    """
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)
    u, rate = res["u"], res["rate"]
    s_u = gp_survival(u, 1.0, 0.25)
    exact, _ = integrate.quad(
        lambda t: (gp_survival(t, 1.0, 0.25) - s_u * math.exp(-rate * (t - u))) ** 2,
        u,
        np.inf,
        epsabs=1e-15,
        epsrel=1e-11,
        limit=400,
    )
    bound = 2.0 * s_u * s_u * (1.0 + u / 4.0) / 0.75
    ck.expect(close(u, 4.0 * (0.01 ** -0.25 - 1.0), 1e-12, 0.0).all(), f"{path}: u = {u}")
    ck.expect(close(res["gap_exact"], exact, 1e-6, 1e-15).all(), f"{path}: gap_exact {res['gap_exact']} != {exact}")
    ck.expect(close(res["gap_bound"], bound, 1e-9, 0.0).all(), f"{path}: gap_bound {res['gap_bound']} != {bound}")
    ck.expect(0.0 <= res["gap_exact"] <= res["gap_bound"], f"{path}: gap outside [0, bound]")
    ck.expect(res["mc_n"] == n, f"{path}: {res['mc_n']} Monte Carlo draws, expected {n}")
    ck.expect(
        abs(res["gap_mc"] - exact) <= 5.0 * res["gap_mc_se"] + 1e-12,
        f"{path}: Monte Carlo gap {res['gap_mc']} +- {res['gap_mc_se']} vs {exact}",
    )
