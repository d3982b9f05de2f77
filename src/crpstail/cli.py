"""Command-line surface.

Subcommands::

    simulate    generate testbed records as JSON lines
    score       per-record CRPS / weighted-CRPS columns for a record file
    verify      index-curve | dm | qqpp | cup verification reports
    fit-gp      peaks-over-threshold GP fit of a record file's observations

Every stochastic command requires an explicit ``--seed`` — reruns with the
same inputs and flags are byte-identical. Reports are CSV (default) or JSON
with stable headers; record files are JSON lines (see :mod:`crpstail.io`).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from .errors import (
    CrpstailError,
    DataFormatError,
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    UnsupportedFamilyError,
)
from .evt import fit_gp, threshold_grid
from .io import _CHUNK_ROWS, _ColumnRows, _opened, read_records, write_records, write_table
from .simulation import FORECASTERS, MODELS, simulate, simulate_forecasters
from .tail_analysis import ambiguity_region, expected_crps_pareto
from .verification import (
    _check_shuffle_seed,
    dm_matrix,
    index_curve,
    ks_two_sample_critical,
    qq_pp,
    score_series,
    shuffled_score_series,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

__all__ = ["main", "EXIT_OK", "EXIT_USAGE", "EXIT_DATA", "EXIT_NUMERIC"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _order(text: str) -> float:
    try:
        order = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad quantile order {text!r}") from exc
    if not 0.0 < order < 1.0:
        raise argparse.ArgumentTypeError("quantile orders must lie in (0, 1)")
    return order


def _order_list(text: str) -> list[float]:
    orders = [_order(x) for x in text.split(",") if x.strip()]
    if not orders:
        raise argparse.ArgumentTypeError("quantile orders must lie in (0, 1)")
    return orders


def _shape_list(text: str) -> list[float]:
    try:
        shapes = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape list {text!r}") from exc
    if not shapes or any(not 0.0 <= g < 1.0 for g in shapes):
        raise argparse.ArgumentTypeError("tail shapes must lie in [0, 1)")
    return shapes


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise ParameterError(f"{args.command}: missing required flags: {flags}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    # windows of one seed are the stream's records bit for bit, so the stream
    # is written a window at a time and only ``y`` is kept, for the summary.
    # The first window is drawn, and every argument checked, before the
    # output is opened: a bad argument leaves no file.
    starts = range(0, args.t, _CHUNK_ROWS)
    windows = (
        simulate(args.model, args.forecaster, min(_CHUNK_ROWS, args.t - start),
                 seed=args.seed, t0=start)
        for start in starts
    )
    first = next(windows)
    y = np.empty(args.t)
    with _opened(args.out or sys.stdout, "w") as fh:
        for start, window in zip(starts, chain([first], windows)):
            write_records(window, fh)
            y[start : start + len(window)] = window.y
    _note(
        f"simulate: {args.t} records, model={args.model} "
        f"forecaster={args.forecaster} seed={args.seed} "
        f"mean_y={y.mean():.6g} max_y={y.max():.6g}"
    )
    return EXIT_OK


def cmd_score(args) -> int:
    if args.shuffle_seed is not None:
        _check_shuffle_seed(args.shuffle_seed)  # before any record is read
    batch = read_records(args.records)
    header = ["t", "y", "crps"]
    s1 = score_series(batch)
    columns = [batch.t, batch.y, s1.values]
    meta: dict = {"records": args.records, "n": len(batch)}
    if args.weight_quantile is not None:
        threshold = float(np.quantile(batch.y, args.weight_quantile))
        sw = score_series(batch, weight_threshold=threshold)
        header.append("wcrps")
        columns.append(sw.values)
        meta["weight_quantile"] = args.weight_quantile
        meta["weight_threshold"] = threshold
        _note(
            f"score: weight quantile {args.weight_quantile} -> threshold "
            f"{threshold:.6g}, mean wcrps {sw.values.mean():.6g}"
        )
    if args.shuffle_seed is not None:
        s2 = shuffled_score_series(batch, args.shuffle_seed)
        header.append("crps_shuffled")
        columns.append(s2.values)
        meta["shuffle_seed"] = args.shuffle_seed
    write_table(header, _ColumnRows(columns), args.out, fmt=args.format, meta=meta)
    _note(f"score: {len(batch)} records, mean crps {s1.values.mean():.6g}")
    return EXIT_OK


def _simulate_without_hidden(args, forecasters) -> dict:
    """The simulated batches of ``forecasters``, without the hidden state that
    the verification reports never read."""
    batches = simulate_forecasters(args.model, forecasters, args.t, seed=args.seed)
    return {name: replace(b, hidden=None) for name, b in batches.items()}


def _verify_batches(args):
    """Forecast + climatology batches from files or from the simulator."""
    if args.records is not None:
        if args.records_clim is None:
            raise ParameterError(
                "verify index-curve: file mode needs --records-clim as reference"
            )
        return read_records(args.records), read_records(args.records_clim)
    _require(args, ["model", "forecaster", "t", "seed"])
    batches = _simulate_without_hidden(args, (args.forecaster, "climatological"))
    return batches[args.forecaster], batches["climatological"]


def cmd_verify_index_curve(args) -> int:
    batch_f, batch_clim = _verify_batches(args)
    curve = index_curve(
        batch_f,
        batch_clim,
        args.quantiles,
        fit_order=args.threshold_order,
        method=args.method,
    )
    header = [
        "order",
        "threshold",
        "n_tail",
        "t_forecast",
        "t_clim",
        "log_p_forecast",
        "log_p_clim",
        "index",
        "pathological",
        "auto_calibrated",
        "pit_max_dev",
        "note",
    ]
    flags = ("pathological", "auto_calibrated")  # written as 0/1
    rows = [
        [int(getattr(r, n)) if n in flags else getattr(r, n) for n in header]
        for r in curve.rows
    ]
    meta = {
        "fit_sigma": curve.fit.sigma,
        "fit_gamma": curve.fit.gamma,
        "fit_threshold": curve.fit.tail.threshold_ref,
        "fit_n_excesses": curve.fit.n_excesses,
        "fit_method": curve.fit.method,
    }
    write_table(header, rows, args.out, fmt=args.format, meta=meta)
    _note(
        f"index-curve: GP fit sigma={curve.fit.sigma:.6g} "
        f"gamma={curve.fit.gamma:.6g} at threshold "
        f"{curve.fit.tail.threshold_ref:.6g} ({curve.fit.n_excesses} excesses)"
    )
    return EXIT_OK


def cmd_verify_dm(args) -> int:
    _require(args, ["model", "t", "seed"])
    batches = _simulate_without_hidden(args, FORECASTERS)
    obs = batches["ideal"].y
    thresholds = [float(threshold_grid(obs, [order])[0]) for order in args.quantiles]
    last = len(thresholds) - 1
    widest_first = sorted(batches, key=lambda name: -batches[name].params.shape[1])
    # scores[name][k]: a forecaster's scores at order k. A batch is released
    # once it is scored at every order, the widest parameter rows first. Rows
    # wider than the number of orders take more room than their scores at
    # every order, so such a batch is scored at all of them first; the others
    # are scored one order at a time, and each order's scores are released
    # after its DM matrix.
    scores = {name: [None] * len(thresholds) for name in FORECASTERS}
    for name in widest_first:
        if batches[name].params.shape[1] > len(thresholds):
            batch = batches.pop(name)
            scores[name] = [score_series(batch, weight_threshold=u).values for u in thresholds]
            del batch
    rows = []
    for k, (order, threshold) in enumerate(zip(args.quantiles, thresholds)):
        for name in widest_first:
            if name in batches:
                batch = batches.pop(name) if k == last else batches[name]
                scores[name][k] = score_series(batch, weight_threshold=threshold).values
                del batch
        mat = dm_matrix({name: values[k] for name, values in scores.items()})
        for values in scores.values():
            values[k] = None
        for i, row_name in enumerate(mat.names):
            for j, col_name in enumerate(mat.names):
                if i == j:
                    continue
                rows.append(
                    [
                        order,
                        row_name,
                        col_name,
                        float(mat.statistics[i, j]),
                        float(mat.p_values[i, j]),
                    ]
                )
    header = ["quantile", "row", "col", "statistic", "p_value"]
    write_table(header, rows, args.out, fmt=args.format, meta={"t": args.t, "seed": args.seed})
    _note(f"dm: {len(args.quantiles)} quantile(s) x {len(FORECASTERS)} forecasters")
    return EXIT_OK


def cmd_verify_qqpp(args) -> int:
    # before any record is read or drawn
    _require(args, ["shuffle-seed"])
    _check_shuffle_seed(args.shuffle_seed)
    if args.records is not None:
        batch = read_records(args.records)
    else:
        _require(args, ["model", "forecaster", "t", "seed"])
        batch = simulate(args.model, args.forecaster, args.t, seed=args.seed)
    threshold = None
    if args.weight_quantile is not None:
        threshold = float(np.quantile(batch.y, args.weight_quantile))
    # only the scores go on: not the shuffled observations, nor the batch
    s1 = score_series(batch, weight_threshold=threshold).values
    s2 = shuffled_score_series(batch, args.shuffle_seed, weight_threshold=threshold).values
    del batch
    res = qq_pp(s1, s2)
    # the qq part then the pp part, each kind a constant over its part
    rows = _ColumnRows(*([np.broadcast_to(np.array(kind), len(part)), *part.T]
                         for kind, part in (("qq", res.qq), ("pp", res.pp))))
    n, m = len(s1), len(s2)
    meta = {
        "ks_distance": res.ks_distance,
        "ks_critical_5pct": ks_two_sample_critical(0.05, n, m),
        "ks_critical_1pct": ks_two_sample_critical(0.01, n, m),
        "shuffle_seed": args.shuffle_seed,
    }
    write_table(["kind", "paired", "shuffled"], rows, args.out, fmt=args.format, meta=meta)
    _note(
        f"qqpp: ks={res.ks_distance:.6g} "
        f"(5% critical {meta['ks_critical_5pct']:.6g}, "
        f"1% critical {meta['ks_critical_1pct']:.6g})"
    )
    return EXIT_OK


def cmd_verify_cup(args) -> int:
    rows = []
    meta = {}
    for gamma in args.gamma:
        geom = ambiguity_region(gamma, args.sigma)
        a = np.linspace(0.0, geom.a0, args.grid)
        phi = expected_crps_pareto(a, gamma, args.sigma)
        rows += [[float(gamma), float(ai), float(pi)] for ai, pi in zip(a, phi)]
        meta[f"gamma={gamma:g}"] = {
            "a0": geom.a0,
            "argmin": geom.argmin,
            "phi_flat": geom.phi_flat,
            "phi_min": geom.phi_min,
            "area": geom.area,
        }
        _note(
            f"cup: gamma={gamma:g} a0={geom.a0:.6g} phi_min={geom.phi_min:.6g} "
            f"area={geom.area:.6g}"
        )
    write_table(["gamma", "a", "phi"], rows, args.out, fmt=args.format, meta=meta)
    return EXIT_OK


def cmd_fit_gp(args) -> int:
    batch = read_records(args.records)
    y = batch.y
    u = float(threshold_grid(y, [args.threshold_order])[0])
    excesses = y[y > u] - u
    fit = fit_gp(excesses, method=args.method, threshold=u)
    header = ["sigma", "gamma", "threshold", "threshold_order", "n_excesses", "method"]
    row = [fit.sigma, fit.gamma, u, args.threshold_order, fit.n_excesses, fit.method]
    write_table(header, [row], args.out, fmt=args.format, meta={"diagnostics": fit.diagnostics})
    _note(
        f"fit-gp: sigma={fit.sigma:.6g} gamma={fit.gamma:.6g} "
        f"({fit.n_excesses} excesses over {u:.6g}, {fit.method})"
        + ("" if fit.diagnostics.get("converged", True) else " [fallback]")
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_sim_flags(p: argparse.ArgumentParser, forecaster: bool = True) -> None:
    p.add_argument("--model", choices=MODELS)
    if forecaster:
        p.add_argument("--forecaster", choices=FORECASTERS)
    p.add_argument("--t", type=_positive_int, help="number of records")
    p.add_argument("--seed", type=int, help="stream seed (mandatory when simulating)")


def build_parser() -> _Parser:
    parser = _Parser(prog="crpstail", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate testbed records (JSON lines)")
    p_sim.add_argument("--model", choices=MODELS, required=True)
    p_sim.add_argument("--forecaster", choices=FORECASTERS, required=True)
    p_sim.add_argument("--t", type=_positive_int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_score = sub.add_parser("score", help="per-record score columns")
    p_score.add_argument("--records", required=True, help="JSON-lines record file")
    p_score.add_argument(
        "--weight-quantile",
        type=_order,
        default=None,
        help="observation quantile order defining the tail-weight threshold",
    )
    p_score.add_argument(
        "--shuffle-seed",
        type=int,
        default=None,
        help="adds a column of scores against shuffled observations",
    )
    _add_output_flags(p_score)
    p_score.set_defaults(func=cmd_score)

    p_verify = sub.add_parser("verify", help="verification reports")
    vsub = p_verify.add_subparsers(dest="action", required=True)

    p_ic = vsub.add_parser("index-curve", help="extremes-skill index vs threshold")
    p_ic.add_argument("--records", default=None, help="forecast record file")
    p_ic.add_argument("--records-clim", default=None, help="climatology record file")
    _add_sim_flags(p_ic)
    p_ic.add_argument("--quantiles", type=_order_list, default=_order_list("0.75,0.8,0.85,0.9,0.95,0.99"))
    p_ic.add_argument("--threshold-order", type=_order, default=None, help="GP fit order (default: lowest quantile)")
    p_ic.add_argument("--method", choices=("pwm", "mle"), default="pwm")
    _add_output_flags(p_ic)
    p_ic.set_defaults(func=cmd_verify_index_curve)

    p_dm = vsub.add_parser("dm", help="all-pairs equal-performance tests")
    _add_sim_flags(p_dm, forecaster=False)
    p_dm.add_argument("--quantiles", type=_order_list, default=_order_list("0.875,0.975"))
    _add_output_flags(p_dm)
    p_dm.set_defaults(func=cmd_verify_dm)

    p_qq = vsub.add_parser("qqpp", help="paired vs shuffled score comparison")
    p_qq.add_argument("--records", default=None)
    _add_sim_flags(p_qq)
    p_qq.add_argument("--shuffle-seed", type=int, default=None, required=False)
    p_qq.add_argument("--weight-quantile", type=_order, default=None)
    _add_output_flags(p_qq)
    p_qq.set_defaults(func=cmd_verify_qqpp)

    p_cup = vsub.add_parser("cup", help="Pareto expected-score cup tables")
    p_cup.add_argument("--gamma", type=_shape_list, required=True, help="comma list of tail shapes in [0,1)")
    p_cup.add_argument("--sigma", type=float, default=1.0)
    p_cup.add_argument("--grid", type=_positive_int, default=401)
    _add_output_flags(p_cup)
    p_cup.set_defaults(func=cmd_verify_cup)

    p_fit = sub.add_parser("fit-gp", help="GP tail fit of a record file's observations")
    p_fit.add_argument("--records", required=True)
    p_fit.add_argument("--threshold-order", type=_order, default=0.95)
    p_fit.add_argument("--method", choices=("pwm", "mle"), default="pwm")
    _add_output_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit_gp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        DataFormatError,
        InsufficientDataError,
        DegenerateDataError,
        UnsupportedFamilyError,
        OSError,
    ) as exc:
        _note(f"crpstail: data error: {exc}")
        return EXIT_DATA
    except ParameterError as exc:
        _note(f"crpstail: usage error: {exc}")
        return EXIT_USAGE
    except CrpstailError as exc:
        # every other package error is numeric: domain, divergence, ...
        _note(f"crpstail: numeric failure: {exc}")
        return EXIT_NUMERIC

