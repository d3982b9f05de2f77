"""The three benchmark workloads: their inputs, steps and output checks.

Each workload is a fixed sequence of steps run one after another as child
processes. A ``cli`` step is one ``crpstail`` command line; the ``lib``
step of ``quadrature_tail`` is :mod:`libstep`. Inputs come only from the
benchmark seed; ``toy`` shrinks every size for the self-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import gammainccinv, gammaincinv

import oracles

WEIGHT_QUANTILE = 0.9
SHUFFLE_SEED = 1
FAR_SHARE = 0.05
FAR_SURVIVAL = 1e-12


@dataclass(frozen=True)
class Step:
    name: str  # metric stem: cmd.<name>_s for cli steps, lib.<name>_s for lib
    entry: str  # "cli" or "lib"
    argv: tuple[str, ...]
    out: str  # output file, relative to the pass directory
    records: int  # records the step consumes

    @property
    def metric(self) -> str:
        return f"{'cmd' if self.entry == 'cli' else 'lib'}.{self.name}_s"


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    # writes the inputs into a directory and returns what the checks need
    prepare: Callable[[Path], dict]
    # checks one pass directory's outputs
    check: Callable[[oracles.Checker, Path, dict], None]

    @property
    def records(self) -> int:
        return sum(s.records for s in self.steps)


def _cli(name, out, records, *argv) -> Step:
    return Step(name, "cli", tuple(str(a) for a in argv) + ("--out", out), out, records)


def jsonl_pipeline(seed: int, toy: bool) -> Workload:
    t = 2_000 if toy else 100_000
    wq, ss = str(WEIGHT_QUANTILE), str(SHUFFLE_SEED)
    steps = (
        _cli("simulate", "sim.jsonl", t, "simulate", "--model", "ge", "--forecaster",
             "ideal", "--t", t, "--seed", seed),
        _cli("score", "score.csv", t, "score", "--records", "sim.jsonl",
             "--weight-quantile", wq, "--shuffle-seed", ss),
        _cli("verify_qqpp", "qqpp.csv", t, "verify", "qqpp", "--records", "sim.jsonl",
             "--shuffle-seed", ss, "--weight-quantile", wq),
        _cli("fit_gp", "fit.csv", t, "fit-gp", "--records", "sim.jsonl", "--method", "mle"),
    )

    def check(ck, pass_dir, ctx):
        rec = oracles.check_simulated(ck, pass_dir / "sim.jsonl", t)
        oracles.check_exponential_scores(
            ck, pass_dir / "score.csv", rec, WEIGHT_QUANTILE, SHUFFLE_SEED
        )
        oracles.check_qqpp(ck, pass_dir / "qqpp.csv", rec, WEIGHT_QUANTILE, SHUFFLE_SEED)
        oracles.check_fit_gp(ck, pass_dir / "fit.csv", rec)

    return Workload("jsonl_pipeline", steps, lambda inputs: {}, check)


def sim_verify(seed: int, toy: bool) -> Workload:
    t_index = 20_000 if toy else 1_000_000
    t_dm = 20_000 if toy else 300_000
    steps = (
        # the forecast batch and its climatology are both simulated
        _cli("verify_index_curve", "index_curve.csv", 2 * t_index, "verify", "index-curve",
             "--model", "ge", "--forecaster", "ideal", "--t", t_index, "--seed", seed),
        # one batch per forecaster: ideal, climatological, unfocused, extremist
        _cli("verify_dm", "dm.csv", 4 * t_dm, "verify", "dm", "--model", "nn",
             "--t", t_dm, "--seed", seed),
    )

    def check(ck, pass_dir, ctx):
        oracles.check_index_curve(ck, pass_dir / "index_curve.csv", t_index)
        oracles.check_dm(ck, pass_dir / "dm.csv")

    return Workload("sim_verify", steps, lambda inputs: {}, check)


def gamma_records(seed: int, n: int):
    """Gamma forecasts with their own shape in [2, 10] and rate in [0.5, 4].

    Shapes, rates, the probability levels of the bulk observations and the
    far-tail factors are Latin-hypercube strata, so the amount of work (and
    the pass time) varies little from seed to seed. A share FAR_SHARE of the
    rows is placed at 1-10x the row's Q(1 - 1e-12); the rest are draws from
    the row's own forecast.
    """
    rng = np.random.default_rng(seed)

    def strata(k):
        return (rng.permutation(k) + rng.random(k)) / k

    shape = 2.0 + 8.0 * strata(n)
    rate = 0.5 + 3.5 * strata(n)
    y = gammaincinv(shape, strata(n)) / rate
    far = np.zeros(n, dtype=bool)
    far[rng.choice(n, round(FAR_SHARE * n), replace=False)] = True
    factor = 1.0 + 9.0 * strata(int(far.sum()))
    y[far] = factor * gammainccinv(shape[far], FAR_SURVIVAL) / rate[far]
    return shape, rate, y, far


def quadrature_tail(seed: int, toy: bool) -> Workload:
    n = 20 if toy else 150
    n_mc = 10_000 if toy else 1_000_000
    steps = (
        _cli("score", "score.csv", n, "score", "--records", "../inputs/gamma.jsonl",
             "--weight-quantile", str(WEIGHT_QUANTILE)),
        _cli("verify_cup", "cup.csv", 0, "verify", "cup", "--gamma",
             ",".join(map(str, oracles.CUP_GAMMAS))),
        Step("splice_gap", "lib", ("--seed", str(seed), "--n", str(n_mc), "--out",
             "splice.json"), "splice.json", 0),
    )

    def prepare(inputs: Path) -> dict:
        shape, rate, y, far = gamma_records(seed, n)
        with open(inputs / "gamma.jsonl", "w", encoding="utf-8") as fh:
            for i in range(n):
                obj = {
                    "t": i,
                    "y": float(y[i]),
                    "forecast": {"family": "gamma", "params": [float(shape[i]), float(rate[i])]},
                }
                fh.write(json.dumps(obj) + "\n")
        rec = {"t": np.arange(n), "y": y, "params": np.column_stack([shape, rate])}
        return {"rec": rec, "far": far}

    def check(ck, pass_dir, ctx):
        oracles.check_gamma_scores(
            ck, pass_dir / "score.csv", ctx["rec"], WEIGHT_QUANTILE, ctx["far"]
        )
        oracles.check_cup(ck, pass_dir / "cup.csv")
        oracles.check_splice(ck, pass_dir / "splice.json", n_mc)

    return Workload("quadrature_tail", steps, prepare, check)


WORKLOADS = {
    "jsonl_pipeline": jsonl_pipeline,
    "sim_verify": sim_verify,
    "quadrature_tail": quadrature_tail,
}
