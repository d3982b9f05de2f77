"""Library step of the ``quadrature_tail`` workload.

Splices GP(1, 1/4) above its 0.99 quantile with a dominated exponential
tail and computes the expected-score gap three ways: the bound, the exact
integral and the coupled Monte Carlo estimate.

    python3 bench/libstep.py --seed 7 --n 1000000 --out splice.json

Functions are looked up on the module at call time, so the traced run's
shims see these calls.
"""

from __future__ import annotations

import argparse
import json
import sys

from crpstail import distributions, tail_analysis


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    base = distributions.GeneralizedPareto(scale=1.0, shape=0.25)
    u = float(base.quantile(0.99))
    # excesses over u are GP(1 + u/4, 1/4), whose hazard never exceeds
    # 1 / (1 + u/4); twice that rate gives a lighter (dominated) tail
    rate = 2.0 / (1.0 + 0.25 * u)
    spliced = tail_analysis.splice_tail(base, distributions.Exponential(rate), u)
    bound = tail_analysis.wcrps_gap_bound(base, u)
    exact = tail_analysis.wcrps_gap_exact(base, spliced)
    mc, se = tail_analysis.spliced_gap_mc(base, spliced, n=args.n, rng=args.seed)
    result = {
        "u": u,
        "rate": rate,
        "gap_bound": bound,
        "gap_exact": exact,
        "gap_mc": mc,
        "gap_mc_se": se,
        "mc_n": args.n,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
