"""Print the sha256 of every output (and stderr) of a fixed set of CLI and library runs.

The set covers ``simulate`` for both models and all four forecasters,
``score`` (weighted, shuffled, JSON) on each simulated file, ``verify
index-curve`` in simulator and file mode and with gap rows at both ends of
a curve, ``verify dm``, ``verify qqpp``, ``verify cup`` (in JSON too, where the
area of a small shape's cup is a quadrature) and ``fit-gp``, and
``score`` and ``fit-gp`` on a record file that this tool rewrites from a
simulated one in another JSON layout (see :func:`write_noncanonical`),
``score`` on record files that it rewrites with one bad line each (see
:func:`write_malformed`; at a ``--t`` that reaches that line), whose error
message and exit code are listed, and
``score`` and ``verify qqpp`` with no ``--out``, which write their tables to
stdout, and ``simulate`` with no ``--out``, which writes its records there.
Each command runs as ``python -m crpstail`` in a fresh temporary directory,
against the package sources in ``--src``. A command's stdout is hashed too:
it is the output file of a run without ``--out``, and is listed as
``<output>.stdout`` (empty when the output went to a file) otherwise.

Seeded library runs follow, each as ``python -c`` whose stdout is its
output: every family's ``sample`` at ``SAMPLE_N`` draws (the raw float64
bytes; ``SAMPLE_N`` spans several sampling blocks and ends inside one) and
the ``repr`` of ``tail_analysis.spliced_gap_mc`` at 2e5 draws, unweighted and
indicator-weighted, and, for every record family, ``batch_cdf``,
``crps_closed_batch`` and ``wcrps_quantile_batch`` on ``SAMPLE_N`` seeded rows
(the raw float64 bytes; the rows span several kernel blocks too), each
parametric family's ``quantile`` at ``scoring._LEVELS`` for each of
``QUANTILE_N`` seeded rows, called through the row's class (the raw float64
bytes), the 248 integrals of ``QUADRATURE`` on public calls (the raw float64
bytes): each sampled law's ``crps_quadrature`` under three weights,
``crps_shift_constant`` and ``mean_excess``, the splice's
``survival_sq_tail``, ``wcrps_gap_exact`` and ``wcrps_gap_bound`` under three
weights and the cup area of small shapes, the ``ge`` stream's Gamma(4, 1)
hidden-state inverse ``simulation._gamma4_quantile`` at the levels of its
accuracy test (the raw float64 bytes, see ``GAMMA4_INVERSE``), and the ``.hex()`` of
``cvm_log_pvalue`` and ``cvm_pvalue`` on a fixed grid of statistics from 0 to
1e4 (at the default ``--t`` every index row lies above 10), and
``table_to_string`` of a seeded table of mixed cells (see ``MIXED_TABLE``), as
CSV and JSON. They do not depend on ``--t``.

Run:  python3 tools/output_digest.py [--src DIR] [--t N] > digests.txt

Two checkouts produce byte-identical outputs exactly when their digest
listings are equal, so ``diff`` of two listings (one per commit, with the
same ``--t``) is the byte-identity check for a change that must not alter
any output.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

MODELS = ("ge", "nn")
FORECASTERS = ("ideal", "climatological", "unfocused", "extremist")
SEED = "7"
NONCANONICAL = "noncanonical.jsonl"
# the bad line of each malformed file: in the reader's second 2,048-line chunk
BAD_LINE = 2048 + 101


# the library runs' draws: several sampling blocks, ending inside one
SAMPLE_N = 3 * 2**16 + 5
# the library runs' preamble: the package's names, and ``spliced``, GP(1, 1/4)
# with a dominated exponential tail above its 0.99 quantile, built as
# bench/libstep.py builds it
PREAMBLE = ("import sys\nfrom crpstail import *\n"
            "base = GeneralizedPareto(1.0, 0.25)\nu = float(base.quantile(0.99))\n"
            "spliced = splice_tail(base, Exponential(2.0 / (1.0 + 0.25 * u)), u)\n")
# the laws sampled, as (seed, Python expression over the preamble's names);
# a law's seed is its own, so adding or deleting a law moves no other listing
LAWS = {
    "normal": (1, "Normal(0.3, 1.2)"),
    "normal_mixture2": (2, "NormalMixture2(0.3, -1.0, 0.5, 2.0, 1.5)"),
    "exponential": (3, "Exponential(1.6)"),
    "gamma": (4, "Gamma(2.5, 1.3)"),
    "generalized_pareto": (5, "GeneralizedPareto(1.0, 0.25)"),
    "generalized_pareto_bounded": (6, "GeneralizedPareto(1.0, -0.5)"),
    "spliced": (8, "spliced"),
}

# seeded record columns for the kernel runs: ``u`` holds five uniforms a row,
# ``y`` the observations (both signs, into each law's tails)
ROWS = ("import numpy as np\nfrom crpstail.records import batch_cdf\n"
        "from crpstail.scoring import crps_closed_batch, wcrps_quantile_batch\n"
        "g = np.random.default_rng({seed})\nu = g.random(({n}, 5))\n"
        "y = 4.0 * g.standard_normal({n})\n")
# each record family's parameter rows, as Python expressions over ``u`` and ``g``
FAMILY_ROWS = {
    "normal": "np.column_stack([4 * u[:, 0] - 2, 0.2 + 2 * u[:, 1]])",
    "normal_mixture2": "np.column_stack([u[:, 0], 4 * u[:, 1] - 2, 0.2 + 2 * u[:, 2], "
                       "4 * u[:, 3] - 2, 0.2 + 2 * u[:, 4]])",
    "exponential": "0.2 + 3 * u[:, :1]",
    "gamma": "np.column_stack([0.5 + 9.5 * u[:, 0], 0.2 + 3 * u[:, 1]])",
    "generalized_pareto": "np.column_stack([0.2 + 3 * u[:, 0], 1.3 * u[:, 1] - 0.4])",
    "ensemble": "2 * g.standard_normal(({n}, 11))",
}
# the batch kernels run on each family's rows, as calls over ``family``, ``p`` and ``y``
KERNEL_CALLS = {
    "batch_cdf": "batch_cdf(family, p, y)",
    "crps_closed_batch": "crps_closed_batch(family, p, y)",
    "wcrps_quantile_batch": "wcrps_quantile_batch(family, p, y, 1.5)",
}
# the quantile runs' rows per family, each law built as its class and
# inverted at every level of the quadrature's break points
QUANTILE_N = 64
QUANTILES = ("from crpstail.distributions import from_family\n"
             "from crpstail.scoring import _LEVELS\n"
             "for row in p:\n"
             "    sys.stdout.buffer.write(from_family(family, row).quantile(_LEVELS).tobytes())\n")
# the ge stream's hidden-state inverse at the levels of
# tests/test_simulation.py::TestHiddenRateInverse: both tails at the clipped
# uniforms' ends, the floats beside 1/2 and 300 seeded levels
GAMMA4_INVERSE = ("import sys\nimport numpy as np\n"
                  "from crpstail.simulation import _gamma4_quantile\n"
                  "eps = np.finfo(float).eps\n"
                  "u = np.concatenate([[1e-17, 1e-12, 1e-6, 0.5 - eps / 4, 0.5, 0.5 + eps / 2,\n"
                  "                     1 - 1e-10, 1 - 1e-16], np.random.default_rng(28).random(300)])\n"
                  "sys.stdout.buffer.write(_gamma4_quantile(u).tobytes())\n")
# the integrals the package takes by quadrature, on public calls only: every
# law's weighted CRPS at seeded observations under a unit, an indicator and a
# tabulated weight, its shift constant at seeded thresholds and its mean
# excess, the splice's survival-squared tail, the splice gap and its bound
# under three weights, and the cup area of small shapes
QUADRATURE = (
    "import numpy as np\n"
    "g = np.random.default_rng(29)\n"
    "tab = TabulatedWeight([-1.0, 0.5, 2.0, 4.0], [0.0, 1.0, 0.6, 0.2])\n"
    "out = []\n"
    "for d in laws:\n"
    "    weights = (UnitWeight(), QuantileIndicatorWeight(float(d.quantile(0.9))), tab)\n"
    "    for y in 4.0 * g.standard_normal(8):\n"
    "        out += [crps_quadrature(d, y, w) for w in weights]\n"
    "    out += [crps_shift_constant(d, q) for q in 4.0 * g.standard_normal(6)]\n"
    "    out += [d.mean_excess(x) for x in d.quantile([0.5, 0.9, 0.99])]\n"
    "out += [survival_sq_tail(spliced, q) for q in spliced.quantile(g.random(8))]\n"
    "gap_tab = TabulatedWeight([u, u + 5.0, u + 20.0], [0.0, 1.0, 0.5])\n"
    "for w in (UnitWeight(), QuantileIndicatorWeight(u + 1.0), gap_tab):\n"
    "    out += [wcrps_gap_exact(base, spliced, w), wcrps_gap_bound(base, u, w)]\n"
    "out += [ambiguity_region(gamma).area for gamma in (0.0, 1e-4, 5e-4)]\n"
    "sys.stdout.buffer.write(np.array(out).tobytes())\n"
)
# the Cramer-von Mises law on both sides of its t = 2 seam, one line per statistic
CVM_LAW = ("import numpy as np\nfrom crpstail import cvm_log_pvalue, cvm_pvalue\n"
           "t = np.concatenate([np.linspace(0.0, 2.0, 801), np.geomspace(2.0, 1e4, 201)[1:]])\n"
           "for x, lp, p in zip(t, cvm_log_pvalue(t), cvm_pvalue(t)):\n"
           "    print(x.hex(), lp.hex(), p.hex())\n")
# report tables of mixed cells, which no command writes: numpy scalars,
# booleans, None, non-finite floats, cells that compare equal but print
# differently, and strings csv must quote; as CSV and JSON, over several
# chunks of rows, and as CSV one column wide, where an empty cell is quoted
MIXED_TABLE = (
    "import numpy as np\nfrom crpstail.io import table_to_string\n"
    "g = np.random.default_rng(9)\n"
    "cells = [True, 1, 1.0, np.float64(1.0), np.int64(1), np.float32(0.1), -0.0, 0.0,\n"
    "         np.float64(-0.0), None, '', ' pad ', 'a,b', 'q\"t', 'line\\nbreak', 'cr\\rx',\n"
    "         float('nan'), np.float64(np.inf), -float('inf'), 2**70, False, 'plain']\n"
    "rows = [(np.int64(i), g.standard_normal(), np.float64(g.exponential()),\n"
    "         np.float32(g.random()), cells[i % len(cells)], cells[(7 * i) % len(cells)])\n"
    "        for i in range(2 * 2048 + 5)]\n"
    "header = ['i', 'x', 'e', 'u', 'a', 'b']\n"
    "print(table_to_string(header, rows), end='')\n"
    "print(table_to_string(header, rows, fmt='json', meta={'seed': 9}), end='')\n"
    "print(table_to_string(['a'], [row[4:5] for row in rows]), end='')\n"
)


def library_runs() -> list[tuple[str, list[str]]]:
    """(output file, ``python -c`` argv) pairs for the seeded library runs."""
    runs = []
    for name, (seed, law) in LAWS.items():
        code = f"x = ({law}).sample({SAMPLE_N}, {seed})\nsys.stdout.buffer.write(x.tobytes())\n"
        runs.append((f"sample_{name}.f64", ["-c", PREAMBLE + code]))
    weights = {"unit": "UnitWeight()", "indicator": "QuantileIndicatorWeight(u + 1)"}
    for name, weight in weights.items():
        code = f"print(repr(spliced_gap_mc(base, spliced, {weight}, n=200_000, rng=7)))\n"
        runs.append((f"gap_mc_{name}.txt", ["-c", PREAMBLE + code]))
    for seed, (family, rows) in enumerate(FAMILY_ROWS.items(), start=1):
        setup = ROWS.format(seed=seed, n=SAMPLE_N) + f"family = {family!r}\n"
        setup += f"p = {rows.format(n=SAMPLE_N)}\n"
        for kernel, call in KERNEL_CALLS.items():
            code = f"sys.stdout.buffer.write(({call}).tobytes())\n"
            runs.append((f"{kernel}_{family}.f64", ["-c", "import sys\n" + setup + code]))
    for seed, (family, rows) in enumerate(FAMILY_ROWS.items(), start=1):
        if family != "ensemble":
            setup = ROWS.format(seed=seed, n=QUANTILE_N) + f"family = {family!r}\n"
            setup += f"p = {rows.format(n=QUANTILE_N)}\n"
            runs.append((f"quantile_{family}.f64", ["-c", "import sys\n" + setup + QUANTILES]))
    laws = "laws = [" + ", ".join(law for _, law in LAWS.values()) + "]\n"
    runs.append(("quadrature.f64", ["-c", PREAMBLE + laws + QUADRATURE]))
    runs.append(("gamma4_inverse.f64", ["-c", GAMMA4_INVERSE]))
    runs.append(("cvm_law.txt", ["-c", CVM_LAW]))
    runs.append(("table_mixed.txt", ["-c", MIXED_TABLE]))
    return runs


def write_noncanonical(work: Path) -> None:
    """Rewrite ``ge_ideal.jsonl`` as NONCANONICAL: the first half of the
    records as ``simulate`` wrote them, the second half with sorted keys and
    compact spacing, the first of those with the integer literal ``-0`` as
    ``y``, the second with the integer ``2``, and a blank line after the third.
    The reader takes its column path on the first half and its per-line path
    on the rest; the two must read what one json.loads per line reads.
    """
    lines = (work / "ge_ideal.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    half = len(lines) // 2
    out = lines[:half]
    for i, line in enumerate(lines[half:]):
        record = json.loads(line)
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if i < 2:
            y = json.dumps(record["y"])
            text = text.replace(f'"y":{y}', '"y":' + ("-0" if i == 0 else "2"))
        out.append(text + ("\n\n" if i == 2 else "\n"))
    (work / NONCANONICAL).write_text("".join(out), encoding="utf-8")


# a record's one fault, as a function of the record giving its rewritten line,
# by the malformed file's name: a JSON syntax error, a NaN observation, a time
# past int64 and a negative exponential rate
MALFORMED = {
    "malformed_json.jsonl": lambda r: json.dumps(r)[:40],
    "malformed_y_nan.jsonl": lambda r: json.dumps({**r, "y": float("nan")}),
    "malformed_t_int64.jsonl": lambda r: json.dumps({**r, "t": 2**63}),
    "malformed_rate.jsonl": lambda r: json.dumps(
        {**r, "forecast": {**r["forecast"], "params": [-p for p in r["forecast"]["params"]]}}),
}


def write_malformed(work: Path, name: str) -> None:
    """Rewrite ``ge_ideal.jsonl`` as the malformed file ``name``: line
    BAD_LINE rewritten by ``MALFORMED[name]``, the other lines as ``simulate``
    wrote them. Each file holds one error, so every reader version reports
    the same message and line for it.
    """
    lines = (work / "ge_ideal.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[BAD_LINE - 1] = MALFORMED[name](json.loads(lines[BAD_LINE - 1])) + "\n"
    (work / name).write_text("".join(lines), encoding="utf-8")


def commands(t: int) -> list[tuple[str, list[str]]]:
    """(output file, argv) pairs, in run order; later ones read earlier outputs.

    An argv that is a function writes the output file itself; the stdout of
    an argv without ``--out`` is its output file. An argv that starts with
    ``-c`` is a library run's, for ``python``, not ``python -m crpstail``.
    """
    t = str(t)
    runs = []
    for model in MODELS:
        for name in FORECASTERS:
            out = f"{model}_{name}.jsonl"
            runs.append((out, ["simulate", "--model", model, "--forecaster", name,
                               "--t", t, "--seed", SEED, "--out", out]))
    for model in MODELS:
        for name in FORECASTERS:
            out = f"score_{model}_{name}.json"
            runs.append((out, ["score", "--records", f"{model}_{name}.jsonl",
                               "--weight-quantile", "0.9", "--shuffle-seed", "1",
                               "--format", "json", "--out", out]))
    runs.append(("score_nn_unfocused.csv", ["score", "--records", "nn_unfocused.jsonl",
                                            "--weight-quantile", "0.9", "--shuffle-seed", "1",
                                            "--out", "score_nn_unfocused.csv"]))
    for model in MODELS:
        for name in ("ideal", "unfocused"):
            for fmt in ("csv", "json"):
                out = f"index_sim_{model}_{name}.{fmt}"
                runs.append((out, ["verify", "index-curve", "--model", model,
                                   "--forecaster", name, "--t", t, "--seed", SEED,
                                   "--format", fmt, "--out", out]))
        out = f"index_file_{model}.csv"
        runs.append((out, ["verify", "index-curve", "--records", f"{model}_extremist.jsonl",
                           "--records-clim", f"{model}_climatological.jsonl",
                           "--method", "mle", "--out", out]))
    # the lowest order lies below the fit threshold and the highest leaves too
    # few exceedances: the curve opens and closes with gap rows
    runs.append(("index_gaps.csv", ["verify", "index-curve", "--model", "ge", "--forecaster",
                                    "unfocused", "--t", t, "--seed", SEED, "--quantiles",
                                    "0.75,0.9,0.95,0.9999", "--threshold-order", "0.9",
                                    "--out", "index_gaps.csv"]))
    for model in MODELS:
        for fmt in ("csv", "json"):
            out = f"dm_{model}.{fmt}"
            runs.append((out, ["verify", "dm", "--model", model, "--t", t, "--seed", SEED,
                               "--quantiles", "0.5,0.875,0.975", "--format", fmt,
                               "--out", out]))
    for model, name in (("ge", "ideal"), ("nn", "unfocused")):
        out = f"qqpp_{model}_{name}.csv"
        runs.append((out, ["verify", "qqpp", "--records", f"{model}_{name}.jsonl",
                           "--shuffle-seed", "1", "--weight-quantile", "0.9", "--out", out]))
    runs.append(("qqpp_sim.json", ["verify", "qqpp", "--model", "ge", "--forecaster",
                                   "extremist", "--t", t, "--seed", SEED, "--shuffle-seed",
                                   "2", "--format", "json", "--out", "qqpp_sim.json"]))
    runs.append(("cup.csv", ["verify", "cup", "--gamma", "0,0.25,0.5", "--out", "cup.csv"]))
    # shapes below 1e-3 integrate the cup area, which only the JSON meta holds
    runs.append(("cup_small.json", ["verify", "cup", "--gamma", "0,0.0005", "--grid", "5",
                                    "--format", "json", "--out", "cup_small.json"]))
    for method in ("mle", "pwm"):
        out = f"fit_{method}.json"
        runs.append((out, ["fit-gp", "--records", "ge_ideal.jsonl", "--method", method,
                           "--format", "json", "--out", out]))
    # the fewest excesses a fit takes: 10 at the default --t
    runs.append(("fit_mle_fewest.json", ["fit-gp", "--records", "ge_ideal.jsonl", "--method",
                                        "mle", "--threshold-order", "0.9995", "--format",
                                        "json", "--out", "fit_mle_fewest.json"]))
    runs.append((NONCANONICAL, write_noncanonical))
    for fmt in ("csv", "json"):
        out = f"score_noncanonical.{fmt}"
        runs.append((out, ["score", "--records", NONCANONICAL, "--weight-quantile", "0.9",
                           "--shuffle-seed", "1", "--format", fmt, "--out", out]))
    runs.append(("fit_noncanonical.json", ["fit-gp", "--records", NONCANONICAL, "--method",
                                          "mle", "--format", "json", "--out",
                                          "fit_noncanonical.json"]))
    if int(t) >= BAD_LINE:
        for name in MALFORMED:
            runs.append((name, partial(write_malformed, name=name)))
            out = f"score_{name.removesuffix('.jsonl')}.csv"
            runs.append((out, ["score", "--records", name, "--out", out]))
    # tables written to stdout: the run's stdout is its output file
    runs.append(("score_stdout.csv", ["score", "--records", "nn_unfocused.jsonl",
                                      "--weight-quantile", "0.9", "--shuffle-seed", "1"]))
    runs.append(("qqpp_stdout.json", ["verify", "qqpp", "--records", "ge_ideal.jsonl",
                                      "--shuffle-seed", "1", "--weight-quantile", "0.9",
                                      "--format", "json"]))
    # the widest records; a --t that is not a multiple of the 2,048-record
    # windows simulate writes at a time ends inside one
    runs.append(("simulate_stdout.jsonl", ["simulate", "--model", "nn", "--forecaster",
                                           "unfocused", "--t", t, "--seed", SEED]))
    return runs + library_runs()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-" * 64


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=here / "src",
                        help="directory holding the crpstail package (default: this checkout's)")
    parser.add_argument("--t", type=int, default=20_000, help="records per simulated stream")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for out, cli_argv in commands(args.t):
            if callable(cli_argv):
                cli_argv(work)
                print(f"{sha256(work / out)}  {out}", flush=True)
                continue
            stdout = work / (f"{out}.stdout" if "--out" in cli_argv else out)
            stderr = work / f"{out}.stderr"
            with open(stdout, "wb") as std, open(stderr, "wb") as err:
                run = cli_argv if cli_argv[0] == "-c" else ["-m", "crpstail", *cli_argv]
                code = subprocess.run([sys.executable, *run], cwd=work,
                                      env=env, stdin=subprocess.DEVNULL,
                                      stdout=std, stderr=err).returncode
            print(f"{sha256(work / out)}  {out}", flush=True)
            if stdout.name != out:
                print(f"{sha256(stdout)}  {stdout.name}", flush=True)
            print(f"{sha256(stderr)}  {out}.stderr  exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
