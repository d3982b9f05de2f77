"""Print the sha256 of every output (and stderr) of a fixed set of CLI runs.

The set covers ``simulate`` for both models and all four forecasters,
``score`` (weighted, shuffled, JSON) on each simulated file, ``verify
index-curve`` in simulator and file mode, ``verify dm``, ``verify qqpp``,
``verify cup`` and ``fit-gp``, and ``score`` and ``fit-gp`` on a record
file that this tool rewrites from a simulated one in another JSON layout
(see :func:`write_noncanonical`). Each command runs as ``python -m
crpstail`` in a fresh temporary directory, against the package sources in
``--src``.

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
from pathlib import Path

MODELS = ("ge", "nn")
FORECASTERS = ("ideal", "climatological", "unfocused", "extremist")
SEED = "7"
NONCANONICAL = "noncanonical.jsonl"


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


def commands(t: int) -> list[tuple[str, list[str]]]:
    """(output file, argv) pairs, in run order; later ones read earlier outputs.

    An argv that is a function writes the output file itself.
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
    for method in ("mle", "pwm"):
        out = f"fit_{method}.json"
        runs.append((out, ["fit-gp", "--records", "ge_ideal.jsonl", "--method", method,
                           "--format", "json", "--out", out]))
    runs.append((NONCANONICAL, write_noncanonical))
    for fmt in ("csv", "json"):
        out = f"score_noncanonical.{fmt}"
        runs.append((out, ["score", "--records", NONCANONICAL, "--weight-quantile", "0.9",
                           "--shuffle-seed", "1", "--format", fmt, "--out", out]))
    runs.append(("fit_noncanonical.json", ["fit-gp", "--records", NONCANONICAL, "--method",
                                          "mle", "--format", "json", "--out",
                                          "fit_noncanonical.json"]))
    return runs


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
            stderr = work / f"{out}.stderr"
            with open(stderr, "wb") as err:
                code = subprocess.run([sys.executable, "-m", "crpstail", *cli_argv], cwd=work,
                                      env=env, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err).returncode
            print(f"{sha256(work / out)}  {out}", flush=True)
            print(f"{sha256(stderr)}  {out}.stderr  exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
