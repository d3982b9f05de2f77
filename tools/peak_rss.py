"""Print the peak RSS and CPU time of each CLI command that the benchmark runs.

The commands are the ``python -m crpstail`` steps of the benchmark's
workloads, at ``--t`` records and seed 7: ``simulate`` (``ge``/``ideal``),
``score --weight-quantile 0.9 --shuffle-seed 1``, ``verify qqpp`` and
``fit-gp --method mle`` on that record file, ``verify index-curve``
(simulated ``ge``/``ideal``, ``--t`` records) and ``verify dm`` (simulated
``nn``, three tenths of ``--t`` records, the benchmark's ratio of 3e5 to
1e6), and ``verify cup``. The gamma record file and the library step of
``quadrature_tail`` are left out: building them takes numpy.

One run of a source tree runs every command in order, in one fresh
temporary directory, against the package sources of that tree. For each
command the tool reads the child's own ``ru_maxrss`` in MB of 2^20 bytes
(the unit of the benchmark's ``peak_rss_mb``), its user plus system CPU
seconds, and its exit code, all from ``os.wait4``. Linux carries the peak
RSS a process had before ``exec`` into the ``ru_maxrss`` of its child; this
tool imports no numpy, so its own RSS stays below every child's.

With ``--baseline DIR``, a second source tree (say, a parent commit's
``src``) runs beside ``--src``: each of the ``--pairs`` pairs runs both
trees once, and the tree that runs first alternates from pair to pair. For
each command and tree the tool prints the median of the runs with their
quartiles in brackets, and every exit code the runs gave.

Run:  python3 tools/peak_rss.py [--src DIR] [--baseline DIR] [--pairs N] [--t N]
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "7"


def commands(t: int) -> list[tuple[str, list[str]]]:
    """(name, argv after ``python -m crpstail``) pairs, in run order; later
    ones read the record file the first one writes."""
    t_dm = str(max(1, 3 * t // 10))
    t = str(t)
    records = ["--records", "sim.jsonl"]
    return [
        ("simulate", ["simulate", "--model", "ge", "--forecaster", "ideal", "--t", t,
                      "--seed", SEED, "--out", "sim.jsonl"]),
        ("score", ["score", *records, "--weight-quantile", "0.9", "--shuffle-seed", "1",
                   "--out", "score.csv"]),
        ("verify qqpp", ["verify", "qqpp", *records, "--shuffle-seed", "1",
                         "--weight-quantile", "0.9", "--out", "qqpp.csv"]),
        ("fit-gp", ["fit-gp", *records, "--method", "mle", "--out", "fit.csv"]),
        ("verify index-curve", ["verify", "index-curve", "--model", "ge", "--forecaster",
                                "ideal", "--t", t, "--seed", SEED, "--out", "index.csv"]),
        ("verify dm", ["verify", "dm", "--model", "nn", "--t", t_dm, "--seed", SEED,
                       "--out", "dm.csv"]),
        ("verify cup", ["verify", "cup", "--gamma", "0.1,0.25,0.4", "--out", "cup.csv"]),
    ]


def run(argv: list[str], cwd: Path, env: dict) -> tuple[int, float, int]:
    """(exit code, user + system CPU seconds, ru_maxrss in KiB) of one child."""
    with open(cwd / "stderr.txt", "ab") as err:
        proc = subprocess.Popen([sys.executable, "-m", "crpstail", *argv], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    # reaped by wait4 above; tell Popen so it never waits on the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def run_tree(src: Path, t: int) -> dict[str, tuple[int, float, int]]:
    """Every command, in order, against the package in ``src``: the command's
    name -> (exit code, CPU seconds, ru_maxrss in KiB)."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run(cli_argv, Path(tmp), env) for name, cli_argv in commands(t)}


def spread(values: list[float]) -> str:
    """The median of ``values`` and, in brackets, their quartiles."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return f"{median:.2f} ({q1:.2f}-{q3:.2f})"


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=here / "src",
                        help="directory holding the crpstail package (default: this checkout's)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a second package directory, run beside --src")
    parser.add_argument("--pairs", type=int, default=1,
                        help="runs of each tree; with --baseline, alternated pairs")
    parser.add_argument("--t", type=int, default=1_000_000, help="records per simulated stream")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"src": args.src} | ({"baseline": args.baseline} if args.baseline else {})
    runs = {tree: [] for tree in trees}
    for pair in range(args.pairs):
        order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
        for tree in order:
            runs[tree].append(run_tree(trees[tree], args.t))
            print(f"pair {pair + 1}/{args.pairs}: {tree} done", file=sys.stderr, flush=True)
    print(f"{'command':<20} {'tree':<9} {'peak_rss_mb (quartiles)':>26} "
          f"{'cpu_s (quartiles)':>20}  exit")
    for name, _ in commands(args.t):
        for tree, tree_runs in runs.items():
            codes, cpus, maxrss_kb = zip(*(r[name] for r in tree_runs))
            rss = spread([kb / 1024 for kb in maxrss_kb])
            exits = ",".join(map(str, sorted(set(codes))))
            print(f"{name:<20} {tree:<9} {rss:>26} {spread(list(cpus)):>20}  {exits}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
