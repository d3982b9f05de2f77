"""Print the peak RSS and CPU time of each CLI command that the benchmark runs.

The commands are the ``python -m crpstail`` steps of the benchmark's
workloads, at ``--t`` records and seed 7: ``simulate`` (``ge``/``ideal``),
``score --weight-quantile 0.9 --shuffle-seed 1``, ``verify qqpp`` and
``fit-gp --method mle`` on that record file, ``verify index-curve``
(simulated ``ge``/``ideal``, ``--t`` records) and ``verify dm`` (simulated
``nn``, three tenths of ``--t`` records, the benchmark's ratio of 3e5 to
1e6), and ``verify cup``. The gamma record file and the library step of
``quadrature_tail`` are left out: building them takes numpy.

Each command runs in one fresh temporary directory, in order, against the
package sources in ``--src``. For each the tool prints the child's own
``ru_maxrss`` in MB of 2^20 bytes (the unit of the benchmark's
``peak_rss_mb``), its user plus system CPU seconds, and its exit code, all
from ``os.wait4``. Linux carries the peak RSS a process had before
``exec`` into the ``ru_maxrss`` of its child; this tool imports no numpy,
so its own RSS stays below every child's.

Run:  python3 tools/peak_rss.py [--src DIR] [--t N]
"""

import argparse
import os
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


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=here / "src",
                        help="directory holding the crpstail package (default: this checkout's)")
    parser.add_argument("--t", type=int, default=1_000_000, help="records per simulated stream")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    print(f"{'command':<20} {'peak_rss_mb':>11} {'cpu_s':>7}  exit")
    with tempfile.TemporaryDirectory() as tmp:
        for name, cli_argv in commands(args.t):
            code, cpu, maxrss_kb = run(cli_argv, Path(tmp), env)
            print(f"{name:<20} {maxrss_kb / 1024:>11.1f} {cpu:>7.2f}  {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
