"""Benchmark of the crpstail command-line pipelines.

    python3 bench/run.py --workload jsonl_pipeline --seed 7 --seconds 36 --trace 0
    python3 bench/run.py                 # every workload, seed 1, 36 s each

Runs from any directory; builds nothing. The package is imported from
``src/`` beside this directory, and every step runs as a child process, one
at a time (a closed loop with one client). Each run repeats whole passes of
the workload until ``--seconds`` would be exceeded (at least two passes),
checks every output against the oracles in :mod:`oracles`, and prints a
table per workload followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The timed end-to-end metrics are CPU times (user + system, from each
child's rusage): on a shared machine, time the children spend waiting for
a CPU inflates wall time by up to half, but not CPU time. Wall times are
printed in the table beside them. A check miss that reproduces a defect on
record is printed and counted in ``check.known_defect_rows``, not in
``failed``.

With ``--trace 1`` the passes alternate between untraced and traced; a
traced step runs ``crpstail.cli.main`` in-process behind the shims of
:mod:`tracer`, and the per-layer numbers come from the traced passes only.

Exit codes: 0 with a result, 2 when the benchmark cannot run (no
``src/crpstail`` beside it, or the time budget is spent).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
# every run ends within 180 s; children still running at this point are killed
BUDGET_S = 160.0

# reported in the final JSON line with --trace 0; setup_s is the median CPU
# time of a fresh interpreter importing crpstail.cli
END_TO_END = {"setup_s": "s", "pipeline_cpu_s": "s", "records_per_cpu_s": "1/s", "peak_rss_mb": "MB"}

# reported with --trace 1; see tracer.layer_value for how a name is computed
PER_LAYER = [
    "cli.import_s",
    "cli.cmd_score.self_s",
    "cli.cmd_verify_qqpp.self_s",
    "io.read_records.s",
    "io.read_records.mb_per_s",
    "io.write_records.s",
    "io.write_records.mb_per_s",
    "io.write_table.s",
    "io.write_table.rows",
    "records.batch_cdf.s",
    "records.batch_cdf.calls",
    "records.subset.calls",
    "simulation.simulate.s",
    "simulation.simulate.records_per_s",
    *[
        f"scoring.{kernel}.{family}.{kind}"
        for kernel, families in (
            ("crps_closed_batch", ("exponential", "generalized_pareto", "gamma")),
            ("wcrps_quantile_batch", ("exponential", "normal", "normal_mixture2", "gamma")),
        )
        for family in families
        for kind in ("s", "rows")
    ],
    "scoring.crps_quadrature.s",
    "scoring.crps_quadrature.calls",
    "scoring.crps_quadrature.ms_per_call",
    "scoring.wcrps_quantile.s",
    "scoring.wcrps_quantile.calls",
    "scoring.closed_form_share",
    "scoring.integration_warnings",
    "distributions.from_family.calls",
    "evt.fit_gp.s",
    "evt.fit_gp.calls",
    "evt.threshold_grid.s",
    "verification.score_series.s",
    "verification.score_series.calls",
    "verification.shuffled_score_series.s",
    "verification.extremes_index.s",
    "verification.extremes_index.calls",
    "verification.pit_calibration.s",
    "verification.pit_calibration.calls",
    "verification.cvm_statistic.s",
    "verification.cvm_log_pvalue.s",
    "verification.dm_matrix.s",
    "verification.qq_pp.s",
    "tail_analysis.splice_tail.s",
    "tail_analysis.wcrps_gap_exact.s",
    "tail_analysis.spliced_gap_mc.s",
    "tail_analysis.ambiguity_region.s",
    "tail_analysis.expected_crps_pareto.s",
    "trace.overhead_s",
    "check.known_defect_rows",
]


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("mb_per_s"):
        return "MB/s"
    if metric.endswith("records_per_s"):
        return "1/s"
    if metric.endswith("ms_per_call"):
        return "ms"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("share"):
        return "share"
    return "count"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float  # user + system
    returncode: int
    maxrss_mb: float


@dataclass
class Pass:
    index: int
    traced: bool
    duration_s: float
    children: list[Child]
    digests: list[str | None] = field(default_factory=list)
    layers: dict | None = None

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)


class Runner:
    """Runs children one at a time through :mod:`spawner`, so that each
    child's peak RSS is its own and not this process's."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, argv, cwd: Path, log: Path) -> Child:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0.0:
            raise BenchError("time budget spent")
        request = {
            "argv": [str(a) for a in argv],
            "cwd": str(cwd),
            "env": self.env,
            "stdout": str(log.with_suffix(".out")),
            "stderr": str(log.with_suffix(".err")),
            "timeout_s": remaining,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise BenchError("the child spawner stopped")
        done = json.loads(reply)
        # ru_maxrss is in KiB on Linux
        return Child(done["wall_s"], done["cpu_s"], done["returncode"],
                     done["maxrss_kb"] / 1024.0)


def measure_setup(runner: Runner, work: Path, repeats: int) -> list[Child]:
    """Fresh interpreter + ``import crpstail.cli``, ``repeats`` times; a first,
    untimed, run writes the bytecode cache and confirms the package comes
    from src/."""
    probe = "import crpstail.cli; print(crpstail.cli.__file__)"
    warm = runner.run([sys.executable, "-c", probe], work, work / "setup-probe")
    origin = (work / "setup-probe.out").read_text().strip()
    if warm.returncode != 0 or Path(origin).resolve() != (SRC / "crpstail" / "cli.py").resolve():
        raise BenchError(f"crpstail.cli does not import from {SRC} (got {origin!r})")
    return [
        runner.run([sys.executable, "-c", "import crpstail.cli"], work, work / "setup")
        for _ in range(repeats)
    ]


def step_argv(step: workloads.Step, traced: bool, pass_dir: Path, index: int) -> list[str]:
    if traced:
        spans = pass_dir / f"{step.name}.spans.json"
        return [sys.executable, str(BENCH / "tracer.py"), str(spans), str(index), step.entry,
                *step.argv]
    if step.entry == "cli":
        return [sys.executable, "-m", "crpstail", *step.argv]
    return [sys.executable, str(BENCH / "libstep.py"), *step.argv]


def run_pass(runner: Runner, wl: workloads.Workload, pass_dir: Path, index: int,
             traced: bool) -> Pass:
    pass_dir.mkdir()
    children = []
    start = time.perf_counter()
    for step in wl.steps:
        argv = step_argv(step, traced, pass_dir, index)
        children.append(runner.run(argv, pass_dir, pass_dir / step.name))
    duration = time.perf_counter() - start
    done = Pass(index, traced, duration, children)
    for step in wl.steps:
        out = pass_dir / step.out
        done.digests.append(hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else None)
    if traced:
        spans = [pass_dir / f"{s.name}.spans.json" for s in wl.steps]
        done.layers = tracer.pass_layers(
            [json.loads(p.read_text()) for p in spans if p.is_file()]
        )
    return done


@dataclass
class Result:
    workload: str
    seed: int
    checker: oracles.Checker
    passes: list[Pass]
    samples: dict[str, list[float]]  # end-to-end metric -> one value per sample
    layers: dict[str, float]  # per-layer metric -> value (traced runs only)

    @property
    def correct(self) -> bool:
        return self.checker.failed == 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 runner: Runner, toy: bool = False, setup_repeats: int = SETUP_REPEATS,
                 keep: bool = False) -> Result:
    """Set up, run passes for ``seconds``, check the outputs, gather metrics.

    The outputs of pass 0 are kept for the oracle checks; later passes are
    compared with it byte for byte and deleted, unless ``keep``.
    """
    wl = workloads.WORKLOADS[name](seed, toy)
    base = work / name
    (base / "inputs").mkdir(parents=True)
    ctx = wl.prepare(base / "inputs")
    setup = measure_setup(runner, base, setup_repeats)

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        passes.append(run_pass(runner, wl, base / f"pass{index}", index, trace and index % 2 == 1))
        if index and not keep:
            shutil.rmtree(base / f"pass{index}")
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.duration_s for p in passes)
        if len(passes) >= 2 and elapsed + typical > seconds:
            break

    ck = oracles.Checker()
    for p in passes:
        for step, child, digest, first in zip(wl.steps, p.children, p.digests, passes[0].digests):
            ck.expect(child.returncode == 0,
                      f"{name} pass {p.index} {step.metric}: exit code {child.returncode}")
            if p.index:
                ck.expect(digest == first, f"{name} pass {p.index} {step.out}: differs from pass 0")
    try:
        wl.check(ck, base / "pass0", ctx)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ck.error(f"{name}: outputs of pass 0 could not be checked: {exc!r}")

    untraced = [p for p in passes if not p.traced]
    cpu = [p.cpu_s for p in untraced]
    samples = {
        "setup_s": [c.cpu_s for c in setup],
        "setup_wall_s": [c.wall_s for c in setup],
        "pipeline_cpu_s": cpu,
        "records_per_cpu_s": [wl.records / c for c in cpu],
        "peak_rss_mb": [max(c.maxrss_mb for c in p.children) for p in untraced],
        "pipeline_s": [p.duration_s for p in untraced],
        "records_per_s": [wl.records / p.duration_s for p in untraced],
    }
    for i, step in enumerate(wl.steps):
        samples[step.metric] = [p.children[i].wall_s for p in untraced]

    layers = {}
    traced = [p for p in passes if p.traced]
    if traced:
        for metric in PER_LAYER:
            if metric == "trace.overhead_s":
                value = (statistics.median(p.cpu_s for p in traced)
                         - statistics.median(samples["pipeline_cpu_s"]))
            elif metric == "check.known_defect_rows":
                value = ck.known
            else:
                value = statistics.median(tracer.layer_value(metric, p.layers) for p in traced)
            layers[metric] = value
    return Result(name, seed, ck, passes, samples, layers)


def highest_percentile(n: int):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    fit = [p for p in (50, 90, 99, 99.9) if n * (1.0 - p / 100.0) >= 10.0]
    return fit[-1] if fit else None


def report(res: Result) -> None:
    ck = res.checker
    n_traced = sum(p.traced for p in res.passes)
    print(f"== {res.workload}  seed={res.seed}  passes={len(res.passes)} "
          f"(traced {n_traced})  correct={res.correct}")
    for metric, values in res.samples.items():
        if not values:
            continue
        pct = highest_percentile(len(values))
        tail = (f"p{pct:g}={statistics.quantiles(values, n=1000)[round(pct * 10) - 1]:.6g}"
                if pct else "no percentile above the median has 10 samples beyond it")
        shown = " ".join(f"{v:.4g}" for v in values) if len(values) <= 10 else "..."
        print(f"  {metric:<28} {statistics.median(values):>12.6g} {unit_of(metric):<6} "
              f"median of n={len(values)} [{shown}]; {tail}")
    share = (ck.failed + ck.known) / ck.attempted
    print(f"  {'failed_share':<28} {share:>12.6g} {'share':<6} "
          f"{ck.failed + ck.known} failed of {ck.attempted} operations "
          f"({ck.known} known defect, {ck.failed} unexpected)")
    if res.layers:
        traced = [p.cpu_s for p in res.passes if p.traced]
        print(f"  traced pipeline_cpu_s {statistics.median(traced):.6g} s vs untraced "
              f"{statistics.median(res.samples['pipeline_cpu_s']):.6g} s")
        for metric, value in res.layers.items():
            print(f"  {metric:<44} {value:>12.6g} {unit_of(metric)}")


def summary(results: list[Result], trace: bool) -> dict:
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        values = (res.layers if trace
                  else {m: statistics.median(res.samples[m]) for m in END_TO_END})
        for metric, value in values.items():
            key = f"{res.workload}/{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit_of(metric)}
    return {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.checker.attempted for r in results),
        "failed": sum(r.checker.failed for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crpstail" / "cli.py").is_file():
        print(f"bench: no crpstail sources at {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"{os.getpid()}"
    results = []
    try:
        for name in names:
            with Runner(time.monotonic() + BUDGET_S) as runner:
                results.append(run_workload(
                    name, args.seed, args.seconds, bool(args.trace), work, runner,
                    setup_repeats=0 if args.trace else SETUP_REPEATS,
                ))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for res in results:
        report(res)
    print(json.dumps(summary(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
