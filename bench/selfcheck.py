"""Toy-size self-check of the benchmark (about half a minute).

    python3 bench/selfcheck.py

Runs every workload once untraced and once traced at toy sizes, then
asserts that
- every end-to-end and per-layer metric is reported, under a name made of
  ``[A-Za-z0-9_.-]`` only, and that BENCHMARK.json lists the same metrics;
- the untouched outputs pass their checks (known-defect rows aside);
- each output check trips on a deliberately corrupted copy of its output.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time
from pathlib import Path

import oracles
import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# reported on the workloads whose steps run them; together they cover all
COMMAND_METRICS = [
    "cmd.simulate_s",
    "cmd.score_s",
    "cmd.fit_gp_s",
    "cmd.verify_qqpp_s",
    "cmd.verify_index_curve_s",
    "cmd.verify_dm_s",
    "cmd.verify_cup_s",
]


def _scale_csv_cell(column: str, row, factor: float):
    """``row`` is an index, or a function of the workload context giving one."""

    def corrupt(path: Path, ctx: dict) -> None:
        header, rows = oracles.read_csv(path)
        j = header.index(column)
        i = row(ctx) if callable(row) else row
        rows[i][j] = repr(float(rows[i][j]) * factor)
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")

    return corrupt


def _set_csv_cell(column: str, row: int, value: str):
    def corrupt(path: Path, ctx: dict) -> None:
        header, rows = oracles.read_csv(path)
        rows[row][header.index(column)] = value
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")

    return corrupt


def _scale_json_field(key: str, factor: float):
    def corrupt(path: Path, ctx: dict) -> None:
        doc = json.loads(path.read_text())
        doc[key] *= factor
        path.write_text(json.dumps(doc))

    return corrupt


def _negate_first_y(path: Path, ctx: dict) -> None:
    lines = path.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["y"] = -obj["y"]
    lines[0] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


# workload -> output file -> corruption that its check must catch
CORRUPTIONS = {
    "jsonl_pipeline": {
        "sim.jsonl": _negate_first_y,
        "score.csv": _scale_csv_cell("crps", 3, 1.0 + 1e-6),
        "qqpp.csv": _scale_csv_cell("shuffled", 1000, 1.0 + 1e-3),
        "fit.csv": _set_csv_cell("gamma", 0, "0.9"),
    },
    "sim_verify": {
        "index_curve.csv": _set_csv_cell("auto_calibrated", 2, "0"),
        "dm.csv": _scale_csv_cell("statistic", 0, -1.0),
    },
    "quadrature_tail": {
        # a bulk row: misses on far-tail rows are a known defect
        "score.csv": _scale_csv_cell("crps", lambda ctx: int((~ctx["far"]).argmax()), 1.0 + 1e-6),
        "cup.csv": _scale_csv_cell("phi", 40, 1.0 + 1e-6),
        "splice.json": _scale_json_field("gap_exact", 1.0 + 1e-4),
    },
}


def main() -> int:
    problems = []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    if declared_e2e != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared_e2e} != {run.END_TO_END}")
    if declared_layers != {m: run.unit_of(m) for m in run.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")

    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    seen = set()
    try:
        for name in workloads.WORKLOADS:
            with run.Runner(time.monotonic() + run.BUDGET_S) as runner:
                res = run.run_workload(name, 3, 0.0, True, work, runner, toy=True,
                                       setup_repeats=1, keep=True)
            run.report(res)
            reported = {*res.samples, "failed_share", *res.layers}
            seen |= reported
            for metric in [*run.END_TO_END, "failed_share", *run.PER_LAYER]:
                if metric not in reported:
                    problems.append(f"{name}: metric {metric} not reported")
            problems += [f"{name}: bad metric name {m!r}" for m in reported
                         if not NAME.fullmatch(m)]
            if not res.correct:
                problems.append(f"{name}: untouched outputs fail their checks")

            wl = workloads.WORKLOADS[name](3, True)
            ctx = wl.prepare(work / name / "inputs")
            for out, corrupt in CORRUPTIONS[name].items():
                copy = work / name / f"corrupt-{out}"
                shutil.copytree(work / name / "pass0", copy)
                corrupt(copy / out, ctx)
                ck = oracles.Checker()
                wl.check(ck, copy, ctx)
                if ck.failed == 0:
                    problems.append(f"{name}: corrupted {out} passed its checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += [f"metric {m} reported by no workload" for m in COMMAND_METRICS if m not in seen]

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
