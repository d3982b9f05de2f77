"""Traced run: timing shims around crpstail's public functions.

A traced step runs in its own interpreter, as the untraced step does:

    python3 bench/tracer.py SPANS.json PASS_ID cli score --records f.jsonl ...
    python3 bench/tracer.py SPANS.json PASS_ID lib --seed 7 --n 1000000 ...

It imports ``crpstail.cli`` (timing the import), puts a shim at every name
that binds one of the TARGETS functions, in every ``crpstail`` module (for
example ``crpstail.cli.read_records`` and
``crpstail.verification.crps_closed_batch``), then calls
``crpstail.cli.main(argv)`` or ``libstep.main(argv)`` in-process. Spans
(name, start, end, parent span, rows, bytes, ok) stay in memory and are
written to SPANS.json when the step ends, with the warning counts seen
under ``warnings.simplefilter("always")``.

The aggregation side (:func:`pass_layers`, :func:`layer_value`), used by
``run.py``, turns the span files of one pass into per-layer numbers: self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _stream_bytes(target) -> int:
    """Size of a record file given by path, or the position of an open stream."""
    if isinstance(target, (str, os.PathLike)):
        return os.path.getsize(target)
    try:
        return target.tell()
    except (AttributeError, OSError, ValueError):
        return 0


def _family_name(name, args, kwargs):
    return f"{name}.{_arg(args, kwargs, 0, 'family')}"


def _y_rows(i):
    def rows(args, kwargs):
        # numpy arrays and scalars have .size; a Python float is one row
        return int(getattr(_arg(args, kwargs, i, "y"), "size", 1))

    return rows


# layer module -> function (or Class.method) -> optional "name", "rows" and
# "nbytes" callables of the call's arguments; rows and bytes are taken only
# after the call returns
TARGETS = {
    "cli": {
        f: {}
        for f in (
            "cmd_simulate",
            "cmd_score",
            "cmd_verify_qqpp",
            "cmd_fit_gp",
            "cmd_verify_index_curve",
            "cmd_verify_dm",
            "cmd_verify_cup",
        )
    },
    "io": {
        "read_records": {"nbytes": lambda a, k: _stream_bytes(_arg(a, k, 0, "path_or_file"))},
        "write_records": {
            "rows": lambda a, k: len(_arg(a, k, 0, "batch")),
            "nbytes": lambda a, k: _stream_bytes(_arg(a, k, 1, "path_or_file")),
        },
        "write_table": {"rows": lambda a, k: len(_arg(a, k, 1, "rows"))},
    },
    "records": {"batch_cdf": {}, "RecordBatch.subset": {}},
    "simulation": {"simulate": {"rows": lambda a, k: int(_arg(a, k, 2, "t"))}},
    "scoring": {
        "crps_closed_batch": {"name": _family_name, "rows": _y_rows(2)},
        "wcrps_quantile_batch": {"name": _family_name, "rows": _y_rows(2)},
        "crps_quadrature": {"rows": _y_rows(1)},
        "wcrps_quantile": {"rows": _y_rows(1)},
    },
    "distributions": {"from_family": {}},
    "evt": {"fit_gp": {}, "threshold_grid": {}},
    "verification": {
        "score_series": {"rows": lambda a, k: len(_arg(a, k, 0, "batch"))},
        "shuffled_score_series": {"rows": lambda a, k: len(_arg(a, k, 0, "batch"))},
        "extremes_index": {},
        "pit_calibration": {},
        "cvm_statistic": {},
        "cvm_log_pvalue": {},
        "dm_matrix": {},
        "qq_pp": {},
    },
    "tail_analysis": {
        f: {}
        for f in (
            "splice_tail",
            "wcrps_gap_bound",
            "wcrps_gap_exact",
            "spliced_gap_mc",
            "ambiguity_region",
            "expected_crps_pareto",
        )
    },
}


class Tracer:
    """In-memory span recorder for one traced step."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []  # [name, start, end, parent, rows, nbytes, ok]
        self.stack: list[int] = []
        self.warnings: Counter = Counter()

    def shim(self, name: str, fn, spec: dict):
        name_of = spec.get("name")
        rows_of = spec.get("rows")
        bytes_of = spec.get("nbytes")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name_of(name, args, kwargs) if name_of else name, 0.0, 0.0,
                    self.stack[-1] if self.stack else None, 0, 0, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            span[4] = rows_of(args, kwargs) if rows_of else 0
            span[5] = bytes_of(args, kwargs) if bytes_of else 0
            span[6] = True
            return result

        return timed

    def install(self) -> None:
        """Replace every binding of each target in the loaded crpstail modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "crpstail" or n.startswith("crpstail.")]
        for layer, functions in TARGETS.items():
            module = sys.modules[f"crpstail.{layer}"]
            for attr, spec in functions.items():
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self.shim(f"{layer}.{method}", getattr(cls, method), spec))
                    continue
                original = getattr(module, attr)
                timed = self.shim(f"{layer}.{attr}", original, spec)
                for m in modules:
                    for bound_name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, bound_name, timed)

    def count_warning(self, message, category, filename, lineno, file=None, line=None):
        self.warnings[category.__name__] += 1

    def dump(self, path, import_s: float) -> None:
        doc = {
            "pass": self.pass_id,
            "import_s": import_s,
            "spans": self.spans,
            "warnings": dict(self.warnings),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def child_main(argv) -> int:
    # nothing above imports numpy or scipy, so import_s is the full import
    span_path, pass_id, entry, *rest = argv
    start = time.perf_counter()
    import crpstail.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(int(pass_id))
    tracer.install()
    warnings.simplefilter("always")
    warnings.showwarning = tracer.count_warning
    try:
        if entry == "cli":
            return crpstail.cli.main(rest)
        import libstep

        return libstep.main(rest)
    finally:
        tracer.dump(span_path, import_s)


# ---------------------------------------------------------------------------
# aggregation, in run.py
# ---------------------------------------------------------------------------


def pass_layers(docs) -> dict:
    """Aggregate the span files of one pass.

    Returns {"spans": {name: {self_s, dur_s, calls, rows, nbytes}},
    "import_s": [...], "warnings": Counter}.
    """
    spans = defaultdict(lambda: {"self_s": 0.0, "dur_s": 0.0, "calls": 0, "rows": 0, "nbytes": 0})
    import_s, warned = [], Counter()
    for doc in docs:
        import_s.append(doc["import_s"])
        warned.update(doc["warnings"])
        records = doc["spans"]
        child_time = [0.0] * len(records)
        for name, start, end, parent, rows, nbytes, ok in records:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, parent, rows, nbytes, ok), inner in zip(records, child_time):
            agg = spans[name]
            agg["self_s"] += end - start - inner
            agg["dur_s"] += end - start
            agg["calls"] += 1
            agg["rows"] += rows
            agg["nbytes"] += nbytes
    return {"spans": dict(spans), "import_s": import_s, "warnings": warned}


BATCH_KERNELS = ("scoring.crps_closed_batch.", "scoring.wcrps_quantile_batch.")
ROW_KERNELS = ("scoring.crps_quadrature", "scoring.wcrps_quantile")


def layer_value(metric: str, layers: dict) -> float:
    """One per-layer metric from a pass aggregate, by the metric's suffix."""
    spans = layers["spans"]
    if metric == "cli.import_s":
        return statistics.median(layers["import_s"])
    if metric == "scoring.integration_warnings":
        return float(layers["warnings"].get("IntegrationWarning", 0))
    if metric == "scoring.closed_form_share":
        batch = sum(v["rows"] for k, v in spans.items() if k.startswith(BATCH_KERNELS))
        rows = sum(spans.get(k, {"rows": 0})["rows"] for k in ROW_KERNELS)
        return batch / (batch + rows) if batch + rows else 0.0
    name, _, kind = metric.rpartition(".")
    agg = spans.get(name, {"self_s": 0.0, "dur_s": 0.0, "calls": 0, "rows": 0, "nbytes": 0})
    if kind in ("s", "self_s"):
        return agg["self_s"]
    if kind in ("calls", "rows"):
        return float(agg[kind])
    if kind == "mb_per_s":
        return agg["nbytes"] / 1e6 / agg["dur_s"] if agg["dur_s"] else 0.0
    if kind == "records_per_s":
        return agg["rows"] / agg["dur_s"] if agg["dur_s"] else 0.0
    if kind == "ms_per_call":
        return 1e3 * agg["dur_s"] / agg["calls"] if agg["calls"] else 0.0
    raise KeyError(f"no rule for per-layer metric {metric!r}")


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
