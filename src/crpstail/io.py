"""Record and report serialization.

Records travel as JSON lines, one object per record:

    {"t": 3, "y": 1.84, "hidden": 0.62,
     "forecast": {"family": "exponential", "params": [1.61]}}

``hidden`` is optional (present for simulated records, where it carries the
latent state). Ensemble forecasts store their members as the parameter
vector. JSON lines rather than CSV because parameter vectors vary in length
across families. Reports (score tables, verification curves) are emitted as
CSV or JSON with stable, documented headers.
"""

from __future__ import annotations

import csv
import io as _io
import json
import sys

import numpy as np

from .distributions import _FAMILIES
from .errors import DataFormatError, ParameterError
from .records import RecordBatch

__all__ = ["read_records", "write_records", "write_table", "format_float"]


def _forecast_params(obj, line: int) -> tuple[str, list]:
    fc = obj.get("forecast")
    if not isinstance(fc, dict):
        raise DataFormatError("missing or malformed 'forecast' object", line=line)
    family = fc.get("family")
    params = fc.get("params")
    if not isinstance(family, str):
        raise DataFormatError("forecast needs a string 'family'", line=line)
    if not isinstance(params, list) or not all(
        isinstance(p, (int, float)) for p in params
    ):
        raise DataFormatError("forecast needs a numeric 'params' list", line=line)
    return family, params


def read_records(path_or_file) -> RecordBatch:
    """Parse a JSON-lines record file into a :class:`RecordBatch`.

    All records must share one forecast family (and parameter length), and
    either all or none carry ``hidden``; violations, malformed lines and
    parameters outside the family's rule raise :class:`DataFormatError`
    tagged with the 1-based line number.
    """
    if hasattr(path_or_file, "read"):
        lines = path_or_file
        close = False
    else:
        lines = open(path_or_file, "r", encoding="utf-8")
        close = True
    try:
        t, y, hidden, params, line_of = [], [], [], [], []
        family = None
        n_params = None
        n_line = 0
        for n_line, raw in enumerate(lines, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"invalid JSON ({exc.msg})", line=n_line) from exc
            if not isinstance(obj, dict):
                raise DataFormatError("record line must be a JSON object", line=n_line)
            if "t" not in obj or "y" not in obj:
                raise DataFormatError("record needs 't' and 'y'", line=n_line)
            fam, par = _forecast_params(obj, n_line)
            if family is None:
                family = fam
                n_params = len(par)
                if fam not in _FAMILIES:
                    raise DataFormatError(f"unknown family {fam!r}", line=n_line)
            elif fam != family:
                raise DataFormatError(
                    f"mixed families: {fam!r} after {family!r}", line=n_line
                )
            elif len(par) != n_params:
                raise DataFormatError(
                    f"parameter length {len(par)} != {n_params}", line=n_line
                )
            t.append(obj["t"])
            y.append(obj["y"])
            hidden.append(obj.get("hidden"))
            params.append(par)
            line_of.append(n_line)
        if family is None:
            raise DataFormatError("no records found")
        has_hidden = [h is not None for h in hidden]
        if any(has_hidden) and not all(has_hidden):
            first_bad = line_of[has_hidden.index(False)]
            raise DataFormatError(
                "'hidden' must be present on all records or none", line=first_bad
            )
        try:
            return RecordBatch(
                t=np.asarray(t, dtype=np.int64),
                y=np.asarray(y, dtype=float),
                family=family,
                params=np.asarray(params, dtype=float),
                hidden=np.asarray(hidden, dtype=float) if all(has_hidden) else None,
            )
        except ParameterError as exc:
            line = None if exc.row is None else line_of[exc.row]
            raise DataFormatError(str(exc), line=line) from exc
    finally:
        if close:
            lines.close()


def write_records(batch: RecordBatch, path_or_file) -> None:
    """Emit a batch in the JSON-lines record format (round-trips exactly)."""
    if hasattr(path_or_file, "write"):
        fh = path_or_file
        close = False
    else:
        fh = open(path_or_file, "w", encoding="utf-8")
        close = True
    try:
        for i in range(len(batch)):
            obj = {"t": int(batch.t[i]), "y": float(batch.y[i])}
            if batch.hidden is not None:
                obj["hidden"] = float(batch.hidden[i])
            obj["forecast"] = {
                "family": batch.family,
                "params": [float(p) for p in np.atleast_1d(batch.params[i])],
            }
            fh.write(json.dumps(obj, separators=(", ", ": ")) + "\n")
    finally:
        if close:
            fh.close()


def format_float(x) -> str:
    """Shortest round-trip decimal form (deterministic across reruns)."""
    x = float(x)
    if x != x:
        return "nan"
    return repr(x)


def _jsonable(v):
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def write_table(header, rows, path_or_file=None, fmt: str = "csv", meta: dict | None = None):
    """Write a report table with a stable header, as CSV or JSON.

    CSV: one header row then data rows; floats in shortest round-trip form.
    JSON: ``{"meta": {...}, "columns": [...], "rows": [[...], ...]}``.
    ``path_or_file=None`` writes to stdout.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    rows = [list(r) for r in rows]
    if path_or_file is None:
        fh, close = sys.stdout, False
    elif hasattr(path_or_file, "write"):
        fh, close = path_or_file, False
    else:
        fh, close = open(path_or_file, "w", encoding="utf-8", newline=""), True
    try:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [format_float(v) if isinstance(v, float) else v for v in row]
                )
        else:
            payload = {
                "meta": meta or {},
                "columns": list(header),
                "rows": [[_jsonable(v) for v in row] for row in rows],
            }
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    finally:
        if close:
            fh.close()


def table_to_string(header, rows, fmt: str = "csv", meta: dict | None = None) -> str:
    buf = _io.StringIO()
    write_table(header, rows, buf, fmt=fmt, meta=meta)
    return buf.getvalue()
