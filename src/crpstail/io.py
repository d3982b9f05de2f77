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
from itertools import chain

import numpy as np

from .distributions import _FAMILIES
from .errors import DataFormatError, ParameterError
from .records import RecordBatch

__all__ = ["read_records", "write_records", "write_table", "format_float"]


# the types json.loads gives a JSON number; bool (true/false) is not one
_NUMBER = frozenset({int, float})


def _forecast_params(obj, line: int) -> tuple[str, list]:
    fc = obj.get("forecast")
    if not isinstance(fc, dict):
        raise DataFormatError("missing or malformed 'forecast' object", line=line)
    family = fc.get("family")
    params = fc.get("params")
    if not isinstance(family, str):
        raise DataFormatError("forecast needs a string 'family'", line=line)
    if not isinstance(params, list) or not _NUMBER.issuperset(map(type, params)):
        raise DataFormatError("forecast needs a numeric 'params' list", line=line)
    return family, params


def _column(values: list, dtype, name: str, line_of: list) -> np.ndarray:
    """``values`` (one entry per record) as an array of ``dtype``; a number
    too large for ``dtype`` raises :class:`DataFormatError` with its line."""
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:
        # the per-record search is slow: only on failure
        for value, line in zip(values, line_of):
            try:
                np.asarray(value, dtype=dtype)
            except OverflowError:
                raise DataFormatError(
                    f"'{name}' is out of range for {np.dtype(dtype)}", line=line
                ) from None
        raise


def read_records(path_or_file) -> RecordBatch:
    """Parse a JSON-lines record file into a :class:`RecordBatch`.

    All records must share one forecast family (and parameter length), and
    either all or none carry ``hidden``. ``t`` must be a JSON integer; ``y``,
    ``hidden`` and the parameters must be JSON numbers (not strings or
    booleans), and ``y`` and ``hidden`` must be finite (``NaN`` and
    ``Infinity`` are rejected). ``t`` must fit an int64 and the other numbers
    a float. Violations, malformed lines and parameters outside the family's
    rule raise :class:`DataFormatError` tagged with the 1-based line number.
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
            except ValueError as exc:  # the only other parse failure
                raise DataFormatError(
                    "integer literal longer than Python's digit limit", line=n_line
                ) from exc
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
            t_i, y_i, h_i = obj["t"], obj["y"], obj.get("hidden")
            if type(t_i) is not int:
                raise DataFormatError("'t' must be a JSON integer", line=n_line)
            if type(y_i) not in _NUMBER:
                raise DataFormatError("'y' must be a JSON number", line=n_line)
            if h_i is not None and type(h_i) not in _NUMBER:
                raise DataFormatError("'hidden' must be a JSON number", line=n_line)
            t.append(t_i)
            y.append(y_i)
            hidden.append(h_i)
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
        t = _column(t, np.int64, "t", line_of)
        y = _column(y, float, "y", line_of)
        hidden = _column(hidden, float, "hidden", line_of) if all(has_hidden) else None
        params = _column(params, float, "params", line_of)
        for name, column in (("y", y), ("hidden", hidden)):
            if column is not None and not np.isfinite(column).all():
                first_bad = line_of[int(np.argmin(np.isfinite(column)))]
                raise DataFormatError(f"'{name}' must be finite", line=first_bad)
        try:
            return RecordBatch(t=t, y=y, family=family, params=params, hidden=hidden)
        except ParameterError as exc:
            line = None if exc.row is None else line_of[exc.row]
            raise DataFormatError(str(exc), line=line) from exc
    finally:
        if close:
            lines.close()


# rows per write: bounds the text held in memory at once
_CHUNK_ROWS = 8192

# how json spells the floats that have no JSON number form
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(column: np.ndarray) -> list:
    """A float column as Python floats, whose ``%s`` form is the shortest repr
    that ``json.dumps`` also writes; non-finite values become json's spelling."""
    values = column.tolist()
    bad = ~np.isfinite(column)
    if bad.any():
        for i in np.flatnonzero(bad).tolist():
            values[i] = _JSON_NONFINITE[repr(values[i])]
    return values


def write_records(batch: RecordBatch, path_or_file) -> None:
    """Emit a batch in the JSON-lines record format (round-trips exactly).

    Each line is ``json.dumps(record, separators=(", ", ": "))`` of the
    record; the lines are filled from one template per batch, column by
    column, a bounded chunk of rows at a time.
    """
    float_columns = [batch.y] + ([] if batch.hidden is None else [batch.hidden])
    float_columns += list(batch.params.T)
    keys = ["y"] + ([] if batch.hidden is None else ["hidden"])
    family = json.dumps(batch.family)
    template = (
        '{"t": %s, '
        + "".join(f'"{key}": %s, ' for key in keys)
        + '"forecast": {"family": ' + family + ', "params": ['
        + ", ".join(["%s"] * batch.params.shape[1])
        + "]}}\n"
    )
    if hasattr(path_or_file, "write"):
        fh = path_or_file
        close = False
    else:
        fh = open(path_or_file, "w", encoding="utf-8")
        close = True
    try:
        for start in range(0, len(batch), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            columns = [batch.t[rows].tolist()]
            columns += [_json_numbers(c[rows]) for c in float_columns]
            fh.write("".join(map(template.__mod__, zip(*columns))))
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


def _csv_rows(rows):
    """``rows`` with every float cell in :func:`format_float` form under ``csv``.

    ``csv`` writes a float cell by its repr: that is format_float's form for
    a Python float, but ``np.float64(0.5)`` for a numpy float. Only a table
    holding such float subclasses is rebuilt, cell by cell.
    """
    cell_types = set(map(type, chain.from_iterable(rows)))
    if all(t is float or not issubclass(t, float) for t in cell_types):
        return rows
    return [[format_float(v) if isinstance(v, float) else v for v in row] for row in rows]


def write_table(header, rows, path_or_file=None, fmt: str = "csv", meta: dict | None = None):
    """Write a report table with a stable header, as CSV or JSON.

    ``rows`` is a sequence of row sequences.
    CSV: one header row then data rows; floats in shortest round-trip form.
    JSON: ``{"meta": {...}, "columns": [...], "rows": [[...], ...]}``.
    ``path_or_file=None`` writes to stdout.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
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
            writer.writerows(_csv_rows(rows))
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
