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
import math
import re
import sys
from collections.abc import Sequence
from itertools import chain, islice
from operator import itemgetter
from typing import NamedTuple

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


def _column(values, dtype, name: str, line_of) -> np.ndarray:
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


# lines per chunk: bounds the text held in memory at once, read and write
_CHUNK_ROWS = 8192

# the strict JSON number grammar: no leading zeros, '+', bare '.', NaN or
# Infinity; [0-9], not \d, which also matches non-ASCII digits. An optional
# part is written (?:...|), which Python's re runs faster than (?:...)?
_JSON_INT = r"(-?(?:0|[1-9][0-9]*))"
_JSON_NUMBER = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][+-]?[0-9]+|))"


def _record_layout(family: str, n_params: int, hidden: bool) -> list[str]:
    """The text of the canonical record line around its number slots.

    The slots are ``t``, ``y``, ``hidden`` (when present) and the
    parameters, in that order; :func:`write_records` fills them, and
    :func:`read_records` matches them, so the two share this one layout.
    """
    keys = ["y"] + (["hidden"] if hidden else [])
    line = (
        '{"t": \0, '
        + "".join(f'"{key}": \0, ' for key in keys)
        + '"forecast": {"family": ' + json.dumps(family) + ', "params": ['
        + ", ".join(["\0"] * n_params)
        + "]}}\n"
    )
    return line.split("\0")  # json.dumps spells a NUL in the family as \u0000


def _record_pattern(family: str, n_params: int, hidden: bool) -> re.Pattern:
    """A regex matching one whole line of the canonical layout, one group
    per number slot."""
    layout = _record_layout(family, n_params, hidden)
    return re.compile(
        "^" + re.escape(layout[0]) + _JSON_INT + _JSON_NUMBER.join(map(re.escape, layout[1:])),
        re.MULTILINE,
    )


class _Chunk(NamedTuple):
    """One chunk of records: arrays from the column path, lists from the
    per-line path."""

    t: Sequence
    y: Sequence
    hidden: Sequence | None  # None when no record of the chunk has 'hidden'
    params: Sequence
    line_of: Sequence[int]  # 1-based line of each record
    gap: int | None  # line of the first record without 'hidden'


def _parse_lines(lines, n_line: int, family, n_params):
    """The per-line parser: one ``json.loads`` per line, ``n_line`` lines
    before ``lines``. Returns the family, its parameter count and the chunk.

    It reads any JSON layout of the records and raises every per-line
    :class:`DataFormatError`; the tests hold the column path to its results.
    """
    t, y, hidden, params, line_of = [], [], [], [], []
    for n_line, raw in enumerate(lines, start=n_line + 1):
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
    missing = [line for line, h in zip(line_of, hidden) if h is None]
    if len(missing) == len(line_of):
        hidden = None
    gap = missing[0] if missing else None
    return family, n_params, _Chunk(t, y, hidden, params, line_of, gap)


def _match_lines(pattern, lines, n_line: int, hidden: bool) -> _Chunk | None:
    """The column path: ``lines`` as one chunk of arrays when every line is
    a canonical record (``pattern`` matches each whole line), else None.

    None too for what the per-line parser reads differently or rejects: a
    number out of range, and the integer literal ``-0`` in a float field
    (json reads it as the integer 0, whose float is +0.0, not -0.0).
    """
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    # each match is one whole line: as many matches as lines tile the text
    matches = pattern.findall(text)
    if len(matches) != len(lines):
        return None
    t, *numbers = zip(*matches)
    if any("-0" in column for column in numbers):
        return None
    try:
        t = np.array(list(map(int, t)), dtype=np.int64)
    except (OverflowError, ValueError):  # past int64, or Python's digit limit
        return None
    numbers = np.array([list(map(float, column)) for column in numbers])
    if not np.isfinite(numbers).all():
        return None
    k = 2 if hidden else 1
    return _Chunk(
        t,
        numbers[0],
        numbers[1] if hidden else None,
        np.ascontiguousarray(numbers[k:].T),
        range(n_line + 1, n_line + 1 + len(lines)),
        None if hidden else n_line + 1,
    )


def read_records(path_or_file) -> RecordBatch:
    """Parse a JSON-lines record file into a :class:`RecordBatch`.

    All records must share one forecast family (and parameter length), and
    either all or none carry ``hidden``. ``t`` must be a JSON integer; ``y``,
    ``hidden`` and the parameters must be JSON numbers (not strings or
    booleans), and ``y`` and ``hidden`` must be finite (``NaN`` and
    ``Infinity`` are rejected). ``t`` must fit an int64 and the other numbers
    a float. Violations, malformed lines and parameters outside the family's
    rule raise :class:`DataFormatError` tagged with the 1-based line number.

    Any JSON layout of the records is read, with the same result. Chunks of
    lines in the layout :func:`write_records` emits, matched against the
    first record's family, parameter count and ``hidden``, are parsed column
    by column; every other chunk line by line.
    """
    if hasattr(path_or_file, "read"):
        fh = path_or_file
        close = False
    else:
        fh = open(path_or_file, "r", encoding="utf-8")
        close = True
    try:
        chunks = []
        family = n_params = pattern = None
        has_hidden = False
        n_line = 0
        while lines := list(islice(fh, _CHUNK_ROWS)):
            if family is None:
                # the first record fixes the layout later lines are matched to
                first = next((i for i, raw in enumerate(lines) if raw.strip()), None)
                if first is not None:
                    family, n_params, head = _parse_lines(
                        lines[first : first + 1], n_line + first, None, None
                    )
                    has_hidden = head.hidden is not None
                    if isinstance(lines[first], str):  # not a binary stream
                        pattern = _record_pattern(family, n_params, has_hidden)
            chunk = pattern and _match_lines(pattern, lines, n_line, has_hidden)
            if chunk is None:
                family, n_params, chunk = _parse_lines(lines, n_line, family, n_params)
            if chunk.line_of:  # not a chunk of blank lines
                chunks.append(chunk)
            n_line += len(lines)
        if family is None:
            raise DataFormatError("no records found")

        gaps = [c.gap for c in chunks if c.gap is not None]
        any_hidden = any(c.hidden is not None for c in chunks)
        if any_hidden and gaps:
            raise DataFormatError(
                "'hidden' must be present on all records or none", line=gaps[0]
            )

        def column(field: str, dtype) -> np.ndarray:
            return np.concatenate(
                [_column(getattr(c, field), dtype, field, c.line_of) for c in chunks]
            )

        def line_of(row: int) -> int:
            return list(chain.from_iterable(c.line_of for c in chunks))[row]

        t = column("t", np.int64)
        y = column("y", float)
        hidden = column("hidden", float) if any_hidden else None
        params = column("params", float)
        for name, values in (("y", y), ("hidden", hidden)):
            if values is not None and not np.isfinite(values).all():
                first_bad = line_of(int(np.argmin(np.isfinite(values))))
                raise DataFormatError(f"'{name}' must be finite", line=first_bad)
        try:
            return RecordBatch(t=t, y=y, family=family, params=params, hidden=hidden)
        except ParameterError as exc:
            line = None if exc.row is None else line_of(exc.row)
            raise DataFormatError(str(exc), line=line) from exc
    finally:
        if close:
            fh.close()


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
    layout = _record_layout(batch.family, batch.params.shape[1], batch.hidden is not None)
    template = "%s".join(layout)
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


def _csv_writes_as_is(columns) -> bool:
    """Whether ``csv`` writes every cell of ``columns`` as its ``%s`` form:
    Python ints and floats, and strings it leaves unquoted."""
    strings = set()
    for column in columns:
        types = set(map(type, column))
        if not types <= {int, float, str}:
            return False
        if str in types:
            strings.update(v for v in set(column) if type(v) is str)
    # csv's own quoting rules decide, in rows as wide as the table's
    rows = [[s] * len(columns) for s in strings]
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue() == "".join(",".join(row) + "\n" for row in rows)


def _json_cell(value) -> str:
    """One cell as ``json.dump(..., indent=1, sort_keys=True)`` writes it at
    a table cell's depth (numpy scalars as their Python numbers)."""
    text = json.dumps(_jsonable(value), indent=1, sort_keys=True)
    return text.replace("\n", "\n   ")


def _json_column(column) -> list:
    """A table column as the JSON text of its cells."""
    types = set(map(type, column))
    if types <= {int} or (types == {float} and all(map(math.isfinite, column))):
        return column  # %s is the repr json writes
    if types == {str}:
        return list(map(json.dumps, column))
    return list(map(_json_cell, column))


def _write_rows(fh, template: str, columns: list, separator: str = "") -> None:
    """Fill ``template`` from ``columns``, a chunk of rows per ``write``;
    ``separator`` goes between rows."""
    rows = zip(*columns)
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        text = separator.join(map(template.__mod__, islice(rows, _CHUNK_ROWS)))
        fh.write(text if start == 0 else separator + text)


def write_table(header, rows, path_or_file=None, fmt: str = "csv", meta: dict | None = None):
    """Write a report table with a stable header, as CSV or JSON.

    ``rows`` is a sequence of row sequences; the header needs at least one
    column and each row one cell per column (else ``ValueError``).
    CSV: one header row then data rows; floats in shortest round-trip form.
    JSON: ``{"meta": {...}, "columns": [...], "rows": [[...], ...]}``, laid
    out as ``json.dump(..., indent=1, sort_keys=True)`` writes it.
    ``path_or_file=None`` writes to stdout.

    The data lines are filled from one template per table, column by column.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    width = len(header)
    if not width:
        raise ValueError("a table needs at least one column")
    if not set(map(len, rows)) <= {width}:
        raise ValueError(f"every row needs {width} cells, one per column")
    columns = [list(map(itemgetter(j), rows)) for j in range(width)]
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
            if _csv_writes_as_is(columns):
                _write_rows(fh, ",".join(["%s"] * width) + "\n", columns)
            else:
                writer.writerows(_csv_rows(rows))
        else:
            # "rows" sorts last: the head is json's text up to its empty list
            head = json.dumps(
                {"columns": list(header), "meta": meta or {}, "rows": []},
                indent=1,
                sort_keys=True,
            )
            if not rows:
                fh.write(head + "\n")
            else:
                fh.write(head[: -len("[]\n}")] + "[\n")
                template = "  [\n   " + ",\n   ".join(["%s"] * width) + "\n  ]"
                _write_rows(fh, template, [_json_column(c) for c in columns], ",\n")
                fh.write("\n ]\n}\n")
    finally:
        if close:
            fh.close()


def table_to_string(header, rows, fmt: str = "csv", meta: dict | None = None) -> str:
    buf = _io.StringIO()
    write_table(header, rows, buf, fmt=fmt, meta=meta)
    return buf.getvalue()
