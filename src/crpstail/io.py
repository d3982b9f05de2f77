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
from contextlib import nullcontext
from functools import partial
from itertools import accumulate, islice
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .distributions import _FAMILIES, check_params
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


def _float(value, name: str, line: int) -> float:
    """``value`` as a float; :class:`DataFormatError` if it is too large for one."""
    try:
        return float(value)
    except OverflowError:
        raise DataFormatError(f"'{name}' is out of range for float64", line=line) from None


# lines per chunk: bounds the text held in memory at once, read and write.
# A chunk of record lines being parsed holds several times its text in
# Python strings; at 2,048 lines that stays a small share of a batch read
_CHUNK_ROWS = 2048

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
    """One chunk of records, an array per field, checked but for the family's rule."""

    t: np.ndarray
    y: np.ndarray
    hidden: np.ndarray | None  # None when the records carry no 'hidden'
    params: np.ndarray
    line_of: Sequence[int]  # 1-based line of each record


def _parse_lines(lines, n_line: int, family, n_params, has_hidden):
    """The per-line parser: one ``json.loads`` per line, ``n_line`` lines
    before ``lines``. Returns the family, its parameter count, whether the
    records carry ``hidden`` (a ``family`` of None takes all three from the
    first record) and the chunk. It reads any JSON layout of the records and
    raises each :class:`DataFormatError` but the family's rule at its line;
    the tests hold the column path to its results.
    """
    records, line_of = [], []
    for n_line, raw in enumerate(lines, start=n_line + 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON ({exc.msg})", line=n_line) from exc
        except ValueError as exc:  # the only other parse failure
            raise DataFormatError("integer literal longer than Python's digit limit",
                                  line=n_line) from exc
        if not isinstance(obj, dict):
            raise DataFormatError("record line must be a JSON object", line=n_line)
        if "t" not in obj or "y" not in obj:
            raise DataFormatError("record needs 't' and 'y'", line=n_line)
        fam, par = _forecast_params(obj, n_line)
        t_i, y_i, h_i = obj["t"], obj["y"], obj.get("hidden")
        if family is None:
            family, n_params, has_hidden = fam, len(par), h_i is not None
            if fam not in _FAMILIES:
                raise DataFormatError(f"unknown family {fam!r}", line=n_line)
        elif fam != family:
            raise DataFormatError(f"mixed families: {fam!r} after {family!r}", line=n_line)
        elif len(par) != n_params:
            raise DataFormatError(f"parameter length {len(par)} != {n_params}", line=n_line)
        if type(t_i) is not int:
            raise DataFormatError("'t' must be a JSON integer", line=n_line)
        if type(y_i) not in _NUMBER:
            raise DataFormatError("'y' must be a JSON number", line=n_line)
        if h_i is not None and type(h_i) not in _NUMBER:
            raise DataFormatError("'hidden' must be a JSON number", line=n_line)
        if (h_i is not None) != has_hidden:
            raise DataFormatError("'hidden' must be present on all records or none", line=n_line)
        if not -(2**63) <= t_i < 2**63:
            raise DataFormatError("'t' is out of range for int64", line=n_line)
        y_i = _float(y_i, "y", n_line)
        h_i = _float(h_i, "hidden", n_line) if has_hidden else None
        par = [_float(p, "params", n_line) for p in par]
        if not math.isfinite(y_i):
            raise DataFormatError("'y' must be finite", line=n_line)
        if has_hidden and not math.isfinite(h_i):
            raise DataFormatError("'hidden' must be finite", line=n_line)
        records.append((t_i, y_i, h_i, par))
        line_of.append(n_line)
    t, y, hidden, params = zip(*records) if records else ((),) * 4
    hidden = np.array(hidden) if has_hidden else None
    chunk = _Chunk(np.array(t, dtype=np.int64), np.array(y), hidden, np.array(params), line_of)
    return family, n_params, has_hidden, chunk


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
    del text
    if len(matches) != len(lines):
        return None
    # the strings of each field, released as soon as the field is converted:
    # the chunk's transient objects bound what the allocator keeps after a read
    fields = list(zip(*matches))
    del matches
    if any("-0" in column for column in fields[1:]):
        return None
    try:
        t = np.array(list(map(int, fields.pop(0))), dtype=np.int64)
    except (OverflowError, ValueError):  # past int64, or Python's digit limit
        return None
    numbers = np.empty((len(fields), len(lines)))
    for i in range(len(fields)):
        numbers[i] = list(map(float, fields[i]))
        fields[i] = None
    if not np.isfinite(numbers).all():
        return None
    k = 2 if hidden else 1
    return _Chunk(
        t,
        numbers[0],
        numbers[1] if hidden else None,
        numbers[k:].T,
        range(n_line + 1, n_line + 1 + len(lines)),
    )


def _append(column: np.ndarray | None, rows: int, values: np.ndarray) -> np.ndarray:
    """``column`` with ``values`` written after its first ``rows`` rows.

    A full column grows in place by at least an eighth (``ndarray.resize``
    reallocates its buffer), so the rows it holds are never copied into a
    second one. The caller holds no view of ``column``.
    """
    end = rows + len(values)
    if column is None:
        column = np.empty((end,) + values.shape[1:], dtype=values.dtype)
    elif end > len(column):
        grown = max(end, len(column) + len(column) // 8)
        column.resize((grown,) + column.shape[1:], refcheck=False)
    column[rows:end] = values
    return column


def read_records(path_or_file) -> RecordBatch:
    """Parse a JSON-lines record file into a :class:`RecordBatch`.

    All records must share one forecast family (and parameter length), and
    either all or none carry ``hidden`` (``"hidden": null`` counts as none).
    ``t`` must be a JSON integer that fits an int64; ``y``, ``hidden`` and
    the parameters JSON numbers (not strings or booleans) that fit a float,
    and ``y`` and ``hidden`` finite (``NaN`` and ``Infinity`` are rejected).
    Violations, malformed lines and parameters outside the family's rule
    raise :class:`DataFormatError` tagged with the 1-based line number.

    The lines are read ``_CHUNK_ROWS`` at a time, and each chunk is checked
    whole before the next is read: the error raised is the first of the
    first chunk that holds one (its lines in order, then the family's rule,
    first bad row first), and no later line is read.

    Any JSON layout of the records is read, with the same result. Chunks of
    lines in the layout :func:`write_records` emits, matched against the
    first record's family, parameter count and ``hidden``, are parsed column
    by column; every other chunk line by line. Each chunk's values go
    straight into one array per field, grown in place as the records
    come, so the records are held about once and never copied.
    """
    with _opened(path_or_file, "r") as fh:
        # each chunk is checked whole, then written into its field's column
        # and released: the first chunk that holds an error ends the read
        columns = dict.fromkeys(["t", "y", "hidden", "params"])
        family = n_params = has_hidden = pattern = None
        n_line = rows = 0
        while lines := list(islice(fh, _CHUNK_ROWS)):
            if family is None:
                # the first record fixes the layout later lines are matched to
                first = next((i for i, raw in enumerate(lines) if raw.strip()), None)
                if first is not None:
                    family, n_params, has_hidden, _ = _parse_lines(
                        lines[first : first + 1], n_line + first, None, None, None)
                    if isinstance(lines[first], str):  # not a binary stream
                        pattern = _record_pattern(family, n_params, has_hidden)
            chunk = pattern and _match_lines(pattern, lines, n_line, has_hidden)
            if chunk is None:
                family, n_params, has_hidden, chunk = _parse_lines(
                    lines, n_line, family, n_params, has_hidden)
            n_line += len(lines)
            if not chunk.line_of:  # a chunk of blank lines
                continue
            try:
                check_params(family, chunk.params)
            except ParameterError as exc:
                raise DataFormatError(str(exc), line=chunk.line_of[exc.row]) from exc
            for field, values in zip(columns, chunk):
                if values is not None:
                    columns[field] = _append(columns[field], rows, values)
            rows += len(chunk.line_of)
        if family is None:
            raise DataFormatError("no records found")
        for column in columns.values():
            if column is not None:
                # no view of the column exists yet: resize trims it in place
                column.resize((rows,) + column.shape[1:], refcheck=False)
        # each chunk's rows were checked as it was read
        return RecordBatch._of_checked(family=family, **columns)


def write_records(batch: RecordBatch, path_or_file) -> None:
    """Emit a batch in the JSON-lines record format (round-trips exactly).

    Each line is ``json.dumps(record, separators=(", ", ": "))`` of the
    record; the lines are filled from one template per batch, column by
    column, a bounded chunk of rows at a time.
    """
    columns = [batch.t, batch.y] + ([] if batch.hidden is None else [batch.hidden])
    rows = _ColumnRows(columns + list(batch.params.T))
    layout = _record_layout(batch.family, batch.params.shape[1], batch.hidden is not None)
    with _opened(path_or_file, "w") as fh:
        _write_rows(fh, rows, "%s".join(layout), "", _json_column)


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


# a csv writer whose "file" hands each row's text back: writerow returns it
_CSV_ROW = csv.writer(SimpleNamespace(write=lambda text: text), lineterminator="\n").writerow


def _csv_column(column, width: int) -> list:
    """A column's cells (a list, or a numpy slice) as csv writes them in a
    row ``width`` cells wide, each float in :func:`format_float` form.

    csv writes a float by its repr, which is ``np.float64(0.5)`` for a numpy
    float, and any other cell by ``str`` (``None`` as nothing); it decides
    the quoting of each distinct text once. The texts of a numpy int or
    float slice's ``tolist``, or of a column of Python ints and floats, are
    never quoted.
    """
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iuf":
            return column.tolist()
        column = column.tolist()
    if set(map(type, column)) <= {int, float}:
        return column  # %s of each is the text csv writes
    texts = [format_float(v) if isinstance(v, float) else "" if v is None else str(v)
             for v in column]
    quoted = {}
    for text in set(texts):
        row = _CSV_ROW([text] * width)  # width cells, width - 1 commas and "\n"
        quoted[text] = row[: len(row) // width - 1]
    return list(map(quoted.__getitem__, texts))


def _json_column(column) -> list:
    """A column's cells (a list, or a numpy slice) as the JSON text
    ``json.dump(..., indent=1, sort_keys=True)`` writes for them in a table:
    numpy scalars as their Python numbers, non-finite floats as ``NaN``,
    ``Infinity`` and ``-Infinity``."""
    if not isinstance(column, np.ndarray):
        types = set(map(type, column))
        if types <= {int} or (types == {float} and all(map(math.isfinite, column))):
            return column
        return [json.dumps(_jsonable(v), indent=1, sort_keys=True).replace("\n", "\n   ")
                for v in column]
    cells = column.tolist()
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            cells[i] = json.dumps(cells[i])
    elif column.dtype.kind == "U":
        cells = list(map(json.dumps, cells))
    elif column.dtype.kind not in "iu":
        cells = _json_column(cells)
    return cells  # %s of a Python int or finite float is the repr json writes


class _ColumnRows(Sequence):
    """The rows of a table held as numpy columns, in one or more parts laid
    end to end: each part a list of equal-length columns, every part as
    wide as the first (else ``ValueError``).

    :func:`write_table` takes the table's width from the column count and
    formats each chunk from the slices of the columns that it covers, so it
    never holds a Python object per cell of the table, nor a part copied
    whole. Indexing builds rows, tuples of Python scalars, the same way.
    """

    def __init__(self, *parts: list):
        widths = set(map(len, parts))
        if len(widths) != 1 or 0 in widths or any(len(set(map(len, p))) > 1 for p in parts):
            raise ValueError("a column table needs parts of one width, each of one or "
                             "more columns of one length")
        self.parts = parts
        self.width = len(parts[0])
        self.starts = list(accumulate((len(part[0]) for part in parts), initial=0))

    def __len__(self) -> int:
        return self.starts[-1]

    def columns(self, start: int, stop: int) -> list:
        """Each column's rows ``start:stop``, joined from the parts that hold them."""
        pieces = [[c[max(start - s, 0) : max(stop - s, 0)] for c in part]
                  for part, s, end in zip(self.parts, self.starts, self.starts[1:])
                  if start < end and s < stop]
        return pieces[0] if len(pieces) == 1 else [np.concatenate(c) for c in zip(*pieces)]

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, int):
            return self[rows : rows + 1][0]
        if rows.step != 1:
            return [self[i] for i in rows]
        return list(zip(*(c.tolist() for c in self.columns(rows.start, rows.stop))))


def _opened(path_or_file, mode: str, newline: str | None = None):
    """A context of an open text file as it is (one with the ``read`` or
    ``write`` that ``mode`` needs), else of the path opened in ``mode``,
    which closes it on leaving."""
    if hasattr(path_or_file, "read" if mode == "r" else "write"):
        return nullcontext(path_or_file)
    return open(path_or_file, mode, encoding="utf-8", newline=newline)


def _write_rows(fh, rows, template: str, separator: str, column_text) -> None:
    """Write ``rows`` ``_CHUNK_ROWS`` at a time: each chunk's columns become
    text by ``column_text``, its rows fill ``template`` and ``separator``
    goes between them, across chunks too."""
    for start in range(0, len(rows), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        if isinstance(rows, _ColumnRows):
            columns = rows.columns(start, stop)
        else:
            columns = zip(*rows[start:stop])
        text = separator.join(map(template.__mod__, zip(*map(column_text, columns))))
        fh.write(separator + text if start else text)


def write_table(header, rows, path_or_file=None, fmt: str = "csv", meta: dict | None = None):
    """Write a report table with a stable header, as CSV or JSON.

    ``rows`` is a sequence of row sequences (``len`` and slicing; a one-shot
    iterable raises ``TypeError``) or a column table (``_ColumnRows``); the
    header needs at least one column and each row, or the column table, one
    cell per column (else ``ValueError``).
    CSV: one header row then data rows; floats in shortest round-trip form.
    JSON: ``{"meta": {...}, "columns": [...], "rows": [[...], ...]}``, laid
    out as ``json.dump(..., indent=1, sort_keys=True)`` writes it.
    ``path_or_file=None`` writes to stdout.

    The format, the header and the width of every row are checked before
    the first byte is written. The rows are then taken ``_CHUNK_ROWS`` at a
    time: each slice is formatted, from one template per table filled column
    by column, and written before the next slice is read, so a column table
    is never held as Python objects whole, and each of its slices is built
    once.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    width = len(header)
    if not width:
        raise ValueError("a table needs at least one column")
    if not isinstance(rows, Sequence):
        raise TypeError(f"rows must be a sequence of rows, not {type(rows).__name__}")
    if isinstance(rows, _ColumnRows):
        ragged = rows.width != width
    else:
        ragged = any(
            not set(map(len, rows[start : start + _CHUNK_ROWS])) <= {width}
            for start in range(0, len(rows), _CHUNK_ROWS)
        )
    if ragged:
        raise ValueError(f"every row needs {width} cells, one per column")
    if fmt == "csv":
        head, tail = _CSV_ROW(header), ""
        template, separator = ",".join(["%s"] * width) + "\n", ""
        column_text = partial(_csv_column, width=width)
    else:
        # "rows" sorts last: the head is json's text up to its empty list
        head = json.dumps({"columns": list(header), "meta": meta or {}, "rows": []},
                          indent=1, sort_keys=True)
        if rows:
            head, tail = head[: -len("[]\n}")] + "[\n", "\n ]\n}\n"
        else:
            head, tail = head + "\n", ""
        template, separator = "  [\n   " + ",\n   ".join(["%s"] * width) + "\n  ]", ",\n"
        column_text = _json_column
    with _opened(sys.stdout if path_or_file is None else path_or_file, "w", newline="") as fh:
        fh.write(head)
        _write_rows(fh, rows, template, separator, column_text)
        fh.write(tail)


def table_to_string(header, rows, fmt: str = "csv", meta: dict | None = None) -> str:
    buf = _io.StringIO()
    write_table(header, rows, buf, fmt=fmt, meta=meta)
    return buf.getvalue()
