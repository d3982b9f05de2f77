import csv
import io as stringio
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import crpstail
import crpstail.io as crpstail_io
import crpstail.records

from crpstail import (
    DataFormatError,
    ParameterError,
    RecordBatch,
    crps_ensemble,
    read_records,
    simulate,
    score_series,
    write_records,
)
from crpstail.cli import main
from crpstail.distributions import check_params
from crpstail.io import _ColumnRows, format_float, table_to_string, write_table


class TestRecordRoundTrip:
    def test_exact_roundtrip_via_buffer(self):
        batch = simulate("ge", "ideal", 50, seed=7)
        buf = stringio.StringIO()
        write_records(batch, buf)
        buf.seek(0)
        back = read_records(buf)
        assert_array_equal(back.t, batch.t)
        assert_array_equal(back.y, batch.y)
        assert_array_equal(back.params, batch.params)
        assert_array_equal(back.hidden, batch.hidden)
        assert back.family == batch.family

    def test_roundtrip_via_path(self, tmp_path):
        batch = simulate("nn", "unfocused", 20, seed=1)
        path = tmp_path / "records.jsonl"
        write_records(batch, str(path))
        back = read_records(str(path))
        assert_array_equal(back.y, batch.y)
        assert_array_equal(back.params, batch.params)
        assert back.family == "normal_mixture2"

    def test_ensemble_roundtrip(self):
        rng = np.random.default_rng(2)
        batch = RecordBatch(
            t=np.arange(6),
            y=rng.normal(size=6),
            family="ensemble",
            params=rng.normal(size=(6, 11)),
        )
        buf = stringio.StringIO()
        write_records(batch, buf)
        buf.seek(0)
        back = read_records(buf)
        assert back.family == "ensemble"
        assert_array_equal(back.params, batch.params)
        assert back.hidden is None

    def test_hidden_absent_reads_none(self):
        lines = stringio.StringIO(
            '{"t": 0, "y": 1.0, "forecast": {"family": "exponential", "params": [2.0]}}\n'
        )
        batch = read_records(lines)
        assert batch.hidden is None
        assert len(batch) == 1

    def test_blank_lines_skipped(self):
        lines = stringio.StringIO(
            '\n{"t": 0, "y": 1.0, "forecast": {"family": "exponential", "params": [2.0]}}\n\n'
        )
        assert len(read_records(lines)) == 1


def _line(t, fam="exponential", params="[1.0]", extra=""):
    return f'{{"t": {t}, "y": 1.5{extra}, "forecast": {{"family": "{fam}", "params": {params}}}}}'


class TestRecordValidation:
    def test_bad_json_reports_line(self):
        lines = stringio.StringIO(_line(0) + "\n{not json\n")
        with pytest.raises(DataFormatError) as exc:
            read_records(lines)
        assert exc.value.line == 2

    def test_non_object_line(self):
        lines = stringio.StringIO("[1, 2]\n")
        with pytest.raises(DataFormatError) as exc:
            read_records(lines)
        assert exc.value.line == 1

    def test_missing_fields(self):
        lines = stringio.StringIO('{"t": 0, "forecast": {"family": "exponential", "params": [1.0]}}\n')
        with pytest.raises(DataFormatError):
            read_records(lines)
        lines = stringio.StringIO('{"t": 0, "y": 1.0}\n')
        with pytest.raises(DataFormatError):
            read_records(lines)

    def test_mixed_families(self):
        lines = stringio.StringIO(
            _line(0) + "\n" + _line(1, fam="normal", params="[0.0, 1.0]") + "\n"
        )
        with pytest.raises(DataFormatError) as exc:
            read_records(lines)
        assert exc.value.line == 2

    def test_param_length_mismatch(self):
        lines = stringio.StringIO(
            _line(0) + "\n" + _line(1, params="[1.0, 2.0]") + "\n"
        )
        with pytest.raises(DataFormatError) as exc:
            read_records(lines)
        assert exc.value.line == 2

    def test_unknown_family(self):
        lines = stringio.StringIO(_line(0, fam="cauchy") + "\n")
        with pytest.raises(DataFormatError):
            read_records(lines)

    def test_hidden_all_or_none(self):
        lines = stringio.StringIO(
            _line(0, extra=', "hidden": 0.5') + "\n" + _line(1) + "\n"
        )
        with pytest.raises(DataFormatError) as exc:
            read_records(lines)
        assert exc.value.line == 2

    def test_empty_input(self):
        with pytest.raises(DataFormatError):
            read_records(stringio.StringIO(""))

    @pytest.mark.parametrize(
        "good, bad",
        [
            ('"y": 1.5', '"y": NaN'),
            ('"y": 1.5', '"y": Infinity'),
            ('"y": 1.5', '"y": -Infinity'),
            ('"y": 1.5', '"y": 1e999'),
            ('"hidden": 0.5', '"hidden": NaN'),
            ('"hidden": 0.5', '"hidden": Infinity'),
            ('"y": 1.5', '"y": "3"'),
            ('"y": 1.5', '"y": true'),
            ('"hidden": 0.5', '"hidden": "0.5"'),
            ('"t": 1,', '"t": 1.5,'),
            ('"t": 1,', '"t": true,'),
            ('"t": 1,', '"t": "1",'),
            ("[1.0, 2.0]", "[true, 2.0]"),
            ("[1.0, 2.0]", "[1.0, false]"),
        ],
        ids=[
            "y-nan", "y-inf", "y-minus-inf", "y-overflow", "hidden-nan",
            "hidden-inf", "y-string", "y-bool", "hidden-string", "t-fraction",
            "t-bool", "t-string", "params-bool", "params-bool-second",
        ],
    )
    def test_strict_types_and_finite_values(self, good, bad):
        def record(t):
            return _line(t, fam="ensemble", params="[1.0, 2.0]", extra=', "hidden": 0.5')

        second = record(1)
        assert good in second
        with pytest.raises(DataFormatError) as exc:
            read_records(stringio.StringIO(record(0) + "\n" + second.replace(good, bad) + "\n"))
        assert exc.value.line == 2


_BIG = str(10**400)  # a JSON integer too large for a float

# (good, bad) substitutions in the second record of a normal-family file
_OUT_OF_RANGE = {
    "t-above-int64": ('"t": 1,', f'"t": {2**63},'),
    "t-below-int64": ('"t": 1,', f'"t": {-(2**63) - 1},'),
    "y": ('"y": 1.5', f'"y": {_BIG}'),
    "hidden": ('"hidden": 0.5', f'"hidden": {_BIG}'),
    "params-first": ("[0.0, 2.0]", f"[{_BIG}, 2.0]"),
    "params-second": ("[0.0, 2.0]", f"[0.0, {_BIG}]"),
    "digit-limit": ('"y": 1.5', '"y": ' + "1" * 5000),
}


def _out_of_range_file(case):
    good, bad = _OUT_OF_RANGE[case]

    def record(t):
        return _line(t, fam="normal", params="[0.0, 2.0]", extra=', "hidden": 0.5')

    second = record(1)
    assert good in second
    return record(0) + "\n" + second.replace(good, bad) + "\n"


class TestNumbersOutOfRange:
    @pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
    def test_read_records(self, case):
        with pytest.raises(DataFormatError) as exc:
            read_records(stringio.StringIO(_out_of_range_file(case)))
        assert exc.value.line == 2

    @pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
    def test_cli_exit_2(self, case, tmp_path, capsys):
        path = tmp_path / "big.jsonl"
        path.write_text(_out_of_range_file(case))
        assert _run(["score", "--records", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_extremes_that_fit_are_kept(self):
        text = _line(-(2**63), fam="normal", params=f"[{10**300}, 2.0]") + "\n"
        batch = read_records(stringio.StringIO(text))
        assert batch.t.tolist() == [-(2**63)]
        assert batch.params.tolist() == [[1e300, 2.0]]


class TestRecordBatch:
    @pytest.fixture()
    def batch(self):
        return simulate("ge", "ideal", 30, seed=2)

    @pytest.mark.parametrize(
        "index",
        [slice(0, 10), np.arange(30) % 3 == 0, np.array([4, 0, 29, 7])],
        ids=["slice", "mask", "indices"],
    )
    def test_subset(self, batch, index):
        sub = batch.subset(index)
        assert_array_equal(sub.t, batch.t[index])
        assert_array_equal(sub.y, batch.y[index])
        assert_array_equal(sub.params, batch.params[index])
        assert_array_equal(sub.hidden, batch.hidden[index])
        assert sub.family == batch.family

    @pytest.mark.parametrize(
        "family, row",
        [
            ("exponential", [-1.0]),
            ("normal", [0.0, -1.0]),
            ("normal", [0.0, 0.0]),
            ("normal", [np.nan, 1.0]),
            ("normal_mixture2", [1.5, 0.0, 1.0, 2.0, 1.0]),
            ("normal_mixture2", [0.5, 0.0, 1.0, 2.0, 0.0]),
            ("gamma", [0.0, 1.0]),
            ("gamma", [2.0, -1.0]),
            ("generalized_pareto", [0.0, 0.2]),
            ("generalized_pareto", [1.0, np.inf]),
            ("ensemble", [0.1, np.nan, 0.3]),
        ],
    )
    def test_invalid_parameters_are_rejected(self, family, row):
        good = {
            "exponential": [1.0],
            "normal": [0.0, 1.0],
            "normal_mixture2": [0.5, 0.0, 1.0, 2.0, 1.0],
            "gamma": [2.0, 1.0],
            "generalized_pareto": [1.0, 0.2],
            "ensemble": [0.1, 0.2, 0.3],
        }[family]
        with pytest.raises(ParameterError) as exc:
            score_series(
                RecordBatch(t=[0, 1, 2], y=[1.0, 1.0, 1.0], family=family,
                            params=[good, good, row])
            )
        assert exc.value.row == 2

    def test_bad_gamma_row_reports_line(self, tmp_path):
        good = _line(0, fam="gamma", params="[2.0, 1.0]")
        bad = _line(2, fam="gamma", params="[-2.0, 1.0]")
        path = tmp_path / "gamma.jsonl"
        # the blank line counts: the bad record sits on line 4
        path.write_text(good + "\n" + good + "\n\n" + bad + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_records(str(path))
        assert exc.value.line == 4
        path.write_text(good + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_records(str(path))
        assert exc.value.line == 3
        assert _run(["score", "--records", str(path)]) == 2


class TestWriteTable:
    def test_csv_golden(self):
        out = table_to_string(
            ["name", "x", "n"],
            [["a", 0.5, 3], ["b", float("nan"), 4]],
            fmt="csv",
        )
        assert out == "name,x,n\na,0.5,3\nb,nan,4\n"

    def test_csv_floats_roundtrip(self):
        vals = [0.1, 1.0 / 3.0, 2.777182946544537e-12]
        out = table_to_string(["x"], [[v] for v in vals], fmt="csv")
        got = [float(r[0]) for r in list(csv.reader(stringio.StringIO(out)))[1:]]
        assert got == vals

    def test_json_payload(self):
        out = table_to_string(
            ["a", "b"],
            [[np.int64(3), np.float64(0.5)]],
            fmt="json",
            meta={"k": 1},
        )
        payload = json.loads(out)
        assert payload["columns"] == ["a", "b"]
        assert payload["meta"] == {"k": 1}
        assert payload["rows"] == [[3, 0.5]]
        # numpy integers must not arrive as 3.0
        assert isinstance(payload["rows"][0][0], int)

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(["x"], [[1.5]], str(path), fmt="csv")
        assert path.read_text() == "x\n1.5\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            table_to_string(["x"], [[1.0]], fmt="tsv")

    def test_format_float(self):
        assert format_float(float("nan")) == "nan"
        assert format_float(0.1) == "0.1"
        assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


def _records_rowwise(batch):
    """Reference record emitter: one json.dumps call per record."""
    out = []
    for i in range(len(batch)):
        obj = {"t": int(batch.t[i]), "y": float(batch.y[i])}
        if batch.hidden is not None:
            obj["hidden"] = float(batch.hidden[i])
        obj["forecast"] = {
            "family": batch.family,
            "params": [float(p) for p in batch.params[i]],
        }
        out.append(json.dumps(obj, separators=(", ", ": ")) + "\n")
    return "".join(out)


def _csv_rowwise(header, rows):
    """Reference CSV emitter: format_float on every float cell."""
    buf = stringio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_float(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _json_reference(header, rows, meta):
    """Reference JSON report: the pure-Python encoder over the whole payload."""
    buf = stringio.StringIO()
    payload = {
        "meta": meta or {},
        "columns": list(header),
        "rows": [[crpstail_io._jsonable(v) for v in row] for row in rows],
    }
    json.dump(payload, buf, indent=1, sort_keys=True)
    buf.write("\n")
    return buf.getvalue()


# one valid parameter row per record family
FAMILY_ROWS = {
    "exponential": [1.7],
    "normal": [-0.3, 2.5],
    "normal_mixture2": [0.3, -1.0, 0.5, 2.0, 1.5],
    "gamma": [4.0, 0.25],
    "generalized_pareto": [1.5, -0.3],
    "ensemble": [0.1, -2.5e-8, 3.0, 1e16, -0.0],
}
EDGE_Y = [1e-300, 5e-324, 1e16, -0.0, float("nan"), float("inf"), -float("inf"), 0.1, 3]


class TestEmitterReference:
    """The column-wise emitters give byte for byte what the row-wise ones gave."""

    @pytest.mark.parametrize("with_hidden", [True, False], ids=["hidden", "no-hidden"])
    @pytest.mark.parametrize("family", sorted(FAMILY_ROWS))
    def test_write_records_matches_rowwise(self, family, with_hidden, monkeypatch):
        # small chunks, so that rows cross several chunk boundaries
        monkeypatch.setattr(crpstail_io, "_CHUNK_ROWS", 4)
        n = len(EDGE_Y)
        row = np.array(FAMILY_ROWS[family])
        params = row * np.linspace(1.0, 1.0 + 1e-9, n)[:, None]
        batch = RecordBatch(
            t=np.arange(n) * 7 - 3,
            y=EDGE_Y,
            family=family,
            params=params,
            hidden=np.array(EDGE_Y[::-1]) if with_hidden else None,
        )
        buf = stringio.StringIO()
        write_records(batch, buf)
        assert buf.getvalue() == _records_rowwise(batch)

    def test_write_records_large_batch(self):
        batch = simulate("nn", "unfocused", 3 * crpstail_io._CHUNK_ROWS + 5, seed=4)
        buf = stringio.StringIO()
        write_records(batch, buf)
        assert buf.getvalue() == _records_rowwise(batch)

    def test_csv_numpy_scalars_match_rowwise(self):
        rows = [
            [np.int64(3), np.float64(0.5), 0.5, "qq", np.float64(np.nan)],
            [np.int64(-1), np.float64(1e-300), float("inf"), "a,b", np.float64(-0.0)],
            [7, 1.0 / 3.0, np.float32(0.25), "", None],
            (np.int32(2), np.float64(1e16), True, 'q"t', np.float64(-np.inf)),
        ]
        header = ["n", "x", "y", "kind", "z"]
        out = table_to_string(header, rows, fmt="csv")
        assert out == _csv_rowwise(header, rows)
        assert out.splitlines()[1] == "3,0.5,0.5,qq,nan"

    def test_csv_python_scalars_match_rowwise(self):
        rng = np.random.default_rng(3)
        columns = [np.arange(50), rng.exponential(size=50), rng.normal(size=50) * 1e-12]
        rows = list(zip(*[c.tolist() for c in columns]))
        header = ["t", "a", "b"]
        assert table_to_string(header, rows, fmt="csv") == _csv_rowwise(header, rows)

    @pytest.mark.parametrize("width", [1, 3])
    def test_csv_quoted_and_empty_strings_match_rowwise(self, width):
        cells = ["a,b", 'q"t', "", "line\nbreak", "cr\rx", " pad ", "é", "plain"]
        rows = [[c] * width for c in cells] + [["x"] * width]
        header = [f"c{j}" for j in range(width)]
        assert table_to_string(header, rows, fmt="csv") == _csv_rowwise(header, rows)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), width=st.integers(1, 4), n=st.integers(0, 30))
    def test_csv_property_matches_rowwise(self, data, width, n):
        # cells that compare equal but differ in text (True == 1, -0.0 == 0.0,
        # np.float64(1.0) == 1) must each keep their own text
        cell = st.one_of(
            st.floats(), st.integers(-(2**70), 2**70), st.text(max_size=4),
            st.sampled_from(["qq", "pp", "", ","]), st.booleans(), st.none(),
            st.floats().map(np.float64), st.floats(width=32).map(np.float32),
            st.integers(-5, 5).map(np.int64),
        )
        rows = [tuple(data.draw(st.lists(cell, min_size=width, max_size=width)))
                for _ in range(n)]
        header = [f"c{j}" for j in range(width)]
        with mock.patch.object(crpstail_io, "_CHUNK_ROWS", 7):
            assert table_to_string(header, rows, fmt="csv") == _csv_rowwise(header, rows)

    def test_json_matches_json_dump(self):
        rows = [
            [np.int64(3), np.float64(0.5), 0.5, "qq", float("nan")],
            [np.int64(-1), np.float64(np.nan), float("inf"), 'a "q" \\ \n é', -float("inf")],
            [7, np.float64(-np.inf), np.float32(0.25), "", None],
            (2**70, 1e16, True, " ", np.float64(-0.0)),
        ]
        header = ["n", "x", "y", "kind", "z"]
        meta = {"b": {"nested": [1, 2.5, {"c": None}], "a": "x"}, "a": float("nan")}
        for m in (meta, None, {}):
            out = table_to_string(header, rows, fmt="json", meta=m)
            assert out == _json_reference(header, rows, m)
        assert table_to_string(header, [], fmt="json") == _json_reference(header, [], None)

    def test_json_large_table_matches_json_dump(self):
        rng = np.random.default_rng(1)
        n = 2 * crpstail_io._CHUNK_ROWS + 3
        columns = [np.arange(n), rng.exponential(size=n), rng.normal(size=n) * 1e-12]
        rows = list(zip(*[c.tolist() for c in columns]))
        rows += [("qq", 1.5, float("nan")), ("pp", 2, 0.5)]
        header = ["t", "a", "b"]
        meta = {"n": n}
        assert table_to_string(header, rows, fmt="json", meta=meta) == _json_reference(
            header, rows, meta
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), width=st.integers(1, 4), n=st.integers(0, 30))
    def test_json_property_matches_json_dump(self, data, width, n):
        cell = st.one_of(
            st.floats(), st.integers(-(2**70), 2**70), st.text(max_size=4),
            st.booleans(), st.none(), st.floats(width=32).map(np.float32),
            st.floats().map(np.float64), st.integers(-5, 5).map(np.int64),
        )
        rows = [data.draw(st.lists(cell, min_size=width, max_size=width)) for _ in range(n)]
        header = [f"c{j}" for j in range(width)]
        with mock.patch.object(crpstail_io, "_CHUNK_ROWS", 7):
            out = table_to_string(header, rows, fmt="json", meta={"k": [1, {"x": 2}]})
        assert out == _json_reference(header, rows, {"k": [1, {"x": 2}]})

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_must_match_header(self, fmt):
        with pytest.raises(ValueError):
            table_to_string(["a", "b"], [[1, 2], [3]], fmt=fmt)
        with pytest.raises(ValueError):
            table_to_string(["a"], [[1, 2]], fmt=fmt)
        with pytest.raises(ValueError):
            table_to_string([], [], fmt=fmt)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=12),
        family=st.sampled_from(["ensemble", "normal", "exponential"]),
        with_hidden=st.booleans(),
    )
    def test_records_round_trip_exactly(self, data, n, family, with_hidden):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(min_value=5e-324, allow_infinity=False)

        def column(elements, k=n):
            return np.array(data.draw(st.lists(elements, min_size=k, max_size=k)), dtype=float)

        if family == "ensemble":
            params = column(finite, n * 3).reshape(n, 3)
        elif family == "normal":
            params = np.column_stack([column(finite), column(positive)])
        else:
            params = column(positive)[:, None]
        t = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
        batch = RecordBatch(
            t=t, y=column(finite), family=family, params=params,
            hidden=column(finite) if with_hidden else None,
        )
        buf = stringio.StringIO()
        write_records(batch, buf)
        buf.seek(0)
        back = read_records(buf)
        assert back.family == family
        for got, want in [(back.t, batch.t), (back.y, batch.y), (back.params, batch.params)]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if with_hidden:
            assert back.hidden.tobytes() == batch.hidden.tobytes()
        else:
            assert back.hidden is None


class _Sink:
    """A file that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


class TestStreamedTable:
    """write_table takes the rows a chunk at a time, after checking all of them."""

    @staticmethod
    def _table():
        """2 * _CHUNK_ROWS + 3 rows; the only numpy float sits in the last chunk."""
        n = 2 * crpstail_io._CHUNK_ROWS + 3
        rows = [[i, i / 7.0, "plain"] for i in range(n)]
        rows[1] = [-1, float("nan"), "a,b"]  # a string csv must quote
        rows[crpstail_io._CHUNK_ROWS] = [2**40, float("inf"), 'q"t']
        rows[-2] = [0, -float("inf"), ""]
        rows[-1] = [3, np.float64(0.1), "plain"]
        return ["n", "x", "kind"], rows

    def test_csv_matches_whole_table_reference(self):
        header, rows = self._table()
        assert table_to_string(header, rows, fmt="csv") == _csv_rowwise(header, rows)

    def test_json_matches_whole_table_reference(self):
        header, rows = self._table()
        meta = {"n": len(rows)}
        out = table_to_string(header, rows, fmt="json", meta=meta)
        assert out == _json_reference(header, rows, meta)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ragged_row_in_last_chunk_writes_nothing(self, fmt, tmp_path):
        header, rows = self._table()
        rows[-1] = rows[-1][:2]
        buf = stringio.StringIO()
        with pytest.raises(ValueError, match="3 cells"):
            write_table(header, rows, buf, fmt=fmt)
        assert buf.getvalue() == ""
        path = tmp_path / f"table.{fmt}"
        with pytest.raises(ValueError):
            write_table(header, rows, str(path), fmt=fmt)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_shot_iterable_is_refused(self, fmt):
        rows = [[1, 2.5], [3, 4.5]]
        for one_shot in (iter(rows), (row for row in rows), map(list, rows)):
            buf = stringio.StringIO()
            with pytest.raises(TypeError, match="sequence"):
                write_table(["a", "b"], one_shot, buf, fmt=fmt)
            assert buf.getvalue() == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_column_rows_match_row_list(self, fmt):
        rng = np.random.default_rng(5)
        n = crpstail_io._CHUNK_ROWS + 17
        columns = [np.arange(n), rng.exponential(size=n), np.repeat(["qq", "pp"], [n - 9, 9])]
        columns[1][[3, n - 1]] = [-np.inf, np.inf]
        rows = _ColumnRows(columns)
        want = list(zip(*[c.tolist() for c in columns]))
        assert len(rows) == n and list(rows) == want and rows[-1] == want[-1]
        assert rows[5:9] == want[5:9]
        header = ["t", "x", "kind"]
        assert table_to_string(header, rows, fmt=fmt) == table_to_string(header, want, fmt=fmt)
        # the same table chained from two parts, as the qq/pp report writes
        # it: the first part ends inside the second chunk, and the kind
        # column is a constant over each part, not the repeat above
        cut = n - 9
        parts = [[columns[0][part], columns[1][part], np.broadcast_to(np.array(kind), size)]
                 for kind, part, size in (("qq", slice(cut), cut), ("pp", slice(cut, n), 9))]
        chained = _ColumnRows(*parts)
        assert len(chained) == n and chained[:] == want
        assert chained[cut - 2 : cut + 2] == want[cut - 2 : cut + 2]
        assert chained[-1] == want[-1] and chained[cut - 1 :: 3] == want[cut - 1 :: 3]
        assert table_to_string(header, chained, fmt=fmt) == table_to_string(header, want, fmt=fmt)
        # three parts, the middle one empty, whose boundaries fall on a chunk's
        chunk = crpstail_io._CHUNK_ROWS
        cuts = [(0, chunk), (chunk, chunk), (chunk, n)]
        chained = _ColumnRows(*([c[lo:hi] for c in columns] for lo, hi in cuts))
        assert chained[:] == want and chained[chunk - 1 : chunk + 1] == want[chunk - 1 : chunk + 1]
        assert table_to_string(header, chained, fmt=fmt) == table_to_string(header, want, fmt=fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_column_backed_table_writes_in_bounded_memory(self, fmt):
        import tracemalloc

        n = 200_000
        rng = np.random.default_rng(6)
        columns = [np.arange(n), rng.exponential(size=n), rng.normal(size=n)]
        sink = _Sink()
        tracemalloc.start()
        try:
            write_table(["t", "a", "b"], _ColumnRows(columns), sink, fmt=fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.chars > 20 * n
        # built whole as a list of Python rows, this table peaks at about 37 MB
        assert peak < 8e6, peak

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_column_table_builds_each_slice_once(self, fmt):
        slices = []

        class Spy(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, slice):
                    slices.append(index)
                return super().__getitem__(index)

        n = 3 * crpstail_io._CHUNK_ROWS + 5
        rng = np.random.default_rng(7)
        columns = [np.arange(n), rng.exponential(size=n), np.repeat(["qq", "pp"], [n - 9, 9])]
        rows = _ColumnRows([c.view(Spy) for c in columns])
        got = table_to_string(["t", "x", "kind"], rows, fmt=fmt)
        assert got == table_to_string(["t", "x", "kind"], list(zip(*map(list, columns))), fmt=fmt)
        # one slice of each column per chunk; the width check builds none
        assert len(slices) == len(columns) * math.ceil(n / crpstail_io._CHUNK_ROWS), len(slices)

    def test_column_table_needs_equal_lengths(self):
        with pytest.raises(ValueError, match="one length"):
            _ColumnRows([np.arange(3), np.arange(4.0)])
        with pytest.raises(ValueError, match="one or more columns"):
            _ColumnRows()
        with pytest.raises(ValueError, match="one or more columns"):
            _ColumnRows([])
        # every part as wide as the others, each of one length, in either order
        first = [np.arange(3), np.arange(3.0)]
        wide = [np.arange(2), np.arange(2.0), np.arange(2.0)]
        for part in (wide, [np.arange(2), np.arange(4.0)]):
            for parts in ((first, part), (part, first)):
                with pytest.raises(ValueError, match="one width|one length"):
                    _ColumnRows(*parts)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_column_table_width_is_its_column_count(self, fmt):
        rows = _ColumnRows([np.arange(3), np.arange(3.0)])
        for header in (["a"], ["a", "b", "c"]):
            buf = stringio.StringIO()
            with pytest.raises(ValueError, match="cells"):
                write_table(header, rows, buf, fmt=fmt)
            assert buf.getvalue() == ""


class TestReaderMemory:
    def test_batch_is_held_about_once(self, tmp_path):
        import tracemalloc

        path = tmp_path / "ge_ideal.jsonl"
        write_records(simulate("ge", "ideal", 200_000, seed=7), str(path))
        read_records(str(path))
        tracemalloc.start()
        try:
            batch = read_records(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (batch.t, batch.y, batch.hidden, batch.params))
        # with every chunk's arrays kept until the join, the peak was 2.09x
        assert peak <= 1.5 * returned, peak / returned


class TestReaderChecksOnce:
    @pytest.mark.parametrize("model,forecaster", [
        ("ge", "ideal"), ("ge", "climatological"), ("nn", "unfocused"),
    ])
    def test_read_batch_passes_the_parameter_check(self, tmp_path, model, forecaster):
        # the reader checks each chunk's rows as it reads them, and the whole
        # batch is not checked again: what it returns holds the family's rule
        path = tmp_path / "r.jsonl"
        write_records(simulate(model, forecaster, 5000, seed=3), str(path))
        with mock.patch.object(crpstail.records, "check_params") as whole_batch:
            batch = read_records(str(path))
        whole_batch.assert_not_called()
        check_params(batch.family, batch.params)
        assert len(batch) == 5000


def _read_outcome(text_or_file):
    """What read_records gives: the batch's bytes, or the error and its line."""
    try:
        batch = read_records(text_or_file)
    except DataFormatError as exc:
        return ("error", str(exc), exc.line)
    hidden = None if batch.hidden is None else batch.hidden.tobytes()
    return (batch.family, batch.t.tobytes(), batch.y.tobytes(), hidden,
            batch.params.shape, batch.params.tobytes())


def _paths_taken(text, chunk_rows=None):
    """(column-path outcome, per-line reference outcome, column chunks taken).

    The reference is the same reader with the column path switched off, so
    every chunk goes through one json.loads per line.
    """
    taken = []
    match_lines = crpstail_io._match_lines

    def spy(*args):
        chunk = match_lines(*args)
        taken.append(chunk is not None)
        return chunk

    size = crpstail_io._CHUNK_ROWS if chunk_rows is None else chunk_rows
    with mock.patch.object(crpstail_io, "_CHUNK_ROWS", size):
        with mock.patch.object(crpstail_io, "_match_lines", spy):
            got = _read_outcome(stringio.StringIO(text))
        with mock.patch.object(crpstail_io, "_match_lines", lambda *args: None):
            want = _read_outcome(stringio.StringIO(text))
    return got, want, sum(taken)


def _canonical_line(t, y, params, family="ensemble", hidden=None):
    """A record line in write_records' layout, from number literals."""
    extra = "" if hidden is None else f', "hidden": {hidden}'
    return (f'{{"t": {t}, "y": {y}{extra}, "forecast": {{"family": "{family}", '
            f'"params": [{", ".join(params)}]}}}}\n')


def _simulated_lines(n, with_hidden=True):
    batch = simulate("ge", "ideal", n, seed=3)
    if not with_hidden:
        batch = RecordBatch(t=batch.t, y=batch.y, family=batch.family, params=batch.params)
    buf = stringio.StringIO()
    write_records(batch, buf)
    return buf.getvalue().splitlines(keepends=True)


# JSON number literals the column path must read as json.loads does
NUMBER_LITERALS = [
    "0", "-0", "0.0", "-0.0", "3", "-17", "1e5", "1E5", "-2.5e-3", "4.0E+2",
    "0.30000000000000004", "12345678901234567", "123456789012345678901234567890",
    "1e-320", "-1e-320", "5e-324", "1.7976931348623157e308", "9007199254740993",
]
# literals that json.loads reads but read_records rejects
REJECTED_LITERALS = {
    "401-digits": "1" * 401,
    "past-digit-limit": "1" * 4301,
    "nan": "NaN",
    "inf": "Infinity",
    "minus-inf": "-Infinity",
    "overflow": "1e999",
}


class TestReaderPaths:
    """The column path reads exactly what one json.loads per line reads."""

    @pytest.mark.parametrize("with_hidden", [True, False], ids=["hidden", "no-hidden"])
    @pytest.mark.parametrize("family", sorted(FAMILY_ROWS))
    def test_every_family(self, family, with_hidden):
        rng = np.random.default_rng(5)
        n = 40
        row = np.array(FAMILY_ROWS[family])
        batch = RecordBatch(
            t=np.arange(n) - 7, y=rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, n),
            family=family, params=row * (1.0 + rng.uniform(0, 1e-3, size=(n, row.size))),
            hidden=rng.normal(size=n) if with_hidden else None,
        )
        buf = stringio.StringIO()
        write_records(batch, buf)
        got, want, taken = _paths_taken(buf.getvalue(), chunk_rows=7)
        assert got == want
        assert taken == 6  # every chunk went the column path
        assert got[2] == batch.y.tobytes() and got[5] == batch.params.tobytes()

    @pytest.mark.parametrize("field", ["y", "hidden", "param"])
    @pytest.mark.parametrize("literal", NUMBER_LITERALS)
    def test_number_literals(self, literal, field):
        lines = [
            _canonical_line(i, "0.5", ["1.5", "-2.25"], hidden="0.125") for i in range(6)
        ]
        y, hidden, params = (literal if field == f else v for f, v in
                             (("y", "0.5"), ("hidden", "0.125"), ("param", "1.5")))
        lines[4] = _canonical_line(4, y, [params, "-2.25"], hidden=hidden)
        got, want, _ = _paths_taken("".join(lines), chunk_rows=3)
        assert got == want
        assert got[0] == "ensemble"

    def test_negative_zero_literals(self):
        lines = [_canonical_line(i, y, ["1.0"], hidden="0.5") for i, y in
                 enumerate(["-0", "-0.0", "0", "-0e0"])]
        got, want, _ = _paths_taken("".join(lines))
        assert got == want
        # json reads the integer -0 as 0, whose float is +0.0
        assert np.signbit(np.frombuffer(got[2])).tolist() == [False, True, False, True]

    @pytest.mark.parametrize("t", ["-0", str(2**63 - 1), str(-(2**63)), str(2**63), "1" * 4301])
    def test_t_literals(self, t):
        lines = [_canonical_line(i, "0.5", ["1.0"]) for i in range(4)]
        lines[2] = _canonical_line(t, "0.5", ["1.0"])
        got, want, _ = _paths_taken("".join(lines), chunk_rows=2)
        assert got == want

    @pytest.mark.parametrize("field", ["y", "hidden", "param"])
    @pytest.mark.parametrize("literal", list(REJECTED_LITERALS.values()),
                             ids=list(REJECTED_LITERALS))
    def test_rejected_literals(self, literal, field):
        lines = [_canonical_line(i, "0.5", ["1.5"], hidden="0.125") for i in range(5)]
        y, hidden, param = (literal if field == f else v for f, v in
                            (("y", "0.5"), ("hidden", "0.125"), ("param", "1.5")))
        lines[3] = _canonical_line(3, y, [param], hidden=hidden)
        got, want, _ = _paths_taken("".join(lines), chunk_rows=2)
        assert got == want
        assert got[0] == "error" and got[2] == 4

    @pytest.mark.parametrize(
        "case",
        ["reordered-keys", "extra-spaces", "blank-line", "family-switch", "hidden-gap"],
    )
    def test_layout_changes_in_a_later_chunk(self, case):
        lines = _simulated_lines(crpstail_io._CHUNK_ROWS + 400)
        k = crpstail_io._CHUNK_ROWS + 123  # 0-based: line k + 1 is in the second chunk
        record = json.loads(lines[k])
        if case == "reordered-keys":
            lines[k] = json.dumps(record, sort_keys=True) + "\n"
        elif case == "extra-spaces":
            lines[k] = lines[k].replace(": ", " :  ").replace("{", "{ ")
        elif case == "blank-line":
            lines.insert(k, "\n")
        elif case == "family-switch":
            lines[k] = _canonical_line(record["t"], "0.5", ["0.0", "1.0"], "normal", "0.5")
        else:
            del record["hidden"]
            lines[k] = json.dumps(record) + "\n"
        got, want, taken = _paths_taken("".join(lines))
        assert got == want
        assert taken == 1  # the first chunk
        if case == "family-switch":
            message = f"line {k + 1}: mixed families: 'normal' after 'exponential'"
            assert got[:2] == ("error", message)
        elif case == "hidden-gap":
            message = f"line {k + 1}: 'hidden' must be present on all records or none"
            assert got[:2] == ("error", message)
        else:
            assert got[0] == "exponential"

    def test_no_final_newline(self):
        text = "".join(_simulated_lines(50)).rstrip("\n")
        got, want, taken = _paths_taken(text, chunk_rows=16)
        assert got == want and taken == 4

    def test_file_like_inputs(self, tmp_path):
        text = "".join(_simulated_lines(30, with_hidden=False))
        want = _read_outcome(stringio.StringIO(text))
        path = tmp_path / "records.jsonl"
        path.write_text(text)
        assert _read_outcome(str(path)) == want
        with open(path, encoding="utf-8") as fh:
            assert _read_outcome(fh) == want
        # binary streams go line by line
        assert _read_outcome(stringio.BytesIO(text.encode())) == want

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        family=st.sampled_from(["ensemble", "normal", "exponential"]),
        with_hidden=st.booleans(),
        chunk_rows=st.integers(1, 5),
    )
    def test_column_path_matches_per_line(self, data, family, with_hidden, chunk_rows):
        literal = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.integers(-(10**20), 10**20).map(str),
            st.sampled_from(NUMBER_LITERALS + list(REJECTED_LITERALS.values())[:2]),
        )
        n_params = {"ensemble": 3, "normal": 2, "exponential": 1}[family]
        n = data.draw(st.integers(1, 12))
        lines = []
        for i in range(n):
            params = data.draw(st.lists(literal, min_size=n_params, max_size=n_params))
            hidden = data.draw(literal) if with_hidden else None
            t = data.draw(st.sampled_from([str(i), "-0", str(2**63)]))
            lines.append(_canonical_line(t, data.draw(literal), params, family, hidden))
        got, want, _ = _paths_taken("".join(lines), chunk_rows=chunk_rows)
        assert got == want


class _CountingLines(stringio.StringIO):
    """A text stream that counts the lines taken from it."""

    taken = 0

    def __next__(self):
        line = super().__next__()
        self.taken += 1
        return line


def _exponential_lines(n, hidden="0.5"):
    return [_canonical_line(i, "1.5", ["2.0"], "exponential", hidden) for i in range(n)]


class TestChunkOrder:
    """read_records raises the first error of the first chunk that holds one."""

    def test_earlier_chunk_error_wins(self):
        lines = _exponential_lines(crpstail_io._CHUNK_ROWS + 10)
        lines[2] = _canonical_line(2, "NaN", ["2.0"], "exponential", "0.5")
        lines[crpstail_io._CHUNK_ROWS + 1] = "{not json\n"  # line 2,050
        with pytest.raises(DataFormatError) as exc:
            read_records(stringio.StringIO("".join(lines)))
        assert str(exc.value) == "line 3: 'y' must be finite"

    def test_hidden_after_a_record_without_it(self):
        lines = _exponential_lines(3, hidden=None)
        lines[1] = _canonical_line(1, "1.5", ["2.0"], "exponential", "0.5")
        with pytest.raises(DataFormatError) as exc:
            read_records(stringio.StringIO("".join(lines)))
        assert str(exc.value) == "line 2: 'hidden' must be present on all records or none"

    @pytest.mark.parametrize("bad, message", [
        (_canonical_line(9, "NaN", ["2.0"], "exponential", "0.5"), "'y' must be finite"),
        (_canonical_line(2**63, "1.5", ["2.0"], "exponential", "0.5"),
         "'t' is out of range for int64"),
        (_canonical_line(9, "1.5", ["-2.0"], "exponential", "0.5"),
         "exponential requires finite parameters"),
    ], ids=["y-nan", "t-past-int64", "negative-rate"])
    def test_reads_no_chunk_after_the_error(self, bad, message):
        lines = _exponential_lines(3 * crpstail_io._CHUNK_ROWS)
        lines[9] = bad
        stream = _CountingLines("".join(lines))
        with pytest.raises(DataFormatError) as exc:
            read_records(stream)
        assert exc.value.line == 10 and message in str(exc.value)
        assert stream.taken == crpstail_io._CHUNK_ROWS


def _run(argv):
    return main(argv)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCliSimulate:
    def test_writes_parseable_records(self, tmp_path):
        out = tmp_path / "ge.jsonl"
        code = _run(
            ["simulate", "--model", "ge", "--forecaster", "ideal",
             "--t", "100", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        batch = read_records(str(out))
        assert len(batch) == 100
        assert batch.family == "exponential"
        direct = simulate("ge", "ideal", 100, seed=4)
        assert_array_equal(batch.y, direct.y)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["simulate", "--model", "nn", "--forecaster", "extremist",
                "--t", "50", "--seed", "9"]
        assert _run(argv + ["--out", str(a)]) == 0
        assert _run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        assert _run(["simulate", "--model", "ge", "--forecaster", "ideal",
                     "--t", "5", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 5
        assert "simulate: 5 records" in captured.err

    def test_seed_is_mandatory(self):
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--model", "ge", "--forecaster", "ideal", "--t", "5"])
        assert exc.value.code == 1

    def test_nonpositive_t_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--model", "ge", "--forecaster", "ideal",
                  "--t", "0", "--seed", "1"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("t", [1, crpstail_io._CHUNK_ROWS, 2 * crpstail_io._CHUNK_ROWS + 5])
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_streams_the_whole_batch_a_window_at_a_time(self, t, to_file, tmp_path, capsys):
        from crpstail import cli

        batch = simulate("nn", "unfocused", t, seed=11)
        want = stringio.StringIO()
        write_records(batch, want)
        summary = (f"simulate: {t} records, model=nn forecaster=unfocused seed=11 "
                   f"mean_y={batch.y.mean():.6g} max_y={batch.y.max():.6g}\n")
        sizes = []

        def spy(*args, **kwargs):
            window = simulate(*args, **kwargs)
            sizes.append(len(window))
            return window

        out = tmp_path / "sim.jsonl"
        argv = ["simulate", "--model", "nn", "--forecaster", "unfocused", "--t", str(t),
                "--seed", "11"] + (["--out", str(out)] if to_file else [])
        with mock.patch.object(cli, "simulate", spy):
            assert _run(argv) == 0
        captured = capsys.readouterr()
        assert (out.read_text() if to_file else captured.out) == want.getvalue()
        assert captured.err == summary
        # drawn one window at a time, each at most one write chunk long
        assert sum(sizes) == t and max(sizes) <= crpstail_io._CHUNK_ROWS, sizes

    @pytest.mark.parametrize("model, forecaster", [("ge", "ideal"), ("nn", "unfocused")])
    def test_holds_the_observations_and_one_window(self, model, forecaster, tmp_path):
        import tracemalloc

        def peak(t):
            tracemalloc.start()
            try:
                assert _run(argv + [str(t)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 1 << 18
        argv = ["simulate", "--model", model, "--forecaster", forecaster, "--seed", "7",
                "--out", str(tmp_path / "sim.jsonl"), "--t"]
        assert _run(argv + ["100"]) == 0  # imports
        window = peak(crpstail_io._CHUNK_ROWS)
        # the whole batch held before the first line was written peaked at
        # 4.5 (ge/ideal) and 9.9 (nn/unfocused) y columns
        held = peak(n)
        assert held <= 1.5 * 8 * n + window, (held - window) / (8 * n)


class TestCliSeedRange:
    """A seed outside its generator's range is a usage error, not a traceback."""

    @pytest.fixture()
    def record_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(simulate("ge", "ideal", 50, seed=3), str(path))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "ge", "--forecaster", "ideal", "--t", "5",
             "--seed", "-1"],
            ["simulate", "--model", "nn", "--forecaster", "ideal", "--t", "5",
             "--seed", str(2**128)],
            ["verify", "dm", "--model", "ge", "--t", "50", "--seed", "-3"],
            ["verify", "index-curve", "--model", "ge", "--forecaster", "ideal",
             "--t", "50", "--seed", "-2"],
        ],
        ids=["simulate", "simulate-2**128", "dm", "index-curve"],
    )
    def test_seed(self, argv, capsys, tmp_path):
        out = tmp_path / "out"
        assert _run(argv + ["--out", str(out)]) == 1
        assert "crpstail: usage error: seed must lie in [0, 2**128)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["score"], ["verify", "qqpp"]])
    def test_shuffle_seed(self, command, record_file, capsys, tmp_path):
        out = tmp_path / "out"
        argv = command + ["--records", record_file, "--shuffle-seed", "-1", "--out", str(out)]
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert "crpstail: usage error: shuffle seed must be non-negative" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["score"], ["verify", "qqpp"]])
    def test_shuffle_seed_before_any_record(self, command, capsys, tmp_path):
        # the seed is rejected before the record file is opened: a missing
        # file is then no data error
        out = tmp_path / "out"
        argv = command + ["--records", str(tmp_path / "missing.jsonl"), "--shuffle-seed", "-1",
                          "--out", str(out)]
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert "crpstail: usage error: shuffle seed must be non-negative, got -1" in err
        assert not out.exists()


class TestCliScore:
    @pytest.fixture()
    def record_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(simulate("ge", "climatological", 200, seed=3), str(path))
        return str(path)

    def test_basic_columns(self, record_file, tmp_path):
        out = tmp_path / "scores.csv"
        assert _run(["score", "--records", record_file, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["t", "y", "crps"]
        assert len(rows) == 200
        batch = read_records(record_file)
        want = score_series(batch).values
        got = np.array([float(r[2]) for r in rows])
        assert_allclose(got, want, rtol=0.0)  # exact: repr round-trips

    def test_weight_and_shuffle_columns(self, record_file, tmp_path):
        out = tmp_path / "scores.json"
        code = _run(
            ["score", "--records", record_file, "--weight-quantile", "0.9",
             "--shuffle-seed", "11", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["t", "y", "crps", "wcrps", "crps_shuffled"]
        batch = read_records(record_file)
        threshold = float(np.quantile(batch.y, 0.9))
        assert payload["meta"]["weight_threshold"] == pytest.approx(threshold)
        wcrps = np.array([r[3] for r in payload["rows"]])
        want = score_series(batch, weight_threshold=threshold).values
        assert_allclose(wcrps, want, rtol=1e-15)

    @pytest.mark.parametrize(
        "argv",
        [["score", "--weight-quantile", "0.9", "--shuffle-seed", "1"],
         ["verify", "qqpp", "--shuffle-seed", "1", "--format", "json"]],
        ids=["score", "qqpp-json"],
    )
    def test_stdout_matches_out_file(self, argv, record_file, tmp_path, capsys):
        argv = argv + ["--records", record_file]
        out = tmp_path / "table"
        assert _run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert _run(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_missing_file_is_data_error(self, tmp_path):
        assert _run(["score", "--records", str(tmp_path / "nope.jsonl")]) == 2

    def test_weighted_ensemble(self, tmp_path):
        rng = np.random.default_rng(8)
        batch = RecordBatch(
            t=np.arange(40), y=rng.normal(size=40), family="ensemble",
            params=rng.normal(size=(40, 5)),
        )
        path, out = tmp_path / "ens.jsonl", tmp_path / "ens.csv"
        write_records(batch, str(path))
        code = _run(["score", "--records", str(path), "--weight-quantile", "0.5",
                     "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["t", "y", "crps", "wcrps"]
        q = float(np.quantile(batch.y, 0.5))
        # chaining: the ensemble CRPS of the members and y clamped below at q
        want = crps_ensemble(np.maximum(batch.params, q), np.maximum(batch.y, q))
        assert_allclose([float(r[3]) for r in rows], want, rtol=1e-15)

    def test_malformed_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert _run(["score", "--records", str(bad)]) == 2

    def test_non_finite_observation_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.jsonl"
        bad.write_text(_line(0) + "\n" + _line(1).replace('"y": 1.5', '"y": NaN') + "\n")
        assert _run(["score", "--records", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestCliVerifyIndexCurve:
    def test_sim_mode(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = _run(
            ["verify", "index-curve", "--model", "ge", "--forecaster", "ideal",
             "--t", "4000", "--seed", "3", "--quantiles", "0.875,0.9",
             "--out", str(out)]
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert header == [
            "order", "threshold", "n_tail", "t_forecast", "t_clim",
            "log_p_forecast", "log_p_clim", "index", "pathological",
            "auto_calibrated", "pit_max_dev", "note",
        ]
        assert len(rows) == 2
        assert [float(r[0]) for r in rows] == [0.875, 0.9]
        for r in rows:
            assert float(r[7]) > 0.9  # index
            assert r[8] == "0"  # pathological
            assert r[11] == ""  # note

    def test_file_mode(self, tmp_path):
        f, c = tmp_path / "f.jsonl", tmp_path / "c.jsonl"
        write_records(simulate("ge", "ideal", 4000, seed=3), str(f))
        write_records(simulate("ge", "climatological", 4000, seed=3), str(c))
        out = tmp_path / "curve.json"
        code = _run(
            ["verify", "index-curve", "--records", str(f), "--records-clim",
             str(c), "--quantiles", "0.9", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["fit_method"] == "pwm"
        assert payload["meta"]["fit_gamma"] == pytest.approx(0.25, abs=0.15)
        assert payload["rows"][0][7] > 0.9

    def test_file_mode_needs_clim(self, tmp_path):
        f = tmp_path / "f.jsonl"
        write_records(simulate("ge", "ideal", 100, seed=3), str(f))
        assert _run(["verify", "index-curve", "--records", str(f)]) == 1

    def test_sim_mode_needs_all_flags(self):
        assert _run(["verify", "index-curve", "--model", "ge"]) == 1

    def test_decreasing_quantiles_numeric_error(self, tmp_path):
        code = _run(
            ["verify", "index-curve", "--model", "ge", "--forecaster", "ideal",
             "--t", "2000", "--seed", "3", "--quantiles", "0.9,0.8"]
        )
        assert code == 3


class TestCliVerifyDm:
    def test_long_format(self, tmp_path):
        out = tmp_path / "dm.csv"
        code = _run(
            ["verify", "dm", "--model", "ge", "--t", "2000", "--seed", "3",
             "--quantiles", "0.5,0.875", "--out", str(out)]
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["quantile", "row", "col", "statistic", "p_value"]
        assert len(rows) == 2 * 4 * 3  # orders x forecasters x rivals
        stats = {
            (r[0], r[1], r[2]): float(r[3]) for r in rows
        }
        # antisymmetry holds in the emitted table
        for (q, a, b), v in stats.items():
            assert stats[(q, b, a)] == pytest.approx(-v, rel=1e-12)

    def test_ideal_dominates_at_bulk_threshold(self, tmp_path):
        out = tmp_path / "dm.csv"
        _run(["verify", "dm", "--model", "ge", "--t", "20000", "--seed", "0",
              "--quantiles", "0.5", "--out", str(out)])
        _, rows = _read_csv(out)
        ideal_rows = [r for r in rows if r[1] == "ideal"]
        assert len(ideal_rows) == 3
        assert all(float(r[3]) > 1.96 for r in ideal_rows)

    @pytest.mark.parametrize("quantiles", ["0.9", "0.5,0.875", "0.5,0.6,0.7,0.8,0.9,0.95"])
    def test_table_is_the_library_dm_matrix(self, tmp_path, quantiles):
        # the mixture's batch is scored at every order at once where its five
        # columns outnumber the orders, and one order at a time where not
        from crpstail import FORECASTERS, dm_matrix, simulate_forecasters, threshold_grid

        out = tmp_path / "dm.csv"
        assert _run(["verify", "dm", "--model", "nn", "--t", "2000", "--seed", "3",
                     "--quantiles", quantiles, "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        batches = simulate_forecasters("nn", FORECASTERS, 2000, seed=3)
        want = []
        for order in map(float, quantiles.split(",")):
            u = float(threshold_grid(batches["ideal"].y, [order])[0])
            mat = dm_matrix({name: score_series(b, u).values for name, b in batches.items()})
            want += [[order, a, b, mat.statistics[i, j], mat.p_values[i, j]]
                     for i, a in enumerate(FORECASTERS) for j, b in enumerate(FORECASTERS)
                     if i != j]
        got = [[float(q), a, b, float(s), float(p)] for q, a, b, s, p in rows]
        assert got == want

    def test_needs_sim_flags(self):
        assert _run(["verify", "dm", "--model", "ge"]) == 1


class TestCliVerifyQqpp:
    def test_clim_scores_survive_shuffling(self, tmp_path):
        # a constant forecast scores a permutation identically, so the
        # paired and shuffled score distributions coincide exactly
        out = tmp_path / "qq.json"
        code = _run(
            ["verify", "qqpp", "--model", "ge", "--forecaster",
             "climatological", "--t", "500", "--seed", "3",
             "--shuffle-seed", "1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["ks_distance"] == 0.0
        kinds = {r[0] for r in payload["rows"]}
        assert kinds == {"qq", "pp"}

    def test_ideal_scores_differ_from_shuffled(self, tmp_path):
        out = tmp_path / "qq.json"
        _run(["verify", "qqpp", "--model", "ge", "--forecaster", "ideal",
              "--t", "2000", "--seed", "3", "--shuffle-seed", "1",
              "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["meta"]["ks_distance"] > payload["meta"]["ks_critical_1pct"]

    def test_shuffle_seed_required(self):
        assert _run(["verify", "qqpp", "--model", "ge", "--forecaster",
                     "ideal", "--t", "100", "--seed", "3"]) == 1

    def test_shuffle_seed_checked_before_the_records(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert _run(["verify", "qqpp", "--records", str(missing)]) == 1
        assert "usage error: verify: missing required flags: --shuffle-seed" in (
            capsys.readouterr().err
        )


class TestCliVerifyCup:
    def test_grid_includes_flat_edge(self, tmp_path):
        out = tmp_path / "cup.csv"
        code = _run(["verify", "cup", "--gamma", "0.1", "--grid", "5",
                     "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["gamma", "a", "phi"]
        assert len(rows) == 5
        assert float(rows[0][1]) == 0.0
        assert float(rows[-1][1]) == pytest.approx(3.0 / 1.1, rel=1e-12)
        # the two edges of the ambiguity region score identically
        assert float(rows[-1][2]) == pytest.approx(float(rows[0][2]), rel=1e-9)

    def test_multiple_gammas_json(self, tmp_path):
        out = tmp_path / "cup.json"
        code = _run(["verify", "cup", "--gamma", "0,0.25", "--grid", "3",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 6
        assert payload["meta"]["gamma=0.25"]["area"] == pytest.approx(
            0.9255327550942222, rel=1e-9
        )

    def test_shape_out_of_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            _run(["verify", "cup", "--gamma", "1.0"])
        assert exc.value.code == 1

    def test_infinite_scale_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "cup.csv"
        code = _run(["verify", "cup", "--gamma", "0.2", "--sigma", "inf", "--grid", "3",
                     "--out", str(out)])
        assert code == 1
        assert "crpstail: usage error: scale must be finite and positive" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_huge_scale_stays_finite_or_is_a_usage_error(self, capsys, tmp_path):
        # sigma / (1 - gamma) = 1.25e308 is finite, so is every value; at
        # 1.5e308 it overflows
        out = tmp_path / "cup.json"
        argv = ["verify", "cup", "--gamma", "0.2", "--grid", "3", "--format", "json",
                "--out", str(out)]
        assert _run([*argv, "--sigma", "1e308"]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        values = [v for row in doc["rows"] for v in row] + list(doc["meta"]["gamma=0.2"].values())
        assert all(math.isfinite(v) for v in values)
        out.unlink()
        assert _run([*argv, "--sigma", "1.5e308"]) == 1
        assert "usage error: scale 1.5e+308 overflows" in capsys.readouterr().err
        assert not out.exists()


class TestCliFitGp:
    def test_single_row_report(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        write_records(simulate("ge", "ideal", 4000, seed=0), str(rec))
        out = tmp_path / "fit.json"
        code = _run(["fit-gp", "--records", str(rec), "--threshold-order",
                     "0.9", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == [
            "sigma", "gamma", "threshold", "threshold_order", "n_excesses",
            "method",
        ]
        row = payload["rows"][0]
        assert row[4] == 400 and isinstance(row[4], int)
        assert row[5] == "pwm"
        assert "b0" in payload["meta"]["diagnostics"]

    def test_too_few_excesses_is_data_error(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        write_records(simulate("ge", "ideal", 20, seed=0), str(rec))
        assert _run(["fit-gp", "--records", str(rec), "--threshold-order",
                     "0.9"]) == 2



@pytest.mark.parametrize("value", ["1.5", "nan", "0", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--records", "{rec}", "--weight-quantile"],
        ["verify", "qqpp", "--records", "{rec}", "--shuffle-seed", "1", "--weight-quantile"],
        ["fit-gp", "--records", "{rec}", "--threshold-order"],
        ["verify", "index-curve", "--model", "ge", "--forecaster", "ideal", "--t", "500",
         "--seed", "3", "--threshold-order"],
    ],
    ids=["score", "qqpp", "fit-gp", "index-curve"],
)
def test_order_outside_unit_interval_is_usage_error(argv, value, tmp_path, capsys):
    rec = tmp_path / "r.jsonl"
    write_records(simulate("ge", "ideal", 500, seed=0), str(rec))
    with pytest.raises(SystemExit) as exc:
        _run([a.format(rec=rec) for a in argv] + [value])
    assert exc.value.code == 1
    assert "quantile orders must lie in (0, 1)" in capsys.readouterr().err

class TestPackageNamespace:
    """``crpstail`` imports a public name's submodule on first access."""

    def test_import_loads_no_numpy(self, python_stdout):
        assert python_stdout("import sys, crpstail; print('numpy' in sys.modules)") == "False"

    def test_names_are_the_submodules_own(self, python_stdout):
        code = (
            "import sys, crpstail\n"
            "wrong = []\n"
            "for name in crpstail.__all__[1:]:\n"
            "    value = getattr(crpstail, name)\n"
            "    owner = sys.modules['crpstail.' + crpstail._MODULE_OF[name]]\n"
            "    if value is not vars(owner)[name] "
            "or getattr(value, '__module__', owner.__name__) != owner.__name__:\n"
            "        wrong.append(name)\n"
            "print(crpstail.__all__[0], len(crpstail.__all__), wrong)"
        )
        assert python_stdout(code) == "__version__ 78 []"

    def test_dir_and_unknown_names(self, python_stdout):
        code = (
            "import crpstail\n"
            "print(dir(crpstail) == sorted(crpstail.__all__), end=' ')\n"
            "try: crpstail.no_such_name\n"
            "except AttributeError as exc: print(exc)"
        )
        assert python_stdout(code) == "True module 'crpstail' has no attribute 'no_such_name'"


class TestInstalledEntryPoint:
    def test_cli_import_leaves_solvers_unloaded(self, python_stdout):
        # scipy.integrate, scipy.optimize and scipy.special load on first use,
        # not when the package or its command line is imported
        loaded = (
            "[m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') "
            "if m in sys.modules]"
        )
        code = f"import sys, crpstail; a = {loaded}; import crpstail.cli; print(a, {loaded})"
        assert python_stdout(code) == "[] []"

    def test_random_streams_load_where_drawn(self, tmp_path, python_stdout):
        # numpy.random loads with the first simulated stream, not with the
        # command line, nor for the cup
        out = str(tmp_path / "out.csv")
        cup = ["verify", "cup", "--gamma", "0.25", "--grid", "3", "--out", out]
        sim = ["simulate", "--model", "ge", "--forecaster", "ideal", "--t", "5", "--seed", "1",
               "--out", out]
        code = (
            "import sys; import crpstail.cli as cli; a = 'numpy.random' in sys.modules; "
            f"b = cli.main({cup!r}), 'numpy.random' in sys.modules; "
            f"print(a, *b, cli.main({sim!r}), 'numpy.random' in sys.modules)"
        )
        assert python_stdout(code) == "False 0 False 0 True"

    def test_special_functions_load_on_first_use(self, tmp_path, python_stdout):
        # exponential records are scored, shuffled and compared without a special
        # function, and so is the cup; the normal cdf then loads scipy.special
        exp_rec, normal_rec = tmp_path / "e.jsonl", tmp_path / "n.jsonl"
        write_records(simulate("ge", "ideal", 500, seed=0), str(exp_rec))
        write_records(simulate("nn", "ideal", 50, seed=0), str(normal_rec))
        out = str(tmp_path / "out.csv")
        skip = [
            ["score", "--records", str(exp_rec), "--weight-quantile", "0.9",
             "--shuffle-seed", "1", "--out", out],
            ["verify", "qqpp", "--records", str(exp_rec), "--shuffle-seed", "1", "--out", out],
            ["verify", "cup", "--gamma", "0.25", "--grid", "3", "--out", out],
        ]
        load = ["score", "--records", str(normal_rec), "--out", out]
        code = (
            "import sys; from crpstail.cli import main; "
            f"codes = [main(a) for a in {skip!r}]; "
            "print(codes, 'scipy.special' in sys.modules, end=' '); "
            f"print(main({load!r}), 'scipy.special' in sys.modules)"
        )
        assert python_stdout(code) == "[0, 0, 0] False 0 True"

    def test_weighted_gamma_score_leaves_integrate_unloaded(self, tmp_path, python_stdout):
        # Gamma rows are scored by their batch kernels, one far in the tail
        rec = tmp_path / "gamma.jsonl"
        batch = RecordBatch(t=np.arange(4), y=np.array([0.3, 1.0, 2.5, 60.0]), family="gamma",
                            params=np.array([[2.0, 1.0], [5.0, 4.0], [0.5, 2.0], [4.0, 4.0]]))
        write_records(batch, str(rec))
        argv = ["score", "--records", str(rec), "--weight-quantile", "0.9",
                "--out", str(tmp_path / "score.csv")]
        code = (
            "import sys; from crpstail.cli import main; "
            f"code = main({argv!r}); print(code, 'scipy.integrate' in sys.modules)"
        )
        assert python_stdout(code) == "0 False"

    def test_weighted_mixture_scoring_leaves_integrate_unloaded(self, tmp_path, python_stdout):
        # mixture tails are closed forms: verify dm and a weighted score of
        # mixture records integrate nothing
        rec = tmp_path / "m.jsonl"
        write_records(simulate("nn", "unfocused", 500, seed=0), str(rec))
        runs = [
            ["verify", "dm", "--model", "nn", "--t", "2000", "--seed", "3",
             "--out", str(tmp_path / "dm.csv")],
            ["score", "--records", str(rec), "--weight-quantile", "0.9",
             "--out", str(tmp_path / "score.csv")],
        ]
        code = (
            "import sys; from crpstail.cli import main; "
            f"codes = [main(a) for a in {runs!r}]; print(codes, 'scipy.integrate' in sys.modules)"
        )
        assert python_stdout(code) == "[0, 0] False"

    def test_quadrature_loads_no_scipy(self, tmp_path, python_stdout):
        # the splice of GP(1, 1/4) above its 0.99 quantile with a dominated
        # exponential: the exact gap and the CRPS of the splice integrate
        # numpy-only laws, and the cup of shape 0 integrates its area, all
        # through the package's own QUADPACK
        code = (
            "import sys; from crpstail import distributions as d, scoring, tail_analysis as ta\n"
            "from crpstail.cli import main\n"
            "base = d.GeneralizedPareto(1.0, 0.25); u = float(base.quantile(0.99))\n"
            "spliced = ta.splice_tail(base, d.Exponential(2.0 / (1.0 + 0.25 * u)), u)\n"
            "gap = ta.wcrps_gap_exact(base, spliced); crps = scoring.crps_quadrature(spliced, 3.0)\n"
            f"code = main(['verify', 'cup', '--gamma', '0', '--grid', '5', '--out', "
            f"{str(tmp_path / 'cup.csv')!r}])\n"
            "print(gap > 0, crps > 0, code, [m for m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.special') if m in sys.modules])"
        )
        assert python_stdout(code) == "True True 0 []"

    def test_fit_gp_loads_no_scipy(self, tmp_path, python_stdout):
        # the MLE is the root of one equation, taken by the package's own root
        # finder, so neither fit imports scipy, and the MLE converges with
        # scipy.optimize blocked
        rec = tmp_path / "r.jsonl"
        write_records(simulate("ge", "ideal", 4000, seed=0), str(rec))
        runs = [["fit-gp", "--records", str(rec), "--threshold-order", "0.9", "--method", m,
                 "--format", "json", "--out", str(tmp_path / f"{m}.json")]
                for m in ("mle", "pwm")]
        code = (
            "import sys; from crpstail.cli import main; "
            f"codes = [main(a) for a in {runs!r}]; "
            "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert python_stdout(code) == "[0, 0] []"
        blocked = (
            "import sys; sys.modules['scipy.optimize'] = None; "
            f"from crpstail.cli import main; print(main({runs[0]!r}))"
        )
        assert python_stdout(blocked) == "0"
        meta = json.loads((tmp_path / "mle.json").read_text())["meta"]
        assert meta["diagnostics"]["converged"] is True

    def test_ge_stream_loads_no_scipy(self, tmp_path, python_stdout):
        # the ge stream's Gamma(4, 4) hidden rate is inverted in numpy:
        # python -m crpstail simulate --model ge, and every forecaster's batch
        # of a stream over several blocks, leave scipy unloaded
        argv = ["simulate", "--model", "ge", "--forecaster", "ideal", "--t", "20000",
                "--seed", "1", "--out", str(tmp_path / "ge.jsonl")]
        code = (
            "import runpy, sys\n"
            f"sys.argv[1:] = {argv!r}\n"
            "try: runpy.run_module('crpstail', run_name='__main__')\n"
            "except SystemExit as exc: code = exc.code\n"
            "from crpstail import FORECASTERS, simulate_forecasters\n"
            "batches = simulate_forecasters('ge', FORECASTERS, 20000, seed=2)\n"
            "print(code, len(batches), [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert python_stdout(code) == "0 4 []"

    def test_console_script_is_the_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(crpstail.__file__).parents[2] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"crpstail": "crpstail.__main__:main"}

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
    @pytest.mark.parametrize("launch", [
        "import crpstail.__main__ as entry; code = entry.main({argv!r})",
        # what python -m crpstail runs
        "import runpy, sys; sys.argv[1:] = {argv!r}\n"
        "try: runpy.run_module('crpstail', run_name='__main__')\n"
        "except SystemExit as exc: code = exc.code",
    ], ids=["main", "runpy"])
    def test_command_line_runs_one_blas_thread(self, tmp_path, python_stdout, launch):
        # numpy's and scipy's OpenBLAS would each start a worker per extra CPU
        argv = ["verify", "dm", "--model", "nn", "--t", "2000", "--seed", "3",
                "--out", str(tmp_path / "dm.csv")]
        code = (
            "import os; os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            + launch.format(argv=argv)
            + "\nprint(code, len(os.listdir('/proc/self/task')))"
        )
        assert python_stdout(code) == "0 1"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
    def test_user_blas_threads_kept(self, tmp_path, python_stdout):
        argv = ["verify", "dm", "--model", "nn", "--t", "2000", "--seed", "3",
                "--out", str(tmp_path / "dm.csv")]
        code = (
            "import os; os.environ['OPENBLAS_NUM_THREADS'] = '2'; "
            f"import crpstail.__main__ as entry; code = entry.main({argv!r}); "
            "print(code, os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
        )
        code, setting, threads = python_stdout(code).split()
        assert (code, setting) == ("0", "2")
        if len(os.sched_getaffinity(0)) > 1:
            assert int(threads) > 1

    def test_console_script_roundtrip(self, tmp_path):
        out = tmp_path / "cup.csv"
        cmd = [sys.executable, "-m", "crpstail", "verify", "cup", "--gamma",
               "0.25", "--grid", "3", "--out", str(out)]
        r1 = subprocess.run(cmd, capture_output=True, text=True)
        assert r1.returncode == 0
        assert "area=0.925533" in r1.stderr
        first = out.read_bytes()
        r2 = subprocess.run(cmd, capture_output=True, text=True)
        assert r2.returncode == 0
        assert out.read_bytes() == first


class TestBenchTracer:
    def test_traced_command_runs(self, tmp_path):
        # bench/tracer.py looks up every function and method it times by name
        # before the command starts, so deleting one of them kills each traced
        # benchmark run
        root = Path(crpstail.__file__).parents[2]
        spans = tmp_path / "spans.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        cmd = [sys.executable, str(root / "bench" / "tracer.py"), str(spans), "0", "cli",
               "verify", "cup", "--gamma", "0.2", "--grid", "5", "--out", str(tmp_path / "cup.csv")]
        r = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
        assert "cli.cmd_verify_cup" in names
