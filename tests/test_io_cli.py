import csv
import io as stringio
import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import crpstail.io as crpstail_io

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
from crpstail.io import format_float, table_to_string, write_table


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
        assert sub.model == batch.model and sub.family == batch.family

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
        cell = st.one_of(
            st.floats(), st.integers(-(2**70), 2**70), st.text(max_size=4),
            st.sampled_from(["qq", "pp", "", ","]),
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
        k = crpstail_io._CHUNK_ROWS + 123  # 0-based: line k + 1 > 8192
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

    def test_fit_gp_loads_no_scipy(self, tmp_path, python_stdout):
        # the MLE runs the package's own Nelder-Mead, so neither fit imports
        # scipy, and the MLE converges with scipy.optimize blocked
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
