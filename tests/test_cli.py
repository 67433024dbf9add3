"""CLI subcommands: flags, exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gsrdetect import cli as cli_module
from gsrdetect.cli import (
    EXIT_CALIBRATION,
    EXIT_INCOMPATIBLE,
    EXIT_USAGE,
    log_returns,
    main,
    read_stream_csv,
    write_stream_csv,
)
from gsrdetect.distributions import derived_rng
from gsrdetect.power import PowerQuery, delta_sigma
from gsrdetect.simulate import static_power_grid
from oracles import parse_outcome, per_cell_csv


def _write(path, text):
    path.write_text(text, encoding="utf-8")


class TestReadStreamCsv:
    def test_plain_numeric(self, tmp_path):
        f = tmp_path / "s.csv"
        _write(f, "1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(read_stream_csv(str(f)), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_detected(self, tmp_path):
        f = tmp_path / "s.csv"
        _write(f, "x,y\n1.0,2.0\n3.0,4.0\n")
        assert read_stream_csv(str(f)).shape == (2, 2)

    def test_iso_timestamp_column_detected(self, tmp_path):
        f = tmp_path / "s.csv"
        _write(f, "date,a,b\n2015-01-02,1.0,2.0\n2015-01-05,3.0,4.0\n")
        np.testing.assert_array_equal(read_stream_csv(str(f)), [[1.0, 2.0], [3.0, 4.0]])

    def test_integer_index_column_needs_flag(self, tmp_path):
        f = tmp_path / "s.csv"
        _write(f, "1,5.0\n2,6.0\n")
        # without the flag the index column is data
        assert read_stream_csv(str(f)).shape == (2, 2)
        np.testing.assert_array_equal(
            read_stream_csv(str(f), time_column=True), [[5.0], [6.0]]
        )

    def test_malformed_cell_names_row(self, tmp_path):
        f = tmp_path / "s.csv"
        _write(f, "1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            read_stream_csv(str(f))

    def test_ragged_row_names_row(self, tmp_path):
        f = tmp_path / "s.csv"
        _write(f, "1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 2"):
            read_stream_csv(str(f))

    def test_missing_value_is_hard_error(self, tmp_path):
        f = tmp_path / "s.csv"
        _write(f, "1.0,2.0\n3.0,\n")
        with pytest.raises(ValueError, match="row 2"):
            read_stream_csv(str(f))

    def test_round_trip_preserves_values(self, tmp_path):
        f = tmp_path / "s.csv"
        data = derived_rng(0).standard_normal((20, 3))
        write_stream_csv(str(f), data)
        np.testing.assert_array_equal(read_stream_csv(str(f)), data)
        write_stream_csv(str(f), data, header=["x1", "x2", "x3"])
        assert f.read_bytes().startswith(b"x1,x2,x3\r\n")
        np.testing.assert_array_equal(read_stream_csv(str(f)), data)

    @pytest.mark.parametrize(
        "data, header, message",
        [
            (np.ones((2, 2)), ["1", "2"], "header ['1', '2'] would be read as a data row"),
            (np.array([[1.0, np.nan]]), None, "stream contains non-finite values"),
            (np.ones(3), None, "stream must be a (T, d) array with T, d >= 1, got shape (3,)"),
            (np.ones((0, 2)), None, "got shape (0, 2)"),
            (np.ones((2, 0)), None, "got shape (2, 0)"),
            (np.ones((2, 2)), ["x"], "header ['x'] must have 2 cells, one per column"),
            (np.ones((2, 2)), ["x", 2], "header cells must be strings without NUL"),
            (np.ones((2, 2)), ["x", "y\0"], "header cells must be strings without NUL"),
        ],
        ids=["numeric-header", "nan", "1-d", "no-rows", "no-columns", "narrow-header",
             "number-in-header", "nul-in-header"],
    )
    def test_writer_writes_only_what_reads_back(self, tmp_path, data, header, message):
        # each was once written, and then read back otherwise, rejected, or left half-written
        f = tmp_path / "s.csv"
        with pytest.raises(ValueError) as exc:
            write_stream_csv(str(f), data, header)
        assert message in str(exc.value)
        assert not f.exists()



_TS = ("2015-01-02", "2015-01-05T10:00:00", "2015-01-06")
HOSTILE_CSV = {
    "plain": "1.0,2.0\n3.0,4.0\n",
    "header": "x,y\n1,2\n3,4\n",
    "timestamps": f"date,a,b\n{_TS[0]},1.5,2\n{_TS[1]},3,-4e-3\n",
    "timestamps-no-header": f"{_TS[0]},1.5,2\n{_TS[1]},3,4\n",
    "index-column": "1,5.0\n2,6.0\n",
    "ragged-short": "1,2\n3\n",
    "ragged-long": "1,2\n3,4,5\n",
    "ragged-long-first": "1,2,9\n3,4\n",
    "trailing-comma": "1,2,\n3,4,\n",
    "header-wider": f"{_TS[0]},1,2,x\n{_TS[1]},3,4\n",
    "header-narrower": f"t,a\n{_TS[0]},3,4\n",
    "quoted-number": '"1.0",2\n3,4\n',
    "quoted-comma": '"1,5",2\n3,4\n',
    "quoted-header": '"x","y"\n1,2\n',
    "quoted-header-timestamps": f'"timestamp","x1","x2"\n{_TS[0]},1,2\n{_TS[1]},3,4\n',
    "quoted-header-comma": '"x,1","y"\n1,2\n3,4\n',
    "quoted-header-doubled-quotes": '"say ""x""","y"\n1,2\n3,4\n',
    "quoted-header-unclosed": 't"a,"b\n1,2\n3,4\n',
    "quotes-in-blank-first-line": '""\nx,y\n1,2\n',
    "quote-in-first-data-row": '"x","y"\n"1",2\n3,4\n',
    "crlf": "x,y\r\n1,2\r\n3,4\r\n",
    "cr": "x,y\r1,2\r3,4\r",
    "mixed-line-ends": "x,y\r\n1,2\r3,4\n5,6",
    "blank-rows": "1,2\n\n\n3,4\n\n",
    "blank-rows-crlf": "1,2\r\n\r\n3,4\r\n",
    "blank-rows-cr": "1,2\r\r3,4\r",
    "whitespace-rows": "1,2\n   \n\t\n3,4\n",
    "comma-rows": "1,2\n,\n , \n3,4\n",
    "form-feed-row": "1,2\n\x0c\n3,4\n",
    "leading-blank-line": "\nx,y\n1,2\n",
    "leading-whitespace-line": "  \nx,y\n1,2\n",
    "leading-comma-line": ",,\nx,y\n1,2\n",
    "leading-blank-wide-header": f"\n{_TS[0]},1,2,x\n{_TS[1]},3,4\n",
    "hash-row": "1,2\n#3,4\n",
    "hash-header": "#x,y\n1,2\n",
    "underscore": "1_0,2\n3,4\n",
    "double-underscore": "1__0,2\n3,4\n",
    "empty-cell-last": "1,\n3,4\n",
    "empty-cell-first": "1,2\n,4\n",
    "nan": "nan,2\n3,4\n",
    "minus-inf": "1,2\n3,-inf\n",
    "infinity": "Infinity,2\n3,4\n",
    "overflow": "1e400,2\n3,4\n",
    "underflow-and-minus-zero": "1e-400,2\n-0.0,4\n",
    "signs-and-bare-points": "+1.5,-.5\n3.,4\n",
    "fortran-exponent": "1.5d3,2\n3,4\n",
    "hex": "0x10,2\n3,4\n",
    "full-width-digits": "\uff11.\uff15,2\n3,4\n",
    "full-width-after-header": "x,y\n\uff11,2\n3,4\n",
    "padded-cells": " 1 , 2\t\n3,4\n",
    "no-break-space": "\xa01.5\xa0,2\n3,4\n",
    "vertical-tab-cell": "1\x0b,2\n3,4\n",
    "next-line-char": "1,2\x85\n3,4\n",
    "line-separator-char": "1,2\u2028\n3,4\n",
    "nul-cell": "1\x00,2\n3,4\n",
    "byte-order-mark": "\ufeff1,2\n3,4\n",
    "byte-order-mark-header": "\ufeffx,y\n1,2\n",
    "no-final-line-end": "1,2\n3,4",
    "words": "a,b\nc,d\n",
    "semicolons": "1;2\n3;4\n",
    "timestamp-then-garbage": f"t,a,b\n{_TS[0]},1,2\nnot-a-date,3,4\n",
    "timestamp-then-number": f"t,a,b\n{_TS[0]},1,2\n5,3,4\n",
    "one-column": "v\n1\n2\n",
    "one-column-timestamps": f"{_TS[0]}\n{_TS[1]}\n",
    "timestamp-and-one-value": f"{_TS[0]},1\n{_TS[1]},2\n",
    "empty-file": "",
    "only-blank-lines": "\n\n  \n",
    "header-only": "a,b\n",
    "header-only-then-blank": "t,a\n\n",
    "label-then-number": "label,1\n",
    "header-then-label-and-number": "x,y\nlabel,1\n",
    "quoted-line-end-in-header": f't,"a\n5",1,2,3\n{_TS[0]},3,4,5\n',
    "leading-blank-wide-header-ragged": f"\n{_TS[0]},1,2,x\n{_TS[1]},3,4\n{_TS[2]},5,6,7,8\n",
    "cell-over-csv-field-limit": "1,2\n3,4\n5," + "0" * 140_000 + "1\n",
    "long-cell-under-limit": "1,2\n3,4\n5," + "0" * 100_000 + "1\n",
    "undecodable": b"1,2\n3,\xff\n",
    "undecodable-after-many-rows": b"1,2\n" * 5000 + b"3,\xff\n",
}


@pytest.mark.parametrize("time_column", [False, True], ids=["auto", "time-column"])
@pytest.mark.parametrize("name", sorted(HOSTILE_CSV))
def test_parser_equals_per_cell_oracle(tmp_path, name, time_column):
    text = HOSTILE_CSV[name]
    f = tmp_path / "hostile.csv"
    f.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    want = parse_outcome(per_cell_csv, str(f), time_column)
    assert parse_outcome(read_stream_csv, str(f), time_column) == want
    if isinstance(want[0], type) and issubclass(want[0], ValueError):  # undecodable too
        argv = ["detect", "--input", str(f), "--analytic", "--windows", "2"]
        assert main(argv + (["--time-column"] if time_column else [])) == EXIT_USAGE


def _timestamped_csv(path, rows, d=8):
    """A header, ISO-8601 timestamps and ``d`` columns of repr floats, as the benchmark writes."""
    data = 3.0 * derived_rng(8).standard_normal((rows, d))
    stamps = np.datetime64("2026-01-01T00:00:00") + np.arange(rows).astype("timedelta64[s]")
    lines = [",".join(["timestamp"] + [f"x{j + 1}" for j in range(d)])]
    lines += [",".join([s] + [repr(v) for v in r]) for s, r in zip(
        np.datetime_as_string(stamps).tolist(), data.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data


def test_well_formed_file_takes_the_vectorised_path(tmp_path, monkeypatch):
    f = tmp_path / "stream.csv"
    data = _timestamped_csv(f, 500)

    def slow_path(*args):
        raise AssertionError("a well-formed timestamped CSV was parsed cell by cell")

    monkeypatch.setattr(cli_module, "_parse_cells", slow_path)
    out = read_stream_csv(str(f))
    assert out.dtype == data.dtype and out.tobytes() == data.tobytes()


def _quote_header(path):
    """Quote every cell of the file's header line, and return the new file's path."""
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    quoted = path.with_name("quoted-" + path.name)
    quoted.write_text(",".join(f'"{c}"' for c in header.split(",")) + "\n" + rest, encoding="utf-8")
    return quoted


@pytest.mark.parametrize("bad", [False, True], ids=["well-formed", "bad-cell"])
@pytest.mark.parametrize("where", ["data-row", "header-over-line-break"])
def test_quoted_csv_is_parsed_cell_by_cell(tmp_path, monkeypatch, where, bad):
    f = tmp_path / "stream.csv"
    _timestamped_csv(f, 50)
    lines = _quote_header(f).read_text(encoding="utf-8").split("\n")
    if where == "data-row":
        cells = lines[3].split(",")
        lines[3] = ",".join(cells[:2] + [f'"{cells[2]}"'] + cells[3:])
    else:
        lines[0] = lines[0].replace('"timestamp"', '"time\nstamp"')
    if bad:
        lines[10] = lines[10].replace(".", "x", 1)
    f.write_text("\n".join(lines), encoding="utf-8")
    want = parse_outcome(per_cell_csv, str(f), False)
    parse_cells, calls = cli_module._parse_cells, []
    monkeypatch.setattr(cli_module, "_parse_cells", lambda *a: calls.append(a) or parse_cells(*a))
    assert parse_outcome(read_stream_csv, str(f), False) == want
    assert calls == [(str(f), False)]
    if bad:
        assert want[0] is cli_module.InputFormatError and want[1].startswith("row 11: ")
        assert main(["detect", "--input", str(f), "--analytic", "--windows", "2"]) == EXIT_USAGE
    else:
        assert want[1] == (50, 8)


@pytest.mark.parametrize("time_column", [False, True], ids=["auto", "time-column"])
def test_cell_over_csv_field_limit_exits_2(tmp_path, time_column):
    f = tmp_path / "long.csv"
    f.write_text(HOSTILE_CSV["cell-over-csv-field-limit"], encoding="utf-8")
    argv = ["detect", "--input", str(f), "--analytic", "--windows", "2"]
    assert main(argv + (["--time-column"] if time_column else [])) == EXIT_USAGE


def test_parser_memory_is_bounded_by_its_output(tmp_path):
    f = tmp_path / "stream.csv"
    data = _timestamped_csv(f, 50_000)
    tracemalloc.start()
    try:
        out = read_stream_csv(str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, data)
    assert peak / out.nbytes < 3.0

class TestLogReturns:
    def test_formula(self):
        prices = np.array([[100.0], [110.0], [99.0]])
        out = log_returns(prices)
        assert out.shape == (2, 1)
        assert out[0, 0] == pytest.approx(math.log(1.10))
        assert out[1, 0] == pytest.approx(math.log(0.90))

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError, match="nonpositive"):
            log_returns(np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError, match="^need at least 2 rows to compute log returns$"):
            log_returns(np.array([[1.0, 2.0]]))


def _with_n5(doc, n):
    """The table document with its n=5 entries' window half-length set to ``n``."""
    return doc | {"entries": [e | {"n": n} if e["n"] == 5 else e for e in doc["entries"]]}


@pytest.fixture()
def calibrated_table(tmp_path):
    out = tmp_path / "table.json"
    code = main(
        [
            "calibrate",
            "--dim", "2",
            "--windows", "5,8",
            "--alpha-total", "0.06",
            "--reps", "300",
            "--zone-length", "40",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestCalibrateCommand:
    def test_writes_table_with_all_entries(self, calibrated_table):
        doc = json.loads(calibrated_table.read_text())
        assert doc["version"] == 1
        assert doc["dimension"] == 2
        assert len(doc["entries"]) == 6
        kinds = {(e["kind"], e["n"]) for e in doc["entries"]}
        assert kinds == {(k, n) for k in ("mu", "sigma+", "sigma-") for n in (5, 8)}

    def test_byte_identical_across_runs(self, tmp_path, calibrated_table):
        again = tmp_path / "again.json"
        main(
            [
                "calibrate",
                "--dim", "2",
                "--windows", "5,8",
                "--alpha-total", "0.06",
                "--reps", "300",
                "--zone-length", "40",
                "--seed", "7",
                "--out", str(again),
            ]
        )
        assert again.read_bytes() == calibrated_table.read_bytes()

    def test_invalid_alpha_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--dim", "2", "--windows", "5", "--alpha-total", "1.5"])
        assert exc.value.code == EXIT_USAGE
        assert "--alpha-total" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "windows, message",
        [("1", "entries must be integers >= 2"), ("a", "must be a comma list of integers: 'a'")],
    )
    def test_invalid_windows_exit_2(self, capsys, windows, message):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--dim", "2", "--windows", windows])
        assert exc.value.code == EXIT_USAGE
        assert f"--windows {message}" in capsys.readouterr().err

    def test_unresolvable_quantile_exits_3(self, tmp_path):
        code = main(
            [
                "calibrate",
                "--dim", "2",
                "--windows", "5",
                "--alpha-total", "0.01",
                "--reps", "20",
                "--zone-length", "20",
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert code == EXIT_CALIBRATION


class TestDetectCommand:
    def _stream_csv(self, tmp_path, d=2, shift=4.0):
        rng = derived_rng(1)
        y = rng.standard_normal((80, d))
        y[40:] += shift
        f = tmp_path / "stream.csv"
        write_stream_csv(str(f), y)
        return f

    def test_detects_planted_shift_with_table(self, tmp_path, calibrated_table):
        stream = self._stream_csv(tmp_path)
        out = tmp_path / "events.jsonl"
        code = main(
            [
                "detect",
                "--input", str(stream),
                "--thresholds", str(calibrated_table),
                "--policy", "continue",
                "--out", str(out),
            ]
        )
        assert code == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert events
        localized = [
            e for e in events if 41 - e["window"] <= e["change_at"] <= 41 + e["window"]
        ]
        assert localized

    def test_byte_identical_across_runs(self, tmp_path, calibrated_table):
        stream = self._stream_csv(tmp_path)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "detect",
                        "--input", str(stream),
                        "--thresholds", str(calibrated_table),
                        "--out", str(out),
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_analytic_thresholds_without_table(self, tmp_path):
        stream = self._stream_csv(tmp_path)
        out = tmp_path / "events.jsonl"
        code = main(
            [
                "detect",
                "--input", str(stream),
                "--analytic",
                "--windows", "10",
                "--alpha-total", "0.05",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().strip()

    def test_analytic_thresholds_need_windows(self, tmp_path, capsys):
        argv = ["detect", "--input", str(self._stream_csv(tmp_path)), "--analytic"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --analytic requires --windows\n"

    def test_constant_stream_no_events(self, tmp_path):
        f = tmp_path / "const.csv"
        _write(f, "\n".join(["3.5,1.0"] * 50) + "\n")
        out = tmp_path / "events.jsonl"
        code = main(
            [
                "detect",
                "--input", str(f),
                "--analytic",
                "--windows", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == ""

    def test_window_subset_of_table(self, tmp_path, calibrated_table):
        stream = self._stream_csv(tmp_path)
        out = tmp_path / "events.jsonl"
        code = main(
            [
                "detect",
                "--input", str(stream),
                "--thresholds", str(calibrated_table),
                "--windows", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(e["window"] == 8 for e in events)

    def test_window_missing_from_table_exits_4(self, tmp_path, calibrated_table):
        stream = self._stream_csv(tmp_path)
        code = main(
            [
                "detect",
                "--input", str(stream),
                "--thresholds", str(calibrated_table),
                "--windows", "7",
            ]
        )
        assert code == EXIT_INCOMPATIBLE

    def test_table_missing_family_exits_4(self, tmp_path, calibrated_table, capsys):
        doc = json.loads(calibrated_table.read_text())
        doc["entries"] = [
            e for e in doc["entries"] if (e["kind"], e["n"]) != ("sigma+", 5)
        ]
        table = tmp_path / "partial.json"
        _write(table, json.dumps(doc))
        code = main(["detect", "--input", str(self._stream_csv(tmp_path)),
                     "--thresholds", str(table)])
        assert code == EXIT_INCOMPATIBLE
        assert "(sigma+, n=5)" in capsys.readouterr().err

    def test_table_missing_field_exits_2(self, tmp_path, calibrated_table, capsys):
        doc = json.loads(calibrated_table.read_text())
        del doc["dimension"]
        table = tmp_path / "nodim.json"
        _write(table, json.dumps(doc))
        code = main(["detect", "--input", str(self._stream_csv(tmp_path)),
                     "--thresholds", str(table)])
        assert code == EXIT_USAGE
        assert "'dimension'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reshape, message",
        [
            (lambda doc: doc | {"entries": 5}, "field of the wrong type"),
            (lambda doc: doc | {"entries": [list(doc["entries"][0].values())]},
             "field of the wrong type"),
            (lambda doc: [doc], "must be a JSON object"),
            (lambda doc: doc | {"dimension": None}, "field of the wrong type"),
            (lambda doc: doc | {"entries": [e | {"rho": math.nan} for e in doc["entries"]]},
             "threshold for (mu, n=5) is not finite: nan"),
            (lambda doc: doc | {"entries": [e | {"rho": math.inf} for e in doc["entries"]]},
             "threshold for (mu, n=5) is not finite: inf"),
            (lambda doc: doc | {"entries": [e | {"rho": True} for e in doc["entries"]]},
             "wrong type: rho is True"),
            (lambda doc: doc | {"entries": [e | {"alpha": True} for e in doc["entries"]]},
             "wrong type: alpha is True"),
            (lambda doc: _with_n5(doc, True), "wrong type: n is True"),
            (lambda doc: doc | {"dimension": True}, "wrong type: dimension is True"),
            (lambda doc: _with_n5(doc, 5.7), "n must be a whole number of at least 2, got 5.7"),
            (lambda doc: _with_n5(doc, 1), "n must be a whole number of at least 2, got 1"),
            (lambda doc: doc | {"dimension": 0},
             "dimension must be a whole number of at least 1, got 0"),
            (lambda doc: doc | {"entries": [e | {"alpha": 7.5} for e in doc["entries"]]},
             "alpha for (mu, n=5) not in (0, 1): 7.5"),
            # once read as the provenance "None", and written back so
            (lambda doc: doc | {"entries": [e | {"provenance": None} for e in doc["entries"]]},
             "provenance of (mu, n=5) must be one of ('monte_carlo', 'analytic'), got None"),
        ],
        ids=["entries-int", "entry-list", "top-level-list", "dimension-null", "rho-nan", "rho-inf",
             "rho-bool", "alpha-bool", "n-bool", "dimension-bool", "n-fraction", "n-below-2",
             "dimension-below-1", "alpha-above-1", "provenance-null"],
    )
    def test_table_wrong_shape_exits_2(self, tmp_path, calibrated_table, capsys, reshape, message):
        table = tmp_path / "shape.json"
        _write(table, json.dumps(reshape(json.loads(calibrated_table.read_text()))))
        code = main(["detect", "--input", str(self._stream_csv(tmp_path)),
                     "--thresholds", str(table)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_dimension_mismatch_exits_4(self, tmp_path, calibrated_table):
        stream = self._stream_csv(tmp_path, d=3)
        code = main(
            ["detect", "--input", str(stream), "--thresholds", str(calibrated_table)]
        )
        assert code == EXIT_INCOMPATIBLE

    def test_dimension_mismatch_reports_the_library_message(self, tmp_path, calibrated_table,
                                                            capsys):
        stream = self._stream_csv(tmp_path, d=3)
        code = main(["detect", "--input", str(stream), "--thresholds", str(calibrated_table)])
        assert code == EXIT_INCOMPATIBLE
        assert "calibrated for dimension 2, stream has dimension 3" in capsys.readouterr().err

    def test_missing_window_names_every_pair(self, tmp_path, calibrated_table, capsys):
        code = main(["detect", "--input", str(self._stream_csv(tmp_path)),
                     "--thresholds", str(calibrated_table), "--windows", "7"])
        assert code == EXIT_INCOMPATIBLE
        err = capsys.readouterr().err
        assert "threshold table lacks (mu, n=7), (sigma+, n=7), (sigma-, n=7)" in err

    def test_bad_flag_is_reported_before_the_table_fit(self, tmp_path, calibrated_table, capsys):
        code = main(["detect", "--input", str(self._stream_csv(tmp_path)),
                     "--thresholds", str(calibrated_table), "--windows", "7,7"])
        assert code == EXIT_USAGE
        assert "window lengths must be distinct" in capsys.readouterr().err

    def test_malformed_csv_exits_2(self, tmp_path, calibrated_table, capsys):
        f = tmp_path / "bad.csv"
        _write(f, "1.0,2.0\nbad,row\n2.0\n")
        code = main(
            ["detect", "--input", str(f), "--thresholds", str(calibrated_table)]
        )
        assert code == EXIT_USAGE
        assert "row" in capsys.readouterr().err

    def test_log_returns_path(self, tmp_path):
        rng = derived_rng(2)
        prices = 100 * np.exp(np.cumsum(0.01 * rng.standard_normal((60, 1)), axis=0))
        f = tmp_path / "prices.csv"
        write_stream_csv(str(f), prices)
        out = tmp_path / "events.jsonl"
        code = main(
            [
                "detect",
                "--input", str(f),
                "--analytic",
                "--windows", "6",
                "--log-returns",
                "--out", str(out),
            ]
        )
        assert code == 0


class TestSimulateCommand:
    def test_static_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "simulate",
                "--mode", "static",
                "--dim", "5",
                "--window", "15",
                "--change", "mean",
                "--mean-shift", "2.0",
                "--samples", "150",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["tp"] + doc["fp"] + doc["tn"] + doc["fn"] == 150
        assert doc["p_mean"] > 0.9

    def test_online_report_and_grid(self, tmp_path):
        out = tmp_path / "report.json"
        grid = tmp_path / "grid.csv"
        code = main(
            [
                "simulate",
                "--mode", "online",
                "--dim", "3",
                "--windows", "8,12",
                "--change", "mean",
                "--mean-shift", "1.5",
                "--samples", "200",
                "--stream-length", "50",
                "--change-position", "25",
                "--reps", "300",
                "--seed", "4",
                "--out", str(out),
                "--grid-csv", str(grid),
                "--grid-dims", "1,3",
                "--grid-windows", "8,12",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["sensitivity"] > 0.8
        lines = grid.read_text().splitlines()
        assert lines[0].startswith("dimension,window,")
        assert len(lines) == 5

    def test_grid_header_is_the_grid_rows_keys(self, tmp_path):
        grid = tmp_path / "grid.csv"
        code = main(["simulate", "--mode", "static", "--dim", "2", "--window", "5",
                     "--samples", "100", "--out", str(tmp_path / "report.json"),
                     "--grid-csv", str(grid), "--grid-dims", "1", "--grid-windows", "5"])
        assert code == 0
        header = grid.read_text().splitlines()[0]
        assert header == ",".join(static_power_grid((1,), (5,), "mean", samples=100)[0])

    def test_dimension_zero_exits_2(self, capsys):
        # once a ZeroDivisionError traceback and exit 1
        assert main(["simulate", "--mode", "static", "--dim", "0", "--window", "5"]) == EXIT_USAGE
        assert "dimension must be at least 1, got 0" in capsys.readouterr().err


class TestPowerCommand:
    def test_radius_value(self, capsys):
        code = main(
            [
                "power",
                "--quantity", "radius",
                "--n", "30",
                "--d", "10",
                "--alpha", "0.05",
                "--beta", "0.05",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimum_radius"] == pytest.approx(29.44, abs=0.02)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_delta_sigma_value(self, capsys, side):
        argv = ["power", "--quantity", f"delta-sigma-{side}", "--n", "30", "--d", "10"]
        assert main(argv) == 0
        query = PowerQuery(n=30, d=10, alpha=0.05, beta=0.1)
        assert json.loads(capsys.readouterr().out) == {f"delta_sigma_{side}": delta_sigma(query, side)}

    def test_delta_mu_decreasing_in_beta(self, capsys):
        values = []
        for beta in ("0.1", "0.3"):
            assert (
                main(
                    [
                        "power",
                        "--quantity", "delta-mu",
                        "--n", "30",
                        "--d", "10",
                        "--beta", beta,
                    ]
                )
                == 0
            )
            values.append(json.loads(capsys.readouterr().out)["delta_mu"])
        assert values[0] > values[1]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sigma2", "nan", "sigma2 must be positive and finite, got nan"),
            ("--mean-left", "inf", "mean_left must be finite and at least 0.0, got inf"),
            ("--mean-right", "nan", "mean_right must be finite and at least 0.0, got nan"),
        ],
    )
    def test_non_finite_separation_exits_2(self, capsys, flag, value, message):
        # each once exited 0 and wrote NaN or Infinity, which is not JSON
        argv = ["power", "--quantity", "delta-mu", "--n", "5", "--d", "2", flag, value]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_empirical_power(self, capsys):
        code = main(
            [
                "power",
                "--quantity", "empirical",
                "--n", "12",
                "--d", "4",
                "--shift", "1.5",
                "--reps", "400",
                "--seed", "5",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["power"] > 0.9


# In a fresh interpreter: this one has imported scipy through the oracles.
_SCIPY_FOOTPRINT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from gsrdetect.cli import main

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    assert scipy_modules() == [], scipy_modules()
    np.savetxt("s.csv", np.random.default_rng(1).normal(size=(200, 2)), delimiter=",")
    calibrate = ["calibrate", "--dim", "2", "--windows", "5", "--reps", "200", "--out", "t.json"]
    assert main(calibrate) == 0
    assert main(["detect", "--input", "s.csv", "--thresholds", "t.json", "--out", "e.jsonl"]) == 0
    assert scipy_modules() == [], scipy_modules()

    from scipy import stats

    from gsrdetect import FisherParams, fisher_distribution, null_law_mu

    expected = stats.f(3, 24).isf(0.05)
    assert null_law_mu(5, 3).isf(0.05) == expected
    assert fisher_distribution(FisherParams(3, 24)).isf(0.05) == expected
    assert main(["detect", "--input", "s.csv", "--analytic", "--windows", "5"]) == 0
    """
)


def test_table_runs_load_no_scipy(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FOOTPRINT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
