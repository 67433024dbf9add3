"""CLI subcommands: flags, exit codes, file formats, determinism."""

import json
import math

import numpy as np
import pytest

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
        ],
        ids=["entries-int", "entry-list", "top-level-list", "dimension-null", "rho-nan", "rho-inf",
             "rho-bool", "alpha-bool", "n-bool", "dimension-bool", "n-fraction", "n-below-2",
             "dimension-below-1"],
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
