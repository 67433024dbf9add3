"""Command-line interface: calibrate, detect, simulate, power.

Exit codes: 0 success, 2 usage or malformed input, 3 calibration settings
rejected (for example a tail not resolvable from the replication count, or a
zone shorter than the largest window), 4 incompatibility between inputs
(stream dimension vs. threshold table, or a (family, window) pair the table
lacks).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from datetime import datetime

import numpy as np

from .calibration import (
    CalibrationConfig,
    CalibrationError,
    ThresholdTable,
    calibrate_monte_carlo,
)
from .detector import (
    _POLICIES, DetectorConfig, _resolve_thresholds, allocate_alphas, detect_stream, events_to_jsonl
)
from .power import PowerQuery, delta_mu, delta_sigma, empirical_power, minimum_radius
from .simulate import _CHANGES, run_online_power, run_static_power, static_power_grid

__all__ = ["main", "read_stream_csv", "write_stream_csv", "log_returns"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CALIBRATION = 3
EXIT_INCOMPATIBLE = 4

_CHUNK = 1 << 16  # bytes per read when counting a stream CSV's commas and quotes


class InputFormatError(ValueError):
    """Malformed input file (bad CSV cell, ragged row, missing value)."""


class IncompatibilityError(ValueError):
    """Inputs are individually valid but do not fit together."""


def _parse_float_cell(cell: str, row_num: int, col: int) -> float:
    text = cell.strip()
    if not text:
        raise InputFormatError(f"row {row_num}: empty value in column {col + 1}")
    try:
        value = float(text)
    except ValueError:
        raise InputFormatError(
            f"row {row_num}: cannot parse {cell!r} in column {col + 1} as a number"
        ) from None
    if not math.isfinite(value):
        raise InputFormatError(f"row {row_num}: non-finite value in column {col + 1}")
    return value


def _is_timestamp(cell: str) -> bool:
    try:
        datetime.fromisoformat(cell.strip())
        return True
    except ValueError:
        return False


def _nonblank_rows(lines):
    """CSV rows of ``lines``, without those whose cells are all blank."""
    return (row for row in csv.reader(lines) if row and any(c.strip() for c in row))


def _layout(rows: list[list[str]], time_column: bool) -> tuple[bool, bool]:
    """(has_header, drop_first) of a stream CSV from its first two non-blank rows."""
    if not rows:
        raise InputFormatError("input CSV is empty")

    def parses_as_data(row: list[str], skip_first: bool) -> bool:
        cells = row[1:] if skip_first else row
        if not cells:
            return False
        try:
            for c in cells:
                float(c.strip())
        except ValueError:
            return False
        return True

    # Auto-detect the timestamp column from the first non-header row.
    probe = rows[1] if len(rows) > 1 and not parses_as_data(rows[0], time_column) else rows[0]
    drop_first = time_column or (
        not parses_as_data(probe, False)
        and parses_as_data(probe, True)
        and _is_timestamp(probe[0])
    )
    has_header = not parses_as_data(rows[0], drop_first)
    if has_header and len(rows) < 2:
        raise InputFormatError("input CSV has a header but no data rows")
    return has_header, drop_first


def _parse_cells(path: str, time_column: bool) -> np.ndarray:
    """:func:`read_stream_csv` cell by cell: its exact reference, and the one source of
    row-numbered errors."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(_nonblank_rows(fh))
    has_header, drop_first = _layout(rows[:2], time_column)
    data_rows = rows[1:] if has_header else rows

    width = len(data_rows[0])
    out = np.empty((len(data_rows), width - (1 if drop_first else 0)))
    for i, row in enumerate(data_rows):
        row_num = i + (2 if has_header else 1)
        if len(row) != width:
            raise InputFormatError(
                f"row {row_num}: expected {width} columns, found {len(row)}"
            )
        cells = row[1:] if drop_first else row
        for j, cell in enumerate(cells):
            out[i, j] = _parse_float_cell(cell, row_num, j + (1 if drop_first else 0))
    if out.shape[1] < 1:
        raise InputFormatError("input CSV has no data columns")
    return out


def read_stream_csv(path: str, time_column: bool = False) -> np.ndarray:
    """Read a stream CSV: one row per time step, columns are dimensions.

    An optional header row and an optional leading ISO-8601 timestamp column
    are detected automatically from the first two non-blank rows; a leading
    integer index column cannot be told apart from data and must be declared
    with ``time_column=True``.  All data cells must parse as finite reals and
    every row must have the same width.

    Values are exactly what Python's ``float`` gives for each stripped cell.
    A file without quotes is parsed in one ``np.loadtxt`` pass, kept only when
    every line it read is as wide as the first data row and every value is
    finite; any other file is parsed again cell by cell, which names the first
    bad row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        first_line = fh.readline()
        head = list(itertools.islice(_nonblank_rows(itertools.chain([first_line], fh)), 2))
    has_header, drop_first = _layout(head, time_column)
    first = 1 if drop_first else 0
    width = len(head[1] if has_header else head[0])

    # csv.reader rejects a cell longer than csv.field_size_limit() (131 072 by
    # default); a cell of 2 * _CHUNK - 1 bytes or more covers a whole chunk.
    commas = 0
    quoted = long_cell = False
    with open(path, "rb") as fh:
        for chunk in iter(functools.partial(fh.read, _CHUNK), b""):
            commas += chunk.count(b",")
            quoted |= b'"' in chunk
            long_cell |= len(chunk) == _CHUNK and not any(c in chunk for c in b",\n\r")
    if not quoted and not long_cell and width > first:
        try:
            out = np.loadtxt(
                path,
                delimiter=",",
                comments=None,
                ndmin=2,
                encoding="utf-8",
                skiprows=1 if has_header else 0,
                usecols=range(first, width),
            )
        except ValueError:
            pass
        else:
            # loadtxt ignores cells beyond usecols; a short row makes it raise.
            data_commas = commas - (first_line.count(",") if has_header else 0)
            if data_commas == out.shape[0] * (width - 1) and np.isfinite(out).all():
                return out
    return _parse_cells(path, time_column)


def write_stream_csv(path: str, data: np.ndarray, header: list[str] | None = None) -> None:
    """Write a (T, d) stream as CSV with full float round-trip precision.

    Only a file that :func:`read_stream_csv` reads back bit for bit is written:
    the stream must be finite, with at least one row and one column, and a
    header must hold one string per column and read as a header.  Anything
    else raises ``ValueError`` before the file is opened.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(f"stream must be a (T, d) array with T, d >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("stream contains non-finite values, which no stream CSV may hold")
    if header is not None:
        if len(header) != arr.shape[1]:
            raise ValueError(f"header {header!r} must have {arr.shape[1]} cells, one per column")
        # csv before Python 3.11 reads no NUL
        if not all(isinstance(c, str) and "\0" not in c for c in header):
            raise ValueError(f"header cells must be strings without NUL, got {header!r}")
        if not _layout([list(header), [repr(float(v)) for v in arr[0]]], False)[0]:
            raise ValueError(f"header {header!r} would be read as a data row")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in arr:
            writer.writerow([repr(float(v)) for v in row])


def log_returns(prices: np.ndarray) -> np.ndarray:
    """Convert a price stream to log returns: r_t = ln(p_t / p_{t-1})."""
    p = np.asarray(prices, dtype=float)
    if np.any(p <= 0.0):
        bad = int(np.argwhere(p.min(axis=1) <= 0.0)[0][0]) + 1
        raise InputFormatError(
            f"row {bad}: nonpositive price, cannot take log returns"
        )
    if p.shape[0] < 2:
        raise InputFormatError("need at least 2 rows to compute log returns")
    return np.diff(np.log(p), axis=0)


def _parse_int_list(text: str, minimum: int, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag} must be a comma list of integers: {text!r}")
    if not values or any(v < minimum for v in values):
        raise argparse.ArgumentTypeError(f"{flag} entries must be integers >= {minimum}")
    return values


def _parse_windows(text: str) -> tuple[int, ...]:
    return _parse_int_list(text, 2, "--windows")


def _parse_dims(text: str) -> tuple[int, ...]:
    return _parse_int_list(text, 1, "--grid-dims")


def _probability(flag: str):
    def parse(text: str) -> float:
        value = float(text)
        if not (0.0 < value < 1.0):
            raise argparse.ArgumentTypeError(f"{flag} must be in (0, 1), got {text}")
        return value

    return parse


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_calibrate(args) -> int:
    alphas = allocate_alphas(args.alpha_total, args.windows)
    config = CalibrationConfig(
        window_lengths=args.windows,
        dimension=args.dim,
        alphas=alphas,
        zone_length=args.zone_length,
        replications=args.reps,
        seed=args.seed,
    )
    table = calibrate_monte_carlo(config)
    _write_text(args.out, table.to_json())
    for entry in table.entries:
        print(
            f"{entry.kind.value:>6}  n={entry.n:<4d} alpha={entry.alpha:.6g}  rho={entry.rho:.6f}"
        )
    return EXIT_OK


def _load_table(path: str) -> ThresholdTable:
    with open(path, encoding="utf-8") as fh:
        return ThresholdTable.from_json(fh.read())


def _cmd_detect(args) -> int:
    data = read_stream_csv(args.input, time_column=args.time_column)
    if args.log_returns:
        data = log_returns(data)
    dimension = data.shape[1]

    if args.thresholds is not None:
        table = _load_table(args.thresholds)
        windows = args.windows or table.window_lengths
    elif args.windows:
        table, windows = None, args.windows
    else:
        raise InputFormatError("--analytic requires --windows")

    config = DetectorConfig(
        windows=tuple(windows),
        alpha_total=args.alpha_total,
        policy=args.policy,
        cooldown=args.cooldown,
    )
    if table is not None:  # the library's fit check, before the scan
        try:
            _resolve_thresholds(config, dimension, table)
        except (KeyError, ValueError) as exc:
            raise IncompatibilityError(exc.args[0]) from None
    events = detect_stream(data, config, table)
    _write_text(args.out, events_to_jsonl(events))
    print(f"{len(events)} events in {data.shape[0]} observations (d={dimension})")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # The keywords the static study, the online study and the grid share.
    study = dict(
        samples=args.samples, seed=args.seed, mean_shift=args.mean_shift,
        variance_scale=args.variance_scale,
    )
    if args.mode == "static":
        report = run_static_power(
            args.dim, args.window, args.change, alpha=args.alpha_total, **study
        )
    else:
        report = run_online_power(
            args.dim,
            windows=args.windows,
            change=args.change,
            alpha_total=args.alpha_total,
            stream_length=args.stream_length,
            change_position=args.change_position,
            calibration_replications=args.reps,
            **study,
        )
    _write_text(args.out, report.to_json())

    if args.grid_csv:
        rows = static_power_grid(
            args.grid_dims, args.grid_windows, args.change, alpha=args.alpha_total, **study
        )
        with open(args.grid_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return EXIT_OK


def _cmd_power(args) -> int:
    query = PowerQuery(
        n=args.n,
        d=args.d,
        alpha=args.alpha,
        beta=args.beta,
        sigma2=args.sigma2,
        mean_left=args.mean_left,
        mean_right=args.mean_right,
    )
    result: dict[str, float] = {}
    if args.quantity == "delta-mu":
        result["delta_mu"] = delta_mu(query)
    elif args.quantity == "delta-sigma-plus":
        result["delta_sigma_plus"] = delta_sigma(query, "plus")
    elif args.quantity == "delta-sigma-minus":
        result["delta_sigma_minus"] = delta_sigma(query, "minus")
    elif args.quantity == "radius":
        result["minimum_radius"] = minimum_radius(
            args.n, args.d, args.alpha, args.beta, args.sigma2
        )
    else:  # empirical
        result["power"] = empirical_power(
            args.n,
            args.d,
            args.alpha,
            args.shift,
            replications=args.reps,
            seed=args.seed,
        )
    _write_text(args.out, json.dumps(result, indent=2) + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsrdetect",
        description="Mean/variance change-point detection via complete-graph spanning ratios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="Monte Carlo threshold calibration")
    cal.add_argument("--dim", type=int, required=True, help="data dimension d")
    cal.add_argument("--windows", type=_parse_windows, required=True, help="comma list of n")
    cal.add_argument(
        "--alpha-total", type=_probability("--alpha-total"), default=0.06
    )
    cal.add_argument("--reps", type=int, default=2000, help="Monte Carlo replications K")
    cal.add_argument("--zone-length", type=int, default=None, help="simulated length N")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--out", default="-", help="output JSON path (default stdout)")
    cal.set_defaults(func=_cmd_calibrate)

    det = sub.add_parser("detect", help="scan a CSV stream for change events")
    det.add_argument("--input", required=True, help="CSV stream, rows = time steps")
    group = det.add_mutually_exclusive_group(required=True)
    group.add_argument("--thresholds", help="calibrated threshold table (JSON)")
    group.add_argument(
        "--analytic", action="store_true", help="use analytic single-point thresholds"
    )
    det.add_argument("--windows", type=_parse_windows, default=None)
    det.add_argument(
        "--alpha-total", type=_probability("--alpha-total"), default=0.06,
        help="level split of --analytic thresholds (a --thresholds table has its own levels)",
    )
    det.add_argument("--policy", choices=_POLICIES, default="halt")
    det.add_argument("--cooldown", type=int, default=None, help="cooldown steps")
    det.add_argument(
        "--log-returns",
        action="store_true",
        help="treat the input as prices and convert to log returns first",
    )
    det.add_argument(
        "--time-column",
        action="store_true",
        help="first CSV column is a time index, not data",
    )
    det.add_argument("--out", default="-", help="events JSON-lines path (default stdout)")
    det.set_defaults(func=_cmd_detect)

    sim = sub.add_parser("simulate", help="detection-power simulation studies")
    sim.add_argument("--mode", choices=["static", "online"], required=True)
    sim.add_argument("--dim", type=int, required=True)
    sim.add_argument("--window", type=int, default=30, help="static-mode half window n")
    sim.add_argument("--windows", type=_parse_windows, default=(20, 35, 50))
    sim.add_argument("--change", choices=_CHANGES, default="mean")
    sim.add_argument("--mean-shift", type=float, default=None, help="default d^(-1/3)")
    sim.add_argument("--variance-scale", type=float, default=2.0)
    sim.add_argument("--samples", type=int, default=None)
    sim.add_argument(
        "--alpha-total", type=_probability("--alpha-total"), default=None
    )
    sim.add_argument("--stream-length", type=int, default=100)
    sim.add_argument("--change-position", type=int, default=50)
    sim.add_argument("--reps", type=int, default=2000, help="calibration replications")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="-")
    sim.add_argument("--grid-csv", default=None, help="also write a (d, n) metric grid")
    sim.add_argument("--grid-dims", type=_parse_dims, default=(1, 10, 100))
    sim.add_argument("--grid-windows", type=_parse_windows, default=(10, 30, 50))
    sim.set_defaults(func=_cmd_simulate)

    pow_ = sub.add_parser("power", help="power bounds and empirical power")
    pow_.add_argument(
        "--quantity",
        choices=["delta-mu", "delta-sigma-plus", "delta-sigma-minus", "radius", "empirical"],
        required=True,
    )
    pow_.add_argument("--n", type=int, required=True)
    pow_.add_argument("--d", type=int, required=True)
    pow_.add_argument("--alpha", type=_probability("--alpha"), default=0.05)
    pow_.add_argument("--beta", type=_probability("--beta"), default=0.1)
    pow_.add_argument("--sigma2", type=float, default=1.0)
    pow_.add_argument("--mean-left", type=float, default=0.0)
    pow_.add_argument("--mean-right", type=float, default=0.0)
    pow_.add_argument("--shift", type=float, default=0.0, help="per-coordinate mean shift")
    pow_.add_argument("--reps", type=int, default=1000)
    pow_.add_argument("--seed", type=int, default=0)
    pow_.add_argument("--out", default="-")
    pow_.set_defaults(func=_cmd_power)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "simulate":
        if args.samples is None:
            args.samples = 100 if args.mode == "static" else 1000
        if args.alpha_total is None:
            args.alpha_total = 0.05 if args.mode == "static" else 0.06

    try:
        return args.func(args)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except IncompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (InputFormatError, ValueError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
