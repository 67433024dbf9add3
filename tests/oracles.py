"""Independent reference implementations used as test oracles.

Everything here computes spanning quantities by explicit pairwise
enumeration (directly or via scipy's pdist), never through the running-sum
identity the package uses, so agreement is evidence rather than tautology.
``per_cell_csv`` reads a stream CSV with ``csv`` and ``float`` alone, never
through numpy's text parser.  ``replication_overlap`` holds calibration's
replication loop on one of its two paths by the CPU count alone, and records
which thread made each draw; ``scan_split`` holds the stream scan on one of
its two paths.  So the paths can be compared.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from contextlib import contextmanager
from datetime import datetime
from unittest import mock

import numpy as np
from scipy.spatial.distance import pdist

from gsrdetect import calibration, power, simulate, windows
from gsrdetect.cli import InputFormatError


@contextmanager
def replication_overlap(on: bool):
    """Let the process run on two CPUs (``on``) or one, whatever the host's, so that
    ``calibration._replication_maxima`` draws every batch after the first on its helper
    thread when there are two batches or more, or every batch on the calling thread.

    Yields a list of (first replication, thread) for each draw of the loops that
    calibration, power and simulate run inside the block.
    """
    draws, loop = [], calibration._replication_maxima

    def spy(count, rows, dim, lengths, draw):
        def recorded(lo, slots):
            draws.append((lo, threading.current_thread()))
            draw(lo, slots)

        return loop(count, rows, dim, lengths, recorded)

    cpus = {0, 1} if on else {0}
    with (
        mock.patch.object(os, "sched_getaffinity", lambda pid: cpus, create=True),
        mock.patch.object(calibration, "_replication_maxima", spy),
        mock.patch.object(power, "_replication_maxima", spy),
        mock.patch.object(simulate, "_replication_maxima", spy),
    ):
        yield draws


@contextmanager
def scan_split(on: bool):
    """Scan the second half of a single stream's blocks in ``windows._window_scan`` on
    its helper thread (``on``) whenever there are two blocks or more, whatever the
    block size and the CPUs, or scan every block on the calling thread."""
    with mock.patch.object(windows, "_SPLIT_VALUES", 0 if on else math.inf):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
            yield


def pairwise_spanning(points) -> float:
    """Sum of squared distances over unordered pairs, by explicit double loop."""
    pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]
    total = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = pts[i] - pts[j]
            total += float(diff @ diff)
    return total


def pairwise_spanning_fast(points: np.ndarray) -> float:
    """Same quantity via scipy's pairwise distances (for bulk checks)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        return 0.0
    return float(pdist(pts, "sqeuclidean").sum())


def naive_decomposition(window: np.ndarray) -> dict[str, float]:
    """Full/half/between/residual spanning distances by enumeration."""
    w = np.asarray(window, dtype=float)
    n = w.shape[0] // 2
    w_full = pairwise_spanning_fast(w)
    w_left = pairwise_spanning_fast(w[:n])
    w_right = pairwise_spanning_fast(w[n:])
    return {
        "w_full": w_full,
        "w_left": w_left,
        "w_right": w_right,
        "w_btw": w_full - w_left - w_right,
        "w_rem": w_full - 2.0 * (w_left + w_right),
    }


def per_cell_csv(path, time_column: bool) -> np.ndarray:
    """A stream CSV read cell by cell: ``float(cell.strip())`` over ``csv.reader`` rows.

    Follows ``gsrdetect.cli.read_stream_csv``'s layout rules and messages: rows
    whose cells are all blank are skipped, a header and a leading timestamp
    column are told from the first two rows, and errors raise
    ``InputFormatError`` naming the row among the kept ones.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise InputFormatError("input CSV is empty")

    def numeric(cells):
        try:
            return bool([float(cell.strip()) for cell in cells])
        except ValueError:
            return False

    def iso(text):
        try:
            datetime.fromisoformat(text.strip())
        except ValueError:
            return False
        return True

    first_cells = rows[0][1:] if time_column else rows[0]
    probe = rows[1] if len(rows) > 1 and not numeric(first_cells) else rows[0]
    skip = 1 if time_column or (not numeric(probe) and numeric(probe[1:]) and iso(probe[0])) else 0
    header = not numeric(rows[0][skip:])
    data = rows[1:] if header else rows
    if not data:
        raise InputFormatError("input CSV has a header but no data rows")
    width = len(data[0])
    values = []
    for number, row in enumerate(data, start=2 if header else 1):
        if len(row) != width:
            raise InputFormatError(f"row {number}: expected {width} columns, found {len(row)}")
        for col, cell in enumerate(row[skip:], start=skip + 1):
            if not cell.strip():
                raise InputFormatError(f"row {number}: empty value in column {col}")
            try:
                value = float(cell.strip())
            except ValueError:
                raise InputFormatError(
                    f"row {number}: cannot parse {cell!r} in column {col} as a number"
                ) from None
            if not math.isfinite(value):
                raise InputFormatError(f"row {number}: non-finite value in column {col}")
            values.append(value)
    if width <= skip:
        raise InputFormatError("input CSV has no data columns")
    return np.array(values, dtype=float).reshape(len(data), width - skip)


def parse_outcome(parse, path, time_column: bool):
    """What ``parse(path, time_column)`` gives: the array's dtype, shape and bytes, or the
    exception's type and message."""
    try:
        out = parse(path, time_column)
    except Exception as exc:  # any exception is an outcome to compare
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()
