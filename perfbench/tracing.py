"""Span tracing of the gsrdetect layers, installed from outside the package.

:meth:`Tracer.install` replaces each traced callable with a timing wrapper.
Package modules import helpers by name (``detector`` holds its own reference
to ``sliding_spanning_stats``, ``calibration`` to ``derived_rng``, ...), so a
function is replaced in every ``gsrdetect`` module namespace that holds it,
and a method is replaced on its class.  :meth:`Tracer.uninstall` puts the
originals back.

Spans stay in memory and are written out by :meth:`Tracer.write` when the run
ends.  Each span records its id, its parent span, the benchmark operation
(request) it belongs to, its name, start and end.  Calls are nested and
single-threaded, so a span's self time is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

PACKAGE = "gsrdetect"

# Traced callables per layer (package module), as attribute paths in the
# module: every callable a per-layer metric names, plus the callers whose
# busy time the metrics report.
TRACED = {
    "windows": (
        "sliding_spanning_stats",
        "ObservationWindow.slide",
        "ObservationWindow.decompose",
    ),
    "ratios": ("compute_gsr",),
    "detector": ("Detector.step", "detect_stream", "events_to_jsonl"),
    "calibration": (
        "calibration_maxima",
        "calibrate_monte_carlo",
        "empirical_upper_quantile",
        "analytic_table",
        "ThresholdTable.from_json",
    ),
    "distributions": ("derived_rng", "fisher_upper_quantile"),
    "simulate": ("run_online_power", "Scenario.sample"),
    "power": ("empirical_power",),
    "cli": ("main", "read_stream_csv"),
}

# Span names for methods drop the class where the layer has one such class.
SHORT_NAMES = {
    "windows.ObservationWindow.slide": "windows.slide",
    "windows.ObservationWindow.decompose": "windows.decompose",
    "detector.Detector.step": "detector.step",
}


def span_name(layer: str, path: str) -> str:
    full = f"{layer}.{path}"
    return SHORT_NAMES.get(full, full)


LAYERS = tuple(TRACED)
SPAN_NAMES = frozenset(span_name(m, path) for m, paths in TRACED.items() for path in paths)


def _events(fn):
    return lambda args, kwargs, result: {"events": len(result)}


def _spanning_bytes(fn):
    """Bytes moved by one prefix-sum pass, computed from array shapes.

    Per call on a (T, d) stream with E warm positions: reading the stream,
    writing and re-reading the centred copy, and the cumulative sums touch
    5 T d doubles; each of the three segment evaluations gathers two (E, d)
    blocks, subtracts and reduces them, 8 E d doubles.  Cache reuse is ignored.
    """

    def count(args, kwargs, result):
        t_len, d = np.shape(args[0] if args else kwargs["stream"])
        return {"bytes_computed": 8 * d * (5 * t_len + 24 * len(result.clocks))}

    return count


def _csv_volume(fn):
    def count(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        return {"rows": int(result.shape[0]), "bytes": os.path.getsize(path)}

    return count


def _replications(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"replications": int(bound.arguments["replications"])}

    return count


# Work counters recorded at the same boundaries as the spans:
# span name -> (counter factory, the counter fields it reports).
COUNTERS = {
    "detector.step": (_events, ("events",)),
    "detector.detect_stream": (_events, ("events",)),
    "windows.sliding_spanning_stats": (_spanning_bytes, ("bytes_computed",)),
    "cli.read_stream_csv": (_csv_volume, ("rows", "bytes")),
    "power.empirical_power": (_replications, ("replications",)),
}
COUNTER_NAMES = frozenset(
    f"{span}.{field}" for span, (_, fields) in COUNTERS.items() for field in fields
)


@dataclass
class SpanTotals:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def begin_request(self) -> None:
        """Start a new benchmark operation; later spans carry its id."""
        self.request += 1

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS
        ]
        for layer, paths in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for path in paths:
                name = span_name(layer, path)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._replace(owner, attr, raw, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, key, original, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS[name][0](fn) if name in COUNTERS else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append(
                    (frame[0], parent, self.request, name, start, end, duration - frame[1])
                )
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        return traced

    def totals(self) -> dict[str, SpanTotals]:
        out: dict[str, SpanTotals] = defaultdict(SpanTotals)
        for _, _, _, name, start, end, self_ns in self.spans:
            t = out[name]
            t.calls += 1
            t.busy_ns += end - start
            t.self_ns += self_ns
        return out

    def write(self, path: str, header: str) -> None:
        """Dump every span as tab-separated values, one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("span\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def layer_metric(name: str, totals: dict[str, SpanTotals], counters) -> float:
    """Resolve a per-layer metric name to its value.

    ``<span>.calls|busy_s|self_s`` come from span totals, ``<layer>.self_s``
    sums the self time of the layer's spans, and any other name must be a
    declared work counter.  Spans or counters that never fired read 0.
    """
    base, _, field = name.rpartition(".")
    if base in LAYERS and field == "self_s":
        return sum(t.self_ns for n, t in totals.items() if n.startswith(base + ".")) / 1e9
    if base in SPAN_NAMES and field in ("calls", "busy_s", "self_s"):
        t = totals.get(base, SpanTotals())
        if field == "calls":
            return t.calls
        return (t.busy_ns if field == "busy_s" else t.self_ns) / 1e9
    if name in COUNTER_NAMES:
        return counters.get(name, 0)
    raise KeyError(f"unknown per-layer metric {name!r}")
