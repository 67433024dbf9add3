"""The benchmark workloads: seeded inputs, timed operations, correctness checks.

Each workload makes the package calls of its set-up in :meth:`setup`, runs an
untimed warm-up, then timed operations (:meth:`run`), and finally checks every
operation's output against a reference it computes itself (:meth:`check`).
All workloads are closed loops with one caller: the next operation starts when
the previous one returned.

Every set-up repetition and every operation gets inputs of its own, derived
from the seed and its index (a set-up variant, a stream, a cycle), so a result
cache inside the package cannot pass for a speed-up.  The check regenerates
each input from its index.

A workload instance drives one :class:`Implementation` of the package: the
code under test (``gsrdetect``) or the frozen seed copy (``seed_gsrdetect``)
that the runner times alongside it as a speed reference.  The two instances
run the same variants and operation indices in lockstep; ``shared`` holds
inputs that are generated once for both (the scan stream, the CLI's CSV).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import ModuleType

import numpy as np
from scipy.spatial.distance import pdist

from gsrdetect import windows
from gsrdetect.ratios import StatKind

WINDOWS = (20, 35, 50)
ALPHA_TOTAL = 0.06
DETECT_HORIZON = 2 * max(WINDOWS)
REL_TOL = 1e-9
# Benchmark inputs come from numpy generators keyed (seed, INPUT_STREAM, kind,
# i): keys that no package draw uses, so a stream never repeats a calibration
# replication (which would tie its maximum statistic with a threshold).
INPUT_STREAM = 0xBE4C
ONLINE_STREAMS, SCAN_STREAMS, SCAN_TICKS, CLI_STREAMS, SETUP_VARIANTS = range(1, 6)
# Input index of the traced run's operations, so its counts repeat for a seed.
TRACE_INPUT = 1_000_000


def input_rng(seed: int, kind: int, i: int) -> np.random.Generator:
    return np.random.default_rng((seed, INPUT_STREAM, kind, i))


def variant_seed(seed: int, index: int) -> int:
    """Package seed for set-up variant or cycle ``index``; distinct per (seed, index)."""
    return seed * 10_000 + index


def variant_alpha(seed: int, variant: int, alpha: float) -> float:
    """A level within 10% of ``alpha``, different for each set-up variant."""
    return alpha * (0.9 + 0.2 * input_rng(seed, SETUP_VARIANTS, variant).random())


@dataclass(frozen=True)
class Implementation:
    """The package modules a workload calls."""

    package: str
    calibration: ModuleType
    cli: ModuleType
    detector: ModuleType
    distributions: ModuleType
    power: ModuleType
    simulate: ModuleType

    @classmethod
    def load(cls, package: str) -> "Implementation":
        modules = {
            f.name: importlib.import_module(f"{package}.{f.name}")
            for f in fields(cls)
            if f.name != "package"
        }
        return cls(package=package, **modules)


_KIND_OF_EVENT = {
    "MeanChange": StatKind.MU,
    "VarianceIncrease": StatKind.SIGMA_PLUS,
    "VarianceDecrease": StatKind.SIGMA_MINUS,
}


@dataclass
class Segment:
    """Latencies (ns) of the operations of one timed stretch and the items they did."""

    latencies_ns: list[int] = field(default_factory=list)
    items: int = 0
    phases_ns: list[tuple[int, int]] = field(default_factory=list)  # (phase, ns)

    @property
    def phase(self) -> int:
        """The phase of a one-phase segment (0 for workloads without phases)."""
        return self.phases_ns[0][0] if self.phases_ns else 0

    def extend(self, other: "Segment") -> None:
        self.latencies_ns += other.latencies_ns
        self.items += other.items
        self.phases_ns += other.phases_ns


def planted_stream(rng, length, dim, segment, mean_shift, scale, out=None):
    """Gaussian stream with a change every ``segment`` observations.

    The regime cycles through (mean 0, sd 1), (mean m, sd 1), (mean m, sd
    ``scale``), (mean m, sd 1): a mean shift, a variance increase, a variance
    decrease and a mean shift back, where m has ``mean_shift`` in every
    coordinate with a random sign.  Returns the (length, dim) stream, written
    into ``out`` when given, and the 1-based positions of the first
    post-change observations.
    """
    y = rng.standard_normal((length, dim)) if out is None else rng.standard_normal(out=out)
    direction = rng.choice([-1.0, 1.0], size=dim) * mean_shift
    for start in range(0, length, segment):
        state = (start // segment) % 4
        block = y[start : start + segment]
        if state == 2:
            block *= scale
        if state > 0:
            block += direction
    changes = list(range(segment + 1, length + 1, segment))
    return y, changes


def fingerprint(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(memoryview(part) if isinstance(part, np.ndarray) else repr(part).encode())
    return digest.hexdigest()[:16]


def same_events(got, want) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if (a.detected_at, a.change_at, a.kind, a.window, a.threshold) != (
            b.detected_at,
            b.change_at,
            b.kind,
            b.window,
            b.threshold,
        ):
            return False
        if not math.isclose(a.statistic, b.statistic, rel_tol=REL_TOL):
            return False
    return True


def _by_tick(events):
    ticks: dict[int, list] = {}
    for e in events:
        ticks.setdefault(e.detected_at, []).append(e)
    return ticks


def mismatched_ticks(got, want) -> int:
    """Number of clock ticks whose events differ between two event lists."""
    g, w = _by_tick(got), _by_tick(want)
    return sum(1 for t in set(g) | set(w) if not same_events(g.get(t, []), w.get(t, [])))


def missed_changes(events, changes, consumed, cooldown) -> int:
    """Planted changes not reported within DETECT_HORIZON steps of their onset.

    A change that begins while the detector is cooling down after an earlier
    event (one within ``cooldown`` steps before the onset) is hidden by the
    policy itself and is not counted.
    """
    ticks = sorted(e.detected_at for e in events)
    missed = 0
    for c in changes:
        if c + DETECT_HORIZON > consumed:
            break
        i = np.searchsorted(ticks, c)
        if i > 0 and ticks[i - 1] >= c - cooldown:
            continue
        if i == len(ticks) or ticks[i] > c + DETECT_HORIZON:
            missed += 1
    return missed


def pairwise_spanning(block: np.ndarray) -> float:
    """Spanning distance by enumerating every unordered pair of rows."""
    return float(pdist(block, "sqeuclidean").sum())


def pairwise_ratio(window: np.ndarray, kind: StatKind) -> float:
    n = window.shape[0] // 2
    w_l, w_r = pairwise_spanning(window[:n]), pairwise_spanning(window[n:])
    if kind is StatKind.MU:
        return pairwise_spanning(window) / (w_l + w_r)
    if kind is StatKind.SIGMA_PLUS:
        return w_r / w_l
    return w_l / w_r


def package_ratios(window: np.ndarray, n: int) -> dict[StatKind, float]:
    """The package's prefix-sum ratios of a single 2n-row window."""
    s = windows.sliding_spanning_stats(window, n)
    w_l, w_r, w_f = float(s.w_left[0]), float(s.w_right[0]), float(s.w_full[0])
    return {
        StatKind.MU: w_f / (w_l + w_r),
        StatKind.SIGMA_PLUS: w_r / w_l,
        StatKind.SIGMA_MINUS: w_l / w_r,
    }


def _timed(call):
    t0 = time.perf_counter_ns()
    out = call()
    return out, time.perf_counter_ns() - t0


class Workload:
    name = ""
    item = ""  # what throughput counts
    throughput_name = ""  # the workload's own name for throughput_per_s
    callers = 1
    CHUNK_OPS = 1  # operations per turn when two implementations alternate
    PHASES: tuple[str, ...] = ()  # names of the phases operations cycle through
    # Median seconds of the seed copy's set-up package calls on the 2-core
    # host (300 MiB L3) this benchmark was written on; setup_s reports the
    # code under test's set-up in these units (see run.py).
    SEED_SETUP_S = 0.0

    def __init__(self, seed: int, out_dir: Path, impl: Implementation, shared: dict | None = None):
        self.seed = seed
        self.out_dir = out_dir
        self.impl = impl
        self.shared = {} if shared is None else shared
        self.results: list = []  # per operation, for check(); kept across set-ups
        self.next_input = 0  # index of the next operation's input; kept across set-ups
        self.digest = ""  # fingerprint of input 0, set by check()

    def setup(self, variant: int) -> None:
        """The package calls of set-up, on the inputs of set-up ``variant``."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed harness work after the last set-up (files the program reads)."""

    def warmup(self) -> None:
        self.run(1)

    def run(self, ops: int, on_op=None) -> Segment:
        """Run and time ``ops`` operations; ``on_op`` fires before each."""
        raise NotImplementedError

    def traced_run(self, on_op) -> Segment:
        """The fixed amount of work the traced run measures, on fixed inputs."""
        self.next_input = TRACE_INPUT
        return self.run(1, on_op)

    def check(self) -> tuple[int, int]:
        """(operations attempted, operations whose output failed a check)."""
        raise NotImplementedError

    def throughput(self, segment: Segment) -> float:
        """Items per second of operation time."""
        return segment.items / (sum(segment.latencies_ns) / 1e9)

    def extra_metrics(self, segment: Segment) -> dict[str, tuple[float, str, str]]:
        """Ungated workload-specific metrics: name -> (value, unit, better)."""
        return {}


class OnlineMonitor(Workload):
    """d=8 streams fed one observation at a time into ``Detector.step``."""

    name = "online-monitor"
    item = "observation"
    throughput_name = "online_obs_per_s"
    CHUNK_OPS = 1000
    SEED_SETUP_S = 0.75
    DIM = 8
    LENGTH = 20_000
    SEGMENT = 2_000

    def setup(self, variant):
        self._close_pass()
        calibration, detector = self.impl.calibration, self.impl.detector
        self.table = calibration.calibrate_monte_carlo(
            calibration.CalibrationConfig(
                window_lengths=WINDOWS,
                dimension=self.DIM,
                alphas=detector.allocate_alphas(ALPHA_TOTAL, WINDOWS),
                zone_length=100,
                replications=2000,
                seed=variant_seed(self.seed, variant),
            )
        )
        self.config = detector.DetectorConfig(
            windows=WINDOWS, alpha_total=ALPHA_TOTAL, policy="cooldown"
        )

    def _stream(self, k):
        return planted_stream(
            input_rng(self.seed, ONLINE_STREAMS, k),
            self.LENGTH, self.DIM, self.SEGMENT, mean_shift=2.0, scale=3.0,
        )

    def warmup(self):
        # A whole stream, so peak RSS covers a detector's lifetime.
        self.run(self.LENGTH)

    def traced_run(self, on_op):
        self._close_pass()
        self.next_input = TRACE_INPUT
        return self.run(self.LENGTH, on_op)

    def run(self, ops, on_op=None):
        """Feed observations one at a time; a stream continues across calls.

        Stream k of LENGTH observations goes through a fresh detector.
        """
        seg = Segment()
        clock = time.perf_counter_ns
        latencies = seg.latencies_ns
        while seg.items < ops:
            if self._pass is None:
                k = self.next_input
                self.next_input += 1
                det = self.impl.detector.Detector(self.config, self.DIM, self.table)
                self._pass = (k, self._stream(k)[0], det, 0, [])
            k, stream, det, start, events = self._pass
            end = min(start + ops - seg.items, self.LENGTH)
            step = det.step
            for y in stream[start:end]:
                if on_op is not None:
                    on_op()
                t0 = clock()
                got = step(y)
                latencies.append(clock() - t0)
                if got:
                    events.extend(got)
            seg.items += end - start
            self._pass = (k, stream, det, end, events)
            if end == self.LENGTH:
                self._close_pass()
        return seg

    _pass = None  # (stream index, stream, detector, observations consumed, events)

    def _close_pass(self):
        if self._pass is not None:
            k, _, _, consumed, events = self._pass
            self.results.append((k, consumed, events))
            self._pass = None

    def check(self):
        self._close_pass()
        attempted = failed = 0
        cooldown = self.config.resolved_cooldown()
        for k, consumed, events in self.results:
            stream, changes = self._stream(k)
            if k == 0:
                entries = [(e.kind.value, e.n, e.rho) for e in self.table.entries]
                self.digest = fingerprint(stream, entries)
            reference = self.impl.detector.detect_stream(stream[:consumed], self.config, self.table)
            failed += mismatched_ticks(events, reference)
            failed += missed_changes(events, changes, consumed, cooldown)
            attempted += consumed
        return attempted, min(failed, attempted)

    def extra_metrics(self, seg):
        lat_us = np.asarray(seg.latencies_ns) / 1e3
        return {
            "step_p50_us": (float(np.percentile(lat_us, 50)), "us", "lower"),
            "step_p99_us": (float(np.percentile(lat_us, 99)), "us", "lower"),
        }


class ScanHighDim(Workload):
    """``detect_stream`` over long in-memory d=100 streams (~100 MB of float64 each)."""

    name = "scan-highdim"
    item = "observation"
    throughput_name = "scan_obs_per_s"
    SEED_SETUP_S = 0.0011
    DIM = 100
    LENGTH = 128_000
    SEGMENT = 2_000
    SAMPLED_TICKS = 64

    def setup(self, variant):
        detector = self.impl.detector
        self.config = detector.DetectorConfig(
            windows=WINDOWS,
            alpha_total=variant_alpha(self.seed, variant, ALPHA_TOTAL),
            policy="cooldown",
        )
        self.table = self.impl.calibration.analytic_table(
            WINDOWS, self.DIM, self.config.resolved_alphas()
        )

    def _stream(self, k):
        """Stream k, written into the one buffer both implementations share."""
        if self.shared.get("k") != k:
            self.shared["k"] = None
            self.shared["y"], _ = planted_stream(
                input_rng(self.seed, SCAN_STREAMS, k),
                self.LENGTH, self.DIM, self.SEGMENT, mean_shift=0.5, scale=2.0,
                out=self.shared.get("y"),
            )
            self.shared["k"] = k
        return self.shared["y"]

    @property
    def array_bytes(self) -> int:
        return self.LENGTH * self.DIM * 8

    def run(self, ops, on_op=None):
        seg = Segment()
        detect_stream = self.impl.detector.detect_stream
        for _ in range(ops):
            k = self.next_input
            self.next_input += 1
            y = self._stream(k)
            if on_op is not None:
                on_op()
            events, dt = _timed(lambda: detect_stream(y, self.config, self.table))
            seg.latencies_ns.append(dt)
            seg.items += self.LENGTH
            self.results.append((k, events))
        return seg

    def _verify(self, k, y, events) -> bool:
        """Recompute ratios by pairwise enumeration at every event and at sampled quiet ticks."""
        for e in events:
            kind = _KIND_OF_EVENT[e.kind]
            n, t = e.window, e.detected_at
            if e.change_at != t - n + 1 or e.threshold != self.table.threshold(kind, n):
                return False
            ratio = pairwise_ratio(y[t - 2 * n : t], kind)
            if not math.isclose(ratio, e.statistic, rel_tol=REL_TOL) or ratio < e.threshold:
                return False

        # Ticks the detector tested (not an event tick, not inside a cooldown).
        cooldown = self.config.resolved_cooldown()
        tested = np.ones(self.LENGTH + 1, dtype=bool)
        tested[: 2 * min(WINDOWS)] = False
        for t in sorted({e.detected_at for e in events}):
            tested[t : t + cooldown + 1] = False
        candidates = np.flatnonzero(tested)
        rng = input_rng(self.seed, SCAN_TICKS, k)
        for t in rng.choice(candidates, size=min(self.SAMPLED_TICKS, candidates.size), replace=False):
            t = int(t)
            for n in WINDOWS:
                if t < 2 * n:
                    continue
                window = y[t - 2 * n : t]
                stats = package_ratios(window, n)
                for kind in StatKind:
                    ratio = pairwise_ratio(window, kind)
                    rho = self.table.threshold(kind, n)
                    if not math.isclose(ratio, stats[kind], rel_tol=REL_TOL):
                        return False
                    if ratio >= rho or stats[kind] >= rho:
                        return False
        return True

    def check(self):
        failed = 0
        for k, events in self.results:
            y = self._stream(k)
            if k == 0:
                self.digest = fingerprint(y)
            failed += not self._verify(k, y, events)
        return len(self.results), failed


class CalibrateStudy(Workload):
    """Monte Carlo calibration at d=100, the online power study, then empirical power.

    One operation is one phase; a cycle runs the three phases in order, the
    study using the table the cycle calibrated.  Cycle c draws from seeds of
    its own.  Throughput counts simulated samples: calibration replications,
    study streams and power replications.
    """

    name = "calibrate-study"
    item = "simulated sample"
    throughput_name = "study_samples_per_s"
    PHASES = ("calibrate", "study", "power")
    SEED_SETUP_S = 0.0019
    DIM = 100
    REPLICATIONS = 2000
    ZONE = 100
    STREAMS = 1000
    POWER_ALPHA = 0.05
    POWER_REPLICATIONS = 3000
    POWER_GRID = [(n, d) for n in (10, 20, 30) for d in (1, 5, 10)]
    POWER_BETAS = (0.1, 0.3)

    def setup(self, variant):
        calibration, detector, power = self.impl.calibration, self.impl.detector, self.impl.power
        self.alphas = detector.allocate_alphas(ALPHA_TOTAL, WINDOWS)
        self._cal_config(variant_seed(self.seed, variant)).validate()
        self.power_alpha = variant_alpha(self.seed, variant, self.POWER_ALPHA)
        self.power_cells = []
        for beta in self.POWER_BETAS:
            for n, d in self.POWER_GRID:
                query = power.PowerQuery(n=n, d=d, alpha=self.power_alpha, beta=beta)
                target = power.delta_mu(query)
                self.power_cells.append((n, d, beta, power.shift_for_residual(n, d, target)))
        self._open = None  # [cycle, outputs of its finished phases], also held in results

    def _cal_config(self, seed):
        return self.impl.calibration.CalibrationConfig(
            window_lengths=WINDOWS,
            dimension=self.DIM,
            alphas=self.alphas,
            zone_length=self.ZONE,
            replications=self.REPLICATIONS,
            seed=seed,
        )

    @property
    def phase_items(self) -> tuple[int, int, int]:
        return (self.REPLICATIONS, self.STREAMS, self.POWER_REPLICATIONS * len(self.power_cells))

    def warmup(self):
        self.run(3)

    def throughput(self, segment):
        """Items of a cycle over the time of a cycle, from each phase's mean operation time.

        Comparable between segments that hold different numbers of each phase.
        """
        times: dict[int, list[int]] = {}
        for phase, dt in segment.phases_ns:
            times.setdefault(phase, []).append(dt)
        items = sum(self.phase_items[p] for p in times)
        return items / (sum(sum(t) / len(t) for t in times.values()) / 1e9)

    def traced_run(self, on_op):
        self._open = None
        self.next_input = TRACE_INPUT
        return self.run(3, on_op)

    def run(self, ops, on_op=None):
        seg = Segment()
        for _ in range(ops):
            if self._open is None:
                self._open = [self.next_input, []]
                self.next_input += 1
                self.results.append(self._open)
            cycle, outputs = self._open
            phase = len(outputs)
            if on_op is not None:
                on_op()
            seed = variant_seed(self.seed, cycle)
            out, dt = _timed(lambda: self._run_phase(phase, seed, outputs))
            seg.latencies_ns.append(dt)
            seg.items += self.phase_items[phase]
            seg.phases_ns.append((phase, dt))
            outputs.append(out)
            if len(outputs) == len(self.PHASES):
                self._open = None
        return seg

    def _run_phase(self, phase: int, seed: int, outputs: list):
        if phase == 0:
            return self.impl.calibration.calibrate_monte_carlo(self._cal_config(seed))
        if phase == 1:
            return self.impl.simulate.run_online_power(
                self.DIM,
                windows=WINDOWS,
                change="mean",
                samples=self.STREAMS,
                alpha_total=ALPHA_TOTAL,
                seed=seed,
                thresholds=outputs[0],
                stream_length=self.ZONE,
            )
        return [
            self.impl.power.empirical_power(
                n, d, self.power_alpha, shift,
                replications=self.POWER_REPLICATIONS, seed=seed * 1000 + n + d,
            )
            for n, d, _, shift in self.power_cells
        ]

    def _reference_maxima(self, seed) -> dict[tuple[StatKind, int], np.ndarray]:
        """Zone maxima from the benchmark's own prefix sums over derived_rng(seed, k)."""
        k_reps, zone, d = self.REPLICATIONS, self.ZONE, self.DIM
        derived_rng = self.impl.distributions.derived_rng
        maxima = {(kind, n): np.empty(k_reps) for kind in StatKind for n in WINDOWS}
        batch = 250
        for lo in range(0, k_reps, batch):
            ks = range(lo, min(lo + batch, k_reps))
            y = np.stack([derived_rng(seed, k).standard_normal((zone, d)) for k in ks])
            s1 = np.zeros((len(ks), zone + 1, d))
            np.cumsum(y, axis=1, out=s1[:, 1:])
            s2 = np.zeros((len(ks), zone + 1))
            np.cumsum((y * y).sum(axis=2), axis=1, out=s2[:, 1:])
            for n in WINDOWS:
                ends = np.arange(2 * n, zone + 1)

                def seg(a, b, m):
                    ds = s1[:, b] - s1[:, a]
                    return m * (s2[:, b] - s2[:, a]) - (ds * ds).sum(axis=2)

                w_l = seg(ends - 2 * n, ends - n, n)
                w_r = seg(ends - n, ends, n)
                w_f = seg(ends - 2 * n, ends, 2 * n)
                maxima[(StatKind.MU, n)][lo : lo + len(ks)] = (w_f / (w_l + w_r)).max(axis=1)
                maxima[(StatKind.SIGMA_PLUS, n)][lo : lo + len(ks)] = (w_r / w_l).max(axis=1)
                maxima[(StatKind.SIGMA_MINUS, n)][lo : lo + len(ks)] = (w_l / w_r).max(axis=1)
        return maxima

    def _verify_table(self, table, seed) -> bool:
        maxima = self._reference_maxima(seed)
        for e in table.entries:
            order = np.sort(maxima[(e.kind, e.n)])
            k = math.ceil((1.0 - e.alpha) * self.REPLICATIONS - 1e-9)
            if not math.isclose(e.rho, order[k - 1], rel_tol=REL_TOL):
                return False
        return True

    def _verify_report(self, report) -> bool:
        negatives = report.fp + report.tn
        if negatives == 0:
            return False
        se = math.sqrt(ALPHA_TOTAL * (1 - ALPHA_TOTAL) / negatives)
        return report.fpr <= ALPHA_TOTAL + 3 * se

    def _verify_powers(self, powers) -> bool:
        for (_, _, beta, _), p in zip(self.power_cells, powers):
            se = math.sqrt(max(p * (1 - p), 1e-6) / self.POWER_REPLICATIONS)
            if p < 1 - beta - 3 * se:
                return False
        return True

    def check(self):
        """Each phase output is one operation, checked against its own cycle's seeds."""
        attempted = failed = 0
        for cycle, outputs in self.results:
            seed = variant_seed(self.seed, cycle)
            if cycle == 0:
                self.digest = fingerprint(self._cal_config(seed), self.STREAMS, self.power_cells)
            for phase, out in enumerate(outputs):
                if phase == 0:
                    ok = self._verify_table(out, seed)
                elif phase == 1:
                    ok = self._verify_report(out)
                else:
                    ok = self._verify_powers(out)
                attempted += 1
                failed += not ok
        return attempted, failed

    def extra_metrics(self, seg):
        rates = {}
        for phase, name in enumerate(
            ("calibrate_reps_per_s", "study_streams_per_s", "power_reps_per_s")
        ):
            times = [dt for p, dt in seg.phases_ns if p == phase]
            if times:
                rate = len(times) * self.phase_items[phase] / (sum(times) / 1e9)
                rates[name] = (rate, "1/s", "higher")
        return rates


class CliDetect(Workload):
    """``cli.main(["detect", ...])`` in-process on timestamped d=8 CSV files."""

    name = "cli-detect"
    item = "CSV row"
    throughput_name = "cli_rows_per_s"
    SEED_SETUP_S = 0.0013
    DIM = 8
    ROWS = 20_000
    SEGMENT = 400

    def setup(self, variant):
        calibration, detector = self.impl.calibration, self.impl.detector
        alpha = variant_alpha(self.seed, variant, ALPHA_TOTAL)
        self.config = detector.DetectorConfig(windows=WINDOWS, alpha_total=alpha, policy="cooldown")
        self.table = calibration.analytic_table(
            WINDOWS, self.DIM, detector.allocate_alphas(alpha, WINDOWS)
        )
        self.table_json = self.table.to_json()

    def prepare(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        prefix = f"cli-detect-{self.impl.package}"
        self.table_path = self.out_dir / f"{prefix}-thresholds.json"
        self.events_path = self.out_dir / f"{prefix}-events.jsonl"
        self.table_path.write_text(self.table_json, encoding="utf-8")

    def _data(self, k):
        return planted_stream(
            input_rng(self.seed, CLI_STREAMS, k),
            self.ROWS, self.DIM, self.SEGMENT, mean_shift=2.0, scale=3.0,
        )[0]

    def _csv(self, k) -> Path:
        """CSV file k (header, ISO-8601 timestamps, DIM columns), shared by both implementations."""
        path = self.out_dir / "cli-detect-input.csv"
        if self.shared.get("k") != k:
            self.shared["k"] = None
            stamps = np.datetime_as_string(
                np.datetime64("2026-01-01T00:00:00") + np.arange(self.ROWS).astype("timedelta64[s]")
            )
            row = "%s," + ",".join(["%r"] * self.DIM)
            lines = [",".join(["timestamp"] + [f"x{j + 1}" for j in range(self.DIM)])]
            lines.extend(row % (s, *r) for s, r in zip(stamps.tolist(), self._data(k).tolist()))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.shared["k"] = k
        return path

    def run(self, ops, on_op=None):
        seg = Segment()
        for _ in range(ops):
            k = self.next_input
            self.next_input += 1
            argv = [
                "detect",
                "--input", str(self._csv(k)),
                "--thresholds", str(self.table_path),
                "--policy", "cooldown",
                "--out", str(self.events_path),
            ]
            if on_op is not None:
                on_op()
            with contextlib.redirect_stdout(io.StringIO()):
                code, dt = _timed(lambda: self.impl.cli.main(argv))
            seg.latencies_ns.append(dt)
            seg.items += self.ROWS
            self.results.append((k, code, self.events_path.read_text(encoding="utf-8")))
        return seg

    def traced_run(self, on_op):
        self.next_input = TRACE_INPUT
        return self.run(5, on_op)

    def check(self):
        detector = self.impl.detector
        failed = 0
        for k, code, text in self.results:
            data = self._data(k)
            if k == 0:
                self.digest = fingerprint(data, self.table_json)
            reference = detector.detect_stream(data, self.config, self.table)
            failed += code != 0 or not same_events(detector.events_from_jsonl(text), reference)
        return len(self.results), failed


WORKLOADS = {w.name: w for w in (OnlineMonitor, ScanHighDim, CalibrateStudy, CliDetect)}
