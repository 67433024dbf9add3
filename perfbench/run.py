#!/usr/bin/env python3
"""gsrdetect benchmark runner.

Run one workload in this process:

    python3 perfbench/run.py --workload online-monitor --seed 1 --trace 0

Without ``--workload`` every workload runs, each in a fresh process.  The
package is imported from ``src/`` next to this directory, never from an
installed copy.  Lines starting with ``#`` describe the run (workload, seed,
input fingerprint, environment, workload-named metrics); the last line of
standard output is the JSON result.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics: the run is
measured untraced, then the layers are wrapped and a fixed amount of work is
traced; the spans are written to ``.bench_out/`` when the run ends.

Set-up and the timed stretch alternate the code under test with
``seed_gsrdetect``, a frozen copy of the package kept beside this file, in
A-B-B-A order, so both run under the same conditions of a shared host whose
speed drifts.  ``throughput_vs_seed`` is the ratio of their throughputs;
``setup_s`` is the ratio of their set-up times, in seconds of the seed copy's
set-up on the host the benchmark was written on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("online-monitor", "scan-highdim", "calibrate-study", "cli-detect")

# Thread caps for BLAS and OpenMP pools, set before numpy is imported.  One
# thread (at most nproc) keeps runs steady on a shared machine.
THREAD_CAP = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Each implementation sets up at least this often, and more while the set-ups
# of both have taken under two seconds.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 200
SETUP_MIN_SECONDS = 2.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None, help="timed stretch (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    return args


def _import_package():
    """Import gsrdetect from this checkout's src/, or exit with an error."""
    if not (SRC / "gsrdetect" / "__init__.py").is_file():
        sys.exit(f"error: package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gsrdetect

    if Path(gsrdetect.__file__).resolve().parent != SRC / "gsrdetect":
        sys.exit(f"error: imported gsrdetect from {gsrdetect.__file__}, not {SRC}")


def _llc_bytes() -> int | None:
    """Size of the largest cache level of cpu0, from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in base.glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
        size = int(text.rstrip("KM")) * scale
        if best is None or level > best[0]:
            best = (level, size)
    return best[1] if best else None


def _environment(workload) -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "llc_bytes": _llc_bytes(),
    }
    if hasattr(workload, "array_bytes"):
        env["input_array_bytes"] = workload.array_bytes
    return env


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(workload, variant) -> float:
    t0 = time.perf_counter()
    workload.setup(variant)
    return time.perf_counter() - t0


def _alternate_setups(current, baseline):
    """Both implementations set up in turns A-B-B-A, each pair on its own variant.

    Returns the code under test's set-up times, the per-pair ratios of its
    set-up time to the seed copy's, and the last variant (whose state is kept).
    """
    times, ratios = [], []
    spent = 0.0
    variant = -1
    while len(times) < SETUP_MIN_REPEATS or (
        spent < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        variant += 1
        order = (current, baseline) if variant % 2 == 0 else (baseline, current)
        took = {w: _timed_setup(w, variant) for w in order}
        times.append(took[current])
        ratios.append(took[current] / took[baseline])
        spent += sum(took.values())
    return times, ratios, variant


def _alternate(current, baseline, seconds: float):
    """Both implementations take turns A-B-B-A until the deadline.

    Each turn runs the same operations, on the same inputs, for both.  Returns
    the timed segment of each and, per turn, (phase, the code under test's
    operation time, the seed copy's operation time) in ns.
    """
    from workloads import Segment

    segments = {current: Segment(), baseline: Segment()}
    turns = []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while time.perf_counter_ns() < deadline:
        order = (current, baseline) if len(turns) % 2 == 0 else (baseline, current)
        turn = {w: w.run(w.CHUNK_OPS) for w in order}
        for workload, segment in turn.items():
            segments[workload].extend(segment)
        cur, ref = turn[current], turn[baseline]
        turns.append((cur.phase, sum(cur.latencies_ns), sum(ref.latencies_ns)))
    return segments[current], segments[baseline], turns


def _vs_seed(turns) -> tuple[float, dict[int, float]]:
    """Throughput of the code under test over the seed copy's, per phase and for a cycle.

    A phase's ratio is the median over its turns of seed time / current time
    (both did the same items).  The cycle's ratio weighs each phase by the seed
    copy's median time in it: the seed copy's cycle time over the time the
    code under test needs at its per-phase ratios.  A slowdown confined to one
    phase therefore lowers it in proportion to that phase's share of the cycle.
    """
    phases = sorted({p for p, _, _ in turns})
    ratio, seed_ns = {}, {}
    for p in phases:
        ratio[p] = statistics.median(ref / cur for q, cur, ref in turns if q == p)
        seed_ns[p] = statistics.median(ref for q, _, ref in turns if q == p)
    cycle = sum(seed_ns.values()) / sum(seed_ns[p] / ratio[p] for p in phases)
    return cycle, ratio


def _op_latency_ms(segment, q) -> float:
    import numpy as np

    return float(np.percentile(segment.latencies_ns, q)) / 1e6


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = _spec()
    from tracing import Tracer, layer_metric
    from workloads import WORKLOADS, Implementation

    cls = WORKLOADS[name]
    workload = cls(seed, OUT_DIR, Implementation.load("gsrdetect"))
    baseline = cls(seed, OUT_DIR, Implementation.load("seed_gsrdetect"), shared=workload.shared)
    setup_times, setup_ratios, variant = _alternate_setups(workload, baseline)
    for w in (workload, baseline):
        w.prepare()
    workload.warmup()
    # Read before the seed copy's warm-up; its set-ups are already in it.
    peak_rss_mb = _peak_rss_mb()
    baseline.warmup()
    segment, seed_segment, turns = _alternate(workload, baseline, seconds)
    vs_seed, phase_vs_seed = _vs_seed(turns)
    setup_wall_s = statistics.median(setup_times)
    setup_vs_seed = statistics.median(setup_ratios)
    untraced = {
        "setup_s": cls.SEED_SETUP_S * setup_vs_seed,
        "throughput_per_s": workload.throughput(segment),
        "throughput_vs_seed": vs_seed,
        "peak_rss_mb": peak_rss_mb,
    }

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            # The last variant again, so the checked outputs keep their thresholds.
            traced_setup = _timed_setup(workload, variant)
            traced_segment = workload.traced_run(on_op=tracer.begin_request)
        finally:
            tracer.uninstall()
        overhead = {
            "setup_s": traced_setup - setup_wall_s,
            "throughput_per_s": workload.throughput(traced_segment) - untraced["throughput_per_s"],
        }

    attempted, failed = workload.check()

    env = _environment(workload)
    print(
        f"# workload {name} seed {seed} input {workload.digest} "
        f"closed loop, {workload.callers} caller; throughput counts {workload.item}s"
    )
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(
        f"# ops {len(segment.latencies_ns)} timed in {seconds:g} s over {len(turns)} turns, "
        f"{len(setup_times)} set-ups; checked {attempted}, failed {failed}"
    )
    units = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    units["throughput_per_s"] = ("1/s", "higher")
    named = {k: (float(v), *units[k]) for k, v in untraced.items()}
    named[workload.throughput_name] = named["throughput_per_s"]
    named["seed_throughput_per_s"] = (baseline.throughput(seed_segment), "1/s", "higher")
    for phase, ratio in phase_vs_seed.items():
        if workload.PHASES:
            named[f"{workload.PHASES[phase]}_vs_seed"] = (ratio, "x", "higher")
    named["setup_wall_s"] = (setup_wall_s, "s", "lower")
    named["setup_vs_seed"] = (setup_vs_seed, "x", "lower")
    named.update(workload.extra_metrics(segment))
    for q in (50, 99):
        named[f"op_p{q}_ms"] = (_op_latency_ms(segment, q), "ms", "lower")
    named["ops_failed_frac"] = (failed / attempted, "fraction", "lower")
    for key, (value, unit, better) in named.items():
        print(f"# metric {key} {value!r} {unit} ({better} is better)")

    if not trace:
        metrics = {
            m["name"]: {"value": untraced[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    else:
        totals = tracer.totals()
        metrics = {}
        for m in spec["per_layer"]:
            key = m["name"]
            if key.startswith("trace_overhead."):
                value = overhead[key.split(".", 1)[1]]
            else:
                value = layer_metric(key, totals, tracer.counters)
            metrics[key] = {"value": value, "unit": m["unit"]}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(
            str(OUT_DIR / f"trace-{name}-seed{seed}.tsv"),
            json.dumps({"workload": name, "seed": seed, "env": env}),
        )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload is None:
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status

    for var in THREAD_VARS:
        os.environ[var] = THREAD_CAP
    _import_package()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
