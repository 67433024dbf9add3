"""The benchmark's traced callables exist in the package and are called.

``perfbench/tracing.py`` names each callable it wraps by an attribute path in
a package module.  A refactor that renames or drops one of them, or stops
routing work through it, would otherwise only show when the benchmark runs
with ``--trace 1``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
from oracles import replication_overlap

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves():
    tracing = _load_tracing()
    unresolved = []
    for layer, paths in tracing.TRACED.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for path in paths:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            # The tracer replaces a method in its own class's namespace.
            target = vars(owner).get(attr) if owner is not None else None
            if not callable(getattr(target, "__func__", target)):
                unresolved.append(f"{layer}.{path}")
    assert not unresolved, f"traced callables missing from the package: {unresolved}"


def test_both_detection_paths_report_under_their_traced_names():
    # the per-layer metrics of the online and batch paths must stay non-zero
    tracing = _load_tracing()
    detector = importlib.import_module(f"{tracing.PACKAGE}.detector")
    stream = np.random.default_rng(3).normal(size=(40, 2))
    config = detector.DetectorConfig(windows=(4, 6), policy="continue")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        online = detector.Detector(config, 2)
        for row in stream:
            online.step(row)
        detector.detect_stream(stream, config)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    spans = (
        "windows.slide",
        "windows.decompose",
        "ratios.compute_gsr",
        "detector.step",
        "windows.sliding_spanning_stats",
        "detector.detect_stream",
    )
    silent = [s for s in spans if not tracing.layer_metric(f"{s}.calls", totals, tracer.counters)]
    assert not silent, f"traced callables never called: {silent}"


def test_each_step_slides_one_window_and_tests_each_decomposed_window():
    # one window serves every length: one slide per step, one ratio pass per decomposition
    tracing = _load_tracing()
    detector = importlib.import_module(f"{tracing.PACKAGE}.detector")
    stream = np.random.default_rng(5).normal(size=(40, 2))
    config = detector.DetectorConfig(windows=(4, 6, 9), policy="continue")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        online = detector.Detector(config, 2)
        for row in stream:
            online.step(row)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    calls = {
        name: tracing.layer_metric(f"{name}.calls", totals, tracer.counters)
        for name in ("windows.slide", "detector.step", "windows.decompose", "ratios.compute_gsr")
    }
    assert calls["windows.slide"] == calls["detector.step"] == 40
    # warm windows of 4, 6 and 9 from ticks 8, 12 and 18 on
    assert calls["windows.decompose"] == calls["ratios.compute_gsr"] == 33 + 29 + 23


def test_detect_stream_scans_every_window_in_one_traced_call():
    # one kernel pass serves every window length, and reports once per scan
    tracing = _load_tracing()
    detector = importlib.import_module(f"{tracing.PACKAGE}.detector")
    stream = np.random.default_rng(4).normal(size=(40, 2))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        detector.detect_stream(stream, detector.DetectorConfig(windows=(4, 6), policy="continue"))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert tracing.layer_metric("windows.sliding_spanning_stats.calls", totals, tracer.counters) == 1


def test_calibrate_study_reports_under_its_traced_names():
    # calibrate-study's calibration, online study and power phases each keep their metrics
    tracing = _load_tracing()
    package = tracing.PACKAGE
    calibration = importlib.import_module(f"{package}.calibration")
    detector = importlib.import_module(f"{package}.detector")
    power = importlib.import_module(f"{package}.power")
    simulate = importlib.import_module(f"{package}.simulate")
    lengths = (5, 8)
    config = calibration.CalibrationConfig(
        window_lengths=lengths,
        dimension=4,
        alphas=detector.allocate_alphas(0.06, lengths),
        zone_length=50,
        replications=200,
        seed=11,
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()
        table = calibration.calibrate_monte_carlo(config)
        simulate.run_online_power(
            4, windows=lengths, samples=200, seed=11, thresholds=table,
            stream_length=50, change_position=25,
        )
        power.empirical_power(5, 4, 0.05, 0.5, replications=100, seed=11)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    spans = (
        "calibration.calibration_maxima",
        "windows.sliding_spanning_stats",
        "detector.detect_stream",
        "power.empirical_power",
    )
    silent = [s for s in spans if not tracing.layer_metric(f"{s}.calls", totals, tracer.counters)]
    assert not silent, f"traced callables never called: {silent}"


def test_spans_of_the_helper_thread_nest_under_calibration_maxima():
    # the overlapped replication loop draws on a helper thread while the calling
    # thread, inside calibration_maxima, makes no traced call; spans stay a tree
    tracing = _load_tracing()
    calibration = importlib.import_module(f"{tracing.PACKAGE}.calibration")
    detector = importlib.import_module(f"{tracing.PACKAGE}.detector")
    lengths = (20, 35, 50)
    config = calibration.CalibrationConfig(
        window_lengths=lengths,
        dimension=100,
        alphas=detector.allocate_alphas(0.06, lengths),
        zone_length=100,
        replications=150,
        seed=7,
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with replication_overlap(True):
            calibration.calibrate_monte_carlo(config)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    calls = tracing.layer_metric("distributions.derived_rng.calls", totals, tracer.counters)
    assert calls == config.replications
    names = {span: name for span, _, _, name, *_ in tracer.spans}
    assert all(self_ns >= 0 for *_, self_ns in tracer.spans)
    assert all(parent == 0 or parent in names for _, parent, *_ in tracer.spans)
    parents = {names[parent] for _, parent, _, name, *_ in tracer.spans if name.endswith("derived_rng")}
    assert parents == {"calibration.calibration_maxima"}
