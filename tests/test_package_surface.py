"""The package's public surface: each name is declared once, in its own module.

``gsrdetect`` re-exports the ``__all__`` of each library module, so a name
added to a module's ``__all__`` is exported by the package, and a name missing
from it is not.  ``cli`` is reached as ``gsrdetect.cli`` and re-exports nothing.
"""

import importlib

import pytest

import gsrdetect

LIBRARY = ("calibration", "detector", "distributions", "power", "ratios", "simulate", "windows")

# The names the package exported while it listed them by hand; none may go.
EXPORTED_BEFORE = (
    "__version__",
    "CalibrationConfig", "CalibrationError", "ThresholdEntry", "ThresholdTable",
    "analytic_table", "analytic_threshold_mu", "analytic_threshold_sigma",
    "bootstrap_quantile_se", "calibrate_monte_carlo", "calibration_maxima",
    "empirical_upper_quantile",
    "DetectionEvent", "Detector", "DetectorConfig", "PooledStatistics", "allocate_alphas",
    "detect_stream", "events_from_jsonl", "events_to_jsonl",
    "ChiSquareParams", "FisherParams", "TailValue", "chi2_quantile_upper_bound",
    "chi2_upper_quantile", "derived_rng", "fisher_distribution", "fisher_upper_quantile",
    "gaussian_sample", "ks_statistic",
    "PowerQuery", "delta_mu", "delta_sigma", "empirical_power", "minimum_radius",
    "residual_noncentrality", "shift_for_residual",
    "GsrTriple", "StatKind", "compute_gsr", "effective_dof", "null_law_mu", "null_law_sigma",
    "sliding_gsr",
    "PowerReport", "Scenario", "classify_outcome", "run_online_power", "run_static_power",
    "static_power_grid",
    "ObservationWindow", "SlidingStats", "SpanningDecomposition", "sliding_spanning_stats",
    "spanning_distance",
)


def _module(name):
    return importlib.import_module(f"gsrdetect.{name}")


def test_package_all_is_its_modules_all_and_version():
    names = gsrdetect.__all__
    assert len(set(names)) == len(names)
    declared = [name for module in LIBRARY for name in _module(module).__all__]
    assert sorted(names) == sorted(declared + ["__version__"])


@pytest.mark.parametrize("module", LIBRARY)
def test_each_exported_name_is_its_modules_object(module):
    for name in _module(module).__all__:
        assert getattr(gsrdetect, name) is getattr(_module(module), name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gsrdetect import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gsrdetect.__all__)


@pytest.mark.parametrize("module", LIBRARY + ("cli",))
def test_every_declared_name_exists(module):
    missing = [name for name in _module(module).__all__ if not hasattr(_module(module), name)]
    assert missing == []


def test_cli_is_a_submodule_whose_names_are_not_re_exported():
    assert "cli" not in gsrdetect.__all__
    assert not set(_module("cli").__all__) & set(gsrdetect.__all__)


def test_every_name_exported_before_is_still_exported():
    assert [name for name in EXPORTED_BEFORE if name not in gsrdetect.__all__] == []
    for name in EXPORTED_BEFORE:
        assert hasattr(gsrdetect, name), name
