"""Online mean/variance change-point detection via complete-graph spanning ratios.

A scanning window of 2n multivariate observations is split at a candidate
change time into two halves; the sums of squared pairwise distances of the
full window and of each half combine into three pivotal ratio statistics
whose null laws are Fisher distributions.  Thresholds are calibrated once
(analytically or by Monte Carlo over a scanning zone) and reused for any
Gaussian stream, making the detector suitable for online monitoring of mean
and variance changes from low to high dimension.
"""

from .calibration import (
    CalibrationConfig,
    CalibrationError,
    ThresholdEntry,
    ThresholdTable,
    analytic_table,
    analytic_threshold_mu,
    analytic_threshold_sigma,
    bootstrap_quantile_se,
    calibrate_monte_carlo,
    calibration_maxima,
    empirical_upper_quantile,
)
from .detector import (
    DetectionEvent,
    Detector,
    DetectorConfig,
    PooledStatistics,
    allocate_alphas,
    detect_stream,
    events_from_jsonl,
    events_to_jsonl,
)
from .distributions import (
    ChiSquareParams,
    FisherParams,
    TailValue,
    chi2_quantile_upper_bound,
    chi2_upper_quantile,
    derived_rng,
    fisher_distribution,
    fisher_upper_quantile,
    gaussian_sample,
    ks_statistic,
)
from .power import (
    PowerQuery,
    delta_mu,
    delta_sigma,
    empirical_power,
    minimum_radius,
    residual_noncentrality,
    shift_for_residual,
)
from .ratios import (
    GsrTriple,
    StatKind,
    compute_gsr,
    effective_dof,
    null_law_mu,
    null_law_sigma,
    sliding_gsr,
)
from .simulate import (
    PowerReport,
    Scenario,
    classify_outcome,
    run_online_power,
    run_static_power,
    static_power_grid,
)
from .windows import (
    ObservationWindow,
    SlidingStats,
    SpanningDecomposition,
    sliding_spanning_stats,
    spanning_distance,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationConfig",
    "CalibrationError",
    "ThresholdEntry",
    "ThresholdTable",
    "analytic_table",
    "analytic_threshold_mu",
    "analytic_threshold_sigma",
    "bootstrap_quantile_se",
    "calibrate_monte_carlo",
    "calibration_maxima",
    "empirical_upper_quantile",
    "DetectionEvent",
    "Detector",
    "DetectorConfig",
    "PooledStatistics",
    "allocate_alphas",
    "detect_stream",
    "events_from_jsonl",
    "events_to_jsonl",
    "ChiSquareParams",
    "FisherParams",
    "TailValue",
    "chi2_quantile_upper_bound",
    "chi2_upper_quantile",
    "derived_rng",
    "fisher_distribution",
    "fisher_upper_quantile",
    "gaussian_sample",
    "ks_statistic",
    "PowerQuery",
    "delta_mu",
    "delta_sigma",
    "empirical_power",
    "minimum_radius",
    "residual_noncentrality",
    "shift_for_residual",
    "GsrTriple",
    "StatKind",
    "compute_gsr",
    "effective_dof",
    "null_law_mu",
    "null_law_sigma",
    "sliding_gsr",
    "PowerReport",
    "Scenario",
    "classify_outcome",
    "run_online_power",
    "run_static_power",
    "static_power_grid",
    "ObservationWindow",
    "SlidingStats",
    "SpanningDecomposition",
    "sliding_spanning_stats",
    "spanning_distance",
    "__version__",
]
