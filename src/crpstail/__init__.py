"""crpstail: CRPS-distribution evaluation of extreme-event forecasts.

The library scores probabilistic forecasts with the continuous ranked
probability score and its tail-weighted variant, analyses what those scores
can and cannot resolve in heavy tails (the Pareto expected-score cup, tail
non-equivalence splices), and verifies forecasts through the distribution
of their scores: paired-vs-shuffled comparisons, Diebold-Mariano tests,
and a Cramer-von Mises extremes-skill index built on peaks-over-threshold
generalized Pareto fits. Two simulation testbeds with counter-based,
reproducible record streams exercise the whole pipeline.
"""

import importlib

__version__ = "0.1.0"

# each submodule's public names; a name's submodule is imported when the name
# is first used, so ``import crpstail`` loads no numpy (``python -m crpstail``
# imports the package before its entry point can limit the BLAS threads)
_EXPORTS = {
    "distributions": (
        "Distribution", "Normal", "NormalMixture2", "Exponential", "Gamma",
        "GeneralizedPareto", "Spliced", "from_family",
    ),
    "scoring": (
        "WeightFunction", "UnitWeight", "QuantileIndicatorWeight", "TabulatedWeight",
        "crps_closed", "crps_closed_batch", "crps_ensemble", "crps_quadrature",
        "crps_shift_constant", "survival_sq_tail", "wcrps_quantile", "wcrps_quantile_batch",
    ),
    "tail_analysis": (
        "CupGeometry", "expected_crps_pareto", "ambiguity_region", "ambiguous_counterpart",
        "splice_tail", "spliced_gap_mc", "wcrps_gap_bound", "wcrps_gap_exact",
    ),
    "evt": ("GpTail", "GpFitResult", "fit_gp", "shift_scale", "threshold_grid"),
    "records": ("RecordBatch", "batch_cdf"),
    "io": ("read_records", "write_records", "write_table"),
    "simulation": (
        "MODELS", "FORECASTERS", "simulate", "simulate_forecasters", "RankingCurve",
        "wcrps_ranking_curve",
    ),
    "verification": (
        "ScoreSeries", "score_series", "shuffled_score_series", "QqPpResult", "qq_pp",
        "ks_one_sample_critical", "ks_two_sample_critical", "DmResult",
        "DmMatrix", "diebold_mariano", "dm_matrix", "cvm_from_probs", "cvm_statistic",
        "cvm_pvalue", "cvm_log_pvalue", "PitResult", "pit_calibration", "IndexResult",
        "IndexCurve", "extremes_index", "index_curve", "tail_shape_of_scores",
    ),
    "errors": (
        "CrpstailError", "ParameterError", "DomainError", "UnsupportedFamilyError",
        "InfiniteMeanError", "DivergenceError", "ConditioningError", "ConstructionError",
        "InsufficientDataError", "DegenerateDataError", "DataFormatError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
