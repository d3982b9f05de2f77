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

from .distributions import (
    Distribution,
    Exponential,
    Gamma,
    GeneralizedPareto,
    Normal,
    NormalMixture2,
    Spliced,
    UniformMixture,
    from_family,
)
from .errors import (
    ConditioningError,
    ConstructionError,
    CrpstailError,
    DataFormatError,
    DegenerateDataError,
    DivergenceError,
    DomainError,
    InfiniteMeanError,
    InsufficientDataError,
    ParameterError,
    UnsupportedFamilyError,
)
from .evt import GpFitResult, GpTail, fit_gp, shift_scale, threshold_grid
from .io import read_records, write_records, write_table
from .records import RecordBatch, batch_cdf
from .scoring import (
    QuantileIndicatorWeight,
    TabulatedWeight,
    UnitWeight,
    WeightFunction,
    crps_closed,
    crps_closed_batch,
    crps_ensemble,
    crps_quadrature,
    crps_shift_constant,
    survival_sq_tail,
    wcrps_quantile,
    wcrps_quantile_batch,
)
from .simulation import (
    FORECASTERS,
    MODELS,
    RankingCurve,
    simulate,
    simulate_forecasters,
    wcrps_ranking_curve,
)
from .tail_analysis import (
    CupGeometry,
    ambiguity_region,
    ambiguous_counterpart,
    expected_crps_pareto,
    splice_tail,
    spliced_gap_mc,
    wcrps_gap_bound,
    wcrps_gap_exact,
)
from .verification import (
    DmMatrix,
    DmResult,
    IndexCurve,
    IndexResult,
    PitResult,
    QqPpResult,
    ScoreSeries,
    cvm_from_probs,
    cvm_log_pvalue,
    cvm_pvalue,
    cvm_statistic,
    diebold_mariano,
    discrepancy,
    dm_matrix,
    exceedance_calibration,
    extremes_index,
    index_curve,
    ks_one_sample_critical,
    ks_two_sample_critical,
    pit_calibration,
    qq_pp,
    score_series,
    shuffled_score_series,
    tail_shape_of_scores,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "Distribution",
    "Normal",
    "NormalMixture2",
    "Exponential",
    "Gamma",
    "GeneralizedPareto",
    "UniformMixture",
    "Spliced",
    "from_family",
    # scoring
    "WeightFunction",
    "UnitWeight",
    "QuantileIndicatorWeight",
    "TabulatedWeight",
    "crps_closed",
    "crps_closed_batch",
    "crps_ensemble",
    "crps_quadrature",
    "crps_shift_constant",
    "survival_sq_tail",
    "wcrps_quantile",
    "wcrps_quantile_batch",
    # tail analysis
    "CupGeometry",
    "expected_crps_pareto",
    "ambiguity_region",
    "ambiguous_counterpart",
    "splice_tail",
    "spliced_gap_mc",
    "wcrps_gap_bound",
    "wcrps_gap_exact",
    # evt
    "GpTail",
    "GpFitResult",
    "fit_gp",
    "shift_scale",
    "threshold_grid",
    # records / io
    "RecordBatch",
    "batch_cdf",
    "read_records",
    "write_records",
    "write_table",
    # simulation
    "MODELS",
    "FORECASTERS",
    "simulate",
    "simulate_forecasters",
    "RankingCurve",
    "wcrps_ranking_curve",
    # verification
    "ScoreSeries",
    "score_series",
    "shuffled_score_series",
    "QqPpResult",
    "qq_pp",
    "ks_one_sample_critical",
    "ks_two_sample_critical",
    "discrepancy",
    "DmResult",
    "DmMatrix",
    "diebold_mariano",
    "dm_matrix",
    "cvm_from_probs",
    "cvm_statistic",
    "cvm_pvalue",
    "cvm_log_pvalue",
    "PitResult",
    "pit_calibration",
    "exceedance_calibration",
    "IndexResult",
    "IndexCurve",
    "extremes_index",
    "index_curve",
    "tail_shape_of_scores",
    # errors
    "CrpstailError",
    "ParameterError",
    "DomainError",
    "UnsupportedFamilyError",
    "InfiniteMeanError",
    "DivergenceError",
    "ConditioningError",
    "ConstructionError",
    "InsufficientDataError",
    "DegenerateDataError",
    "DataFormatError",
]
