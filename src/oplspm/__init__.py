"""PLS path modeling with ordinal indicators.

Two weight engines (classical score-based iteration and its
correlation-matrix reformulation), polychoric correlation estimation,
threshold-based latent category prediction, and a Monte Carlo harness
comparing the Pearson and polychoric routes.
"""

from .distributions import (
    bvn_cdf,
    sample_standardized_beta,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    truncated_normal_mean,
    truncated_normal_median,
)
from .errors import (
    ConvergenceError,
    DataError,
    EstimationError,
    ModelError,
    OplsError,
)
from .estimation import (
    BlockReliability,
    BootstrapResult,
    FitResult,
    InnerEquation,
    bootstrap_inner,
    cronbach_alpha_ordinal,
    dillon_goldstein_rho,
    fit_correlation_model,
    inner_coefficients,
    outer_loadings,
)
from .model import (
    DataMatrix,
    PathModel,
    build_model,
    load_csv,
    load_data,
    parse_model,
    serialize_model,
)
from .pls import (
    FitTrace,
    MatrixPLSResult,
    ScorePLSResult,
    WeightState,
    initial_weights,
    matrix_pls_fit,
    score_based_pls_fit,
)
from .polychoric import (
    ContingencyTable,
    CorrelationMatrix,
    PairResult,
    ThresholdSet,
    cell_probabilities,
    crosstab,
    estimate_thresholds,
    nearest_pd_repair,
    pearson_matrix,
    polychoric_matrix,
    polychoric_pair,
)
from .scores import (
    LatentThresholds,
    concordance_table,
    direct_scores,
    latent_thresholds,
    predict_categories,
    raw_scale_scores,
)
from .simulate import (
    BiasReport,
    RatioSummary,
    SimulationConfig,
    bias_ratio_summary,
    generate_dataset,
    rescale_to_points,
    run_study,
    simulation_model,
)

__version__ = "0.1.0"
