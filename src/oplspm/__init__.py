"""PLS path modeling with ordinal indicators.

Two weight engines (classical score-based iteration and its
correlation-matrix reformulation), polychoric correlation estimation,
threshold-based latent category prediction, and a Monte Carlo harness
comparing the Pearson and polychoric routes.

The names below are the public API listed in the README; everything else
is reached through its submodule.
"""

from .distributions import bvn_cdf, std_normal_cdf
from .errors import (
    ConvergenceError,
    DataError,
    EstimationError,
    ModelError,
    OplsError,
)
from .estimation import cronbach_alpha_ordinal, dillon_goldstein_rho, fit_correlation_model
from .model import DataMatrix, build_model, load_data, parse_model
from .pls import matrix_pls_fit, score_based_pls_fit
from .polychoric import (
    ContingencyTable,
    ThresholdSet,
    cell_probabilities,
    crosstab,
    estimate_thresholds,
    pearson_matrix,
    polychoric_matrix,
    polychoric_pair,
)
from .scores import latent_thresholds, predict_categories
from .simulate import SimulationConfig, run_study

__all__ = [
    "ConvergenceError",
    "DataError",
    "EstimationError",
    "ModelError",
    "OplsError",
    "DataMatrix",
    "build_model",
    "load_data",
    "parse_model",
    "ContingencyTable",
    "ThresholdSet",
    "cell_probabilities",
    "crosstab",
    "estimate_thresholds",
    "pearson_matrix",
    "polychoric_matrix",
    "polychoric_pair",
    "matrix_pls_fit",
    "score_based_pls_fit",
    "fit_correlation_model",
    "cronbach_alpha_ordinal",
    "dillon_goldstein_rho",
    "latent_thresholds",
    "predict_categories",
    "SimulationConfig",
    "run_study",
    "bvn_cdf",
    "std_normal_cdf",
]

__version__ = "0.1.0"
