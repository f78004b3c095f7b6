"""Radial-basis operator networks with direct least-squares training.

The model learns a map from sampled input functions to output functions:
a branch layer of Gaussian radial units summarizes the input samples, a
trunk layer summarizes the query location, and a weight vector couples
them through the Kronecker product of the two feature vectors. Centers
come from K-means, spreads from inter-center distances, and weights from
a single pseudoinverse solve, so training needs no gradient descent.
"""

from .kernels import DegenerateFeatureError, RbfLayer, feature_matrix, gaussian_rbf, real_view
from .clustering import (
    ClusterConfig,
    ClusterResult,
    compute_spreads,
    kmeans,
)
from .least_squares import Calibration, fit_calibration, kronecker_lstsq
from .model import (
    ModelConfig,
    TrainedModel,
    TrainingSet,
    load_model,
    predict,
    predict_field,
    predict_matrix,
    save_model,
    to_frequency_domain,
    train,
)
from .benchmarks import (
    BenchmarkConfig,
    GridSpec,
    SolutionField,
    beam_config,
    beam_forcing,
    build_benchmark_dataset,
    burgers_config,
    solve_beam,
    solve_burgers,
    solve_wave,
    wave_config,
    wave_initial,
)
from .metrics import ErrorSummary, l2_relative_error, mean_and_moe
from .climate import (
    MonthlySeries,
    YearFunction,
    build_forecast_dataset,
    parse_monthly_csv,
    to_year_functions,
)
from .container import CorruptFileError, FormatVersionError

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "Calibration",
    "ClusterConfig",
    "ClusterResult",
    "CorruptFileError",
    "DegenerateFeatureError",
    "ErrorSummary",
    "FormatVersionError",
    "GridSpec",
    "ModelConfig",
    "MonthlySeries",
    "RbfLayer",
    "SolutionField",
    "TrainedModel",
    "TrainingSet",
    "YearFunction",
    "beam_config",
    "beam_forcing",
    "build_benchmark_dataset",
    "build_forecast_dataset",
    "burgers_config",
    "compute_spreads",
    "feature_matrix",
    "fit_calibration",
    "gaussian_rbf",
    "kmeans",
    "kronecker_lstsq",
    "l2_relative_error",
    "load_model",
    "mean_and_moe",
    "parse_monthly_csv",
    "predict",
    "predict_field",
    "predict_matrix",
    "real_view",
    "save_model",
    "solve_beam",
    "solve_burgers",
    "solve_wave",
    "to_frequency_domain",
    "to_year_functions",
    "train",
    "wave_config",
    "wave_initial",
]
