"""Non-asymptotic adaptive confidence balls for densities on [0, 1].

The pipeline: project the sample onto a nested collection of orthonormal
models, estimate the estimation-error term by exchangeable-weight
resampling and the nested-bias term by an order-two U-statistic, bound both
with explicit constants, pick the model with the smallest radius, and
return the ball around its projection estimator.
"""

from .ball import (
    ConfidenceBall,
    ball_from_doc,
    ball_to_doc,
    build_confidence_ball,
    select_model_index,
)
from .basis import (
    FourierModel,
    GrowthReport,
    HistogramModel,
    Model,
    ModelCollection,
    PiecewisePolynomialModel,
    SupNormReport,
    check_dimension_growth,
    check_sup_norm_control,
    fourier_collection,
    fourier_collection_for_sobolev,
    histogram_collection,
    piecewise_polynomial_collection,
    unit_ball_sup_norm,
)
from .bounds import (
    BoundConfig,
    ModelRadius,
    RadiusReport,
    bias_deviation_constant,
    variance_deviation_constant,
)
from .estimators import (
    Sample,
    centered_u_statistic,
    max_unit_variance,
    prefix_estimates,
    project,
    projection_bias_estimate,
    projection_error_sq,
    resampling_variance,
)
from .experiments import (
    DEFAULT_SEED,
    NormalizedDifferenceResult,
    coverage_experiment,
    normalized_difference_experiment,
    order_statistic_rank,
)
from .oracle import (
    CosineTiltDensity,
    DensityOracle,
    HistogramDensity,
    UniformDensity,
    residual_norm_sq,
    sample_from,
)
from .weights import (
    WeightKind,
    WeightScheme,
    make_scheme,
    replication_rng,
)

__version__ = "0.14.0"

__all__ = [
    "BoundConfig",
    "ConfidenceBall",
    "CosineTiltDensity",
    "DEFAULT_SEED",
    "DensityOracle",
    "FourierModel",
    "GrowthReport",
    "HistogramDensity",
    "HistogramModel",
    "Model",
    "ModelCollection",
    "ModelRadius",
    "NormalizedDifferenceResult",
    "PiecewisePolynomialModel",
    "RadiusReport",
    "Sample",
    "SupNormReport",
    "UniformDensity",
    "WeightKind",
    "WeightScheme",
    "ball_from_doc",
    "ball_to_doc",
    "bias_deviation_constant",
    "build_confidence_ball",
    "centered_u_statistic",
    "check_dimension_growth",
    "check_sup_norm_control",
    "coverage_experiment",
    "fourier_collection",
    "fourier_collection_for_sobolev",
    "histogram_collection",
    "make_scheme",
    "max_unit_variance",
    "normalized_difference_experiment",
    "order_statistic_rank",
    "piecewise_polynomial_collection",
    "prefix_estimates",
    "project",
    "projection_bias_estimate",
    "projection_error_sq",
    "replication_rng",
    "resampling_variance",
    "residual_norm_sq",
    "sample_from",
    "select_model_index",
    "unit_ball_sup_norm",
    "variance_deviation_constant",
]
