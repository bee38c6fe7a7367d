"""Point processes on linear networks.

Simulation, estimation and goodness-of-fit for inhomogeneous Poisson and
thinned-Cox point processes on tree networks with the shortest-path
metric. See the README for a tour.
"""

from ._version import __version__
from .envelopes import (
    CurveSet,
    EnvelopeResult,
    LabelledCurve,
    PipelineResult,
    build_curve_set,
    concat_test_function,
    envelope_pipeline,
    rank_envelope,
)
from .errors import NumericalError, ValidationError
from .estimation import (
    BETA_TRUNCATION,
    SIGMA2_TRUNCATION,
    Cl2Config,
    Cl2Result,
    FitResult,
    MinContrastConfig,
    MinContrastResult,
    StudyFailure,
    StudyResult,
    StudyRow,
    StudyRun,
    cl2_fit,
    cl2_score,
    composite_likelihood,
    min_contrast,
    min_contrast_from_curve,
    pair_correlation_gradient,
    simulation_study,
    two_step_fit,
)
from .io import (
    load_curves,
    load_fit,
    load_network,
    load_pattern,
    save_curves,
    save_envelope,
    save_fit,
    save_network,
    save_pattern,
    save_study,
    write_manifest,
)
from .models import CoxModel, IntensityModel
from .network import (
    Edge,
    LinearNetwork,
    NetworkPoint,
    PointPattern,
    Vertex,
    lattice,
    leaf_distances,
    pairwise_distances,
    shortest_path_distance,
    sphere_count,
)
from .simulate import (
    CoxSample,
    GRFSample,
    matern_thin,
    retention_field,
    sample_grf,
    simulate_cox,
    simulate_poisson,
    spawn_generators,
)
from .summaries import (
    FgjConfig,
    FgjCurves,
    IntensityEstimate,
    SummaryCurve,
    default_bandwidth,
    default_r_grid,
    fgj_estimates,
    fit_intensity_mle,
    g_estimate,
    k_estimate,
    k_function,
    kernel_intensity,
    pair_correlation,
)
from .templates import make_network

__all__ = [
    "__version__",
    # errors
    "ValidationError",
    "NumericalError",
    # network geometry
    "Vertex",
    "Edge",
    "NetworkPoint",
    "LinearNetwork",
    "PointPattern",
    "shortest_path_distance",
    "pairwise_distances",
    "leaf_distances",
    "lattice",
    "sphere_count",
    # models
    "IntensityModel",
    "CoxModel",
    # simulation
    "simulate_poisson",
    "sample_grf",
    "retention_field",
    "simulate_cox",
    "matern_thin",
    "spawn_generators",
    "GRFSample",
    "CoxSample",
    # summaries
    "SummaryCurve",
    "default_r_grid",
    "default_bandwidth",
    "fit_intensity_mle",
    "kernel_intensity",
    "IntensityEstimate",
    "pair_correlation",
    "k_function",
    "k_estimate",
    "g_estimate",
    "fgj_estimates",
    "FgjConfig",
    "FgjCurves",
    # estimation
    "MinContrastConfig",
    "MinContrastResult",
    "FitResult",
    "min_contrast_from_curve",
    "min_contrast",
    "two_step_fit",
    "pair_correlation_gradient",
    "Cl2Config",
    "Cl2Result",
    "cl2_score",
    "composite_likelihood",
    "cl2_fit",
    "StudyRun",
    "StudyRow",
    "StudyFailure",
    "StudyResult",
    "simulation_study",
    "SIGMA2_TRUNCATION",
    "BETA_TRUNCATION",
    # envelopes
    "LabelledCurve",
    "concat_test_function",
    "CurveSet",
    "build_curve_set",
    "EnvelopeResult",
    "rank_envelope",
    "PipelineResult",
    "envelope_pipeline",
    # input/output
    "load_network",
    "save_network",
    "load_pattern",
    "save_pattern",
    "load_curves",
    "save_curves",
    "load_fit",
    "save_fit",
    "save_envelope",
    "save_study",
    "write_manifest",
    # templates
    "make_network",
]
