"""The package's public names are declared once, in each module's ``__all__``."""

import importlib
import pkgutil

import linnetcox

# Every name ``linnetcox`` exported at version 0.20.0; none may go.
EXPORTED_AT_0_20_0 = [
    "__version__", "ValidationError", "NumericalError", "Vertex", "Edge", "NetworkPoint",
    "LinearNetwork", "PointPattern", "shortest_path_distance", "pairwise_distances",
    "leaf_distances", "lattice", "sphere_count", "IntensityModel", "CoxModel", "simulate_poisson",
    "sample_grf", "retention_field", "simulate_cox", "matern_thin", "spawn_generators",
    "GRFSample", "CoxSample", "SummaryCurve", "default_r_grid", "default_bandwidth",
    "fit_intensity_mle", "kernel_intensity", "IntensityEstimate", "pair_correlation",
    "k_function", "k_estimate", "g_estimate", "fgj_estimates", "FgjConfig", "FgjCurves",
    "MinContrastConfig", "MinContrastResult", "FitResult", "min_contrast_from_curve",
    "min_contrast", "two_step_fit", "pair_correlation_gradient", "Cl2Config", "Cl2Result",
    "cl2_score", "composite_likelihood", "cl2_fit", "StudyRun", "StudyRow", "StudyFailure",
    "StudyResult", "simulation_study", "SIGMA2_TRUNCATION", "BETA_TRUNCATION", "LabelledCurve",
    "concat_test_function", "CurveSet", "build_curve_set", "EnvelopeResult", "rank_envelope",
    "PipelineResult", "envelope_pipeline", "load_network", "save_network", "load_pattern",
    "save_pattern", "load_curves", "save_curves", "load_fit", "save_fit", "save_envelope",
    "save_study", "write_manifest", "make_network",
]


def _declaring_modules():
    """Every ``linnetcox`` submodule that declares an ``__all__``."""
    modules = []
    for info in pkgutil.iter_modules(linnetcox.__path__):
        module = importlib.import_module(f"linnetcox.{info.name}")
        if hasattr(module, "__all__"):
            modules.append(module)
    return modules


def test_package_exports_exactly_the_modules_declarations():
    modules = _declaring_modules()
    declared = ["__version__", *(name for module in modules for name in module.__all__)]
    assert len(linnetcox.__all__) == len(set(linnetcox.__all__))
    assert sorted(linnetcox.__all__) == sorted(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(linnetcox, name) is getattr(module, name), (module.__name__, name)
    assert set(EXPORTED_AT_0_20_0) <= set(linnetcox.__all__)
