"""Fitting the thinned-Cox model to an observed pattern.

Estimation is a two-step procedure, run by :func:`two_step_fit` (and for
each replicate of :func:`simulation_study`). Branch intensities have a
closed-form maximum-likelihood estimate (count over branch length). The
interaction parameters ``(sigma2, beta)`` are then estimated with the
intensities plugged in, by the method the config's class selects:

* **minimum contrast** (:class:`MinContrastConfig`): minimise the
  integrated squared difference between an empirical second-order
  summary (``K`` or the pair correlation) raised to a power ``p`` and its
  model counterpart, or
* **composite likelihood** (:class:`Cl2Config`): maximise the
  second-order composite likelihood of the point pairs within a fixed
  range ``r0``, the only pairs it keeps. Its normalising double integral
  over the network's point pairs within ``r0`` is a one-dimensional
  integral against the intensity-weighted pair-distance density, which on
  a tree is piecewise linear and built exactly once per pattern.

Optimisation runs in ``log(sigma2), log(beta)`` space, which enforces
positivity, by the searches in ``_optimize`` (numpy only, no scipy).
Driving intensities of the fitted Cox model follow from the thinning
relation ``rho_Y = (1 + sigma2) ** (k/2) * rho``.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._optimize import box_quasi_newton, nelder_mead
from .errors import NumericalError, ValidationError
from .models import CoxModel, IntensityModel
from .network import LinearNetwork, PointPattern, _pairs_within
from .network import distance_matrix  # noqa: F401  (perfbench/spans.py wraps it by this name)
from .simulate import _seed_sequence, simulate_cox, spawn_generators
from .summaries import (
    _alpha,
    _default_g_bandwidth,
    _g_reach,
    fit_intensity_mle,
    g_from_pairs,
    k_from_pairs,
    k_function,
    pair_correlation,
    second_order_pairs,
    _intensity_at_points,
)

__all__ = [
    "MinContrastConfig",
    "MinContrastResult",
    "FitResult",
    "Cl2Config",
    "Cl2Result",
    "StudyRun",
    "StudyRow",
    "StudyFailure",
    "StudyResult",
    "min_contrast",
    "min_contrast_from_curve",
    "two_step_fit",
    "pair_correlation_gradient",
    "composite_likelihood",
    "cl2_score",
    "cl2_fit",
    "simulation_study",
    "SIGMA2_TRUNCATION",
    "BETA_TRUNCATION",
]

_LOG_BOUND = 30.0  # |log parameter| cap inside optimizers
_SCORE_RTOL = 1e-6  # a converged score is this small against its pair sum
_CONTRAST_GRID = 512  # r values of the contrast integral
_CONTRAST_OPTIONS = {"xatol": 1e-7, "fatol": 1e-14, "maxiter": 2000, "maxfev": 8000}  # Nelder-Mead
_CL2_MAX_ITER = 500  # quasi-Newton iterations of cl2_fit


def _positive(*xs) -> bool:
    """Every ``x`` is a finite number above zero (not a boolean, a string or a sequence)."""
    return all(isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
               and 0 < x < np.inf for x in xs)


@dataclass(frozen=True)
class MinContrastConfig:
    """Settings of the minimum-contrast objective.

    The objective is ``int_{r_min}^{r_max} (T_hat(r)**p - T(r)**p)**2 dr``
    with ``T`` either the pair correlation (``target="g"``, the default —
    it weights all scales evenly and was the better performer) or the
    cumulative ``K`` (``target="K"``), which takes no ``bandwidth``. ``r_max``
    defaults to one tenth of the network length; tune it per network.
    """

    target: str = "g"
    r_min: float = 0.0
    r_max: float | None = None
    power: float = 1.0
    start: tuple[float, float] = (0.5, 0.5)
    bandwidth: float | None = None

    def __post_init__(self):
        if self.target not in ("g", "K"):
            raise ValidationError(f"contrast target must be 'g' or 'K', got {self.target!r}")
        if not self.power > 0:
            raise ValidationError(f"contrast exponent must be positive, got {self.power}")
        if self.r_max is not None and not (0 <= self.r_min < self.r_max < math.inf):
            raise ValidationError("need 0 <= r_min < r_max < inf")
        if not (len(self.start) == 2 and _positive(*self.start)):
            raise ValidationError(f"start must be two positive finite numbers, got {self.start!r}")
        if not (self.bandwidth is None or _positive(self.bandwidth)):
            raise ValidationError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")
        if self.target == "K" and self.bandwidth is not None:
            raise ValidationError("contrast target 'K' reads no bandwidth")


@dataclass(frozen=True)
class MinContrastResult:
    sigma2: float
    beta: float
    k: int
    target: str
    objective: float
    converged: bool
    n_iterations: int


@dataclass(frozen=True)
class FitResult:
    """Two-step fit: plug-in intensities plus interaction parameters.

    ``rho_y_main``/``rho_y_side`` are the driving intensities implied by
    the thinning relation; ``(1 + sigma2) ** (-k/2) * rho_y`` recovers the
    observed intensity exactly.
    """

    rho_main: float
    rho_side: float
    sigma2: float
    beta: float
    k: int
    rho_y_main: float
    rho_y_side: float
    objective: float
    converged: bool
    method: str

    @classmethod
    def from_observed(
        cls, intensity: IntensityModel, sigma2: float, beta: float, k: int, objective: float,
        converged: bool, method: str,
    ) -> "FitResult":
        """Plug-in intensities and estimates, with the driving intensities they imply."""
        driving = CoxModel.from_observed(intensity, sigma2, beta, k).driving_intensity()
        return cls(intensity.main, intensity.side, sigma2, beta, k, driving.main, driving.side,
                   objective, converged, method)

    def model(self) -> CoxModel:
        return CoxModel(self.rho_y_main, self.rho_y_side, self.sigma2, self.beta, self.k)


def _theory_curve(target: str, r: np.ndarray, sigma2: float, beta: float, k: int) -> np.ndarray:
    model = CoxModel(1.0, 1.0, sigma2, beta, k)
    if target == "g":
        return pair_correlation(model, r)
    return np.asarray(k_function(model, r))


def min_contrast_from_curve(
    r: np.ndarray, values: np.ndarray, k: int = 1, config: MinContrastConfig | None = None
) -> MinContrastResult:
    """Minimum-contrast estimate from an already-computed empirical curve.

    Undefined (NaN) cells are dropped from the integral. The optimiser is
    Nelder-Mead on the log parameters, step for step scipy.optimize's with
    ``_CONTRAST_OPTIONS``, so the estimates are the same bits as scipy's.
    """
    config = config or MinContrastConfig()
    r = np.asarray(r, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    ok = np.isfinite(values)
    r, values = r[ok], values[ok]
    if r.size < 2:
        raise ValidationError("empirical curve is undefined on the contrast window")
    emp = np.maximum(values, 0.0) ** config.power

    def objective(x: np.ndarray) -> float:
        x = np.clip(x, -_LOG_BOUND, _LOG_BOUND)
        th = _theory_curve(config.target, r, math.exp(x[0]), math.exp(x[1]), k)
        diff = emp - th**config.power
        sq = diff * diff
        return float((np.diff(r) * (sq[1:] + sq[:-1]) / 2.0).sum())  # scipy's trapezoid

    x, fun, nit, success = nelder_mead(
        objective, np.log(np.asarray(config.start, dtype=np.float64)), **_CONTRAST_OPTIONS)
    s2, bt = (float(math.exp(v)) for v in np.clip(x, -_LOG_BOUND, _LOG_BOUND))
    return MinContrastResult(s2, bt, k, config.target, float(fun), bool(success), int(nit))


def _mle_pairs(pattern: PointPattern, reach: float):
    """The pairs within ``reach``, weighted by the branch-wise maximum-likelihood intensities."""
    return second_order_pairs(pattern, fit_intensity_mle(pattern), reach)


def _contrast_grid(pattern: PointPattern, config: MinContrastConfig):
    """The contrast's r grid, its g bandwidth (None for K) and the pair reach they read."""
    net = pattern.network
    if pattern.n < 2:
        raise ValidationError("minimum contrast needs at least two points")
    r_max = 0.1 * net.total_length if config.r_max is None else config.r_max
    if not (0 <= config.r_min < r_max):
        raise ValidationError("need 0 <= r_min < r_max")
    if config.r_max is not None and config.r_max > net.diameter:
        raise ValidationError(f"r_max {config.r_max} exceeds the network's diameter {net.diameter}")
    r = np.linspace(config.r_min, r_max, _CONTRAST_GRID)
    if config.target == "K":
        return r, None, r.max()
    bw = _default_g_bandwidth(pattern) if config.bandwidth is None else config.bandwidth
    return r, bw, _g_reach(r, bw, net.diameter)


def _min_contrast(pattern: PointPattern, k: int, config: MinContrastConfig | None, pairs):
    """:func:`min_contrast` on the :class:`PairData` that ``pairs(reach)``
    returns, so a study replicate builds it once for all its mce fits."""
    config = config or MinContrastConfig()
    r, bw, reach = _contrast_grid(pattern, config)
    emp = k_from_pairs(pairs(reach), r) if bw is None else g_from_pairs(pairs(reach), r, bw)
    return min_contrast_from_curve(r, emp, k, config)


def min_contrast(
    pattern: PointPattern, k: int = 1, config: MinContrastConfig | None = None
) -> MinContrastResult:
    """Fit ``(sigma2, beta)`` by minimum contrast on ``K`` or ``g``.

    Pairs are weighted by the branch-wise maximum-likelihood intensities.
    Non-convergence is reported through the ``converged`` flag, so study
    harnesses can tally it without aborting.
    """
    return _min_contrast(pattern, k, config, functools.partial(_mle_pairs, pattern))


# -- composite likelihood ---------------------------------------------------


def pair_correlation_gradient(t, sigma2: float, beta: float, k: int = 1):
    """Pair correlation and its partial derivatives in ``(sigma2, beta)``.

    With ``x = 1 - alpha(sigma2) * exp(-2 beta t)`` the pair correlation is
    ``x ** (-k/2)``; the derivatives follow by the chain rule through
    ``alpha`` and the exponential. Returns ``(g, dg_dsigma2, dg_dbeta)``.
    """
    t = np.asarray(t, dtype=np.float64)
    v = float(sigma2)
    a = _alpha(v)
    y = np.exp(-2.0 * beta * t)
    x = -np.expm1(math.log(a) - 2.0 * beta * t)
    g = x ** (-k / 2.0)
    base = x ** (-(k + 2) / 2.0)
    dg_ds2 = k * y * v / (1.0 + v) ** 3 * base
    dg_db = -k * a * t * y * base
    return g, dg_ds2, dg_db


@dataclass(frozen=True)
class Cl2Config:
    """Settings of the second-order composite likelihood.

    The likelihood counts the point pairs within distance ``r0``, by
    default five mean point spacings, ``5 |L| / n`` for ``n`` points on a
    network of length ``|L|``. Its normalising integral is computed
    exactly from the network's geometry, so it has no sampling noise and
    runs are reproducible. :func:`cl2_fit` starts at ``start`` and stops
    after at most 500 quasi-Newton iterations, a fixed setting.
    """

    r0: float | None = None
    start: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if not (self.r0 is None or _positive(self.r0)):
            raise ValidationError(f"need None or a finite r0 > 0, got {self.r0!r}")
        if not (len(self.start) == 2 and _positive(*self.start)):
            raise ValidationError(f"start must be two positive finite numbers, got {self.start!r}")


@dataclass(frozen=True)
class Cl2Result:
    sigma2: float
    beta: float
    k: int
    score: np.ndarray
    score_norm: float
    converged: bool


class _PairDistanceDensity:
    """``H(t) = sum_ij rho_i rho_j l_i l_j h_ij(t)``, so ``∫∫ f(d) rho rho = ∫ f H``.

    ``h_ij`` is the density of ``d(u, v)``, ``u`` and ``v`` uniform on edges
    ``i`` and ``j``. On a tree ``d = a + gap_ij + b`` with ``a ~ U[0, l_i]``,
    ``b ~ U[0, l_j]``, a trapezoid: ``l_i l_j h_ij = sum of ±R(t - knot)``,
    ``R(x) = max(x, 0)``; within an edge ``l**2 h = 2 (l - t) + 2 R(t - l)``.
    """

    def __init__(self, net: LinearNetwork, rho_edge: np.ndarray):
        length = net.edge_length
        i, j = np.triu_indices(net.n_edges, 1)
        gap = net._edge_gap[i, j]
        li, lj = length[i], length[j]
        rr = 2.0 * rho_edge[i] * rho_edge[j]  # both orders of a distinct pair
        own = 2.0 * rho_edge**2
        knots = np.concatenate([gap, gap + li, gap + lj, gap + li + lj, length])
        order = np.argsort(knots, kind="stable")
        self.knots = knots[order]
        self.support = float(self.knots[-1])  # the diameter; H is zero beyond
        coef = np.concatenate([rr, -rr, -rr, rr, own])[order]
        # H(t) = intercept[m] + slope[m] * t with m the number of knots <= t
        self._slope = np.concatenate([[0.0], np.cumsum(coef)]) - own.sum()
        self._intercept = own @ length - np.concatenate([[0.0], np.cumsum(coef * self.knots)])

    def __call__(self, t: np.ndarray) -> np.ndarray:
        m = np.searchsorted(self.knots, t, side="right")
        return self._intercept[m] + self._slope[m] * t


def _unit_rule(panels: int = 64, order: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1], its panels graded
    quadratically towards zero, where the pair correlation varies fastest."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = (np.arange(panels + 1) / panels) ** 2
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()


# 512 fixed nodes, scaled to the support of each normalising integral
_UNIT_NODES, _UNIT_WEIGHTS = _unit_rule()


class _Cl2Workspace:
    """The composite likelihood's data at range ``r0``: the unordered point pairs
    within it, and the normaliser's nodes with their quadrature weights times ``H``."""

    def __init__(self, pattern: PointPattern, r0: float):
        net = pattern.network
        intensity = fit_intensity_mle(pattern)
        rho, _ = _intensity_at_points(net, pattern, intensity)
        pairs = _pairs_within(net, pattern, pattern, r0)
        i, j, self.pair_d = (a[pairs[0] < pairs[1]] for a in pairs)  # each pair once, row by row
        self.pair_log_rr = np.log(rho[i] * rho[j])
        rho_edge = np.where(net.edge_side, intensity.side, intensity.main)
        density = _PairDistanceDensity(net, rho_edge)
        t_max = min(r0, density.support)
        self.nodes = t_max * _UNIT_NODES
        self.node_weights = t_max * _UNIT_WEIGHTS * density(self.nodes)

    def normaliser(self, sigma2: float, beta: float, k: int) -> np.ndarray:
        """``∫ (g, dg/dsigma2, dg/dbeta) H`` on ``[0, min(r0, diameter)]``."""
        g, dgs, dgb = pair_correlation_gradient(self.nodes, sigma2, beta, k)
        return (np.stack([g, dgs, dgb]) * self.node_weights).sum(1)

    def pair_sum(self, sigma2: float, beta: float, k: int) -> np.ndarray:
        """``sum grad g / g`` over ordered pairs; no terms cancel (g is monotone)."""
        if self.pair_d.size == 0:
            raise NumericalError("weight vanished on every observed pair: none lies within r0")
        g, dgs, dgb = pair_correlation_gradient(self.pair_d, sigma2, beta, k)
        # ordered pairs: each unordered pair counts twice
        return 2.0 * np.array([(dgs / g).sum(), (dgb / g).sum()])

    def score(self, sigma2: float, beta: float, k: int) -> np.ndarray:
        return self.pair_sum(sigma2, beta, k) - self.normaliser(sigma2, beta, k)[1:]

    def likelihood(self, sigma2: float, beta: float, k: int) -> float:
        g, _, _ = pair_correlation_gradient(self.pair_d, sigma2, beta, k)
        pair_sum = 2.0 * float((self.pair_log_rr + np.log(g)).sum())
        return pair_sum - float(self.normaliser(sigma2, beta, k)[0])


def _cl2_workspace(pattern: PointPattern, config: Cl2Config | None) -> _Cl2Workspace:
    """The workspace at ``config.r0``, by default five mean point spacings ``5 |L| / n``."""
    if pattern.n < 2:
        raise ValidationError("composite likelihood needs at least two points")
    config = config or Cl2Config()
    r0 = 5.0 * pattern.network.total_length / pattern.n if config.r0 is None else config.r0
    return _Cl2Workspace(pattern, r0)


def _check_parameters(sigma2: float, beta: float) -> None:
    if not (0.0 < sigma2 < math.inf and 0.0 < beta < math.inf):
        raise ValidationError("sigma2 and beta must be positive and finite")


def cl2_score(
    pattern: PointPattern, sigma2: float, beta: float, k: int = 1, config: Cl2Config | None = None
) -> np.ndarray:
    """Composite-likelihood score, the gradient of :func:`composite_likelihood`.

    The pair sum uses ``grad g / g`` over the ordered pairs of data points
    within ``r0``; the compensating double integral of ``rho rho grad g``
    over the network's point pairs within ``r0`` is ``∫ grad g H`` on
    ``[0, r0]`` against the exact pair-distance density ``H``, by a fixed
    composite Gauss-Legendre rule. Near the truth the expected score is zero.
    """
    _check_parameters(sigma2, beta)
    return _cl2_workspace(pattern, config).score(sigma2, beta, k)


def composite_likelihood(
    pattern: PointPattern, sigma2: float, beta: float, k: int = 1, config: Cl2Config | None = None
) -> float:
    """Log second-order composite likelihood at ``(sigma2, beta)``: the log
    pair correlation summed over the pairs within ``r0``, less its
    normalising integral over the network's point pairs within ``r0``."""
    _check_parameters(sigma2, beta)
    return _cl2_workspace(pattern, config).likelihood(sigma2, beta, k)


def cl2_fit(pattern: PointPattern, k: int = 1, config: Cl2Config | None = None) -> Cl2Result:
    """Estimate ``(sigma2, beta)`` by maximising the composite likelihood.

    A projected quasi-Newton search maximises the log composite likelihood
    of the pairs within ``r0`` (default ``5 |L| / n``) over log-parameters
    in ``[-30, 30]``, from ``start``, with the score as its exact gradient;
    maximising it keeps the fit off the score's spurious root at ``sigma2
    -> 0``. ``converged`` means every score component at the estimate is
    within ``1e-6`` of its pair sum, whatever stopped the search.
    """
    config = config or Cl2Config()
    ws = _cl2_workspace(pattern, config)

    def negative_likelihood(x: np.ndarray):
        s2, bt = np.exp(x)
        return -ws.likelihood(s2, bt, k), -ws.score(s2, bt, k) * np.array([s2, bt])

    x = box_quasi_newton(negative_likelihood, np.log(np.asarray(config.start, dtype=np.float64)),
                         _LOG_BOUND, _CL2_MAX_ITER)
    s2, bt = (float(v) for v in np.exp(x))
    score = ws.score(s2, bt, k)
    # strict: on the beta bound the score and its pair sum both vanish
    converged = bool(np.all(np.abs(score) < _SCORE_RTOL * np.abs(ws.pair_sum(s2, bt, k))))
    return Cl2Result(s2, bt, k, score, float(np.linalg.norm(score)), converged)


# fit method -> (config class, contrast target): the one place names meet configs
_METHODS = {"mce-g": (MinContrastConfig, "g"), "mce-k": (MinContrastConfig, "K"),
            "cl2": (Cl2Config, None)}


def _method_config(method: str, config=None):
    """The checked config of fit ``method`` from None (the defaults), a dict
    of fields, or a config of the class (and target) the name says."""
    if method not in _METHODS:
        raise ValidationError("unknown method; use mce-g, mce-k or cl2")
    kind, target = _METHODS[method]
    if config is None or isinstance(config, dict):
        try:  # an unknown field, or a value of the wrong type
            config = kind(**dict({"target": target} if target else {}, **(config or {})))
        except TypeError as exc:
            raise ValidationError(f"bad {kind.__name__}: {exc}") from None
    elif not isinstance(config, kind):
        raise ValidationError(f"needs a {kind.__name__}, got {type(config).__name__}")
    if target is not None and config.target != target:
        raise ValidationError(f"fits target {target!r}; its config has target {config.target!r}")
    return config


def two_step_fit(pattern: PointPattern, k: int = 1, config=None) -> FitResult:
    """Maximum-likelihood branch intensities, then ``(sigma2, beta)`` by
    :func:`min_contrast` for a :class:`MinContrastConfig` (the default) or by
    :func:`cl2_fit`, its score norm the ``objective``, for a :class:`Cl2Config`."""
    return _two_step_fit(pattern, k, config, functools.partial(_mle_pairs, pattern))


def _two_step_fit(pattern: PointPattern, k: int, config, pairs) -> FitResult:
    """:func:`two_step_fit` whose minimum contrast reads ``pairs(reach)``."""
    if not (isinstance(k, int) and k >= 1):
        raise ValidationError(f"k must be an integer >= 1, got {k}")
    config = config or MinContrastConfig()
    if isinstance(config, Cl2Config):
        res = cl2_fit(pattern, k=k, config=config)
        objective, method = res.score_norm, "cl2"
    else:
        res = _min_contrast(pattern, k, config, pairs)
        objective, method = res.objective, f"mce-{config.target.lower()}"
    return FitResult.from_observed(
        fit_intensity_mle(pattern), res.sigma2, res.beta, k, objective, res.converged, method
    )


# -- simulation study -------------------------------------------------------

SIGMA2_TRUNCATION = 15.0
BETA_TRUNCATION = 5.0


@dataclass(frozen=True)
class StudyRun:
    """One row of a simulation-study design.

    ``methods`` maps a method name (``"mce-g"``, ``"mce-k"`` or ``"cl2"``)
    to its configuration: None for the defaults, a dict of config fields,
    a :class:`Cl2Config` for cl2, or a :class:`MinContrastConfig` whose
    target is the one the name says. All methods see the same patterns,
    simulated with ``mode`` and ``spacing``, and fitted by :func:`two_step_fit`.
    """

    name: str
    network: LinearNetwork
    model: CoxModel
    methods: dict
    mode: str = "exact"
    spacing: float = 1.0

    def __post_init__(self):
        if not (self.mode in ("exact", "grid") and _positive(self.spacing)):
            raise ValidationError(f"run {self.name!r}: needs mode 'exact' or 'grid' and a positive "
                                  f"finite spacing, got {self.mode!r} and {self.spacing!r}")
        for method, cfg in self.methods.items():
            try:
                _method_config(method, cfg)
            except ValidationError as exc:
                raise ValidationError(f"run {self.name!r}, method {method!r}: {exc}") from None


@dataclass(frozen=True)
class StudyRow:
    run: str
    replicate: int
    method: str
    sigma2_hat: float
    beta_hat: float
    converged: bool


@dataclass(frozen=True)
class StudyFailure:
    run: str
    replicate: int
    method: str
    error: str  # the exception's class name
    message: str


@dataclass(frozen=True)
class StudyResult:
    """Per-replicate estimates plus truncation and failure tallies.

    ``truncation[(run, method)]`` counts estimates above the display caps
    ``SIGMA2_TRUNCATION = 15`` and ``BETA_TRUNCATION = 5``, and replicates
    where the fit raised, which are recorded as non-converged NaN rows
    rather than aborting the study; ``failures`` says why each one raised.
    """

    rows: list
    truncation: dict
    failures: list = field(default_factory=list)

    def estimates(self, run: str, method: str) -> np.ndarray:
        vals = [
            (row.sigma2_hat, row.beta_hat)
            for row in self.rows
            if row.run == run and row.method == method and row.converged
        ]
        return np.array(vals).reshape(-1, 2)


def _fit_one(pattern: PointPattern, method: str, cfg, k: int, pairs) -> FitResult:
    return _two_step_fit(pattern, k, _method_config(method, cfg), pairs)


def simulation_study(runs, replicates: int, seed=None) -> StudyResult:
    """Simulate, refit, and tabulate each design run.

    Replicate streams are spawned per run from the master seed, so the
    result table is bitwise reproducible and independent of evaluation
    order. A fit that raises a :class:`ValidationError`,
    :class:`NumericalError` or ``LinAlgError`` is recorded (NaN estimates,
    ``converged=False``, a :class:`StudyFailure`) and tallied, never fatal.
    """
    if replicates < 0:
        raise ValidationError("replicates must be nonnegative")
    runs = list(runs)
    rows: list[StudyRow] = []
    failures: list[StudyFailure] = []
    tally: dict = {}
    for run, run_seed in zip(runs, _seed_sequence(seed).spawn(len(runs))):
        for method in run.methods:
            tally[(run.name, method)] = {"sigma2_over": 0, "beta_over": 0, "failed": 0}
        rep_gens = spawn_generators(run_seed, replicates)
        contrasts = [c for c in map(_method_config, run.methods, run.methods.values())
                     if isinstance(c, MinContrastConfig)]
        for rep, gen in enumerate(rep_gens):
            sample = simulate_cox(run.network, run.model, mode=run.mode, spacing=run.spacing, seed=gen)
            # the mce methods share one build of the pair data, within the largest of
            # their reaches; a build that raises is not cached, so each records it
            reach = 0.0
            for config in contrasts:
                with contextlib.suppress(ValidationError):
                    reach = max(reach, _contrast_grid(sample.pattern, config)[2])
            shared = functools.cache(functools.partial(_mle_pairs, sample.pattern, reach))
            for method, cfg in run.methods.items():
                counts = tally[(run.name, method)]
                try:
                    fit = _fit_one(sample.pattern, method, cfg, run.model.k, lambda _: shared())
                except (ValidationError, NumericalError, np.linalg.LinAlgError) as exc:
                    rows.append(StudyRow(run.name, rep, method, float("nan"), float("nan"), False))
                    failures.append(
                        StudyFailure(run.name, rep, method, type(exc).__name__, str(exc)))
                    counts["failed"] += 1
                    continue
                rows.append(StudyRow(run.name, rep, method, fit.sigma2, fit.beta, fit.converged))
                if fit.sigma2 > SIGMA2_TRUNCATION:
                    counts["sigma2_over"] += 1
                if fit.beta > BETA_TRUNCATION:
                    counts["beta_over"] += 1
    return StudyResult(rows=rows, truncation=tally, failures=failures)
