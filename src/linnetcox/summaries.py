"""Summary statistics for point patterns on linear networks.

Implements both directions of the comparison that drives model fitting and
testing:

* *theoretical* second-order functions of the thinned-Cox model — the pair
  correlation ``g0`` and its integral ``K`` (closed forms for ``k <= 5``,
  quadrature beyond);
* *empirical* estimators from an observed pattern — intensity (maximum
  likelihood per branch, or kernel-smoothed via heat diffusion on the
  network), the geometrically corrected ``K`` and pair-correlation
  estimators weighted by exact sphere counts, and the empty-space /
  nearest-neighbour / ratio statistics ``F``, ``G``, ``J`` evaluated on an
  eroded network.

Distances are micrometres; intensities are points per micrometre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .models import CoxModel, IntensityModel
from .network import (
    LinearNetwork,
    PointPattern,
    _sphere_count_matrix,
    distance_matrix,
    lattice,
    leaf_distances,
    pairwise_distances,
)

__all__ = [
    "SummaryCurve",
    "PairData",
    "FgjConfig",
    "FgjCurves",
    "IntensityEstimate",
    "default_r_grid",
    "default_bandwidth",
    "fit_intensity_mle",
    "kernel_intensity",
    "pair_correlation",
    "k_function",
    "second_order_pairs",
    "k_from_pairs",
    "g_from_pairs",
    "k_estimate",
    "g_estimate",
    "fgj_estimates",
]


@dataclass
class SummaryCurve:
    """A summary function evaluated on an ``r`` grid.

    ``values`` is NaN wherever ``defined`` is False; undefined cells are
    reported, never extrapolated.
    """

    kind: str
    r: np.ndarray
    values: np.ndarray
    defined: np.ndarray
    metadata: dict = field(default_factory=dict)


def default_r_grid(net: LinearNetwork, r_max: float | None = None, n: int = 512) -> np.ndarray:
    """Evenly spaced ``r`` grid from 0 to ``r_max`` (default ``0.2 |L|``)."""
    if r_max is None:
        r_max = 0.2 * net.total_length
    if not (r_max > 0 and n >= 2):
        raise ValidationError("r grid needs r_max > 0 and at least two values")
    return np.linspace(0.0, float(r_max), int(n))


def default_bandwidth(mean_intensity: float) -> float:
    """Rule-of-thumb kernel bandwidth ``0.15 / sqrt(mean intensity)``."""
    if not mean_intensity > 0:
        raise ValidationError("mean intensity must be positive for the bandwidth rule")
    return 0.15 / math.sqrt(mean_intensity)


# -- intensity ------------------------------------------------------------


def fit_intensity_mle(pattern: PointPattern) -> IntensityModel:
    """Maximum-likelihood branch intensities: count / branch length.

    A branch type with zero measure carries no points and gets intensity
    0.0.
    """
    net = pattern.network
    n_main, n_side = pattern.branch_counts()
    main = n_main / net.main_length if net.main_length > 0 else 0.0
    side = n_side / net.side_length if net.side_length > 0 else 0.0
    return IntensityModel(main, side)


@dataclass
class IntensityEstimate:
    """Kernel intensity estimate stored on a per-edge grid.

    ``edge_offsets[i]`` / ``edge_values[i]`` give the estimate along edge
    ``i`` (endpoints included). The estimate integrates exactly to the
    number of data points.
    """

    network: LinearNetwork
    edge_offsets: list[np.ndarray]
    edge_values: list[np.ndarray]
    bandwidth: float
    spacing: float

    def at_points(self, pts) -> np.ndarray:
        from .network import _point_arrays

        e, o = _point_arrays(self.network, pts)
        out = np.empty(e.size)
        for i in range(e.size):
            ei = int(e[i])
            out[i] = np.interp(o[i], self.edge_offsets[ei], self.edge_values[ei])
        return out

    def integral(self) -> float:
        return sum(float((np.diff(off) * (val[1:] + val[:-1]) / 2.0).sum())  # trapezoid rule
                   for off, val in zip(self.edge_offsets, self.edge_values))


def kernel_intensity(
    net: LinearNetwork,
    pattern: PointPattern,
    bandwidth: float,
    spacing: float | None = None,
    steps: int = 64,
) -> IntensityEstimate:
    """Heat-kernel intensity estimate on the network.

    Each data point contributes a unit of mass diffused for time
    ``bandwidth**2 / 2``, which on an isolated line yields a Gaussian
    profile with standard deviation ``bandwidth``. Diffusion runs on a
    finite-volume discretisation of the network with flux conservation at
    junctions, so the estimate integrates to the point count exactly and
    mass spreads across junctions rather than leaking. Time stepping is
    implicit (a few damped backward-Euler startup steps, then
    Crank-Nicolson), unconditionally stable.

    ``spacing`` defaults to ``bandwidth / 10`` and must be smaller than
    ``bandwidth``.
    """
    if not bandwidth > 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
    if spacing is None:
        spacing = bandwidth / 10.0
    if not 0 < spacing < bandwidth:
        raise ValidationError(
            f"grid spacing must lie in (0, bandwidth); got {spacing} with bandwidth {bandwidth}"
        )
    if pattern.network is not net:
        raise ValidationError("pattern belongs to a different network")
    from scipy import sparse  # imported here only: `import linnetcox` stays scipy-free
    from scipy.sparse.linalg import splu

    nv = net.n_vertices
    # Node layout: vertices first, then interior nodes edge by edge.
    edge_nodes: list[np.ndarray] = []
    edge_h = np.empty(net.n_edges)
    next_node = nv
    for ei in range(net.n_edges):
        ln = net.edge_length[ei]
        nseg = max(1, round(ln / spacing))
        edge_h[ei] = ln / nseg
        chain = np.empty(nseg + 1, dtype=np.intp)
        chain[0] = net.edge_start[ei]
        chain[-1] = net.edge_end[ei]
        chain[1:-1] = np.arange(next_node, next_node + nseg - 1)
        next_node += nseg - 1
        edge_nodes.append(chain)
    n_nodes = next_node

    rows, cols, vals = [], [], []
    cell = np.zeros(n_nodes)
    for ei in range(net.n_edges):
        chain = edge_nodes[ei]
        h = edge_h[ei]
        a, b = chain[:-1], chain[1:]
        c = 1.0 / h
        rows.extend([a, b, a, b])
        cols.extend([b, a, a, b])
        vals.extend([np.full(a.size, -c), np.full(a.size, -c), np.full(a.size, c), np.full(a.size, c)])
        np.add.at(cell, a, h / 2.0)
        np.add.at(cell, b, h / 2.0)
    lap = sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    )
    mass = sparse.diags(cell, format="csc")

    f = np.zeros(n_nodes)
    for ei, off in zip(pattern.edge_indices, pattern.offsets):
        chain = edge_nodes[ei]
        h = edge_h[ei]
        pos = off / h
        left = min(int(pos), chain.size - 2)
        frac = pos - left
        f[chain[left]] += (1.0 - frac) / cell[chain[left]]
        f[chain[left + 1]] += frac / cell[chain[left + 1]]

    total_time = bandwidth**2 / 2.0
    dt = total_time / steps
    solver = splu(mass + (dt / 2.0) * lap)
    right_cn = mass - (dt / 2.0) * lap
    # Damped startup: four backward-Euler half steps (covers the first two
    # full steps) suppress oscillations from the point-mass initial data.
    startup = min(2, steps)
    for _ in range(2 * startup):
        f = solver.solve(mass @ f)
    for _ in range(steps - startup):
        f = solver.solve(right_cn @ f)

    offsets_out, values_out = [], []
    for ei in range(net.n_edges):
        chain = edge_nodes[ei]
        offsets_out.append(edge_h[ei] * np.arange(chain.size))
        values_out.append(f[chain].copy())
    return IntensityEstimate(net, offsets_out, values_out, float(bandwidth), float(spacing))


def _intensity_at_points(
    net: LinearNetwork, pattern: PointPattern, intensity
) -> tuple[np.ndarray, float | None]:
    """Per-point intensity values plus the network-wide minimum if known."""
    if intensity is None:
        intensity = fit_intensity_mle(pattern)
    if isinstance(intensity, (int, float)):
        intensity = IntensityModel(float(intensity), float(intensity))
    if isinstance(intensity, IntensityModel):
        rho = np.where(
            net.edge_side[pattern.edge_indices], intensity.side, intensity.main
        )
        return rho, intensity.min_positive(net)
    if isinstance(intensity, IntensityEstimate):
        return intensity.at_points(pattern), None
    rho = np.asarray(intensity, dtype=np.float64)
    if rho.shape != (pattern.n,):
        raise ValidationError(
            f"intensity array must have one value per point, got shape {rho.shape}"
        )
    return rho, None


# -- theoretical second-order functions ------------------------------------


def _alpha(sigma2: float) -> float:
    return (sigma2 / (1.0 + sigma2)) ** 2


def pair_correlation(model: CoxModel, t) -> np.ndarray:
    """Pair correlation of the thinned-Cox model at lag ``t``.

    Depends on the lag only through the network distance; equals
    ``(1 - alpha * exp(-2 beta t)) ** (-k/2)`` with
    ``alpha = (sigma2 / (1 + sigma2)) ** 2``. Decreases from
    ``(1 - alpha) ** (-k/2)`` at 0 to 1, so the model is clustered at
    short range.
    """
    t = np.asarray(t, dtype=np.float64)
    a = _alpha(model.sigma2)
    x = -np.expm1(math.log(a) - 2.0 * model.beta * t)
    return x ** (-model.k / 2.0)


def _k_closed_form(r: np.ndarray, sigma2: float, beta: float, k: int) -> np.ndarray:
    a = _alpha(sigma2)
    x = -np.expm1(math.log(a) - 2.0 * beta * r)   # 1 - a e^{-2 b r}, stably
    x0 = 1.0 - a
    if k == 1:
        s, s0 = np.sqrt(x), math.sqrt(x0)
        return r + (np.log1p(s) - math.log1p(s0)) / beta
    if k == 2:
        return r + (np.log(x) - math.log(x0)) / (2.0 * beta)
    if k == 3:
        s, s0 = np.sqrt(x), math.sqrt(x0)
        return r + (np.log1p(s) - 1.0 / s - math.log1p(s0) + 1.0 / s0) / beta
    if k == 4:
        return r + (np.log(x) - 1.0 / x - math.log(x0) + 1.0 / x0) / (2.0 * beta)
    if k == 5:
        s, s0 = np.sqrt(x), math.sqrt(x0)
        term = np.log1p(s) - 1.0 / s - 1.0 / (3.0 * s**3)
        term0 = math.log1p(s0) - 1.0 / s0 - 1.0 / (3.0 * s0**3)
        return r + (term - term0) / beta
    raise ValidationError(f"no closed form for k={k}")


def k_function(model: CoxModel, r) -> np.ndarray:
    """Cumulative second-order function ``K(r)`` of the thinned-Cox model.

    ``K(r)`` integrates the pair correlation from 0 to ``r``; for a
    Poisson process it equals ``r``. Closed forms are used for
    ``k <= 5``; larger ``k`` falls back to adaptive quadrature.
    """
    rr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if (rr < 0).any():
        raise ValidationError("r must be nonnegative")
    if model.k <= 5:
        out = _k_closed_form(rr, model.sigma2, model.beta, model.k)
    else:
        from scipy import integrate  # imported here only: `import linnetcox` stays scipy-free

        out = np.empty(rr.shape)
        for i, ri in enumerate(rr):
            val, _ = integrate.quad(
                lambda t: float(pair_correlation(model, t)),
                0.0,
                float(ri),
                epsabs=1e-12,
                epsrel=1e-10,
                limit=200,
            )
            out[i] = val
    if np.isscalar(r) or getattr(r, "ndim", 0) == 0:
        return float(out[0])
    return out


# -- second-order estimators ------------------------------------------------


@dataclass(frozen=True)
class PairData:
    """Distances and weights of all ordered point pairs of a pattern.

    The weight of pair ``(u, v)`` is ``1 / (rho(u) rho(v) m(u, d(u, v)))``
    where ``m`` is the exact sphere count; dividing by it corrects for the
    network geometry so that sums over pairs estimate integrals of the
    pair correlation.
    """

    distances: np.ndarray
    weights: np.ndarray
    total_length: float
    n_points: int


def second_order_pairs(pattern: PointPattern, intensity=None) -> PairData:
    """Pair distances/weights feeding the ``K`` and ``g`` estimators.

    ``intensity`` may be None (branch-wise maximum likelihood plug-in), a
    float, an :class:`IntensityModel`, an :class:`IntensityEstimate`, or a
    per-point array.
    """
    net = pattern.network
    rho, _ = _intensity_at_points(net, pattern, intensity)
    if pattern.n and not (rho > 0).all():
        raise ValidationError("intensity must be positive at every data point")
    n = pattern.n
    if n < 2:
        return PairData(np.empty(0), np.empty(0), net.total_length, n)
    dist = distance_matrix(pattern)
    counts = _sphere_count_matrix(net, pattern.edge_indices, pattern.offsets, dist)
    off_diag = ~np.eye(n, dtype=bool)
    if (counts[off_diag] <= 0).any():
        raise NumericalError("sphere count vanished at an observed pair distance")
    weights = 1.0 / (rho[:, None] * rho[None, :] * counts)
    return PairData(dist[off_diag], weights[off_diag], net.total_length, n)


def k_from_pairs(pairs: PairData, r: np.ndarray) -> np.ndarray:
    """Empirical ``K`` at radii ``r`` from precomputed pair data."""
    r = np.asarray(r, dtype=np.float64)
    if pairs.distances.size == 0:
        return np.zeros(r.shape)
    order = np.argsort(pairs.distances, kind="stable")
    d_sorted = pairs.distances[order]
    cum_w = np.cumsum(pairs.weights[order])
    idx = np.searchsorted(d_sorted, r, side="right")
    out = np.where(idx > 0, cum_w[np.maximum(idx - 1, 0)], 0.0)
    return out / pairs.total_length


def g_from_pairs(
    pairs: PairData, r: np.ndarray, bandwidth: float, chunk: int = 4096
) -> np.ndarray:
    """Empirical pair correlation: Epanechnikov kernel, reflected at 0.

    Reflection adds the mirrored kernel ``kappa(r + d)`` so mass that
    would smooth below ``r = 0`` is folded back, removing the boundary
    deficit near the origin.
    """
    r = np.asarray(r, dtype=np.float64)
    if not bandwidth > 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
    out = np.zeros(r.shape)
    if pairs.distances.size == 0:
        return out
    b = float(bandwidth)
    keep = pairs.distances <= r.max() + b
    d = pairs.distances[keep]
    w = pairs.weights[keep]
    for i0 in range(0, d.size, chunk):
        dd = d[i0 : i0 + chunk][None, :]
        ww = w[i0 : i0 + chunk][None, :]
        x1 = r[:, None] - dd
        x2 = r[:, None] + dd
        kern = np.where(np.abs(x1) <= b, 1.0 - (x1 / b) ** 2, 0.0)
        kern += np.where(np.abs(x2) <= b, 1.0 - (x2 / b) ** 2, 0.0)
        out += (ww * kern).sum(axis=1)
    return 0.75 / b * out / pairs.total_length


def _pattern_bandwidth(pattern: PointPattern, intensity=None) -> float:
    """:func:`default_bandwidth` at the mean intensity over the pattern's points."""
    rho, _ = _intensity_at_points(pattern.network, pattern, intensity)
    mean_rho = float(rho.mean()) if rho.size else pattern.n / pattern.network.total_length
    return default_bandwidth(mean_rho)


def k_estimate(pattern: PointPattern, intensity=None, r=None) -> SummaryCurve:
    """Geometrically corrected empirical ``K`` function."""
    net = pattern.network
    r = default_r_grid(net) if r is None else np.asarray(r, dtype=np.float64)
    pairs = second_order_pairs(pattern, intensity)
    values = k_from_pairs(pairs, r)
    return SummaryCurve("K", r, values, np.ones(r.shape, dtype=bool), {"n": pattern.n})


def g_estimate(
    pattern: PointPattern, intensity=None, r=None, bandwidth: float | None = None
) -> SummaryCurve:
    """Geometrically corrected empirical pair correlation."""
    net = pattern.network
    r = default_r_grid(net) if r is None else np.asarray(r, dtype=np.float64)
    if bandwidth is None:
        bandwidth = _pattern_bandwidth(pattern, intensity)
    pairs = second_order_pairs(pattern, intensity)
    values = g_from_pairs(pairs, r, bandwidth)
    return SummaryCurve(
        "g", r, values, np.ones(r.shape, dtype=bool), {"bandwidth": float(bandwidth), "n": pattern.n}
    )


# -- F, G, J ------------------------------------------------------------


@dataclass
class FgjConfig:
    """Configuration of the empty-space / nearest-neighbour estimators.

    ``intensity`` follows the same conventions as the second-order
    estimators (None means plug-in maximum likelihood). ``rho_bar`` must
    be a positive lower bound of the intensity; when omitted it defaults
    to the smallest branch intensity, which requires a branch-wise
    intensity source. ``r_min`` marks cells below it undefined (useful
    when very short distances are unreliable).
    """

    intensity: object = None
    rho_bar: float | None = None
    lattice_spacing: float = 0.5
    r_min: float = 0.0


@dataclass
class FgjCurves:
    F: SummaryCurve
    G: SummaryCurve
    J: SummaryCurve


def _erosion_curve(
    dist: np.ndarray, factors: np.ndarray, leaf: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``1 -`` the mean, over rows ``i`` with ``leaf[i] > r``, of the product
    of ``factors[j]`` over ``dist[i, j] <= r``; NaN and not ``defined`` where
    no row qualifies. Each row's products accumulate in distance order
    behind a leading one; the column to read at ``r`` is ``#{d <= r}``,
    counted by binning the row-sorted distances into ``r`` sorted once.
    """
    (m, n), shape, r = dist.shape, r.shape, r.ravel()
    order = np.argsort(dist, axis=1, kind="stable")
    sorted_dist = np.take_along_axis(dist, order, axis=1)
    products = np.ones((m, n + 1))
    products[:, 1:] = factors[order]
    del order
    np.cumprod(products, axis=1, out=products)
    r_order = np.argsort(r, kind="stable")
    # bin j of row i: distances with r_sorted[j - 1] < d <= r_sorted[j]
    bins = np.searchsorted(r[r_order], sorted_dist)
    del sorted_dist
    bins += (r.size + 1) * np.arange(m)[:, None]
    counts = np.bincount(bins.ravel(), minlength=m * (r.size + 1)).reshape(m, r.size + 1)
    within = counts.cumsum(axis=1)[:, np.argsort(r_order)]  # #{d <= r}, in r's own order
    eroded = leaf[:, None] > r
    # rows add in order, which a plain sum over a lone contiguous column does
    # not (it adds pairwise); the last running row is the total, if any row
    running = np.where(eroded, np.take_along_axis(products, within, axis=1), 0.0).cumsum(axis=0)
    total = running[-1:].sum(axis=0)
    rows = eroded.sum(axis=0)
    defined = rows > 0
    values = np.where(defined, 1.0 - total / np.maximum(rows, 1), np.nan)
    return values.reshape(shape), defined.reshape(shape)


def fgj_estimates(
    pattern: PointPattern, config: FgjConfig | None = None, r=None
) -> FgjCurves:
    """Empty-space ``F``, nearest-neighbour ``G`` and ratio ``J`` curves.

    ``F`` averages, over lattice points deeper than ``r`` inside the
    network, the product of ``1 - rho_bar / rho(x_j)`` over data points
    within distance ``r``; ``G`` does the same from the data points
    themselves (excluding the point's own contribution); ``J`` is
    ``(1 - G) / (1 - F)``. For an inhomogeneous Poisson process all three
    match their classical stationary shapes, making departures
    diagnostic: ``J < 1`` indicates clustering.

    ``F`` and ``G`` each come from one pass over a whole distance matrix
    (lattice by data; data by data with an infinite diagonal), for ``r`` in
    any order and with repeats. Cells where an estimator's reference set is
    empty or ``r < config.r_min`` (or ``F == 1`` for ``J``) are undefined:
    NaN values with ``defined`` False. An empty pattern yields ``F == 0``
    everywhere it is defined and no ``G``.
    """
    config = config or FgjConfig()
    net = pattern.network
    r = default_r_grid(net) if r is None else np.asarray(r, dtype=np.float64)
    if (r < 0).any():
        raise ValidationError("r must be nonnegative")

    rho, rho_inf = _intensity_at_points(net, pattern, config.intensity)
    if not (rho > 0).all():
        raise ValidationError("intensity must be positive at every data point")
    rho_bar = config.rho_bar if config.rho_bar is not None else rho_inf
    if rho_bar is None:
        raise ValidationError(
            "rho_bar is required when the intensity source is not branch-wise"
        )
    if not rho_bar > 0:
        raise ValidationError(f"rho_bar must be positive, got {rho_bar}")
    if pattern.n and rho_bar > rho.min() * (1 + 1e-12):
        raise ValidationError("rho_bar must not exceed the intensity at any data point")

    factors = 1.0 - rho_bar / rho
    grid = PointPattern(net, lattice(net, config.lattice_spacing))
    # F from the lattice points; G from the data points, each point's own
    # distance set to inf so that it sorts last and is never within r.
    f_values, f_defined = _erosion_curve(pairwise_distances(net, grid, pattern), factors,
                                         leaf_distances(net, grid), r)
    d_data = distance_matrix(pattern)
    np.fill_diagonal(d_data, np.inf)
    g_values, g_defined = _erosion_curve(d_data, factors, leaf_distances(net, pattern), r)

    early = r < config.r_min
    for values, defined in ((f_values, f_defined), (g_values, g_defined)):
        values[early], defined[early] = np.nan, False

    j_defined = f_defined & g_defined & (1.0 - f_values > 0)
    j_values = np.full(r.shape, np.nan)
    j_values[j_defined] = (1.0 - g_values[j_defined]) / (1.0 - f_values[j_defined])

    meta = {
        "rho_bar": float(rho_bar),
        "lattice_spacing": float(config.lattice_spacing),
        "n": pattern.n,
    }
    return FgjCurves(
        F=SummaryCurve("F", r, f_values, f_defined, dict(meta)),
        G=SummaryCurve("G", r, g_values, g_defined, dict(meta)),
        J=SummaryCurve("J", r, j_values, j_defined, dict(meta)),
    )
