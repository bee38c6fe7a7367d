"""Summary statistics for point patterns on linear networks.

Implements both directions of the comparison that drives model fitting and
testing:

* *theoretical* second-order functions of the thinned-Cox model — the pair
  correlation ``g0`` and its integral ``K`` (a closed form for every ``k``);
* *empirical* estimators from an observed pattern — intensity (maximum
  likelihood per branch, or kernel-smoothed via heat diffusion on the
  network), the geometrically corrected ``K`` and pair-correlation
  estimators weighted by exact sphere counts, and the empty-space /
  nearest-neighbour / ratio statistics ``F``, ``G``, ``J`` evaluated on an
  eroded network.

Distances are micrometres; intensities are points per micrometre.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .models import CoxModel, IntensityModel
from .network import (
    LinearNetwork,
    PointPattern,
    _pairs_within,
    _sphere_count_matrix,
    distance_matrix,  # noqa: F401  (perfbench/spans.py wraps it by this name)
    lattice,
    leaf_distances,
    pairwise_distances,  # noqa: F401  (perfbench/spans.py wraps it by this name)
)

__all__ = [
    "SummaryCurve", "PairData", "FgjConfig", "FgjCurves", "IntensityEstimate",
    "default_r_grid", "default_bandwidth", "fit_intensity_mle", "kernel_intensity",
    "pair_correlation", "k_function", "second_order_pairs", "k_from_pairs", "g_from_pairs",
    "k_estimate", "g_estimate", "fgj_estimates",
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
    short range. Lags must be finite and nonnegative.
    """
    t = _radii(t)
    a = _alpha(model.sigma2)
    x = -np.expm1(math.log(a) - 2.0 * model.beta * t)
    return x ** (-model.k / 2.0)


def _k_closed_form(r: np.ndarray, sigma2: float, beta: float, k: int) -> np.ndarray:
    """``K(r) = r + (F(x(r)) - F(x(0))) / c`` with ``x(t) = 1 - a e^{-2 beta t}``.

    From ``dt = dx / (2 beta (1 - x))`` and ``1 / (x**m (1 - x)) = 1 / (1 - x)
    + sum_{j=1}^{m} x**-j``: for even ``k``, ``F = log x - sum_{j<k/2} 1 / (j
    x**j)`` and ``c = 2 beta``; for odd ``k``, ``F = log1p(s) - sum_{p=1,3,...,
    k-2} 1 / (p s**p)`` in ``s = sqrt(x)`` and ``c = beta``. The r array goes
    through numpy, ``x(0)`` through ``math``.
    """
    a = _alpha(sigma2)
    odd = k % 2

    def primitive(x, log, log1p, sqrt):
        base = sqrt(x) if odd else x
        out = log1p(base) if odd else log(base)
        for p in range(1, k - 1, 2) if odd else range(1, k // 2):
            out = out - 1.0 / (p * base**p)
        return out

    x = -np.expm1(math.log(a) - 2.0 * beta * r)   # 1 - a e^{-2 b r}, stably
    at_zero = primitive(1.0 - a, math.log, math.log1p, math.sqrt)
    return r + (primitive(x, np.log, np.log1p, np.sqrt) - at_zero) / (beta if odd else 2.0 * beta)


def k_function(model: CoxModel, r) -> np.ndarray:
    """Cumulative second-order function ``K(r)`` of the thinned-Cox model.

    ``K(r)`` integrates the pair correlation from 0 to ``r``; for a
    Poisson process it equals ``r``. It has a closed form for every
    ``k``. Radii must be finite and nonnegative.
    """
    out = _k_closed_form(np.atleast_1d(_radii(r)), model.sigma2, model.beta, model.k)
    if np.isscalar(r) or getattr(r, "ndim", 0) == 0:
        return float(out[0])
    return out


# -- second-order estimators ------------------------------------------------


@dataclass(frozen=True)
class PairData:
    """Distances and weights of a pattern's ordered point pairs within ``reach``.

    The weight of pair ``(u, v)`` is ``1 / (rho(u) rho(v) m(u, d(u, v)))``
    where ``m`` is the exact sphere count; dividing by it corrects for the
    network geometry so that sums over pairs estimate integrals of the
    pair correlation. ``K`` and ``g`` refuse radii that read beyond ``reach``.
    """

    distances: np.ndarray
    weights: np.ndarray
    total_length: float
    n_points: int
    reach: float = math.inf

    def within(self, reach: float) -> np.ndarray:
        """Which pairs lie within ``reach``, which must not exceed the pairs' own."""
        if reach > self.reach:
            raise ValidationError(f"the pairs reach {self.reach}, the estimate needs {reach}")
        return self.distances <= reach


def second_order_pairs(pattern: PointPattern, intensity=None, reach: float = math.inf) -> PairData:
    """Pair distances/weights feeding the ``K`` and ``g`` estimators.

    ``intensity`` may be None (branch-wise maximum likelihood plug-in), a
    float, an :class:`IntensityModel`, an :class:`IntensityEstimate`, or a
    per-point array. Only the ordered pairs with ``d <= reach`` (nonnegative)
    are kept, in row-major order, and only they get a sphere count.
    """
    net = pattern.network
    if not reach >= 0.0:
        raise ValidationError(f"pair reach must be nonnegative, got {reach}")
    rho, _ = _intensity_at_points(net, pattern, intensity)
    if pattern.n and not (rho > 0).all():
        raise ValidationError("intensity must be positive at every data point")
    n = pattern.n
    if n < 2:
        return PairData(np.empty(0), np.empty(0), net.total_length, n, reach)
    rows, cols, dist = _pairs_within(net, pattern, pattern, reach, skip_self=True)
    counts = _sphere_count_matrix(net, pattern.edge_indices, pattern.offsets, rows, dist)
    if (counts <= 0).any():
        raise NumericalError("sphere count vanished at an observed pair distance")
    weights = 1.0 / (rho[rows] * rho[cols] * counts)
    return PairData(dist, weights, net.total_length, n, reach)


def _radii(r) -> np.ndarray:
    """``r`` as a float array of its own shape, checked finite and nonnegative."""
    r = np.asarray(r, dtype=np.float64)
    if not (np.isfinite(r) & (r >= 0)).all():
        raise ValidationError("r must be finite and nonnegative")
    return r


def k_from_pairs(pairs: PairData, r) -> np.ndarray:
    """Empirical ``K`` at radii ``r`` (any shape) from precomputed pair data.
    Pairs beyond ``max(r)`` would sort after all others and are never read."""
    r = _radii(r)
    keep = pairs.within(r.max(initial=0.0))
    order = np.argsort(pairs.distances[keep], kind="stable")
    cum_w = np.concatenate(([0.0], np.cumsum(pairs.weights[keep][order])))
    idx = np.searchsorted(pairs.distances[keep][order], r, side="right")
    return cum_w[idx] / pairs.total_length


def _g_reach(r: np.ndarray, bandwidth: float) -> float:
    """The farthest pair that g reads at radii ``r``: ``max(r) + bandwidth``."""
    if not 0 < bandwidth < math.inf:
        raise ValidationError(f"bandwidth must be positive and finite, got {bandwidth}")
    return r.max(initial=0.0) + float(bandwidth)


_G_CHUNK = 4096  # pairs per g chunk; bounds the working memory


def g_from_pairs(pairs: PairData, r, bandwidth: float) -> np.ndarray:
    """Empirical pair correlation at radii ``r`` (any shape): Epanechnikov
    kernel, reflected at 0.

    Reflection adds the mirrored kernel ``kappa(r + d)`` so mass that
    would smooth below ``r = 0`` is folded back, removing the boundary
    deficit near the origin.

    Only the kernel's support is visited: per chunk of pairs and centre
    ``x = d`` or ``-d``, the radii within ``2b`` of ``x`` (wide enough that
    rounding loses none) are found in the sorted ``r``, kept where
    ``|u| <= 1`` for ``u = (r - x) / b``, and ``w (1 - u^2)`` is added into
    them by ``bincount``. Radii that no pair reaches are exactly 0.
    """
    r = _radii(r)
    keep = pairs.within(_g_reach(r, bandwidth))
    b, flat = float(bandwidth), r.ravel()
    d, w = pairs.distances[keep], pairs.weights[keep]
    order = np.argsort(flat, kind="stable")
    ascending, out = flat[order], np.zeros(flat.shape)
    for i0 in range(0, d.size, _G_CHUNK):
        ww = w[i0 : i0 + _G_CHUNK]
        for x in (d[i0 : i0 + _G_CHUNK], -d[i0 : i0 + _G_CHUNK]):
            lo = np.searchsorted(ascending, x - 2 * b)
            n_in = np.searchsorted(ascending, x + 2 * b, side="right") - lo
            cols = np.repeat(np.arange(x.size), n_in)
            rows = order[np.arange(cols.size) - np.repeat(np.cumsum(n_in) - n_in - lo, n_in)]
            u = (flat[rows] - x[cols]) / b
            inside = np.abs(u) <= 1.0
            vals = ww[cols[inside]] * (1.0 - u[inside] ** 2)
            out += np.bincount(rows[inside], vals, minlength=flat.size)
    return (0.75 / b * out / pairs.total_length).reshape(r.shape)


def _pattern_bandwidth(pattern: PointPattern, intensity=None) -> float:
    """:func:`default_bandwidth` at the mean intensity over the pattern's points."""
    rho, _ = _intensity_at_points(pattern.network, pattern, intensity)
    mean_rho = float(rho.mean()) if rho.size else pattern.n / pattern.network.total_length
    return default_bandwidth(mean_rho)


def k_estimate(pattern: PointPattern, intensity=None, r=None) -> SummaryCurve:
    """Geometrically corrected empirical ``K`` function."""
    net = pattern.network
    r = default_r_grid(net) if r is None else _radii(r)
    pairs = second_order_pairs(pattern, intensity, r.max(initial=0.0))
    values = k_from_pairs(pairs, r)
    return SummaryCurve("K", r, values, np.ones(r.shape, dtype=bool), {"n": pattern.n})


def g_estimate(
    pattern: PointPattern, intensity=None, r=None, bandwidth: float | None = None
) -> SummaryCurve:
    """Geometrically corrected empirical pair correlation."""
    net = pattern.network
    r = default_r_grid(net) if r is None else _radii(r)
    if bandwidth is None:
        bandwidth = _pattern_bandwidth(pattern, intensity)
    pairs = second_order_pairs(pattern, intensity, _g_reach(r, bandwidth))
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


def _last_alive(leaf: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Each row's largest radius below its leaf distance (-inf if none)."""
    r_sorted = np.sort(r.ravel())
    return np.concatenate(([-np.inf], r_sorted))[np.searchsorted(r_sorted, leaf)]


def _erosion_curve(
    pairs: tuple, factors: np.ndarray, leaf: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``1 -`` the mean, over rows ``i`` with ``leaf[i] > r``, of the product
    of ``factors[j]`` over the pairs ``(i, j)`` with ``d <= r`` among the
    row-major ``pairs = (rows, cols, d)``, exactly those within each row's
    largest alive radius (``_last_alive``); NaN and not ``defined`` where no
    row qualifies. Only the alive cells are visited. A row sorts its pairs
    stably and multiplies their factors up behind a leading one; a cell reads
    the product at its ``#{d <= r}``, a running count of the binned distances.
    ``bincount`` adds each radius's cells in row order: the bits of a
    row-ordered sum over all rows, with zeros where not alive.
    """
    shape, r = r.shape, r.ravel()
    r_order = np.argsort(r, kind="stable")
    r_sorted = r[r_order]
    lb = np.searchsorted(r_sorted, leaf)  # row i is alive at sorted radii j < lb[i]
    rows, cols, d = pairs
    n_read = np.bincount(rows, minlength=leaf.size)
    first = np.cumsum(n_read) - n_read
    # the kept distances and their factors row by row, padded by inf and 1
    width = n_read.max(initial=0)
    near, near_factors = np.full((leaf.size, width), np.inf), np.ones((leaf.size, width))
    at = rows, np.arange(rows.size) - first[rows]
    near[at], near_factors[at] = d, factors[cols]
    products = np.ones((leaf.size, width + 1))
    products[:, 1:] = np.take_along_axis(near_factors, np.argsort(near, axis=1, kind="stable"), axis=1)
    np.cumprod(products, axis=1, out=products)
    # alive cells in row-major order; a distance in bin j (r_sorted[j - 1] <
    # d <= r_sorted[j]) counts from cell (row, j) on
    cell_first = np.cumsum(lb) - lb
    cell_rows = np.repeat(np.arange(leaf.size), lb)
    cell_r = np.arange(cell_rows.size) - cell_first[cell_rows]
    hits = np.bincount(cell_first[rows] + np.searchsorted(r_sorted, d), minlength=cell_rows.size)
    within = np.cumsum(hits) - first[cell_rows]
    radius = r_order[cell_r]  # a cell's radius in r's own order
    total = np.bincount(radius, products[cell_rows, within], minlength=r.size)
    alive = np.bincount(radius, minlength=r.size)
    values = np.where(alive > 0, 1.0 - total / np.maximum(alive, 1), np.nan)
    return values.reshape(shape), (alive > 0).reshape(shape)


@functools.lru_cache(maxsize=1)
def _fgj_lattice(net: LinearNetwork, spacing: float) -> tuple[PointPattern, np.ndarray]:
    """The F lattice and its leaf distances, read-only and kept for the last
    network and spacing, so that an envelope builds them once."""
    grid = PointPattern(net, lattice(net, spacing))
    leaf = leaf_distances(net, grid)
    for a in (grid.edge_indices, grid.offsets, leaf):
        a.flags.writeable = False
    return grid, leaf


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

    ``F`` and ``G`` visit only the cells inside the eroded network, each
    lattice or data point reading, by one range search, the data points
    within its largest radius below its leaf distance, for ``r`` in any
    order and with repeats; the lattice is built once per network and
    spacing. Cells with an empty reference set or ``r < config.r_min`` (for
    ``J`` also ``F == 1``) are undefined: NaN with ``defined`` False. An
    empty pattern yields ``F == 0`` everywhere it is defined and no ``G``.
    """
    config = config or FgjConfig()
    net = pattern.network
    r = default_r_grid(net) if r is None else _radii(r)

    rho, rho_inf = _intensity_at_points(net, pattern, config.intensity)
    if not (rho > 0).all():
        raise ValidationError("intensity must be positive at every data point")
    rho_bar = config.rho_bar if config.rho_bar is not None else rho_inf
    if rho_bar is None:
        raise ValidationError("rho_bar is required when the intensity source is not branch-wise")
    if not rho_bar > 0:
        raise ValidationError(f"rho_bar must be positive, got {rho_bar}")
    if pattern.n and rho_bar > rho.min() * (1 + 1e-12):
        raise ValidationError("rho_bar must not exceed the intensity at any data point")

    factors = 1.0 - rho_bar / rho
    grid, grid_leaf = _fgj_lattice(net, float(config.lattice_spacing))
    # F from the lattice points; G from the data points, less each point's own pair
    f_pairs = _pairs_within(net, grid, pattern, _last_alive(grid_leaf, r))
    f_values, f_defined = _erosion_curve(f_pairs, factors, grid_leaf, r)
    data_leaf = leaf_distances(net, pattern)
    g_pairs = _pairs_within(net, pattern, pattern, _last_alive(data_leaf, r), skip_self=True)
    g_values, g_defined = _erosion_curve(g_pairs, factors, data_leaf, r)

    early = r < config.r_min
    for values, defined in ((f_values, f_defined), (g_values, g_defined)):
        values[early], defined[early] = np.nan, False

    j_defined = f_defined & g_defined & (1.0 - f_values > 0)
    j_values = np.full(r.shape, np.nan)
    j_values[j_defined] = (1.0 - g_values[j_defined]) / (1.0 - f_values[j_defined])

    meta = {"rho_bar": float(rho_bar), "lattice_spacing": float(config.lattice_spacing), "n": pattern.n}
    curves = {"F": (f_values, f_defined), "G": (g_values, g_defined), "J": (j_values, j_defined)}
    return FgjCurves(**{k: SummaryCurve(k, r, v, ok, dict(meta)) for k, (v, ok) in curves.items()})
