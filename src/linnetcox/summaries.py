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
    _lattice,
    _pair_chunks,
    _pairs_within,
    _point_arrays,
    _recurrence,
    _sphere_count_matrix,
    _walk,
    distance_matrix,  # noqa: F401  (perfbench/spans.py wraps it by this name)
    lattice,  # noqa: F401  (perfbench/spans.py wraps it by this name)
    leaf_distances,
    pairwise_distances,  # noqa: F401  (perfbench/spans.py wraps it by this name)
)

__all__ = [
    "SummaryCurve", "PairData", "FgjConfig", "FgjCurves", "IntensityEstimate",
    "default_r_grid", "default_bandwidth", "fit_intensity_mle", "kernel_intensity",
    "pair_correlation", "k_function", "second_order_pairs", "k_from_pairs", "g_from_pairs",
    "second_order_estimates", "k_estimate", "g_estimate", "fgj_estimates",
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


def default_r_grid(net: LinearNetwork) -> np.ndarray:
    """The 512 evenly spaced radii from 0 to ``0.2 |L|``."""
    return np.linspace(0.0, 0.2 * net.total_length, 512)


def default_bandwidth(mean_intensity: float) -> float:
    """Rule-of-thumb kernel bandwidth ``0.15 / sqrt(mean intensity)``; g's
    default bandwidth is this rule at ``n / |L|``."""
    if not mean_intensity > 0:
        raise ValidationError("mean intensity must be positive for the bandwidth rule")
    return 0.15 / math.sqrt(mean_intensity)


def _default_g_bandwidth(pattern: PointPattern) -> float:
    """The default g bandwidth of the estimates and of the minimum-contrast fit:
    :func:`default_bandwidth` at ``n / |L|``, taken as the maximum-likelihood
    expected count over ``|L|``."""
    net = pattern.network
    return default_bandwidth(fit_intensity_mle(pattern).expected_count(net) / net.total_length)


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
        """``np.interp`` on each point's own edge grid, for all points by one search."""
        e, o = _point_arrays(self.network, pts)
        x, y = np.concatenate(self.edge_offsets), np.concatenate(self.edge_values)
        ids = np.repeat(np.arange(len(self.edge_offsets)), [off.size for off in self.edge_offsets])
        slope = np.zeros(x.size)  # zero at each edge's last node, which keeps its value
        np.divide(np.diff(y), np.diff(x), out=slope[:-1], where=ids[1:] == ids[:-1])
        key = [("e", np.intp), ("o", np.float64)]  # ordered by edge, then offset
        j = np.searchsorted(np.rec.fromarrays([ids, x], dtype=key),
                            np.rec.fromarrays([e, o], dtype=key), side="right") - 1
        return slope[j] * (o - x[j]) + y[j]

    def integral(self) -> float:
        return sum(float((np.diff(off) * (val[1:] + val[:-1]) / 2.0).sum())  # trapezoid rule
                   for off, val in zip(self.edge_offsets, self.edge_values))


_HEAT_STEPS = 64  # time steps of the diffusion, the first two backward Euler


def kernel_intensity(net: LinearNetwork, pattern: PointPattern, bandwidth: float,
                     spacing: float | None = None) -> IntensityEstimate:
    """Heat-kernel intensity estimate on the network.

    Each data point contributes a unit of mass diffused for time
    ``bandwidth**2 / 2``, which on an isolated line yields a Gaussian
    profile with standard deviation ``bandwidth``. Diffusion runs on a
    finite-volume discretisation of the network with flux conservation at
    junctions, so the estimate integrates to the point count exactly and
    mass spreads across junctions rather than leaking. Time stepping is
    implicit, 64 steps (four damped backward-Euler half steps, then
    Crank-Nicolson), unconditionally stable. The grid nodes form a tree,
    laid out by the network's root-to-leaf walk (the Gaussian field's, with
    the interior nodes as its sites), so the system ``mass + (dt/2)
    Laplacian`` is factored once by eliminating nodes from the leaves up,
    with no fill, and each solve is one sweep up and one down the walk.

    ``spacing`` defaults to ``bandwidth / 10`` and must be smaller than
    ``bandwidth``.
    """
    if not (bandwidth > 0 and math.isfinite(bandwidth * bandwidth)):
        raise ValidationError(f"bandwidth must be positive with a finite diffusion time, got {bandwidth}")
    if spacing is None:
        spacing = bandwidth / 10.0
    if not 0 < spacing < bandwidth:
        raise ValidationError(
            f"grid spacing must lie in (0, bandwidth); got {spacing} with bandwidth {bandwidth}"
        )
    if pattern.network is not net:
        raise ValidationError("pattern belongs to a different network")
    with np.errstate(over="ignore"):  # an overflowing count is rejected, not warned about
        nseg = np.maximum(1.0, np.rint(net.edge_length / spacing))
        if float(nseg.sum()) + 1 > np.iinfo(np.intp).max:
            raise ValidationError(f"grid spacing {spacing} makes too many grid nodes")
    nseg = nseg.astype(np.intp)
    h = net.edge_length / nseg

    # The grid nodes in walk order (network._walk): each edge's interior nodes (j = 1..nseg-1,
    # as sites) and the vertices. Node i's parent node pred[i] comes before it, one h away.
    e = np.repeat(np.arange(net.n_edges), nseg - 1)
    j = np.arange(e.size) - np.repeat(np.cumsum(nseg - 1) - nseg, nseg - 1)
    rank, pred, _, step = _walk(net, e, h[e] * j)
    n_nodes, link = rank.size, h[step[1:]]  # link: from node i + 1 to its parent node
    cell = np.r_[0.0, link / 2.0] + np.bincount(pred[1:], link / 2.0, minlength=n_nodes)

    # Factor M + cL (c = dt/2) leaves first, with no fill: node i takes w_i^2 / piv_i off its
    # parent's pivot (w = c / link). A solve sweeps y up alike, then x = (y + w x_pred) / piv down.
    w = np.r_[0.0, bandwidth * bandwidth / 2.0 / _HEAT_STEPS / 2.0 / link]
    piv = (cell + w + np.bincount(pred[1:], w[1:], minlength=n_nodes)).tolist()
    upward = list(zip(range(n_nodes - 1, 0, -1), pred[:0:-1].tolist(), w[:0:-1].tolist()))
    for i, p, w_i in upward:
        piv[p] -= w_i * w_i / piv[i]
    upward = [(i, p, w_i / piv[i]) for i, p, w_i in upward]
    piv = np.array(piv)
    down = (pred + 1).tolist(), (w / piv).tolist()  # converted once for every solve

    def solve(r):
        y = r.tolist()
        for i, p, a_i in upward:
            y[p] += a_i * y[i]
        return _recurrence(*down, (np.array(y) / piv)[:, None])[:, 0]

    # Each edge's nodes from its start to its end, all edges end to end; each point's unit of
    # mass goes to the two nodes around it, as density over their cells.
    first = np.cumsum(nseg + 1) - nseg - 1  # each edge's start in `chains`
    chains = np.empty(int(nseg.sum()) + net.n_edges, dtype=np.intp)
    node = rank[e.size:]  # each vertex's node
    chains[first], chains[first + nseg] = node[net.edge_start], node[net.edge_end]
    chains[first[e] + j] = rank[: e.size]
    pos = pattern.offsets / h[pattern.edge_indices]
    left = np.minimum(pos.astype(np.intp), nseg[pattern.edge_indices] - 1)
    at = first[pattern.edge_indices] + left
    ends = chains[np.r_[at, at + 1]]
    f = np.bincount(ends, np.r_[1.0 - (pos - left), pos - left] / cell[ends], minlength=n_nodes)

    # (M + cL)^-1 M is a backward-Euler half step and 2 (M + cL)^-1 M - 1 a Crank-Nicolson
    # step. Four damped half steps (the first two steps) suppress the point masses' ringing.
    for _ in range(4):
        f = solve(cell * f)
    for _ in range(_HEAT_STEPS - 2):
        f = 2.0 * solve(cell * f) - f
    return IntensityEstimate(net, [hi * np.arange(k + 1) for hi, k in zip(h, nseg)],
                             np.split(f[chains], first[1:]), float(bandwidth), float(spacing))


def _intensity_at_points(
    net: LinearNetwork, pattern: PointPattern, intensity
) -> tuple[np.ndarray, float | None]:
    """Per-point intensity values plus the least positive branch intensity if branch-wise."""
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
    return _g_closed_form(_radii(t), model.sigma2, model.beta, model.k)[0]


def _g_closed_form(t: np.ndarray, sigma2: float, beta: float, k: int):
    """``g(t) = x ** (-k/2)`` and ``x = 1 - alpha e^{-2 beta t}``, formed stably
    by ``expm1``, for valid parameters and checked lags."""
    x = -np.expm1(math.log(_alpha(sigma2)) - 2.0 * beta * t)
    return x ** (-k / 2.0), x


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
    k_r = r + (primitive(x, np.log, np.log1p, np.sqrt) - at_zero) / (beta if odd else 2.0 * beta)
    return np.where(r > 0.0, np.maximum(k_r, 0.0), 0.0)  # x(0) rounds two ways: K(0) ~ ±6e-14


def k_function(model: CoxModel, r) -> np.ndarray:
    """Cumulative second-order function ``K(r)`` of the thinned-Cox model.

    ``K(r)`` integrates the pair correlation from 0 to ``r``; for a
    Poisson process it equals ``r``. It has a closed form for every
    ``k``. Radii must be finite and nonnegative.
    """
    out = _k_closed_form(np.atleast_1d(_radii(r)), model.sigma2, model.beta, model.k)
    if np.ndim(r) == 0:
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
    are kept, in row-major order, and only they get a sphere count: each row
    chunk of the range search counts its pairs' spheres from its own sources
    and keeps only their distances and weights.
    """
    net = pattern.network
    if not reach >= 0.0:
        raise ValidationError(f"pair reach must be nonnegative, got {reach}")
    rho, _ = _intensity_at_points(net, pattern, intensity)
    if pattern.n and not (rho > 0).all():
        raise ValidationError("intensity must be positive at every data point")
    e, o, parts = pattern.edge_indices, pattern.offsets, [(np.empty(0), np.empty(0))]
    for sl, rows, cols, d in _pair_chunks(net, pattern, pattern, reach, skip_self=True):
        counts = _sphere_count_matrix(net, e[sl], o[sl], rows, d)
        if (counts <= 0).any():
            raise NumericalError("sphere count vanished at an observed pair distance")
        parts.append((d, 1.0 / (rho[sl][rows] * rho[cols] * counts)))
    return PairData(*(np.concatenate(p) for p in zip(*parts)), net.total_length, reach)


def _radii(r) -> np.ndarray:
    """``r`` as a float array of its own shape, checked finite and nonnegative."""
    r = np.asarray(r, dtype=np.float64)
    if not (np.isfinite(r) & (r >= 0)).all():
        raise ValidationError("r must be finite and nonnegative")
    return r


def _stable_argsort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(x, kind="stable")`` of a 1-d nonnegative ``x`` without NaN, and ``x`` in
    that order, from one in-place sort of 64-bit keys: each value's bits (-0.0 as 0.0), which
    ascend with it, with the low ``b`` bits replaced by its index. A descent left can only lie
    in a group of keys with equal high bits, in index order: two are swapped, more re-sorted."""
    n, b = x.size, max(1, (x.size - 1).bit_length())
    keys = (x + 0.0).view(np.uint64)  # a fresh array, -0.0 as 0.0
    keys &= np.uint64(2**64 - 2**b)  # the low b bits cleared
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    order = keys.view(np.intp)
    order &= 2**b - 1
    ranked = x[order]
    at = np.flatnonzero(ranked[1:] < ranked[:-1])
    if at.size:
        high = (ranked + 0.0).view(np.uint64)
        high >>= np.uint64(b)  # the sorted keys' high bits
        lo, hi = (np.searchsorted(high, high[at], side) for side in ("left", "right"))
        two = lo[hi - lo == 2]
        for a in (order, ranked):
            a[two], a[two + 1] = a[two + 1], a[two].copy()
        lo, size = lo[hi - lo > 2], (hi - lo)[hi - lo > 2]
        at = np.unique(np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size))
        by_value = at[np.argsort(ranked[at], kind="stable")]  # each group keeps its places
        order[at], ranked[at] = order[by_value], ranked[by_value]
    return order, ranked


def _radius_bins(r_sorted: np.ndarray):
    """``bins(x, side="left")``, equal to ``np.searchsorted(r_sorted, x, side)`` for ascending
    finite radii and ``x`` without NaN. One monotone map puts radii and entries in about four
    buckets per radius, so an entry's bin lies among its own bucket's radii: it starts at the
    first and advances by exact comparisons in binary steps, O(log n) on a clustered grid."""
    n = r_sorted.size
    lo, hi = (float(r_sorted[0]), float(r_sorted[-1])) if n else (0.0, 0.0)
    scale = min(4 * n / (hi - lo), 1e300) if hi > lo else 0.0  # finite for a subnormal span

    def bucket(x):
        k = np.clip(x, lo, hi) - lo
        return np.multiply(k, scale, out=k).astype(np.intp)

    start = np.searchsorted(bucket(r_sorted), np.arange(4 * n + 2))  # bucket k: start[k:k + 2]
    steps = [1 << j for j in reversed(range(int(np.diff(start).max()).bit_length()))]
    padded = np.r_[r_sorted, np.nan]  # compares false

    def bins(x, side="left"):
        i, below = start[bucket(x)], np.less if side == "left" else np.less_equal
        for s in steps:
            i = np.where(below(padded[np.minimum(i + s - 1, n)], x), i + s, i)
        return i

    return bins


def k_from_pairs(pairs: PairData, r) -> np.ndarray:
    """Empirical ``K`` at radii ``r`` (any shape) from precomputed pair data: the pairs'
    weights summed in the stable order of their distances (ties in pair order), which
    ``_stable_argsort`` gives with the sorted distances that ``#{d <= r}`` is read from.
    Pairs beyond ``max(r)`` would sort after all others and are never read."""
    r = _radii(r)
    keep = pairs.within(r.max(initial=0.0))
    d, w = pairs.distances, pairs.weights
    if not keep.all():
        d, w = d[keep], w[keep]
    order, ranked = _stable_argsort(d)
    cum_w = np.zeros(d.size + 1)
    np.cumsum(np.take(w, order, out=cum_w[1:], mode="clip"), out=cum_w[1:])  # "clip": unbuffered
    return cum_w[np.searchsorted(ranked, r, side="right")] / pairs.total_length


def _g_reach(r: np.ndarray, bandwidth: float, diameter: float = math.inf) -> float:
    """The farthest pair that g reads at radii ``r``: ``max(r) + bandwidth``. A bandwidth
    so small that g's scale ``0.75 / bandwidth`` overflows is refused with the others, and
    one beyond the network's ``diameter``, which would smooth every pair over every radius."""
    if not (0 < bandwidth < math.inf and math.isfinite(0.75 / float(bandwidth))):
        raise ValidationError(f"bandwidth must be positive and finite, as must 0.75 / bandwidth, "
                              f"got {bandwidth}")
    if bandwidth > diameter:
        raise ValidationError(f"bandwidth {bandwidth} exceeds the network's diameter {diameter}")
    return r.max(initial=0.0) + float(bandwidth)


_G_CHUNK = 4096  # pairs per g chunk; bounds the working memory


def g_from_pairs(pairs: PairData, r, bandwidth: float) -> np.ndarray:
    """Empirical pair correlation at radii ``r`` (any shape): Epanechnikov
    kernel, reflected at 0.

    Reflection adds the mirrored kernel ``kappa(r + d)`` so mass that
    would smooth below ``r = 0`` is folded back, removing the boundary
    deficit near the origin.

    Only the kernel's support is visited: per chunk of pairs and centre ``x = d``
    or ``-d``, the radii within ``2b`` of ``x`` (wide enough that rounding loses none)
    are found by one bucket table of the sorted ``r`` (``_radius_bins``), kept where
    ``|u| <= 1`` for ``u = (r - x) / b``, and ``w (1 - u^2)`` is added into them by
    ``bincount``; ``-d`` only for the pairs it can reach, ``d <= 2b``. Radii that no
    pair reaches are exactly 0.
    """
    r = _radii(r)
    keep = pairs.within(_g_reach(r, bandwidth))
    b, flat = float(bandwidth), r.ravel()
    d, w = pairs.distances[keep], pairs.weights[keep]
    order = np.argsort(flat, kind="stable")
    bins, out = _radius_bins(flat[order]), np.zeros(flat.shape)
    for i0 in range(0, d.size, _G_CHUNK):
        dd, ww = d[i0 : i0 + _G_CHUNK], w[i0 : i0 + _G_CHUNK]
        for x, wx in ((dd, ww), (-dd[dd <= 2 * b], ww[dd <= 2 * b])):
            lo = bins(x - 2 * b)
            n_in = bins(x + 2 * b, "right") - lo
            cols = np.repeat(np.arange(x.size), n_in)
            rows = order[np.arange(cols.size) - np.repeat(np.cumsum(n_in) - n_in - lo, n_in)]
            u = (flat[rows] - x[cols]) / b
            inside = np.abs(u) <= 1.0
            vals = wx[cols[inside]] * (1.0 - u[inside] ** 2)
            out += np.bincount(rows[inside], vals, minlength=flat.size)
    return (0.75 / b * out / pairs.total_length).reshape(r.shape)


def second_order_estimates(pattern: PointPattern, intensity=None, r=None,
                           bandwidth: float | None = None, which=("K", "g")) -> dict:
    """The geometrically corrected empirical ``K`` and pair correlation ``g``
    curves named in ``which``, by name, from one :class:`PairData` out to the
    farther of their reaches (``max(r) + bandwidth`` for ``g``). ``r`` defaults
    to :func:`default_r_grid`; ``g``'s ``bandwidth`` to :func:`default_bandwidth`
    at ``n / |L|``, whatever the ``intensity``, the bandwidth that mce-g fits with."""
    if not set(which) <= {"K", "g"}:
        raise ValidationError(f"second-order curves are 'K' and 'g', got {list(which)}")
    net = pattern.network
    r = default_r_grid(net) if r is None else _radii(r)
    if "g" in which and bandwidth is None:
        bandwidth = _default_g_bandwidth(pattern)
    reach = _g_reach(r, bandwidth, net.diameter) if "g" in which else r.max(initial=0.0)
    pairs = second_order_pairs(pattern, intensity, reach)
    curves = {}
    if "K" in which:
        curves["K"] = SummaryCurve("K", r, k_from_pairs(pairs, r), np.ones(r.shape, dtype=bool),
                                   {"n": pattern.n})
    if "g" in which:
        curves["g"] = SummaryCurve("g", r, g_from_pairs(pairs, r, bandwidth),
                                   np.ones(r.shape, dtype=bool),
                                   {"bandwidth": float(bandwidth), "n": pattern.n})
    return curves


def k_estimate(pattern: PointPattern, intensity=None, r=None) -> SummaryCurve:
    """Geometrically corrected empirical ``K`` function."""
    return second_order_estimates(pattern, intensity, r, which=("K",))["K"]


def g_estimate(
    pattern: PointPattern, intensity=None, r=None, bandwidth: float | None = None
) -> SummaryCurve:
    """Geometrically corrected empirical pair correlation; ``bandwidth``
    defaults to :func:`default_bandwidth` at ``n / |L|``."""
    return second_order_estimates(pattern, intensity, r, bandwidth, ("g",))["g"]


# -- F, G, J ------------------------------------------------------------


@dataclass
class FgjConfig:
    """Configuration of the empty-space / nearest-neighbour estimators.

    ``intensity`` follows the same conventions as the second-order
    estimators (None means plug-in maximum likelihood). ``rho_bar`` must
    be a positive lower bound of the intensity; when omitted it defaults
    to the least positive branch intensity, which requires a branch-wise
    intensity source.
    """

    intensity: object = None
    rho_bar: float | None = None
    lattice_spacing: float = 0.5


@dataclass
class FgjCurves:
    F: SummaryCurve
    G: SummaryCurve
    J: SummaryCurve


_EROSION_BLOCK = 1 << 16  # padded entries per row block of _erosion_curve


def _erosion_curve(pairs: tuple, factors: np.ndarray, leaf: np.ndarray, lb: np.ndarray,
                   r: np.ndarray, r_order: np.ndarray, bins) -> tuple[np.ndarray, np.ndarray]:
    """``1 -`` the mean, over rows ``i`` with ``leaf[i] > r``, of the product
    of ``factors[j]`` over the pairs ``(i, j)`` with ``d <= r`` among the
    row-major ``pairs = (rows, cols, d)``; NaN and not ``defined`` where no row
    qualifies. ``r_order`` is r's stable order and ``bins`` the bucket table of
    the sorted radii (``_radius_bins``). Row ``i`` visits the sorted radii
    ``j < lb[i]``, those below its leaf distance and its nearest zero factor,
    from which on its product is 0, and its pairs reach no farther than the
    last of them. Each cell is read at its ``#{d <= r}``, a running
    count of the distances binned. If the nonzero factors are all one ``q``, that
    count indexes a table of powers, the cumulative product of ``q``s: the bits
    of any sorted product. Otherwise a row sorts its pairs stably and multiplies
    their factors up behind a leading one, in blocks of about ``_EROSION_BLOCK``
    entries, each padded (by inf and 1) only to its own widest row. Then
    ``bincount`` adds each radius's cells in row order: the bits of a row-ordered
    sum over all rows, with zeros where not visited.
    """
    shape, r = r.shape, r.ravel()
    rows, cols, d = pairs
    n_read = np.bincount(rows, minlength=leaf.size)
    pair_at = np.concatenate(([0], np.cumsum(n_read)))  # row i's pairs: pair_at[i]:pair_at[i + 1]
    cell_at = np.concatenate(([0], np.cumsum(lb)))  # and its cells, in row-major order
    cell_rows = np.repeat(np.arange(leaf.size), lb)
    cell_r = np.arange(cell_rows.size) - cell_at[cell_rows]
    # a distance in bin j (between sorted radii j - 1 and j, up to j) counts from cell (row, j) on
    within = np.cumsum(np.bincount(cell_at[rows] + bins(d), minlength=cell_rows.size)) - pair_at[cell_rows]
    nonzero = np.unique(factors[factors != 0.0])
    if nonzero.size <= 1:  # q is nonzero.sum(), and any q serves if there is none
        cell_products = np.cumprod(np.r_[1.0, np.full(n_read.max(initial=0), nonzero.sum())])[within]
    else:
        cell_products = np.empty(cell_rows.size)
        step = max(1, _EROSION_BLOCK // (n_read.max(initial=0) + 1))
        for i0 in range(0, leaf.size, step):
            i1, width = min(i0 + step, leaf.size), n_read[i0 : i0 + step].max()
            p, c = slice(pair_at[i0], pair_at[i1]), slice(cell_at[i0], cell_at[i1])
            near, near_factors = np.full((i1 - i0, width), np.inf), np.ones((i1 - i0, width))
            at = rows[p] - i0, np.arange(p.start, p.stop) - pair_at[rows[p]]
            near[at], near_factors[at] = d[p], factors[cols[p]]
            products = np.ones((i1 - i0, width + 1))
            products[:, 1:] = np.take_along_axis(near_factors, near.argsort(axis=1, kind="stable"), axis=1)
            np.cumprod(products, axis=1, out=products)
            cell_products[c] = products[cell_rows[c] - i0, within[c]]
    radius = r_order[cell_r]  # a cell's radius in r's own order
    total = np.bincount(radius, cell_products, minlength=r.size)
    alive = leaf.size - np.searchsorted(np.sort(leaf), r, side="right")  # rows with leaf > r
    values = np.where(alive > 0, 1.0 - total / np.maximum(alive, 1), np.nan)
    return values.reshape(shape), (alive > 0).reshape(shape)


@functools.lru_cache(maxsize=1)
def _fgj_lattice(net: LinearNetwork, spacing: float) -> tuple[PointPattern, np.ndarray]:
    """The F lattice and its leaf distances, read-only and kept for the last
    network and spacing, so that an envelope builds them once."""
    grid = PointPattern.from_indices(net, *_lattice(net, spacing))
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

    ``F`` and ``G`` visit only the cells inside the eroded network, for
    ``r`` in any order and with repeats; the lattice is built once per
    network and spacing. A row's product is 0 from its nearest zero-factor
    point on (``rho == rho_bar``, as on the lower branch by default), so each
    lattice or data point visits the radii below its leaf distance and below
    that point, a count taken from one sorted radius table per call. It reads,
    by one range search, the zero-factor points within its largest radius
    below its leaf distance, and by a second the others up to its last
    visited radius. Cells with an empty reference set
    (for ``J`` also ``F == 1``) are undefined: NaN with ``defined`` False.
    An empty pattern yields ``F == 0`` everywhere it is defined and no ``G``.
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
    zero = factors == 0.0

    def pairs_to(pts, columns, reach, skip_self):  # numbered as data points, less own pairs if asked
        idx = np.flatnonzero(columns)
        rows, cols, d = _pairs_within(net, pts, (pattern.edge_indices[idx], pattern.offsets[idx]), reach)
        keep = (idx[cols] != rows) | (not skip_self)
        return rows[keep], idx[cols[keep]], d[keep]

    r_order = np.argsort(r.ravel(), kind="stable")  # one radius table for F and G
    r_below = np.concatenate(([-np.inf], r.ravel()[r_order]))  # r_below[j]: the j-th smallest
    bins = _radius_bins(r_below[1:])

    def curve(pts, leaf, skip_self):
        # row i visits the sorted radii j < lb[i]: it reads the zero-factor points to its last
        # radius below its leaf distance, then the others to the last below the nearest of them
        lb, first_zero = bins(leaf), np.full(leaf.size, np.inf)
        np.minimum.at(first_zero, *pairs_to(pts, zero, r_below[lb], skip_self)[::2])
        lb = np.minimum(lb, bins(first_zero))
        pairs = pairs_to(pts, ~zero, r_below[lb], skip_self)
        return _erosion_curve(pairs, factors, leaf, lb, r, r_order, bins)

    # F from the lattice points; G from the data points, less each point's own pair
    grid, grid_leaf = _fgj_lattice(net, float(config.lattice_spacing))
    f_values, f_defined = curve(grid, grid_leaf, False)
    g_values, g_defined = curve(pattern, leaf_distances(net, pattern), True)

    j_defined = f_defined & g_defined & (1.0 - f_values > 0)
    j_values = np.full(r.shape, np.nan)
    j_values[j_defined] = (1.0 - g_values[j_defined]) / (1.0 - f_values[j_defined])

    meta = {"rho_bar": float(rho_bar), "lattice_spacing": float(config.lattice_spacing), "n": pattern.n}
    curves = {"F": (f_values, f_defined), "G": (g_values, g_defined), "J": (j_values, j_defined)}
    return FgjCurves(**{k: SummaryCurve(k, r, v, ok, dict(meta)) for k, (v, ok) in curves.items()})
