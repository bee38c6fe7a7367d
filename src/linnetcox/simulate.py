"""Simulation of Poisson and thinned-Cox point processes on networks.

The Cox simulator follows the model's construction directly: draw the
driving Poisson process, evaluate ``k`` independent Gaussian fields with
exponential correlation in the network metric, form the retention field
``exp(-sigma2/2 * sum_j Z_j**2)``, and keep each driving point ``u`` whose
retention value is at least an independent uniform mark.

Two evaluation modes are available. ``"exact"`` samples the fields jointly
at the driving points themselves (no discretisation error). ``"grid"``
samples the fields once on a lattice and assigns each driving point the
value at its nearest lattice site — useful when the same field realisation
must be reported or reused, as ``--save-pi`` does. Both draw the fields by
one walk from the root to the leaves, without forming a matrix. The walk
and the lattice are laid out by :mod:`linnetcox.network` (``_walk``,
``_lattice``), which the kernel intensity and the vertex distances share.
Distances decide nearest sites; exact ties go to the site with the lowest
edge id, then the lowest offset.

All functions are deterministic given a seed: the same seed yields
bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .models import CoxModel, IntensityModel
from .network import (
    LinearNetwork,
    PointPattern,
    _lattice,
    _pairs_within,
    _recurrence,
    _walk,
    pairwise_distances,  # noqa: F401  (perfbench/spans.py wraps it by this name)
)

__all__ = [
    "GRFSample",
    "CoxSample",
    "as_generator",
    "spawn_generators",
    "simulate_poisson",
    "sample_grf",
    "retention_field",
    "simulate_cox",
    "matern_thin",
]


def _seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` as a SeedSequence; a negative or non-integer seed is a ValidationError."""
    try:
        return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        raise ValidationError(f"seed must be None or a nonnegative integer, got {seed!r}") from None


def as_generator(seed) -> np.random.Generator:
    """Coerce ``None`` / int / SeedSequence / Generator to a Generator."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(_seed_sequence(seed))


def spawn_generators(seed, n: int) -> list[np.random.Generator]:
    """Independent replicate streams from one master seed.

    Streams are spawned from a single ``SeedSequence``, so replicate ``i``
    is reproducible independently of how many replicates run or in which
    order they are consumed.
    """
    if n < 0:
        raise ValidationError(f"number of replicates must be nonnegative, got {n}")
    return [np.random.default_rng(c) for c in _seed_sequence(seed).spawn(n)]


@dataclass(frozen=True)
class GRFSample:
    """Joint draw of ``k`` Gaussian fields at a finite set of sites.

    ``values[j, i]`` is field ``j`` at ``sites[i]``. Coincident sites get
    exactly equal values.
    """

    sites: PointPattern
    values: np.ndarray
    beta: float


@dataclass(frozen=True)
class CoxSample:
    """Result of one thinned-Cox simulation.

    ``pattern`` is the observed (thinned) process. ``driving`` is the
    underlying Poisson realisation and ``retention`` its per-point
    retention probabilities. In grid mode, ``sites``/``site_retention``
    hold the lattice and the retention field on it.
    """

    pattern: PointPattern
    driving: PointPattern
    retention: np.ndarray
    mode: str
    sites: PointPattern | None = None
    site_retention: np.ndarray | None = None
    spacing: float | None = None


def simulate_poisson(net: LinearNetwork, intensity, seed=None) -> PointPattern:
    """Draw an inhomogeneous Poisson process with branch-wise intensity.

    ``intensity`` is an :class:`IntensityModel` or a single float (used on
    both branch types). The total count is Poisson with mean
    ``rho_m * |L_m| + rho_s * |L_s|``; locations are independent and
    uniform within edges chosen proportionally to ``rho * length``.
    """
    if isinstance(intensity, (int, float)):
        intensity = IntensityModel(float(intensity), float(intensity))
    rng = as_generator(seed)
    rho_e = np.where(net.edge_side, intensity.side, intensity.main)
    w = rho_e * net.edge_length
    mu = float(w.sum())
    if mu <= 0.0:
        return PointPattern(net, [])
    try:
        n = int(rng.poisson(mu))
    except ValueError:  # numpy draws no count above about 9.2e18
        raise ValidationError(f"the expected count {mu!r} is too large to draw") from None
    eidx = rng.choice(net.n_edges, size=n, p=w / mu)
    off = rng.random(n) * net.edge_length[eidx]
    return PointPattern.from_indices(net, eidx, off)


def _grf_values(net, eidx, off, beta, k, rng) -> np.ndarray:
    """Joint field values at the canonical sites ``(eidx, off)``, shape (k, n), along the walk
    of :func:`network._walk`: a step ``d`` past the one before it on its path to the root is
    ``X = rho * X_before + sqrt(1 - rho**2) * z``, ``rho = exp(-beta * d)`` (``d = inf`` at the
    root), so a coincident site, at ``d = 0``, copies the value; ``z`` is ``n + V`` standard
    normals per field, in walk order."""
    n = eidx.size
    if n == 0:
        return np.empty((k, 0))
    rank, pred, d, _ = _walk(net, eidx, off)
    b = np.sqrt(-np.expm1(-2.0 * beta * d))[:, None] * rng.standard_normal((d.size, k))
    return _recurrence(pred, np.exp(-beta * d), b)[rank[:n]].T


def sample_grf(net: LinearNetwork, sites, beta: float, k: int = 1, seed=None) -> GRFSample:
    """Sample ``k`` independent unit-variance Gaussian fields at ``sites``.

    The fields have correlation ``exp(-beta * d(u, v))`` in the
    shortest-path metric, which is a valid correlation on trees because
    the field is Markov along every path. So one walk from the root to the
    leaves draws it exactly: each vertex in preorder, after the sites on
    the edge to its parent in order from the parent end, each from the
    step before it on its path to the root. The draw is ``L @ z`` for the
    Cholesky factor ``L`` of that correlation in walk order and ``n + V``
    standard normals ``z``; coincident sites get equal values. No matrix
    is formed, and time and memory are linear in the sites plus the
    vertices.
    """
    if not 0.0 < beta < math.inf:
        raise ValidationError(f"beta must be positive and finite, got {beta}")
    if not (isinstance(k, int) and k >= 1):
        raise ValidationError(f"k must be an integer >= 1, got {k}")
    pat = sites if isinstance(sites, PointPattern) else PointPattern(net, sites)
    rng = as_generator(seed)
    values = _grf_values(net, pat.edge_indices, pat.offsets, beta, k, rng)
    return GRFSample(pat, values, float(beta))


def retention_field(grf, sigma2: float) -> np.ndarray:
    """Retention probabilities ``exp(-sigma2/2 * sum_j Z_j(u)**2)``.

    ``grf`` is a :class:`GRFSample` or a raw ``(k, n)`` value array. The
    result lies in ``(0, 1]`` with mean ``(1 + sigma2) ** (-k/2)``.
    """
    if not 0.0 < sigma2 < math.inf:
        raise ValidationError(f"sigma2 must be positive and finite, got {sigma2}")
    values = grf.values if isinstance(grf, GRFSample) else np.asarray(grf)
    return np.exp(-0.5 * sigma2 * (values**2).sum(axis=0))


def _sorted_lattice_arrays(net, spacing):
    """Lattice sites sorted by (edge id, offset) for deterministic ties."""
    e, o = _lattice(net, spacing)
    order = np.lexsort((o, net._edge_rank[e]))
    return e[order], o[order]


def _nearest_sites(net, e, o, se, so) -> np.ndarray:
    """Position in the sorted lattice ``(se, so)`` of each point's nearest
    site.

    Both ends of a point's edge are lattice sites, and on a tree every
    other site lies beyond one of them, so the nearest site is on the
    point's own edge: one sorted search over that edge's site offsets.
    Distances are the differences of offsets that
    :func:`pairwise_distances` takes, and ties go to the earlier position
    (lowest edge id, then lowest offset), as ``argmin`` over all sites
    would.
    """
    ne = net.n_edges
    by_edge = np.argsort(se, kind="stable")
    sb = np.searchsorted(se[by_edge], np.arange(ne + 1))
    ce, co = net._vertex_canon_edge, net._vertex_canon_offset
    vertex_pos = np.where(co == 0.0, by_edge[sb[ce]], by_edge[sb[ce + 1] - 1])
    pt_order = np.argsort(e, kind="stable")
    pb = np.searchsorted(e[pt_order], np.arange(ne + 1))
    nearest = np.empty(e.size, dtype=np.intp)
    for f in np.nonzero(pb[1:] > pb[:-1])[0]:
        pos = by_edge[sb[f]:sb[f + 1]]
        cand = so[pos]
        s, t = net.edge_start[f], net.edge_end[f]
        if ce[s] != f:
            pos, cand = np.r_[vertex_pos[s], pos], np.r_[0.0, cand]
        if ce[t] != f:
            pos, cand = np.r_[pos, vertex_pos[t]], np.r_[cand, net.edge_length[f]]
        idx = pt_order[pb[f]:pb[f + 1]]
        j = np.clip(np.searchsorted(cand, o[idx]), 1, cand.size - 1)
        d_lo, d_hi = o[idx] - cand[j - 1], cand[j] - o[idx]
        take_lo = (d_lo < d_hi) | ((d_lo == d_hi) & (pos[j - 1] < pos[j]))
        nearest[idx] = np.where(take_lo, pos[j - 1], pos[j])
    return nearest


def simulate_cox(
    net: LinearNetwork,
    model: CoxModel,
    mode: str = "exact",
    spacing: float = 1.0,
    seed=None,
) -> CoxSample:
    """Simulate the thinned-Cox process.

    A point ``u`` of the driving Poisson process is retained when
    ``retention(u) >= U`` for an independent uniform ``U``. With
    ``mode="exact"`` the Gaussian fields are evaluated jointly at the
    driving points; with ``mode="grid"`` they are evaluated on a lattice
    with the given ``spacing`` and each driving point uses its nearest
    site's value (ties: lowest edge id, then lowest offset).
    """
    if mode not in ("exact", "grid"):
        raise ValidationError(f"mode must be 'exact' or 'grid', got {mode!r}")
    rng = as_generator(seed)
    driving = simulate_poisson(net, model.driving_intensity(), rng)
    e, o = driving.edge_indices, driving.offsets

    if mode == "exact":
        values = _grf_values(net, e, o, model.beta, model.k, rng)
        pi = retention_field(values, model.sigma2)
        sites = None
        site_pi = None
    else:
        se, so = _sorted_lattice_arrays(net, spacing)
        values = _grf_values(net, se, so, model.beta, model.k, rng)
        site_pi = retention_field(values, model.sigma2)
        sites = PointPattern.from_indices(net, se, so)
        pi = site_pi[_nearest_sites(net, e, o, se, so)]

    keep = pi >= rng.random(driving.n)
    pattern = PointPattern.from_indices(net, e[keep], o[keep])
    return CoxSample(
        pattern=pattern,
        driving=driving,
        retention=pi,
        mode=mode,
        sites=sites,
        site_retention=site_pi,
        spacing=spacing if mode == "grid" else None,
    )


def matern_thin(pattern: PointPattern, h: float) -> PointPattern:
    """Type-I hard-core thinning: drop *both* members of any pair closer
    than ``h``. Points at distance exactly ``h`` survive. Only the pairs
    within ``h`` are read, by one range search."""
    if not h >= 0:
        raise ValidationError(f"hard-core distance must be nonnegative, got {h}")
    rows, cols, d = _pairs_within(pattern.network, pattern, pattern, h, skip_self=True)
    keep = np.ones(pattern.n, dtype=bool)
    keep[rows[d < h]] = keep[cols[d < h]] = False  # d(u, v) and d(v, u) can differ in the last bit
    return PointPattern.from_indices(pattern.network, pattern.edge_indices[keep], pattern.offsets[keep])
