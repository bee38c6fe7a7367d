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
sequential conditioning along the tree, without forming a matrix.
Distances decide nearest sites; exact ties go to the site with the lowest
edge id, then the lowest offset.

All functions are deterministic given a seed: the same seed yields
bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .models import CoxModel, IntensityModel
from .network import (
    LinearNetwork,
    PointPattern,
    distance_matrix,
    lattice,
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
    n = int(rng.poisson(mu))
    eidx = rng.choice(net.n_edges, size=n, p=w / mu)
    off = rng.random(n) * net.edge_length[eidx]
    return PointPattern.from_indices(net, eidx, off)


def _recurrence(a: np.ndarray, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Rows ``x_i = a_i x_{i-1} + b_i`` from ``x_{-1} = x0``, one column at a time on Python
    floats: the IEEE multiply and add of a row-wise numpy loop, without a call per row."""
    x, a = np.empty(b.shape), a.tolist()
    for j, prev in enumerate(x0.tolist()):
        col = []
        for a_i, b_i in zip(a, b[:, j].tolist()):
            prev = a_i * prev + b_i
            col.append(prev)
        x[:, j] = col
    return x


def _conditional_draw(net, ue, uo, beta, z) -> np.ndarray:
    """``L @ z`` for the Cholesky factor ``L`` of ``exp(-beta * d)`` on the
    distinct canonical sites ``(ue, uo)``, sorted by edge index then
    offset, without forming ``L``.

    Row ``i`` of a Cholesky draw is ``X_i = E[X_i | X_<i] + sd_i * z_i``.
    The field is Markov along the tree, so given the sites drawn so far a
    site on edge ``e`` depends only on two Gaussian messages: from the
    previous site on ``e`` (or what reaches ``e``'s start vertex from
    outside ``e``), and what reaches ``e``'s end vertex from outside
    ``e``. A message N(m, v) carried a distance ``d`` becomes
    N(rho * m, rho**2 * v + 1 - rho**2) with ``rho = exp(-beta * d)``;
    messages meeting at a vertex combine by adding precisions in excess of
    the unit prior. Along an edge the draw is :func:`_recurrence`, on Python
    floats, from the start vertex's message.
    """
    ne, length = net.n_edges, net.edge_length
    start, end = net.edge_start.tolist(), net.edge_end.tolist()
    incident = net._incident
    lo = np.searchsorted(ue, np.arange(ne + 1))  # edge f's sites: lo[f]:lo[f+1]
    below = np.where(lo[1:] > lo[:-1], np.arange(ne), ne)
    lo = lo.tolist()
    tiny = np.finfo(np.float64).tiny
    underflow = NumericalError(
        f"conditional variance underflowed to 0 (beta={beta:g} is too small "
        "for the distances between sites)"
    )

    def far(f, w):
        return end[f] if start[f] == w else start[f]

    def carry(m, v, d):
        rho = math.exp(-beta * d)
        return rho * m, rho * rho * v - math.expm1(-2.0 * beta * d)

    # The network's preorder is rooted at edge 0's start. below[f] is the lowest
    # index of an edge with sites among f and everything beyond it away from the root.
    parent = net._parent_edge
    for u in reversed(net._preorder[1:]):
        up = parent[far(parent[u], u)]
        if up >= 0:
            below[up] = min(below[up], below[parent[u]])
    below = below.tolist()

    def drawn(f, cur):
        return f < cur and lo[f] < lo[f + 1]

    def silent(w, f, cur):
        # Nothing is drawn yet beyond w's child edge f: it sends the prior.
        return parent[w] != f and below[f] >= cur

    x = np.empty_like(z)
    known = {}  # vertex -> drawn value, once its canonical site is drawn

    def outside(w0, skip, cur):
        """N(mean, var) at vertex w0 given the drawn sites beyond every
        incident edge but ``skip``. Iterative: paths may be long."""
        walk, stack = [], [(w0, skip)]
        while stack:
            w, via = stack.pop()
            walk.append((w, via))
            if w in known:
                continue
            for f in incident[w]:
                if f != via and not silent(w, f, cur) and not drawn(f, cur):
                    stack.append((far(f, w), f))
        msg = {}
        for w, via in reversed(walk):
            if w in known:
                msg[w] = (known[w], 0.0)
                continue
            prec, eta = 1.0, np.zeros(z.shape[1])
            for f in incident[w]:
                if f == via or silent(w, f, cur):
                    continue
                if drawn(f, cur):
                    # f's site nearest to w screens the rest of the branch.
                    at_start = start[f] == w
                    j = lo[f] if at_start else lo[f + 1] - 1
                    mean, var = carry(x[j], 0.0, uo[j] if at_start else length[f] - uo[j])
                else:
                    mean, var = carry(*msg[far(f, w)], length[f])
                if not var >= tiny:
                    raise underflow
                prec += 1.0 / var - 1.0
                eta = eta + mean / var
            msg[w] = (eta / prec, 1.0 / prec)
        return msg[w0]

    for e in range(ne):
        if lo[e] == lo[e + 1]:
            continue
        m_s, v_s = outside(start[e], e, e)
        m_t, v_t = outside(end[e], e, e)
        o = uo[lo[e]:lo[e + 1]]
        # Left: the previous site, or the start vertex for the first.
        d_l = np.diff(o, prepend=0.0)
        rho_l = np.exp(-beta * d_l)
        v_l = -np.expm1(-2.0 * beta * d_l)
        v_l[0] += rho_l[0] ** 2 * v_s
        # Right: the end vertex, seen from outside e.
        d_r = length[e] - o
        rho_r = np.exp(-beta * d_r)
        v_r = rho_r**2 * v_t - np.expm1(-2.0 * beta * d_r)
        if not min(v_l.min(), v_r.min()) >= tiny:
            raise underflow
        tau = 1.0 / v_l + 1.0 / v_r - 1.0
        a = rho_l / (v_l * tau)
        b = np.outer(rho_r / (v_r * tau), m_t) + z[lo[e]:lo[e + 1]] / np.sqrt(tau)[:, None]
        x[lo[e]:lo[e + 1]] = _recurrence(a, b, m_s)
        if o[0] == 0.0:
            known[start[e]] = x[lo[e]]
        if o[-1] == length[e]:
            known[end[e]] = x[lo[e + 1] - 1]
    return x


def _grf_values(net, eidx, off, beta, k, rng) -> np.ndarray:
    """Joint field values, shape (k, n). Coincident sites share values."""
    n = eidx.size
    if n == 0:
        return np.empty((k, 0))
    # Sites are canonical, so coincident sites are equal pairs: draw once
    # per distinct location, in (edge index, offset) order.
    stacked = np.stack([eidx.astype(np.float64), off])
    uniq, inverse = np.unique(stacked, axis=1, return_inverse=True)
    ue, uo = uniq[0].astype(np.intp), uniq[1]
    z = rng.standard_normal((ue.size, k))
    unique_vals = _conditional_draw(net, ue, uo, beta, z)  # (n_unique, k)
    return unique_vals[np.asarray(inverse).ravel(), :].T


def sample_grf(net: LinearNetwork, sites, beta: float, k: int = 1, seed=None) -> GRFSample:
    """Sample ``k`` independent unit-variance Gaussian fields at ``sites``.

    The fields have correlation ``exp(-beta * d(u, v))`` in the
    shortest-path metric, which is a valid correlation on trees because
    the field is Markov along the tree. The draw is ``L @ z`` for the
    Cholesky factor ``L`` of that correlation on the distinct sites in
    (edge index, offset) order and standard normals ``z``, computed one
    site at a time by conditioning on the sites already drawn: two
    Gaussian messages per site, passed along the tree from the nearest
    drawn sites. No matrix is formed; the cost is linear in the number of
    sites plus the tree walked between them, and memory is linear.

    Raises :class:`NumericalError` when ``beta`` times a distance between
    sites is so small that a conditional variance underflows to 0.
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
    pts = lattice(net, spacing)
    e = np.array([net.edge_index(p.edge_id) for p in pts], dtype=np.intp)
    o = np.array([p.offset for p in pts])
    id_rank = {eid: r for r, eid in enumerate(sorted(net._edge_index))}
    ranks = np.array([id_rank[net.edges[i].id] for i in e])
    order = np.lexsort((o, ranks))
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
    than ``h``. Points at distance exactly ``h`` survive."""
    if not h >= 0:
        raise ValidationError(f"hard-core distance must be nonnegative, got {h}")
    if pattern.n <= 1:
        return PointPattern.from_indices(pattern.network, pattern.edge_indices, pattern.offsets)
    dist = distance_matrix(pattern)
    np.fill_diagonal(dist, np.inf)
    keep = dist.min(axis=1) >= h
    return PointPattern.from_indices(
        pattern.network, pattern.edge_indices[keep], pattern.offsets[keep]
    )
