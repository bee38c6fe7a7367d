"""Linear networks (metric trees) and exact geometry on them.

A linear network is a finite collection of straight segments ("edges")
glued at shared vertices, equipped with the shortest-path metric along the
segments. This package restricts attention to networks without cycles
(trees): several results used elsewhere (validity of exponential
correlation, uniqueness of paths, exact sphere counts from vertex
degrees) hold only in that case, so cycles are rejected at construction
time.

Points live *on* the network: a :class:`NetworkPoint` is an edge id plus an
offset (in micrometres) from the edge's start vertex. Points at a vertex
admit one representation per incident edge; construction canonicalises
them to the incident edge with the lowest id so that equality, hashing and
deduplication behave predictably.

All lengths and offsets are micrometres throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "Vertex",
    "Edge",
    "NetworkPoint",
    "LinearNetwork",
    "PointPattern",
    "shortest_path_distance",
    "pairwise_distances",
    "distance_matrix",
    "leaf_distances",
    "lattice",
    "sphere_count",
]

BRANCH_LABELS = ("main", "side")


@dataclass(frozen=True)
class Vertex:
    """Network vertex. Planar coordinates are optional metadata."""

    id: int | str
    x: float | None = None
    y: float | None = None


@dataclass(frozen=True)
class Edge:
    """Straight segment between two vertices.

    Offsets of points on the edge are measured from ``start``. ``branch``
    labels the edge as part of the main structure or a side structure;
    intensities are modelled per branch type.
    """

    id: int | str
    start: int | str
    end: int | str
    length: float
    branch: str = "main"


@dataclass(frozen=True)
class NetworkPoint:
    """A location on a network: an edge id and an offset from its start.

    Instances produced by :meth:`LinearNetwork.point`,
    :class:`PointPattern`, or any function in this package are canonical:
    a point sitting exactly on a vertex is expressed on the lowest-id
    incident edge. Two canonical points are equal iff they are the same
    location.
    """

    edge_id: int | str
    offset: float


class LinearNetwork:
    """A tree-shaped linear network with precomputed exact geometry.

    Parameters
    ----------
    vertices : iterable of Vertex
    edges : iterable of Edge

    Raises
    ------
    ValidationError
        If ids collide, an edge references a missing vertex, a length is
        not positive and finite, a branch label is unknown, or the network
        is disconnected or contains a cycle.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge]):
        self.vertices: list[Vertex] = list(vertices)
        self.edges: list[Edge] = list(edges)
        if not self.edges:
            raise ValidationError("network must have at least one edge")

        ends = [x for e in self.edges for x in (e.id, e.start, e.end)]
        for x in [v.id for v in self.vertices] + ends:
            try:
                hash(x)
            except TypeError:  # a list or an object, say, read from JSON
                raise ValidationError(f"vertex and edge ids must be hashable, got {x!r}") from None
        self._vertex_index: dict = {}
        for i, v in enumerate(self.vertices):
            if v.id in self._vertex_index:
                raise ValidationError(f"duplicate vertex id {v.id!r}")
            self._vertex_index[v.id] = i
        self._edge_index: dict = {}
        for i, e in enumerate(self.edges):
            if e.id in self._edge_index:
                raise ValidationError(f"duplicate edge id {e.id!r}")
            self._edge_index[e.id] = i

        nv, ne = len(self.vertices), len(self.edges)
        try:  # the edge-id order, which breaks every tie between edges
            by_id = np.array(sorted(range(ne), key=lambda i: self.edges[i].id), dtype=np.intp)
        except TypeError as exc:
            raise ValidationError("edge ids must be mutually orderable") from exc
        self._edge_rank = np.argsort(by_id)  # the inverse permutation
        start = np.empty(ne, dtype=np.intp)
        end = np.empty(ne, dtype=np.intp)
        length = np.empty(ne, dtype=np.float64)
        side = np.empty(ne, dtype=bool)
        for i, e in enumerate(self.edges):
            if e.start not in self._vertex_index:
                raise ValidationError(f"edge {e.id!r} references unknown vertex {e.start!r}")
            if e.end not in self._vertex_index:
                raise ValidationError(f"edge {e.id!r} references unknown vertex {e.end!r}")
            if e.start == e.end:
                raise ValidationError(f"edge {e.id!r} is a self-loop (cycle)")
            if not (isinstance(e.length, (int, float)) and math.isfinite(e.length) and e.length > 0):
                raise ValidationError(f"edge {e.id!r} has nonpositive or nonfinite length {e.length!r}")
            if e.branch not in BRANCH_LABELS:
                raise ValidationError(f"edge {e.id!r} has unknown branch label {e.branch!r}")
            start[i] = self._vertex_index[e.start]
            end[i] = self._vertex_index[e.end]
            length[i] = float(e.length)
            side[i] = e.branch == "side"
        self.edge_start = start
        self.edge_end = end
        self.edge_length = length
        self.edge_side = side

        self._incident: list[list[int]] = [[] for _ in range(nv)]
        for i in range(ne):
            self._incident[start[i]].append(i)
            self._incident[end[i]].append(i)

        # Connectivity / acyclicity. A connected graph on nv vertices with
        # ne undirected edges is a tree iff ne == nv - 1.
        up, order, stack, n_comp = [-2] * nv, [], [], 0  # up[v]: edge to v's parent, -1 at a root
        for root in (int(start[0]), *range(nv)):  # rooted at edge 0's start, as the GRF draw expects
            if up[root] == -2:  # no earlier search reached it: a new component
                n_comp, up[root], stack = n_comp + 1, -1, [root]
            while stack:  # depth first, so `order` is a preorder
                v = stack.pop()
                order.append(v)
                for ei in self._incident[v]:
                    w = int(start[ei] + end[ei]) - v
                    if up[w] == -2:
                        up[w] = ei
                        stack.append(w)
        if n_comp > 1:
            raise ValidationError(f"network is disconnected ({n_comp} components)")
        if ne != nv - 1:
            raise ValidationError("network contains a cycle; only trees are supported")

        with np.errstate(over="ignore"):  # an overflowing sum is refused, not warned about
            self.total_length = float(length.sum())
        if not math.isfinite(self.total_length):
            raise ValidationError("the network's total edge length overflows a float")
        self._preorder, self._parent_edge = order, up
        self.vertex_distance_matrix = D = self._tree_distances()
        self.diameter = float(D.max())  # two points lie farthest apart at two leaves
        # E x E least distance between two edges: their nearest endpoint pair
        self._edge_gap = np.minimum(np.minimum(D[np.ix_(start, start)], D[np.ix_(start, end)]),
                                    np.minimum(D[np.ix_(end, start)], D[np.ix_(end, end)]))

        self.degrees = np.array([len(inc) for inc in self._incident], dtype=np.int64)
        self.leaf_vertices = np.nonzero(self.degrees == 1)[0]
        # Distance from each vertex to the nearest degree-1 vertex.
        self.vertex_leaf_distance = self.vertex_distance_matrix[:, self.leaf_vertices].min(axis=1)

        # Canonical on-edge representation of each vertex: the incident
        # edge with the lowest id, and the offset of the vertex on it.
        lowest = np.full(nv, ne, dtype=np.intp)
        np.minimum.at(lowest, start, self._edge_rank)
        np.minimum.at(lowest, end, self._edge_rank)
        self._vertex_canon_edge = ce = by_id[lowest]
        self._vertex_canon_offset = np.where(start[ce] == np.arange(nv), 0.0, length[ce])

        self.side_length = float(length[side].sum())
        self.main_length = self.total_length - self.side_length

    def _tree_distances(self) -> np.ndarray:
        """V x V path lengths, summed edge by edge from the source as Dijkstra sums them.

        ``t[target, source]`` in walk positions (the vertex-only :func:`_walk`, a preorder),
        where each subtree is a slice: reverse preorder extends the sources below each vertex
        up to its parent, then preorder extends all other sources down to it.
        """
        pos, par, w, _ = _walk(self, np.empty(0, np.intp), np.empty(0))
        nv, par, w = pos.size, par.tolist(), w.tolist()  # index 0, the root, is never read
        hi = list(range(1, nv + 1))  # end of each subtree's slice
        t = np.zeros((nv, nv))
        for i in range(nv - 1, 0, -1):
            t[par[i], i : hi[i]] = t[i, i : hi[i]] + w[i]
            hi[par[i]] = max(hi[par[i]], hi[i])
        for i in range(1, nv):
            t[i, :i] = t[par[i], :i] + w[i]
            t[i, hi[i] :] = t[par[i], hi[i] :] + w[i]
        return t[np.ix_(pos, pos)].T.copy()

    # -- basic queries ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, edge_id) -> int:
        try:
            return self._edge_index[edge_id]
        except KeyError:
            raise ValidationError(f"unknown edge id {edge_id!r}") from None

    def vertex_index(self, vertex_id) -> int:
        try:
            return self._vertex_index[vertex_id]
        except KeyError:
            raise ValidationError(f"unknown vertex id {vertex_id!r}") from None

    def incident_edges(self, vertex_id) -> list[Edge]:
        return [self.edges[i] for i in self._incident[self.vertex_index(vertex_id)]]

    def __repr__(self) -> str:
        return (
            f"LinearNetwork({self.n_vertices} vertices, {self.n_edges} edges, "
            f"|L|={self.total_length:.6g})"
        )

    # -- points ----------------------------------------------------------

    def point(self, edge_id, offset: float) -> NetworkPoint:
        """Construct the canonical :class:`NetworkPoint` at the location.

        Raises :class:`ValidationError` if the edge is unknown or the
        offset lies outside ``[0, length]``.
        """
        ei = self.edge_index(edge_id)
        off = float(offset)
        ln = self.edge_length[ei]
        if not (0.0 <= off <= ln):
            raise ValidationError(f"offset {off!r} outside [0, {ln!r}] on edge {edge_id!r}")
        (ei,), (off,) = self._canonicalize_arrays([ei], [off])
        return NetworkPoint(self.edges[ei].id, float(off))

    def _check_arrays(self, eidx: np.ndarray, off: np.ndarray) -> None:
        """Raise unless each edge index is an integer in ``[0, E)`` and each offset on its edge."""
        if not (eidx.dtype.kind in "iu" and ((eidx >= 0) & (eidx < self.n_edges)).all()):
            raise ValidationError(f"edge indices must be integers in [0, {self.n_edges})")
        if not ((off >= 0.0) & (off <= self.edge_length[eidx])).all():  # NaN too
            raise ValidationError("point offset outside its edge")

    def _canonicalize_arrays(
        self, eidx: np.ndarray, off: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        eidx = np.asarray(eidx, dtype=np.intp).copy()
        off = np.asarray(off, dtype=np.float64).copy()
        self._check_arrays(eidx, off)
        if eidx.size == 0:
            return eidx, off
        at_start = off == 0.0
        at_end = off == self.edge_length[eidx]
        vtx = np.where(at_start, self.edge_start[eidx], np.where(at_end, self.edge_end[eidx], -1))
        hit = vtx >= 0
        if hit.any():
            eidx[hit] = self._vertex_canon_edge[vtx[hit]]
            off[hit] = self._vertex_canon_offset[vtx[hit]]
        return eidx, off

    def distance(self, p: NetworkPoint, q: NetworkPoint) -> float:
        return shortest_path_distance(self, p, q)


class PointPattern:
    """A finite ordered collection of points on one network.

    Accepts :class:`NetworkPoint` instances or ``(edge_id, offset)`` pairs;
    all points are canonicalised. The pattern keeps vectorised arrays
    (``edge_indices``, ``offsets``) used by the estimators.
    """

    def __init__(self, network: LinearNetwork, points: Iterable = ()):
        pts = list(points)
        self.network = network
        eidx = np.empty(len(pts), dtype=np.intp)
        off = np.empty(len(pts), dtype=np.float64)
        for i, p in enumerate(pts):
            if isinstance(p, NetworkPoint):
                eid, o = p.edge_id, p.offset
            else:
                eid, o = p
            eidx[i] = network.edge_index(eid)
            off[i] = float(o)
        self.edge_indices, self.offsets = network._canonicalize_arrays(eidx, off)

    @classmethod
    def from_indices(
        cls,
        network: LinearNetwork,
        edge_indices: np.ndarray,
        offsets: np.ndarray,
    ) -> "PointPattern":
        """Fast construction from raw index/offset arrays (canonicalised)."""
        pat = cls.__new__(cls)
        pat.network = network
        pat.edge_indices, pat.offsets = network._canonicalize_arrays(
            np.asarray(edge_indices), np.asarray(offsets)
        )
        return pat

    @property
    def n(self) -> int:
        return int(self.edge_indices.size)

    @property
    def points(self) -> list[NetworkPoint]:
        ids = [self.network.edges[i].id for i in self.edge_indices]
        return [NetworkPoint(e, float(o)) for e, o in zip(ids, self.offsets)]

    def branch_counts(self) -> tuple[int, int]:
        """Number of points on (main, side) edges."""
        on_side = self.network.edge_side[self.edge_indices]
        return int((~on_side).sum()), int(on_side.sum())

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i) -> NetworkPoint:
        e = self.network.edges[self.edge_indices[i]].id
        return NetworkPoint(e, float(self.offsets[i]))

    def __repr__(self) -> str:
        return f"PointPattern({self.n} points on {self.network!r})"


# -- distances -----------------------------------------------------------


def _point_arrays(net: LinearNetwork, pts) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a pattern / point sequence / (eidx, off) pair to arrays."""
    if isinstance(pts, PointPattern):
        if pts.network is not net:
            raise ValidationError("pattern belongs to a different network")
        return pts.edge_indices, pts.offsets
    if (
        isinstance(pts, tuple)
        and len(pts) == 2
        and isinstance(pts[0], np.ndarray)
        and isinstance(pts[1], np.ndarray)
    ):
        net._check_arrays(*pts)  # as given, not canonicalised, so they keep their bits
        return pts
    if isinstance(pts, NetworkPoint):
        pts = [pts]
    pat = PointPattern(net, pts)
    return pat.edge_indices, pat.offsets


def _pairwise_core(net, e1, o1, e2, o2) -> np.ndarray:
    """Distances of ``(e1, o1)`` to ``(e2, o2)``, broadcast: ``(n, 1)`` by ``(m,)`` or a list. A
    block of at least ``len(D)`` rows reads ``D[x1, s2]`` and ``D[x1, t2]`` by whole rows of
    ``D[:, s2]`` and ``D[:, t2]``; a shorter block or a list takes them from the raveled ``D``."""
    D = net.vertex_distance_matrix
    s1, t1 = net.edge_start[e1], net.edge_end[e1]
    s2, t2 = net.edge_start[e2], net.edge_end[e2]
    if e1.ndim == 2 and e1.shape[0] >= D.shape[0]:
        s1, t1, ends = s1[:, 0], t1[:, 0], (D[:, s2], D[:, t2])
        def via(x1, j): return ends[j][x1]  # D[x1, (s2, t2)[j]], gathered when used
    else:
        flat, ends = D.ravel(), (s2, t2)
        def via(x1, j): return flat.take(x1 * D.shape[0] + ends[j])
    a1, b1 = o1, net.edge_length[e1] - o1
    a2, b2 = o2, net.edge_length[e2] - o2
    out = a1 + a2 + via(s1, 0)
    np.minimum(out, a1 + b2 + via(s1, 1), out=out)
    np.minimum(out, b1 + a2 + via(t1, 0), out=out)
    np.minimum(out, b1 + b2 + via(t1, 1), out=out)
    same = e1 == e2
    if same.any():
        # Within one edge of a tree the direct route is shortest.
        out = np.where(same, np.abs(o1 - o2), out)
    return out


_DISTANCE_CHUNK = 1 << 18  # entries per row chunk of pairwise_distances (2 MiB)
_DENSE_SHARE = 0.4  # _pairs_within evaluates a row chunk whole above this share of candidates
_SPHERE_CHUNK = 1 << 15  # pairs per binary-search chunk of _sphere_count_matrix


def pairwise_distances(net: LinearNetwork, pts_a, pts_b=None) -> np.ndarray:
    """Matrix of shortest-path distances between two point collections.

    Distances combine each point's offsets to its edge endpoints with the
    precomputed vertex-to-vertex distances; points sharing an edge use the
    direct along-edge distance. Rows are computed in chunks of about
    ``_DISTANCE_CHUNK`` entries (at least one row), so the n x m
    temporaries of a chunk stay cache-sized; every entry comes from the
    same arithmetic whatever the chunking.
    """
    e1, o1 = _point_arrays(net, pts_a)
    e2, o2 = _point_arrays(net, pts_b) if pts_b is not None else (e1, o1)
    out, chunk = np.empty((e1.size, e2.size)), max(1, _DISTANCE_CHUNK // max(e2.size, 1))
    for i0 in range(0, e1.size if e2.size else 0, chunk):
        sl = slice(i0, i0 + chunk)
        out[sl] = _pairwise_core(net, e1[sl, None], o1[sl, None], e2, o2)
    return out


def _pair_chunks(net: LinearNetwork, pts_a, pts_b, reach, skip_self: bool = False):
    """The pairs of :func:`_pairs_within` by row chunk: ``(sl, rows, cols, d)`` for the
    ``a`` rows in the slice ``sl``, with ``rows`` counted from ``sl.start``."""
    (e1, o1), (e2, o2) = _point_arrays(net, pts_a), _point_arrays(net, pts_b)
    reach = np.broadcast_to(np.asarray(reach, dtype=np.float64), e1.shape)
    m, per_edge = e2.size, np.bincount(e2, minlength=net.n_edges)
    occ = np.flatnonzero(per_edge)  # so a chunk's test is at most rows x min(E, m)
    gap, per_occ, col_occ = net._edge_gap[:, occ], per_edge[occ], np.searchsorted(occ, e2)
    chunk = max(1, _DISTANCE_CHUNK // max(m, 1))
    for i0 in range(0, e1.size if m else 0, chunk):
        sl = slice(i0, min(i0 + chunk, e1.size))
        e, o, t = e1[sl, None], o1[sl, None], reach[sl, None]
        near = gap[e[:, 0]] <= t  # the occupied edges each row may reach
        if (near @ per_occ).sum() > _DENSE_SHARE * t.size * m:
            d = _pairwise_core(net, e, o, e2, o2)
            within = d <= t
            if skip_self:
                within[np.arange(t.size), np.arange(i0, i0 + t.size)] = False
            flat = np.flatnonzero(within)
            (rows, cols), d = np.divmod(flat, m), d.ravel().take(flat)
        else:
            rows, cols = np.divmod(np.flatnonzero(near[:, col_occ]), m)
            d = _pairwise_core(net, e[rows, 0], o[rows, 0], e2[cols], o2[cols])
            keep = (d <= t[rows, 0]) & ((rows + i0 != cols) if skip_self else True)
            rows, cols, d = rows[keep], cols[keep], d[keep]
        yield sl, rows, cols, d


def _pairs_within(net: LinearNetwork, pts_a, pts_b, reach, skip_self: bool = False) -> tuple:
    """Row-major ``(rows, cols, d)`` of the pairs with ``d(a_i, b_j) <= reach[i]``
    (a scalar or one per row, ``-inf`` for none), less ``i == j`` if ``skip_self``
    (``a`` is ``b``); ``d`` has the bits of :func:`pairwise_distances`. The edge-gap
    table at the edges holding a ``b`` bounds every distance from below; a row chunk
    where over ``_DENSE_SHARE`` of the pairs pass it is evaluated whole, else only those."""
    parts = [(r + sl.start, c, d) for sl, r, c, d in _pair_chunks(net, pts_a, pts_b, reach, skip_self)]
    return tuple(np.concatenate(p) for p in zip((np.empty(0, np.intp),) * 2 + (np.empty(0),), *parts))


def shortest_path_distance(net: LinearNetwork, p: NetworkPoint, q: NetworkPoint) -> float:
    """Shortest-path distance between two points along the network."""
    return float(pairwise_distances(net, [p], [q])[0, 0])


def distance_matrix(pattern: PointPattern) -> np.ndarray:
    """All pairwise distances within a pattern (zero diagonal)."""
    return pairwise_distances(pattern.network, pattern)


def leaf_distances(net: LinearNetwork, pts) -> np.ndarray:
    """Distance from each point to the nearest degree-1 vertex."""
    e, o = _point_arrays(net, pts)
    ld = net.vertex_leaf_distance
    return np.minimum(
        o + ld[net.edge_start[e]],
        net.edge_length[e] - o + ld[net.edge_end[e]],
    )


def _lattice(net: LinearNetwork, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """The points of :func:`lattice` as canonical ``(edge index, offset)`` arrays, in its
    order: the ``j``-th point of an edge cut into ``nseg`` lies at ``length * (j / nseg)``,
    and a vertex is kept at its first occurrence."""
    if not 0 < spacing < math.inf:
        raise ValidationError(f"lattice spacing must be positive and finite, got {spacing}")
    with np.errstate(over="ignore"):  # an overflowing count is rejected, not warned about
        nseg = np.maximum(1.0, np.ceil(net.edge_length / spacing))
    if not float(nseg.sum()) + net.n_edges < np.iinfo(np.intp).max:
        raise ValidationError(f"lattice spacing {spacing} makes too many lattice points")
    nseg = nseg.astype(np.intp)
    e = np.repeat(np.arange(net.n_edges), nseg + 1)
    j = np.arange(e.size) - np.repeat(np.cumsum(nseg + 1) - nseg - 1, nseg + 1)
    off = net.edge_length[e] * (j / nseg[e])
    vtx = np.where(off == 0.0, net.edge_start[e], np.where(off == net.edge_length[e], net.edge_end[e], -1))
    keep = vtx < 0
    keep[np.unique(vtx, return_index=True)[1]] = True
    return net._canonicalize_arrays(e[keep], off[keep])


def lattice(net: LinearNetwork, spacing: float) -> list[NetworkPoint]:
    """Equidistant points covering every edge, endpoints included.

    Each edge of length ``l`` carries ``ceil(l / spacing) + 1`` points
    (before deduplication), so gaps never exceed ``spacing``. Shared
    vertices appear once, in canonical form. Order: edges in input order,
    offsets increasing.
    """
    e, off = _lattice(net, spacing)
    return [NetworkPoint(net.edges[i].id, o) for i, o in zip(e.tolist(), off.tolist())]


def _walk(net: LinearNetwork, eidx: np.ndarray, off: np.ndarray) -> tuple:
    """One walk from the root to the leaves over the sites ``(eidx, off)`` (entries ``0..n-1``)
    and the vertices (entry ``n + v``): each vertex in ``net._preorder`` follows the sites on
    the edge to its parent, walked from the parent end, ties in entry order. Returns each
    entry's walk position ``rank`` and, by walk position, ``pred``, the position of the step
    before it on its path to the root, ``d``, its distance from there, and the step's ``edge``
    (-1, inf and -1 at the root)."""
    n, nv = eidx.size, net.n_vertices
    up = np.asarray(net._parent_edge)  # each vertex's edge to its parent, -1 at the root
    start, end, length = net.edge_start, net.edge_end, net.edge_length
    child = np.where(up[start] == np.arange(net.n_edges), start, end)  # the end away from the root
    parent = np.where(up >= 0, start[up] + end[up] - np.arange(nv), -1)
    turn = np.argsort(net._preorder)  # each vertex's place in the preorder
    # A site walks in its edge's child vertex's turn, at its distance from the parent end;
    # the stable sort puts the child last.
    owner = np.r_[child[eidx], np.arange(nv)]
    head = np.r_[np.where(start[eidx] == child[eidx], length[eidx] - off, off),
                 np.where(up >= 0, length[up], np.inf)]
    walk = np.lexsort((head, turn[owner]))
    rank = np.empty(n + nv, dtype=np.intp)
    rank[walk] = np.arange(n + nv)
    owner, t = owner[walk], head[walk]
    same = np.r_[False, owner[1:] == owner[:-1]]  # follows the step before, else the parent
    d = np.where(same, t - np.r_[0.0, t[:-1]], t)
    pred = np.where(same, np.arange(n + nv) - 1, rank[n + parent[owner]])
    pred[0] = -1  # the root, at d = inf
    return rank, pred, d, up[owner]


def _recurrence(pred, a, b: np.ndarray) -> np.ndarray:
    """Rows ``x_i = a_i x_pred[i] + b_i``, ``pred[i] < i``, where row -1 is zero: one column
    at a time on Python floats, the IEEE multiply and add of a row-wise numpy loop. A caller
    that reuses ``pred`` and ``a`` may pass them once converted, as the lists
    ``(pred + 1).tolist()`` and ``a.tolist()``."""
    if isinstance(pred, np.ndarray):
        pred, a = (pred + 1).tolist(), a.tolist()
    x = np.empty(b.shape)
    for j in range(b.shape[1]):
        col = [0.0]  # col[i + 1] is row i
        for p, a_i, b_i in zip(pred, a, b[:, j].tolist()):
            col.append(a_i * col[p] + b_i)
        x[:, j] = col[1:]
    return x


# -- sphere counts ---------------------------------------------------------


def _sphere_count_matrix(net: LinearNetwork, e_src, o_src, rows, radii) -> np.ndarray:
    """Exact sphere counts ``m(u[rows[p]], radii[p])`` of sources ``u``, for a
    flat list of pairs; radii must be nonnegative. Rooted at ``u``, a tree's
    vertex ``w`` with ``d(u, w) < t`` ends the branch arriving at it and
    starts ``deg(w) - 1`` new ones; the two directions leaving ``u`` supply
    the starting 2 (a vertex source adds its own ``deg - 2``). So
    ``m(u, 0) = 1`` and, for ``t > 0``,
    ``m(u, t) = 2 + sum_w (deg(w) - 2) [d(u, w) < t]``: a vertex at
    distance exactly ``t`` counts once, degree-2 vertices drop out.

    Vertex distances come from :func:`pairwise_distances` on the
    canonical vertex points, the arithmetic of the pair distances, so
    ties agree bit for bit. Each source's are sorted once and padded with
    inf; a pair finds ``#{d(u, w) < t}`` by a branchless binary search over
    the flat rows in int32 positions, each step a ``take`` and a 0/1 multiple:
    a chunk of at most 512 sources, each padded to under ``2 V'`` entries for
    ``V'`` kept vertices, reaches ``2**31`` only if ``V x V`` holds 35 TB.
    """
    keep = np.nonzero(net.degrees != 2)[0]
    vertices = (net._vertex_canon_edge[keep], net._vertex_canon_offset[keep])
    dv = pairwise_distances(net, (e_src, o_src), vertices)
    order, bits = np.argsort(dv, axis=1), keep.size.bit_length()
    width = 1 << bits  # > keep.size, so every row ends in inf
    padded = np.full((e_src.size, width), np.inf)
    padded[:, : keep.size] = np.take_along_axis(dv, order, axis=1)
    # cum[i, k] = 2 + the weights of the k nearest kept vertices.
    cum = np.full((e_src.size, width), 2, dtype=np.int64)
    cum[:, 1 : keep.size + 1] = net.degrees[keep][order] - 2
    padded, cum = padded.ravel(), np.cumsum(cum, axis=1).ravel()
    if padded.size >= 1 << 31: raise NumericalError("sphere-count rows overflow int32 positions")
    out = np.empty(radii.size, dtype=np.int64)
    for p0 in range(0, radii.size, _SPHERE_CHUNK):
        t = radii[p0 : p0 + _SPHERE_CHUNK]
        at = rows[p0 : p0 + _SPHERE_CHUNK].astype(np.int32) * np.int32(width)  # to the first d >= t
        for step in (np.int32(1 << k) for k in reversed(range(bits))):
            at += (padded.take(at + (step - 1)) < t) * step
        out[p0 : p0 + _SPHERE_CHUNK] = np.where(t == 0.0, 1, cum.take(at))
    return out


def sphere_count(net: LinearNetwork, point: NetworkPoint, t) -> int | np.ndarray:
    """Number of network locations at distance exactly ``t`` from ``point``.

    ``t`` may be a scalar or an array of nonnegative finite radii. Counts
    are exact: on a tree ``m(u, t) = 2 + sum_w (deg(w) - 2) [d(u, w) < t]``
    for ``t > 0`` and ``m(u, 0) = 1``, evaluated with one sort of the
    vertex distances and one binary search, O((V + m) log V) for ``m``
    radii. A leaf vertex hit exactly at distance ``t`` counts once.

    Raises :class:`ValidationError` if any radius is negative or not
    finite.
    """
    e, o = _point_arrays(net, point)
    tt = np.asarray(t, dtype=np.float64)
    if not (np.isfinite(tt) & (tt >= 0.0)).all():
        raise ValidationError("t must be nonnegative and finite")
    m = _sphere_count_matrix(net, e, o, np.zeros(tt.size, dtype=np.intp), tt.ravel())
    if np.ndim(t) == 0:
        return int(m[0])
    return m.reshape(tt.shape)
