"""Reference geometry for checking linnetcox outputs, written apart from it.

Nothing here calls linnetcox. A network is read from its JSON file (edge
ids, end vertices, lengths, branch labels) and points from pattern CSVs
(edge id, offset), or from plain arrays in the same terms.

* Distances: scipy's Dijkstra on the network graph split at the query
  points, so a point becomes a graph node and its distances are graph
  distances.
* Sphere counts ``m(u, t)``, the number of network locations at distance
  exactly ``t`` from ``u``: on a tree, the distance along an edge that
  does not hold ``u`` runs monotonically from the edge's near endpoint to
  its far one, so the edge holds one such location iff
  ``near < t < far``. Vertices at distance exactly ``t`` count once each,
  and ``u``'s own edge holds one location on each side closer than that
  side's endpoint. The endpoint distances are Dijkstra's, the same
  numbers the pair distances come from, so ties agree exactly.
* The corrected ``K``: ``sum over ordered pairs with d <= r of
  1 / (rho_i rho_j m(i, d_ij))``, divided by the network length.
* The nearest lattice site of a point, searched on the point's own edge
  (both endpoints are sites, so no other site is closer), with the tie
  rule linnetcox documents: the lower edge id, then the lower offset.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


def _parse_id(text):
    try:
        return int(text)
    except ValueError:
        return text


class Net:
    """A tree given by its edge list: ids, end vertices, lengths, branches."""

    def __init__(self, edges):
        edges = list(edges)
        vids = []
        for _, a, b, _, _ in edges:
            for v in (a, b):
                if v not in vids:
                    vids.append(v)
        vindex = {v: i for i, v in enumerate(vids)}
        self.ids = [e[0] for e in edges]
        self.eindex = {eid: i for i, eid in enumerate(self.ids)}
        self.start = np.array([vindex[e[1]] for e in edges], dtype=np.intp)
        self.end = np.array([vindex[e[2]] for e in edges], dtype=np.intp)
        self.length = np.array([float(e[3]) for e in edges])
        self.side = np.array([e[4] == "side" for e in edges])
        self.n_vertices = len(vids)
        self.n_edges = len(edges)
        self.total_length = float(self.length.sum())
        self.side_length = float(self.length[self.side].sum())
        self.main_length = self.total_length - self.side_length
        # Where a point at a vertex is written: the incident edge with the
        # lowest id, at offset 0 or its length.
        self.vertex_site = {}
        for i in sorted(range(self.n_edges), key=lambda i: self.ids[i], reverse=True):
            self.vertex_site[int(self.start[i])] = (i, 0.0)
            self.vertex_site[int(self.end[i])] = (i, float(self.length[i]))

    @classmethod
    def from_json(cls, path) -> "Net":
        with open(path) as f:
            doc = json.load(f)
        return cls(
            (e["id"], e["start"], e["end"], float(e["length"]), e.get("branch", "main"))
            for e in doc["edges"]
        )

    def read_pattern(self, path) -> tuple[np.ndarray, np.ndarray]:
        """Edge indices and offsets of a pattern CSV (``edge,offset``)."""
        eidx, off = [], []
        with open(path, newline="") as f:
            rows = csv.reader(f)
            next(rows)
            for row in rows:
                if row:
                    eidx.append(self.eindex[_parse_id(row[0])])
                    off.append(float(row[1]))
        return np.array(eidx, dtype=np.intp), np.array(off)

    def mle_intensity(self, eidx) -> np.ndarray:
        """Per-point branch intensity: branch count over branch length."""
        on_side = self.side[eidx]
        main = (~on_side).sum() / self.main_length if self.main_length > 0 else 0.0
        side = on_side.sum() / self.side_length if self.side_length > 0 else 0.0
        return np.where(on_side, side, main)

    def mean_count(self, rho_main: float, rho_side: float) -> float:
        return rho_main * self.main_length + rho_side * self.side_length


class SplitGraph:
    """The network graph with every query point inserted as a node."""

    def __init__(self, net: Net, eidx, off):
        eidx = np.asarray(eidx, dtype=np.intp)
        off = np.asarray(off, dtype=np.float64)
        self.net = net
        n = eidx.size
        node = np.empty(n, dtype=np.intp)
        at_start = off == 0.0
        at_end = off == net.length[eidx]
        node[at_start] = net.start[eidx[at_start]]
        node[at_end] = net.end[eidx[at_end]]
        inner = ~(at_start | at_end)
        keys, inverse = np.unique(
            np.stack([eidx[inner].astype(np.float64), off[inner]]), axis=1, return_inverse=True
        )
        node[inner] = net.n_vertices + np.asarray(inverse).ravel()
        rows, cols, weights = [], [], []
        key_edge = keys[0].astype(np.intp)
        for e in range(net.n_edges):
            sel = np.nonzero(key_edge == e)[0]      # already sorted by offset
            chain = np.concatenate([[net.start[e]], net.n_vertices + sel, [net.end[e]]])
            pos = np.concatenate([[0.0], keys[1, sel], [net.length[e]]])
            rows.append(chain[:-1])
            cols.append(chain[1:])
            weights.append(np.diff(pos))
        size = net.n_vertices + keys.shape[1]
        self.graph = sparse.csr_matrix(
            (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        )
        self.node = node
        self.eidx = eidx
        self.inner = inner

    def from_points(self, sources) -> np.ndarray:
        """Dijkstra distances from the given query points to every node."""
        return csgraph.dijkstra(self.graph, directed=False, indices=self.node[sources])

    def distances(self, sources=None) -> np.ndarray:
        """Distances from the given query points (default all) to all points."""
        sources = np.arange(self.node.size) if sources is None else np.asarray(sources)
        return self.from_points(sources)[:, self.node]


def sphere_counts(net: Net, dv: np.ndarray, own_edge, own_sides, t: np.ndarray) -> np.ndarray:
    """``m(u, t)`` for one source ``u`` from its distances ``dv`` to the vertices.

    ``own_edge`` is the edge holding ``u`` strictly inside it (None when
    ``u`` sits on a vertex) and ``own_sides`` the distances from ``u`` to
    that edge's two endpoints.
    """
    t = np.asarray(t, dtype=np.float64)
    ends = np.stack([dv[net.start], dv[net.end]])
    near, far = ends.min(axis=0), ends.max(axis=0)
    if own_edge is not None:
        keep = np.arange(net.n_edges) != own_edge
        near, far = near[keep], far[keep]
    near, far, verts = np.sort(near), np.sort(far), np.sort(dv)
    count = np.searchsorted(near, t, side="left") - np.searchsorted(far, t, side="right")
    count += np.searchsorted(verts, t, side="right") - np.searchsorted(verts, t, side="left")
    if own_edge is not None:
        for side in own_sides:
            count += (t > 0.0) & (t < side)
    return np.where(t == 0.0, 1, count)


def k_function(net: Net, eidx, off, r, rho=None) -> np.ndarray:
    """Geometrically corrected ``K`` at radii ``r``; ``rho`` defaults to the MLE."""
    eidx = np.asarray(eidx, dtype=np.intp)
    off = np.asarray(off, dtype=np.float64)
    n = eidx.size
    rho = net.mle_intensity(eidx) if rho is None else np.broadcast_to(np.asarray(rho, float), (n,))
    g = SplitGraph(net, eidx, off)
    full = g.from_points(np.arange(n))
    dist = full[:, g.node]
    dvert = full[:, : net.n_vertices]
    all_d, all_w = [], []
    for i in range(n):
        others = np.arange(n) != i
        d = dist[i, others]
        if g.inner[i]:
            e = int(eidx[i])
            own = (e, (dvert[i, net.start[e]], dvert[i, net.end[e]]))
        else:
            own = (None, ())
        m = sphere_counts(net, dvert[i], own[0], own[1], d)
        if (m <= 0).any():
            raise AssertionError("oracle sphere count vanished at a pair distance")
        all_d.append(d)
        all_w.append(1.0 / (rho[i] * rho[others] * m))
    d = np.concatenate(all_d) if all_d else np.empty(0)
    w = np.concatenate(all_w) if all_w else np.empty(0)
    order = np.argsort(d, kind="stable")
    cum = np.concatenate([[0.0], np.cumsum(w[order])])
    idx = np.searchsorted(d[order], np.asarray(r, dtype=np.float64), side="right")
    return cum[idx] / net.total_length


def lattice_offsets(length: float, spacing: float) -> np.ndarray:
    """Offsets of the documented lattice on one edge: ``ceil(l/spacing)+1`` points."""
    nseg = max(1, math.ceil(length / spacing))
    return np.array([length * (j / nseg) for j in range(nseg + 1)])


def nearest_sites(net: Net, eidx, off, spacing: float) -> list[tuple[int, float]]:
    """Nearest lattice site ``(edge index, offset)`` of each point, as written
    canonically (a vertex on its lowest-id incident edge)."""
    out = []
    tables = {}
    for e, o in zip(np.asarray(eidx), np.asarray(off, dtype=np.float64)):
        e = int(e)
        if e not in tables:
            tables[e] = lattice_offsets(float(net.length[e]), spacing)
        sites = tables[e]
        j = int(np.searchsorted(sites, o))
        best = None
        for k in (j - 1, j):
            if not 0 <= k < sites.size:
                continue
            site = (e, float(sites[k]))
            if k == 0:
                site = net.vertex_site[int(net.start[e])]
            elif k == sites.size - 1:
                site = net.vertex_site[int(net.end[e])]
            key = (abs(o - sites[k]), net.ids[site[0]], site[1])
            if best is None or key < best[0]:
                best = (key, site)
        out.append(best[1])
    return out


def self_check() -> None:
    """The oracle on the path with edges 0.1, 0.2 and 0.7, points on vertices 0 and 3.

    ``m(v0, d(v0, v3))`` must be 1 (only v3 is that far), so each ordered
    pair weighs ``1 / rho**2`` and ``K`` at the diameter is
    ``2 / (rho**2 * |L|)``.
    """
    net = Net([(0, 0, 1, 0.1, "main"), (1, 1, 2, 0.2, "main"), (2, 2, 3, 0.7, "main")])
    eidx = np.array([0, 2])
    off = np.array([0.0, 0.7])
    g = SplitGraph(net, eidx, off)
    full = g.from_points(np.arange(2))
    d03 = full[0, g.node[1]]
    if abs(d03 - 1.0) > 1e-12:
        raise AssertionError(f"oracle self-check: d(v0, v3) = {d03!r}, expected 1")
    m = sphere_counts(net, full[0, : net.n_vertices], None, (), np.array([d03]))
    if int(m[0]) != 1:
        raise AssertionError(f"oracle self-check: m(v0, d(v0, v3)) = {int(m[0])}, expected 1")
    k = k_function(net, eidx, off, np.array([d03]), rho=1.0)
    if abs(k[0] - 2.0 / net.total_length) > 1e-12:
        raise AssertionError(f"oracle self-check: K(d) = {k[0]!r}, expected 2")
