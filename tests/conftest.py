from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from linnetcox import Edge, LinearNetwork, ValidationError, Vertex, load_pattern, make_network
from linnetcox.simulate import as_generator

DATA = Path(__file__).parent / "data"


def frozen_pattern(name, net):
    """A pattern saved under ``tests/data`` (see its README for how each was drawn)."""
    return load_pattern(DATA / f"{name}.csv", net)


def shuffled_string_tree():
    """A random tree whose edge ids are strings in an order unrelated to
    the edge index, with some edges pointing towards the root."""
    base = make_network("random-tree", seed=3, edges=40)
    rng = np.random.default_rng(1)
    edges = []
    for i in rng.permutation(base.n_edges):
        e = base.edges[i]
        a, b = (e.start, e.end) if rng.random() < 0.5 else (e.end, e.start)
        edges.append(Edge(f"s{int(rng.integers(100)):02d}-{i}", a, b, e.length, e.branch))
    return LinearNetwork(base.vertices, edges)


@pytest.fixture
def path10():
    """Single segment of length 10."""
    return LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 1, 10.0, "main")])


@pytest.fixture
def y_net():
    """Y-shaped tree: arms O-A of 3, O-B of 4, O-C of 5."""
    vertices = [Vertex("O"), Vertex("A"), Vertex("B"), Vertex("C")]
    edges = [
        Edge(0, "O", "A", 3.0, "main"),
        Edge(1, "O", "B", 4.0, "side"),
        Edge(2, "O", "C", 5.0, "side"),
    ]
    return LinearNetwork(vertices, edges)


def oracle_distances(net, points, to_vertices=False):
    """Shortest-path distances by explicit graph expansion.

    Each query point strictly inside an edge is inserted as a temporary
    node splitting it; a point at an edge end is the vertex node itself.
    Distances then come from scipy's Dijkstra on the expanded graph,
    entirely independent of the package's own routing. With
    ``to_vertices`` the columns are the network vertices instead of the
    query points.
    """
    nv = len(net.vertices)
    per_edge = {i: [] for i in range(len(net.edges))}
    node = np.empty(len(points), dtype=np.intp)
    for idx, (ei, off) in enumerate(points):
        ei, off = int(ei), float(off)
        if off == 0.0:
            node[idx] = net.edge_start[ei]
        elif off == net.edge_length[ei]:
            node[idx] = net.edge_end[ei]
        else:
            node[idx] = nv + idx
            per_edge[ei].append((off, nv + idx))
    rows, cols, data = [], [], []
    for ei in range(len(net.edges)):
        a = int(net.edge_start[ei])
        b = int(net.edge_end[ei])
        chain = [(0.0, a)] + sorted(per_edge[ei]) + [(float(net.edge_length[ei]), b)]
        for (o1, n1), (o2, n2) in zip(chain, chain[1:]):
            rows += [n1, n2]
            cols += [n2, n1]
            data += [o2 - o1, o2 - o1]
    n = nv + len(points)
    graph = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    full = csgraph.dijkstra(graph, directed=False, indices=node)
    if to_vertices:
        return full[:, :nv]
    return full[:, node]


def random_points(net, n, rng):
    """Uniform random points as (edge_index, offset) arrays."""
    weights = net.edge_length / net.total_length
    eidx = rng.choice(len(net.edges), size=n, p=weights)
    off = rng.uniform(0.0, net.edge_length[eidx])
    return eidx.astype(np.intp), off


def dense_grf_values(net, eidx, off, beta, k, rng):
    """Gaussian fields by a dense Cholesky factor, shape (k, n).

    The draw the tree walk must reproduce. The walk takes the vertices in
    ``net._preorder``, each after the sites on the edge to its parent in
    order from the parent end, and ``z = rng.standard_normal((V + n, k))``
    row by row in that order. Here ``L = cholesky(exp(-beta * d))`` over the
    distinct locations in walk order, with ``d`` from
    :func:`oracle_distances`, and a location's value is ``L @ z`` over the
    rows of its first visits.
    """
    eidx, off = np.asarray(eidx), np.asarray(off)
    walk = [("vertex", net._preorder[0])]
    for v in net._preorder[1:]:
        f = net._parent_edge[v]
        on_f = np.nonzero(eidx == f)[0]
        from_start = net.edge_start[f] != v
        on_f = on_f[np.argsort(off[on_f] if from_start else -off[on_f], kind="stable")]
        walk += [("site", i) for i in on_f] + [("vertex", v)]
    places, first, row = {}, [], {}
    for step, (kind, i) in enumerate(walk):
        place = ((int(net._vertex_canon_edge[i]), float(net._vertex_canon_offset[i]))
                 if kind == "vertex" else (int(eidx[i]), float(off[i])))
        if place not in places:
            places[place] = len(first)
            first.append(step)
        row[kind, i] = places[place]
    chol = np.linalg.cholesky(np.exp(-beta * oracle_distances(net, list(places))))
    z = rng.standard_normal((len(walk), k))
    values = chol @ z[first]
    return values[[row["site", i] for i in range(eidx.size)]].T


def _segment_pair_samples(net, samples, rng):
    """Uniform pair distances per unordered segment pair.

    Yields ``(distances, area_factor)`` with ``area_factor`` already
    doubled for distinct pairs (the decomposition covers both orders).
    Distances are exact: within one segment ``|x - y|``; across segments
    the shared routing through edge endpoints.
    """
    D = net.vertex_distance_matrix
    for i in range(net.n_edges):
        li = net.edge_length[i]
        si, ti = net.edge_start[i], net.edge_end[i]
        for j in range(i, net.n_edges):
            lj = net.edge_length[j]
            x = rng.random(samples) * li
            y = rng.random(samples) * lj
            if i == j:
                yield np.abs(x - y), li * lj
                continue
            sj, tj = net.edge_start[j], net.edge_end[j]
            d = np.minimum.reduce(
                [
                    x + y + D[si, sj],
                    x + (lj - y) + D[si, tj],
                    (li - x) + y + D[ti, sj],
                    (li - x) + (lj - y) + D[ti, tj],
                ]
            )
            yield d, 2.0 * li * lj


def mc_double_integral(net, f0, samples_per_pair=1000, seed=None):
    """Monte Carlo estimate of ``∫∫ f0(d(u, v)) du dv`` over the network.

    The oracle for the exact composite-likelihood normaliser. The double
    integral decomposes over segment pairs; on each pair the integrand is
    sampled at uniform offsets, using the direct distance ``|x - y|``
    within a segment and endpoint routing across segments. Unbiased, and
    deterministic for a given seed. ``f0`` must accept a vector of
    distances.
    """
    if samples_per_pair < 1:
        raise ValidationError("need at least one sample per segment pair")
    rng = as_generator(seed)
    total = 0.0
    for d, factor in _segment_pair_samples(net, samples_per_pair, rng):
        total += factor * float(np.mean(f0(d)))
    return total
