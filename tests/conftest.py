import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from linnetcox import Edge, LinearNetwork, Vertex


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

    The draw the sequential tree sampler must reproduce: ``L @ z`` for
    ``L = cholesky(exp(-beta * d))`` on the distinct sites in
    (edge index, offset) order, ``z = rng.standard_normal((n_unique, k))``,
    with ``d`` from :func:`oracle_distances`.
    """
    stacked = np.stack([np.asarray(eidx, dtype=np.float64), off])
    uniq, inverse = np.unique(stacked, axis=1, return_inverse=True)
    sites = list(zip(uniq[0].astype(np.intp), uniq[1]))
    chol = np.linalg.cholesky(np.exp(-beta * oracle_distances(net, sites)))
    z = rng.standard_normal((len(sites), k))
    return (chol @ z)[np.asarray(inverse).ravel()].T
