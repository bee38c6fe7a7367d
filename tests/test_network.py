import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse import csgraph

from linnetcox import (
    Edge,
    LinearNetwork,
    PointPattern,
    ValidationError,
    Vertex,
    erode,
    lattice,
    leaf_distances,
    make_network,
    pairwise_distances,
    shortest_path_distance,
    simplify_tree,
    sphere_count,
)
from linnetcox import network
from linnetcox.network import (
    _DISTANCE_CHUNK,
    _SPHERE_CHUNK,
    _pairs_within,
    _pairwise_core,
    _sphere_count_matrix,
    distance_matrix,
)

from conftest import oracle_distances, random_points


def _chain_tree(seed):
    """Random tree with string ids and degree-2 chains.

    Lengths are continuous draws, so sums of them are rarely exact in
    floating point (like the 0.1/0.2/0.7 path) and no two vertices lie at
    the same distance from a point by chance.
    """
    rng = np.random.default_rng(seed)
    vertices, edges = [Vertex("v00")], []
    for _ in range(11):
        parent = vertices[int(rng.integers(len(vertices)))].id
        # Some attachments run through a chain of degree-2 vertices.
        for _ in range(int(rng.integers(1, 4)) if rng.random() < 0.4 else 1):
            vid = f"v{len(vertices):02d}"
            vertices.append(Vertex(vid))
            length = float(rng.uniform(0.1, 3.0))
            edges.append(Edge(f"e{len(edges):02d}", parent, vid, length))
            parent = vid
    return LinearNetwork(vertices, edges)


class TestValidation:
    def test_simple_path_measure(self):
        net = LinearNetwork(
            [Vertex(0), Vertex(1), Vertex(2)],
            [Edge(0, 0, 1, 3.0, "main"), Edge(1, 1, 2, 4.0, "main")],
        )
        assert net.total_length == 7.0
        assert net.main_length == 7.0 and net.side_length == 0.0

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 1, 0.0, "main")])

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError, match="connect"):
            LinearNetwork(
                [Vertex(0), Vertex(1), Vertex(2), Vertex(3)],
                [Edge(0, 0, 1, 1.0, "main"), Edge(1, 2, 3, 1.0, "main")],
            )

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            LinearNetwork(
                [Vertex(0), Vertex(1), Vertex(2)],
                [
                    Edge(0, 0, 1, 1.0, "main"),
                    Edge(1, 1, 2, 1.0, "main"),
                    Edge(2, 2, 0, 1.0, "main"),
                ],
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            LinearNetwork(
                [Vertex(0), Vertex(0)], [Edge(0, 0, 0, 1.0, "main")]
            )
        with pytest.raises(ValidationError, match="duplicate"):
            LinearNetwork(
                [Vertex(0), Vertex(1), Vertex(2)],
                [Edge(5, 0, 1, 1.0, "main"), Edge(5, 1, 2, 1.0, "main")],
            )

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValidationError):
            LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 9, 1.0, "main")])

    def test_bad_branch_label_rejected(self):
        with pytest.raises(ValidationError, match="branch"):
            LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 1, 1.0, "stem")])

    def test_branch_measures_add_up(self, y_net):
        assert y_net.total_length == y_net.main_length + y_net.side_length
        assert y_net.main_length == 3.0
        assert y_net.side_length == 9.0


def dijkstra_vertex_distances(net):
    """V x V distances by scipy's Dijkstra on the vertex graph."""
    nv = net.n_vertices
    adj = sparse.coo_matrix((net.edge_length, (net.edge_start, net.edge_end)), shape=(nv, nv))
    return csgraph.shortest_path(adj.tocsr(), directed=False)


class TestVertexDistances:
    """The tree traversal forms each sum as Dijkstra does, so they agree bitwise."""

    @pytest.mark.parametrize(
        "template, seed, knobs",
        [("dendrite", seed, {}) for seed in range(10)]
        + [("random-tree", 0, {"edges": e}) for e in (1, 2, 3, 200, 2000)],
    )
    def test_equal_to_dijkstra(self, template, seed, knobs):
        net = make_network(template, seed=seed, **knobs)
        want = dijkstra_vertex_distances(net)
        assert np.array_equal(net.vertex_distance_matrix, want)
        assert net.vertex_distance_matrix.flags.c_contiguous
        assert np.array_equal(net.vertex_leaf_distance, want[:, net.leaf_vertices].min(axis=1))

    def test_string_ids(self):
        for seed in range(5):
            net = _chain_tree(seed)
            assert np.array_equal(net.vertex_distance_matrix, dijkstra_vertex_distances(net))

    def test_components_are_counted(self):
        vertices = [Vertex(i) for i in range(6)]
        forest = [Edge(0, 0, 1, 1.0), Edge(1, 2, 3, 1.0), Edge(2, 4, 5, 1.0)]
        with pytest.raises(ValidationError, match=r"disconnected \(3 components\)"):
            LinearNetwork(vertices, forest)
        # A cycle in one component: the count still comes first.
        cyclic = [Edge(0, 0, 1, 1.0), Edge(1, 1, 2, 1.0), Edge(2, 2, 0, 1.0), Edge(3, 3, 4, 1.0)]
        with pytest.raises(ValidationError, match=r"\(3 components\)"):
            LinearNetwork(vertices, cyclic)
        with pytest.raises(ValidationError, match="network contains a cycle"):
            LinearNetwork(vertices[:3], cyclic[:3])


class TestCanonicalization:
    def test_junction_point_uses_lowest_edge_id(self, y_net):
        # O sits at offset 0 of all three arms; edge 0 is the canonical home.
        for eid in (0, 1, 2):
            p = y_net.point(eid, 0.0)
            assert p.edge_id == 0 and p.offset == 0.0

    def test_leaf_end_is_not_moved(self, y_net):
        p = y_net.point(1, 4.0)
        assert p.edge_id == 1 and p.offset == 4.0

    def test_same_location_same_distance_zero(self, y_net):
        p = y_net.point(1, 0.0)
        q = y_net.point(2, 0.0)
        assert shortest_path_distance(y_net, p, q) == 0.0

    def test_offset_out_of_bounds(self, y_net):
        with pytest.raises(ValidationError):
            y_net.point(0, 3.5)
        with pytest.raises(ValidationError):
            y_net.point(0, -0.1)

    def test_offsets_outside_edge_rejected(self, y_net):
        # NaN too, by both constructors
        for off in (-0.1, 3.5, np.nan):
            with pytest.raises(ValidationError, match="outside its edge"):
                PointPattern(y_net, [(0, off)])
            with pytest.raises(ValidationError, match="outside its edge"):
                PointPattern.from_indices(y_net, np.array([0]), np.array([off]))

    def test_unorderable_edge_ids_at_junction(self):
        with pytest.raises(ValidationError, match="orderable"):
            LinearNetwork(
                [Vertex(0), Vertex(1), Vertex(2)],
                [Edge(0, 0, 1, 1.0, "main"), Edge("a", 1, 2, 1.0, "main")],
            )


class TestDistances:
    def test_same_edge(self):
        net = LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 1, 4.0, "main")])
        d = shortest_path_distance(net, net.point(0, 1.0), net.point(0, 2.5))
        assert d == 1.5

    def test_y_tree_through_junction(self, y_net):
        # offsets measure from O, so the path runs 2 down one arm and 1 up
        # the other
        d = shortest_path_distance(y_net, y_net.point(0, 2.0), y_net.point(1, 1.0))
        assert d == 3.0

    def test_matches_graph_expansion_oracle(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            net = make_network("random-tree", seed=seed, edges=20)
            eidx, off = random_points(net, 50, rng)
            got = pairwise_distances(net, (eidx, off))
            want = oracle_distances(net, list(zip(eidx, off)))
            assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_metric_axioms(self):
        net = make_network("random-tree", seed=3, edges=30)
        rng = np.random.default_rng(3)
        eidx, off = random_points(net, 1000, rng)
        pts = PointPattern.from_indices(net, eidx, off)
        d = distance_matrix(pts)
        assert_allclose(d, d.T, rtol=0, atol=1e-9)
        assert_allclose(np.diag(d), 0.0, rtol=0, atol=1e-9)
        idx = rng.integers(0, pts.n, size=(1000, 3))
        lhs = d[idx[:, 0], idx[:, 2]]
        rhs = d[idx[:, 0], idx[:, 1]] + d[idx[:, 1], idx[:, 2]]
        assert (lhs <= rhs + 1e-9).all()

    def test_rectangular_and_chunked(self):
        net = make_network("random-tree", seed=4, edges=25)
        rng = np.random.default_rng(4)
        ea, oa = random_points(net, 7, rng)
        eb, ob = random_points(net, 11, rng)
        got = pairwise_distances(net, (ea, oa), (eb, ob))
        want = oracle_distances(net, list(zip(ea, oa)) + list(zip(eb, ob)))[:7, 7:]
        assert_allclose(got, want, rtol=0, atol=1e-9)

    @staticmethod
    def vertex_heavy_points(net, n, rng):
        """Random points, a quarter of them on vertices (offset 0 or the
        edge's length), on few edges so that many pairs share one."""
        eidx, off = random_points(net, n, rng)
        ends = rng.random(n) < 0.25
        off[ends] = np.where(rng.random(ends.sum()) < 0.5, 0.0, net.edge_length[eidx[ends]])
        return eidx, off

    @pytest.mark.parametrize("shape", ["below", "at", "above", "self above", "one row"])
    def test_chunks_match_row_by_row(self, shape):
        # n * m just below, at and just above the chunk budget, and m
        # beyond it, where each chunk is a single row
        net = make_network("dendrite", seed=7)
        rng = np.random.default_rng(len(shape))
        side = int(np.sqrt(_DISTANCE_CHUNK))
        n, m = {"below": (side - 1, side), "at": (side, side), "above": (side + 1, side),
                "self above": (side + 1, side + 1), "one row": (3, _DISTANCE_CHUNK + 1)}[shape]
        ea, oa = self.vertex_heavy_points(net, n, rng)
        if shape == "self above":
            got, (eb, ob) = pairwise_distances(net, (ea, oa)), (ea, oa)
        else:
            eb, ob = self.vertex_heavy_points(net, m, rng)
            got = pairwise_distances(net, (ea, oa), (eb, ob))
        want = np.vstack([_pairwise_core(net, ea[i : i + 1], oa[i : i + 1], eb, ob)
                          for i in range(n)])
        assert np.array_equal(got, want)
        assert (ea[:, None] == eb[None, :]).any() and (oa == 0.0).any()

    def test_leaf_distances(self, y_net):
        pts = PointPattern(y_net, [(0, 2.0), (1, 1.0), (2, 5.0)])
        got = leaf_distances(y_net, pts)
        assert_allclose(got, [1.0, 3.0, 0.0])

    def test_leaf_distances_against_oracle(self):
        net = make_network("random-tree", seed=5, edges=40)
        rng = np.random.default_rng(5)
        eidx, off = random_points(net, 60, rng)
        pts = PointPattern.from_indices(net, eidx, off)
        to_v = oracle_distances(net, list(zip(pts.edge_indices, pts.offsets)), to_vertices=True)
        want = to_v[:, net.leaf_vertices].min(axis=1)
        assert_allclose(leaf_distances(net, pts), want, rtol=0, atol=1e-9)


class TestSimplify:
    def test_two_edge_chain_merges(self):
        net = LinearNetwork(
            [Vertex("A"), Vertex("B"), Vertex("C")],
            [Edge(0, "A", "B", 2.0, "main"), Edge(1, "B", "C", 3.0, "main")],
        )
        out = simplify_tree(net)
        assert len(out.edges) == 1
        assert out.edges[0].length == 5.0
        assert out.total_length == net.total_length

    def test_no_degree_two_identity(self, y_net):
        out = simplify_tree(y_net)
        assert len(out.edges) == len(y_net.edges)
        assert out.total_length == y_net.total_length
        assert sorted(e.length for e in out.edges) == [3.0, 4.0, 5.0]

    def test_distances_between_surviving_vertices_preserved(self):
        net = make_network("random-tree", seed=6, edges=60)
        out = simplify_tree(net)
        keep = [v.id for v in net.vertices if net.degrees[net.vertex_index(v.id)] != 2]
        for vid in keep:
            out.vertex_index(vid)  # must survive
        before = net.vertex_distance_matrix
        after = out.vertex_distance_matrix
        for a in keep:
            for b in keep:
                ia, ib = net.vertex_index(a), net.vertex_index(b)
                ja, jb = out.vertex_index(a), out.vertex_index(b)
                assert abs(before[ia, ib] - after[ja, jb]) < 1e-12

    def test_branch_boundary_survives(self):
        # main-main-side chain: the label change pins the middle vertex.
        net = LinearNetwork(
            [Vertex(i) for i in range(4)],
            [
                Edge(0, 0, 1, 1.0, "main"),
                Edge(1, 1, 2, 2.0, "main"),
                Edge(2, 2, 3, 4.0, "side"),
            ],
        )
        out = simplify_tree(net)
        assert len(out.edges) == 2
        assert out.main_length == 3.0 and out.side_length == 4.0


class TestErode:
    def test_path_interval(self, path10):
        sub = erode(path10, 2.0)
        assert sub.measure == 6.0
        assert len(sub.edge_indices) == 1
        assert_allclose([sub.lows[0], sub.highs[0]], [2.0, 8.0])

    def test_y_tree_one_unit_per_leaf(self, y_net):
        assert erode(y_net, 1.0).measure == 9.0

    def test_total_erosion(self, y_net):
        assert erode(y_net, 100.0).measure == 0.0

    def test_zero_radius_keeps_everything(self, y_net):
        assert erode(y_net, 0.0).measure == y_net.total_length

    def test_measure_nonincreasing(self):
        net = make_network("random-tree", seed=7, edges=30)
        radii = np.linspace(0.0, 20.0, 60)
        measures = [erode(net, float(r)).measure for r in radii]
        assert all(a >= b - 1e-12 for a, b in zip(measures, measures[1:]))

    def test_measure_matches_lattice_scan(self):
        # Fraction of a fine lattice deeper than r approximates the measure.
        net = make_network("random-tree", seed=8, edges=20)
        pts = lattice(net, 0.01)
        pat = PointPattern(net, pts)
        depth = leaf_distances(net, pat)
        for r in (0.5, 2.0, 5.0):
            approx = (depth > r).mean() * net.total_length
            assert abs(erode(net, r).measure - approx) < 0.15

    def test_negative_radius_rejected(self, y_net):
        with pytest.raises(ValidationError):
            erode(y_net, -1.0)


class TestLattice:
    def test_exact_division(self, path10):
        pts = lattice(path10, 5.0)
        assert_allclose(sorted(p.offset for p in pts), [0.0, 5.0, 10.0])

    def test_rounded_up_division(self, path10):
        pts = lattice(path10, 4.0)
        assert_allclose(sorted(p.offset for p in pts), [0.0, 10 / 3, 20 / 3, 10.0])

    def test_junction_deduplicated(self, y_net):
        pts = lattice(y_net, 1.0)
        at_zero = [p for p in pts if p.offset == 0.0 and p.edge_id == 0]
        # all three arms contribute offset 0 at O, kept once
        assert len(at_zero) == 1
        assert len(pts) == len({(p.edge_id, p.offset) for p in pts})
        # 3 + 4 + 5 intervals, 4 + 5 + 6 per-edge points, minus 2 duplicate O's
        assert len(pts) == 13

    def test_spacing_validated(self, y_net):
        with pytest.raises(ValidationError):
            lattice(y_net, 0.0)

    @pytest.mark.parametrize("spacing", [math.inf, math.nan, -1.0])
    def test_spacing_must_be_positive_and_finite(self, y_net, spacing):
        # an infinite spacing used to give one segment per edge: the vertices alone
        with pytest.raises(ValidationError, match="positive and finite"):
            lattice(y_net, spacing)


class TestSphereCount:
    def test_path_interior_two_sided(self, path10):
        assert sphere_count(path10, path10.point(0, 3.0), 2.0) == 2

    def test_path_one_side_off_network(self, path10):
        assert sphere_count(path10, path10.point(0, 3.0), 4.0) == 1

    def test_y_tree_through_junction(self, y_net):
        assert sphere_count(y_net, y_net.point(0, 2.0), 3.0) == 2

    def test_zero_radius(self, y_net):
        assert sphere_count(y_net, y_net.point(0, 2.0), 0.0) == 1

    def test_leaf_hit_counted_once(self, path10):
        assert sphere_count(path10, path10.point(0, 3.0), 7.0) == 1
        assert sphere_count(path10, path10.point(0, 3.0), 3.0) == 2

    def test_vector_of_radii(self, y_net):
        u = y_net.point(0, 2.0)
        got = sphere_count(y_net, u, np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 8.0]))
        # distances from u: A at 1, O at 2, B at 6, C at 7; at t = 2 the
        # sphere degenerates to the junction O alone
        want = np.array([1, 2, 2, 1, 2, 2, 1, 0])
        assert_allclose(got, want)

    def test_vertex_source_at_diameter_counts_far_leaf_once(self):
        # 0.1 + 0.2 + 0.7 is not 1.0 in floating point.
        net = LinearNetwork(
            [Vertex(i) for i in range(4)],
            [Edge(0, 0, 1, 0.1), Edge(1, 1, 2, 0.2), Edge(2, 2, 3, 0.7)],
        )
        u, v = net.point(0, 0.0), net.point(2, 0.7)
        t = shortest_path_distance(net, u, v)
        assert t == 0.9999999999999999
        assert sphere_count(net, u, t) == 1
        assert sphere_count(net, u, np.nextafter(t, 2.0)) == 0

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf, np.array([1.0, -0.5])])
    def test_bad_radius_rejected(self, path10, t):
        with pytest.raises(ValidationError, match="nonnegative"):
            sphere_count(path10, path10.point(0, 3.0), t)

    @staticmethod
    def _oracle_count(net, dv, own_edge, own_off, t):
        """Level count from the distance along each edge.

        ``dv`` holds oracle distances from the source to every vertex. On
        a tree the distance along an edge that does not hold the source
        runs monotonically from its near endpoint to its far one, so the
        edge holds one solution of ``d = t`` iff ``near < t < far``; on the
        source's own edge it is a vee ``|s - o|``. Vertices hit exactly
        count once each.
        """
        count = int((dv == t).sum())
        for ei in range(len(net.edges)):
            da = dv[net.edge_start[ei]]
            db = dv[net.edge_end[ei]]
            if ei == own_edge:
                if t == 0.0 and 0.0 < own_off < net.edge_length[ei]:
                    count += 1
                count += int(0.0 < t < da) + int(0.0 < t < db)
            else:
                count += int(min(da, db) < t < max(da, db))
        return count

    def test_matches_piecewise_linear_oracle(self):
        for seed in (0, 1):
            net = make_network("random-tree", seed=seed, edges=15)
            rng = np.random.default_rng(seed + 10)
            eidx, off = random_points(net, 8, rng)
            pat = PointPattern.from_indices(net, eidx, off)
            to_v = oracle_distances(
                net, list(zip(pat.edge_indices, pat.offsets)), to_vertices=True
            )
            for i in range(pat.n):
                u = pat[i]
                for t in [0.0, 0.3, 1.7, 4.2, 9.1, 14.6]:
                    want = self._oracle_count(
                        net, to_v[i], int(pat.edge_indices[i]), float(pat.offsets[i]), t
                    )
                    assert sphere_count(net, u, t) == want

    def test_matches_oracle_at_vertex_ties(self):
        # Each arithmetic is tested against its own distances: the package
        # at its pair distances, the oracle at Dijkstra's. Every vertex is
        # a point of the pattern, so radii land exactly on vertex and leaf
        # distances in both.
        for seed in range(4):
            net = _chain_tree(seed)
            rng = np.random.default_rng(seed)
            pts = []
            for w in net.vertices:
                inc = net.incident_edges(w.id)
                e = inc[int(rng.integers(len(inc)))]
                pts.append((e.id, 0.0 if e.start == w.id else e.length))
            for _ in range(6):
                e = net.edges[int(rng.integers(net.n_edges))]
                pts.append((e.id, float(rng.uniform(0.0, e.length))))
            pat = PointPattern(net, pts)
            pts = list(zip(pat.edge_indices, pat.offsets))
            got_d = distance_matrix(pat)
            want_d = oracle_distances(net, pts)
            to_v = oracle_distances(net, pts, to_vertices=True)
            for i in range(pat.n):
                mid = np.unique(want_d[i])
                mid = np.concatenate([(mid[:-1] + mid[1:]) / 2, [mid[-1] + 1.0]])
                got = sphere_count(net, pat[i], np.concatenate([got_d[i], mid]))
                want = [
                    self._oracle_count(
                        net, to_v[i], int(pat.edge_indices[i]), float(pat.offsets[i]), t
                    )
                    for t in np.concatenate([want_d[i], mid])
                ]
                assert got.tolist() == want


class TestSphereCountPiecewise:
    def test_constant_between_vertex_distances(self, y_net):
        u = y_net.point(0, 2.0)
        # vertex distances from u: 1 (A), 2 (O), 6 (B), 7 (C)
        for a, b in [(0.0, 1.0), (1.0, 2.0), (2.0, 6.0), (6.0, 7.0)]:
            ts = np.linspace(a + 1e-6, b - 1e-6, 7)
            counts = sphere_count(y_net, u, ts)
            assert np.all(counts == counts[0])


class TestPairsWithin:
    """The range search equals the filtered distance matrix bit for bit."""

    @staticmethod
    def check(net, a, b, reach, skip_self=False):
        got = _pairs_within(net, a, b, reach, skip_self)
        full = pairwise_distances(net, a, b)
        within = full <= np.broadcast_to(reach, full.shape[:1])[:, None]
        if skip_self:
            np.fill_diagonal(within, False)
        rows, cols = np.nonzero(within)
        for g, w in zip(got, (rows, cols, full[rows, cols])):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        return got

    @staticmethod
    def branches(monkeypatch, net, a, b, reach):
        """Per row chunk of the range search, whether it was evaluated whole."""
        dense, core = [], network._pairwise_core
        with monkeypatch.context() as m:
            m.setattr(network, "_pairwise_core",
                      lambda net, e1, *args: dense.append(e1.ndim == 2) or core(net, e1, *args))
            _pairs_within(net, a, b, reach)
        return dense

    def test_points_on_vertices(self, monkeypatch):
        net = make_network("dendrite", seed=7)
        rng = np.random.default_rng(8)
        ea, oa = TestDistances.vertex_heavy_points(net, 300, rng)
        eb, ob = TestDistances.vertex_heavy_points(net, 200, rng)
        for reach in (0.0, 5.0, 40.0, np.inf):
            self.check(net, (ea, oa), (eb, ob), reach)
        for reach in (20.0, np.inf):
            self.check(net, (ea, oa), (ea, oa), reach)
            self.check(net, (ea, oa), (ea, oa), reach, skip_self=True)
        assert self.branches(monkeypatch, net, (ea, oa), (eb, ob), 5.0) == [False]
        assert self.branches(monkeypatch, net, (ea, oa), (eb, ob), np.inf) == [True]

    def test_tree_lattice_within_leaf_distances(self):
        net = make_network("random-tree", seed=2, edges=200)
        grid = PointPattern(net, lattice(net, 3.0))
        rows, _, _ = self.check(net, grid, grid, leaf_distances(net, grid))
        assert 0 < rows.size < grid.n**2

    def test_minus_inf_rows_and_reach_equal_to_a_distance(self, monkeypatch):
        net = make_network("random-tree", seed=4, edges=25)
        ea, oa = random_points(net, 40, np.random.default_rng(4))
        pts = (ea, oa)
        full = pairwise_distances(net, pts)
        # each row's reach is its farthest distance (every chunk evaluated
        # whole), then its fourth nearest (only the candidates)
        for reach, dense in ((full.max(axis=1), [True]), (np.sort(full, axis=1)[:, 3], [False])):
            reach[::3] = -np.inf
            rows, cols, d = self.check(net, pts, pts, reach)
            assert not np.isin(rows, np.arange(0, 40, 3)).any()
            assert (d == reach[rows]).sum() >= 26  # every finite reach keeps the pair at it
            self.check(net, pts, pts, np.nextafter(reach, -np.inf))
            self.check(net, pts, pts, reach, skip_self=True)
            assert self.branches(monkeypatch, net, pts, pts, reach) == dense

    @pytest.mark.parametrize("n", [23, 24, 25])
    def test_chunk_boundaries(self, monkeypatch, n):
        # 8 rows a chunk; rows alternate between no reach and all of it in
        # blocks, so both branches run and chunks end inside and between blocks
        net = make_network("dendrite", seed=7)
        rng = np.random.default_rng(n)
        ea, oa = TestDistances.vertex_heavy_points(net, n, rng)
        eb, ob = TestDistances.vertex_heavy_points(net, 50, rng)
        monkeypatch.setattr(network, "_DISTANCE_CHUNK", 8 * 50)
        reach = np.where(np.arange(n) // 8 % 2 == 0, np.inf, 3.0)
        self.check(net, (ea, oa), (eb, ob), reach)
        dense = self.branches(monkeypatch, net, (ea, oa), (eb, ob), reach)
        assert dense == [True, False, True, False][: -(-n // 8)]
        monkeypatch.setattr(network, "_DISTANCE_CHUNK", 8 * n)  # the same blocks, a by a
        self.check(net, (ea, oa), (ea, oa), reach, skip_self=True)
        assert self.branches(monkeypatch, net, (ea, oa), (ea, oa), reach) == dense

    def test_sparse_columns_on_many_edges_allocate_little(self):
        # 20 columns on a 1000-edge tree: a row chunk holds 13107 rows, and
        # the gap test reads only the columns' edges, not a chunk x E table (105 MB)
        net = make_network("random-tree", seed=5, edges=1000)
        rng = np.random.default_rng(5)
        a, b = random_points(net, 20_000, rng), random_points(net, 20, rng)
        self.check(net, (a[0][:500], a[1][:500]), b, 30.0)
        tracemalloc.start()
        try:
            rows, _, _ = _pairs_within(net, a, b, 30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < rows.size and peak < 16e6

    def test_empty_inputs_warn_nothing(self):
        net = make_network("dendrite", seed=7)
        e, o = random_points(net, 5, np.random.default_rng(0))
        none = (e[:0], o[:0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in (((e, o), none), (none, (e, o)), (none, none)):
                for reach in (1.0, np.inf):
                    rows, cols, d = self.check(net, a, b, reach)
                    assert rows.size == cols.size == d.size == 0
            self.check(net, (e, o), (e, o), np.full(5, -np.inf))


def sphere_counts_per_source(net, e_src, o_src, radii):
    """The former ``_sphere_count_matrix``: one row of radii per source, one
    sort and one ``searchsorted`` per source."""
    keep = np.nonzero(net.degrees != 2)[0]
    dv = pairwise_distances(
        net, (e_src, o_src), (net._vertex_canon_edge[keep], net._vertex_canon_offset[keep])
    )
    order = np.argsort(dv, axis=1)
    dv = np.take_along_axis(dv, order, axis=1)
    steps = np.full((e_src.size, keep.size + 1), 2, dtype=np.int64)
    steps[:, 1:] = net.degrees[keep][order] - 2
    cum = np.cumsum(steps, axis=1)
    out = np.empty(radii.shape, dtype=np.int64)
    for i in range(e_src.size):
        out[i] = cum[i, np.searchsorted(dv[i], radii[i], side="left")]
    out[radii == 0.0] = 1
    return out


class TestFlatSphereCounts:
    """Sphere counts over a flat list of pairs equal the per-source counts."""

    @staticmethod
    def check(net, e, o, radii):
        rows = np.repeat(np.arange(e.size), radii.shape[1])
        got = _sphere_count_matrix(net, e, o, rows, radii.ravel())
        want = sphere_counts_per_source(net, e, o, radii)
        assert got.dtype == np.int64 and np.array_equal(got, want.ravel())
        return got

    @pytest.mark.parametrize("seed", range(3))
    def test_radii_at_vertex_distances(self, seed):
        # strict: a vertex at distance exactly t is not yet passed
        net = _chain_tree(seed)
        pts = [net.point(e.id, 0.0) for e in net.edges] + [net.point(e.id, e.length / 3)
                                                             for e in net.edges]
        pat = PointPattern(net, pts)
        at = pairwise_distances(net, pat, (net._vertex_canon_edge, net._vertex_canon_offset))
        above = np.nextafter(at, np.inf)
        below = np.nextafter(at, 0.0)
        self.check(net, pat.edge_indices, pat.offsets, np.hstack([at, above, below]))

    def test_radius_zero_counts_one(self, y_net):
        pat = PointPattern(y_net, [(0, 0.0), (0, 2.0), (1, 3.0), (2, 5.0)])
        got = self.check(y_net, pat.edge_indices, pat.offsets, np.zeros((4, 3)))
        assert (got == 1).all()

    @pytest.mark.parametrize("count", [_SPHERE_CHUNK - 1, _SPHERE_CHUNK, _SPHERE_CHUNK + 1])
    def test_chunk_edges(self, count):
        net = make_network("random-tree", seed=2, edges=200)
        rng = np.random.default_rng(count)
        e, o = random_points(net, 64, rng)
        rows = np.sort(rng.integers(0, 64, count))
        radii = pairwise_distances(net, (e, o))[rows, rng.integers(0, 64, count)]
        got = _sphere_count_matrix(net, e, o, rows, radii)
        want = [sphere_counts_per_source(net, e[i : i + 1], o[i : i + 1], radii[rows == i][None])
                for i in range(64)]
        assert np.array_equal(got, np.concatenate([w.ravel() for w in want]))
