import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, sparse
from scipy.sparse.linalg import splu

from linnetcox import (
    CoxModel,
    Edge,
    FgjConfig,
    IntensityModel,
    LinearNetwork,
    PointPattern,
    ValidationError,
    Vertex,
    default_bandwidth,
    default_r_grid,
    fgj_estimates,
    fit_intensity_mle,
    g_estimate,
    k_estimate,
    k_function,
    kernel_intensity,
    lattice,
    leaf_distances,
    make_network,
    pair_correlation,
    pairwise_distances,
    simulate_cox,
    simulate_poisson,
    spawn_generators,
)
from linnetcox import estimation, summaries
from linnetcox import network
from linnetcox.network import _recurrence, distance_matrix
from linnetcox.summaries import (
    PairData,
    _erosion_curve,
    _stable_argsort,
    g_from_pairs,
    k_from_pairs,
    second_order_estimates,
    second_order_pairs,
)

from conftest import frozen_pattern, oracle_distances

mpmath = pytest.importorskip("mpmath")


def g0_reference(t, sigma2, beta, k):
    """High-precision pair correlation, independent of the package."""
    mpmath.mp.dps = 40
    s2 = mpmath.mpf(repr(sigma2))
    c0 = mpmath.exp(-mpmath.mpf(repr(beta)) * mpmath.mpf(repr(t)))
    ratio = (1 + s2) ** 2 / ((1 + s2) ** 2 - s2**2 * c0**2)
    return float(ratio ** (mpmath.mpf(k) / 2))


class TestIntensityMle:
    def _net(self, main_len, side_len):
        return LinearNetwork(
            [Vertex(0), Vertex(1), Vertex(2)],
            [Edge(0, 0, 1, main_len, "main"), Edge(1, 1, 2, side_len, "side")],
        )

    def test_reported_ratios(self):
        net = self._net(212.0, 652.0)
        rng = np.random.default_rng(0)
        pts = [(0, float(o)) for o in rng.uniform(0, 212, 51)]
        pts += [(1, float(o)) for o in rng.uniform(0, 652, 308)]
        est = fit_intensity_mle(PointPattern(net, pts))
        assert_allclose(est.main, 51 / 212, rtol=1e-15)
        assert_allclose(est.side, 308 / 652, rtol=1e-15)
        assert round(est.main, 4) == 0.2406
        assert round(est.side, 4) == 0.4724

    def test_more_reported_ratios(self):
        net2 = self._net(202.0, 305.0)
        rng = np.random.default_rng(1)
        pts = [(0, float(o)) for o in rng.uniform(0, 202, 72)]
        est = fit_intensity_mle(PointPattern(net2, pts))
        assert_allclose(est.main, 72 / 202, rtol=1e-15)
        net3 = self._net(204.0, 310.0)
        pts = [(0, float(o)) for o in rng.uniform(0, 204, 36)]
        est = fit_intensity_mle(PointPattern(net3, pts))
        assert_allclose(est.main, 36 / 204, rtol=1e-15)

    def test_empty_pattern(self, y_net):
        est = fit_intensity_mle(PointPattern(y_net, []))
        assert est.main == 0.0 and est.side == 0.0

    def test_zero_measure_branch(self, path10):
        # a pure-main network has no side measure; its side rate is zero
        est = fit_intensity_mle(PointPattern(path10, [(0, 1.0), (0, 2.0)]))
        assert est.main == 0.2 and est.side == 0.0

    def test_min_positive_skips_empty_and_absent_branches(self, path10):
        net = self._net(2.0, 3.0)
        assert IntensityModel(0.0, 0.4).min_positive(net) == 0.4
        assert IntensityModel(0.6, 0.4).min_positive(net) == 0.4
        assert IntensityModel(0.0, 0.0).min_positive(net) == 0.0
        assert IntensityModel(0.2, 0.1).min_positive(path10) == 0.2  # no side measure

    def test_empty_pattern_has_no_default_rho_bar(self, y_net):
        with pytest.raises(ValidationError, match="rho_bar must be positive, got 0.0"):
            fgj_estimates(PointPattern(y_net, []))


class TestKernelIntensity:
    def test_empty_pattern_zero(self, path10):
        est = kernel_intensity(path10, PointPattern(path10, []), bandwidth=1.0)
        assert all(np.all(v == 0.0) for v in est.edge_values)

    def test_line_gaussian_profile(self):
        net = LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 1, 100.0, "main")])
        bw = 2.0
        est = kernel_intensity(net, PointPattern(net, [(0, 50.0)]), bandwidth=bw)
        x = est.edge_offsets[0]
        want = np.exp(-((x - 50.0) ** 2) / (2 * bw**2)) / (bw * math.sqrt(2 * math.pi))
        err = np.abs(est.edge_values[0] - want).max()
        assert err <= 0.02 * want.max()

    def test_mass_conserved(self):
        net = make_network("dendrite", seed=3)
        pat = simulate_poisson(net, 0.3, seed=3)
        est = kernel_intensity(net, pat, bandwidth=4.0)
        assert_allclose(est.integral(), pat.n, rtol=5e-3)

    def test_mass_spreads_across_junction(self, y_net):
        est = kernel_intensity(y_net, PointPattern(y_net, [(0, 0.5)]), bandwidth=1.0)
        # the source sits half a unit from O; every arm must receive mass
        assert all(v.max() > 1e-4 for v in est.edge_values)
        assert_allclose(est.integral(), 1.0, rtol=5e-3)

    def test_under_resolved_spacing_rejected(self, path10):
        with pytest.raises(ValidationError, match="spacing"):
            kernel_intensity(path10, PointPattern(path10, [(0, 5.0)]), 1.0, spacing=1.0)

    def test_at_points_interpolates(self, path10):
        est = kernel_intensity(path10, PointPattern(path10, [(0, 5.0)]), bandwidth=1.0)
        vals = est.at_points([(0, 5.0), (0, 9.9)])
        assert vals[0] > vals[1] > 0


def splu_kernel_intensity(net, pattern, bandwidth):
    """The reference heat-kernel estimate: the finite-volume Laplacian assembled as a sparse
    matrix, each of the 64 implicit steps solved by scipy's general sparse LU."""
    spacing, steps = bandwidth / 10.0, 64
    chains, edge_h, next_node = [], np.empty(net.n_edges), net.n_vertices
    for ei in range(net.n_edges):
        nseg = max(1, round(net.edge_length[ei] / spacing))
        edge_h[ei] = net.edge_length[ei] / nseg
        chains.append(np.r_[net.edge_start[ei], np.arange(next_node, next_node + nseg - 1),
                            net.edge_end[ei]])
        next_node += nseg - 1
    rows, cols, vals, cell = [], [], [], np.zeros(next_node)
    for chain, h in zip(chains, edge_h):
        a, b = chain[:-1], chain[1:]
        rows.extend([a, b, a, b])
        cols.extend([b, a, a, b])
        vals.extend([np.full(a.size, v / h) for v in (-1.0, -1.0, 1.0, 1.0)])
        np.add.at(cell, a, h / 2.0)
        np.add.at(cell, b, h / 2.0)
    lap = sparse.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(next_node, next_node))
    mass = sparse.diags(cell, format="csc")
    f = np.zeros(next_node)
    for ei, off in zip(pattern.edge_indices, pattern.offsets):
        chain, pos = chains[ei], off / edge_h[ei]
        left = min(int(pos), chain.size - 2)
        f[chain[left]] += (1.0 - (pos - left)) / cell[chain[left]]
        f[chain[left + 1]] += (pos - left) / cell[chain[left + 1]]
    dt = bandwidth**2 / 2.0 / steps
    solver = splu(mass + (dt / 2.0) * lap)
    for _ in range(4):
        f = solver.solve(mass @ f)
    for _ in range(steps - 2):
        f = solver.solve((mass - (dt / 2.0) * lap) @ f)
    return [h * np.arange(c.size) for h, c in zip(edge_h, chains)], [f[c] for c in chains]


def kernel_cases():
    """(network, pattern, bandwidth) for the small fixtures, the dendrite at three
    bandwidths and the 200-edge random tree."""
    path = LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 1, 10.0, "main")])
    y = LinearNetwork([Vertex("O"), Vertex("A"), Vertex("B"), Vertex("C")],
                      [Edge(0, "O", "A", 3.0, "main"), Edge(1, "O", "B", 4.0, "side"),
                       Edge(2, "O", "C", 5.0, "side")])
    dendrite = make_network("dendrite", seed=7)
    readme = frozen_pattern("readme_seed3", dendrite)
    tree = make_network("random-tree", seed=2, edges=200)
    return {
        "path10": (path, PointPattern(path, [(0, 0.0), (0, 2.5), (0, 7.3), (0, 10.0)]), 1.0),
        "y_net": (y, PointPattern(y, [(0, 0.5), (1, 4.0), (2, 2.2), (2, 2.2)]), 1.0),
        "dendrite-10": (dendrite, readme, 10.0),
        "dendrite-5": (dendrite, readme, 5.0),
        "dendrite-2": (dendrite, readme, 2.0),
        "tree200": (tree, simulate_poisson(tree, 0.5, seed=2), 5.0),
    }


def preorder_kernel_intensity(net, pattern, bandwidth):
    """The tree elimination with the node layout worked out from ``net._preorder`` alone, as
    it was before the layout came from ``network._walk``: each vertex's node after the
    interior nodes of the edge to its parent, and each edge's chain read back from there."""
    nseg = np.maximum(1.0, np.rint(net.edge_length / (bandwidth / 10.0))).astype(np.intp)
    h = net.edge_length / nseg
    order, up = np.asarray(net._preorder), np.asarray(net._parent_edge)
    e_up = up[order[1:]]
    last = np.cumsum(np.r_[1, nseg[e_up]]) - 1  # each vertex's node, in walk order
    node = last[np.argsort(order)]
    n_nodes = int(last[-1]) + 1
    pred = np.arange(-1, n_nodes - 1)
    pred[last[1:] - nseg[e_up] + 1] = node[net.edge_start[e_up] + net.edge_end[e_up] - order[1:]]
    link = np.repeat(h[e_up], nseg[e_up])
    cell = np.r_[0.0, link / 2.0] + np.bincount(pred[1:], link / 2.0, minlength=n_nodes)
    w = np.r_[0.0, bandwidth * bandwidth / 2.0 / summaries._HEAT_STEPS / 2.0 / link]
    piv = (cell + w + np.bincount(pred[1:], w[1:], minlength=n_nodes)).tolist()
    upward = list(zip(range(n_nodes - 1, 0, -1), pred[:0:-1].tolist(), w[:0:-1].tolist()))
    for i, p, w_i in upward:
        piv[p] -= w_i * w_i / piv[i]
    upward = [(i, p, w_i / piv[i]) for i, p, w_i in upward]
    piv = np.array(piv)
    a = w / piv

    def solve(r):
        y = r.tolist()
        for i, p, a_i in upward:
            y[p] += a_i * y[i]
        return _recurrence(pred, a, (np.array(y) / piv)[:, None])[:, 0]

    chains = []
    for e, (s, t, k) in enumerate(zip(net.edge_start, net.edge_end, nseg)):
        c = s if up[s] == e else t  # the end away from the root
        chain = np.r_[node[s + t - c], np.arange(node[c] - k + 1, node[c] + 1)]
        chains.append(chain[::-1] if s == c else chain)
    pos = pattern.offsets / h[pattern.edge_indices]
    left = np.minimum(pos.astype(np.intp), nseg[pattern.edge_indices] - 1)
    at = np.r_[0, np.cumsum(nseg + 1)[:-1]][pattern.edge_indices] + left
    ends = np.concatenate(chains)[np.r_[at, at + 1]]
    f = np.bincount(ends, np.r_[1.0 - (pos - left), pos - left] / cell[ends], minlength=n_nodes)
    for _ in range(4):
        f = solve(cell * f)
    for _ in range(summaries._HEAT_STEPS - 2):
        f = 2.0 * solve(cell * f) - f
    return [f[chain] for chain in chains]


class TestKernelIntensityByTreeElimination:
    @pytest.mark.parametrize("case", list(kernel_cases()))
    def test_matches_sparse_lu(self, case):
        net, pattern, bandwidth = kernel_cases()[case]
        est = kernel_intensity(net, pattern, bandwidth)
        offsets, values = splu_kernel_intensity(net, pattern, bandwidth)
        for got, want in zip(est.edge_offsets, offsets):
            assert np.array_equal(got, want)
        got, want = np.concatenate(est.edge_values), np.concatenate(values)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())

    @pytest.mark.parametrize("case", list(kernel_cases()))
    def test_walk_layout_keeps_the_preorder_bits(self, case):
        net, pattern, bandwidth = kernel_cases()[case]
        got = kernel_intensity(net, pattern, bandwidth).edge_values
        want = preorder_kernel_intensity(net, pattern, bandwidth)
        assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("case", ["y_net", "dendrite-5", "tree200"])
    def test_each_chain_runs_from_the_start_to_the_end(self, case):
        net, pattern, bandwidth = kernel_cases()[case]
        est = kernel_intensity(net, pattern, bandwidth)
        at_vertex = {}  # every edge reads a vertex's one node, at offset 0 or at its length
        for e, values in enumerate(est.edge_values):
            at_vertex.setdefault(net.edge_start[e], set()).add(values[0])
            at_vertex.setdefault(net.edge_end[e], set()).add(values[-1])
        assert len(at_vertex) == net.n_vertices and all(len(v) == 1 for v in at_vertex.values())
        assert len(set().union(*at_vertex.values())) > 1  # not one constant everywhere

    @pytest.mark.parametrize("case", list(kernel_cases()))
    def test_integral_is_the_point_count(self, case):
        net, pattern, bandwidth = kernel_cases()[case]
        assert_allclose(kernel_intensity(net, pattern, bandwidth).integral(), pattern.n,
                        rtol=1e-12)

    def test_at_points_is_np_interp_on_each_edge(self):
        net, pattern, bandwidth = kernel_cases()["dendrite-5"]
        est = kernel_intensity(net, pattern, bandwidth)
        rng = np.random.default_rng(4)
        # both ends of every edge (each end vertex is shared), every grid node, random points
        e = np.r_[np.arange(net.n_edges), np.arange(net.n_edges), rng.integers(0, net.n_edges, 500)]
        o = np.r_[np.zeros(net.n_edges), net.edge_length, rng.uniform(0, net.edge_length[e[-500:]])]
        nodes = np.repeat(np.arange(net.n_edges), [x.size for x in est.edge_offsets])
        inside = np.concatenate(est.edge_offsets) <= net.edge_length[nodes]
        e = np.r_[e, nodes[inside]]
        o = np.r_[o, np.concatenate(est.edge_offsets)[inside]]
        want = np.array([np.interp(oi, est.edge_offsets[ei], est.edge_values[ei])
                         for ei, oi in zip(e, o)])
        assert_allclose(est.at_points((e, o)), want, rtol=1e-14)


class TestPairCorrelation:
    def test_value_at_zero(self):
        model = CoxModel(1.0, 1.0, 1.0, 0.5, k=1)
        assert_allclose(pair_correlation(model, 0.0), math.sqrt(4 / 3), rtol=1e-14)
        assert_allclose(pair_correlation(model, 0.0), 1.154701, atol=1e-6)

    def test_reference_point(self):
        model = CoxModel(1.0, 1.0, 1.0, 0.5, k=1)
        got = pair_correlation(model, 1.0)
        assert_allclose(got, math.sqrt(4 / (4 - math.exp(-1))), rtol=1e-14)
        assert_allclose(got, 1.049421, atol=1e-6)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            s2 = float(rng.uniform(0.1, 10))
            beta = float(rng.uniform(0.01, 2))
            k = int(rng.integers(1, 6))
            t = float(rng.uniform(0, 50))
            got = pair_correlation(CoxModel(1, 1, s2, beta, k), t)
            assert_allclose(got, g0_reference(t, s2, beta, k), rtol=1e-12)

    def test_poisson_limit(self):
        model = CoxModel(1.0, 1.0, 1e-10, 0.5)
        t = np.linspace(0, 50, 101)
        assert np.all(np.abs(pair_correlation(model, t) - 1.0) <= 1e-6)

    def test_monotone_in_parameters(self):
        t = np.linspace(0.0, 20.0, 41)
        base = pair_correlation(CoxModel(1, 1, 2.0, 0.5, 2), t)
        assert np.all(pair_correlation(CoxModel(1, 1, 3.0, 0.5, 2), t) >= base)
        assert np.all(pair_correlation(CoxModel(1, 1, 2.0, 0.8, 2), t) <= base)
        assert np.all(pair_correlation(CoxModel(1, 1, 2.0, 0.5, 3), t) >= base)

    def test_decreasing_to_one(self):
        g = pair_correlation(CoxModel(1, 1, 4.0, 0.3), np.linspace(0, 80, 200))
        assert np.all(np.diff(g) <= 1e-12)
        assert abs(g[-1] - 1.0) < 1e-8


class TestKTheoretical:
    def test_zero_radius(self):
        for k in range(1, 6):
            assert k_function(CoxModel(1, 1, 2.0, 0.4, k), 0.0) == 0.0

    def test_never_negative(self):
        # x(0) is rounded two ways, so the closed form gave K(0) from -5.6e-14 to
        # 5.6e-14 (189 of these 8610 models below 0), and a p < 1 contrast took its root
        r = np.concatenate([[0.0], np.geomspace(1e-12, 60.0, 40)])
        for k in range(1, 11):
            for s2 in np.geomspace(1e-4, 1e4, 41):
                for beta in np.geomspace(1e-3, 10.0, 21):
                    model = CoxModel(1, 1, float(s2), float(beta), k)
                    assert k_function(model, 0.0) == 0.0
                    assert np.all(k_function(model, r) >= 0.0)

    @pytest.mark.parametrize("r", [[1.0, 2.0], (1.0, 2.0), np.array([1.0, 2.0]), [[1.0], [2.0]]])
    def test_sequences_give_arrays(self, r):
        model = CoxModel(1, 1, 5.0, 0.1)
        got = k_function(model, r)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(r)
        assert got.ravel().tolist() == [k_function(model, 1.0), k_function(model, 2.0)]

    @pytest.mark.parametrize("r", [2.0, 2, np.float64(2.0), np.array(2.0)])
    def test_scalars_give_floats(self, r):
        got = k_function(CoxModel(1, 1, 5.0, 0.1), r)
        assert type(got) is float and got == k_function(CoxModel(1, 1, 5.0, 0.1), [2.0])[0]

    def test_reference_point_k2(self):
        got = k_function(CoxModel(1, 1, 1.0, 1.0, k=2), 1.0)
        want = 0.5 * math.log((math.e**2 - 0.25) / 0.75)
        assert_allclose(got, want, rtol=1e-10)
        assert_allclose(got, 1.126634, atol=1e-5)

    def test_closed_forms_match_quadrature(self):
        rng = np.random.default_rng(4)
        for k in range(1, 11):
            for _ in range(4):
                s2 = float(rng.uniform(0.1, 10))
                beta = float(rng.uniform(0.01, 2))
                r = float(rng.uniform(0.5, 50))
                model = CoxModel(1, 1, s2, beta, k)
                want, err = integrate.quad(
                    lambda t: float(pair_correlation(model, t)), 0, r,
                    epsabs=1e-12, epsrel=1e-12, limit=200,
                )
                assert err < 1e-9
                assert_allclose(k_function(model, r), want, rtol=1e-8)

    def test_dominates_poisson_line(self):
        r = np.linspace(0.0, 40.0, 81)
        k_vals = k_function(CoxModel(1, 1, 3.0, 0.2, 2), r)
        assert np.all(k_vals >= r - 1e-12)
        assert np.all(np.diff(k_vals) > 0)
        near_poisson = k_function(CoxModel(1, 1, 1e-10, 0.2, 1), r)
        assert np.max(np.abs(near_poisson - r)) <= 1e-6


class TestKHat:
    def test_two_point_example(self, path10):
        pat = PointPattern(path10, [(0, 4.0), (0, 6.0)])
        r = np.array([0.0, 1.0, 1.999, 2.0, 3.0, 10.0])
        curve = k_estimate(pat, intensity=0.2, r=r)
        assert_allclose(curve.values, [0.0, 0.0, 0.0, 2.5, 2.5, 2.5])

    def test_vertex_pair_across_inexact_path(self):
        # Edges 0.1, 0.2 and 0.7 put v3 at 0.9999999999999999 from v0, and
        # only v3 lies that far: the sphere count is 1, so each ordered
        # pair weighs 1 / rho**2.
        net = LinearNetwork(
            [Vertex(i) for i in range(4)],
            [Edge(0, 0, 1, 0.1), Edge(1, 1, 2, 0.2), Edge(2, 2, 3, 0.7)],
        )
        rho = 2.0
        pairs = second_order_pairs(PointPattern(net, [(0, 0.0), (2, 0.7)]), rho)
        assert pairs.distances.tolist() == [0.9999999999999999] * 2
        assert pairs.weights.tolist() == [1.0 / rho**2] * 2

    def test_single_point_zero(self, path10):
        curve = k_estimate(PointPattern(path10, [(0, 4.0)]), intensity=0.2)
        assert np.all(curve.values == 0.0)

    def test_nondecreasing_step(self):
        net = make_network("dendrite", seed=5)
        pat = simulate_poisson(net, 0.4, seed=5)
        curve = k_estimate(pat)
        assert np.all(np.diff(curve.values) >= 0.0)

    def test_integral_of_g_matches_k(self):
        net = make_network("dendrite", seed=6)
        pat = simulate_poisson(net, 1.0, seed=6)
        b = 1.0
        r = np.linspace(0.0, 30.0, 1201)
        g = g_estimate(pat, intensity=1.0, r=r, bandwidth=b)
        k = k_estimate(pat, intensity=1.0, r=r)
        running = integrate.cumulative_trapezoid(g.values, r, initial=0.0)
        sel = r >= 4 * b
        rel = np.abs(running[sel] - k.values[sel]) / k.values[sel]
        assert rel.max() < 0.02


class TestGHat:
    def test_kernel_mass_identity(self, path10):
        pat = PointPattern(path10, [(0, 4.0), (0, 6.0)])
        b = 0.5
        pairs = second_order_pairs(pat, 0.2)
        r = np.linspace(2.0 - b, 2.0 + b, 4001)
        g = g_from_pairs(pairs, r, b)
        mass = integrate.trapezoid(g, r)
        want = 2.0 / (10.0 * 0.2 * 0.2 * 2.0)
        assert_allclose(mass, want, rtol=1e-6)

    def test_reflection_preserves_mass_near_zero(self, path10):
        pat = PointPattern(path10, [(0, 4.0), (0, 4.5)])
        b = 1.0
        pairs = second_order_pairs(pat, 0.2)
        r = np.linspace(0.0, 2.0, 8001)
        g = g_from_pairs(pairs, r, b)
        mass = integrate.trapezoid(g, r)
        want = 2.0 / (10.0 * 0.2 * 0.2 * 2.0)
        assert_allclose(mass, want, rtol=1e-6)

    def test_zero_away_from_pairs(self, path10):
        pat = PointPattern(path10, [(0, 4.0), (0, 6.0)])
        g = g_estimate(pat, intensity=0.2, r=np.array([0.5, 5.0]), bandwidth=0.5)
        assert_allclose(g.values, 0.0)

    def test_bandwidth_recorded(self, path10):
        pat = PointPattern(path10, [(0, 4.0), (0, 6.0)])
        g = g_estimate(pat, intensity=0.2, bandwidth=0.7)
        assert g.metadata["bandwidth"] == 0.7

    def test_default_bandwidth_rule(self):
        assert_allclose(default_bandwidth(4.0), 0.15 / 2.0, rtol=1e-15)
        net = make_network("dendrite", seed=8)
        pat = simulate_poisson(net, 0.5, seed=8)
        g = g_estimate(pat)
        assert_allclose(g.metadata["bandwidth"], 0.15 / math.sqrt(pat.n / net.total_length), rtol=1e-12)

    def test_default_bandwidth_is_the_mce_g_bandwidth(self, fgj_patterns):
        # the g that the estimates write is the g that mce-g fits, whatever the intensity;
        # on the README commands' pattern the mean rho over the points gave 0.2092
        net = fgj_patterns["readme"].network
        current = simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=spawn_generators(3, 3)[0]).pattern
        for pattern in (fgj_patterns["readme"], current):
            _, bandwidth, _ = estimation._contrast_grid(pattern, estimation.MinContrastConfig())
            kernel = kernel_intensity(net, pattern, bandwidth=10.0)
            for intensity in (None, kernel):
                assert g_estimate(pattern, intensity).metadata["bandwidth"] == bandwidth
        assert current.n == 273 and round(bandwidth, 4) == 0.2181


def g_dense_loop(pairs, r, bandwidth, chunk=4096):
    """g by the former dense loop: every kernel value of every chunk's full
    (radii x pairs) block, summed row by row."""
    r = np.asarray(r, dtype=np.float64)
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


def k_full_sort(pairs, r):
    """K by the former full sort of every pair."""
    r = np.asarray(r, dtype=np.float64)
    if pairs.distances.size == 0:
        return np.zeros(r.shape)
    order = np.argsort(pairs.distances, kind="stable")
    cum_w = np.cumsum(pairs.weights[order])
    idx = np.searchsorted(pairs.distances[order], r, side="right")
    return np.where(idx > 0, cum_w[np.maximum(idx - 1, 0)], 0.0) / pairs.total_length


@pytest.fixture(scope="module")
def pair_sets(fgj_patterns):
    """(pairs, bandwidth) of the README pattern, two criterion-07 patterns
    and one Poisson pattern of criterion 05 (there with b = 0.5)."""
    c07 = make_network("dendrite", seed=4, side_target=650.0)
    tree = make_network("random-tree", seed=2, edges=200)
    pats = {"readme": fgj_patterns["readme"]}
    for seed in (1, 2):
        pats[f"c07-{seed}"] = simulate_cox(c07, CoxModel(0.8, 1.2, 5.0, 0.1), seed=seed).pattern
    sets = {
        name: (second_order_pairs(p, fit_intensity_mle(p)),
               default_bandwidth(p.n / p.network.total_length))
        for name, p in pats.items()
    }
    sets["c05"] = (second_order_pairs(simulate_poisson(tree, 0.5, seed=1000), 0.5), 0.5)
    return sets


def edge_radii(pairs, b, count=16):
    """Radii one to three ulps either side of ``d - b`` and ``d + b`` for
    ``count`` pair distances, and those exact sums themselves."""
    d = pairs.distances[:: max(1, pairs.distances.size // count)][:count]
    r = [d - b, d + b]
    for edge in (d - b, d + b):
        for toward in (-np.inf, np.inf):
            x = edge
            for _ in range(3):
                x = np.nextafter(x, toward)
                r.append(x)
    r = np.concatenate(r)
    return r[r >= 0]


SPARSE_GRIDS = {
    "contrast": lambda b: np.linspace(0.0, 30.0, 512),
    "summaries": lambda b: np.linspace(0.0, 30.0, 121),
    "c05": lambda b: np.linspace(1.0, 25.0, 25),
    "near-zero": lambda b: np.linspace(0.0, 3.0 * b, 64),
    "shuffled": lambda b: np.random.default_rng(2).permutation(np.linspace(0.0, 30.0, 512)),
    "repeats": lambda b: np.array([5.0, 5.0, 0.0, b, b, 29.0, 0.0]),
}


class TestGMatchesDenseLoop:
    """g summed only over the kernel's support matches the former dense loop
    up to summation order, and K from the pairs it can count equals the
    full sort bit for bit."""

    @staticmethod
    def check(pairs, r, b):
        # atol=0: a radius the dense loop gives exactly 0 must be exactly 0
        assert_allclose(g_from_pairs(pairs, r, b), g_dense_loop(pairs, r, b), rtol=1e-13, atol=0.0)
        assert np.array_equal(k_from_pairs(pairs, r), k_full_sort(pairs, r), equal_nan=True)

    @pytest.mark.parametrize("grid", list(SPARSE_GRIDS))
    @pytest.mark.parametrize("name", ["readme", "c07-1", "c07-2", "c05"])
    def test_grids(self, pair_sets, name, grid):
        pairs, b = pair_sets[name]
        self.check(pairs, SPARSE_GRIDS[grid](b), b)

    @pytest.mark.parametrize("name", ["readme", "c07-1", "c05"])
    def test_radii_at_support_edges(self, pair_sets, name):
        pairs, b = pair_sets[name]
        self.check(pairs, edge_radii(pairs, b), b)
        self.check(pairs, edge_radii(pairs, 0.5 * b), 0.5 * b)

    @pytest.mark.parametrize("b", [0.7, 30e-14, 1e-300])
    def test_short_pairs_at_support_edges(self, b):
        # r - d is inexact only where d < r / 2: at short pairs' support
        # edges rounding decides whether |r - d| <= b
        rng = np.random.default_rng(3)
        pairs = PairData(rng.uniform(0.0, b, 500), rng.uniform(0.5, 2.0, 500), 577.0)
        self.check(pairs, edge_radii(pairs, b, count=500), b)

    @pytest.mark.parametrize("name", ["readme", "c05"])
    def test_extreme_bandwidths(self, pair_sets, name):
        pairs, _ = pair_sets[name]
        r = np.concatenate([np.linspace(0.0, 30.0, 121), np.sort(pairs.distances[:50])])
        self.check(pairs, r, 2.0 * pairs.distances.max())
        with np.errstate(over="ignore"):  # (r -+ d) / b outside the support
            self.check(pairs, r, 1e-300)
        self.check(pairs, edge_radii(pairs, 1e-14 * 30.0), 1e-14 * 30.0)

    @pytest.mark.parametrize("n", [1, 4096, 4097, 9000])
    def test_chunk_edges(self, n):
        rng = np.random.default_rng(n)
        pairs = PairData(np.sort(rng.uniform(0.0, 30.0, n))[rng.permutation(n)],
                         rng.uniform(0.5, 2.0, n), 577.0)
        r = np.linspace(0.0, 30.0, 512)
        assert np.count_nonzero(pairs.distances <= r.max() + 0.7) == n
        self.check(pairs, r, 0.7)
        self.check(pairs, r[::-1], 0.7)

    def test_no_pairs(self):
        empty = PairData(np.empty(0), np.empty(0), 10.0)
        self.check(empty, np.linspace(0.0, 5.0, 11), 0.5)

    @staticmethod
    def uniform_pairs(n, seed=0):
        rng = np.random.default_rng(seed)
        return PairData(rng.uniform(0.0, 30.0, n), rng.uniform(0.5, 2.0, n), 577.0)

    @pytest.mark.parametrize("count", [1, 15, 16, 17, 31, 32, 33])
    def test_slab_edges(self, count):
        # few radii, in either order, over two full chunks
        pairs, r = self.uniform_pairs(9000), np.linspace(30.0, 0.0, count)
        self.check(pairs, r, 0.7)
        self.check(pairs, r[::-1], 0.7)

    @pytest.mark.parametrize("width", [127, 128, 129])
    def test_narrow_last_chunk(self, width):
        # a last chunk of 127 to 129 pairs after a full one
        pairs, r = self.uniform_pairs(4096 + width, seed=width), np.linspace(0.0, 30.0, 512)
        self.check(pairs, r, 0.7)
        self.check(pairs, r[::-1], 0.7)

    def test_reversed_repeated_and_2d_radii(self):
        pairs, r = self.uniform_pairs(5000), np.linspace(0.0, 30.0, 160)
        self.check(pairs, r[::-1], 0.7)
        self.check(pairs, np.repeat(r, 3), 0.7)
        for radii in (r.reshape(10, 16), r.reshape(16, 10).T, np.repeat(r[::-1], 2).reshape(20, 16)):
            want = g_dense_loop(pairs, radii.ravel(), 0.7).reshape(radii.shape)
            assert_allclose(g_from_pairs(pairs, radii, 0.7), want, rtol=1e-13, atol=0.0)

    def test_rows_within_bandwidth_of_zero_across_a_slab_edge(self):
        # radii with r <= b, the only ones the reflected kernel reaches,
        # scattered through an unsorted grid
        h, b = 16, 0.7
        r = np.linspace(0.0, 30.0, 3 * h + 5)
        r[h - 2 : h + 2] = [0.3, 0.0, b, 0.1]
        r[2 * h + 1] = 0.5
        pairs = self.uniform_pairs(9000, seed=4)
        self.check(pairs, r, b)
        self.check(pairs, r[::-1], b)

    def test_working_memory_does_not_grow_with_the_radii(self):
        # the former dense (radii x pairs) block alone was 16.8 MB here
        pairs, r = self.uniform_pairs(4096, seed=1), np.linspace(0.0, 30.0, 512)
        tracemalloc.start()
        try:
            g_from_pairs(pairs, r, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestPairEstimatorInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, -1e-300])
    def test_bad_radii_raise(self, pair_sets, bad):
        pairs, b = pair_sets["readme"]
        r = np.array([0.0, 1.0, bad, 5.0])
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            k_from_pairs(pairs, r)
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            g_from_pairs(pairs, r, b)
        # the model's curves check their lags the same way
        model = CoxModel(0.8, 1.2, 5.0, 0.1)
        for curve in (pair_correlation, k_function):
            for lags in (r, bad):
                with pytest.raises(ValidationError, match="finite and nonnegative"):
                    curve(model, lags)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -0.5])
    def test_bad_bandwidth_raises(self, pair_sets, bad):
        pairs, _ = pair_sets["readme"]
        with pytest.raises(ValidationError, match="bandwidth"):
            g_from_pairs(pairs, np.linspace(0.0, 5.0, 6), bad)

    def test_tiny_bandwidth_warns_nothing(self, pair_sets):
        # (r -+ d) / b is formed only for radii within 2b of -+d, so it
        # cannot overflow
        pairs, _ = pair_sets["readme"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = g_from_pairs(pairs, np.linspace(0.0, 30.0, 121), 1e-300)
        assert np.isfinite(g).all()

    def test_any_shape(self, pair_sets):
        pairs, b = pair_sets["readme"]
        r = np.linspace(0.0, 30.0, 12)
        for f in (lambda x: k_from_pairs(pairs, x), lambda x: g_from_pairs(pairs, x, b)):
            flat = f(r)
            assert np.array_equal(f(r.reshape(3, 4)), flat.reshape(3, 4))
            scalar = f(7.5)
            assert np.shape(scalar) == () and scalar == f(np.array([7.5]))[0]


def fgj_oracle(pattern, rho_at_points, rho_bar, r_grid, spacing):
    """Direct evaluation of the empty-space/nearest-neighbour products."""
    net = pattern.network
    grid_pts = lattice(net, spacing)
    grid_pat = PointPattern(net, grid_pts)
    data = list(zip(pattern.edge_indices, pattern.offsets))
    grid = list(zip(grid_pat.edge_indices, grid_pat.offsets))
    if data:
        cross = oracle_distances(net, grid + data)[: len(grid), len(grid):]
        dd = oracle_distances(net, data)
    else:
        cross = np.empty((len(grid), 0))
        dd = np.empty((0, 0))
    grid_depth = leaf_distances(net, grid_pat)
    data_depth = leaf_distances(net, pattern)
    F = np.full(r_grid.shape, np.nan)
    G = np.full(r_grid.shape, np.nan)
    for i, r in enumerate(r_grid):
        keep = grid_depth > r
        if keep.any():
            prods = [
                np.prod([1 - rho_bar / rho_at_points[j] for j in range(len(data)) if cross[g, j] <= r])
                for g in np.nonzero(keep)[0]
            ]
            F[i] = 1 - np.mean(prods)
        dkeep = data_depth > r
        if data and dkeep.any():
            prods = []
            for u in np.nonzero(dkeep)[0]:
                term = 1.0
                for j in range(len(data)):
                    if j != u and dd[u, j] <= r:
                        term *= 1 - rho_bar / rho_at_points[j]
                prods.append(term)
            G[i] = 1 - np.mean(prods)
    return F, G


class TestFgj:
    def test_empty_pattern(self, y_net):
        curves = fgj_estimates(
            PointPattern(y_net, []), FgjConfig(intensity=0.5, rho_bar=0.5)
        )
        f_def = curves.F.defined
        assert f_def.any()
        assert np.all(curves.F.values[f_def] == 0.0)
        assert not curves.G.defined.any()
        assert not curves.J.defined.any()

    def test_at_zero_radius(self, path10):
        # offsets chosen off the lattice: a data point exactly on a lattice
        # site would legitimately register at r = 0
        pat = PointPattern(path10, [(0, 3.1), (0, 7.3)])
        r = np.array([0.0, 1.0])
        curves = fgj_estimates(pat, FgjConfig(intensity=0.2, rho_bar=0.2), r)
        assert curves.F.values[0] == 0.0
        assert curves.G.values[0] == 0.0
        assert curves.J.values[0] == 1.0

    def test_constant_intensity_ball_scan(self):
        r_grid = np.linspace(0.0, 8.0, 17)
        for seed in (0, 1, 2):
            net = make_network("random-tree", seed=seed, edges=15)
            pat = simulate_poisson(net, 0.5, seed=seed)
            if pat.n < 2:
                continue
            curves = fgj_estimates(
                pat, FgjConfig(intensity=0.5, rho_bar=0.5, lattice_spacing=0.5), r_grid
            )
            rho_pts = np.full(pat.n, 0.5)
            F_want, G_want = fgj_oracle(pat, rho_pts, 0.5, r_grid, 0.5)
            for got, want in ((curves.F, F_want), (curves.G, G_want)):
                defined = got.defined
                assert_allclose(got.values[defined], want[defined], atol=1e-12)
                assert np.isnan(want[~defined]).all() or np.all(
                    np.isnan(want[~defined]) | (want[~defined] == 0)
                )

    def test_general_intensity_oracle(self):
        net = make_network("dendrite", seed=11, side_target=120.0)
        pat = simulate_poisson(net, IntensityModel(0.3, 0.7), seed=11)
        r_grid = np.linspace(0.0, 6.0, 13)
        cfg = FgjConfig(intensity=IntensityModel(0.3, 0.7), lattice_spacing=1.0)
        curves = fgj_estimates(pat, cfg, r_grid)
        rho_pts = np.where(net.edge_side[pat.edge_indices], 0.7, 0.3)
        F_want, G_want = fgj_oracle(pat, rho_pts, 0.3, r_grid, 1.0)
        assert_allclose(curves.F.values[curves.F.defined], F_want[curves.F.defined], atol=1e-12)
        assert_allclose(curves.G.values[curves.G.defined], G_want[curves.G.defined], atol=1e-12)

    def test_j_is_ratio(self, path10):
        pat = PointPattern(path10, [(0, 2.0), (0, 3.0), (0, 7.0)])
        r = np.linspace(0.0, 2.5, 6)
        curves = fgj_estimates(pat, FgjConfig(intensity=0.3, rho_bar=0.3), r)
        m = curves.J.defined
        assert_allclose(
            curves.J.values[m],
            (1 - curves.G.values[m]) / (1 - curves.F.values[m]),
            rtol=1e-12,
        )

    def test_f_monotone_for_constant_intensity(self):
        net = make_network("dendrite", seed=13, side_target=150.0)
        pat = simulate_poisson(net, 0.4, seed=13)
        r = np.linspace(0.0, 10.0, 41)
        curves = fgj_estimates(pat, FgjConfig(intensity=0.4, rho_bar=0.4), r)
        vals = curves.F.values[curves.F.defined]
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_rho_bar_validation(self, path10):
        pat = PointPattern(path10, [(0, 3.0), (0, 7.0)])
        with pytest.raises(ValidationError, match="rho_bar"):
            fgj_estimates(pat, FgjConfig(intensity=np.array([0.2, 0.2])))
        with pytest.raises(ValidationError):
            fgj_estimates(pat, FgjConfig(intensity=0.2, rho_bar=0.5))

    def test_branchwise_floor_is_default(self):
        net = make_network("dendrite", seed=14, side_target=100.0)
        pat = simulate_poisson(net, IntensityModel(0.2, 0.6), seed=14)
        r = np.linspace(0.0, 4.0, 5)
        got = fgj_estimates(pat, FgjConfig(intensity=IntensityModel(0.2, 0.6)), r)
        explicit = fgj_estimates(
            pat, FgjConfig(intensity=IntensityModel(0.2, 0.6), rho_bar=0.2), r
        )
        assert_allclose(
            got.F.values[got.F.defined], explicit.F.values[explicit.F.defined], rtol=1e-15
        )


def fgj_row_loop(pattern, config, r):
    """F, G and J by the former per-row loop: sort each row, drop the point's
    own distance for G, and accumulate the eroded products row by row."""
    net, intensity = pattern.network, config.intensity
    r = default_r_grid(net) if r is None else np.asarray(r, dtype=np.float64)
    if isinstance(intensity, IntensityModel):
        rho = np.where(net.edge_side[pattern.edge_indices], intensity.side, intensity.main)
    else:
        rho = intensity.at_points(pattern)
    factors = 1.0 - (config.rho_bar or intensity.min_positive(net)) / rho
    grid = PointPattern(net, lattice(net, config.lattice_spacing))

    def curve(dist, leaf, drop_self):
        total = np.zeros(r.shape)
        denom = np.zeros(r.shape, dtype=np.int64)
        for i in range(dist.shape[0]):
            keep = np.arange(dist.shape[1]) != i if drop_self else slice(None)
            d, f = dist[i][keep], factors[keep]
            order = np.argsort(d, kind="stable")
            d, cum = d[order], np.cumprod(f[order])
            in_eroded = leaf[i] > r
            if not in_eroded.any():
                continue
            cnt = np.searchsorted(d, r, side="right")
            prods = np.where(cnt > 0, cum[np.maximum(cnt - 1, 0)], 1.0) if d.size else 1.0
            total += np.where(in_eroded, prods, 0.0)
            denom += in_eroded
        defined = denom > 0
        values = np.full(r.shape, np.nan)
        values[defined] = 1.0 - total[defined] / denom[defined]
        return values, defined

    F = curve(pairwise_distances(net, grid, pattern), leaf_distances(net, grid), False)
    G = curve(distance_matrix(pattern), leaf_distances(net, pattern), True)
    j_defined = F[1] & G[1] & (1.0 - F[0] > 0)
    J = np.full(r.shape, np.nan)
    J[j_defined] = (1.0 - G[0][j_defined]) / (1.0 - F[0][j_defined])
    return {"F": F, "G": G, "J": (J, j_defined)}


@pytest.fixture(scope="module")
def fgj_patterns():
    """The README pattern, it snapped to each edge's 1 um lattice (some
    points land on vertices), a 900-point pattern at 5x the intensity, and
    one- and zero-point patterns. The first two are frozen in files."""
    net = make_network("dendrite", seed=7)
    readme = frozen_pattern("readme_seed3", net)
    length = net.edge_length[readme.edge_indices]
    steps = np.ceil(length)
    snapped = np.round(readme.offsets / length * steps) * length / steps
    pats = {
        "readme": readme,
        "snapped": PointPattern.from_indices(net, readme.edge_indices, snapped),
        "dense": frozen_pattern("dense_900", net),
        "one": PointPattern.from_indices(net, readme.edge_indices[:1], readme.offsets[:1]),
        "zero": PointPattern.from_indices(net, readme.edge_indices[:0], readme.offsets[:0]),
    }
    on_vertex = pats["snapped"].offsets == net.edge_length[pats["snapped"].edge_indices]
    assert on_vertex.sum() == 10 and pats["dense"].n == 900
    return pats


FGJ_GRIDS = {
    "default": None,
    "linear": np.linspace(0.0, 30.0, 121),
    "shuffled": np.random.default_rng(1).permutation(np.linspace(0.0, 30.0, 121)),
    "repeats": np.array([5.0, 5.0, 0.0, 1e9]),
    "one-value": np.array([7.5]),
    "scalar": 7.5,
}


class TestFgjMatchesRowLoop:
    """The whole-matrix F/G/J equals the per-row loop bit for bit."""

    @staticmethod
    def check(pattern, r, intensity=None, **config):
        if intensity is None:
            intensity = fit_intensity_mle(pattern) if pattern.n > 1 else IntensityModel(0.5, 0.5)
        cfg = FgjConfig(intensity=intensity, **config)
        got = fgj_estimates(pattern, cfg, r)
        want = fgj_row_loop(pattern, cfg, r)
        for name, (values, defined) in want.items():
            curve = getattr(got, name)
            assert np.array_equal(curve.values, values, equal_nan=True), name
            assert np.array_equal(curve.defined, defined), name

    @pytest.mark.parametrize("grid", list(FGJ_GRIDS))
    @pytest.mark.parametrize("name", ["readme", "snapped", "dense", "one", "zero"])
    def test_grids(self, fgj_patterns, name, grid):
        self.check(fgj_patterns[name], FGJ_GRIDS[grid])

    @pytest.mark.parametrize(
        "config", [{"lattice_spacing": 0.3}, {"lattice_spacing": 1.0}], ids=["config1", "config2"]
    )
    @pytest.mark.parametrize("name", ["readme", "snapped", "dense", "one", "zero"])
    def test_configs(self, fgj_patterns, name, config):
        self.check(fgj_patterns[name], FGJ_GRIDS["shuffled"], **config)

    @pytest.mark.parametrize("rho_bar", ["half the least", "the least"])
    @pytest.mark.parametrize("name", ["readme", "snapped"])
    def test_kernel_intensity(self, fgj_patterns, name, rho_bar):
        # unequal factors; at rho_bar = the least rho that point's factor is exactly 0
        pattern = fgj_patterns[name]
        est = kernel_intensity(pattern.network, pattern, bandwidth=10.0)
        least = est.at_points(pattern).min()
        factor = 0.5 if rho_bar == "half the least" else 1.0
        for grid in ("default", "shuffled"):
            self.check(pattern, FGJ_GRIDS[grid], est, rho_bar=factor * least)

    @staticmethod
    def branch_subsets(pattern):
        """The points on main edges only, on side edges plus one main point, and the README
        points with 40 of them twice, all under a branch-wise intensity lower on main."""
        net, e, o = pattern.network, pattern.edge_indices, pattern.offsets
        side = net.edge_side[e]
        picks = {"all-main": ~side, "one-main": side | (np.arange(e.size) == np.argmin(side))}
        pats = {k: PointPattern.from_indices(net, e[m], o[m]) for k, m in picks.items()}
        twice = np.sort(np.r_[np.arange(e.size), np.arange(0, e.size, e.size // 40)[:40]])
        pats["duplicates"] = PointPattern.from_indices(net, e[twice], o[twice])
        return pats

    @pytest.mark.parametrize("grid", ["default", "shuffled", "repeats"])
    @pytest.mark.parametrize("subset", ["all-main", "one-main", "duplicates"])
    def test_zero_factor_layouts(self, fgj_patterns, subset, grid):
        pattern = self.branch_subsets(fgj_patterns["readme"])[subset]
        intensity = IntensityModel(0.3, 0.6)
        factors = 1.0 - 0.3 / np.where(pattern.network.edge_side[pattern.edge_indices], 0.6, 0.3)
        zeros = {"all-main": pattern.n, "one-main": 1, "duplicates": None}[subset]
        assert zeros is None or (factors == 0.0).sum() == zeros
        self.check(pattern, FGJ_GRIDS[grid], intensity)
        self.check(pattern, FGJ_GRIDS[grid], fit_intensity_mle(pattern)
                   if subset == "duplicates" else intensity, lattice_spacing=1.0)


    @pytest.mark.parametrize("grid", ["default", "shuffled", "repeats"])
    def test_one_branch_under_the_default_intensity(self, fgj_patterns, grid):
        # no side point: the side MLE intensity is 0 and rho_bar the least positive, main's
        pattern = self.branch_subsets(fgj_patterns["readme"])["all-main"]
        intensity = fit_intensity_mle(pattern)
        assert intensity.side == 0.0 and intensity.min_positive(pattern.network) == intensity.main
        self.check(pattern, FGJ_GRIDS[grid])
        assert np.array_equal(fgj_estimates(pattern, r=FGJ_GRIDS[grid]).F.values,
                              fgj_estimates(pattern, FgjConfig(intensity), FGJ_GRIDS[grid]).F.values,
                              equal_nan=True)


def last_radius_below(x, r):
    """Each ``x``'s largest radius of ``r`` below it, -inf if none, by ``np.searchsorted``."""
    r_sorted = np.sort(np.ravel(r))
    return np.concatenate(([-np.inf], r_sorted))[np.searchsorted(r_sorted, x)]


def test_rows_read_pairs_only_to_their_nearest_zero_factor(fgj_patterns, monkeypatch):
    # under the default intensity the main points' factors are 0: F and G read far fewer
    # pairs than lie within each row's last alive radius
    pattern = fgj_patterns["readme"]
    net, r = pattern.network, default_r_grid(pattern.network)
    grid, grid_leaf = summaries._fgj_lattice(net, 0.5)
    full = {"F": network._pairs_within(net, grid, pattern, last_radius_below(grid_leaf, r))[0].size,
            "G": network._pairs_within(net, pattern, pattern,
                                       last_radius_below(leaf_distances(net, pattern), r),
                                       skip_self=True)[0].size}
    counts, within = [], summaries._pairs_within
    monkeypatch.setattr(summaries, "_pairs_within",
                        lambda *a, **k: (lambda out: counts.append(out[0].size) or out)(within(*a, **k)))
    fgj_estimates(pattern)
    read = {"F": counts[:2], "G": counts[2:]}  # zero-factor points first, then the others
    for name in ("F", "G"):
        assert sum(read[name]) < 0.7 * full[name] and read[name][1] < 0.5 * full[name], name


@pytest.mark.parametrize("name", ["readme", "dense"])
def test_second_search_reads_only_to_each_rows_last_visited_radius(fgj_patterns, monkeypatch, name):
    # a row's last visited radius is its largest below both its leaf distance and its nearest
    # zero-factor point; the second search reads every other point up to it and none beyond
    # (on the README pattern, 0.21.0 read 17 of F's and 7 of G's pairs beyond it)
    pattern = fgj_patterns[name]
    net, r = pattern.network, default_r_grid(pattern.network)
    intensity = fit_intensity_mle(pattern)
    zero = np.where(net.edge_side[pattern.edge_indices], intensity.side,
                    intensity.main) == intensity.min_positive(net)
    calls, within = [], summaries._pairs_within
    monkeypatch.setattr(summaries, "_pairs_within",
                        lambda *a, **k: (lambda out: calls.append(out) or out)(within(*a, **k)))
    fgj_estimates(pattern)
    grid, grid_leaf = summaries._fgj_lattice(net, 0.5)
    own = np.where(np.eye(pattern.n, dtype=bool), np.inf, 0.0)  # no point is its own neighbour
    for curve, dist, leaf, skip, (rows, _, d) in (
            ("F", pairwise_distances(net, grid, pattern), grid_leaf, 0.0, calls[1]),
            ("G", distance_matrix(pattern), leaf_distances(net, pattern), own, calls[3])):
        first_zero = (dist + skip)[:, zero].min(axis=1, initial=np.inf)
        last = last_radius_below(np.minimum(leaf, first_zero), r)
        assert (d <= last[rows]).all(), curve
        # all the others within it, each point's own pair among them before G drops it
        assert d.size == (dist[:, ~zero] <= last[:, None]).sum(), curve


def test_exact_zero_products_leave_j_undefined(fgj_patterns):
    # points on the minimum-intensity branch have factor exactly 0, so on
    # the README's default grid every alive lattice row's product is 0 at
    # some radii: F is exactly 1 there and J undefined, not a huge ratio
    # of a cancelling sum's residue
    pattern = fgj_patterns["readme"]
    cfg = FgjConfig(intensity=fit_intensity_mle(pattern))
    rho = np.where(pattern.network.edge_side[pattern.edge_indices],
                   cfg.intensity.side, cfg.intensity.main)
    assert (1.0 - cfg.intensity.min_positive(pattern.network) / rho == 0.0).any()
    got = fgj_estimates(pattern, cfg)
    one = got.F.defined & (got.F.values == 1.0)
    assert (one & got.G.defined).sum() > 100
    assert np.array_equal(got.J.defined, got.F.defined & got.G.defined & ~one)
    assert np.isnan(got.J.values[one]).all()
    TestFgjMatchesRowLoop.check(pattern, None)


class TestStableOrder:
    """K's order from one sort of 64-bit keys plus the fix-up of groups that share
    their high bits is the stable argsort, and the values come back in that order."""

    @staticmethod
    def check(x):
        (got, ranked), want = _stable_argsort(x), np.argsort(x, kind="stable")
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert ranked.dtype == x.dtype and ranked.tobytes() == x[want].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_ties_and_zeros(self, seed):
        rng = np.random.default_rng(seed)
        for n in (2, 17, 1000, 40_000):
            x = rng.integers(0, max(2, n // 50), n) / 8.0  # about 50 of each value
            x[rng.random(n) < 0.2] = 0.0
            self.check(x)
            self.check(np.where(rng.random(n) < 0.5, -0.0, x))  # -0.0 ties with 0.0
            self.check(np.sort(x)[::-1].copy())

    def test_distinct_values_and_pair_distances(self, fgj_patterns):
        self.check(np.random.default_rng(9).random(5000))
        self.check(second_order_pairs(fgj_patterns["snapped"]).distances)

    def test_one_and_no_elements(self):
        self.check(np.array([3.5]))
        self.check(np.array([0.0, 0.0]))
        self.check(np.empty(0))

    def test_last_bit_twins_of_900_points(self, fgj_patterns):
        # K's pairs on the 900-point pattern: many (u, v), (v, u) twins differ in the last bit
        pattern = fgj_patterns["dense"]
        d = second_order_pairs(pattern, None, default_r_grid(pattern.network).max()).distances
        ascending = np.sort(d)
        assert d.size > 500_000 and (np.nextafter(ascending[:-1], np.inf) == ascending[1:]).sum() > 1000
        self.check(d)

    def test_long_tie_runs_of_the_snapped_pattern(self, fgj_patterns):
        d = second_order_pairs(fgj_patterns["snapped"]).distances
        assert np.unique(d, return_counts=True)[1].max() >= 10
        self.check(d)
        self.check(d[::-1].copy())

    @pytest.mark.parametrize("seed", range(3))
    def test_groups_of_three_or_more_with_a_descent(self, seed):
        # whole numbers plus a few ulps share their high bits, so the key sort leaves each
        # group in index order: groups of about 40 with ties and descents, and some of two
        rng = np.random.default_rng(seed)
        n = 3000
        base = np.r_[rng.integers(1, 70, n - 40), np.repeat(np.arange(100, 120), 2)].astype(float)
        x = (base.view(np.uint64) + rng.integers(0, 4, n).astype(np.uint64)).view(np.float64)
        x[rng.random(n) < 0.05] = rng.choice([0.0, -0.0, 5e-324])
        self.check(x)
        self.check(rng.permutation(x))


def bin_grids(net):
    """The r grids that the bin search must read as ``np.searchsorted`` does."""
    rng = np.random.default_rng(5)
    return {
        "default": default_r_grid(net),
        "summaries": np.linspace(0.0, 30.0, 121),
        "unsorted-repeats": rng.permutation(np.r_[np.linspace(0.0, 30.0, 61),
                                                  np.linspace(0.0, 30.0, 31), [7.5] * 5]),
        "clustered": np.r_[rng.uniform(0.0, 1e-6, 500), 100.0],
        "one": np.array([7.5]),
        "zeros": np.array([0.0, -0.0, 0.0, 2.0]),
        "none": np.empty(0),
    }


class TestRadiusBins:
    """The bucket table's bins are ``np.searchsorted``'s, for either side."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("grid", ["default", "summaries", "unsorted-repeats", "clustered",
                                      "one", "zeros", "none"])
    def test_equals_searchsorted(self, fgj_patterns, grid, side):
        r = np.sort(bin_grids(fgj_patterns["readme"].network)[grid])
        rng = np.random.default_rng(len(grid))
        top = r.max(initial=1.0)
        x = np.r_[r, np.nextafter(r, -np.inf), np.nextafter(r, np.inf), r.min(initial=0.0) - 1.0,
                  top + 1.0, np.inf, -np.inf, -0.0, 0.0, 5e-324, rng.uniform(-1.0, 1.1 * top, 5000),
                  rng.choice(r, 500) if r.size else []]
        bins = summaries._radius_bins(r)
        for entries in (x, rng.permutation(x), np.empty(0)):
            got, want = bins(entries, side), np.searchsorted(r, entries, side)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("grid, steps", [("summaries", 1), ("clustered", 9)])
    def test_a_clustered_grid_takes_log_n_steps(self, fgj_patterns, monkeypatch, grid, steps):
        # 500 radii in the first of 2004 buckets: nine binary steps, not 500 linear ones
        r = np.sort(bin_grids(fgj_patterns["readme"].network)[grid])
        bins, calls, less = summaries._radius_bins(r), [], np.less
        monkeypatch.setattr(np, "less", lambda *a: calls.append(1) or less(*a))
        x = np.random.default_rng(0).uniform(0.0, 1e-6, 1000)
        assert np.array_equal(bins(x), np.searchsorted(r, x)) and len(calls) == steps


def stable_argsort_two_sorts(x):
    """The former K order: the default argsort, then one int64 sort of ``run * n + index``
    over the runs of equal sorted values; with ``x`` in that order."""
    order, run = np.argsort(x), np.zeros(x.size, dtype=np.int64)
    ranked = x[order]
    np.cumsum(ranked[1:] != ranked[:-1], out=run[1:])
    order = np.sort(order + run * x.size) - run * x.size
    return order, x[order]


class TestKernelsMatchTheFormerSearches:
    """K, g, F, G and J from the key sort and the bucket table have the bytes of the former
    two sorts and ``np.searchsorted``, kept here as the reference."""

    @staticmethod
    def curves(pattern, intensity, rho_bar):
        out = second_order_estimates(pattern, intensity)
        fgj = fgj_estimates(pattern, FgjConfig(intensity=intensity, rho_bar=rho_bar))
        out.update(F=fgj.F, G=fgj.G, J=fgj.J)
        return out

    @pytest.mark.parametrize("intensity", ["branch-wise", "kernel"])
    @pytest.mark.parametrize("name", ["readme", "snapped", "dense"])
    def test_same_bytes(self, fgj_patterns, monkeypatch, name, intensity):
        pattern = fgj_patterns[name]
        est, rho_bar = None, None
        if intensity == "kernel":
            est = kernel_intensity(pattern.network, pattern, bandwidth=10.0)
            rho_bar = 0.5 * est.at_points(pattern).min()
        got = self.curves(pattern, est, rho_bar)
        monkeypatch.setattr(summaries, "_stable_argsort", stable_argsort_two_sorts)
        monkeypatch.setattr(summaries, "_radius_bins",
                            lambda r_sorted: lambda x, side="left": np.searchsorted(r_sorted, x, side))
        want = self.curves(pattern, est, rho_bar)
        assert set(got) == set(want) == {"K", "g", "F", "G", "J"}
        for kind in want:
            for field in ("r", "values", "defined"):
                a, b = getattr(got[kind], field), getattr(want[kind], field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (kind, field)


def test_k_working_memory_stays_under_the_former_sorts(fgj_patterns):
    # the former argsort and run sort peaked at 20 068 906 bytes here (numpy 2.4, x86-64)
    pattern = fgj_patterns["dense"]
    r = default_r_grid(pattern.network)  # K's default grid, out to 115.4
    pairs = second_order_pairs(pattern, None, r.max())
    assert pairs.distances.size == 590_220
    want = k_from_pairs(pairs, r)
    tracemalloc.start()
    try:
        got = k_from_pairs(pairs, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes() and peak <= 20_068_906


class TestPairChunks:
    """Pair data built one row chunk at a time has the bits of one chunk."""

    @pytest.mark.parametrize("name", ["readme", "snapped"])
    def test_chunks_change_no_bits(self, monkeypatch, fgj_patterns, name):
        pattern = fgj_patterns[name]
        for reach in (math.inf, 12.0, 0.0):
            whole = second_order_pairs(pattern, None, reach)
            with monkeypatch.context() as m:
                m.setattr(network, "_DISTANCE_CHUNK", 37 * pattern.n)  # 37 rows a chunk
                calls = []
                counts = summaries._sphere_count_matrix
                m.setattr(summaries, "_sphere_count_matrix",
                          lambda net, e, o, rows, d: calls.append(e.size) or counts(net, e, o, rows, d))
                chunked = second_order_pairs(pattern, None, reach)
            assert calls == [37] * (pattern.n // 37) + [pattern.n % 37]
            for a, b in ((whole.distances, chunked.distances), (whole.weights, chunked.weights)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestPairReach:
    """Pair data kept within a reach gives K and g the bits of all pairs,
    and refuses radii beyond it rather than undercounting."""

    @pytest.mark.parametrize("name", ["readme", "snapped"])
    def test_same_bits_as_all_pairs(self, fgj_patterns, name):
        pattern = fgj_patterns[name]
        intensity = fit_intensity_mle(pattern)
        r, b = np.linspace(0.0, 30.0, 121), 2.0
        full = second_order_pairs(pattern, intensity)
        assert full.reach == math.inf
        for reach in (30.0, 32.0):
            near = second_order_pairs(pattern, intensity, reach)
            kept = full.distances <= reach
            assert near.reach == reach and 0 < near.distances.size < full.distances.size
            assert np.array_equal(near.distances, full.distances[kept])
            assert np.array_equal(near.weights, full.weights[kept])
        near_k, near_g = (second_order_pairs(pattern, intensity, x) for x in (30.0, 32.0))
        assert np.array_equal(k_from_pairs(near_k, r), k_from_pairs(full, r))
        assert np.array_equal(g_from_pairs(near_g, r, b), g_from_pairs(full, r, b))

    def test_radii_beyond_the_reach_raise(self, fgj_patterns):
        pairs = second_order_pairs(fgj_patterns["readme"], None, 10.0)
        k_from_pairs(pairs, [0.0, 10.0])
        g_from_pairs(pairs, [0.0, 9.0], 1.0)
        with pytest.raises(ValidationError, match="reach"):
            k_from_pairs(pairs, [0.0, np.nextafter(10.0, np.inf)])
        with pytest.raises(ValidationError, match="reach"):
            g_from_pairs(pairs, [0.0, 9.0], 1.5)

    @pytest.mark.parametrize("reach", [math.nan, -1.0, -math.inf])
    def test_bad_reach_rejected(self, fgj_patterns, reach):
        with pytest.raises(ValidationError, match="reach"):
            second_order_pairs(fgj_patterns["readme"], None, reach)


def erosion_dense(dist, factors, leaf, r):
    """The former ``_erosion_curve``, over every (row, r) cell: each row's
    products in distance order, read at ``#{d <= r}`` and summed down the
    rows with zeros where ``leaf <= r``."""
    (m, n), shape, r = dist.shape, r.shape, r.ravel()
    order = np.argsort(dist, axis=1, kind="stable")
    sorted_dist = np.take_along_axis(dist, order, axis=1)
    products = np.ones((m, n + 1))
    products[:, 1:] = factors[order]
    np.cumprod(products, axis=1, out=products)
    r_order = np.argsort(r, kind="stable")
    bins = np.searchsorted(r[r_order], sorted_dist) + (r.size + 1) * np.arange(m)[:, None]
    counts = np.bincount(bins.ravel(), minlength=m * (r.size + 1)).reshape(m, r.size + 1)
    within = counts.cumsum(axis=1)[:, np.argsort(r_order)]
    eroded = leaf[:, None] > r
    running = np.where(eroded, np.take_along_axis(products, within, axis=1), 0.0).cumsum(axis=0)
    total = running[-1:].sum(axis=0)
    rows = eroded.sum(axis=0)
    defined = rows > 0
    values = np.where(defined, 1.0 - total / np.maximum(rows, 1), np.nan)
    return values.reshape(shape), defined.reshape(shape)


class TestErosionCurveMatchesDense:
    """``_erosion_curve`` visits only the alive cells, with the dense bits."""

    @staticmethod
    def visits(dist, factors, leaf, r):
        """Each row's count of sorted radii below its leaf distance and its nearest zero
        factor, and the entries up to the last of them, row-major."""
        first_zero = np.where(np.asarray(factors) == 0.0, dist, np.inf).min(axis=1, initial=np.inf)
        below = np.minimum(leaf, first_zero)
        return (np.searchsorted(np.sort(np.ravel(r)), below),
                np.nonzero(dist <= last_radius_below(below, r)[:, None]))

    @classmethod
    def check(cls, dist, factors, leaf, r, want=None):
        factors, leaf, r = (np.asarray(a, float) for a in (factors, leaf, r))
        lb, (rows, cols) = cls.visits(dist, factors, leaf, r)
        r_order = np.argsort(r.ravel(), kind="stable")
        got = _erosion_curve((rows, cols, dist[rows, cols]), factors, leaf, lb, r, r_order,
                             summaries._radius_bins(r.ravel()[r_order]))
        if want is None:
            want = erosion_dense(dist, np.asarray(factors, float), np.asarray(leaf, float),
                                 np.asarray(r, float))
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w, equal_nan=True)
        return got

    def test_leaf_equal_to_a_radius_is_not_alive(self):
        dist = np.array([[1.0, 2.0], [0.5, 3.0]])
        values, defined = self.check(dist, [0.5, 0.25], [2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        assert list(defined) == [True, True, True, False]
        assert values[2] == 0.5  # row 1 alone, with only d = 0.5 within r = 2

    def test_distance_equal_to_a_radius_is_within(self):
        values, defined = self.check(np.array([[1.0]]), [0.5], [5.0],
                                     [np.nextafter(1.0, 0.0), 1.0])
        assert defined.all() and list(values) == [0.0, 0.5]

    def test_rows_never_alive(self):
        dist = np.array([[0.5, 1.0], [1.5, 0.2], [0.1, 0.3]])
        values, defined = self.check(dist, [0.5, 0.25], [0.0, 1.0, 4.0], [1.0, 2.0, 1.0])
        assert defined.all() and list(values) == [1.0 - 0.125, 1.0 - 0.125, 1.0 - 0.125]
        values, defined = self.check(dist, [0.5, 0.25], [0.0, 0.5, 1.0], [1.0, 2.0])
        assert not defined.any() and np.isnan(values).all()

    def test_zero_columns(self):
        values, defined = self.check(np.empty((3, 0)), [], [1.0, 2.0, 0.0], [0.0, 1.5, 2.0, 0.5])
        assert list(defined) == [True, True, False, True]
        assert (values[defined] == 0.0).all()

    def test_row_with_only_the_infinite_diagonal(self):
        values, defined = self.check(np.array([[np.inf]]), [0.3], [2.0], [0.0, 1.0, 2.0])
        assert list(defined) == [True, True, False] and (values[defined] == 0.0).all()
        dist = np.array([[np.inf, 1.0], [1.0, np.inf]])
        self.check(dist, [0.3, 0.6], [0.5, 3.0], [0.0, 1.0, 2.0])

    def test_tied_distances_multiply_in_column_order(self):
        # rounding makes the product depend on the order of its factors
        rng = np.random.default_rng(3)
        dist = np.repeat(rng.integers(1, 4, (1, 300)).astype(float), 2, axis=0)
        self.check(dist, rng.uniform(0.999, 1.0, 300), [5.0, 2.5], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_ties_zero_factors_and_repeated_radii(self, seed):
        # distances, leaves and radii on one coarse grid, so they tie with
        # each other; factors include exact zeros and tiny negatives
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 40), rng.integers(0, 30)
        if seed % 2:  # G's shape: data by data, an infinite diagonal
            n = m
        dist = rng.integers(0, 12, (m, n)) / 4.0
        if seed % 2:
            np.fill_diagonal(dist, np.inf)
        factors = rng.choice([0.0, -1e-13, 0.25, 0.5, 0.9, 1.0], n)
        leaf = rng.integers(0, 14, m) / 4.0
        r = rng.integers(0, 14, (3, 5)) / 4.0
        self.check(dist, factors, leaf, r)


    @pytest.mark.parametrize("q", [0.5, 0.999, 1.0, -1e-13])
    @pytest.mark.parametrize("seed", range(4))
    def test_table_of_powers(self, monkeypatch, seed, q):
        # factors 0 and one q: each cell reads a table of powers, with no sort, and gets the
        # bits of the sorted products; rows with no zero, or with only zeros, among them
        rng = np.random.default_rng(seed)
        m, n = 40, 300
        dist = rng.integers(0, 40, (m, n)) / 4.0
        if seed % 2:
            np.fill_diagonal(dist, np.inf)
        factors = np.where(rng.random(n) < [0.0, 0.02, 0.3, 1.0][seed], 0.0, q)
        leaf = rng.integers(0, 44, m) / 4.0
        r = rng.integers(0, 44, (4, 10)) / 4.0
        want = erosion_dense(dist, factors, leaf, r)
        monkeypatch.setattr(np, "take_along_axis", None)  # the sorted path's gather
        assert self.check(dist, factors, leaf, r, want)[1].any()

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3, 7, 29, 30])
    def test_row_blocks_across_a_boundary(self, monkeypatch, rows_per_block):
        # rows of very different widths, so each block pads to its own widest,
        # in blocks of 1 to all 30 rows, the last one short where 30 is no multiple
        rng = np.random.default_rng(rows_per_block)
        m, n = 30, 60
        dist = rng.integers(0, 24, (m, n)) / 4.0
        dist[rng.random((m, n)) < np.linspace(0.0, 1.0, m)[:, None]] = np.inf
        factors = rng.choice([0.25, 0.5, 0.9, 0.999, 1.0], n)
        factors[rng.choice(n, 2, replace=False)] = 0.0  # two zeros, so rows stay wide past them
        leaf = rng.integers(0, 28, m) / 4.0
        r = rng.integers(0, 28, 40) / 4.0
        widest = np.bincount(self.visits(dist, factors, leaf, r)[1][0]).max()
        assert widest > 10
        monkeypatch.setattr(summaries, "_EROSION_BLOCK", rows_per_block * (widest + 1))
        self.check(dist, factors, leaf, r)


def test_fgj_lattice_built_once_per_network_and_spacing(fgj_patterns, monkeypatch):
    calls = []
    lattice_arrays = summaries._lattice
    monkeypatch.setattr(summaries, "_lattice", lambda net, h: calls.append(h) or lattice_arrays(net, h))
    summaries._fgj_lattice.cache_clear()
    pattern = fgj_patterns["readme"]
    for spacing in (0.5, 0.5, 1.0, 1.0, 0.5):
        fgj_estimates(pattern, FgjConfig(lattice_spacing=spacing), FGJ_GRIDS["linear"])
    assert calls == [0.5, 1.0, 0.5]
    grid, leaf = summaries._fgj_lattice(pattern.network, 0.5)
    assert not any(a.flags.writeable for a in (grid.edge_indices, grid.offsets, leaf))


class TestGrids:
    def test_default_r_grid(self, y_net):
        r = default_r_grid(y_net)
        assert r.size == 512
        assert r[0] == 0.0
        assert_allclose(r[-1], 0.2 * y_net.total_length, rtol=1e-15)
        assert np.all(np.diff(r) > 0)

    def test_curve_invariants(self):
        net = make_network("dendrite", seed=15)
        pat = simulate_poisson(net, 0.5, seed=15)
        k = k_estimate(pat)
        assert np.all(np.diff(k.r) > 0)
        assert np.all(k.values >= 0)
