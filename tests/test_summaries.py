import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

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
    simulate_poisson,
)
from linnetcox.summaries import g_from_pairs, second_order_pairs

from conftest import oracle_distances

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

    def test_reference_point_k2(self):
        got = k_function(CoxModel(1, 1, 1.0, 1.0, k=2), 1.0)
        want = 0.5 * math.log((math.e**2 - 0.25) / 0.75)
        assert_allclose(got, want, rtol=1e-10)
        assert_allclose(got, 1.126634, atol=1e-5)

    def test_closed_forms_match_quadrature(self):
        rng = np.random.default_rng(4)
        for k in range(1, 6):
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

    def test_quadrature_fallback_above_k5(self):
        model = CoxModel(1, 1, 2.0, 0.5, k=7)
        want, _ = integrate.quad(
            lambda t: float(pair_correlation(model, t)), 0, 10.0, epsabs=1e-12
        )
        assert_allclose(k_function(model, 10.0), want, rtol=1e-8)

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
        rho = fit_intensity_mle(pat)
        mean_rho = np.where(
            net.edge_side[pat.edge_indices], rho.side, rho.main
        ).mean()
        assert_allclose(g.metadata["bandwidth"], 0.15 / math.sqrt(mean_rho), rtol=1e-12)


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
