import math
import tracemalloc
import warnings

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
    pairwise_distances,
    simulate_cox,
    simulate_poisson,
    spawn_generators,
)
from linnetcox import summaries
from linnetcox.network import distance_matrix
from linnetcox.summaries import (
    PairData,
    _erosion_curve,
    _last_alive,
    g_from_pairs,
    k_from_pairs,
    second_order_pairs,
)

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
        rho = fit_intensity_mle(pat)
        mean_rho = np.where(
            net.edge_side[pat.edge_indices], rho.side, rho.main
        ).mean()
        assert_allclose(g.metadata["bandwidth"], 0.15 / math.sqrt(mean_rho), rtol=1e-12)


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
        pairs = PairData(rng.uniform(0.0, b, 500), rng.uniform(0.5, 2.0, 500), 577.0, 500)
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
                         rng.uniform(0.5, 2.0, n), 577.0, n)
        r = np.linspace(0.0, 30.0, 512)
        assert np.count_nonzero(pairs.distances <= r.max() + 0.7) == n
        self.check(pairs, r, 0.7)
        self.check(pairs, r[::-1], 0.7)

    def test_no_pairs(self):
        empty = PairData(np.empty(0), np.empty(0), 10.0, 1)
        self.check(empty, np.linspace(0.0, 5.0, 11), 0.5)

    @staticmethod
    def uniform_pairs(n, seed=0):
        rng = np.random.default_rng(seed)
        return PairData(rng.uniform(0.0, 30.0, n), rng.uniform(0.5, 2.0, n), 577.0, n)

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
    net = pattern.network
    r = default_r_grid(net) if r is None else np.asarray(r, dtype=np.float64)
    rho = np.where(net.edge_side[pattern.edge_indices], config.intensity.side,
                   config.intensity.main)
    factors = 1.0 - config.intensity.min_positive(net) / rho
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
        defined = (denom > 0) & (r >= config.r_min)
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
    one- and zero-point patterns."""
    net = make_network("dendrite", seed=7)
    readme = simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=spawn_generators(3, 3)[0]).pattern
    length = net.edge_length[readme.edge_indices]
    steps = np.ceil(length)
    snapped = np.round(readme.offsets / length * steps) * length / steps
    dense = simulate_cox(net, CoxModel(4.0, 6.0, 5.0, 0.1), seed=5).pattern
    keep = np.sort(np.random.default_rng(5).choice(dense.n, 900, replace=False))
    pats = {
        "readme": readme,
        "snapped": PointPattern.from_indices(net, readme.edge_indices, snapped),
        "dense": PointPattern.from_indices(net, dense.edge_indices[keep], dense.offsets[keep]),
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
    def check(pattern, r, **config):
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
        "config", [{"r_min": 2.0}, {"lattice_spacing": 0.3}, {"lattice_spacing": 1.0}]
    )
    @pytest.mark.parametrize("name", ["readme", "snapped", "dense", "one", "zero"])
    def test_configs(self, fgj_patterns, name, config):
        self.check(fgj_patterns[name], FGJ_GRIDS["shuffled"], **config)


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
    def check(dist, factors, leaf, r):
        # the entries within each row's last alive radius, row-major, as fgj_estimates reads them
        rows, cols = np.nonzero(dist <= _last_alive(np.asarray(leaf, float), np.asarray(r, float))[:, None])
        got = _erosion_curve((rows, cols, dist[rows, cols]), np.asarray(factors, float),
                             np.asarray(leaf, float), np.asarray(r, float))
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


def test_fgj_lattice_built_once_per_network_and_spacing(fgj_patterns, monkeypatch):
    calls = []
    monkeypatch.setattr(summaries, "lattice", lambda net, h: calls.append(h) or lattice(net, h))
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
