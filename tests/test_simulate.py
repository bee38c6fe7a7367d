import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from conftest import dense_grf_values, random_points
from linnetcox import (
    CoxModel,
    IntensityModel,
    LinearNetwork,
    NumericalError,
    PointPattern,
    ValidationError,
    Vertex,
    Edge,
    make_network,
    matern_thin,
    pairwise_distances,
    retention_field,
    sample_grf,
    simulate_cox,
    simulate_poisson,
    spawn_generators,
)
from linnetcox.network import distance_matrix
from linnetcox.simulate import _grf_values, _nearest_sites, _sorted_lattice_arrays


@pytest.fixture(scope="module")
def dendrite():
    return make_network("dendrite", seed=7)


class TestModels:
    def test_expected_count(self, y_net):
        m = IntensityModel(0.5, 0.25)
        assert m.expected_count(y_net) == 0.5 * 3.0 + 0.25 * 9.0

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValidationError):
            IntensityModel(-0.1, 0.2)

    def test_cox_thinning_mean(self):
        model = CoxModel(1.0, 1.0, 5.0, 0.1, k=1)
        assert_allclose(model.thinning_mean(), (1 + 5.0) ** -0.5, rtol=1e-15)
        model2 = CoxModel(1.0, 1.0, 5.0, 0.1, k=3)
        assert_allclose(model2.thinning_mean(), (1 + 5.0) ** -1.5, rtol=1e-15)

    def test_observed_intensity_relation(self):
        model = CoxModel(0.8, 0.4, 2.0, 0.5, k=2)
        obs = model.observed_intensity()
        assert_allclose(obs.main, 0.8 / (1 + 2.0), rtol=1e-15)
        assert_allclose(obs.side, 0.4 / (1 + 2.0), rtol=1e-15)

    def test_from_observed_round_trip(self):
        model = CoxModel.from_observed(
            IntensityModel(0.24, 0.47), sigma2=0.686, beta=1.625, k=1
        )
        obs = model.observed_intensity()
        assert_allclose(obs.main, 0.24, rtol=1e-12)
        assert_allclose(obs.side, 0.47, rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            CoxModel(1.0, 1.0, -1.0, 0.1)
        with pytest.raises(ValidationError):
            CoxModel(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            CoxModel(1.0, 1.0, 1.0, 0.1, k=0)


class TestPoisson:
    def test_mean_count(self, dendrite):
        intensity = IntensityModel(0.24, 0.47)
        mu = intensity.expected_count(dendrite)
        counts = [
            simulate_poisson(dendrite, intensity, seed=s).n for s in range(2000)
        ]
        se = np.sqrt(mu / len(counts))
        assert abs(np.mean(counts) - mu) < 3 * se

    def test_count_distribution_is_poisson(self, path10):
        counts = np.array([simulate_poisson(path10, 2.0, seed=s).n for s in range(3000)])
        # mean ~= variance for a Poisson count
        assert abs(counts.mean() - 20.0) < 3 * np.sqrt(20 / 3000)
        assert abs(counts.var() / counts.mean() - 1.0) < 0.15

    def test_zero_side_intensity_puts_nothing_on_side(self, dendrite):
        pat = simulate_poisson(dendrite, IntensityModel(0.5, 0.0), seed=1)
        n_main, n_side = pat.branch_counts()
        assert n_side == 0 and n_main == pat.n > 0

    def test_uniform_locations(self, path10):
        rng_offsets = []
        for s in range(300):
            pat = simulate_poisson(path10, 3.0, seed=s)
            rng_offsets.extend(pat.offsets)
        res = stats.kstest(np.array(rng_offsets) / 10.0, "uniform")
        assert res.pvalue > 0.01

    def test_deterministic(self, dendrite):
        a = simulate_poisson(dendrite, 0.3, seed=42)
        b = simulate_poisson(dendrite, 0.3, seed=42)
        assert np.array_equal(a.edge_indices, b.edge_indices)
        assert np.array_equal(a.offsets, b.offsets)

    def test_empty_on_zero_intensity(self, y_net):
        assert simulate_poisson(y_net, IntensityModel(0.0, 0.0), seed=0).n == 0


class TestGrf:
    def test_moments_and_correlation(self, y_net):
        sites = [(0, 1.0), (1, 2.0), (2, 4.5)]
        beta = 0.3
        pat = PointPattern(y_net, sites)
        d = distance_matrix(pat)
        reps = 4000
        vals = np.empty((reps, 3))
        for s in range(reps):
            vals[s] = sample_grf(y_net, sites, beta, seed=s).values[0]
        assert np.all(np.abs(vals.mean(axis=0)) < 3 / np.sqrt(reps))
        assert np.all(np.abs(vals.var(axis=0) - 1.0) < 4 * np.sqrt(2.0 / reps))
        emp = np.corrcoef(vals.T)
        assert_allclose(emp, np.exp(-beta * d), atol=0.06)

    def test_coincident_sites_equal_values(self, y_net):
        # the same physical location expressed on two arms
        sites = [(0, 0.0), (1, 0.0), (1, 2.0)]
        sample = sample_grf(y_net, sites, beta=0.5, k=3, seed=11)
        assert np.array_equal(sample.values[:, 0], sample.values[:, 1])

    def test_near_singular_correlation_survives(self, path10):
        # hundreds of nearly coincident sites: correlation ~ all-ones
        offs = 5.0 + np.linspace(0, 1e-9, 200)
        sites = [(0, float(o)) for o in offs]
        sample = sample_grf(path10, sites, beta=1e-3, seed=0)
        assert np.isfinite(sample.values).all()
        spread = sample.values[0].max() - sample.values[0].min()
        assert spread < 1e-2

    def test_k_fields_independent(self, path10):
        sites = [(0, 2.0), (0, 7.0)]
        reps = 3000
        vals = np.empty((reps, 2, 2))
        for s in range(reps):
            vals[s] = sample_grf(path10, sites, beta=0.1, k=2, seed=s).values
        cross = np.corrcoef(vals[:, 0, 0], vals[:, 1, 0])[0, 1]
        assert abs(cross) < 4 / np.sqrt(reps)

    def test_bitwise_reproducible(self, y_net):
        sites = [(0, 1.0), (2, 3.0)]
        a = sample_grf(y_net, sites, beta=0.7, k=2, seed=123)
        b = sample_grf(y_net, sites, beta=0.7, k=2, seed=123)
        assert np.array_equal(a.values, b.values)

    def test_invalid_parameters(self, y_net):
        with pytest.raises(ValidationError):
            sample_grf(y_net, [(0, 1.0)], beta=0.0)
        with pytest.raises(ValidationError):
            sample_grf(y_net, [(0, 1.0)], beta=1.0, k=0)


class TestRetention:
    def test_range_and_mean(self, path10):
        sites = [(0, float(o)) for o in np.linspace(0, 10, 30)]
        reps = 2000
        sigma2 = 5.0
        means = np.empty(reps)
        for s in range(reps):
            grf = sample_grf(path10, sites, beta=0.2, seed=s)
            pi = retention_field(grf, sigma2)
            assert np.all(pi > 0) and np.all(pi <= 1)
            means[s] = pi.mean()
        target = (1 + sigma2) ** -0.5
        se = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean() - target) < 3 * se

    def test_monotone_in_sigma2(self, path10):
        grf = sample_grf(path10, [(0, float(o)) for o in range(11)], beta=0.4, seed=5)
        lo = retention_field(grf, 1.0)
        hi = retention_field(grf, 4.0)
        assert np.all(hi <= lo)

    def test_raw_array_accepted(self):
        z = np.array([[0.0, 1.0], [2.0, 0.0]])
        pi = retention_field(z, 2.0)
        assert_allclose(pi, np.exp(-1.0 * np.array([4.0, 1.0])))


class TestCox:
    def test_exact_mode_thinning_rate(self, dendrite):
        model = CoxModel(1.0, 1.0, 5.0, 0.1)
        kept = driven = 0
        for s in range(300):
            sample = simulate_cox(dendrite, model, seed=s)
            kept += sample.pattern.n
            driven += sample.driving.n
        ratio = kept / driven
        target = model.thinning_mean()
        # binomial-ish SE on the aggregate ratio
        se = np.sqrt(target * (1 - target) / driven)
        assert abs(ratio - target) < 4 * se

    def test_grid_and_exact_same_distribution(self):
        net = LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 1, 40.0, "main")])
        model = CoxModel(1.0, 1.0, 4.0, 0.25)
        n_exact = np.array(
            [simulate_cox(net, model, seed=s).pattern.n for s in range(1000)]
        )
        n_grid = np.array(
            [
                simulate_cox(net, model, mode="grid", spacing=0.5, seed=10_000 + s).pattern.n
                for s in range(1000)
            ]
        )
        res = stats.ks_2samp(n_exact, n_grid)
        assert res.pvalue > 0.01

    def test_grid_mode_exposes_retention_sites(self, y_net):
        model = CoxModel(2.0, 2.0, 3.0, 0.5)
        sample = simulate_cox(y_net, model, mode="grid", spacing=1.0, seed=3)
        assert sample.sites is not None
        assert sample.site_retention.shape == (sample.sites.n,)
        assert np.all(sample.site_retention > 0)
        assert np.all(sample.site_retention <= 1)
        assert sample.spacing == 1.0

    def test_exact_mode_has_no_sites(self, y_net):
        sample = simulate_cox(y_net, CoxModel(1.0, 1.0, 1.0, 1.0), seed=0)
        assert sample.sites is None and sample.spacing is None

    def test_retention_matches_driving_points(self, dendrite):
        model = CoxModel(0.8, 0.8, 2.0, 0.3)
        sample = simulate_cox(dendrite, model, seed=9)
        assert sample.retention.shape == (sample.driving.n,)
        assert sample.pattern.n <= sample.driving.n

    def test_deterministic(self, dendrite):
        model = CoxModel(1.0, 1.0, 5.0, 0.1)
        a = simulate_cox(dendrite, model, seed=77)
        b = simulate_cox(dendrite, model, seed=77)
        assert np.array_equal(a.pattern.offsets, b.pattern.offsets)
        assert np.array_equal(a.retention, b.retention)

    def test_bad_mode_rejected(self, y_net):
        with pytest.raises(ValidationError):
            simulate_cox(y_net, CoxModel(1, 1, 1, 1), mode="fast")


class TestSpawn:
    def test_replicates_differ_but_are_stable(self, path10):
        gens_a = spawn_generators(42, 3)
        gens_b = spawn_generators(42, 3)
        pats_a = [simulate_poisson(path10, 2.0, g) for g in gens_a]
        pats_b = [simulate_poisson(path10, 2.0, g) for g in gens_b]
        for a, b in zip(pats_a, pats_b):
            assert np.array_equal(a.offsets, b.offsets)
        assert not np.array_equal(pats_a[0].offsets, pats_a[1].offsets)

    def test_negative_count_rejected(self):
        assert spawn_generators(42, 0) == []
        with pytest.raises(ValidationError, match="nonnegative"):
            spawn_generators(42, -1)


class TestMaternThin:
    def test_pairs_within_h_are_both_deleted(self, path10):
        pat = PointPattern(path10, [(0, 0.0), (0, 1.0), (0, 3.0), (0, 6.0)])
        out = matern_thin(pat, 2.0)
        assert_allclose(sorted(out.offsets), [3.0, 6.0])

    def test_exact_distance_survives(self, path10):
        pat = PointPattern(path10, [(0, 1.0), (0, 3.0)])
        out = matern_thin(pat, 2.0)
        assert out.n == 2

    def test_result_has_hard_core(self):
        net = make_network("random-tree", seed=9, edges=25)
        pat = simulate_poisson(net, 1.0, seed=9)
        out = matern_thin(pat, 1.5)
        if out.n > 1:
            d = distance_matrix(out)
            np.fill_diagonal(d, np.inf)
            assert d.min() >= 1.5

    def test_thinning_is_aggressive_at_high_intensity(self, path10):
        pat = simulate_poisson(path10, 10.0, seed=2)
        out = matern_thin(pat, 0.5)
        assert out.n < pat.n

    def test_empty_and_singleton(self, path10):
        assert matern_thin(PointPattern(path10, []), 1.0).n == 0
        assert matern_thin(PointPattern(path10, [(0, 5.0)]), 1.0).n == 1


def _shuffled_string_tree():
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


@pytest.fixture(scope="module")
def grf_networks(dendrite):
    y = LinearNetwork(
        [Vertex("O"), Vertex("A"), Vertex("B"), Vertex("C")],
        [Edge(0, "O", "A", 3.0), Edge(1, "O", "B", 4.0, "side"), Edge(2, "O", "C", 5.0, "side")],
    )
    return {
        "y": y,
        "dendrite": dendrite,
        "tree200": make_network("random-tree", seed=2, edges=200),
        "strings": _shuffled_string_tree(),
    }


def _sites_with_vertices(net, n, rng):
    """Random sites, every vertex (on each incident edge), and duplicates."""
    e, o = random_points(net, n, rng)
    every_edge = np.arange(net.n_edges)
    e = np.r_[e, every_edge, every_edge, e[:20]]
    o = np.r_[o, np.zeros(net.n_edges), net.edge_length, o[:20]]
    pat = PointPattern.from_indices(net, e, o)
    return pat.edge_indices, pat.offsets


class TestTreeConditionalDraw:
    """The sequential tree sampler is the dense Cholesky draw itself."""

    @pytest.mark.parametrize("name", ["y", "dendrite", "tree200", "strings"])
    @pytest.mark.parametrize("beta", [0.02, 0.1, 1.0])
    def test_matches_dense_cholesky(self, grf_networks, name, beta):
        net = grf_networks[name]
        e, o = _sites_with_vertices(net, 60 if name == "y" else 500, np.random.default_rng(4))
        got = _grf_values(net, e, o, beta, 2, np.random.default_rng(9))
        want = dense_grf_values(net, e, o, beta, 2, np.random.default_rng(9))
        assert got.shape == (2, e.size)
        assert np.abs(got - want).max() < 1e-10

    def test_coincident_vertex_sites_share_values(self, grf_networks):
        net = grf_networks["strings"]
        e, o = _sites_with_vertices(net, 50, np.random.default_rng(5))
        values = _grf_values(net, e, o, 0.3, 1, np.random.default_rng(0))[0]
        for ei, oi in zip(e, o):
            same = (e == ei) & (o == oi)
            assert np.all(values[same] == values[same][0])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_long_path_iterates(self, reverse):
        # 1500 edges; sites only near both ends, so every message crosses
        # the whole empty middle (deeper than the recursion limit)
        n = 1500
        edges = [
            Edge(i, n - i, n - i - 1, 1.0) if reverse else Edge(i, i, i + 1, 1.0)
            for i in range(n)
        ]
        net = LinearNetwork([Vertex(i) for i in range(n + 1)], edges)
        pat = PointPattern.from_indices(
            net,
            np.array([0, 1, 2, n - 3, n - 2, n - 1, 0, n - 1]),
            np.array([0.3, 0.5, 0.9, 0.2, 0.4, 0.7, 0.0, 1.0]),
        )
        e, o = pat.edge_indices, pat.offsets
        for beta in (1e-3, 1e-2):
            got = _grf_values(net, e, o, beta, 2, np.random.default_rng(3))
            want = dense_grf_values(net, e, o, beta, 2, np.random.default_rng(3))
            assert np.abs(got - want).max() < 1e-10

    def test_near_coincident_sites_get_the_exact_draw(self, path10):
        # 200 sites within 1e-10: a dense factor needs diagonal jitter
        # here. On one edge with nothing else drawn, the draw is the
        # Ornstein-Uhlenbeck recurrence X_i = rho_i X_(i-1) + sqrt(1 - rho_i^2) z_i.
        beta = 1e-3
        offs = 5.0 + np.linspace(0, 1e-10, 200)
        e = np.zeros(offs.size, dtype=np.intp)
        got = _grf_values(path10, e, offs, beta, 1, np.random.default_rng(0))[0]
        z = np.random.default_rng(0).standard_normal(offs.size)
        gaps = np.diff(offs)
        rho, sd = np.exp(-beta * gaps), np.sqrt(-np.expm1(-2 * beta * gaps))
        want = np.empty_like(z)
        want[0] = z[0]
        for i in range(1, z.size):
            want[i] = rho[i - 1] * want[i - 1] + sd[i - 1] * z[i]
        assert_allclose(got, want, rtol=0, atol=1e-12)
        assert 0 < np.ptp(got) < 1e-5

    def test_simulate_cox_is_the_dense_pattern(self, dendrite):
        # simulate_cox consumes its stream as: driving points, normals, marks
        model = CoxModel(2.4, 1.2, 5.0, 0.1, k=2)
        for seed in range(5):
            sample = simulate_cox(dendrite, model, seed=seed)
            rng = np.random.default_rng(seed)
            driving = simulate_poisson(dendrite, model.driving_intensity(), rng)
            e, o = driving.edge_indices, driving.offsets
            pi = retention_field(dense_grf_values(dendrite, e, o, model.beta, model.k, rng),
                                 model.sigma2)
            keep = pi >= rng.random(driving.n)
            assert np.array_equal(sample.pattern.edge_indices, e[keep])
            assert np.array_equal(sample.pattern.offsets, o[keep])
            assert np.abs(sample.retention - pi).max() < 1e-10

    def test_underflowing_variance_raises_numerical_error(self, y_net):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="underflow"):
                sample_grf(y_net, [(0, 1.0), (1, 2.0), (2, 4.5)], beta=1e-320, seed=0)
            for mode in ("exact", "grid"):
                with pytest.raises(NumericalError, match="underflow"):
                    simulate_cox(y_net, CoxModel(5.0, 5.0, 1.0, 1e-320), mode=mode, seed=0)

    def test_non_finite_parameters_rejected(self, y_net):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="finite"):
                CoxModel(1.0, 1.0, 1.0, bad)
            with pytest.raises(ValidationError, match="finite"):
                CoxModel(1.0, 1.0, bad, 0.1)
            with pytest.raises(ValidationError, match="finite"):
                sample_grf(y_net, [(0, 1.0)], beta=bad)
            with pytest.raises(ValidationError, match="finite"):
                retention_field(np.zeros((1, 3)), bad)


class TestGridNearestSite:
    """Per-edge search picks what argmin over every lattice site picks."""

    @staticmethod
    def _queries(net, se, so, rng):
        e, o = [], []
        for f in range(net.n_edges):
            cuts = np.unique(np.r_[0.0, so[se == f], net.edge_length[f]])
            mids = (cuts[1:] + cuts[:-1]) / 2
            e += [f] * mids.size
            o += list(mids)
        re, ro = random_points(net, 500, rng)
        every_edge = np.arange(net.n_edges)
        e = np.r_[e, every_edge, every_edge, re]
        o = np.r_[o, np.zeros(net.n_edges), net.edge_length, ro]
        pat = PointPattern.from_indices(net, e, o)
        return pat.edge_indices, pat.offsets

    @pytest.mark.parametrize("name", ["y", "dendrite", "tree200", "strings"])
    @pytest.mark.parametrize("spacing", [1.0, 0.37, 2.5])
    def test_equals_argmin(self, grf_networks, name, spacing):
        net = grf_networks[name]
        se, so = _sorted_lattice_arrays(net, spacing)
        e, o = self._queries(net, se, so, np.random.default_rng(6))
        dist = pairwise_distances(net, (e, o), (se, so))
        want = dist.argmin(axis=1)
        assert np.array_equal(_nearest_sites(net, e, o, se, so), want)

    def test_midpoint_ties_go_to_the_earlier_site(self, grf_networks):
        net = grf_networks["dendrite"]
        se, so = _sorted_lattice_arrays(net, 1.0)
        e, o = self._queries(net, se, so, np.random.default_rng(7))
        dist = pairwise_distances(net, (e, o), (se, so))
        tied = (dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.sum() > 50
        got = _nearest_sites(net, e[tied], o[tied], se, so)
        assert np.array_equal(got, dist[tied].argmin(axis=1))

    def test_grid_retention_is_nearest_site_retention(self, dendrite):
        sample = simulate_cox(dendrite, CoxModel(2.0, 2.0, 5.0, 0.1), mode="grid", seed=12)
        nearest = pairwise_distances(dendrite, sample.driving, sample.sites).argmin(axis=1)
        assert np.array_equal(sample.retention, sample.site_retention[nearest])

    def test_no_driving_points(self, y_net):
        sample = simulate_cox(y_net, CoxModel(0.0, 0.0, 1.0, 0.5), mode="grid", seed=1)
        assert sample.driving.n == 0 and sample.retention.shape == (0,)
