import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from linnetcox import (
    CoxModel,
    CurveSet,
    Edge,
    IntensityModel,
    LabelledCurve,
    LinearNetwork,
    PointPattern,
    ValidationError,
    Vertex,
    build_curve_set,
    concat_test_function,
    envelope_pipeline,
    fit_intensity_mle,
    make_network,
    rank_envelope,
    simulate_cox,
    simulate_poisson,
    spawn_generators,
    two_step_fit,
)
from linnetcox import envelopes
from linnetcox.estimation import MinContrastConfig
from linnetcox.summaries import SummaryCurve

from conftest import frozen_pattern


def curve(kind, r, values, defined=None):
    values = np.asarray(values, dtype=np.float64)
    if defined is None:
        defined = np.ones(values.size, dtype=bool)
    return SummaryCurve(kind, np.asarray(r, dtype=np.float64), values, np.asarray(defined))


def single_cell_set(data, sims):
    return CurveSet(
        r=np.array([0.0]),
        labels=np.array(["K"], dtype=object),
        data=np.array([float(data)]),
        sims=np.array([[float(s)] for s in sims]),
        defined=np.array([True]),
    )


class TestConcat:
    def test_single_curve_identity(self):
        c = curve("K", [0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
        out = concat_test_function([c])
        assert_allclose(out.r, c.r)
        assert_allclose(out.values, c.values)
        assert out.defined.all()
        assert list(out.labels) == ["K", "K", "K"]

    def test_r_min_drops_short_distances(self):
        c = curve("K", [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        out = concat_test_function([c], r_min=1.5)
        assert_allclose(out.r, [2.0, 3.0])
        assert_allclose(out.values, [3.0, 4.0])

    def test_concatenation_keeps_order_and_labels(self):
        f = curve("F", [0.0, 1.0], [0.1, 0.2])
        g = curve("G", [0.0, 1.0], [0.3, 0.4])
        j = curve("J", [0.0, 1.0], [1.0, np.nan], [True, False])
        out = concat_test_function([f, g, j])
        assert list(out.labels) == ["F", "F", "G", "G", "J", "J"]
        assert_allclose(out.values[:4], [0.1, 0.2, 0.3, 0.4])
        assert out.defined.tolist() == [True, True, True, True, True, False]

    def test_nothing_defined_rejected(self):
        c = curve("K", [0.0, 1.0], [np.nan, np.nan], [False, False])
        with pytest.raises(ValidationError):
            concat_test_function([c])
        # dropping every cell via r_min is the same situation
        with pytest.raises((ValidationError, ValueError)):
            concat_test_function([curve("K", [0.0], [1.0])], r_min=9.0)


class TestBuildCurveSet:
    def test_masks_intersect(self):
        data = concat_test_function([curve("K", [0, 1, 2], [1, 2, 3], [True, True, False])])
        sim = concat_test_function([curve("K", [0, 1, 2], [1, 2, 3], [True, False, True])])
        cs = build_curve_set(data, [sim])
        assert cs.defined.tolist() == [True, False, False]

    def test_grid_mismatch_rejected(self):
        data = concat_test_function([curve("K", [0, 1], [1, 2])])
        other = concat_test_function([curve("K", [0, 2], [1, 2])])
        with pytest.raises(ValidationError):
            build_curve_set(data, [other])
        shorter = concat_test_function([curve("K", [0], [1])])
        with pytest.raises(ValidationError):
            build_curve_set(data, [shorter])

    def test_no_sims_rejected(self):
        data = concat_test_function([curve("K", [0, 1], [1, 2])])
        with pytest.raises(ValidationError):
            build_curve_set(data, [])

    def test_shapes(self):
        data = concat_test_function([curve("K", [0, 1, 2], [1, 2, 3])])
        sims = [concat_test_function([curve("K", [0, 1, 2], [i, i, i])]) for i in range(4)]
        cs = build_curve_set(data, sims)
        assert cs.sims.shape == (4, 3)
        assert cs.n_sims == 4

    def test_generator_is_read_once_and_no_curve_outlives_its_row(self):
        data = concat_test_function([curve("K", [0, 1, 2], [1, 2, 3], [True, True, False])])
        made = []

        def sims():
            for i in range(6):
                # every curve but the one last yielded is gone: only its values row is kept
                assert [ref() is None for ref in made[:-1]] == [True] * len(made[:-1])
                sim = concat_test_function([curve("K", [0, 1, 2], [i, -i, i], [True, i != 3, True])])
                made.append(weakref.ref(sim))
                yield sim

        stream = sims()
        cs = build_curve_set(data, stream)
        assert next(stream, None) is None and len(made) == 6
        assert cs.sims.tolist() == [[i, -i, i] for i in range(6)]
        assert cs.defined.tolist() == [True, False, False]

    def test_grid_mismatch_mid_stream_rejected(self):
        data = concat_test_function([curve("K", [0, 1], [1, 2])])
        read = []

        def sims():
            for r in ([0, 1], [0, 1], [0, 2], [0, 1]):
                read.append(r)
                yield concat_test_function([curve("K", r, [1, 2])])

        with pytest.raises(ValidationError, match="grid"):
            build_curve_set(data, sims())
        assert len(read) == 3  # the stream stops at the first curve off the grid

    def test_empty_generator_rejected(self):
        data = concat_test_function([curve("K", [0, 1], [1, 2])])
        with pytest.raises(ValidationError, match="at least one simulation"):
            build_curve_set(data, (c for c in []))


class TestRankEnvelope:
    def test_single_cell_reference(self):
        # data value 5 against simulated values 1..4: the data is the most
        # extreme of the five curves, tied with the sim at 1, giving the
        # p-value interval (1/5, 2/5)
        res = rank_envelope(single_cell_set(5.0, [1.0, 2.0, 3.0, 4.0]), alpha=0.25)
        assert res.p_interval == (0.2, 0.4)
        assert res.ranks.tolist() == [1, 1, 2, 3, 2]

    def test_liberal_never_exceeds_conservative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vals = rng.normal(size=8)
            res = rank_envelope(single_cell_set(vals[0], vals[1:]), alpha=0.2)
            assert res.p_liberal <= res.p_conservative

    def test_sim_order_is_irrelevant(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=12)
        sims = rng.normal(size=(30, 12))
        ones = np.ones(12, bool)
        labels = np.array(["K"] * 12, dtype=object)
        r = np.arange(12.0)
        a = rank_envelope(CurveSet(r, labels, data, sims, ones), alpha=0.1)
        shuffled = sims[rng.permutation(30)]
        b = rank_envelope(CurveSet(r, labels, data, shuffled, ones), alpha=0.1)
        assert a.p_interval == b.p_interval
        assert_allclose(a.lower, b.lower)
        assert_allclose(a.upper, b.upper)
        assert sorted(a.ranks) == sorted(b.ranks)

    def test_masked_cells_do_not_rank(self):
        # an undefined cell holds a wild value that must not leak into the
        # test: masking it reproduces the clean result
        r = np.arange(3.0)
        labels = np.array(["K"] * 3, dtype=object)
        data = np.array([0.0, 0.5, 1e9])
        sims = np.vstack([np.linspace(-1, 1, 9)] * 3).T
        defined = np.array([True, True, False])
        res = rank_envelope(CurveSet(r, labels, data, sims, defined), alpha=0.2)
        clean = rank_envelope(
            CurveSet(r[:2], labels[:2], data[:2], sims[:, :2], np.ones(2, bool)), alpha=0.2
        )
        assert res.p_interval == clean.p_interval
        assert np.isnan(res.lower[2]) and np.isnan(res.upper[2])

    def test_envelope_narrows_as_alpha_grows(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=20)
        sims = rng.normal(size=(99, 20))
        cs = CurveSet(np.arange(20.0), np.array(["K"] * 20, dtype=object), data, sims, np.ones(20, bool))
        widths = []
        for alpha in (0.02, 0.1, 0.3):
            res = rank_envelope(cs, alpha=alpha)
            widths.append(res.upper - res.lower)
        assert np.all(widths[0] >= widths[1]) and np.all(widths[1] >= widths[2])

    def test_envelope_brackets_retained_curves(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=15)
        sims = rng.normal(size=(49, 15))
        cs = CurveSet(np.arange(15.0), np.array(["K"] * 15, dtype=object), data, sims, np.ones(15, bool))
        res = rank_envelope(cs, alpha=0.1)
        retained = res.ranks[1:] >= res.critical_rank
        assert retained.any()
        assert np.all(sims[retained] >= res.lower[None, :] - 1e-12)
        assert np.all(sims[retained] <= res.upper[None, :] + 1e-12)

    def test_extreme_data_leaves_envelope(self):
        # enough simulations that rank-1 ties (each cell's pointwise
        # extremes) cannot mask a data curve far outside everything
        rng = np.random.default_rng(9)
        sims = rng.normal(size=(199, 10))
        data = np.full(10, 50.0)
        cs = CurveSet(np.arange(10.0), np.array(["K"] * 10, dtype=object), data, sims, np.ones(10, bool))
        res = rank_envelope(cs, alpha=0.2)
        assert res.p_conservative <= 0.2
        assert np.any(data > res.upper)

    def test_central_data_stays_inside(self):
        rng = np.random.default_rng(10)
        sims = rng.normal(size=(19, 10))
        data = np.zeros(10)
        cs = CurveSet(np.arange(10.0), np.array(["K"] * 10, dtype=object), data, sims, np.ones(10, bool))
        res = rank_envelope(cs, alpha=0.2)
        assert res.p_conservative > 0.2
        assert np.all((data >= res.lower) & (data <= res.upper))

    def test_null_rejection_rate_is_controlled(self):
        # exchangeable curves: rejecting on the conservative p-value at
        # level 0.05 should happen rarely
        rng = np.random.default_rng(11)
        rejections = 0
        trials = 40
        for _ in range(trials):
            vals = rng.normal(size=(100, 20))
            cs = CurveSet(
                np.arange(20.0),
                np.array(["K"] * 20, dtype=object),
                vals[0],
                vals[1:],
                np.ones(20, bool),
            )
            res = rank_envelope(cs, alpha=0.05)
            rejections += res.p_conservative <= 0.05
        assert rejections <= 6

    def test_few_sims_warns(self):
        with pytest.warns(UserWarning, match="simulations"):
            rank_envelope(single_cell_set(2.0, np.arange(9.0)), alpha=0.05)

    def test_validation(self):
        cs = single_cell_set(1.0, [0.0, 2.0])
        with pytest.raises(ValidationError):
            rank_envelope(cs, alpha=0.0)
        with pytest.raises(ValidationError):
            rank_envelope(cs, alpha=1.0)
        masked = CurveSet(cs.r, cs.labels, cs.data, cs.sims, np.array([False]))
        with pytest.raises(ValidationError):
            rank_envelope(masked, alpha=0.2)


def rankdata_envelope(curve_set, alpha):
    """The rank test written with ``scipy.stats.rankdata``, as the reference."""
    cells = np.nonzero(curve_set.defined)[0]
    values = np.vstack([curve_set.data[cells], curve_set.sims[:, cells]])
    n = values.shape[0]
    count_le = stats.rankdata(values, method="max", axis=0)
    count_ge = n - stats.rankdata(values, method="min", axis=0) + 1
    ranks = np.minimum(count_le, count_ge).min(axis=1).astype(np.int64)
    critical = int(np.sort(ranks)[int(np.floor(alpha * n + 1e-9))])
    lower = np.full(curve_set.data.shape, np.nan)
    upper = np.full(curve_set.data.shape, np.nan)
    lower[cells] = values[ranks >= critical].min(axis=0)
    upper[cells] = values[ranks >= critical].max(axis=0)
    p_conservative = float(np.count_nonzero(ranks <= ranks[0]) / n)
    p_liberal = float((np.count_nonzero(ranks[1:] < ranks[0]) + 1) / n)
    return ranks, critical, p_liberal, p_conservative, lower, upper


def _rank_case(name, rng):
    n_sims, m = {"one simulation": (1, 9), "large, ties and masks": (499, 300)}.get(name, (39, 25))
    values = rng.normal(size=(n_sims + 1, m))
    defined = np.ones(m, dtype=bool)
    if name == "integer ties":
        values = rng.integers(0, 3, size=values.shape).astype(np.float64)
    elif name == "large, ties and masks":  # a few levels per cell: most values tie
        values = rng.integers(0, 8, size=values.shape) / 4.0
        defined = rng.random(m) < 0.8
        values[:, ~defined] = np.nan
    elif name == "constant column":
        values[:, [0, 7]] = 2.5
    elif name == "masked cells":
        defined = rng.random(m) < 0.6
        values[:, ~defined] = np.nan
    labels = np.array(["K"] * m, dtype=object)
    return CurveSet(np.arange(float(m)), labels, values[0], values[1:], defined)


@pytest.mark.filterwarnings("ignore:only 1 simulations")
@pytest.mark.parametrize("case", ["continuous", "integer ties", "one simulation",
                                  "constant column", "masked cells", "large, ties and masks"])
@pytest.mark.parametrize("alpha", [0.05, 0.3])
def test_ranks_match_rankdata(case, alpha):
    rng = np.random.default_rng(17)
    for _ in range(20):
        curve_set = _rank_case(case, rng)
        res = rank_envelope(curve_set, alpha=alpha)
        ranks, critical, p_lib, p_cons, lower, upper = rankdata_envelope(curve_set, alpha)
        assert res.ranks.dtype == np.int64 and np.array_equal(res.ranks, ranks)
        assert (res.critical_rank, res.p_liberal, res.p_conservative) == (critical, p_lib, p_cons)
        assert np.array_equal(res.lower, lower, equal_nan=True)
        assert np.array_equal(res.upper, upper, equal_nan=True)


def test_rank_working_memory_is_one_copy_of_the_values():
    # the former transposed sort and cells x curves depth table peaked at three copies
    rng = np.random.default_rng(23)
    n, m = 1000, 1500
    values = rng.integers(0, 40, size=(n, m)) / 8.0
    defined = rng.random(m) < 0.9
    cs = CurveSet(np.arange(float(m)), np.array(["K"] * m, dtype=object), values[0], values[1:], defined)
    want = rankdata_envelope(cs, 0.05)
    tracemalloc.start()
    try:
        res = rank_envelope(cs, alpha=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(res.ranks, want[0]) and np.array_equal(res.lower, want[4], equal_nan=True)
    assert peak <= n * np.count_nonzero(defined) * 8 + 256 * 1024


def test_rank_working_memory_is_a_few_columns():
    # each cell is ranked from its own column, and the bounds reduce the simulations in
    # place: no copy of the defined values, which took about 10.8 MB here
    rng = np.random.default_rng(29)
    n, m = 1000, 1500
    values = rng.integers(0, 40, size=(n, m)) / 4.0
    defined = rng.random(m) < 0.9
    cs = CurveSet(np.arange(float(m)), np.array(["K"] * m, dtype=object), values[0], values[1:], defined)
    want = rankdata_envelope(cs, 0.05)
    tracemalloc.start()
    try:
        res = rank_envelope(cs, alpha=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(res.ranks, want[0]) and np.array_equal(res.upper, want[5], equal_nan=True)
    assert peak <= 16 * (n + m) * 8


def test_streamed_fgj_envelope_peaks_below_the_held_curves():
    # holding all 199 simulations' curves peaked at 12 953 034 bytes here (numpy 2.4, x86-64);
    # streamed, only their values rows are kept: about 6.9 MB, under three quarters of that
    net = make_network("dendrite", seed=7)
    pattern = frozen_pattern("readme_seed3", net)
    fit = two_step_fit(pattern, config=MinContrastConfig(r_max=30.0))
    tracemalloc.start()
    try:
        res = envelope_pipeline(net, pattern, fit, test="FGJ", n_sims=199, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.curve_set.n_sims == 199 and peak < 0.75 * 12_953_034


class TestPipeline:
    @pytest.fixture(scope="module")
    def net(self):
        return make_network("dendrite", seed=61, side_target=150.0)

    def test_validation(self, net):
        pattern = simulate_poisson(net, IntensityModel(0.3, 0.3), seed=0)
        with pytest.raises(ValidationError):
            envelope_pipeline(net, pattern, IntensityModel(0.3, 0.3), test="L")
        with pytest.raises(ValidationError):
            envelope_pipeline(net, pattern, IntensityModel(0.3, 0.3), n_sims=0)
        with pytest.raises(ValidationError):
            envelope_pipeline(net, pattern, "poisson")

    def test_only_a_given_grid_beyond_the_diameter_is_refused(self):
        # a star of 15 unit arms: its diameter is 2, the default grid reaches 0.2 |L| = 3
        star = LinearNetwork([Vertex(v) for v in range(16)],
                             [Edge(a, 0, a + 1, 1.0, "main") for a in range(15)])
        pattern = simulate_poisson(star, 3.0, seed=1)
        assert star.diameter == 2.0 and pattern.n > 2
        res = envelope_pipeline(star, pattern, IntensityModel(3.0, 3.0), n_sims=3, alpha=0.5, seed=1)
        assert res.curve_set.r.max() == 3.0
        envelope_pipeline(star, pattern, IntensityModel(3.0, 3.0), n_sims=3, alpha=0.5, r=[0.0, 2.0])
        with pytest.raises(ValidationError, match="diameter"):
            envelope_pipeline(star, pattern, IntensityModel(3.0, 3.0), n_sims=3, alpha=0.5, r=[0.0, 2.5])

    def test_pattern_from_another_network_is_refused(self, monkeypatch):
        # a 3-arm star's pattern ranked against dendrite simulations gave a p-interval
        dendrite, star = make_network("dendrite", seed=7), make_network("star")
        pattern = simulate_poisson(star, 0.3, seed=1)
        calls = []
        monkeypatch.setattr(envelopes, "simulate_poisson", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValidationError, match="pattern belongs to a different network"):
            envelope_pipeline(dendrite, pattern, fit_intensity_mle(pattern), n_sims=19, seed=2)
        assert pattern.n > 0 and calls == []

    @pytest.mark.parametrize("alpha", [2.0, 0.0, 1.0, float("nan")])
    def test_bad_alpha_raises_before_simulating(self, net, monkeypatch, alpha):
        pattern = simulate_poisson(net, IntensityModel(0.3, 0.3), seed=0)
        calls = []

        def counting(*args, **kw):
            calls.append(args)
            return simulate_poisson(*args, **kw)

        monkeypatch.setattr(envelopes, "simulate_poisson", counting)
        with pytest.raises(ValidationError, match="alpha must lie in"):
            envelope_pipeline(net, pattern, IntensityModel(0.3, 0.3), n_sims=40, alpha=alpha)
        assert calls == []

    def test_empty_simulations_leave_g_and_j_out(self):
        # the README pattern's first two points lie on side branches; simulations 5 and 10
        # of its Poisson fit (indices 4 and 9) draw no point
        net = make_network("dendrite", seed=7)
        readme = frozen_pattern("readme_seed3", net)
        pattern = PointPattern.from_indices(net, readme.edge_indices[:2], readme.offsets[:2])
        model = fit_intensity_mle(pattern)
        sims = [simulate_poisson(net, model, gen) for gen in spawn_generators(2, 19)]
        assert [i for i, sim in enumerate(sims) if sim.n == 0] == [4, 9]
        res = envelope_pipeline(net, pattern, model, test="FGJ", n_sims=19, seed=2)
        cs = res.curve_set
        assert set(cs.labels[cs.defined]) == {"F"}
        # an empty simulation's F is 0 where the network is alive, its G and J undefined
        f = cs.labels == "F"
        for i in (4, 9):
            assert np.all(cs.sims[i][f & cs.defined] == 0.0)
            assert np.isnan(cs.sims[i][~f]).all()
        empty = PointPattern.from_indices(net, readme.edge_indices[:0], readme.offsets[:0])
        with pytest.raises(ValidationError, match="rho_bar must be positive"):
            envelope_pipeline(net, empty, model, test="FGJ", n_sims=19, seed=2)

    def test_k_test_shape(self, net):
        pattern = simulate_poisson(net, IntensityModel(0.3, 0.3), seed=1)
        r = np.linspace(0.0, 20.0, 64)
        res = envelope_pipeline(
            net, pattern, IntensityModel(0.3, 0.3), test="K", n_sims=19, seed=2, r=r, alpha=0.2
        )
        env = res.envelope
        assert set(env.labels) == {"K"}
        assert env.r.min() >= 1.0  # r_min default trims the shortest cells
        assert env.r.max() <= 20.0
        assert res.curve_set.sims.shape[0] == 19

    def test_fgj_test_labels(self, net):
        pattern = simulate_poisson(net, IntensityModel(0.3, 0.3), seed=3)
        r = np.linspace(0.0, 10.0, 32)
        res = envelope_pipeline(
            net, pattern, IntensityModel(0.3, 0.3), test="FGJ", n_sims=9, seed=4, r=r, alpha=0.2
        )
        labels = list(dict.fromkeys(res.envelope.labels))
        assert labels == ["F", "G", "J"]

    def test_deterministic(self, net):
        pattern = simulate_poisson(net, IntensityModel(0.3, 0.3), seed=5)
        r = np.linspace(0.0, 15.0, 48)
        kw = dict(test="K", n_sims=19, seed=6, r=r, alpha=0.2)
        a = envelope_pipeline(net, pattern, IntensityModel(0.3, 0.3), **kw)
        b = envelope_pipeline(net, pattern, IntensityModel(0.3, 0.3), **kw)
        assert a.envelope.p_interval == b.envelope.p_interval
        assert_allclose(a.envelope.lower, b.envelope.lower)
        assert_allclose(a.curve_set.sims, b.curve_set.sims)

    def test_fit_result_as_model(self, net):
        sample = simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=7)
        fit = two_step_fit(sample.pattern, config=MinContrastConfig(target="g", r_max=25.0))
        res = envelope_pipeline(
            net,
            sample.pattern,
            fit,
            test="K",
            n_sims=9,
            seed=8,
            r=np.linspace(0.0, 15.0, 32),
            alpha=0.2,
        )
        assert 0.0 < res.envelope.p_conservative <= 1.0

    def test_clustered_data_rejects_poisson_null(self, net):
        sample = simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=9)
        null = fit_intensity_mle(sample.pattern)
        res = envelope_pipeline(
            net,
            sample.pattern,
            null,
            test="K",
            n_sims=499,
            seed=10,
            r=np.linspace(0.0, 25.0, 64),
        )
        assert res.envelope.p_conservative <= 0.1

    def test_poisson_data_fits_poisson_null(self, net):
        pattern = simulate_poisson(net, IntensityModel(0.3, 0.3), seed=11)
        null = fit_intensity_mle(pattern)
        res = envelope_pipeline(
            net, pattern, null, test="K", n_sims=99, seed=12, r=np.linspace(0.0, 25.0, 128)
        )
        assert res.envelope.p_conservative > 0.1
