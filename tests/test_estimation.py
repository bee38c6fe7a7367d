import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from linnetcox import (
    Cl2Config,
    CoxModel,
    Edge,
    IntensityModel,
    LinearNetwork,
    MinContrastConfig,
    PointPattern,
    StudyRun,
    ValidationError,
    Vertex,
    cl2_fit,
    cl2_score,
    composite_likelihood,
    fit_intensity_mle,
    k_function,
    make_network,
    min_contrast,
    min_contrast_from_curve,
    pair_correlation,
    pair_correlation_gradient,
    simulate_cox,
    simulate_poisson,
    simulation_study,
    spawn_generators,
    two_step_fit,
)
from linnetcox import estimation
from linnetcox._optimize import nelder_mead
from linnetcox.errors import NumericalError
from linnetcox.estimation import (
    StudyFailure,
    _UNIT_NODES,
    _UNIT_WEIGHTS,
    _Cl2Workspace,
    _PairDistanceDensity,
    _cl2_workspace,
    _method_config,
)
from linnetcox.network import distance_matrix
from linnetcox.summaries import _intensity_at_points

from conftest import _segment_pair_samples, frozen_pattern, mc_double_integral


@pytest.fixture(scope="module")
def two_step_result():
    net = make_network("dendrite", seed=21)
    sample = simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=21)
    return two_step_fit(sample.pattern, config=MinContrastConfig(target="g", r_max=30.0))


@pytest.fixture(scope="module")
def cl2_pattern():
    net = make_network("dendrite", seed=41, side_target=180.0)
    return simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=41).pattern


@pytest.fixture(scope="module")
def study_runs():
    net = make_network("dendrite", seed=51, side_target=150.0)
    return [
        StudyRun(
            name="run-1",
            network=net,
            model=CoxModel(0.8, 1.2, 5.0, 0.1),
            methods={
                "mce-g": MinContrastConfig(target="g", r_max=30.0),
                "mce-k": MinContrastConfig(target="K", r_max=30.0),
            },
        )
    ]


class TestMinContrastFixedPoint:
    def test_fixed_settings_are_not_fields(self):
        for removed in ("grid_size", "max_iter", "x_tol", "f_tol"):
            with pytest.raises(TypeError):
                MinContrastConfig(**{removed: 1})

    def test_recovers_truth_from_exact_g_curve(self):
        r = np.linspace(0.0, 30.0, 512)
        truth = CoxModel(1.0, 1.0, 5.0, 0.1)
        res = min_contrast_from_curve(
            r, pair_correlation(truth, r), k=1, config=MinContrastConfig(target="g")
        )
        assert res.converged
        assert_allclose(res.sigma2, 5.0, rtol=1e-3)
        assert_allclose(res.beta, 0.1, rtol=1e-3)
        assert res.objective < 1e-8

    def test_recovers_truth_from_exact_k_curve(self):
        r = np.linspace(0.0, 30.0, 512)
        truth = CoxModel(1.0, 1.0, 5.0, 0.1)
        res = min_contrast_from_curve(
            r, k_function(truth, r), k=1, config=MinContrastConfig(target="K")
        )
        assert res.converged
        assert_allclose(res.sigma2, 5.0, rtol=1e-2)
        assert_allclose(res.beta, 0.1, rtol=1e-2)

    def test_objective_zero_at_fixed_point(self):
        # starting exactly at the truth, the best point ever evaluated is
        # the start itself, where the contrast vanishes
        r = np.linspace(0.0, 20.0, 256)
        truth = CoxModel(1.0, 1.0, 2.0, 0.5, k=2)
        cfg = MinContrastConfig(target="g", start=(2.0, 0.5))
        res = min_contrast_from_curve(r, pair_correlation(truth, r), k=2, config=cfg)
        assert res.objective < 1e-12

    def test_undefined_cells_are_dropped(self):
        r = np.linspace(0.0, 30.0, 256)
        truth = CoxModel(1.0, 1.0, 4.0, 0.2)
        vals = pair_correlation(truth, r).astype(float)
        vals[::5] = np.nan
        res = min_contrast_from_curve(r, vals, k=1, config=MinContrastConfig(target="g"))
        assert_allclose(res.sigma2, 4.0, rtol=1e-2)
        assert_allclose(res.beta, 0.2, rtol=1e-2)

    def test_everywhere_undefined_rejected(self):
        r = np.linspace(0.0, 10.0, 64)
        with pytest.raises(ValidationError):
            min_contrast_from_curve(r, np.full(r.size, np.nan), k=1)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            MinContrastConfig(target="F")
        with pytest.raises(ValidationError):
            MinContrastConfig(power=0.0)
        with pytest.raises(ValidationError):
            MinContrastConfig(r_min=5.0, r_max=2.0)
        with pytest.raises(ValidationError):
            MinContrastConfig(start=(0.0, 1.0))

    def test_empty_pattern_rejected(self, y_net):
        with pytest.raises(ValidationError):
            min_contrast(PointPattern(y_net, []))

    @pytest.mark.parametrize("kind", [MinContrastConfig, Cl2Config])
    @pytest.mark.parametrize("start", [(1.0,), (1.0, 2.0, 3.0), (0.5, math.inf),
                                       (0.5, math.nan), (0.5, "1"), (0.5, -1.0)])
    def test_start_is_two_positive_finite_numbers(self, kind, start):
        with pytest.raises(ValidationError, match="start"):
            kind(start=start)

    @pytest.mark.parametrize("bandwidth", [math.inf, math.nan, 0.0, -1.0, "1"])
    def test_bandwidth_is_none_or_positive_finite(self, bandwidth):
        with pytest.raises(ValidationError, match="bandwidth"):
            MinContrastConfig(bandwidth=bandwidth)
        assert MinContrastConfig(bandwidth=None).bandwidth is None

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, "x"])
    def test_cl2_max_iter_is_a_positive_integer(self, max_iter):
        with pytest.raises(ValidationError, match="max_iter"):
            Cl2Config(max_iter=max_iter)


def _criterion_07_patterns(count):
    """The first ``count`` replicates of criterion 07's design (simstudy --seed 2026)."""
    net = make_network("dendrite", seed=4, side_target=650.0)
    gens = spawn_generators(np.random.SeedSequence(2026).spawn(1)[0], count)
    return [simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=g).pattern for g in gens]


def _hex(x) -> str:
    """The bits of a float, NaN included."""
    return float(x).hex()


class TestNelderMeadIsScipys:
    """``_optimize.nelder_mead`` makes scipy.optimize's Nelder-Mead moves, bit for bit."""

    @staticmethod
    def compare(objective, x0, options):
        from scipy import optimize

        want = optimize.minimize(objective, x0, method="Nelder-Mead", options=options)
        x, fun, nit, success = nelder_mead(objective, x0, **options)
        assert [_hex(v) for v in x] == [_hex(v) for v in want.x]
        assert _hex(fun) == _hex(want.fun)
        assert (nit, success) == (want.nit, want.success)
        return x, fun, nit, success

    @pytest.fixture()
    def compared(self, monkeypatch):
        """Every fit's search runs both ways and must agree; the port's result is used."""
        calls = []

        def both(objective, x0, **options):
            calls.append(options)
            return self.compare(objective, x0, options)

        monkeypatch.setattr(estimation, "nelder_mead", both)
        return calls

    @pytest.mark.parametrize("config", [
        MinContrastConfig(target="g", r_max=30.0),
        MinContrastConfig(target="K", r_max=30.0),
        MinContrastConfig(target="K", r_max=30.0, power=0.5),
        MinContrastConfig(target="g", r_max=30.0, start=(50.0, 3.0)),
    ], ids=["g", "K", "K-power-0.5", "g-far-start"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_contrast_fits(self, compared, config, k):
        for pattern in _criterion_07_patterns(3):
            min_contrast(pattern, k, config)
        assert len(compared) == 3

    @pytest.mark.parametrize("budget", [{"maxiter": 15}, {"maxfev": 37}, {"maxfev": 2}])
    def test_exhausted_budgets(self, compared, monkeypatch, budget):
        monkeypatch.setattr(estimation, "_CONTRAST_OPTIONS",
                            dict(estimation._CONTRAST_OPTIONS, **budget))
        pattern = _criterion_07_patterns(1)[0]
        res = min_contrast(pattern, 1, MinContrastConfig(target="g", r_max=30.0))
        assert not res.converged and compared == [estimation._CONTRAST_OPTIONS]

    def test_objective_returning_nan(self):
        # NaN is never better than a vertex, sorts last, and can end as min(fsim)
        seen = []

        def objective(x):
            rosenbrock = (x[0] - 1.0) ** 2 + 10.0 * (x[1] + x[0] ** 2) ** 2
            seen.append(math.nan if x[0] + x[1] > 1.2 else float(rosenbrock))
            return seen[-1]

        for x0 in ([0.5, 0.5], [0.6, 0.6], [-1.0, 2.0]):
            self.compare(objective, np.array(x0), estimation._CONTRAST_OPTIONS)
        assert any(math.isnan(v) for v in seen)

    def test_zero_start_coordinate(self):
        objective = lambda x: float((x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2)  # noqa: E731
        self.compare(objective, np.array([0.0, 1.0]), estimation._CONTRAST_OPTIONS)


class TestContrastObjectiveIsFinite:
    def test_power_below_one_on_k(self, monkeypatch):
        # the model K at r = 0 could round below zero, and a p < 1 contrast
        # took its root there: NaN at every evaluation
        values = []
        search = estimation.nelder_mead

        def recorded(objective, x0, **options):
            def traced(x):
                values.append(objective(x))
                return values[-1]

            return search(traced, x0, **options)

        monkeypatch.setattr(estimation, "nelder_mead", recorded)
        for pattern in _criterion_07_patterns(4):
            for k in (1, 2):
                min_contrast(pattern, k, MinContrastConfig(target="K", r_max=30.0, power=0.5))
        assert len(values) > 100 and all(math.isfinite(v) for v in values)


class TestTwoStep:
    def test_rho_y_round_trip(self, two_step_result):
        fit = two_step_result
        scale = (1.0 + fit.sigma2) ** (-fit.k / 2.0)
        assert_allclose(fit.rho_y_main * scale, fit.rho_main, rtol=1e-12)
        assert_allclose(fit.rho_y_side * scale, fit.rho_side, rtol=1e-12)

    def test_reported_back_derivation(self):
        # sigma2 = 0.686 lifts an observed main intensity of 0.240 to
        # 0.240 * sqrt(1.686) = 0.312 (3 d.p.)
        assert round(0.240 * math.sqrt(1.686), 3) == 0.312

    def test_near_zero_sigma2_degenerates_to_poisson(self):
        # with a negligible sigma2 the driving intensity equals the
        # observed one
        net = LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 1, 100.0, "main")])
        pattern = PointPattern(net, [(0, float(o)) for o in np.linspace(1, 99, 18)])
        model = CoxModel.from_observed(
            fit_intensity_mle(pattern), sigma2=5.17e-8, beta=1.0
        )
        assert_allclose(model.rho_y_main, 0.18, rtol=1e-7)

    def test_model_round_trip(self, two_step_result):
        fit = two_step_result
        obs = fit.model().observed_intensity()
        assert_allclose(obs.main, fit.rho_main, rtol=1e-12)
        assert_allclose(obs.side, fit.rho_side, rtol=1e-12)

    @pytest.mark.parametrize("config", [MinContrastConfig(r_max=25.0), Cl2Config()],
                             ids=["mce", "cl2"])
    @pytest.mark.parametrize("k", [0, -1, 1.5])
    def test_k_checked_before_fitting(self, config, k):
        net = make_network("dendrite", seed=23, side_target=120.0)
        sample = simulate_cox(net, CoxModel(1.0, 1.0, 5.0, 0.1), seed=23)
        with pytest.raises(ValidationError, match="k must be"):
            two_step_fit(sample.pattern, k=k, config=config)

    def test_cl2_config_fits_by_composite_likelihood(self, cl2_pattern):
        cfg = Cl2Config(r0=15.0, max_iter=60)
        res = cl2_fit(cl2_pattern, config=cfg)
        fit = two_step_fit(cl2_pattern, config=cfg)
        assert fit.method == "cl2"
        assert (fit.sigma2, fit.beta, fit.converged) == (res.sigma2, res.beta, res.converged)
        assert fit.objective == res.score_norm
        mle = fit_intensity_mle(cl2_pattern)
        assert (fit.rho_main, fit.rho_side) == (mle.main, mle.side)

    def test_method_label_tracks_target(self):
        net = make_network("dendrite", seed=23, side_target=120.0)
        sample = simulate_cox(net, CoxModel(1.0, 1.0, 5.0, 0.1), seed=23)
        fit_g = two_step_fit(sample.pattern, config=MinContrastConfig(target="g", r_max=25.0))
        fit_k = two_step_fit(sample.pattern, config=MinContrastConfig(target="K", r_max=25.0))
        assert fit_g.method == "mce-g" and fit_k.method == "mce-k"


class TestPairCorrelationGradient:
    def test_matches_finite_differences(self):
        # 100 random parameter/distance points, kept inside the region
        # where the derivatives are not exponentially crushed (2 beta t
        # bounded) so the central differences themselves are accurate
        rng = np.random.default_rng(31)
        for _ in range(100):
            s2 = float(rng.uniform(0.5, 8.0))
            beta = float(rng.uniform(0.05, 1.0))
            k = int(rng.integers(1, 4))
            t = float(rng.uniform(0.2, min(30.0, 2.5 / beta)))
            g, dgs, dgb = pair_correlation_gradient(t, s2, beta, k)
            hs = 2e-5 * s2
            hb = 2e-5 * beta
            fd_s = (
                pair_correlation(CoxModel(1.0, 1.0, s2 + hs, beta, k), t)
                - pair_correlation(CoxModel(1.0, 1.0, s2 - hs, beta, k), t)
            ) / (2 * hs)
            fd_b = (
                pair_correlation(CoxModel(1.0, 1.0, s2, beta + hb, k), t)
                - pair_correlation(CoxModel(1.0, 1.0, s2, beta - hb, k), t)
            ) / (2 * hb)
            assert_allclose(g, pair_correlation(CoxModel(1.0, 1.0, s2, beta, k), t), rtol=1e-13)
            assert_allclose(dgs, fd_s, rtol=1e-6)
            assert_allclose(dgb, fd_b, rtol=1e-6)

    def test_vectorized_in_t(self):
        t = np.linspace(0, 20, 50)
        g, dgs, dgb = pair_correlation_gradient(t, 3.0, 0.4, 2)
        assert g.shape == dgs.shape == dgb.shape == t.shape
        # clustering grows with sigma2 and shrinks with beta
        assert np.all(dgs >= 0)
        assert np.all(dgb <= 0)


def all_pairs_reference(pattern, r0, sigma2, beta, k=1):
    """The pair sum and the likelihood's pair term by the former all-pairs
    formulation: g at every unordered pair, times the weight ``d <= r0``."""
    i, j = np.triu_indices(pattern.n, 1)
    d = distance_matrix(pattern)[i, j]
    rho, _ = _intensity_at_points(pattern.network, pattern, fit_intensity_mle(pattern))
    w = (d <= r0).astype(np.float64)
    g, dgs, dgb = pair_correlation_gradient(d, sigma2, beta, k)
    pair_sum = 2.0 * np.array([(w * dgs / g).sum(), (w * dgb / g).sum()])
    return pair_sum, 2.0 * float((w * (np.log(rho[i] * rho[j]) + np.log(g))).sum())


class TestCl2Workspace:
    POINTS = [(0.5, 0.5), (5.0, 0.1), (2.0, 0.03), (20.0, 1.0), (1e-3, 5.0)]

    def check_against_reference(self, pattern, r0):
        ws = _Cl2Workspace(pattern, r0)
        for s2, beta in self.POINTS:
            pair_sum, log_sum = all_pairs_reference(pattern, r0, s2, beta)
            assert_allclose(ws.pair_sum(s2, beta, 1), pair_sum, rtol=1e-14)
            want = log_sum - float(ws.normaliser(s2, beta, 1)[0])
            assert_allclose(ws.likelihood(s2, beta, 1), want, rtol=1e-14)
        return ws

    def test_readme_pattern_matches_all_pairs(self):
        net = make_network("dendrite", seed=7)
        pattern = simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1),
                               seed=spawn_generators(3, 1)[0]).pattern
        ws = self.check_against_reference(pattern, 5.0 * net.total_length / pattern.n)
        assert 0 < ws.pair_d.size < pattern.n * (pattern.n - 1) // 2

    def test_pair_at_the_range_is_kept_and_one_past_it_dropped(self, path10):
        r0 = 2.0
        far = np.nextafter(r0, np.inf)
        pattern = PointPattern(path10, [(0, 0.5), (0, 0.5 + far), (0, 6.0), (0, 6.0 + r0)])
        d = distance_matrix(pattern)
        assert d[0, 1] == far and d[2, 3] == r0
        ws = self.check_against_reference(pattern, r0)
        assert ws.pair_d.tolist() == [r0]

    def test_keeps_only_the_pairs_within_range(self):
        # 5x the README intensity, seed 77 replicate 0 (n = 1056): the
        # all-pairs workspace kept 9 MB, the pairs within r0 take 0.2 MB
        net = make_network("dendrite", seed=7)
        pattern = frozen_pattern("seed77_5x_rep0", net)
        assert pattern.n == 1056
        r0 = 5.0 * net.total_length / pattern.n
        _Cl2Workspace(pattern, r0)  # the network's cached distances are not the workspace's
        tracemalloc.start()
        try:
            ws = _Cl2Workspace(pattern, r0)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ws.pair_d.size > 0 and kept < 1_000_000

    def test_build_allocates_no_pair_matrix(self):
        # the same 5x pattern: the pairs within r0 come from a range search,
        # so the build's peak stays below one n x n distance matrix (8.9 MB)
        net = make_network("dendrite", seed=7)
        gen = spawn_generators(np.random.SeedSequence(77).spawn(1)[0], 1)[0]
        pattern = simulate_cox(net, CoxModel(4.0, 6.0, 5.0, 0.1), seed=gen).pattern
        r0 = 5.0 * net.total_length / pattern.n
        _Cl2Workspace(pattern, r0)  # a first build's one-off allocations are not the workspace's
        tracemalloc.start()
        try:
            ws = _Cl2Workspace(pattern, r0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ws.pair_d.size > 0 and peak < pattern.n ** 2 * 8

    def test_no_pair_within_range(self, path10):
        # the score has no pair to read; the likelihood is the normaliser alone
        pattern = PointPattern(path10, [(0, 1.0), (0, 9.0)])
        cfg = Cl2Config(r0=5.0)
        with pytest.raises(NumericalError, match="weight"):
            cl2_score(pattern, 2.0, 0.5, config=cfg)
        with pytest.raises(NumericalError, match="weight"):
            cl2_fit(pattern, config=cfg)
        normaliser = _Cl2Workspace(pattern, 5.0).normaliser(2.0, 0.5, 1)
        assert composite_likelihood(pattern, 2.0, 0.5, config=cfg) == -normaliser[0]

    @pytest.mark.parametrize("sigma2, beta", [(0.0, 0.5), (2.0, -1.0), (math.inf, 0.5),
                                              (2.0, math.nan)])
    def test_parameters_checked(self, cl2_pattern, sigma2, beta):
        for fn in (cl2_score, composite_likelihood):
            with pytest.raises(ValidationError, match="positive and finite"):
                fn(cl2_pattern, sigma2, beta)


class TestMcIntegral:
    def test_constant_integrand_exact(self, y_net):
        got = mc_double_integral(y_net, lambda d: np.ones_like(d), 10, seed=0)
        assert_allclose(got, y_net.total_length**2, rtol=1e-12)

    def test_unit_segment_exponential(self):
        net = LinearNetwork([Vertex(0), Vertex(1)], [Edge(0, 0, 1, 1.0, "main")])
        want, _ = integrate.dblquad(
            lambda y, x: math.exp(-abs(x - y)), 0, 1, 0, 1, epsabs=1e-12
        )
        assert_allclose(want, 2.0 / math.e, rtol=1e-7)  # analytic cross-check
        got = mc_double_integral(net, lambda d: np.exp(-d), 100_000, seed=1)
        assert abs(got - want) / want < 0.005

    def test_segment_pair_closed_form(self):
        # two unit-speed segments of lengths a and b whose nearest points
        # are gap apart: the pair integral of exp(-d) has the closed form
        # exp(-gap) (1 - exp(-a)) (1 - exp(-b))
        a, b, gap = 3.0, 2.0, 4.0
        closed = math.exp(-gap) * (1 - math.exp(-a)) * (1 - math.exp(-b))
        want, _ = integrate.dblquad(
            lambda y, x: math.exp(-(x + gap + y)), 0, a, 0, b, epsabs=1e-12
        )
        assert_allclose(closed, want, rtol=1e-10)

    def test_line_of_three_edges(self):
        # a path is a path no matter how it is subdivided into edges, so
        # the whole-network integral keeps the single-interval closed form
        # 2 (L - 1 + exp(-L))
        a, b, gap = 3.0, 2.0, 4.0
        net = LinearNetwork(
            [Vertex(i) for i in range(4)],
            [
                Edge(0, 0, 1, a, "main"),
                Edge(1, 1, 2, gap, "main"),
                Edge(2, 2, 3, b, "main"),
            ],
        )
        total_len = a + gap + b
        line_total = 2 * (total_len - 1 + math.exp(-total_len))
        reps = [
            mc_double_integral(net, lambda d: np.exp(-d), 20_000, seed=s)
            for s in range(8)
        ]
        assert abs(np.mean(reps) - line_total) / line_total < 0.005

        # restricting the integrand to distances past the gap has an
        # elementary reference on the line:
        # 2 exp(-gap) (L - gap - 1) + 2 exp(-L)
        far_ref = 2 * math.exp(-gap) * (total_len - gap - 1) + 2 * math.exp(-total_len)

        def far_only(d):
            return np.where(d >= gap, np.exp(-d), 0.0)

        got = np.mean(
            [mc_double_integral(net, far_only, 50_000, seed=s) for s in range(4)]
        )
        assert abs(got - far_ref) / far_ref < 0.05

    def test_se_slope_is_half(self, path10):
        sizes = [10, 100, 1000, 10_000]
        sds = []
        for m in sizes:
            vals = [
                mc_double_integral(path10, lambda d: np.exp(-d), m, seed=1000 * m + s)
                for s in range(48)
            ]
            sds.append(np.std(vals, ddof=1))
        slope = np.polyfit(np.log(sizes), np.log(sds), 1)[0]
        assert abs(slope + 0.5) < 0.05

    def test_deterministic(self, y_net):
        a = mc_double_integral(y_net, lambda d: np.exp(-d), 500, seed=7)
        b = mc_double_integral(y_net, lambda d: np.exp(-d), 500, seed=7)
        assert a == b


class TestCl2:
    def test_score_matches_likelihood_gradient(self, cl2_pattern):
        pattern = cl2_pattern
        # with the fixed-range weight the score is exactly the gradient of
        # the log composite likelihood (the same quadrature nodes at every
        # parameter point), so central differences must agree
        cfg = Cl2Config(r0=20.0)
        s2, beta = 3.0, 0.2
        score = cl2_score(pattern, s2, beta, config=cfg)
        h_s, h_b = 1e-4 * s2, 1e-4 * beta
        fd_s = (
            composite_likelihood(pattern, s2 + h_s, beta, config=cfg)
            - composite_likelihood(pattern, s2 - h_s, beta, config=cfg)
        ) / (2 * h_s)
        fd_b = (
            composite_likelihood(pattern, s2, beta + h_b, config=cfg)
            - composite_likelihood(pattern, s2, beta - h_b, config=cfg)
        ) / (2 * h_b)
        assert_allclose(score, [fd_s, fd_b], rtol=1e-4)

    def test_score_mean_zero_at_truth(self):
        # estimating-equation property: averaged over replicates the score
        # at the true parameters is zero within Monte Carlo error, and
        # each component takes both signs across replicates
        reps = 10
        net = make_network("dendrite", seed=42, side_target=150.0)
        cfg = Cl2Config(r0=20.0)
        scores = np.array(
            [
                cl2_score(
                    simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=100 + s).pattern,
                    5.0,
                    0.1,
                    config=cfg,
                )
                for s in range(reps)
            ]
        )
        se = scores.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(scores.mean(axis=0)) < 3.5 * se)
        assert np.all(scores.min(axis=0) < 0) and np.all(scores.max(axis=0) > 0)

    def test_lbfgsb_runs(self, cl2_pattern):
        pattern = cl2_pattern
        cfg = Cl2Config(r0=15.0, max_iter=60)
        res = cl2_fit(pattern, config=cfg)
        assert res.sigma2 > 0 and res.beta > 0
        assert res.score.shape == (2,)

    def test_fixed_weight_fit_is_a_likelihood_maximum(self, cl2_pattern):
        cfg = Cl2Config(r0=20.0)
        res = cl2_fit(cl2_pattern, config=cfg)
        assert res.converged
        best = composite_likelihood(cl2_pattern, res.sigma2, res.beta, config=cfg)
        for s2, bt in [
            (1.01 * res.sigma2, res.beta),
            (0.99 * res.sigma2, res.beta),
            (res.sigma2, 1.01 * res.beta),
            (res.sigma2, 0.99 * res.beta),
        ]:
            assert composite_likelihood(cl2_pattern, s2, bt, config=cfg) < best

    def test_readme_pattern_avoids_the_sigma2_zero_root(self):
        # the README's pattern (dendrite seed 7, its model, simulate-cox
        # --seed 3): from the default start the old |score|^2 search ended
        # at sigma2 ~ 2e-4, beta ~ 5e3 and still reported convergence
        net = make_network("dendrite", seed=7)
        gen = spawn_generators(3, 1)[0]
        pattern = simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=gen).pattern
        res = cl2_fit(pattern)
        assert res.converged
        assert res.sigma2 >= 0.5 and res.beta <= 5.0

    def test_config_validation(self):
        for r0 in (0.0, -5.0, math.nan, math.inf, "20"):
            with pytest.raises(ValidationError, match="r0 > 0"):
                Cl2Config(r0=r0)
        assert Cl2Config().r0 is None
        for removed in ("search", "grid_sigma2", "grid_beta", "grid_size", "x_tol", "weight",
                        "epsilon"):
            with pytest.raises(TypeError):
                Cl2Config(**{removed: None})

    def test_criterion_07_replicate_12_converges(self):
        # criterion 07's design, simstudy --seed 2026, replicate 12: one
        # tenth of the network length as the range drives beta to its
        # bound; five mean spacings, the default, give an interior maximum
        net = make_network("dendrite", seed=4, side_target=650.0)
        gen = spawn_generators(np.random.SeedSequence(2026).spawn(1)[0], 13)[12]
        pattern = simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1), seed=gen).pattern
        res = cl2_fit(pattern)
        assert res.converged
        assert res.sigma2 > 0.5 and res.beta < 5.0

    def test_fit_on_the_beta_bound_is_not_converged(self):
        # started past it, L-BFGS-B stops on the bound log beta = 30,
        # where the score and its pair sum both vanish
        net = make_network("dendrite", seed=7)
        pattern = simulate_cox(net, CoxModel(0.8, 1.2, 5.0, 0.1),
                               seed=spawn_generators(3, 1)[0]).pattern
        res = cl2_fit(pattern, config=Cl2Config(start=(0.5, 1e14)))
        assert res.beta == math.exp(estimation._LOG_BOUND)
        assert np.all(res.score == 0.0) and not res.converged

    def test_fit_running_off_to_beta_zero_is_not_converged(self):
        # criterion 07's replicate 12 at range 0.1 |L| (the old default's
        # first stage) heads for beta -> 0 and stops with a large score
        net = make_network("dendrite", seed=4, side_target=650.0)
        pattern = frozen_pattern("criterion07_rep12", net)
        res = cl2_fit(pattern, config=Cl2Config(r0=0.1 * net.total_length))
        assert res.beta < 1e-8 and not res.converged

    def test_line_search_failure_with_a_small_score_converges(self):
        # 5x the README intensity, replicates 3 and 4 of seed 77: L-BFGS-B
        # ends with ABNORMAL (a line search failing at the float floor of
        # its 1e-15 ftol) with every score component ~3e-9 of its pair sum
        net = make_network("dendrite", seed=7)
        gens = spawn_generators(np.random.SeedSequence(77).spawn(1)[0], 30)
        for rep in (3, 4):
            pattern = simulate_cox(net, CoxModel(4.0, 6.0, 5.0, 0.1), seed=gens[rep]).pattern
            res = cl2_fit(pattern)
            pair_sum = _cl2_workspace(pattern, Cl2Config()).pair_sum(res.sigma2, res.beta, 1)
            assert np.abs(res.score / pair_sum).max() < 1e-6
            assert res.converged

    def test_needs_two_points(self, path10):
        with pytest.raises(ValidationError):
            cl2_score(PointPattern(path10, [(0, 5.0)]), 1.0, 1.0)


def _lbfgsb_cl2(pattern, k):
    """The reference fit: scipy's L-BFGS-B on the same likelihood, score, box and stop tests."""
    from scipy import optimize

    ws, bound = _cl2_workspace(pattern, Cl2Config()), estimation._LOG_BOUND

    def negative_likelihood(x):
        s2, bt = np.exp(np.clip(x, -bound, bound))
        return -ws.likelihood(s2, bt, k), -ws.score(s2, bt, k) * np.array([s2, bt])

    res = optimize.minimize(negative_likelihood, np.log([0.5, 0.5]), jac=True, method="L-BFGS-B",
                            bounds=[(-bound, bound)] * 2,
                            options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-10})
    s2, bt = np.exp(np.clip(res.x, -bound, bound))
    score = ws.score(s2, bt, k)
    return s2, bt, bool(np.all(np.abs(score) < estimation._SCORE_RTOL * np.abs(ws.pair_sum(s2, bt, k))))


class TestCl2MatchesLbfgsb:
    @pytest.mark.parametrize("k", [1, 2])
    def test_criterion_07_replicates(self, k):
        flags = []
        for pattern in _criterion_07_patterns(40):
            s2, bt, converged = _lbfgsb_cl2(pattern, k)
            res = cl2_fit(pattern, k)
            assert res.converged == converged
            if converged:
                assert_allclose([res.sigma2, res.beta], [s2, bt], rtol=1e-6)
            flags.append(converged)
        assert sum(flags) >= 35


class TestExactNormaliser:
    @pytest.mark.parametrize(
        "net",
        [make_network("dendrite", seed=7), make_network("random-tree", seed=2, edges=200)],
        ids=["dendrite", "tree200"],
    )
    def test_total_mass(self, net):
        # H is linear between knots, so the trapezoid rule on the knots is
        # exact; its mass is the squared expected count of the intensity
        rho = np.where(net.edge_side, 1.2, 0.8)
        H = _PairDistanceDensity(net, rho)
        t = np.concatenate([[0.0], H.knots])
        h = H(t)
        mass = float(np.sum(np.diff(t) * (h[1:] + h[:-1]) / 2.0))
        assert_allclose(mass, float(rho @ net.edge_length) ** 2, rtol=1e-12)
        assert H(H.support + 1.0) == pytest.approx(0.0, abs=1e-9 * h.max())

    def test_three_edge_line_closed_form(self):
        # criterion 08's segment-pair closed forms for f0 = exp(-t)
        lengths = (3.0, 4.0, 2.0)
        net = LinearNetwork(
            [Vertex(i) for i in range(4)],
            [Edge(i, i, i + 1, lengths[i]) for i in range(3)],
        )
        oracle = sum(2.0 * (a - 1.0 + math.exp(-a)) for a in lengths)
        for (i, j), gap in {(0, 1): 0.0, (1, 2): 0.0, (0, 2): lengths[1]}.items():
            ends = (1 - math.exp(-lengths[i])) * (1 - math.exp(-lengths[j]))
            oracle += 2.0 * math.exp(-gap) * ends
        H = _PairDistanceDensity(net, np.ones(3))
        t = H.support * _UNIT_NODES
        got = float(np.sum(H.support * _UNIT_WEIGHTS * np.exp(-t) * H(t)))
        assert_allclose(got, oracle, rtol=1e-6)

    def test_normaliser_matches_monte_carlo(self):
        # one branch type, so rho is constant and the Monte Carlo double
        # integral of (g, grad g) within r0, times rho**2, estimates the
        # normaliser
        net = make_network("random-tree", seed=3, edges=10, length_range=(5.0, 25.0))
        pattern = simulate_poisson(net, IntensityModel(0.4, 0.4), seed=3)
        rho = pattern.n / net.total_length
        points = [
            (5.0, 0.1, Cl2Config()),
            (1.0, 0.5, Cl2Config(r0=8.0)),
            (3.0, 6.0, Cl2Config(r0=20.0)),
        ]
        samples = 100_000
        for seed, (s2, beta, cfg) in enumerate(points):
            r0 = 5.0 * net.total_length / pattern.n if cfg.r0 is None else cfg.r0
            exact = _Cl2Workspace(pattern, r0).normaliser(s2, beta, 1)
            mean, var = np.zeros(3), np.zeros(3)
            rng = np.random.default_rng(seed)
            for d, factor in _segment_pair_samples(net, samples, rng):
                f = np.stack(pair_correlation_gradient(d, s2, beta, 1)) * (d <= r0)
                mean += factor * f.mean(axis=1)
                var += factor**2 * f.var(axis=1, ddof=1) / samples

            def weighted_g(d):
                return pair_correlation_gradient(d, s2, beta, 1)[0] * (d <= r0)

            # the same draws as mc_double_integral's
            assert_allclose(
                mc_double_integral(net, weighted_g, samples, seed=seed), mean[0], rtol=1e-12
            )
            assert np.all(np.abs(exact - rho**2 * mean) < 3.0 * rho**2 * np.sqrt(var))

    def test_fit_is_deterministic(self, cl2_pattern):
        cfg = Cl2Config(r0=15.0, max_iter=60)
        a, b = cl2_fit(cl2_pattern, config=cfg), cl2_fit(cl2_pattern, config=cfg)
        assert (a.sigma2, a.beta, a.converged) == (b.sigma2, b.beta, b.converged)
        assert np.array_equal(a.score, b.score)

    def test_no_random_numbers(self, cl2_pattern, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the composite likelihood drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        cl2_score(cl2_pattern, 2.0, 0.2)

    def test_monte_carlo_knobs_removed(self):
        with pytest.raises(TypeError):
            Cl2Config(samples_per_pair=1)
        with pytest.raises(TypeError):
            Cl2Config(mc_seed=1)


class TestSimulationStudy:
    def test_row_count_and_methods(self, study_runs):
        runs = study_runs
        result = simulation_study(runs, replicates=3, seed=1)
        assert len(result.rows) == 6
        assert {row.method for row in result.rows} == {"mce-g", "mce-k"}
        assert {row.replicate for row in result.rows} == {0, 1, 2}
        assert all(row.run == "run-1" for row in result.rows)

    def test_zero_replicates(self, study_runs):
        runs = study_runs
        result = simulation_study(runs, replicates=0, seed=1)
        assert result.rows == []
        assert set(result.truncation) == {("run-1", "mce-g"), ("run-1", "mce-k")}

    def test_deterministic(self, study_runs):
        runs = study_runs
        a = simulation_study(runs, replicates=2, seed=9)
        b = simulation_study(runs, replicates=2, seed=9)
        assert [repr(row) for row in a.rows] == [repr(row) for row in b.rows]

    def test_truncation_tally(self, study_runs):
        runs = study_runs
        result = simulation_study(runs, replicates=2, seed=2, caps=(1e-6, 1e-6))
        counts = result.truncation[("run-1", "mce-g")]
        assert counts["sigma2_over"] + counts["failed"] == 2
        assert counts["beta_over"] + counts["failed"] == 2

    @pytest.mark.parametrize(
        "methods, complaint",
        [
            ({"mce-k": MinContrastConfig(r_max=30.0)}, "target 'g'"),
            ({"mce-g": MinContrastConfig(target="K")}, "target 'K'"),
            ({"cl2": MinContrastConfig()}, "needs a Cl2Config"),
            ({"mce-g": Cl2Config()}, "needs a MinContrastConfig"),
            ({"mce-x": None}, "unknown method"),
        ],
    )
    def test_method_must_match_config(self, methods, complaint):
        net = make_network("dendrite", seed=51, side_target=150.0)
        with pytest.raises(ValidationError, match=complaint):
            StudyRun("run-1", net, CoxModel(0.8, 1.2, 5.0, 0.1), methods)

    @pytest.mark.parametrize(
        "methods, complaint",
        [
            ({"mce-g": {"r_max": 30.0, "lag": 1}}, "unexpected keyword argument 'lag'"),
            ({"cl2": {"r0": -5.0}}, "r0 > 0"),
            ({"cl2": [1]}, "needs a Cl2Config, got list"),
            ({"mce-k": {"target": "g"}}, "target 'g'"),
        ],
    )
    def test_field_dicts_are_checked(self, methods, complaint):
        net = make_network("dendrite", seed=51, side_target=150.0)
        with pytest.raises(ValidationError, match=complaint):
            StudyRun("run-1", net, CoxModel(0.8, 1.2, 5.0, 0.1), methods)

    @pytest.mark.parametrize("mode, spacing", [("warp", 1.0), ("grid", "x"), ("grid", 0.0),
                                               ("grid", math.inf)])
    def test_mode_and_spacing_checked(self, mode, spacing):
        net = make_network("dendrite", seed=51, side_target=150.0)
        with pytest.raises(ValidationError, match="run 'run-1'.*spacing"):
            StudyRun("run-1", net, CoxModel(0.8, 1.2, 5.0, 0.1), {"mce-g": None}, mode, spacing)

    def test_field_dicts_fit_like_configs(self, study_runs):
        methods = {"mce-g": {"r_max": 30.0}, "mce-k": {"r_max": 30.0}}
        dicts = [replace(study_runs[0], methods=methods)]
        a = simulation_study(study_runs, replicates=1, seed=4)
        b = simulation_study(dicts, replicates=1, seed=4)
        assert [repr(row) for row in a.rows] == [repr(row) for row in b.rows]

    def test_method_configs(self):
        assert _method_config("mce-k") == MinContrastConfig(target="K")
        assert _method_config("mce-g", {"r_max": 30.0}) == MinContrastConfig(r_max=30.0)
        assert _method_config("cl2", None) == Cl2Config()
        cfg = Cl2Config(r0=20.0)
        assert _method_config("cl2", cfg) is cfg
        with pytest.raises(ValidationError, match="unknown method"):
            _method_config("mce-x")

    def test_default_configs(self):
        net = make_network("dendrite", seed=51, side_target=150.0)
        run = StudyRun("run-1", net, CoxModel(0.8, 1.2, 5.0, 0.1), {"mce-k": None, "cl2": None})
        assert run.methods == {"mce-k": None, "cl2": None}

    def test_failures_are_recorded(self, study_runs, monkeypatch):
        real = estimation._min_contrast
        errors = iter([None, NumericalError("no interior minimum"), None,
                       np.linalg.LinAlgError("singular matrix")])

        def flaky(pattern, k, config, pairs):
            exc = next(errors)
            if exc is not None:
                raise exc
            return real(pattern, k, config, pairs)

        monkeypatch.setattr(estimation, "_min_contrast", flaky)
        result = simulation_study(study_runs, replicates=2, seed=1)
        assert result.failures == [
            StudyFailure("run-1", 0, "mce-k", "NumericalError", "no interior minimum"),
            StudyFailure("run-1", 1, "mce-k", "LinAlgError", "singular matrix"),
        ]
        assert result.truncation[("run-1", "mce-k")]["failed"] == 2
        failed = [row for row in result.rows if row.method == "mce-k"]
        assert all(math.isnan(row.sigma2_hat) and not row.converged for row in failed)
        assert all(math.isfinite(row.sigma2_hat) for row in result.rows if row.method == "mce-g")

    def test_pair_data_built_once_per_replicate(self, study_runs, monkeypatch):
        real, built = estimation.second_order_pairs, []

        def counted(pattern, intensity=None, reach=math.inf):
            built.append(pattern)
            return real(pattern, intensity, reach)

        monkeypatch.setattr(estimation, "second_order_pairs", counted)
        result = simulation_study(study_runs, replicates=3, seed=1)
        assert len(built) == 3 and len({id(p) for p in built}) == 3
        assert len(result.rows) == 6 and result.failures == []

    def test_pair_data_failure_is_recorded_by_each_method(self, study_runs, monkeypatch):
        message = "sphere count vanished at an observed pair distance"

        def vanished(pattern, intensity=None, reach=math.inf):
            raise NumericalError(message)

        monkeypatch.setattr(estimation, "second_order_pairs", vanished)
        result = simulation_study(study_runs, replicates=2, seed=1)
        assert result.failures == [StudyFailure("run-1", rep, method, "NumericalError", message)
                                   for rep in (0, 1) for method in ("mce-g", "mce-k")]
        assert all(math.isnan(row.sigma2_hat) and not row.converged for row in result.rows)
        assert result.truncation[("run-1", "mce-g")]["failed"] == 2

    def test_unexpected_errors_propagate(self, study_runs, monkeypatch):
        def broken(pattern, k, config, pairs):
            raise ZeroDivisionError("a bug, not a failed fit")

        monkeypatch.setattr(estimation, "_min_contrast", broken)
        with pytest.raises(ZeroDivisionError):
            simulation_study(study_runs, replicates=1, seed=1)

    def test_estimates_accessor(self, study_runs):
        runs = study_runs
        result = simulation_study(runs, replicates=3, seed=1)
        est = result.estimates("run-1", "mce-g")
        assert est.shape[1] == 2
        assert 1 <= est.shape[0] <= 3
        assert np.isfinite(est).all()
