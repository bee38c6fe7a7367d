"""Whole-toolkit acceptance checks.

One test per sign-off criterion. Each prints a single
``acceptance criterion N: PASS`` / ``FAIL`` line with pytest's capture
suspended — visible in plain runs, not just under ``-s`` — so the
suite's output doubles as a checklist. Every check is seeded, so
verdicts are reproducible run to run.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from linnetcox import (
    Cl2Config,
    CoxModel,
    Edge,
    FgjConfig,
    IntensityModel,
    LinearNetwork,
    MinContrastConfig,
    PointPattern,
    StudyRun,
    Vertex,
    cl2_score,
    composite_likelihood,
    envelope_pipeline,
    fgj_estimates,
    fit_intensity_mle,
    k_function,
    lattice,
    leaf_distances,
    make_network,
    mc_double_integral,
    pair_correlation,
    rank_envelope,
    retention_field,
    sample_grf,
    simulate_cox,
    simulate_poisson,
    simulation_study,
)
from linnetcox.envelopes import CurveSet
from linnetcox.summaries import g_from_pairs, k_from_pairs, second_order_pairs

from conftest import oracle_distances


def _verdict(number, body, capsys):
    # the checklist line must stay visible in plain `pytest` runs, so it
    # is printed with the capture suspended
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"acceptance criterion {number:2d}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"acceptance criterion {number:2d}: PASS", flush=True)


def _one_branch_pattern(count, length, seed):
    net = LinearNetwork(
        [Vertex(0), Vertex(1)], [Edge(0, 0, 1, float(length), branch="main")]
    )
    offsets = np.random.default_rng(seed).random(count) * length
    return net, PointPattern(net, [(0, float(o)) for o in offsets])


def test_criterion_01_intensity_mle_exact_rationals(capsys):
    # count / branch length, held exactly; the reference table prints the
    # ratio truncated (not rounded) to three decimals, which is visible on
    # 51/212 = 0.24056... -> 0.240
    def body():
        cases = [(51, 212, "0.240"), (72, 202, "0.356"), (36, 204, "0.176")]
        for count, length, printed in cases:
            _, pattern = _one_branch_pattern(count, length, seed=count)
            estimate = fit_intensity_mle(pattern)
            exact = Fraction(count, length)
            assert estimate.main == float(exact)
            assert estimate.side == 0.0
            truncated = (count * 1000) // length
            assert printed == f"0.{truncated:03d}"

    _verdict(1, body, capsys)


def test_criterion_02_two_step_back_transformation(capsys):
    def body():
        # (rho_m, sigma2, k) = (0.240, 0.686, 1) back-transforms to the
        # printed driving intensity 0.312
        model = CoxModel.from_observed(IntensityModel(0.240, 0.477), 0.686, 0.05)
        assert round(model.rho_y_main, 3) == 0.312

        # a near-zero fitted sigma2 leaves the driving intensity at the
        # observed one (Poisson-like data)
        _, pattern = _one_branch_pattern(18, 100, seed=3)
        observed = fit_intensity_mle(pattern)
        near_poisson = CoxModel.from_observed(observed, 5.17e-8, 0.5)
        assert observed.main == 0.18
        assert_allclose(near_poisson.rho_y_main, observed.main, rtol=1e-7)

    _verdict(2, body, capsys)


def test_criterion_03_closed_forms_match_quadrature(capsys):
    def body():
        start = time.time()
        rng = np.random.default_rng(77)
        for k in range(1, 6):
            for _ in range(50):
                sigma2 = rng.uniform(0.1, 10.0)
                beta = rng.uniform(0.01, 2.0)
                r = rng.uniform(0.0, 50.0) or 1.0
                model = CoxModel(1.0, 1.0, sigma2, beta, k)
                got = float(k_function(model, np.array([r]))[0])
                want, _ = integrate.quad(
                    lambda t: float(pair_correlation(model, np.array([t]))[0]),
                    0.0,
                    r,
                    epsabs=1e-13,
                    epsrel=1e-13,
                    limit=400,
                )
                assert abs(got - want) <= 1e-8 * abs(want)
        assert time.time() - start < 5.0

    _verdict(3, body, capsys)


def test_criterion_04_poisson_limit(capsys):
    def body():
        r = np.linspace(1e-3, 50.0, 400)
        for k in (1, 2, 5):
            for beta in (0.01, 0.5):
                model = CoxModel(1.0, 1.0, 1e-10, beta, k)
                assert np.abs(k_function(model, r) - r).max() <= 1e-6
                assert np.abs(pair_correlation(model, r) - 1.0).max() <= 1e-6

    _verdict(4, body, capsys)


@pytest.mark.slow
def test_criterion_05_second_order_estimators_unbiased(capsys):
    def body():
        start = time.time()
        net = make_network("random-tree", seed=2, edges=200)
        r = np.linspace(1.0, 25.0, 25)
        bandwidth = 0.5  # grid starts at 2 bandwidths, clear of the r=0 edge
        reps = 500
        k_hat = np.empty((reps, r.size))
        g_hat = np.empty((reps, r.size))
        for i in range(reps):
            pattern = simulate_poisson(net, 0.5, seed=1000 + i)
            pairs = second_order_pairs(pattern, intensity=0.5)
            k_hat[i] = k_from_pairs(pairs, r)
            g_hat[i] = g_from_pairs(pairs, r, bandwidth)
        se_k = k_hat.std(axis=0, ddof=1) / np.sqrt(reps)
        se_g = g_hat.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(k_hat.mean(axis=0) - r) <= 3.0 * se_k)
        assert np.all(np.abs(g_hat.mean(axis=0) - 1.0) <= 3.0 * se_g)
        assert time.time() - start < 300.0

    _verdict(5, body, capsys)


@pytest.mark.slow
def test_criterion_06_thinning_moments(capsys):
    def body():
        start = time.time()
        net = make_network("dendrite", seed=11, side_target=150.0)
        model = CoxModel(0.8, 1.2, 5.0, 0.1)
        side = net.edge_side
        thinning = (1.0 + model.sigma2) ** -0.5
        want_main = model.rho_y_main * thinning * net.edge_length[~side].sum()
        want_side = model.rho_y_side * thinning * net.edge_length[side].sum()

        reps = 2000
        count_main = np.empty(reps)
        count_side = np.empty(reps)
        for i in range(reps):
            sample = simulate_cox(net, model, seed=3000 + i)
            on_side = side[sample.pattern.edge_indices]
            count_main[i] = (~on_side).sum()
            count_side[i] = on_side.sum()
        for counts, want in ((count_main, want_main), (count_side, want_side)):
            se = counts.std(ddof=1) / np.sqrt(reps)
            assert abs(counts.mean() - want) <= 3.0 * se

        # mean retention of the thinning field on a lattice
        sites = lattice(net, 1.0)
        retained = np.empty(reps)
        for i in range(reps):
            field = sample_grf(net, sites, model.beta, k=model.k, seed=6000 + i)
            retained[i] = retention_field(field, model.sigma2).mean()
        se = retained.std(ddof=1) / np.sqrt(reps)
        assert abs(retained.mean() - thinning) <= 3.0 * se
        assert time.time() - start < 300.0

    _verdict(6, body, capsys)


@pytest.mark.slow
def test_criterion_07_minimum_contrast_study(capsys):
    def body():
        start = time.time()
        net = make_network("dendrite", seed=4, side_target=650.0)
        model = CoxModel(0.8, 1.2, 5.0, 0.1)
        run = StudyRun(
            "run-1",
            net,
            model,
            {
                "mce-g": MinContrastConfig(target="g", r_max=30.0),
                "mce-k": MinContrastConfig(target="K", r_max=30.0),
            },
        )
        result = simulation_study([run], replicates=100, seed=2026)
        est_g = result.estimates("run-1", "mce-g")
        est_k = result.estimates("run-1", "mce-k")
        assert len(est_g) >= 90 and len(est_k) >= 90

        med_sigma2 = float(np.median(est_g[:, 0]))
        med_beta = float(np.median(est_g[:, 1]))
        assert 2.5 <= med_sigma2 <= 10.0
        assert 0.05 <= med_beta <= 0.2

        def iqr(x):
            q75, q25 = np.percentile(x, [75, 25])
            return float(q75 - q25)

        assert iqr(est_g[:, 1]) < iqr(est_k[:, 1])
        assert time.time() - start < 1800.0

    _verdict(7, body, capsys)


def test_criterion_08_composite_likelihood_machinery(capsys):
    def body():
        start = time.time()
        # score equals the central finite difference of the log composite
        # likelihood when the pair weight does not depend on the parameters
        # (shared quadrature nodes make both sides use the same rule)
        net = make_network("dendrite", seed=11, side_target=150.0)
        cfg = Cl2Config(weight="fixed", r0=20.0)
        sigma2, beta = 3.0, 0.2
        h_s, h_b = 1e-4 * sigma2, 1e-4 * beta
        for seed in (101, 102, 103):
            pattern = simulate_cox(net, CoxModel(0.5, 0.7, 3.0, 0.2), seed=seed).pattern
            score = cl2_score(pattern, sigma2, beta, config=cfg)
            fd_s = (
                composite_likelihood(pattern, sigma2 + h_s, beta, config=cfg)
                - composite_likelihood(pattern, sigma2 - h_s, beta, config=cfg)
            ) / (2 * h_s)
            fd_b = (
                composite_likelihood(pattern, sigma2, beta + h_b, config=cfg)
                - composite_likelihood(pattern, sigma2, beta - h_b, config=cfg)
            ) / (2 * h_b)
            assert_allclose(score, [fd_s, fd_b], rtol=1e-4)

        # Monte Carlo double integral against the segment-pair closed forms
        # for f0 = exp(-t) on a three-edge line
        lengths = (3.0, 4.0, 2.0)
        net3 = LinearNetwork(
            [Vertex(i) for i in range(4)],
            [Edge(i, i, i + 1, lengths[i]) for i in range(3)],
        )
        gaps = {(0, 1): 0.0, (1, 2): 0.0, (0, 2): lengths[1]}
        oracle = sum(2.0 * (a - 1.0 + np.exp(-a)) for a in lengths)
        for (i, j), gap in gaps.items():
            oracle += (
                2.0
                * np.exp(-gap)
                * (1.0 - np.exp(-lengths[i]))
                * (1.0 - np.exp(-lengths[j]))
            )
        total = sum(lengths)
        assert_allclose(oracle, 2.0 * (total - 1.0 + np.exp(-total)), rtol=1e-12)

        got = mc_double_integral(
            net3, lambda t: np.exp(-t), samples_per_pair=100_000, seed=8
        )
        assert abs(got - oracle) <= 0.005 * oracle
        assert time.time() - start < 60.0

    _verdict(8, body, capsys)


@pytest.mark.slow
def test_criterion_09_envelope_calibration(capsys):
    def body():
        start = time.time()
        # single-cell rank test: data 5 against simulated 1..4 sits exactly
        # at the most extreme rank -> p interval (1/5, 2/5)
        toy = CurveSet(
            r=np.array([0.0]),
            labels=np.array(["K"], dtype=object),
            data=np.array([5.0]),
            sims=np.array([[1.0], [2.0], [3.0], [4.0]]),
            defined=np.array([True]),
        )
        envelope = rank_envelope(toy, alpha=0.25)
        assert envelope.p_interval == (0.2, 0.4)

        # size of the conservative test under the null: Poisson data tested
        # against its own (true) model
        net = make_network("dendrite", seed=9, side_target=120.0)
        model = IntensityModel(0.3, 0.3)
        r = np.linspace(5.0, 20.0, 3)
        rejections = 0
        trials = 200
        for t in range(trials):
            pattern = simulate_poisson(net, model, seed=5000 + t)
            res = envelope_pipeline(
                net,
                pattern,
                model,
                test="K",
                n_sims=99,
                alpha=0.05,
                seed=9000 + t,
                r=r,
                r_min=0.0,
            )
            if res.envelope.p_conservative <= 0.05:
                rejections += 1
        assert 0.005 * trials <= rejections <= 0.10 * trials
        assert time.time() - start < 600.0

    _verdict(9, body, capsys)


def _fgj_oracle(pattern, r_grid, spacing):
    """Ball-scan evaluation of the empty-space / nearest-neighbour curves.

    Constant intensity only: any data point inside the ball zeroes the
    retention product, so both curves reduce to hit fractions over the
    eroded lattice (F) or the eroded data points (G).
    """
    net = pattern.network
    grid_pat = PointPattern(net, lattice(net, spacing))
    data = list(zip(pattern.edge_indices, pattern.offsets))
    grid = list(zip(grid_pat.edge_indices, grid_pat.offsets))
    cross = oracle_distances(net, grid + data)[: len(grid), len(grid):]
    dd = oracle_distances(net, data)
    np.fill_diagonal(dd, np.inf)
    grid_depth = leaf_distances(net, grid_pat)
    data_depth = leaf_distances(net, pattern)
    F = np.full(r_grid.shape, np.nan)
    G = np.full(r_grid.shape, np.nan)
    for i, r in enumerate(r_grid):
        keep = grid_depth > r
        if keep.any():
            F[i] = (cross[keep] <= r).any(axis=1).mean()
        dkeep = data_depth > r
        if dkeep.any():
            G[i] = (dd[dkeep] <= r).any(axis=1).mean()
    return F, G


def test_criterion_10_empty_space_estimators(capsys):
    def body():
        # no points: the empty-space function is identically zero
        net, _ = _one_branch_pattern(1, 50, seed=0)
        curves = fgj_estimates(
            PointPattern(net, []), FgjConfig(intensity=0.5, rho_bar=0.5)
        )
        defined = curves.F.defined
        assert defined.any()
        assert np.all(curves.F.values[defined] == 0.0)
        assert not curves.G.defined.any()

        # constant intensity reduces the estimators to ball-scan fractions
        r_grid = np.linspace(0.0, 8.0, 17)
        checked = 0
        for seed in range(20):
            tree = make_network("random-tree", seed=seed, edges=15)
            pattern = simulate_poisson(tree, 0.5, seed=seed)
            if pattern.n < 2:
                continue
            curves = fgj_estimates(
                pattern,
                FgjConfig(intensity=0.5, rho_bar=0.5, lattice_spacing=0.5),
                r_grid,
            )
            F_want, G_want = _fgj_oracle(pattern, r_grid, 0.5)
            for got, want in ((curves.F, F_want), (curves.G, G_want)):
                ok = got.defined & ~np.isnan(want)
                assert ok.any()
                assert_allclose(got.values[ok], want[ok], atol=1e-12)
            checked += 1
        assert checked >= 19

    _verdict(10, body, capsys)
