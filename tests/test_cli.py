import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from linnetcox import (
    FitResult,
    IntensityModel,
    PointPattern,
    ValidationError,
    fit_intensity_mle,
    g_estimate,
    k_estimate,
    lattice,
    leaf_distances,
    load_curves,
    load_fit,
    load_network,
    load_pattern,
    save_fit,
    save_pattern,
)
import linnetcox
from linnetcox import summaries
from linnetcox.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def dendrite_file(tmp_path):
    out = tmp_path / "net.json"
    assert run("make-network", "--template", "dendrite", "--seed", "7", "--out", out) == 0
    return out


@pytest.fixture()
def pattern_file(tmp_path, dendrite_file):
    out = tmp_path / "sim"
    rc = run(
        "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8", "--rho-ys", "1.2",
        "--sigma2", "5", "--beta", "0.1", "--seed", "3", "--out", out,
    )
    assert rc == 0
    return out / "pattern_0000.csv"


@pytest.fixture()
def main_branch_file(tmp_path, dendrite_file, pattern_file):
    """The README pattern's main-branch points: its side branch holds none."""
    net = load_network(dendrite_file)
    pattern = load_pattern(pattern_file, net)
    main = ~net.edge_side[pattern.edge_indices]
    out = tmp_path / "main.csv"
    save_pattern(PointPattern.from_indices(net, pattern.edge_indices[main], pattern.offsets[main]), out)
    return out


class TestMakeNetwork:
    def test_dendrite_invariants(self, tmp_path, dendrite_file):
        net = load_network(dendrite_file)
        assert 400.0 <= net.total_length <= 900.0
        assert len(net.edges) == len(net.vertices) - 1  # a tree
        assert net.main_length > 0 and net.side_length > 0
        # connected: every leaf is reachable
        assert np.isfinite(leaf_distances(net, lattice(net, 5.0))).all()

    def test_manifest_written_next_to_file(self, tmp_path, dendrite_file):
        manifest = dendrite_file.with_name("net.manifest.json")
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "make-network"
        assert "--template" in doc["argv"]

    def test_knobs_are_forwarded(self, tmp_path):
        small = tmp_path / "small.json"
        assert run(
            "make-network", "--template", "dendrite", "--seed", "7",
            "--knob", "side_target=120.0", "--out", small,
        ) == 0
        assert load_network(small).side_length < load_network(
            _make(tmp_path, "full.json")
        ).side_length

    def test_unknown_knob_rejected(self, tmp_path, capsys):
        rc = run(
            "make-network", "--template", "dendrite",
            "--knob", "bogus=1", "--out", tmp_path / "x.json",
        )
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("template, knob", [
        ("random-tree", "length_range=[1,2,3]"),
        ("dendrite", "side_length_range=[1]"),
        ("dendrite", "main_length_range=[20,10]"),
        ("random-tree", "length_range=[true,2]"),
        ("random-tree", "length_range=[1,Infinity]"),
    ], ids=["three", "one", "descending", "boolean", "infinite"])
    def test_range_knob_not_two_numbers_exits_2(self, tmp_path, capsys, template, knob):
        out = tmp_path / "x.json"
        assert run("make-network", "--template", template, "--knob", knob, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and knob.split("=")[0] in err
        assert not out.exists()

    def test_random_tree_edge_count(self, tmp_path):
        out = tmp_path / "tree.json"
        assert run(
            "make-network", "--template", "random-tree", "--seed", "1",
            "--knob", "edges=200", "--out", out,
        ) == 0
        net = load_network(out)
        assert len(net.edges) == 200
        assert all(e.length > 0 for e in net.edges)

    def test_path_template_is_minimal(self, tmp_path):
        out = tmp_path / "path.json"
        assert run("make-network", "--template", "path", "--out", out) == 0
        net = load_network(out)
        assert len(net.vertices) == 2 and len(net.edges) == 1


def _make(tmp_path, name, *extra):
    out = tmp_path / name
    assert run("make-network", "--template", "dendrite", "--seed", "7", *extra, "--out", out) == 0
    return out


class TestSimulate:
    def test_poisson_writes_patterns_and_manifest(self, tmp_path, dendrite_file):
        out = tmp_path / "pois"
        rc = run(
            "simulate-poisson", "--net", dendrite_file, "--rho-m", "0.5",
            "--reps", "3", "--seed", "1", "--out", out,
        )
        assert rc == 0
        files = sorted(p.name for p in out.glob("pattern_*.csv"))
        assert files == ["pattern_0000.csv", "pattern_0001.csv", "pattern_0002.csv"]
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "simulate-poisson"
        net = load_network(dendrite_file)
        pattern = load_pattern(out / "pattern_0000.csv", net)
        assert pattern.n > 0

    def test_deterministic_across_runs(self, tmp_path, dendrite_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(
                "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8",
                "--sigma2", "5", "--beta", "0.1", "--reps", "2", "--seed", "11", "--out", out,
            )
            outs.append(out)
        for rep in ("pattern_0000.csv", "pattern_0001.csv"):
            assert (outs[0] / rep).read_bytes() == (outs[1] / rep).read_bytes()

    def test_threads_do_not_change_results(self, tmp_path, dendrite_file):
        serial, threaded = tmp_path / "s", tmp_path / "t"
        base = [
            "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8",
            "--sigma2", "5", "--beta", "0.1", "--reps", "4", "--seed", "2",
        ]
        assert run(*base, "--out", serial) == 0
        assert run("--threads", "4", *base, "--out", threaded) == 0
        for rep in range(4):
            name = f"pattern_{rep:04d}.csv"
            assert (serial / name).read_bytes() == (threaded / name).read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, dendrite_file, capsys, threads):
        rc = run("--threads", threads, "simulate-poisson", "--net", dendrite_file,
                 "--rho-m", "0.5", "--out", tmp_path / "x")
        assert rc == 2
        err = capsys.readouterr().err
        assert "--threads" in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_threads_start_no_thread(self, tmp_path, dendrite_file, monkeypatch):
        # the replicates run serially whatever --threads says
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        rc = run("--threads", "1000", "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8",
                 "--sigma2", "5", "--beta", "0.1", "--reps", "3", "--out", tmp_path / "x")
        assert rc == 0
        assert len(list((tmp_path / "x").glob("pattern_*.csv"))) == 3

    def test_save_pi_requires_grid_mode(self, tmp_path, dendrite_file, capsys):
        rc = run(
            "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8",
            "--sigma2", "5", "--beta", "0.1", "--save-pi", "--out", tmp_path / "x",
        )
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, status",
        [
            (["--sigma2", "5", "--beta", "inf"], 2),
            (["--sigma2", "inf", "--beta", "0.1"], 2),
            (["--sigma2", "5", "--beta", "0"], 2),
            (["--sigma2", "5", "--beta", "0.1", "--reps", "-1"], 2),
        ],
    )
    def test_bad_field_parameters_exit_cleanly(
        self, tmp_path, dendrite_file, capsys, flags, status
    ):
        rc = run(
            "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8", *flags,
            "--out", tmp_path / "x",
        )
        assert rc == status
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x" / "pattern_0000.csv").exists()

    def test_subnormal_beta_simulates(self, tmp_path, dendrite_file):
        # the field walk divides by nothing, so a subnormal beta gives a constant field
        rc = run(
            "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8", "--sigma2", "5",
            "--beta", "1e-320", "--out", tmp_path / "x",
        )
        assert rc == 0
        assert (tmp_path / "x" / "pattern_0000.csv").exists()

    @pytest.mark.parametrize("mode, spacing", [("grid", "inf"), ("grid", "nan"), ("grid", "0"),
                                               ("exact", "nan")],
                             ids=["inf", "nan", "0", "exact-nan"])
    def test_bad_grid_spacing_exits_2(self, tmp_path, dendrite_file, capsys, mode, spacing):
        # an infinite spacing used to give a lattice of the vertices alone; exact mode
        # reads no spacing, yet a bad one is refused there too
        rc = run(
            "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8", "--sigma2", "5",
            "--beta", "0.1", "--mode", mode, "--spacing", spacing, "--out", tmp_path / "x",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "spacing" in err
        assert not (tmp_path / "x" / "pattern_0000.csv").exists()

    @pytest.mark.parametrize("flags", [["simulate-poisson", "--rho-m", "1e300"],
                                       ["simulate-cox", "--rho-ym", "1e300", "--sigma2", "5",
                                        "--beta", "0.1"]], ids=["poisson", "cox"])
    def test_undrawable_expected_count_exits_2(self, tmp_path, dendrite_file, capsys, flags):
        # numpy's Poisson sampler refuses a mean above about 9.2e18
        rc = run(*flags, "--net", dendrite_file, "--out", tmp_path / "x")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "expected count" in err

    def test_negative_poisson_reps_exit_2(self, tmp_path, dendrite_file, capsys):
        rc = run("simulate-poisson", "--net", dendrite_file, "--rho-m", "0.8", "--reps", "-1",
                 "--out", tmp_path / "x")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "-1" in err

    def test_save_pi_grid_format(self, tmp_path, dendrite_file):
        out = tmp_path / "grid"
        rc = run(
            "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8",
            "--sigma2", "5", "--beta", "0.1", "--mode", "grid", "--spacing", "2.0",
            "--save-pi", "--reps", "2", "--seed", "4", "--out", out,
        )
        assert rc == 0
        with open(out / "pi_0001.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["edge", "offset", "pi"]
        pis = np.array([float(r[2]) for r in rows[1:]])
        assert pis.size > 100
        assert np.all((pis > 0) & (pis <= 1))

    def test_rho_side_defaults_to_main(self, tmp_path, dendrite_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run("simulate-poisson", "--net", dendrite_file, "--rho-m", "0.7", "--seed", "5", "--out", a)
        run("simulate-poisson", "--net", dendrite_file, "--rho-m", "0.7", "--rho-s", "0.7",
            "--seed", "5", "--out", b)
        assert (a / "pattern_0000.csv").read_bytes() == (b / "pattern_0000.csv").read_bytes()

    @pytest.mark.parametrize("ids", [["7", "x"], [1.5, 2.0]], ids=["string", "float"])
    def test_pattern_of_non_integer_edge_ids_round_trips(self, tmp_path, ids):
        # the cell 7 used to be read as the integer 7, which names no edge here
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps({
            "vertices": [{"id": 0}, {"id": 1}, {"id": 2}],
            "edges": [{"id": ids[0], "start": 0, "end": 1, "length": 20.0},
                      {"id": ids[1], "start": 1, "end": 2, "length": 20.0}],
        }))
        out = tmp_path / "sim"
        assert run("simulate-cox", "--net", net_file, "--rho-ym", "2", "--sigma2", "1",
                   "--beta", "0.5", "--seed", "3", "--out", out) == 0
        with open(out / "pattern_0000.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert {row[0] for row in rows} == {str(i) for i in ids}
        pattern = load_pattern(out / "pattern_0000.csv", load_network(net_file))
        by_text = {str(i): i for i in ids}
        assert [(p.edge_id, p.offset) for p in pattern] == [(by_text[e], float(o)) for e, o in rows]
        assert run("summaries", "--net", net_file, "--pattern", out / "pattern_0000.csv",
                   "--which", "K", "--out", tmp_path / "k.csv") == 0


class TestFit:
    def test_mce_fit_round_trip(self, tmp_path, dendrite_file, pattern_file):
        out = tmp_path / "fit.json"
        rc = run(
            "fit", "--net", dendrite_file, "--pattern", pattern_file,
            "--method", "mce-g", "--ru", "30", "--out", out,
        )
        assert rc == 0
        fit = load_fit(out)
        assert fit.method == "mce-g"
        assert fit.sigma2 > 0 and fit.beta > 0
        scale = (1.0 + fit.sigma2) ** (-fit.k / 2.0)
        assert_allclose(fit.rho_y_main * scale, fit.rho_main, rtol=1e-12)

    def test_cl2_fit_labels_method(self, tmp_path, dendrite_file, pattern_file):
        out = tmp_path / "cl2.json"
        rc = run(
            "fit", "--net", dendrite_file, "--pattern", pattern_file,
            "--method", "cl2", "--r0", "15", "--out", out,
        )
        assert rc == 0
        assert load_fit(out).method == "cl2"

    def test_default_cl2_fit_is_interior_and_converged(self, tmp_path, dendrite_file,
                                                       pattern_file):
        out = tmp_path / "cl2.json"
        rc = run("fit", "--net", dendrite_file, "--pattern", pattern_file,
                 "--method", "cl2", "--out", out)
        assert rc == 0
        fit = load_fit(out)
        assert fit.converged and fit.sigma2 >= 0.5 and fit.beta <= 5.0

    @pytest.mark.parametrize(
        "method, flags, complaint",
        [
            ("mce-g", ["--k", "0"], "k must be"),
            ("cl2", ["--k", "0"], "k must be"),
            ("mce-g", ["--ru", "inf"], "r_max < inf"),
            ("mce-k", ["--ru", "1e400"], "r_max < inf"),
            ("mce-g", ["--bandwidth", "inf"], "bandwidth must be positive and finite"),
            ("cl2", ["--r0", "-5"], "r0 > 0"),
            ("cl2", ["--r0", "nan"], "r0 > 0"),
            ("cl2", ["--r0", "inf"], "r0 > 0"),
            ("mce-g", ["--ru", "1e300"], "exceeds the network's diameter"),
            ("mce-k", ["--ru", "1e300"], "exceeds the network's diameter"),
            ("mce-g", ["--ru", "30", "--bandwidth", "1e300"], "exceeds the network's diameter"),
            # a flag the method does not read is refused, not ignored
            ("cl2", ["--ru", "30"], "--ru 30.0"),
            ("cl2", ["--rl", "1"], "--rl 1.0"),
            ("cl2", ["--ru", "30", "--bandwidth", "0.3", "--p", "2"], "--p 2.0"),
            ("mce-g", ["--r0", "5"], "--r0 5.0"),
            ("mce-k", ["--bandwidth", "0.3"], "target 'K' reads no bandwidth"),
        ],
    )
    def test_bad_fit_flags_exit_2(self, tmp_path, dendrite_file, pattern_file, capsys, method,
                                  flags, complaint):
        out = tmp_path / "x.json"
        rc = run("fit", "--net", dendrite_file, "--pattern", pattern_file,
                 "--method", method, *flags, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and complaint in err
        assert not out.exists()

    def test_weights_can_all_vanish(self, tmp_path, capsys):
        # two points 190 apart on a path of length 200: no pair lies within
        # range 20, so the weight discards every pair and the fit reports a
        # numerical failure
        net_file = tmp_path / "long.json"
        run("make-network", "--template", "path", "--knob", "length=200.0", "--out", net_file)
        pat_file = tmp_path / "two.csv"
        pat_file.write_text("edge,offset\n0,5.0\n0,195.0\n")
        rc = run(
            "fit", "--net", net_file, "--pattern", pat_file,
            "--method", "cl2", "--r0", "20", "--out", tmp_path / "x.json",
        )
        assert rc == 3
        assert "weight" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("method", ["mce-g", "mce-k", "cl2"])
    def test_one_point_pattern_exits_2(self, tmp_path, dendrite_file, capsys, method):
        pat = tmp_path / "one.csv"
        pat.write_text("edge,offset\n0,1.0\n")
        out = tmp_path / "x.json"
        rc = run("fit", "--net", dendrite_file, "--pattern", pat, "--method", method,
                 "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "needs at least two points" in err
        assert not out.exists()


class TestSummaries:
    def test_selected_curves_round_trip(self, tmp_path, dendrite_file, pattern_file):
        out = tmp_path / "curves.csv"
        rc = run(
            "summaries", "--net", dendrite_file, "--pattern", pattern_file,
            "--which", "K,g", "--rgrid", "0:30:64", "--out", out,
        )
        assert rc == 0
        curves = load_curves(out)
        assert [c.kind for c in curves] == ["K", "g"]
        for c in curves:
            assert c.r.size == 64
            assert c.r.min() == 0.0 and c.r.max() == 30.0

    def test_fgj_curves(self, tmp_path, dendrite_file, pattern_file):
        out = tmp_path / "fgj.csv"
        rc = run(
            "summaries", "--net", dendrite_file, "--pattern", pattern_file,
            "--which", "F,G,J", "--rgrid", "0:8:32", "--spacing", "1.0", "--out", out,
        )
        assert rc == 0
        curves = {c.kind: c for c in load_curves(out)}
        assert set(curves) == {"F", "G", "J"}
        f = curves["F"]
        assert np.all(f.values[f.defined] <= 1.0)

    def test_fgj_on_one_branch(self, tmp_path, dendrite_file, main_branch_file):
        # rho_bar is the least positive branch intensity, not the empty side branch's 0
        out = tmp_path / "fgj.csv"
        rc = run("summaries", "--net", dendrite_file, "--pattern", main_branch_file,
                 "--which", "F,G,J", "--out", out)
        assert rc == 0
        curves = {c.kind: c for c in load_curves(out)}
        assert curves["F"].defined.any() and curves["G"].defined.any()

    def test_fgj_on_an_empty_pattern_exits_2(self, tmp_path, dendrite_file, capsys):
        empty = tmp_path / "empty.csv"
        save_pattern(PointPattern(load_network(dendrite_file), []), empty)
        out = tmp_path / "fgj.csv"
        rc = run("summaries", "--net", dendrite_file, "--pattern", empty, "--which", "F", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "rho_bar" in err
        assert not out.exists()

    def test_unknown_curve_rejected(self, tmp_path, dendrite_file, pattern_file, capsys):
        rc = run(
            "summaries", "--net", dendrite_file, "--pattern", pattern_file,
            "--which", "K,Z", "--out", tmp_path / "x.csv",
        )
        assert rc == 2
        assert "Z" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["K,K", "F,g,F", "K, K", "J,J,J", "", ","],
                             ids=["K-twice", "F-twice", "spaced-repeat", "J-thrice", "empty", "comma"])
    def test_bad_which_exits_2(self, tmp_path, dendrite_file, pattern_file, capsys, which):
        # a repeated name used to write its rows twice, which load_curves reads as one curve
        out = tmp_path / "x.csv"
        rc = run("summaries", "--net", dendrite_file, "--pattern", pattern_file,
                 "--which", which, "--rgrid", "0:30:31", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --which") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("which, bandwidth", [("g", "inf"), ("g", "nan"), ("g", "0"),
                                                  ("g", "1e300"), ("F", "-3")],
                             ids=["inf", "nan", "0", "1e300", "F--3"])
    def test_bad_bandwidth_exits_2(self, tmp_path, dendrite_file, pattern_file, capsys, which,
                                   bandwidth):
        # F reads no bandwidth, yet a bad one is refused there too
        out = tmp_path / "x.csv"
        rc = run("summaries", "--net", dendrite_file, "--pattern", pattern_file,
                 "--which", which, "--bandwidth", bandwidth, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "bandwidth" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["summaries", "--which", "g"], ["fit"]])
    def test_subnormal_bandwidth_exits_2(self, tmp_path, dendrite_file, pattern_file, capsys,
                                         command):
        # 0.75 / 1e-320 overflows: summaries wrote NaN g values, fit blamed the curve
        out = tmp_path / "x.out"
        rc = run(*command, "--net", dendrite_file, "--pattern", pattern_file,
                 "--bandwidth", "1e-320", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "bandwidth" in err
        assert "1e-320" in err and not out.exists()

    @pytest.mark.parametrize("which, spacing", [("F,G,J", "inf"), ("F,G,J", "nan"),
                                                ("F,G,J", "0"), ("K", "nan")],
                             ids=["inf", "nan", "0", "K-nan"])
    def test_bad_lattice_spacing_exits_2(self, tmp_path, dendrite_file, pattern_file, capsys,
                                         which, spacing):
        # K reads no spacing, yet a bad one is refused there too
        out = tmp_path / "x.csv"
        rc = run("summaries", "--net", dendrite_file, "--pattern", pattern_file,
                 "--which", which, "--spacing", spacing, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "spacing" in err
        assert not out.exists()

    def test_bad_rgrid_rejected(self, tmp_path, dendrite_file, pattern_file):
        rc = run(
            "summaries", "--net", dendrite_file, "--pattern", pattern_file,
            "--rgrid", "0:30", "--out", tmp_path / "x.csv",
        )
        assert rc == 2

    @pytest.mark.parametrize("rgrid", ["0:inf:5", "0:1e400:3", "nan:5:3"])
    def test_unbounded_rgrid_rejected(self, tmp_path, dendrite_file, pattern_file, capsys,
                                      rgrid):
        out = tmp_path / "x.csv"
        rc = run("summaries", "--net", dendrite_file, "--pattern", pattern_file,
                 "--rgrid", rgrid, "--out", out)
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("rgrid", [None, "0:30:121"])
    def test_k_and_g_share_one_pair_set(self, tmp_path, dendrite_file, pattern_file, monkeypatch,
                                         rgrid):
        calls = []
        original = summaries.second_order_pairs

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(summaries, "second_order_pairs", counted)
        out = tmp_path / "curves.csv"
        grid = ["--rgrid", rgrid] if rgrid else []
        rc = run(
            "summaries", "--net", dendrite_file, "--pattern", pattern_file,
            "--which", "g,K", *grid, "--out", out,
        )
        assert rc == 0
        assert len(calls) == 1
        net = load_network(dendrite_file)
        pattern = load_pattern(pattern_file, net)
        intensity = fit_intensity_mle(pattern)
        r = None if rgrid is None else np.linspace(0.0, 30.0, 121)
        want = [g_estimate(pattern, intensity, r), k_estimate(pattern, intensity, r)]
        for got, ref in zip(load_curves(out), want):
            assert got.kind == ref.kind
            assert np.array_equal(got.r, ref.r)
            assert np.array_equal(got.values, ref.values)


class TestKernelIntensity:
    def test_writes_grid_csv(self, tmp_path, dendrite_file, pattern_file):
        out = tmp_path / "intensity.csv"
        rc = run(
            "kernel-intensity", "--net", dendrite_file, "--pattern", pattern_file,
            "--bandwidth", "5", "--out", out,
        )
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["edge", "offset", "value"]
        vals = np.array([float(r[2]) for r in rows[1:]])
        assert vals.size > 0 and np.all(vals >= 0)

    def test_ids_are_quoted_as_in_patterns(self, tmp_path):
        # a Y whose edge ids hold a comma and a quote, in both hand-written CSV outputs
        ids = ["a,b", 'say "c"', "d"]
        doc = {"vertices": [{"id": v} for v in "OABC"],
               "edges": [{"id": e, "start": "O", "end": v, "length": 4.0}
                         for e, v in zip(ids, "ABC")]}
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        pattern = tmp_path / "pattern.csv"
        pattern.write_text('edge,offset\n"a,b",1.0\n"say ""c""",2.5\nd,3.0\n')
        assert run("kernel-intensity", "--net", net, "--pattern", pattern, "--bandwidth", "2",
                   "--out", tmp_path / "intensity.csv") == 0
        assert run("simulate-cox", "--net", net, "--rho-ym", "2", "--sigma2", "1", "--beta", "1",
                   "--mode", "grid", "--save-pi", "--out", tmp_path / "sim") == 0
        for out in (tmp_path / "intensity.csv", tmp_path / "sim" / "pi_0000.csv"):
            with open(out, newline="") as f:
                rows = list(csv.reader(f))
            assert {len(r) for r in rows} == {3}
            assert {r[0] for r in rows[1:]} == set(ids)

    def test_spacing_must_resolve_bandwidth(self, tmp_path, dendrite_file, pattern_file):
        rc = run(
            "kernel-intensity", "--net", dendrite_file, "--pattern", pattern_file,
            "--bandwidth", "2", "--spacing", "3", "--out", tmp_path / "x.csv",
        )
        assert rc == 2

    @pytest.mark.parametrize("flags", [["--bandwidth", "1e300"],
                                       ["--bandwidth", "5", "--spacing", "1e-300"]],
                             ids=["diffusion-time-overflows", "node-count-overflows"])
    def test_unrepresentable_grid_exits_2(self, tmp_path, dendrite_file, pattern_file, capsys,
                                          flags):
        out = tmp_path / "x.csv"
        rc = run("kernel-intensity", "--net", dendrite_file, "--pattern", pattern_file, *flags,
                 "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestEnvelope:
    def test_poisson_null_outputs(self, tmp_path, dendrite_file, pattern_file):
        out = tmp_path / "env.csv"
        rc = run(
            "envelope", "--net", dendrite_file, "--pattern", pattern_file,
            "--model", "poisson", "--sims", "19", "--alpha", "0.2",
            "--rgrid", "0:15:32", "--seed", "6", "--out", out,
        )
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["segment", "r", "data", "lower", "upper"]
        r = np.array([float(row[1]) for row in rows[1:]])
        assert r.min() >= 1.0  # default r_min trim
        side = json.loads((tmp_path / "env.json").read_text())
        assert 0 < side["p_liberal"] <= side["p_conservative"] <= 1

    def test_fitted_model_as_null(self, tmp_path, dendrite_file, pattern_file):
        fit_file = tmp_path / "fit.json"
        assert run(
            "fit", "--net", dendrite_file, "--pattern", pattern_file,
            "--method", "mce-g", "--ru", "30", "--out", fit_file,
        ) == 0
        out = tmp_path / "env.csv"
        rc = run(
            "envelope", "--net", dendrite_file, "--pattern", pattern_file,
            "--model", fit_file, "--sims", "9", "--alpha", "0.2",
            "--rgrid", "0:15:24", "--seed", "7", "--out", out,
        )
        assert rc == 0

    def test_fgj_poisson_null_on_one_branch(self, tmp_path, dendrite_file, main_branch_file):
        out = tmp_path / "env.csv"
        rc = run("envelope", "--net", dendrite_file, "--pattern", main_branch_file, "--test", "FGJ",
                 "--model", "poisson", "--sims", "19", "--seed", "2", "--out", out)
        assert rc == 0
        side = json.loads((tmp_path / "env.json").read_text())
        assert 0 < side["p_liberal"] <= side["p_conservative"] <= 1

    def test_fgj_with_empty_simulations(self, tmp_path, dendrite_file, pattern_file):
        # the README pattern's first two points lie on side branches; simulations 5 and 10 of
        # this Poisson fit draw no point, and their G and J cells leave the test
        net = load_network(dendrite_file)
        pattern = load_pattern(pattern_file, net)
        two = tmp_path / "two.csv"
        save_pattern(PointPattern.from_indices(net, pattern.edge_indices[:2], pattern.offsets[:2]), two)
        out = tmp_path / "env.csv"
        rc = run("envelope", "--net", dendrite_file, "--pattern", two, "--test", "FGJ",
                 "--model", "poisson", "--sims", "19", "--seed", "2", "--out", out)
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert {row["segment"] for row in rows if row["lower"] != "nan"} == {"F"}
        side = json.loads((tmp_path / "env.json").read_text())
        assert 0 < side["p_liberal"] <= side["p_conservative"] <= 1

    def test_rgrid_beyond_the_diameter_exits_2(self, tmp_path, dendrite_file, pattern_file, capsys):
        # radii past the diameter swamp the centred K: data, lower and upper all read -r
        out = tmp_path / "env.csv"
        rc = run("envelope", "--net", dendrite_file, "--pattern", pattern_file,
                 "--model", "poisson", "--sims", "19", "--rgrid", "0:1e300:5", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "diameter" in err
        assert not out.exists()

    def test_bad_alpha_exits_2_before_simulating(self, tmp_path, dendrite_file, pattern_file,
                                                 capsys, monkeypatch):
        calls, simulate = [], linnetcox.envelopes.simulate_poisson

        def counting(*args, **kw):
            calls.append(args)
            return simulate(*args, **kw)

        monkeypatch.setattr(linnetcox.envelopes, "simulate_poisson", counting)
        out = tmp_path / "env.csv"
        rc = run("envelope", "--net", dendrite_file, "--pattern", pattern_file,
                 "--model", "poisson", "--sims", "40", "--alpha", "2", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "alpha" in err
        assert calls == [] and not out.exists()


class TestSimstudy:
    def test_template_design_runs(self, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(
            json.dumps(
                [
                    {
                        "name": "run-1",
                        "network": {"template": "dendrite", "seed": 3, "side_target": 120.0},
                        "model": {
                            "rho_y_main": 0.8,
                            "rho_y_side": 1.2,
                            "sigma2": 5.0,
                            "beta": 0.1,
                        },
                        "methods": {"mce-g": {"r_max": 25.0}},
                    }
                ]
            )
        )
        out = tmp_path / "results.csv"
        assert run("simstudy", "--design", design, "--reps", "2", "--seed", "1", "--out", out) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["run", "replicate", "method", "sigma2_hat", "beta_hat", "converged"]
        assert len(rows) == 3
        assert {row[0] for row in rows[1:]} == {"run-1"}

    def test_network_file_reference_is_design_relative(self, tmp_path):
        net_file = _make(tmp_path, "study-net.json", "--knob", "side_target=120.0")
        design = tmp_path / "design.json"
        design.write_text(
            json.dumps(
                [
                    {
                        "name": "file-run",
                        "network": "study-net.json",
                        "model": {
                            "rho_y_main": 0.8,
                            "rho_y_side": 1.2,
                            "sigma2": 5.0,
                            "beta": 0.1,
                        },
                        "methods": {"mce-g": {"r_max": 25.0}},
                    }
                ]
            )
        )
        out = tmp_path / "results.csv"
        assert run("simstudy", "--design", design, "--reps", "1", "--seed", "2", "--out", out) == 0

    def test_design_errors(self, tmp_path, capsys):
        missing = run("simstudy", "--design", tmp_path / "nope.json", "--out", tmp_path / "r.csv")
        assert missing == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "a list"}))
        assert run("simstudy", "--design", bad, "--out", tmp_path / "r.csv") == 2
        entry = tmp_path / "entry.json"
        entry.write_text(json.dumps([{"name": "x"}]))  # missing keys
        assert run("simstudy", "--design", entry, "--out", tmp_path / "r.csv") == 2
        capsys.readouterr()

    def test_method_target_mismatch(self, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps([{
            "name": "run-1",
            "network": {"template": "dendrite", "seed": 3, "side_target": 120.0},
            "model": {"rho_y_main": 0.8, "rho_y_side": 1.2, "sigma2": 5.0, "beta": 0.1},
            "methods": {"mce-k": {"target": "g"}},
        }]))
        out = tmp_path / "r.csv"
        assert run("simstudy", "--design", design, "--reps", "1", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'mce-k'" in err and "target 'g'" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "entry, complaint",
        [
            ("x", "entry 0"),
            ({"methods": ["mce-g"]}, "entry 0"),
            ({"methods": {"mce-g": {"start": [1]}}}, "start"),
            ({"methods": {"cl2": {"start": [1]}}}, "start"),
            ({"methods": {"cl2": {"max_iter": "x"}}}, "max_iter"),
            ({"methods": {"cl2": {"max_iter": 0}}}, "max_iter"),
            ({"mode": "grid", "spacing": "x"}, "spacing"),
            ({"methods": {"cl2": {"weight": "smooth"}}}, "weight"),
            ({"methods": {"mce-k": {"bandwidth": 0.3}}}, "bandwidth"),
            ({"network": {"template": "random-tree", "length_range": [1, 2, 3]}}, "length_range"),
            ({"network": {"template": "dendrite", "side_length_range": [1]}}, "side_length_range"),
            ({"spacing": True}, "spacing"),
            ({"methods": {"mce-g": {"start": [True, 0.5]}}}, "start"),
            ({"model": {"rho_y_main": 0.8, "rho_y_side": 1.2, "sigma2": True, "beta": 0.1}}, "sigma2"),
            ({"model": {"rho_y_main": 0.8, "rho_y_side": 1.2, "sigma2": 5.0, "beta": 0.1, "k": True}},
             "k must"),
        ],
        ids=["entry-not-object", "methods-list", "mce-start", "cl2-start", "max-iter-text",
             "max-iter-zero", "grid-spacing-text", "cl2-weight", "mce-k-bandwidth",
             "length-range-three", "side-length-range-one", "spacing-true", "mce-start-true",
             "sigma2-true", "k-true"],
    )
    def test_malformed_design_exits_2(self, tmp_path, capsys, entry, complaint):
        if isinstance(entry, dict):
            entry = {
                "name": "run-1",
                "network": {"template": "dendrite", "seed": 3, "side_target": 120.0},
                "model": {"rho_y_main": 0.8, "rho_y_side": 1.2, "sigma2": 5.0, "beta": 0.1},
                **entry,
            }
        design = tmp_path / "design.json"
        design.write_text(json.dumps([entry]))
        out = tmp_path / "r.csv"
        assert run("simstudy", "--design", design, "--reps", "1", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and complaint in err
        assert not out.exists()


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "body, line",
        [("edge,offset\n0,1.0\n3\n", 3), ("edge,offset\n3,abc\n", 2)],
        ids=["short-row", "non-numeric"],
    )
    def test_bad_pattern_row(self, tmp_path, dendrite_file, capsys, body, line):
        pat = tmp_path / "bad.csv"
        pat.write_text(body)
        rc = run("summaries", "--net", dendrite_file, "--pattern", pat,
                 "--out", tmp_path / "x.csv")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"bad.csv, line {line}" in err

    @pytest.mark.parametrize(
        "load", [load_network, load_pattern, load_curves, load_fit],
        ids=["network", "pattern", "curves", "fit"],
    )
    def test_undecodable_file_is_named(self, tmp_path, load):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"edge,offset\n0,1.0\xff\n")
        args = (path,) if load in (load_network, load_curves, load_fit) else (path, None)
        with pytest.raises(ValidationError, match="binary.txt cannot be decoded"):
            load(*args)

    def test_bad_network_json(self, tmp_path, pattern_file, capsys):
        net = tmp_path / "bad.json"
        net.write_text("{bad")
        rc = run("summaries", "--net", net, "--pattern", pattern_file,
                 "--out", tmp_path / "x.csv")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.json" in err and "line 1" in err

    def test_non_numeric_edge_length(self, tmp_path, dendrite_file, pattern_file, capsys):
        doc = json.loads(dendrite_file.read_text())
        doc["edges"][0]["length"] = "abc"
        net = tmp_path / "bad.json"
        net.write_text(json.dumps(doc))
        rc = run("summaries", "--net", net, "--pattern", pattern_file,
                 "--out", tmp_path / "x.csv")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "malformed network document" in err and "abc" in err

    @pytest.mark.parametrize("field", [("vertices", "id"), ("edges", "id"), ("edges", "end")])
    @pytest.mark.parametrize("value", [[1], {"a": 1}], ids=["list", "object"])
    def test_unhashable_id(self, tmp_path, dendrite_file, pattern_file, capsys, field, value):
        doc = json.loads(dendrite_file.read_text())
        doc[field[0]][0][field[1]] = value
        net = tmp_path / "bad.json"
        net.write_text(json.dumps(doc))
        rc = run("summaries", "--net", net, "--pattern", pattern_file,
                 "--out", tmp_path / "x.csv")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "hashable" in err

    def test_bad_fit_json(self, tmp_path, dendrite_file, pattern_file, capsys):
        fit = tmp_path / "fit.json"
        fit.write_text("{bad")
        rc = run("envelope", "--net", dendrite_file, "--pattern", pattern_file,
                 "--model", fit, "--sims", "3", "--out", tmp_path / "env.csv")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fit.json" in err and "line 1" in err

    @pytest.mark.parametrize("key, value", [("k", 1.5), ("k", True), ("sigma2", True),
                                            ("rho_y_main", False), ("converged", 1)],
                             ids=["k-fraction", "k-true", "sigma2-true", "rho-false", "converged-one"])
    def test_fit_field_of_another_type(self, tmp_path, dendrite_file, pattern_file, capsys, key, value):
        # int() and float() would read each as 0 or 1, a model that the file does not state
        fit = tmp_path / "fit.json"
        save_fit(FitResult.from_observed(IntensityModel(0.3, 0.6), 5.0, 0.1, 1, 1.0, True, "mce-g"), fit)
        fit.write_text(json.dumps({**json.loads(fit.read_text()), key: value}))
        out = tmp_path / "env.csv"
        rc = run("envelope", "--net", dendrite_file, "--pattern", pattern_file, "--model", fit,
                 "--sims", "3", "--rgrid", "0:15:24", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"'{key}'" in err
        assert not out.exists()

    def test_unreadable_inputs(self, tmp_path, dendrite_file, pattern_file, capsys):
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"edge,offset\n0,1.0\xff\n")
        binary_net = tmp_path / "binary.json"
        binary_net.write_bytes(b'{"vertices": [], "edges": []\xff}')
        not_a_dir = tmp_path / "plain"
        not_a_dir.write_text("")
        for net, pattern, named in [
            (tmp_path, pattern_file, None),  # a directory
            (dendrite_file, binary, binary),  # not UTF-8
            (binary_net, pattern_file, binary_net),
            (dendrite_file, not_a_dir / "p.csv", None),  # a path through a file
        ]:
            out = tmp_path / "x.csv"
            rc = run("summaries", "--net", net, "--pattern", pattern, "--out", out)
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert named is None or str(named) in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "row", ["K,0.0,1.0", "K,0.0,abc,1"], ids=["short-row", "non-numeric"]
    )
    def test_bad_curve_row(self, tmp_path, row):
        curves = tmp_path / "curves.csv"
        curves.write_text(f"kind,r,value,defined\nK,0.0,0.0,1\n{row}\n")
        with pytest.raises(ValidationError, match="curves.csv, line 3"):
            load_curves(curves)


class TestHarness:
    def test_missing_network_exits_2_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "never"
        rc = run(
            "simulate-poisson", "--net", tmp_path / "ghost.json",
            "--rho-m", "0.5", "--out", out,
        )
        assert rc == 2
        assert "ghost.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["make-network", "simulate-poisson", "simulate-cox",
                                         "envelope", "simstudy"])
    def test_negative_seed_exits_2_without_outputs(self, tmp_path, dendrite_file, pattern_file,
                                                   capsys, command):
        design = tmp_path / "design.json"
        design.write_text(json.dumps([{
            "name": "run", "network": {"template": "dendrite", "seed": 3, "side_target": 120.0},
            "model": {"rho_y_main": 0.8, "rho_y_side": 1.2, "sigma2": 5.0, "beta": 0.1}}]))
        out = tmp_path / "out"
        flags = {
            "make-network": ["--template", "dendrite"],
            "simulate-poisson": ["--net", dendrite_file, "--rho-m", "0.5"],
            "simulate-cox": ["--net", dendrite_file, "--rho-ym", "0.8", "--sigma2", "5", "--beta", "0.1"],
            "envelope": ["--net", dendrite_file, "--pattern", pattern_file, "--model", "poisson",
                         "--sims", "9"],
            "simstudy": ["--design", design, "--reps", "2"],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(command, *flags, "--seed", "-1", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be None or a nonnegative integer, got -1\n"
        assert sorted(tmp_path.rglob("*")) == before  # nothing written

    @pytest.mark.parametrize("flags", [
        ["summaries", "--which", "F", "--spacing", "1e-12"],
        ["kernel-intensity", "--bandwidth", "5", "--spacing", "1e-12"],
        ["simulate-cox", "--rho-ym", "1e12", "--sigma2", "5", "--beta", "0.1"],
    ], ids=["lattice", "kernel-grid", "driving-points"])
    def test_input_too_large_for_memory_exits_2(self, tmp_path, dendrite_file, pattern_file,
                                                capsys, flags):
        # each asks numpy for petabytes, which it refuses before touching memory
        pat = [] if flags[0] == "simulate-cox" else ["--pattern", pattern_file]
        rc = run(*flags, "--net", dendrite_file, *pat, "--out", tmp_path / "x")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "allocate" in err

    @pytest.mark.parametrize("command", ["summaries", "simulate-poisson"])
    def test_overflowing_network_exits_2(self, tmp_path, pattern_file, capsys, command):
        # two edges of 1e308: each length is finite, the total is not
        net = tmp_path / "huge.json"
        net.write_text(json.dumps({
            "vertices": [{"id": v} for v in range(3)],
            "edges": [{"id": i, "start": i, "end": i + 1, "length": 1e308} for i in range(2)]}))
        flags = {"summaries": ["--pattern", pattern_file],
                 "simulate-poisson": ["--rho-m", "1e-300"]}[command]
        out = tmp_path / "out"
        assert run(command, "--net", net, *flags, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "error: the network's total edge length overflows a float\n"
        assert not out.exists()

    def test_unwritable_output_names_the_target(self, tmp_path, dendrite_file, pattern_file,
                                                capsys):
        out = tmp_path / "missing" / "f.json"
        assert run("fit", "--net", dendrite_file, "--pattern", pattern_file, "--ru", "30",
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err and ".tmp" not in err

    @pytest.mark.parametrize("kind", ["pattern", "curves", "envelope", "study", "intensity",
                                      "pi"])
    def test_every_csv_table_ends_rows_in_crlf(self, tmp_path, dendrite_file, pattern_file,
                                               kind):
        design = tmp_path / "design.json"
        design.write_text(json.dumps([{
            "name": "run", "network": {"template": "dendrite", "seed": 3, "side_target": 120.0},
            "model": {"rho_y_main": 0.8, "rho_y_side": 1.2, "sigma2": 5.0, "beta": 0.1},
            "methods": {"mce-g": {"r_max": 25.0}}}]))
        common = ["--net", dendrite_file, "--pattern", pattern_file, "--out", tmp_path / "t.csv"]
        cox = ["simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8", "--sigma2", "5",
               "--beta", "0.1", "--out", tmp_path / "sim"]
        argv, out = {
            "pattern": (cox, tmp_path / "sim" / "pattern_0000.csv"),
            "curves": (["summaries", "--which", "K,g,F,G,J", "--rgrid", "0:30:31", *common], None),
            "envelope": (["envelope", "--model", "poisson", "--sims", "19", *common], None),
            "study": (["simstudy", "--design", design, "--reps", "1", "--out", tmp_path / "t.csv"],
                      None),
            "intensity": (["kernel-intensity", "--bandwidth", "5", *common], None),
            "pi": ([*cox, "--mode", "grid", "--save-pi"], tmp_path / "sim" / "pi_0000.csv"),
        }[kind]
        assert run(*argv) == 0
        rows = (out or tmp_path / "t.csv").read_bytes().split(b"\n")
        assert len(rows) > 2 and rows[-1] == b""
        assert all(row.endswith(b"\r") for row in rows[:-1])

    def test_bad_flag_choice_raises_system_exit(self, tmp_path):
        with pytest.raises(SystemExit):
            run("simulate-cox", "--net", "x.json", "--rho-ym", "1",
                "--sigma2", "1", "--beta", "1", "--mode", "warp", "--out", tmp_path / "x")

    @pytest.mark.parametrize(
        "name, value",
        [("LINNETCOX_METHOD", "mce_g"), ("LINNETCOX_SIMS", "abc"), ("LINNETCOX_SEED", "1.5")],
    )
    def test_bad_env_value_exits_2(self, tmp_path, dendrite_file, pattern_file, monkeypatch,
                                   capsys, name, value):
        monkeypatch.setenv(name, value)
        out = tmp_path / "fit.json"
        rc = run("fit", "--net", dendrite_file, "--pattern", pattern_file, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err
        assert not out.exists()

    def test_removed_monte_carlo_flags(self, tmp_path, dendrite_file, pattern_file):
        for flag in ("--samples", "--mc-seed", "--search", "--weight", "--epsilon"):
            with pytest.raises(SystemExit) as exc:
                run("fit", "--net", dendrite_file, "--pattern", pattern_file,
                    "--method", "cl2", flag, "5", "--out", tmp_path / "fit.json")
            assert exc.value.code == 2

    def test_env_var_supplies_append_flag(self, tmp_path, monkeypatch):
        def network(name, *knobs):
            out = tmp_path / name
            argv = ["make-network", "--template", "dendrite", "--out", out]
            assert run(*argv, *(a for k in knobs for a in ("--knob", k))) == 0
            return out.read_bytes()

        flag_120 = network("flag120.json", "side_target=120")
        flag_100 = network("flag100.json", "side_target=100")
        assert flag_120 != flag_100
        monkeypatch.setenv("LINNETCOX_KNOB", "side_target=120")
        assert network("env.json") == flag_120
        # a command-line value replaces the environment's, as for scalar flags
        assert network("both.json", "side_target=100") == flag_100

    def test_env_var_supplies_seed(self, tmp_path, dendrite_file, monkeypatch):
        flagged = tmp_path / "flag"
        run("simulate-poisson", "--net", dendrite_file, "--rho-m", "0.5",
            "--seed", "99", "--out", flagged)
        monkeypatch.setenv("LINNETCOX_SEED", "99")
        env_out = tmp_path / "env"
        run("simulate-poisson", "--net", dendrite_file, "--rho-m", "0.5", "--out", env_out)
        assert (flagged / "pattern_0000.csv").read_bytes() == (
            env_out / "pattern_0000.csv"
        ).read_bytes()

    def test_manifest_env_reproduces_outputs(self, tmp_path, monkeypatch):
        # the seed, a global flag, an append flag and a store-true flag, all from the environment
        env = {"LINNETCOX_SEED": "7", "LINNETCOX_THREADS": "2",
               "LINNETCOX_KNOB": "side_target=120", "LINNETCOX_SAVE_PI": "1"}
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir(), second.mkdir()
        assert run("make-network", "--template", "dendrite", "--out", first / "net.json") == 0
        assert run("simulate-cox", "--net", first / "net.json", "--rho-ym", "0.8", "--sigma2", "5",
                   "--beta", "0.1", "--mode", "grid", "--reps", "2", "--out", first / "sim") == 0
        docs = [json.loads(p.read_text()) for p in (first / "net.manifest.json",
                                                     first / "sim" / "manifest.json")]
        shared = {k: env[k] for k in ("LINNETCOX_SEED", "LINNETCOX_THREADS")}
        assert docs[0]["env"] == {**shared, "LINNETCOX_KNOB": "side_target=120"}
        assert docs[1]["env"] == {**shared, "LINNETCOX_SAVE_PI": "1"}
        for name in env:
            monkeypatch.delenv(name)
        for doc in docs:
            with monkeypatch.context() as m:
                for name, value in doc["env"].items():
                    m.setenv(name, value)
                assert main([a.replace(str(first), str(second)) for a in doc["argv"]]) == 0
        outputs = ["net.json", *(f"sim/{kind}_{rep:04d}.csv" for kind in ("pattern", "pi")
                                 for rep in range(2))]
        for name in outputs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # without such variables the manifest has no env key
        assert run("make-network", "--template", "dendrite", "--out", second / "bare.json") == 0
        assert "env" not in json.loads((second / "bare.manifest.json").read_text())

    def test_manifest_rerun_reproduces_outputs(self, tmp_path, dendrite_file):
        first = tmp_path / "first"
        rc = run(
            "simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8",
            "--sigma2", "5", "--beta", "0.1", "--reps", "2", "--seed", "13", "--out", first,
        )
        assert rc == 0
        argv = json.loads((first / "manifest.json").read_text())["argv"]
        second = tmp_path / "second"
        rerun = [str(second) if a == str(first) else a for a in argv]
        assert main(rerun) == 0
        for name in ("pattern_0000.csv", "pattern_0001.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def _fresh_scipy_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the scipy modules it loaded."""
    src = str(Path(linnetcox.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = code + "\nimport json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('scipy')]))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestScipyStaysUnloaded:
    """Every step, ``kernel-intensity`` included, starts and runs without paying for
    scipy's import: the fits' searches are the package's own (``_optimize``) and the
    kernel intensity's implicit steps are solved by elimination on the tree."""

    def test_import(self):
        assert _fresh_scipy_modules("import linnetcox") == []

    @pytest.mark.parametrize("step", ["make-network", "simulate-cox", "summaries", "envelope-K",
                                      "envelope-FGJ", "fit-mce-g", "fit-mce-k", "fit-cl2",
                                      "simstudy", "kernel-intensity"])
    def test_cli_step(self, tmp_path, dendrite_file, pattern_file, step):
        fit_file = tmp_path / "fit.json"
        assert run("fit", "--net", dendrite_file, "--pattern", pattern_file, "--method", "mce-g",
                   "--ru", "30", "--out", fit_file) == 0
        design = tmp_path / "design.json"
        design.write_text(json.dumps([{
            "name": "run-1", "network": {"template": "dendrite", "seed": 4, "side_target": 650.0},
            "model": {"rho_y_main": 0.8, "rho_y_side": 1.2, "sigma2": 5.0, "beta": 0.1},
            "methods": {"mce-g": {"r_max": 30.0}, "mce-k": {"r_max": 30.0}, "cl2": None},
        }]))
        common = ["--net", dendrite_file, "--pattern", pattern_file, "--out", tmp_path / "out.csv"]
        fit = ["fit", "--net", dendrite_file, "--pattern", pattern_file,
               "--out", tmp_path / "fit_out.json"]
        argv = {
            "make-network": ["make-network", "--template", "dendrite", "--seed", "7",
                             "--out", tmp_path / "net.json"],
            "simulate-cox": ["simulate-cox", "--net", dendrite_file, "--rho-ym", "0.8",
                             "--sigma2", "5", "--beta", "0.1", "--reps", "2", "--seed", "3",
                             "--out", tmp_path / "sim"],
            "summaries": ["summaries", "--which", "K,g,F,G,J", "--rgrid", "0:30:31", *common],
            "envelope-K": ["envelope", "--test", "K", "--model", fit_file, "--sims", "3",
                           "--seed", "5", *common],
            "envelope-FGJ": ["envelope", "--test", "FGJ", "--model", fit_file, "--sims", "3",
                             "--seed", "5", *common],
            "fit-mce-g": [*fit, "--method", "mce-g", "--ru", "30"],
            "fit-mce-k": [*fit, "--method", "mce-k", "--ru", "30"],
            "fit-cl2": [*fit, "--method", "cl2"],
            "simstudy": ["simstudy", "--design", design, "--reps", "2", "--seed", "1",
                         "--out", tmp_path / "study.csv"],
            "kernel-intensity": ["kernel-intensity", "--bandwidth", "5", *common],
        }[step]
        code = f"from linnetcox.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"
        assert _fresh_scipy_modules(code) == []
