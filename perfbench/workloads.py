"""The two workloads: their inputs, rounds, output checks and metrics.

Every workload first builds its inputs SETUP_REPEATS times in a fresh
interpreter (``inputs.py``) and reports the median as ``setup_s``. It then
runs whole rounds of the same operations until ``seconds`` have passed,
checks every output against ``oracle.py`` or a property the method must
have, and reports the median round. A traced run (``trace``) runs one
untraced round and one traced round instead and reports the per-layer
metrics of ``spans.py``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable

# Thinned-Cox models as (rho_y_main, rho_y_side, sigma2, beta).
README_MODEL = (0.8, 1.2, 5.0, 0.1)
SCALE_MODEL_5X = (4.0, 6.0, 5.0, 0.1)
SCALE_MODEL_20X = (16.0, 24.0, 5.0, 0.1)

SETUP_REPEATS = 3
ENVELOPE_K_SIMS = 99
ENVELOPE_FGJ_SIMS = 49
ALPHA = 0.05                 # the envelope command's default level
STUDY_REPS = 12
DENSE_POINTS = 900
EXACT_CALLS = 3
TREE_PATTERNS = 6
TREE_INTENSITY = 0.5
R_G = np.linspace(0.0, 30.0, 121)
R_TREE = np.linspace(1.0, 25.0, 25)
SAMPLED_PAIRS = 200

# Names as they appear in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
STEP_METRICS = (
    "readme_s", "fit_mce_g_s", "fit_cl2_s", "summaries_s", "envelope_k_sims_per_s",
    "envelope_fgj_sims_per_s", "study_reps_per_s", "dense_simulate_exact_s",
    "dense_simulate_grid_s", "dense_k_s", "dense_g_s", "dense_fgj_s", "tree_k_s",
)
LAYER_SPANS = (
    "cli.main", "io", "templates.make_network", "network.distances", "network.sphere_counts",
    "simulate.poisson", "simulate.grf", "simulate.grid_assign", "simulate.cox",
    "summaries.pairs", "summaries.k", "summaries.g", "summaries.fgj", "estimation.contrast",
    "estimation.cl2_setup", "estimation.cl2_score", "estimation.cl2_search",
    "estimation.study", "envelopes.simulate", "envelopes.curve", "envelopes.rank",
    "envelopes.pipeline",
)
SPAN_METRIC = {"io": "io.s", "simulate.cox": "simulate.thin_s"}
INCLUSIVE_SPANS = ("envelopes.simulate", "envelopes.curve")   # reported with their children
COUNTERS = (
    "io.bytes", "network.distances.entries", "network.sphere_counts.evals",
    "simulate.driving_points", "simulate.retained_points", "simulate.grf.sites",
    "summaries.pairs.count", "summaries.g.kernel_evals", "summaries.fgj.rows",
    "estimation.contrast.evals", "estimation.cl2_score.calls", "estimation.study.fits",
    "estimation.study.failed",
)
TRACE_METRICS = (
    "trace.untraced_s", "trace.traced_s", "trace.overhead_s", "trace.accounted_s",
    "trace.unattributed_s",
)
PER_LAYER = (
    ("cli.import_s",) + tuple(SPAN_METRIC.get(s, s + "_s") for s in LAYER_SPANS)
    + COUNTERS + STEP_METRICS + TRACE_METRICS
)


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "io.s":
        return "s"
    return "B" if name == "io.bytes" else "count"


def design() -> list:
    """The simulation-study design of acceptance criterion 07."""
    rho_m, rho_s, sigma2, beta = README_MODEL
    return [{
        "name": "criterion-07",
        "network": {"template": "dendrite", "seed": 4, "side_target": 650.0},
        "model": {"rho_y_main": rho_m, "rho_y_side": rho_s, "sigma2": sigma2, "beta": beta},
        "methods": {"mce-g": {"r_max": 30.0}, "mce-k": {"r_max": 30.0}},
    }]


def layer_metrics(tracer, untraced_s: float, traced_s: float, import_s: float = 0.0,
                  processes: int = 0) -> dict:
    """Per-layer self times and counters of one traced round.

    ``traced_s`` is the traced round's time for the same calls that make
    up ``untraced_s``; ``processes`` interpreter starts, each paying
    ``import_s``, are added where the traced round ran in-process.
    """
    own = tracer.self_times()
    total = tracer.total_times()
    out = {}
    for span in LAYER_SPANS:
        out[SPAN_METRIC.get(span, span + "_s")] = (
            total.get(span, 0.0) if span in INCLUSIVE_SPANS else own.get(span, 0.0))
    for key in COUNTERS:
        out[key] = tracer.counts.get(key, 0)
    paid = processes * import_s
    out["trace.untraced_s"] = untraced_s
    out["trace.traced_s"] = traced_s + paid
    out["trace.overhead_s"] = traced_s + paid - untraced_s
    out["trace.accounted_s"] = sum(own.get(s, 0.0) for s in LAYER_SPANS) + paid
    out["trace.unattributed_s"] = sum(v for s, v in own.items() if s not in LAYER_SPANS)
    return out


# -- processes ---------------------------------------------------------------------


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run a program process to its end: exit code, wall seconds, peak RSS in MB."""
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=program_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


class Run:
    """Operation and check accounting of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.inputs = work / "inputs"
        self.log = work / "program.log"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known: set[str] = set()
        self._oracle: dict = {}

    def oracle(self, key, make):
        """An oracle result computed once per run and compared every round."""
        if key not in self._oracle:
            self._oracle[key] = make()
        return self._oracle[key]

    def op(self, what: str, rc: int, faults: list[str], known: str | None = None) -> None:
        """Count one operation; it fails on a nonzero exit or a failed check.

        ``known`` names a fault of the program that makes this operation
        fail every time; such a failure is counted but is not a wrong
        result of the benchmark.
        """
        self.attempted += 1
        if rc != 0:
            faults = [f"exit {rc}"] + faults
        if faults:
            self.failed += 1
            message = f"{what}: {'; '.join(faults)}"
            if known is None:
                self.problems.append(message)
            else:
                self.known.add(f"{known}: {message}")

    def log_tail(self, lines: int = 20) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])

    def setup(self) -> float:
        """Build the inputs; the median build time (one build when traced)."""
        self.inputs.mkdir(parents=True, exist_ok=True)
        times = []
        for _ in range(1 if self.trace else SETUP_REPEATS):
            rc, seconds, _ = run_process(
                [PY, HERE / "inputs.py", self.workload, self.seed, self.inputs], ROOT, self.log)
            if rc != 0:
                raise RuntimeError(f"building the inputs failed (exit {rc}):\n{self.log_tail()}")
            times.append(seconds)
        return statistics.median(times)

    def round_seed(self, index: int) -> int:
        return int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def import_seconds(self) -> float:
        """Fresh-interpreter ``import linnetcox``, the price of every CLI call."""
        return statistics.median(
            run_process([PY, "-c", "import linnetcox"], ROOT, self.log)[1]
            for _ in range(SETUP_REPEATS))

    def result(self, metrics: dict) -> dict:
        for line in sorted(self.known):
            print(f"known fault, counted as failed: {line}", file=sys.stderr)
        for line in self.problems:
            print(f"check failed: {line}", file=sys.stderr)
        if self.problems:
            print(f"program output, last lines:\n{self.log_tail()}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        }


def cli_argv(*args) -> list[str]:
    return ["--threads", "1", *[str(a) for a in args]]


def run_cli(run: Run, argv, traced=None) -> tuple[int, float, float]:
    """One CLI call: a fresh ``python -m linnetcox`` process, or, when
    ``traced`` holds a tracer, ``linnetcox.cli.main`` in this process."""
    if traced is None:
        return run_process([PY, "-m", "linnetcox", *argv], run.work, run.log)
    from linnetcox import cli

    t0 = time.perf_counter()
    rc = traced.call("cli.main", cli.main, list(argv))
    return rc, time.perf_counter() - t0, 0.0


def traced_round(run: Run, untraced: dict, import_s: float):
    """Repeat readme round 0 in-process under a tracer: its layer metrics and
    round. Each CLI call of the untraced round started one interpreter."""
    from spans import Tracer, instrument

    tracer = Tracer()
    instrument(tracer)
    root = tracer.open("round")
    try:
        times = readme_round(run, 1, tracer)
    finally:
        tracer.close(root)
        tracer.restore()
    layers = layer_metrics(tracer, sum(untraced["steps"].values()), sum(times["steps"].values()),
                           import_s, len(untraced["steps"]))
    return layers, times


def traced_result(run: Run, layers: dict, steps: dict, import_s: float) -> dict:
    """The per-layer metrics; step figures of other workloads read 0."""
    values = {**layers, **{k: steps.get(k, 0.0) for k in STEP_METRICS}, "cli.import_s": import_s}
    return run.result({k: values[k] for k in PER_LAYER})


def untraced_result(run: Run, setup_s: float, round_s: list[float], rss_mb: float,
                    steps: list[dict]) -> dict:
    """The end-to-end metrics; the median step figures go to the lines before."""
    for name in steps[0]:
        value = statistics.median(r[name] for r in steps)
        print(f"  {name:28s} {value:12.4f} {unit(name)}")
    return run.result({"setup_s": setup_s, "round_s": statistics.median(round_s),
                       "peak_rss_mb": rss_mb})


# -- output checks -------------------------------------------------------------------


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def close(a, b, rtol=1e-9, atol=1e-12) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True))


def fit_faults(net: oracle.Net, eidx, path: Path, cl2: bool) -> list[str]:
    doc = json.loads(path.read_text())
    on_side = net.side[eidx]
    rho_main = (~on_side).sum() / net.main_length
    rho_side = on_side.sum() / net.side_length
    scale = (1.0 + doc["sigma2"]) ** (doc["k"] / 2.0)
    faults = []
    if not (math.isclose(doc["rho_main"], rho_main, rel_tol=1e-12)
            and math.isclose(doc["rho_side"], rho_side, rel_tol=1e-12)):
        faults.append("rho-hat is not branch count over branch length")
    if not (math.isclose(doc["rho_y_main"], scale * doc["rho_main"], rel_tol=1e-12)
            and math.isclose(doc["rho_y_side"], scale * doc["rho_side"], rel_tol=1e-12)):
        faults.append("rho_Y is not (1 + sigma2)^(k/2) rho-hat")
    if not (doc["sigma2"] > 0 and doc["beta"] > 0 and math.isfinite(doc["sigma2"] * doc["beta"])):
        faults.append("estimates are not positive and finite")
    if cl2 and not (doc["sigma2"] >= 0.5 and doc["beta"] <= 5.0):
        faults.append(f"estimate on the sigma2 -> 0 root (sigma2 {doc['sigma2']:.3g}, "
                      f"beta {doc['beta']:.3g}, converged {doc['converged']})")
    return faults


def curve_faults(curves: dict, k_oracle=None) -> list[str]:
    """Properties of summary curves given as ``{kind: (r, values, defined)}``."""
    faults = []
    if "K" in curves:
        r, k, _ = curves["K"]
        if k_oracle is not None and not close(k, k_oracle(r)):
            gap = np.nanmax(np.abs(k - k_oracle(r)))
            faults.append(f"K differs from the oracle by up to {gap:.3g}")
        if not (np.diff(k) >= 0).all():
            faults.append("K decreases")
    if "g" in curves:
        g = curves["g"][1]
        if not (np.isfinite(g).all() and (g >= 0).all()):
            faults.append("g is negative or not finite")
    for kind in ("F", "G"):
        if kind in curves:
            v = curves[kind][1][curves[kind][2]]
            if not ((v >= 0) & (v <= 1)).all():
                faults.append(f"{kind} leaves [0, 1]")
    if {"F", "G", "J"} <= curves.keys():
        (_, f, fd), (_, g, gd), (_, j, jd) = curves["F"], curves["G"], curves["J"]
        if not (jd <= (fd & gd)).all() or not close(j[jd], (1 - g[jd]) / (1 - f[jd]), rtol=1e-12):
            faults.append("J is not (1 - G) / (1 - F)")
    return faults


def read_curves(path: Path) -> dict:
    rows: dict[str, list] = {}
    for kind, r, v, d in read_csv(path):
        rows.setdefault(kind, []).append((float(r), float(v), d == "1"))
    return {k: tuple(np.array(col) for col in zip(*v)) for k, v in rows.items()}


def envelope_faults(path: Path, sims: int) -> list[str]:
    from linnetcox.io import sidecar_path

    side = json.loads(sidecar_path(path).read_text())
    lib, cons = side["p_liberal"], side["p_conservative"]
    faults = []
    if not lib <= cons:
        faults.append(f"p_liberal {lib} > p_conservative {cons}")
    for p in (lib, cons):
        if abs(p * (sims + 1) - round(p * (sims + 1))) > 1e-9:
            faults.append(f"p-value {p} is not a multiple of 1/{sims + 1}")
    if cons > ALPHA:
        rows = np.array([[float(x) for x in row[2:]] for row in read_csv(path)])
        data, lower, upper = rows.T
        cells = np.isfinite(lower) & np.isfinite(upper)
        if not ((lower[cells] <= data[cells]) & (data[cells] <= upper[cells])).all():
            faults.append(f"p_conservative {cons} > alpha but the data curve leaves the envelope")
    return faults


def distance_faults(json_path: Path, eidx, off, rng) -> list[str]:
    """linnetcox's distances of sampled point pairs against Dijkstra's."""
    from linnetcox import load_network, pairwise_distances

    net = oracle.Net.from_json(json_path)
    i = rng.integers(0, eidx.size, SAMPLED_PAIRS)
    j = rng.integers(0, eidx.size, SAMPLED_PAIRS)
    want = oracle.SplitGraph(net, eidx, off).distances(i)[np.arange(SAMPLED_PAIRS), j]
    got = np.diag(pairwise_distances(load_network(json_path), (eidx[i], off[i]), (eidx[j], off[j])))
    return [] if close(got, want, rtol=1e-12) else [f"pair distances of {json_path.name} differ"]


def study_faults(path: Path) -> list[str]:
    rows = read_csv(path)
    converged = [r for r in rows if r[5] == "1"]
    faults = []
    if len(rows) != 2 * STUDY_REPS:
        faults.append(f"{len(rows)} rows for {STUDY_REPS} replicates of two methods")
    if len(converged) < 0.9 * len(rows):
        faults.append(f"only {len(converged)} of {len(rows)} fits converged")
    est = np.array([[float(r[3]), float(r[4])] for r in converged if r[2] == "mce-g"])
    med = np.median(est, axis=0) if est.size else (math.nan, math.nan)
    if not (2.5 <= med[0] <= 10.0 and 0.05 <= med[1] <= 0.2):
        faults.append(f"mce-g medians sigma2 {med[0]:.3g}, beta {med[1]:.3g} "
                      "outside the criterion-07 bands")
    return faults


# -- readme ----------------------------------------------------------------------------


def readme_steps(run: Run, index: int) -> list[tuple[str, list[str]]]:
    w = run.work / f"round_{index}"
    net, pattern, fit = w / "net.json", w / "sim" / "pattern_0000.csv", w / "fit.json"
    rho_m, rho_s, sigma2, beta = README_MODEL
    seed = run.round_seed(0 if run.trace else index)
    return [
        ("make_network", cli_argv("make-network", "--template", "dendrite", "--seed", 7,
                                  "--out", net)),
        ("simulate", cli_argv("simulate-cox", "--net", net, "--rho-ym", rho_m, "--rho-ys", rho_s,
                              "--sigma2", sigma2, "--beta", beta, "--reps", 3, "--seed", 3,
                              "--out", w / "sim")),
        ("fit_mce_g", cli_argv("fit", "--net", net, "--pattern", pattern, "--method", "mce-g",
                               "--ru", 30, "--out", fit)),
        ("fit_cl2", cli_argv("fit", "--net", net, "--pattern", pattern, "--method", "cl2",
                             "--out", w / "fit_cl2.json")),
        ("summaries", cli_argv("summaries", "--net", net, "--pattern", pattern,
                               "--which", "K,g,F,G,J", "--rgrid", "0:30:121",
                               "--out", w / "curves.csv")),
        ("summaries_snapped", cli_argv("summaries", "--net", net,
                                       "--pattern", run.inputs / "snapped.csv", "--which", "K,g",
                                       "--rgrid", "0:30:121", "--out", w / "snapped_curves.csv")),
        ("envelope_k", cli_argv("envelope", "--net", net, "--pattern", pattern, "--model", fit,
                                "--test", "K", "--sims", ENVELOPE_K_SIMS, "--seed", seed,
                                "--out", w / "envelope_k.csv")),
        ("envelope_fgj", cli_argv("envelope", "--net", net, "--pattern", pattern, "--model", fit,
                                  "--test", "FGJ", "--sims", ENVELOPE_FGJ_SIMS, "--seed", seed,
                                  "--out", w / "envelope_fgj.csv")),
        ("simstudy", cli_argv("simstudy", "--design", run.inputs / "design.json",
                              "--reps", STUDY_REPS, "--seed", seed, "--out", w / "study.csv")),
    ]


def readme_round(run: Run, index: int, tracer=None) -> dict:
    (run.work / f"round_{index}").mkdir(parents=True, exist_ok=True)
    steps, rcs, rss = {}, {}, 0.0
    for name, argv in readme_steps(run, index):
        rcs[name], steps[name], peak = run_cli(run, argv, tracer)
        rss = max(rss, peak)
    return {"steps": steps, "rc": rcs, "rss_mb": rss}


def readme_check(run: Run, index: int, result: dict) -> None:
    w = run.work / f"round_{index}"
    rc_of = result["rc"].get
    net = oracle.Net.from_json(run.inputs / "net.json")
    eidx, off = net.read_pattern(run.inputs / "pattern.csv")
    snapped = net.read_pattern(run.inputs / "snapped.csv")

    def k_oracle(name, pts):
        return lambda r: run.oracle(name, lambda: oracle.k_function(net, *pts, r))

    same = lambda a, b: a.exists() and a.read_bytes() == b.read_bytes()
    run.op("make-network", rc_of("make_network"),
           [] if same(w / "net.json", run.inputs / "net.json")
           else ["network differs from setup's"])
    run.op("simulate-cox", rc_of("simulate"),
           [] if same(w / "sim" / "pattern_0000.csv", run.inputs / "pattern.csv")
           else ["pattern_0000 differs from the same seed's pattern in setup"])
    run.op("fit --method mce-g", rc_of("fit_mce_g"),
           fit_faults(net, eidx, w / "fit.json", cl2=False) if rc_of("fit_mce_g") == 0 else [])
    run.op("fit --method cl2", rc_of("fit_cl2"),
           fit_faults(net, eidx, w / "fit_cl2.json", cl2=True) if rc_of("fit_cl2") == 0 else [],
           known="F1")
    run.op("summaries K,g,F,G,J", rc_of("summaries"),
           curve_faults(read_curves(w / "curves.csv"), k_oracle("K", (eidx, off)))
           if rc_of("summaries") == 0 else [])
    snapped_out = w / "snapped_curves.csv"
    run.op("summaries K,g on the snapped pattern", rc_of("summaries_snapped"),
           curve_faults(read_curves(snapped_out), k_oracle("K snapped", snapped))
           if snapped_out.exists() else ["no curves written"], known="F2")
    for step, sims in (("envelope_k", ENVELOPE_K_SIMS), ("envelope_fgj", ENVELOPE_FGJ_SIMS)):
        run.op(f"envelope {step[9:].upper()}", rc_of(step),
               envelope_faults(w / f"{step}.csv", sims) if rc_of(step) == 0 else [])
    run.op("simstudy", rc_of("simstudy"),
           study_faults(w / "study.csv") if rc_of("simstudy") == 0 else [])
    if index == 0:
        rng = np.random.default_rng(run.seed)
        for pts in ((eidx, off), snapped):
            run.problems += distance_faults(run.inputs / "net.json", *pts, rng)


def readme_metrics(steps: dict) -> dict:
    return {
        "readme_s": sum(steps.values()),
        "fit_mce_g_s": steps["fit_mce_g"],
        "fit_cl2_s": steps["fit_cl2"],
        "summaries_s": steps["summaries"],
        "envelope_k_sims_per_s": ENVELOPE_K_SIMS / steps["envelope_k"],
        "envelope_fgj_sims_per_s": ENVELOPE_FGJ_SIMS / steps["envelope_fgj"],
        "study_reps_per_s": STUDY_REPS / steps["simstudy"],
    }


# -- scale ---------------------------------------------------------------------------------


def scale_worker(run: Run) -> tuple[list[dict], float, dict | None]:
    out = run.work / "scale"
    out.mkdir(parents=True, exist_ok=True)
    rc, _, rss = run_process([PY, HERE / "scale_calls.py", run.inputs, out, run.seed,
                              run.seconds, int(run.trace)], run.work, run.log)
    if rc != 0:
        raise RuntimeError(f"the scale calls failed (exit {rc}):\n{run.log_tail()}")
    rounds = json.loads((out / "times.json").read_text())
    traced = json.loads((out / "trace.json").read_text()) if run.trace else None
    return rounds, rss, traced


def scale_check(run: Run, index: int) -> None:
    got = np.load(run.work / "scale" / f"round_{index}.npz")
    net = oracle.Net.from_json(run.inputs / "net.json")
    tree = oracle.Net.from_json(run.inputs / "tree.json")
    for tag, model in [(f"exact{j}", SCALE_MODEL_5X) for j in range(EXACT_CALLS)] + [
            ("grid", SCALE_MODEL_20X)]:
        faults = []
        de, do = got[f"{tag}_driving"]
        re, ro = got[f"{tag}_retained"]
        pi = got[f"{tag}_retention"]
        mean = net.mean_count(model[0], model[1])
        if abs(de.size - mean) > 5 * math.sqrt(mean):
            faults.append(f"{de.size} driving points, more than 5 sd from the mean {mean:.0f}")
        if not set(zip(re, ro)) <= set(zip(de, do)):
            faults.append("a retained point is not a driving point")
        if not ((pi > 0) & (pi <= 1)).all():
            faults.append("a retention probability leaves (0, 1]")
        if tag == "grid":
            index_of = {site: i for i, site in enumerate(zip(*got["grid_sites"]))}
            nearest = oracle.nearest_sites(net, de.astype(np.intp), do, 1.0)
            want = got["grid_site_retention"][[index_of[(float(e), o)] for e, o in nearest]]
            if not np.array_equal(want, pi):
                faults.append("retention differs from the oracle's nearest lattice site's")
        run.op(f"simulate_cox {tag}", 0, faults)

    dense = net.read_pattern(run.inputs / "dense.csv")
    k_want = run.oracle("dense K", lambda: oracle.k_function(net, *dense, got["dense_k_r"]))
    run.op("k_estimate 5x", 0, curve_faults({"K": (got["dense_k_r"], got["dense_k"], None)},
                                            lambda r: k_want))
    run.op("g_estimate 5x", 0, curve_faults({"g": (R_G, got["dense_g"], None)}))
    fgj = {k: (got["fgj_r"], got[f"fgj_{k}"], np.isfinite(got[f"fgj_{k}"])) for k in "FGJ"}
    run.op("fgj_estimates 5x", 0, curve_faults(fgj))
    for i in range(TREE_PATTERNS):
        pts = tree.read_pattern(run.inputs / f"tree_{i}.csv")
        want = run.oracle(f"tree K {i}",
                           lambda: oracle.k_function(tree, *pts, R_TREE, rho=TREE_INTENSITY))
        run.op(f"k_estimate tree {i}", 0,
               curve_faults({"K": (R_TREE, got[f"tree_k{i}"], None)}, lambda r: want))
    if index == 0:
        run.problems += distance_faults(run.inputs / "net.json", *dense,
                                        np.random.default_rng(run.seed))


def scale_metrics(times: dict) -> dict:
    return {name: statistics.median(values) for name, values in times.items()}


def scale(run: Run) -> dict:
    setup_s = run.setup()
    rounds, rss, traced = scale_worker(run)
    for index in range(len(rounds)):
        scale_check(run, index)
    if run.trace:
        return traced_result(run, traced["layers"], scale_metrics(traced["steps"]),
                             run.import_seconds())
    return untraced_result(run, setup_s, [sum(map(sum, r.values())) for r in rounds], rss,
                           [scale_metrics(r) for r in rounds])


def readme(run: Run) -> dict:
    setup_s = run.setup()
    if run.trace:
        untraced = readme_round(run, 0, None)
        readme_check(run, 0, untraced)
        import_s = run.import_seconds()
        layers, traced = traced_round(run, untraced, import_s)
        readme_check(run, 1, traced)
        return traced_result(run, layers, readme_metrics(untraced["steps"]), import_s)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < run.seconds:
        rounds.append(readme_round(run, len(rounds), None))
        readme_check(run, len(rounds) - 1, rounds[-1])
    return untraced_result(run, setup_s, [sum(r["steps"].values()) for r in rounds],
                           max(r["rss_mb"] for r in rounds),
                           [readme_metrics(r["steps"]) for r in rounds])


WORKLOADS = {"readme": readme, "scale": scale}
