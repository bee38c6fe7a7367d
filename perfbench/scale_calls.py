"""The scale workload's library calls, run in a process of their own.

    python3 perfbench/scale_calls.py <inputs_dir> <out_dir> <seed> <seconds> <trace>

Each round times, in this order: ``simulate_cox`` in exact mode at 5x the
README driving intensity (EXACT_CALLS draws), ``simulate_cox`` in grid mode
at 20x, then ``k_estimate``, ``g_estimate`` (r <= 30) and ``fgj_estimates``
on the fixed-size 5x pattern, and ``k_estimate`` on each Poisson pattern of
the 200-edge tree. Rounds repeat until ``seconds`` have passed; with
``trace`` 1 there is one untraced round and one traced round of the same
draws. Outputs go
to ``round_<i>.npz``, times to ``times.json`` and, when traced, layer
times to ``trace.json``. Functions are looked up on their modules at call
time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from linnetcox import CoxModel, simulate, summaries
from linnetcox.io import load_network, load_pattern

from spans import Tracer, instrument
from workloads import (
    EXACT_CALLS,
    R_G,
    R_TREE,
    SCALE_MODEL_5X,
    SCALE_MODEL_20X,
    TREE_INTENSITY,
    TREE_PATTERNS,
    layer_metrics,
)


MODEL_5X = CoxModel(*SCALE_MODEL_5X)
MODEL_20X = CoxModel(*SCALE_MODEL_20X)


def one_round(inputs, seed: int, index: int, tracer: Tracer | None):
    net, dense, trees = inputs
    times: dict[str, list[float]] = {}
    out: dict[str, np.ndarray] = {}

    def timed(metric, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs) if tracer is None else tracer.call("op", fn, *args, **kwargs)
        times.setdefault(metric, []).append(time.perf_counter() - t0)
        return result

    def keep_sample(tag, sample):
        out[f"{tag}_driving"] = np.stack([sample.driving.edge_indices, sample.driving.offsets])
        out[f"{tag}_retained"] = np.stack([sample.pattern.edge_indices, sample.pattern.offsets])
        out[f"{tag}_retention"] = sample.retention
        if sample.sites is not None:
            out[f"{tag}_sites"] = np.stack([sample.sites.edge_indices, sample.sites.offsets])
            out[f"{tag}_site_retention"] = sample.site_retention

    gens = simulate.spawn_generators(np.random.SeedSequence([seed, index]), EXACT_CALLS + 1)
    for j in range(EXACT_CALLS):
        keep_sample(f"exact{j}", timed("dense_simulate_exact_s", lambda g: simulate.simulate_cox(
            net, MODEL_5X, seed=g), gens[j]))
    keep_sample("grid", timed("dense_simulate_grid_s", lambda g: simulate.simulate_cox(
        net, MODEL_20X, mode="grid", spacing=1.0, seed=g), gens[-1]))

    k = timed("dense_k_s", lambda: summaries.k_estimate(dense))
    out["dense_k_r"], out["dense_k"] = k.r, k.values
    out["dense_g"] = timed("dense_g_s", lambda: summaries.g_estimate(dense, r=R_G)).values
    fgj = timed("dense_fgj_s", lambda: summaries.fgj_estimates(dense))
    out["fgj_r"] = fgj.F.r
    for name in ("F", "G", "J"):
        curve = getattr(fgj, name)
        out[f"fgj_{name}"] = np.where(curve.defined, curve.values, np.nan)
    for i, pattern in enumerate(trees):
        out[f"tree_k{i}"] = timed("tree_k_s", lambda: summaries.k_estimate(
            pattern, TREE_INTENSITY, R_TREE)).values
    return times, out


def main(argv):
    in_dir, out_dir, seed, seconds, trace = (
        Path(argv[0]), Path(argv[1]), int(argv[2]), float(argv[3]), argv[4] == "1")
    net = load_network(in_dir / "net.json")
    tree = load_network(in_dir / "tree.json")
    inputs = (
        net,
        load_pattern(in_dir / "dense.csv", net),
        [load_pattern(in_dir / f"tree_{i}.csv", tree) for i in range(TREE_PATTERNS)],
    )
    rounds = []
    start = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - start < seconds):
        times, out = one_round(inputs, seed, len(rounds), None)
        np.savez(out_dir / f"round_{len(rounds)}.npz", **out)
        rounds.append(times)
    if trace:
        tracer = Tracer()
        instrument(tracer)
        root = tracer.open("round")
        # the traced round repeats round 0's draws, so the two rounds do
        # the same work
        times, out = one_round(inputs, seed, 0, tracer)
        tracer.close(root)
        tracer.restore()
        np.savez(out_dir / f"round_{len(rounds)}.npz", **out)
        untraced = sum(sum(v) for v in rounds[0].values())
        traced = sum(sum(v) for v in times.values())
        layers = layer_metrics(tracer, untraced, traced)
        (out_dir / "trace.json").write_text(json.dumps({"layers": layers, "steps": rounds[0]}))
        rounds.append(times)
    (out_dir / "times.json").write_text(json.dumps(rounds))


if __name__ == "__main__":
    main(sys.argv[1:])
