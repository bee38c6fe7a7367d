"""Build one workload's inputs in a fresh interpreter.

    python3 perfbench/inputs.py <readme|scale> <seed> <out_dir>

The benchmark times this whole process as ``setup_s``: starting Python,
importing linnetcox, building the networks and preparing the input
patterns. The same seed always writes the same files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import linnetcox as lc
from linnetcox.io import save_network, save_pattern

import oracle
from workloads import (
    DENSE_POINTS,
    README_MODEL,
    SCALE_MODEL_5X,
    TREE_INTENSITY,
    TREE_PATTERNS,
    design,
)


def readme(seed: int, out: Path) -> None:
    # The README's commands: dendrite seed 7, then simulate-cox --reps 3
    # --seed 3, whose first replicate is the pattern every step uses.
    net = lc.make_network("dendrite", seed=7)
    save_network(net, out / "net.json")
    first = lc.spawn_generators(3, 3)[0]
    pattern = lc.simulate_cox(net, lc.CoxModel(*README_MODEL), seed=first).pattern
    save_pattern(pattern, out / "pattern.csv")
    # The same pattern snapped to each edge's 1 um lattice: some points
    # now sit exactly on vertices.
    sites = oracle.nearest_sites(oracle.Net.from_json(out / "net.json"),
                                 pattern.edge_indices, pattern.offsets, 1.0)
    e, o = zip(*sites)
    save_pattern(lc.PointPattern.from_indices(net, np.array(e), np.array(o)), out / "snapped.csv")
    (out / "design.json").write_text(json.dumps(design(), indent=2) + "\n")


def scale(seed: int, out: Path) -> None:
    net = lc.make_network("dendrite", seed=7)
    save_network(net, out / "net.json")
    tree = lc.make_network("random-tree", seed=2, edges=200)
    save_network(tree, out / "tree.json")
    # A 5x pattern thinned at random to a fixed size, so that the n^2
    # terms cost the same on every seed; a draw with fewer points is
    # replaced by the next one of the stream.
    ss = np.random.SeedSequence([seed, 5])
    model = lc.CoxModel(*SCALE_MODEL_5X)
    while True:
        sample = lc.simulate_cox(net, model, seed=np.random.default_rng(ss.spawn(1)[0]))
        if sample.pattern.n >= DENSE_POINTS:
            break
    rng = np.random.default_rng(ss.spawn(1)[0])
    keep = np.sort(rng.choice(sample.pattern.n, DENSE_POINTS, replace=False))
    p = sample.pattern
    save_pattern(lc.PointPattern.from_indices(net, p.edge_indices[keep], p.offsets[keep]),
                 out / "dense.csv")
    for i, gen in enumerate(lc.spawn_generators(np.random.SeedSequence([seed, 6]), TREE_PATTERNS)):
        save_pattern(lc.simulate_poisson(tree, TREE_INTENSITY, seed=gen), out / f"tree_{i}.csv")


if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out.mkdir(parents=True, exist_ok=True)
    {"readme": readme, "scale": scale}[workload](seed, out)
