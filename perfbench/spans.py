"""Spans and counters around linnetcox's module-level names.

The tracer replaces a name in the module that calls it (``summaries``
imports ``_sphere_count_matrix`` by name, so that is the binding to wrap)
with a function that records a span: its name, start, end and the span
that was open when it began. Nothing in ``src/`` is edited; ``restore``
puts every original back. A span's self time is its duration minus the
time covered by its children, and self times are summed per span name.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def call(self, name, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, module, attr: str, name, after=None):
        """Replace ``module.attr`` by a spanned call.

        ``name`` is a span name, or a function of the tracer giving one
        (for a name whose layer depends on its caller). ``after(tracer,
        args, result)`` records counters once the call has returned.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = name(self) if callable(name) else name
            result = self.call(span, original, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))
        return traced

    def counter(self, module, attr: str, key: str, failed_key: str | None = None):
        """Replace ``module.attr`` by a call that only counts (no span)."""
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            self.counts[key] += 1
            if failed_key is None:
                return original(*args, **kwargs)
            try:
                return original(*args, **kwargs)
            except BaseException:
                self.counts[failed_key] += 1
                raise

        setattr(module, attr, counted)
        self._undo.append((module, attr, original))

    def replace(self, module, attr: str, value) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def total_times(self) -> dict[str, float]:
        """Inclusive time per span name, counting nested same-name spans once."""
        out: dict[str, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                out[name] += end - start
        return out


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p is not None and os.path.exists(p))


def instrument(tracer: Tracer) -> None:
    """Wrap every name the per-layer metrics are built from."""
    from linnetcox import cli, envelopes, estimation, simulate, summaries
    from linnetcox.io import sidecar_path

    t = tracer

    def io_after(path_arg):
        def after(tr, args, result):
            tr.count("io.bytes", _file_bytes(args[path_arg]))
        return after

    for attr, path_arg in (
        ("load_network", 0), ("load_pattern", 0), ("load_fit", 0), ("save_network", 1),
        ("save_pattern", 1), ("save_fit", 1), ("save_curves", 1), ("save_study", 1),
    ):
        t.wrap(cli, attr, "io", io_after(path_arg))
    t.wrap(cli, "save_envelope", "io",
           lambda tr, a, r: tr.count("io.bytes", _file_bytes(a[2], sidecar_path(a[2]))))
    t.wrap(cli, "write_manifest", "io", lambda tr, a, r: tr.count("io.bytes", _file_bytes(r)))
    t.wrap(cli, "make_network", "templates.make_network")

    # Distances: inside the GRF they factor the unique sites; called by
    # simulate_cox itself they assign driving points to lattice sites.
    def distances_after(tr, args, result):
        tr.count("network.distances.entries", result.size)

    def simulate_distances(tr):
        return "network.distances" if tr.current() == "simulate.grf" else "simulate.grid_assign"

    def simulate_distances_after(tr, args, result):
        if tr.current() == "simulate.grf":
            tr.count("network.distances.entries", result.size)
            tr.count("simulate.grf.sites", result.shape[0])

    t.wrap(simulate, "pairwise_distances", simulate_distances, simulate_distances_after)
    t.wrap(simulate, "_sorted_lattice_arrays", "simulate.grid_assign")
    for module in (summaries, estimation):
        t.wrap(module, "distance_matrix", "network.distances", distances_after)
    t.wrap(summaries, "pairwise_distances", "network.distances", distances_after)
    t.wrap(summaries, "_sphere_count_matrix", "network.sphere_counts",
           lambda tr, a, r: tr.count("network.sphere_counts.evals", r.size))

    t.wrap(simulate, "simulate_poisson", "simulate.poisson",
           lambda tr, a, r: tr.count("simulate.driving_points", r.n))
    t.wrap(simulate, "_grf_values", "simulate.grf")
    cox = t.wrap(simulate, "simulate_cox", "simulate.cox",
                 lambda tr, a, r: tr.count("simulate.retained_points", r.pattern.n))
    t.replace(cli, "simulate_cox", cox)
    t.replace(estimation, "simulate_cox", cox)
    t.replace(envelopes, "simulate_cox", lambda *a, **k: t.call("envelopes.simulate", cox, *a, **k))

    def pairs_after(tr, args, result):
        tr.count("summaries.pairs.count", result.distances.size)

    def g_after(tr, args, result):
        pairs, r, bandwidth = args[0], args[1], args[2]
        kept = int((pairs.distances <= r.max() + bandwidth).sum())
        tr.count("summaries.g.kernel_evals", kept * r.size)

    for module in (summaries, estimation):
        t.wrap(module, "second_order_pairs", "summaries.pairs", pairs_after)
        t.wrap(module, "k_from_pairs", "summaries.k")
        t.wrap(module, "g_from_pairs", "summaries.g", g_after)
    t.wrap(summaries, "lattice", "summaries.fgj",
           lambda tr, a, r: tr.count("summaries.fgj.rows", len(r)))
    k_est = t.wrap(summaries, "k_estimate", "summaries.k")
    g_est = t.wrap(summaries, "g_estimate", "summaries.g")
    fgj = t.wrap(summaries, "fgj_estimates", "summaries.fgj",
                 lambda tr, a, r: tr.count("summaries.fgj.rows", a[0].n))
    for attr, fn in (("k_estimate", k_est), ("g_estimate", g_est), ("fgj_estimates", fgj)):
        t.replace(cli, attr, fn)
    t.replace(envelopes, "k_estimate", lambda *a, **k: t.call("envelopes.curve", k_est, *a, **k))
    t.replace(envelopes, "fgj_estimates", lambda *a, **k: t.call("envelopes.curve", fgj, *a, **k))
    for attr in ("rank_envelope", "build_curve_set"):
        t.wrap(envelopes, attr, "envelopes.rank")
    t.wrap(cli, "envelope_pipeline", "envelopes.pipeline")

    t.wrap(estimation, "min_contrast", "estimation.contrast")
    t.wrap(estimation, "min_contrast_from_curve", "estimation.contrast")
    t.counter(estimation, "_theory_curve", "estimation.contrast.evals")
    t.counter(estimation, "_fit_one", "estimation.study.fits", "estimation.study.failed")
    t.wrap(cli, "simulation_study", "estimation.study")
    t.wrap(cli, "cl2_fit", "estimation.cl2_search")

    workspace = estimation._Cl2Workspace

    class TracedWorkspace(workspace):
        def __init__(self, *args, **kwargs):
            t.call("estimation.cl2_setup", super().__init__, *args, **kwargs)

        def score(self, *args, **kwargs):
            t.count("estimation.cl2_score.calls")
            return t.call("estimation.cl2_score", super().score, *args, **kwargs)

    t.replace(estimation, "_Cl2Workspace", TracedWorkspace)
