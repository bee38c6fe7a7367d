"""Global rank envelope tests for summary-curve goodness of fit.

A test compares the data's summary curve against curves from ``s``
simulations of the fitted model, all evaluated on one grid. Each of the
``s + 1`` curves gets an *extreme rank*: over the defined grid cells, the
minimum of its two one-sided depths (how many curves lie at or below it,
how many at or above it, self included — ties share ranks). A small
extreme rank means the curve is extreme somewhere.

Because of ties the data's rank yields an interval of p-values rather
than a single number: the liberal end counts only simulations strictly
more extreme; the conservative end counts every curve at least as
extreme. The acceptance region at level ``alpha`` — the envelope — is the
pointwise min/max of the curves whose rank reaches the critical rank, and
the data curve leaves the envelope somewhere iff the conservative p-value
is at most ``alpha``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .models import CoxModel, IntensityModel
from .network import LinearNetwork, PointPattern
from .simulate import simulate_cox, simulate_poisson, spawn_generators
from .summaries import (
    FgjConfig,
    SummaryCurve,
    default_r_grid,
    fgj_estimates,
    k_estimate,
)

__all__ = [
    "LabelledCurve",
    "CurveSet",
    "EnvelopeResult",
    "PipelineResult",
    "concat_test_function",
    "build_curve_set",
    "rank_envelope",
    "envelope_pipeline",
]


@dataclass
class LabelledCurve:
    """A (possibly concatenated) test function with per-cell labels."""

    r: np.ndarray
    values: np.ndarray
    defined: np.ndarray
    labels: np.ndarray


def concat_test_function(curves, r_min: float = 0.0) -> LabelledCurve:
    """Concatenate summary curves into one labelled test function.

    Cells with ``r < r_min`` are dropped entirely (very short distances
    are unreliable in measured patterns); undefined cells keep their mask.
    """
    rs, vals, defs, labs = [], [], [], []
    for curve in curves:
        keep = curve.r >= r_min
        rs.append(curve.r[keep])
        vals.append(curve.values[keep])
        defs.append(curve.defined[keep])
        labs.append(np.full(int(keep.sum()), curve.kind, dtype=object))
    out = LabelledCurve(
        r=np.concatenate(rs),
        values=np.concatenate(vals),
        defined=np.concatenate(defs),
        labels=np.concatenate(labs),
    )
    if not out.defined.any():
        raise ValidationError("concatenated test function has no defined cells")
    return out


@dataclass
class CurveSet:
    """Data curve plus simulation curves on a shared grid.

    ``defined`` is the conjunction of all curves' masks: a cell enters the
    rank computation only if every curve is defined there, so no curve is
    ranked against imputed values.
    """

    r: np.ndarray
    labels: np.ndarray
    data: np.ndarray
    sims: np.ndarray
    defined: np.ndarray

    @property
    def n_sims(self) -> int:
        return int(self.sims.shape[0])


def build_curve_set(data: LabelledCurve, sims) -> CurveSet:
    """Assemble a :class:`CurveSet` from ``sims`` read once as they arrive: each one's
    values fill a row of one matrix, and the defined masks are intersected."""
    defined = data.defined.copy()

    def rows():
        for c in sims:
            if c.values.shape != data.values.shape or not np.array_equal(c.r, data.r):
                raise ValidationError("simulation curves must share the data curve's grid")
            np.logical_and(defined, c.defined, out=defined)
            yield c.values

    values = np.fromiter(rows(), dtype=(np.float64, data.values.size))
    if not len(values):
        raise ValidationError("need at least one simulation curve")
    return CurveSet(data.r, data.labels, data.values, values, defined)


@dataclass
class EnvelopeResult:
    """Outcome of a global rank envelope test.

    ``lower``/``upper`` bracket every simulation curve retained by the
    rank cutoff (NaN on undefined cells). ``ranks[0]`` is the data
    curve's extreme rank; ``p_liberal <= p_conservative`` always.
    """

    r: np.ndarray
    labels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    defined: np.ndarray
    alpha: float
    p_liberal: float
    p_conservative: float
    ranks: np.ndarray
    critical_rank: int

    @property
    def p_interval(self) -> tuple[float, float]:
        return (self.p_liberal, self.p_conservative)


def rank_envelope(curve_set: CurveSet, alpha: float = 0.05) -> EnvelopeResult:
    """Rank the data curve among simulations and build the envelope.

    With ``n = s + 1`` curves, a curve's extreme rank is
    ``min over defined cells of min(#{curves <= it}, #{curves >= it})``.
    The conservative p-value is the fraction of curves at least as
    extreme as the data; the liberal one counts only strictly more
    extreme simulations (plus the data itself). The critical rank is the
    largest ``c`` with ``#{ranks < c} <= alpha * n``; curves ranked at or
    above it form the envelope. Each defined cell's column, the data's value
    and the simulations', is sorted in turn into a running minimum.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if curve_set.n_sims < 1:
        raise ValidationError("need at least one simulation curve")
    if not curve_set.defined.any():
        raise ValidationError("every cell is masked; nothing to rank")
    n = curve_set.n_sims + 1
    if n < 1.0 / alpha:
        warnings.warn(
            f"only {curve_set.n_sims} simulations for alpha={alpha}; "
            f"at least {int(np.ceil(1.0 / alpha)) - 1} are recommended",
            stacklevel=2,
        )

    data, sims, defined = curve_set.data, curve_set.sims, curve_set.defined
    ranks = np.full(n, n, dtype=np.int64)
    for c in np.nonzero(defined)[0]:  # min(#{curves <= value}, #{curves >= value}), sorted
        col = np.concatenate((data[c:c + 1], sims[:, c]))
        ordered = np.sort(col)
        np.minimum(ranks, np.searchsorted(ordered, col, side="right"), out=ranks)
        np.minimum(ranks, n - np.searchsorted(ordered, col, side="left"), out=ranks)

    r0 = int(ranks[0])
    p_conservative = float(np.count_nonzero(ranks <= r0) / n)
    p_liberal = float((np.count_nonzero(ranks[1:] < r0) + 1) / n)

    allowed = int(np.floor(alpha * n + 1e-9))
    critical = int(np.sort(ranks)[allowed])
    retained = ranks >= critical

    lower = sims.min(axis=0, where=retained[1:, None], initial=np.inf)
    upper = sims.max(axis=0, where=retained[1:, None], initial=-np.inf)
    if retained[0]:  # the data curve is retained too
        lower, upper = np.minimum(lower, data), np.maximum(upper, data)
    lower[~defined] = upper[~defined] = np.nan
    return EnvelopeResult(
        r=curve_set.r,
        labels=curve_set.labels,
        lower=lower,
        upper=upper,
        defined=curve_set.defined,
        alpha=float(alpha),
        p_liberal=p_liberal,
        p_conservative=p_conservative,
        ranks=ranks,
        critical_rank=critical,
    )


@dataclass
class PipelineResult:
    envelope: EnvelopeResult
    curve_set: CurveSet


def _as_simulator(model):
    if isinstance(model, IntensityModel):
        return lambda net, seed: simulate_poisson(net, model, seed)
    if isinstance(model, CoxModel):
        return lambda net, seed: simulate_cox(net, model, mode="exact", seed=seed).pattern
    if hasattr(model, "model"):
        return _as_simulator(model.model())
    raise ValidationError(
        "model must be an IntensityModel, a CoxModel, or a fit result with .model()"
    )


def envelope_pipeline(
    net: LinearNetwork,
    pattern: PointPattern,
    model,
    test: str = "K",
    n_sims: int = 2499,
    alpha: float = 0.05,
    seed=None,
    r=None,
    r_min: float = 1.0,
) -> PipelineResult:
    """Simulate the model, compute test curves, and run the rank test.

    ``test="K"`` uses the centred second-order curve (the empirical ``K``
    minus the Poisson line ``r``); ``test="FGJ"`` concatenates the
    empty-space, nearest-neighbour and ratio curves at the default
    :class:`FgjConfig`. Every pattern — data and simulations alike — uses
    its own plug-in maximum-likelihood intensity, so estimator bias affects
    all curves equally. A simulation without points (its intensity is 0) has
    F = 0 where alive, as at any positive ``rho_bar``, and no G or J, whose
    cells then leave the test; an empty data pattern is refused. The
    simulated curves stream into :func:`build_curve_set`, which keeps only
    their values.
    """
    if test not in ("K", "FGJ"):
        raise ValidationError(f"test must be 'K' or 'FGJ', got {test!r}")
    if pattern.network is not net:  # the data curve and the simulations share one network
        raise ValidationError("pattern belongs to a different network")
    if n_sims < 1:
        raise ValidationError("need at least one simulation")
    if not 0.0 < alpha < 1.0:  # checked by rank_envelope too, but before any simulation here
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if r is not None and np.max(r) > net.diameter:  # not the default 0.2 |L|: a star may exceed it
        raise ValidationError(f"r grid reaches {np.max(r)}, beyond the network's diameter {net.diameter}")
    r = default_r_grid(net) if r is None else np.asarray(r, dtype=np.float64)
    simulate = _as_simulator(model)

    def test_curve(pat: PointPattern) -> LabelledCurve:
        if test == "K":
            curve = k_estimate(pat, r=r)
            centred = SummaryCurve("K", r, curve.values - r, curve.defined)
            return concat_test_function([centred], r_min)
        empty_simulation = pat.n == 0 and pat is not pattern
        fgj = fgj_estimates(pat, FgjConfig(rho_bar=1.0) if empty_simulation else None, r)
        return concat_test_function([fgj.F, fgj.G, fgj.J], r_min)

    sims = (test_curve(simulate(net, gen)) for gen in spawn_generators(seed, n_sims))
    curve_set = build_curve_set(test_curve(pattern), sims)
    return PipelineResult(envelope=rank_envelope(curve_set, alpha), curve_set=curve_set)
