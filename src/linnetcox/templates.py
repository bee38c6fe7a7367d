"""Synthetic network generators.

Measured dendrite trees are not redistributed with this package; these
templates generate stand-in geometry at the same scale — a main chain of
a couple hundred micrometres carrying side subtrees of comparable total
length — plus simpler shapes (path, star, random tree) for testing and
calibration.
"""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

from .errors import ValidationError
from .network import Edge, LinearNetwork, Vertex
from .simulate import as_generator

__all__ = ["make_network", "TEMPLATES"]


def _path(length: float = 100.0, edges: int = 1, branch: str = "main") -> LinearNetwork:
    if not (length > 0 and edges >= 1):
        raise ValidationError("path needs positive length and at least one edge")
    vertices = [Vertex(i) for i in range(edges + 1)]
    step = length / edges
    net_edges = [Edge(i, i, i + 1, step, branch) for i in range(edges)]
    return LinearNetwork(vertices, net_edges)


def _star(arms: int = 3, arm_length: float = 50.0, branch: str = "main") -> LinearNetwork:
    if not (arms >= 2 and arm_length > 0):
        raise ValidationError("star needs at least two arms of positive length")
    vertices = [Vertex(0)] + [Vertex(i + 1) for i in range(arms)]
    net_edges = [Edge(i, 0, i + 1, arm_length, branch) for i in range(arms)]
    return LinearNetwork(vertices, net_edges)


def _random_tree(
    rng,
    edges: int = 50,
    length_range: tuple[float, float] = (2.0, 5.0),
    trunk_bias: float = 0.5,
    branch: str = "main",
) -> LinearNetwork:
    """Random tree grown by sequential attachment.

    With probability ``trunk_bias`` a new edge extends the most recent
    vertex (producing long backbones and hence a usable diameter);
    otherwise it attaches uniformly at random, producing branching.
    """
    if edges < 1:
        raise ValidationError("random tree needs at least one edge")
    lo, hi = length_range
    vertices = [Vertex(0)]
    net_edges = []
    for i in range(edges):
        if i == 0 or rng.random() < trunk_bias:
            parent = len(vertices) - 1
        else:
            parent = int(rng.integers(0, len(vertices)))
        child = len(vertices)
        vertices.append(Vertex(child))
        net_edges.append(Edge(i, parent, child, float(rng.uniform(lo, hi)), branch))
    return LinearNetwork(vertices, net_edges)


def _dendrite(
    rng,
    main_edges: int = 12,
    main_length_range: tuple[float, float] = (15.0, 22.0),
    side_target: float = 350.0,
    side_length_range: tuple[float, float] = (5.0, 25.0),
    branch_prob: float = 0.35,
    max_depth: int = 3,
) -> LinearNetwork:
    """Main chain with side subtrees hanging off its interior vertices.

    The main chain measures roughly ``main_edges`` times the mean segment
    length (about 180–290 with the defaults across seeds); side subtrees
    are added until their total measure reaches ``side_target``.
    """
    if main_edges < 2 or max_depth < 0:
        raise ValidationError("dendrite needs main_edges >= 2 and max_depth >= 0")
    lo, hi = main_length_range
    slo, shi = side_length_range
    if not side_target > 0:
        raise ValidationError("side_target must be positive")

    vertices = [Vertex(i) for i in range(main_edges + 1)]
    net_edges = [
        Edge(i, i, i + 1, float(rng.uniform(lo, hi)), "main") for i in range(main_edges)
    ]
    next_vertex = main_edges + 1
    next_edge = main_edges
    side_measure = 0.0
    while side_measure < side_target:
        root = int(rng.integers(1, main_edges))  # interior chain vertex
        # Grow one side subtree: segments branch with fixed probability up
        # to a depth cap.
        frontier = [(root, 0)]
        while frontier and side_measure < side_target:
            parent, depth = frontier.pop()
            length = float(rng.uniform(slo, shi))
            child = next_vertex
            vertices.append(Vertex(child))
            net_edges.append(Edge(next_edge, parent, child, length, "side"))
            next_vertex += 1
            next_edge += 1
            side_measure += length
            if depth < max_depth:
                n_children = 2 if rng.random() < branch_prob else (1 if rng.random() < 0.5 else 0)
                frontier.extend((child, depth + 1) for _ in range(n_children))
    return LinearNetwork(vertices, net_edges)


_BUILDERS = {"dendrite": _dendrite, "path": _path, "star": _star, "random-tree": _random_tree}
TEMPLATES = tuple(_BUILDERS)


def _finite(x) -> bool:
    """A finite real number, not a boolean (NaN fails the comparison)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and -math.inf < x < math.inf


def make_network(template: str, seed=None, **knobs) -> LinearNetwork:
    """Generate a synthetic network from a named template.

    Templates: ``"dendrite"`` (labelled main chain plus side subtrees),
    ``"path"``, ``"star"``, ``"random-tree"``. Knobs are template-specific
    keyword arguments; see the underlying builders. Each knob is checked
    once, by the type of the builder's default: an integer knob takes only
    an integer and a numeric knob only a finite number, neither a boolean;
    a range knob (a name ending in ``_range``) takes two finite numbers
    ``0 < lo <= hi``. Deterministic given a seed.
    """
    if template not in _BUILDERS:
        raise ValidationError(f"unknown template {template!r}; choose from {TEMPLATES}")
    params = inspect.signature(_BUILDERS[template]).parameters
    for name, value in knobs.items():
        default = params[name].default if name in params else None
        if name.endswith("_range"):
            ok = (isinstance(value, (list, tuple)) and len(value) == 2
                  and all(map(_finite, value)) and 0 < value[0] <= value[1])
            kind = "two finite numbers 0 < lo <= hi"
        elif isinstance(default, int):
            ok, kind = _finite(value) and isinstance(value, numbers.Integral), "an integer"
        elif isinstance(default, float):
            ok, kind = _finite(value), "a finite number"
        else:  # the network checks a branch label, the builder's call an unknown name
            continue
        if not ok:
            raise ValidationError(f"{name} must be {kind}, got {value!r}")
    rng = as_generator(seed)
    if template in ("path", "star"):
        return _BUILDERS[template](**knobs)
    return _BUILDERS[template](rng, **knobs)
