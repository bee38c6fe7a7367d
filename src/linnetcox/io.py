"""File formats and atomic output writing.

Formats are deliberately plain: JSON for structured objects (networks,
fits, manifests, p-value sidecars) and CSV for tabular data (patterns,
curves, envelopes, study results). Floats are written with ``repr`` so
every file round-trips bitwise: loading an emitted file reconstructs an
object equal to the one written.

All writers go through :func:`atomic_write` (write to a temp file in the
target directory, then rename), so a crashed run never leaves a partial
file behind.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ValidationError
from .estimation import FitResult, StudyResult
from .network import Edge, LinearNetwork, PointPattern, Vertex
from .summaries import SummaryCurve

__all__ = [
    "atomic_write",
    "load_network",
    "save_network",
    "load_pattern",
    "save_pattern",
    "load_curves",
    "save_curves",
    "load_fit",
    "save_fit",
    "save_envelope",
    "save_study",
    "write_manifest",
    "sidecar_path",
]


@contextmanager
def atomic_write(path):
    """Open a text handle that lands at ``path`` only on success."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    handle = open(tmp, "w", newline="")
    try:
        yield handle
        handle.close()
        os.replace(tmp, path)
    except BaseException:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(path, doc) -> None:
    with atomic_write(path) as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


@contextmanager
def _open_input(path: Path, what: str):
    """Open an input file for reading; a missing file and undecodable text
    raise :class:`ValidationError` naming the file."""
    if not path.exists():
        raise ValidationError(f"{what} file not found: {path}")
    try:
        with open(path, newline="") as f:
            yield f
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} file {path} cannot be decoded: {exc}") from None


def _load_json(path: Path, what: str):
    with _open_input(path, what) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from None


def _bad_row(path: Path, reader, expected: str, row) -> ValidationError:
    return ValidationError(
        f"{path}, line {reader.line_num}: expected {expected}, got {','.join(row)!r}"
    )


def _parse_id(text: str):
    try:
        return int(text)
    except ValueError:
        return text


# -- networks ---------------------------------------------------------------


def save_network(net: LinearNetwork, path) -> None:
    doc = {
        "vertices": [
            {"id": v.id, **({"x": v.x, "y": v.y} if v.x is not None else {})}
            for v in net.vertices
        ],
        "edges": [
            {
                "id": e.id,
                "start": e.start,
                "end": e.end,
                "length": float(e.length),
                "branch": e.branch,
            }
            for e in net.edges
        ],
    }
    _write_json(path, doc)


def load_network(source) -> LinearNetwork:
    """Load a network from a JSON file path, file object, or dict."""
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        doc = _load_json(Path(source), "network")
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise ValidationError("network document must contain 'vertices' and 'edges'")
    try:
        vertices = [Vertex(v["id"], v.get("x"), v.get("y")) for v in doc["vertices"]]
        edges = [
            Edge(e["id"], e["start"], e["end"], float(e["length"]), e.get("branch", "main"))
            for e in doc["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network document: {exc!r}") from exc
    return LinearNetwork(vertices, edges)


# -- patterns ---------------------------------------------------------------


def save_pattern(pattern: PointPattern, path) -> None:
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(["edge", "offset"])
        net = pattern.network
        for ei, off in zip(pattern.edge_indices, pattern.offsets):
            writer.writerow([net.edges[ei].id, _fmt(off)])


def load_pattern(path, net: LinearNetwork) -> PointPattern:
    path = Path(path)
    points = []
    with _open_input(path, "pattern") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["edge", "offset"]:
            raise ValidationError(f"pattern file {path} must start with 'edge,offset'")
        for row in reader:
            if not row:
                continue
            try:
                points.append((_parse_id(row[0]), float(row[1])))
            except (IndexError, ValueError):
                raise _bad_row(path, reader, "'edge,offset'", row) from None
    return PointPattern(net, points)


# -- curves -------------------------------------------------------------------


def save_curves(curves, path) -> None:
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(["kind", "r", "value", "defined"])
        for curve in curves:
            for r, v, d in zip(curve.r, curve.values, curve.defined):
                writer.writerow([curve.kind, _fmt(r), _fmt(v), int(d)])


def load_curves(path) -> list[SummaryCurve]:
    path = Path(path)
    rows: dict[str, list] = {}  # per kind, in order of first appearance
    with _open_input(path, "curve") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["kind", "r", "value", "defined"]:
            raise ValidationError(f"curve file {path} has unexpected header {header}")
        for row in reader:
            try:
                kind, r, v, d = row
                values = (float(r), float(v), bool(int(d)))
            except ValueError:
                raise _bad_row(path, reader, "'kind,r,value,defined'", row) from None
            rows.setdefault(kind, []).append(values)
    # columns r (float), value (float), defined (bool)
    return [SummaryCurve(kind, *map(np.array, zip(*data))) for kind, data in rows.items()]


# -- fits ---------------------------------------------------------------------


# The fit file: its keys in the order written, each with the reader that loads it.
_FIT_KEYS = {
    "rho_main": float, "rho_side": float,  # the observed intensities
    "sigma2": float, "beta": float, "k": int,
    "rho_y_main": float, "rho_y_side": float,  # the driving intensities the simulations thin
    "objective": float, "converged": bool, "method": str,
}


def save_fit(fit: FitResult, path) -> None:
    _write_json(path, {key: getattr(fit, key) for key in _FIT_KEYS})


def load_fit(path) -> FitResult:
    path = Path(path)
    doc = _load_json(path, "fit")
    try:
        return FitResult(**{key: read(doc[key]) for key, read in _FIT_KEYS.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed fit file {path}: {exc!r}") from exc


# -- envelopes & studies -------------------------------------------------------


def sidecar_path(out_path) -> Path:
    """Path of the JSON p-value sidecar written next to an envelope CSV."""
    out_path = Path(out_path)
    side = out_path.with_suffix(".json")
    if side == out_path:
        side = out_path.with_suffix(".p.json")
    return side


def save_envelope(envelope, data_values: np.ndarray, path) -> None:
    """Write the envelope table plus its p-value sidecar."""
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(["segment", "r", "data", "lower", "upper"])
        for lab, r, d, lo, hi in zip(
            envelope.labels, envelope.r, data_values, envelope.lower, envelope.upper
        ):
            writer.writerow([lab, _fmt(r), _fmt(d), _fmt(lo), _fmt(hi)])
    _write_json(sidecar_path(path), {"p_liberal": envelope.p_liberal,
                                     "p_conservative": envelope.p_conservative})


def save_study(result: StudyResult, path) -> None:
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(["run", "replicate", "method", "sigma2_hat", "beta_hat", "converged"])
        for row in result.rows:
            writer.writerow(
                [
                    row.run,
                    row.replicate,
                    row.method,
                    _fmt(row.sigma2_hat),
                    _fmt(row.beta_hat),
                    int(row.converged),
                ]
            )


# -- manifests ------------------------------------------------------------------


def write_manifest(target, command: str, argv: list[str], config: dict, seed) -> Path:
    """Record how an output was produced.

    ``target`` is the command's output (directory or file); the manifest
    lands inside the directory, or next to the file as
    ``<stem>.manifest.json``. Re-running the recorded ``argv`` reproduces
    the outputs bitwise.
    """
    target = Path(target)
    if target.is_dir():
        path = target / "manifest.json"
    else:
        path = target.with_name(target.stem + ".manifest.json")
    doc = {
        "version": __version__,
        "command": command,
        "seed": seed,
        "argv": list(argv),
        "config": config,
    }
    _write_json(path, doc)
    return path
