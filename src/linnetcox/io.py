"""File formats and atomic output writing.

Formats are deliberately plain: JSON for structured objects (networks,
fits, simulation-study designs, manifests, p-value sidecars) and CSV for
tabular data (patterns, curves, intensity and retention grids, envelopes,
study results). Floats are written with ``repr`` so every file round-trips
bitwise: loading an emitted file reconstructs an object equal to the one
written. Every CSV table goes through one writer (:func:`_write_table`,
``\\r\\n`` row ends) and its readers through one reader (:func:`_read_table`).

Each JSON record read back (the network document, a vertex, an edge, the
fit file, a design run, a design's network object) is one table of key ->
JSON type, and default where the key may be absent. One checker,
:func:`_record`, reads every record, and the writers follow the same tables.

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
from .estimation import FitResult, StudyResult, StudyRun
from .models import CoxModel
from .network import Edge, LinearNetwork, PointPattern, Vertex
from .simulate import CoxSample
from .summaries import IntensityEstimate, SummaryCurve
from .templates import make_network

__all__ = [
    "atomic_write", "load_json", "load_network", "save_network", "load_pattern", "save_pattern",
    "save_retention_grid", "load_curves", "save_curves", "save_intensity", "load_fit", "save_fit",
    "save_envelope", "load_design", "save_study", "write_manifest", "sidecar_path",
]


@contextmanager
def atomic_write(path):
    """Open a text handle that lands at ``path`` only on success."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):  # name the target instead
            raise OSError(exc.errno, exc.strerror, str(path)) from None
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


def load_json(path: Path, what: str):
    """A JSON input file's document; a missing, undecodable or malformed file
    raises :class:`ValidationError` naming the file as ``what``."""
    with _open_input(path, what) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from None


# Each JSON type of the record tables as the Python types json.load gives it
_ID, _COORDINATE = "integer, number or string (a hashable id)", "number or null"
_KINDS = {"number": (int, float), "integer": int, "boolean": bool, "string": str, "list": list,
          "object": dict, _ID: (int, float, str), _COORDINATE: (int, float, type(None)),
          "file name or object": (str, dict)}


def _record(doc, table: dict, where: str, more: bool = False) -> dict:
    """``doc``'s values by ``table``'s keys, each ``(kind,)`` or ``(kind, default)``, a number
    as a float. A ``doc`` that is no object, a key ``table`` lacks (unless ``more`` keeps it),
    a missing key or one of another kind (a boolean is no number) raises a ValidationError."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object, got {doc!r:.80}")
    out = {key: value for key, value in doc.items() if key not in table}
    if out and not more:
        raise ValidationError(f"{where}: unknown key {next(iter(out))!r}; the keys are "
                              f"{', '.join(table)}")
    for key, (kind, *default) in table.items():
        value = doc.get(key, *default)
        if key not in doc and default:
            out[key] = value
        elif key in doc and isinstance(value, _KINDS[kind]) and (
                isinstance(value, bool) == (kind == "boolean")):
            out[key] = float(value) if kind == "number" else value
        else:
            raise ValidationError(f"{where}: {key!r} must be a JSON {kind}, "
                                  f"got {f'{value!r:.80}' if key in doc else 'nothing'}")
    return out


def _fields(obj, table: dict, keys=None) -> dict:
    """``obj``'s record: its attributes named by ``keys`` (all), in ``table``'s order."""
    return {key: float(getattr(obj, key)) if kind == "number" else getattr(obj, key)
            for key, (kind, *_) in table.items() if keys is None or key in keys}


def _write_table(path, header: list[str], rows) -> None:
    """Write a CSV table, ``header`` then ``rows``, each row ending in ``\\r\\n``."""
    with atomic_write(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(path, what: str, header: list[str], parse_row) -> list:
    """``parse_row`` of each nonblank row of a CSV table whose first row starts
    with ``header``; a row it fails on (IndexError or ValueError) is named by line."""
    path, columns = Path(path), ",".join(header)
    with _open_input(path, what) as f:
        reader = csv.reader(f)
        first = next(reader, None)
        if first is None or [h.strip() for h in first[: len(header)]] != header:
            raise ValidationError(f"{what} file {path} must start with {columns!r}, got {first}")
        rows = []
        for row in filter(None, reader):
            try:
                rows.append(parse_row(row))
            except (IndexError, ValueError):
                raise ValidationError(f"{path}, line {reader.line_num}: expected {columns!r}, "
                                      f"got {','.join(row)!r}") from None
    return rows


def _point_rows(net: LinearNetwork, edge_indices, offsets, *columns):
    """Table rows ``edge id, offset, *columns`` of points given by edge index and offset."""
    for ei, off, *values in zip(edge_indices, offsets, *columns):
        yield [net.edges[ei].id, _fmt(off), *map(_fmt, values)]


def _parse_id(text: str):
    try:
        return int(text)
    except ValueError:
        return text


# -- networks ---------------------------------------------------------------


_NETWORK = {"vertices": ("list",), "edges": ("list",)}
_VERTEX = {"id": (_ID,), "x": (_COORDINATE, None), "y": (_COORDINATE, None)}
_EDGE = {"id": (_ID,), "start": (_ID,), "end": (_ID,), "length": ("number",),
         "branch": ("string", "main")}


def save_network(net: LinearNetwork, path) -> None:
    _write_json(path, {"vertices": [_fields(v, _VERTEX, None if v.x is not None else ["id"])
                                    for v in net.vertices],  # coordinates both or neither
                       "edges": [_fields(e, _EDGE) for e in net.edges]})


def load_network(path) -> LinearNetwork:
    """Load a network from its JSON file; a missing, undecodable or malformed
    file raises :class:`ValidationError` naming it."""
    path = Path(path)
    where = f"malformed network document {path}"
    doc = _record(load_json(path, "network"), _NETWORK, where)
    vertices = [Vertex(**_record(v, _VERTEX, f"{where}, vertex {i}"))
                for i, v in enumerate(doc["vertices"])]
    edges = [Edge(**_record(e, _EDGE, f"{where}, edge {i}")) for i, e in enumerate(doc["edges"])]
    return LinearNetwork(vertices, edges)


# -- patterns ---------------------------------------------------------------


def save_pattern(pattern: PointPattern, path) -> None:
    rows = _point_rows(pattern.network, pattern.edge_indices, pattern.offsets)
    _write_table(path, ["edge", "offset"], rows)


def load_pattern(path, net: LinearNetwork) -> PointPattern:
    """A pattern file's points; an edge cell names the edge whose id it spells as
    :func:`save_pattern` writes it, else the integer it parses as."""
    rows = _read_table(path, "pattern", ["edge", "offset"], lambda row: (row[0], float(row[1])))
    ids = {str(e.id): e.id for e in net.edges}
    return PointPattern(net, [(ids[text] if text in ids else _parse_id(text), offset)
                              for text, offset in rows])


def save_retention_grid(sample: CoxSample, path) -> None:
    """A grid-mode sample's lattice sites and their retention probabilities."""
    sites = sample.sites
    if sites is None:
        raise ValidationError("only a grid-mode sample has a retention grid")
    rows = _point_rows(sites.network, sites.edge_indices, sites.offsets, sample.site_retention)
    _write_table(path, ["edge", "offset", "pi"], rows)


# -- curves & intensities ------------------------------------------------------


def save_curves(curves, path) -> None:
    _write_table(path, ["kind", "r", "value", "defined"],
                 ([curve.kind, _fmt(r), _fmt(v), int(d)]
                  for curve in curves for r, v, d in zip(curve.r, curve.values, curve.defined)))


def _curve_row(row):
    kind, r, v, d = row
    return kind, float(r), float(v), bool(int(d))


def load_curves(path) -> list[SummaryCurve]:
    rows: dict[str, list] = {}  # per kind, in order of first appearance
    for kind, *values in _read_table(path, "curve", ["kind", "r", "value", "defined"], _curve_row):
        rows.setdefault(kind, []).append(values)
    # columns r (float), value (float), defined (bool)
    return [SummaryCurve(kind, *map(np.array, zip(*data))) for kind, data in rows.items()]


def save_intensity(estimate: IntensityEstimate, path) -> None:
    """The kernel estimate on its per-edge grids, edge by edge."""
    offsets = estimate.edge_offsets
    edges = np.repeat(np.arange(len(offsets)), [off.size for off in offsets])
    rows = _point_rows(estimate.network, edges, np.concatenate(offsets),
                       np.concatenate(estimate.edge_values))
    _write_table(path, ["edge", "offset", "value"], rows)


# -- fits ---------------------------------------------------------------------


_FIT = {  # the fit file, its keys in the order written
    "rho_main": ("number",), "rho_side": ("number",),  # the observed intensities
    "sigma2": ("number",), "beta": ("number",), "k": ("integer",),
    "rho_y_main": ("number",), "rho_y_side": ("number",),  # the driving intensities the simulations thin
    "objective": ("number",), "converged": ("boolean",), "method": ("string",),
}


def save_fit(fit: FitResult, path) -> None:
    _write_json(path, _fields(fit, _FIT))


def load_fit(path) -> FitResult:
    path = Path(path)
    return FitResult(**_record(load_json(path, "fit"), _FIT, f"malformed fit file {path}"))


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
    columns = envelope.labels, envelope.r, data_values, envelope.lower, envelope.upper
    _write_table(path, ["segment", "r", "data", "lower", "upper"],
                 ([lab, *map(_fmt, values)] for lab, *values in zip(*columns)))
    _write_json(sidecar_path(path), {"p_liberal": envelope.p_liberal,
                                     "p_conservative": envelope.p_conservative})


# A design run, and a design's network object, whose other keys are the template's knobs
_RUN = {"name": ("string",), "network": ("file name or object",), "model": ("object",),
        "methods": ("object", {"mce-g": {}}), "mode": ("string", "exact"),
        "spacing": ("number", 1.0)}
_TEMPLATE_NETWORK = {"template": ("string",), "seed": ("integer", 0)}


def load_design(path) -> list[StudyRun]:
    """The runs of a design file, a non-empty JSON list; a run's ``network`` is a template
    object or names a network file relative to the design's directory."""
    path = Path(path)
    design = load_json(path, "design")
    if not isinstance(design, list) or not design:
        raise ValidationError(f"design file {path} must hold a non-empty list of runs")
    runs = []
    for i, entry in enumerate(design):
        where = f"design file {path}, entry {i}"
        run = _record(entry, _RUN, where)
        if isinstance(run["network"], str):
            run["network"] = load_network(path.parent / run["network"])
        else:
            knobs = _record(run["network"], _TEMPLATE_NETWORK, f"{where}, network", more=True)
            run["network"] = make_network(**knobs)
        try:
            run["model"] = CoxModel(**run["model"])
        except TypeError as exc:  # a key CoxModel lacks, or a value it cannot compare
            raise ValidationError(f"{where}: bad 'model': {exc}") from None
        runs.append(StudyRun(**run))
    return runs


def save_study(result: StudyResult, path) -> None:
    _write_table(path, ["run", "replicate", "method", "sigma2_hat", "beta_hat", "converged"],
                 ([row.run, row.replicate, row.method, _fmt(row.sigma2_hat), _fmt(row.beta_hat),
                   int(row.converged)] for row in result.rows))


# -- manifests ------------------------------------------------------------------


def write_manifest(target, command: str, argv: list[str], config: dict, seed, env: dict) -> Path:
    """Record how an output was produced.

    ``target`` is the command's output (directory or file); the manifest
    lands inside the directory, or next to the file as
    ``<stem>.manifest.json``. ``env``, the environment variables that set
    flags, is written only if non-empty. Re-running the recorded ``argv``
    with ``env`` set reproduces the outputs bitwise.
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
        **({"env": env} if env else {}),
        "config": config,
    }
    _write_json(path, doc)
    return path
