"""Command-line interface.

Every subcommand writes its outputs atomically and drops a
``manifest.json`` (inside output directories, or ``<stem>.manifest.json``
next to single files) recording the exact argument vector, seed, and
package version. Any flag can also be supplied through an environment
variable ``LINNETCOX_<DEST>`` (for example ``LINNETCOX_SEED=7``); explicit
flags win. The manifest records those set under ``env``, and re-running
the recorded argv with them reproduces the outputs bitwise. ``fit``
refuses a flag its method does not read, and every command refuses a
``--spacing`` or ``--bandwidth`` that is not positive and finite.

Exit status: 0 on success, 2 on validation problems (bad flags, missing
or malformed files, too large an input), 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .envelopes import envelope_pipeline
from .errors import NumericalError, ValidationError
from .estimation import (
    StudyRun,
    _method_config,
    cl2_fit,  # noqa: F401  (perfbench/spans.py wraps it by this name)
    simulation_study,
    two_step_fit,
)
from .io import (
    load_fit,
    load_json,
    load_network,
    load_pattern,
    save_curves,
    save_envelope,
    save_fit,
    save_intensity,
    save_network,
    save_pattern,
    save_retention_grid,
    save_study,
    write_manifest,
)
from .models import CoxModel, IntensityModel
from .simulate import simulate_cox, simulate_poisson, spawn_generators
# k_estimate and g_estimate are not called here; they stay importable from
# this module for tools that wrap the CLI's bindings by name.
from .summaries import (
    FgjConfig,
    fgj_estimates,
    fit_intensity_mle,
    g_estimate,
    k_estimate,
    kernel_intensity,
    second_order_estimates,
)
from .templates import TEMPLATES, make_network

log = logging.getLogger(__name__)

ENV_PREFIX = "LINNETCOX_"


def _bool_env(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


class _AppendOverDefault(argparse._AppendAction):
    """``action="append"`` whose first command-line value replaces the default."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, None) is self.default:
            setattr(namespace, self.dest, [])
        super().__call__(parser, namespace, values, option_string)


def _add(parser, *flags, **kw):
    """``add_argument`` with a type- and choice-checked ``LINNETCOX_<DEST>`` fallback
    (for an ``append`` flag a one-item list that command-line values replace)."""
    dest = kw.get("dest") or max(flags, key=len).lstrip("-").replace("-", "_")
    name = ENV_PREFIX + dest.upper()
    raw = os.environ.get(name)
    append = kw.get("action") == "append"
    if append:
        kw["action"] = _AppendOverDefault
    if raw is not None:
        if kw.get("action") == "store_true":
            kw["default"] = _bool_env(raw)
        else:
            try:
                value = kw.get("type", str)(raw)
            except ValueError:
                raise ValidationError(f"{name}={raw!r} is not a valid {dest} value") from None
            choices = kw.get("choices")
            if choices is not None and value not in choices:
                raise ValidationError(f"{name}={raw!r}: choose from {', '.join(choices)}")
            kw["default"] = [value] if append else value
        kw.pop("required", None)
    parser.add_argument(*flags, **kw)


def _parse_rgrid(text: str) -> np.ndarray:
    """Parse an ``"a:b:n"`` grid specification."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"r grid must look like 'start:stop:count', got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad r grid {text!r}: {exc}") from None
    if not (n >= 2 and np.inf > b > a >= 0):
        raise ValidationError(f"r grid needs 0 <= start < stop < inf and count >= 2, got {text!r}")
    return np.linspace(a, b, n)


def _parse_knob(text: str) -> tuple[str, object]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise ValidationError(f"knob must look like name=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if isinstance(value, list):
        value = tuple(value)
    return name.replace("-", "_"), value


def _config_dict(args) -> dict:
    drop = {"func", "command"}
    out = {}
    for key, value in vars(args).items():
        if key in drop:
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


# -- subcommands --------------------------------------------------------------


def _cmd_make_network(args) -> None:
    knobs = dict(_parse_knob(k) for k in args.knob)
    try:
        net = make_network(args.template, seed=args.seed, **knobs)
    except TypeError as exc:  # unknown knob name for this template
        raise ValidationError(str(exc)) from None
    save_network(net, args.out)
    log.info(
        "wrote %s: %d edges, total length %.1f", args.out, len(net.edges), net.total_length
    )


def _replicate_patterns(args, simulate_one) -> None:
    """Shared replicate loop of the simulate-* commands: ``simulate_one(gen)`` gives a
    pattern and a grid-mode sample whose retention grid is written too, or None."""
    gens = spawn_generators(args.seed, args.reps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [simulate_one(g) for g in gens]  # all drawn before any is written
    for rep, (pattern, sample) in enumerate(results):
        save_pattern(pattern, out_dir / f"pattern_{rep:04d}.csv")
        if sample is not None:
            save_retention_grid(sample, out_dir / f"pi_{rep:04d}.csv")


def _cmd_simulate_poisson(args) -> None:
    net = load_network(args.net)
    rho_s = args.rho_m if args.rho_s is None else args.rho_s
    intensity = IntensityModel(args.rho_m, rho_s)
    _replicate_patterns(args, lambda gen: (simulate_poisson(net, intensity, gen), None))


def _cmd_simulate_cox(args) -> None:
    net = load_network(args.net)
    rho_ys = args.rho_ym if args.rho_ys is None else args.rho_ys
    model = CoxModel(args.rho_ym, rho_ys, args.sigma2, args.beta, args.k)

    def simulate_one(gen):
        sample = simulate_cox(net, model, mode=args.mode, spacing=args.spacing, seed=gen)
        return sample.pattern, sample if args.save_pi else None

    if args.save_pi and args.mode != "grid":
        raise ValidationError("--save-pi requires --mode grid (the field is site-based)")
    _replicate_patterns(args, simulate_one)


def _cmd_fit(args) -> None:
    net = load_network(args.net)
    pattern = load_pattern(args.pattern, net)
    fields = {"rl": "r_min", "ru": "r_max", "p": "power", "bandwidth": "bandwidth", "r0": "r0"}
    given = {flag: getattr(args, flag) for flag in fields if getattr(args, flag) is not None}
    try:  # the method's config refuses a field it lacks and a value it cannot take
        config = _method_config(args.method, {fields[f]: v for f, v in given.items()})
    except ValidationError as exc:
        flags = "".join(f" --{f} {v!r}" for f, v in given.items())
        raise ValidationError(f"fit --method {args.method}{flags}: {exc}") from None
    fit = two_step_fit(pattern, k=args.k, config=config)
    save_fit(fit, args.out)
    if not fit.converged:
        log.warning("fit did not converge; estimates written anyway")
    log.info("sigma2=%g beta=%g", fit.sigma2, fit.beta)


def _cmd_summaries(args) -> None:
    net = load_network(args.net)
    pattern = load_pattern(args.pattern, net)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    known = {"K", "g", "F", "G", "J"}
    bad = [w for w in which if w not in known or which.count(w) > 1]  # a repeat writes its rows twice
    if bad or not which:
        raise ValidationError(f"--which takes distinct names from {sorted(known)}, got {args.which!r}")
    r = _parse_rgrid(args.rgrid) if args.rgrid else None
    curves = {}
    if {"K", "g"} & set(which):
        curves = second_order_estimates(pattern, r=r, bandwidth=args.bandwidth,
                                        which=[w for w in which if w in ("K", "g")])
    if {"F", "G", "J"} & set(which):
        fgj = fgj_estimates(pattern, FgjConfig(lattice_spacing=args.spacing), r)
        curves.update(F=fgj.F, G=fgj.G, J=fgj.J)
    # K and g first, then F, G and J, each group in the order asked for
    save_curves([curves[w] for w in sorted(which, key=lambda w: w in ("F", "G", "J"))], args.out)


def _cmd_kernel_intensity(args) -> None:
    net = load_network(args.net)
    pattern = load_pattern(args.pattern, net)
    save_intensity(kernel_intensity(net, pattern, args.bandwidth, spacing=args.spacing), args.out)


def _cmd_envelope(args) -> None:
    net = load_network(args.net)
    pattern = load_pattern(args.pattern, net)
    if args.model == "poisson":
        model = fit_intensity_mle(pattern)
    else:
        model = load_fit(args.model).model()
    r = _parse_rgrid(args.rgrid) if args.rgrid else None
    result = envelope_pipeline(
        net,
        pattern,
        model,
        test=args.test,
        n_sims=args.sims,
        alpha=args.alpha,
        seed=args.seed,
        r=r,
        r_min=args.rmin,
    )
    save_envelope(result.envelope, result.curve_set.data, args.out)
    lo, hi = result.envelope.p_interval
    log.info("p-interval (%g, %g)", lo, hi)


def _study_network(entry, base: Path):
    if isinstance(entry, str):
        return load_network(base / entry if not Path(entry).is_absolute() else entry)
    if isinstance(entry, dict):
        entry = dict(entry)
        template = entry.pop("template", None)
        if template is None:
            raise ValidationError("network object in a design needs a 'template' key")
        seed = entry.pop("seed", 0)
        return make_network(template, seed=seed, **entry)
    raise ValidationError("design 'network' must be a file path or a template object")


def _cmd_simstudy(args) -> None:
    design_path = Path(args.design)
    design = load_json(design_path, "design")
    if not isinstance(design, list) or not design:
        raise ValidationError("design file must hold a non-empty list of runs")
    runs = []
    for i, entry in enumerate(design):
        methods = entry.get("methods", {"mce-g": {}}) if isinstance(entry, dict) else None
        if not isinstance(methods, dict):
            raise ValidationError(f"design entry {i} and its 'methods' must be JSON objects")
        try:
            runs.append(
                StudyRun(
                    name=entry["name"],
                    network=_study_network(entry["network"], design_path.parent),
                    model=CoxModel(**entry["model"]),
                    methods=methods,
                    mode=entry.get("mode", "exact"),
                    spacing=entry.get("spacing", 1.0),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad design entry {entry.get('name', '?')!r}: {exc}") from None
    result = simulation_study(runs, replicates=args.reps, seed=args.seed)
    save_study(result, args.out)
    for key, counts in result.truncation.items():
        if any(counts.values()):
            log.info("run %s method %s: %s", key[0], key[1], counts)
    for f in result.failures:
        log.info("run %s replicate %d method %s failed: %s: %s",
                 f.run, f.replicate, f.method, f.error, f.message)


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linnetcox",
        description="Point processes on tree networks: simulation, fitting, model checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add(parser, "--threads", type=int, default=1,
         help="checked (at least 1) and recorded; every command, replicates included, runs "
              "serially")
    _add(
        parser,
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error"],
        help="logging verbosity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-network", help="generate a synthetic network file")
    _add(p, "--template", required=True, choices=list(TEMPLATES))
    _add(p, "--seed", type=int, default=0)
    _add(p, "--knob", action="append", default=[], metavar="NAME=VALUE",
         help="template knob, repeatable (e.g. --knob side_target=250)")
    _add(p, "--out", type=Path, default=Path("network.json"))
    p.set_defaults(func=_cmd_make_network)

    p = sub.add_parser("simulate-poisson", help="simulate Poisson patterns")
    _add(p, "--net", type=Path, required=True)
    _add(p, "--rho-m", type=float, required=True, help="intensity on main branches")
    _add(p, "--rho-s", type=float, default=None, help="intensity on side branches (default: rho-m)")
    _add(p, "--reps", type=int, default=1)
    _add(p, "--seed", type=int, default=0)
    _add(p, "--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate_poisson)

    p = sub.add_parser("simulate-cox", help="simulate thinned-Cox patterns")
    _add(p, "--net", type=Path, required=True)
    _add(p, "--rho-ym", type=float, required=True, help="driving intensity, main branches")
    _add(p, "--rho-ys", type=float, default=None, help="driving intensity, side (default: rho-ym)")
    _add(p, "--sigma2", type=float, required=True)
    _add(p, "--beta", type=float, required=True)
    _add(p, "--k", type=int, default=1)
    _add(p, "--mode", choices=["exact", "grid"], default="exact")
    _add(p, "--spacing", type=float, default=1.0, help="lattice spacing in grid mode")
    _add(p, "--save-pi", action="store_true", help="also write per-replicate retention grids")
    _add(p, "--reps", type=int, default=1)
    _add(p, "--seed", type=int, default=0)
    _add(p, "--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate_cox)

    p = sub.add_parser("fit", help="fit the thinned-Cox model to a pattern")
    _add(p, "--net", type=Path, required=True)
    _add(p, "--pattern", type=Path, required=True)
    _add(p, "--method", choices=["mce-g", "mce-k", "cl2"], default="mce-g")
    _add(p, "--k", type=int, default=1)
    _add(p, "--rl", type=float, default=None, help="lower contrast limit (default 0)")
    _add(p, "--ru", type=float, default=None, help="upper contrast limit (default 0.1|L|)")
    _add(p, "--p", type=float, default=None, help="contrast exponent (default 1)")
    _add(p, "--bandwidth", type=float, default=None, help="pair-correlation bandwidth")
    _add(p, "--r0", type=float, default=None,
         help="cl2: pair range of the composite likelihood (default 5|L|/n)")
    _add(p, "--out", type=Path, default=Path("fit.json"))
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("summaries", help="empirical summary curves")
    _add(p, "--net", type=Path, required=True)
    _add(p, "--pattern", type=Path, required=True)
    _add(p, "--which", default="K,g,F,G,J", help="comma list of distinct names from K,g,F,G,J")
    _add(p, "--rgrid", default=None, metavar="A:B:N", help="r grid, e.g. 0:50:512")
    _add(p, "--bandwidth", type=float, default=None, help="pair-correlation bandwidth")
    _add(p, "--spacing", type=float, default=0.5, help="lattice spacing for F/G/J")
    _add(p, "--out", type=Path, default=Path("curves.csv"))
    p.set_defaults(func=_cmd_summaries)

    p = sub.add_parser("kernel-intensity", help="heat-kernel intensity estimate")
    _add(p, "--net", type=Path, required=True)
    _add(p, "--pattern", type=Path, required=True)
    _add(p, "--bandwidth", type=float, required=True)
    _add(p, "--spacing", type=float, default=None, help="grid spacing (default bandwidth/10)")
    _add(p, "--out", type=Path, default=Path("intensity.csv"))
    p.set_defaults(func=_cmd_kernel_intensity)

    p = sub.add_parser("envelope", help="global rank envelope test")
    _add(p, "--net", type=Path, required=True)
    _add(p, "--pattern", type=Path, required=True)
    _add(p, "--model", required=True,
         help="fit file (JSON) for the Cox model, or 'poisson' for a plug-in Poisson fit")
    _add(p, "--test", choices=["K", "FGJ"], default="K")
    _add(p, "--sims", type=int, default=2499)
    _add(p, "--alpha", type=float, default=0.05)
    _add(p, "--rmin", type=float, default=1.0, help="drop cells below this r")
    _add(p, "--rgrid", default=None, metavar="A:B:N")
    _add(p, "--seed", type=int, default=0)
    _add(p, "--out", type=Path, default=Path("envelope.csv"))
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("simstudy", help="simulate-and-refit study from a design file")
    _add(p, "--design", type=Path, required=True, help="JSON list of runs")
    _add(p, "--reps", type=int, default=500)
    _add(p, "--seed", type=int, default=0)
    _add(p, "--out", type=Path, default=Path("results.csv"))
    p.set_defaults(func=_cmd_simstudy)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)  # LINNETCOX_* values are checked here
        if args.threads < 1:
            raise ValidationError(f"--threads must be at least 1, got {args.threads}")
        for flag in ("spacing", "bandwidth"):  # refused even where the command reads none
            value = getattr(args, flag, None)
            if value is not None and not 0 < value < np.inf:
                raise ValidationError(f"--{flag} must be positive and finite, got {value}")
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper(), logging.WARNING),
            format="%(levelname)s %(name)s: %(message)s",
        )
        args.func(args)  # writes the outputs at args.out; their manifest goes with them
        config = _config_dict(args)
        env = {name: os.environ[name] for name in (ENV_PREFIX + key.upper() for key in config)
               if name in os.environ}  # the LINNETCOX_* values that set this command's flags
        write_manifest(args.out, args.command, argv, config, getattr(args, "seed", None), env)
    except (ValidationError, OSError, MemoryError) as exc:  # bad, unreadable or too large input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
