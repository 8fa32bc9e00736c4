"""Config-driven command line front end.

Each config block is one schema `{key: (type, default, flag)}` (nested
schemas are sub-blocks) giving its keys, its flags and each typed value:
flag, else config, else default.  An unknown key or a value not of its type
(such as 1.9 or true for an int, "false" for a switch, or a name outside
its choices) is a config error naming the dotted key, such as
`curve.theta`.  The potential block stays the raw merged dict, so its hash
follows the file; `threshold.potential_spec_from_dict` checks its values.
A summary JSON embeds the resolved config and its hash and replays the run
when passed back as --config.  Exit codes: 0 ok, 2 config error, 3
numerical non-convergence, 4 precondition violation.  Each command imports
the layers it runs when it runs, so `counting` starts without scipy.
"""
import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._serial import canonical_json, sha256_hex, write_json
from .errors import ConeboundError, ConfigError

_PRESETS = {"latitude": "latitude_circle", "perturbed": "perturbed_latitude",
            "latitude_circle": "latitude_circle", "tabulated": "tabulated",
            "perturbed_latitude": "perturbed_latitude"}

CURVE = {"preset": (str, "latitude", "--preset"),
         "theta": (float, math.pi / 4.0, "--theta"),
         "amplitude": (float, 0.0, "--amplitude"), "mode": (int, 3, "--mode"),
         "n_samples": (int, 1024, "--n-samples"),
         "input": (str, None, "--input")}
# potential flags; --a is half_width and comes last, so it wins over it
POTENTIAL = {
    "family": (str, None, "--family"), "depth": (float, None, "--depth"),
    "half_width": (float, None, "--half-width"), "p": (float, None, "--p"),
    "width": (float, None, "--width"), "alpha": (float, None, "--alpha"),
    "w_reg": (float, None, "--w-reg"), "a": (float, None, "--a")}
SWEEP = {"L_min": (float, 4.0, "--L-min"), "L_max": (float, 14.0, "--L-max"),
         "num": (int, 11, "--L-num"), "h": (float, 1.0 / 32.0, "--h")}
AGMON = {"theta": (float, 0.5, "--agmon-theta"),
         "R": (float, 2.0, "--agmon-R"), "eta": (float, 1.0, "--eta")}
# what a flag does, where its name does not say
FLAG_HELP = {"--n-fd": "nodes of the fd levels that k_S falls back to when "
                       "the Fourier block on the curve's samples cannot "
                       "certify; a certified curve never reads it"}
SCHEMAS = {
    "curve": CURVE,
    "ks": {"curve": CURVE, "n_fd": (int, 1024, "--n-fd"),
           "n_fourier": (int, 512, "--n-fourier"), "k": (int, 12, "--k")},
    "threshold": {"potential": POTENTIAL, "L": (float, 12.0, "--L"),
                  "n": (int, 4096, "--n"), "sweep": SWEEP, "agmon": AGMON},
    "counting": {"c": (float, 2.0, "--c"), "rho0": (float, 1.0, "--rho0"),
                 "bc": (("dirichlet", "neumann"), "dirichlet", "--bc"),
                 "scale": (float, 1.0, "--scale"),
                 "E_top": (float, 1e-3, "--E-top"),
                 "E_bottom": (float, 1e-8, "--E-bottom"),
                 "n_points": (int, 41, "--n-points")},
    "assemble": {
        "curve": CURVE, "potential": POTENTIAL,
        "delta": (float, 0.05, "--delta"), "C_knob": (float, 0.0, "--C-knob"),
        "eps_knob": (float, 0.0, "--eps-knob"),
        "K_delta": (float, 5.0, "--K-delta"),
        "R_fixed": (float, None, "--R-fixed"),
        "n_modes": (int, 12, "--n-modes"), "E_top": (float, 1e-3, "--E-top"),
        "E_bottom": (float, 1e-22, "--E-bottom"),
        "n_points": (int, 43, "--n-points")},
}
RUN = {"out_dir": (str, ".", "--out-dir"),
       "verbose": (bool, False, "--verbose")}


def _coerce(value, typ, key):
    """value as typ, else the ConfigError its flag would give: a tuple of
    choices takes only those, a switch only a JSON boolean, a text key only
    a string, and a number neither a boolean nor a fraction for an int."""
    if isinstance(typ, tuple):
        if value not in typ:
            raise ConfigError(f"{key} must be one of {list(typ)}, "
                              f"got {value!r}")
        return value
    try:
        if (typ is bool) != isinstance(value, bool) or (
                typ is str and not isinstance(value, str)):
            raise TypeError("not a value its flag could give")
        out = typ(value)
        if typ is int and out != float(value):
            raise ValueError("not integral")
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {typ.__name__}, got {value!r}")
    return out


def _resolve(block, args, schema, path):
    """Typed scalars of a block (sub-blocks are the caller's): flag, then
    config, then default.  A key whose default is None stays None unset."""
    if not isinstance(block, dict):
        raise ConfigError(f"'{path}' must be a JSON object")
    for key in block:
        if key not in schema:
            raise ConfigError(f"unknown config key '{path}.{key}'")
    out = {}
    for key, entry in schema.items():
        if not isinstance(entry, dict):
            typ, default, flag = entry
            value = getattr(args, flag[2:].replace("-", "_"), None)
            value = block.get(key, default) if value is None else value
            out[key] = None if value is None and default is None \
                else _coerce(value, typ, f"{path}.{key}")
    return out


def _load_config(path, command):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at byte offset {exc.pos}: {exc.msg}")
    if isinstance(doc, dict) and "config" in doc:  # a summary: replay it
        doc = doc["config"]
        if not isinstance(doc, dict) or doc.get("command") != command:
            raise ConfigError(f"{path} is not a summary of a '{command}' run")
        doc = {command: doc.get(command, {})}
    return doc


def _curve(block, args, path):
    """(resolved curve block, a function that builds the curve)."""
    from . import geometry
    cfg = _resolve(block, args, CURVE, path)
    kind, pts = _PRESETS.get(cfg["preset"]), None
    if kind is None:
        raise ConfigError(f"{path}.preset must be one of {sorted(_PRESETS)}, "
                          f"got {cfg['preset']!r}")
    if kind != "tabulated":
        del cfg["input"]
    elif cfg["input"] is None:
        raise ConfigError(f"{path}.input is required for the tabulated preset")
    else:
        pts = geometry.read_curve_samples(cfg["input"])
    spec = geometry.CurveSpec(kind=kind, samples=pts,
                              **_pick(cfg, "theta", "amplitude", "mode"))
    return cfg, functools.partial(geometry.build_curve, spec,
                                  n_samples=cfg["n_samples"])


def _potential(parent, args, path):
    """(spec, raw dict) of a command's potential block, flags merged in."""
    from . import threshold
    block, path = parent.get("potential", {}), f"{path}.potential"
    if not isinstance(block, dict):
        raise ConfigError(f"'{path}' must be a JSON object")
    over = {("half_width" if key == "a" else key): getattr(args, key)
            for key in POTENTIAL if getattr(args, key, None) is not None}
    switch = "family" in over and over["family"] != block.get("family")
    block = over if switch else {**block, **over}  # a switch drops the rest
    if "family" not in block:
        block = {"family": "square_well", "depth": 4.0, "half_width": 1.0,
                 **block}
    try:
        return threshold.potential_spec_from_dict(block), block
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")


def _pick(fields, *names):
    return {name: fields[name] for name in names}


def cmd_curve(block, args, out_dir):
    """sample a cross-section curve"""
    from . import geometry
    cfg, build = _curve(block, args, "curve")
    curve = build()
    geometry.write_curve_csv(curve, out_dir / "curve.csv")
    summary = {"ell": curve.length,
               "kappa_inf": geometry.sup_curvature(curve),
               "kappa_mean": float(np.mean(curve.kappa)),
               "n_samples": curve.n_samples,
               "spectral_tail": curve.spectral_tail}
    return cfg, summary, ["curve.csv", "curve_summary.json"], \
        f"ell = {curve.length:.6g}, kappa_inf = {summary['kappa_inf']:.6g}"


def cmd_ks(block, args, out_dir):
    """curvature operator spectrum and k_S"""
    from . import curvature_operator
    cfg = _resolve(block, args, SCHEMAS["ks"], "ks")
    cfg["curve"], build = _curve(block.get("curve", {}), args, "ks.curve")
    report = curvature_operator.ks_constant(
        build(), **_pick(cfg, "n_fd", "n_fourier", "k"))
    return cfg, asdict(report), ["ks_report.json"], f"k_S = {report.k_S:.6g}"


def cmd_threshold(block, args, out_dir):
    """transverse threshold and sweeps"""
    from . import threshold
    cfg = _resolve(block, args, SCHEMAS["threshold"], "threshold")
    spec, cfg["potential"] = _potential(block, args, "threshold")
    report = threshold.compute_threshold(spec, L=cfg["L"], n=cfg["n"])
    summary, headline = asdict(report), f"eps0 = {report.eps0:.8g}"
    want_agmon = args.agmon or "agmon" in block
    if not (args.sweep or "sweep" in block or want_agmon):
        return cfg, summary, ["threshold_summary.json"], headline
    sw = cfg["sweep"] = _resolve(block.get("sweep", {}), args, SWEEP,
                                 "threshold.sweep")
    grid = threshold.sweep_lengths(spec, **sw)
    sweep = threshold.truncation_sweep(spec, grid, h=sw["h"])
    summary["sweep"] = _pick(vars(sweep), "eps0", "rates", "gap_delta",
                             "L_min", "h")
    agmon = None
    if want_agmon:
        ag = cfg["agmon"] = _resolve(block.get("agmon", {}), args, AGMON,
                                     "threshold.agmon")
        agmon = threshold.agmon_norms(spec, sweep, **ag)
        summary["agmon"] = _pick(vars(agmon), "theta", "R", "eta",
                                 "bound_estimate", "tail_fit")
    threshold.write_sweep_csv(sweep, agmon, out_dir / "sweep.csv")
    return cfg, summary, ["sweep.csv", "threshold_summary.json"], headline


def cmd_counting(block, args, out_dir):
    """half-line eigenvalue counting curve"""
    from . import counting
    cfg = _resolve(block, args, SCHEMAS["counting"], "counting")
    problem = counting.RadialProblem(**_pick(cfg, "c", "rho0", "bc", "scale"))
    curve = counting.counting_curve(problem, counting.default_energy_grid(
        cfg["E_top"], cfg["E_bottom"], cfg["n_points"]))
    fit = counting.fit_log_slope(curve)
    predicted = counting.kirsch_simon_slope(cfg["c"])
    rel = abs(fit.slope - predicted) / (predicted or 1.0)  # absolute at 0
    counting.write_counting_csv(curve, out_dir / "counting.csv")
    summary = {**asdict(fit), "predicted_slope": predicted,
               "relative_error": rel}
    return cfg, summary, ["counting.csv", "slope.json"], \
        f"slope = {fit.slope:.6g} (predicted {predicted:.6g})"


def cmd_assemble(block, args, out_dir):
    """assembled surface counting model"""
    from . import counting
    cfg = _resolve(block, args, SCHEMAS["assemble"], "assemble")
    cfg["curve"], build = _curve(block.get("curve", {}), args,
                                 "assemble.curve")
    spec, cfg["potential"] = _potential(block, args, "assemble")
    E_grid = counting.default_energy_grid(cfg["E_top"], cfg["E_bottom"],
                                          cfg["n_points"])
    model = counting.assemble_model(
        build(), spec, E_grid=E_grid, **_pick(
            cfg, "delta", "C_knob", "eps_knob", "K_delta", "R_fixed",
            "n_modes"))
    counting.write_counting_csv(model, out_dir / "assemble_counts.csv")
    fit = asdict(model.fit)
    summary = {"fitted_slope": fit.pop("slope"), "fit": fit, **_pick(
        vars(model), "predicted_slope", "relative_error", "modes", "params")}
    return cfg, summary, ["assemble_counts.csv", "assemble_summary.json"], \
        f"fitted slope = {model.fit.slope:.6g} " \
        f"(predicted {model.predicted_slope:.6g})"


def _report(command, resolved, summary, files, headline, out_dir, run):
    """Write a cmd_* result's summary (its last file) and run_meta.json."""
    cfg = {"command": command, command: resolved}
    sha = sha256_hex(canonical_json(cfg))
    write_json(out_dir / files[-1],
               {"config": cfg, "config_sha256": sha, **summary})
    write_json(out_dir / "run_meta.json", {
        "command": command, "config_sha256": sha,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "versions": {"conebound": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]}})
    if run["verbose"]:
        for name in files + ["run_meta.json"]:
            print(f"wrote {out_dir / name}", file=sys.stderr)
    print(headline)
    return 0


@functools.cache
def build_parser():
    def add_flags(parser, schema):
        for entry in schema.values():
            if isinstance(entry, dict):
                add_flags(parser, entry)
                continue
            typ, default, flag = entry
            kind = {"action": "store_true", "default": None} if typ is bool \
                else {"choices": typ} if isinstance(typ, tuple) \
                else {"type": typ}
            text = None if default is None else f"default {default}"
            if flag in FLAG_HELP:
                text = f"{text}; {FLAG_HELP[flag]}"
            parser.add_argument(flag, **kind, help=text)

    top = argparse.ArgumentParser(prog="conebound", description=(
        "spectral toolkit for conical surfaces: cross-section geometry, "
        "transverse thresholds and eigenvalue counting"))
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command, help=globals()[f"cmd_{command}"].__doc__)
        p.add_argument("--config", help="JSON config or summary document")
        add_flags(p, {**RUN, **schema})
        if command == "threshold":
            p.add_argument("--sweep", action="store_true")
            p.add_argument("--agmon", action="store_true")
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args.command) if args.config else {}
        run = _resolve(config, args, {**RUN, **SCHEMAS}, "config")
        out_dir = Path(run["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        result = globals()[f"cmd_{args.command}"](
            config.get(args.command, {}), args, out_dir)
        return _report(args.command, *result, out_dir, run)
    except ConeboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
