"""Config-driven command line front end.

One JSON config document carries per-subcommand parameter blocks; inline
flags override individual entries.  Every summary JSON embeds the fully
resolved block plus its content hash, so a run can be reproduced from its
own output.  Data files carry no timestamps; volatile run metadata goes to
run_meta.json.  Exit codes: 0 ok, 2 config error, 3 numerical
non-convergence, 4 precondition violation.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, counting, curvature_operator, geometry, threshold
from ._serial import canonical_json, sha256_hex, write_json
from .errors import ConeboundError, ConfigError, PreconditionError

_TOP_KEYS = {"curve", "ks", "threshold", "counting", "assemble",
             "out_dir", "verbose", "threads"}
_CURVE_KEYS = {"preset", "theta", "amplitude", "mode", "n_samples", "input"}
_KS_KEYS = {"curve", "n_fd", "n_fourier", "k"}
_THRESHOLD_KEYS = {"potential", "L", "n", "sweep", "agmon"}
_SWEEP_KEYS = {"L_min", "L_max", "num", "h"}
_AGMON_KEYS = {"theta", "R", "eta"}
_COUNTING_KEYS = {"c", "rho0", "bc", "scale", "E_top", "E_bottom", "n_points"}
_ASSEMBLE_KEYS = {"curve", "potential", "delta", "C_knob", "eps_knob",
                  "K_delta", "R_fixed", "E_top", "E_bottom", "n_points",
                  "n_modes"}

_PRESETS = {
    "latitude": "latitude_circle",
    "latitude_circle": "latitude_circle",
    "perturbed": "perturbed_latitude",
    "perturbed_latitude": "perturbed_latitude",
    "tabulated": "tabulated",
}


def _check_keys(doc, allowed, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"'{path}' must be a JSON object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{path}.{key}'")


def _load_config(path):
    if path is None:
        return {}
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at byte offset {exc.pos}: {exc.msg}")
    _check_keys(doc, _TOP_KEYS, "config")
    return doc


def _override(block, args, names):
    out = dict(block)
    for name in names:
        val = getattr(args, name, None)
        if val is not None:
            out[name] = val
    return out


# --------------------------------------------------------------------- curve


def _curve_block(config, args, path="curve"):
    block = dict(config.get("curve", {}))
    block = _override(block, args, ("preset", "theta", "amplitude", "mode",
                                    "n_samples", "input"))
    _check_keys(block, _CURVE_KEYS, path)
    preset = block.get("preset", "latitude")
    if preset not in _PRESETS:
        raise ConfigError(
            f"{path}.preset must be one of {sorted(set(_PRESETS))}, "
            f"got {preset!r}")
    resolved = {
        "preset": preset,
        "theta": float(block.get("theta", math.pi / 4.0)),
        "amplitude": float(block.get("amplitude", 0.0)),
        "mode": int(block.get("mode", 3)),
        "n_samples": int(block.get("n_samples", 1024)),
    }
    if _PRESETS[preset] == "tabulated":
        if "input" not in block:
            raise ConfigError(
                f"{path}.input is required for the tabulated preset")
        resolved["input"] = str(block["input"])
    return resolved


def _curve_from_block(resolved):
    kind = _PRESETS[resolved["preset"]]
    if kind == "tabulated":
        pts = geometry.read_curve_samples(resolved["input"])
        spec = geometry.CurveSpec(kind="tabulated", samples=pts)
    else:
        spec = geometry.CurveSpec(kind=kind, theta=resolved["theta"],
                                  amplitude=resolved["amplitude"],
                                  mode=resolved["mode"])
    return geometry.build_curve(spec, n_samples=resolved["n_samples"])


def cmd_curve(config, args, out_dir, threads, verbose):
    resolved = _curve_block(config, args)
    curve = _curve_from_block(resolved)
    cfg = {"command": "curve", "curve": resolved}
    sha = sha256_hex(canonical_json(cfg))
    geometry.write_curve_csv(curve, out_dir / "curve.csv")
    kappa = curve.kappa
    summary = {
        "config": cfg,
        "config_sha256": sha,
        "ell": curve.length,
        "kappa_inf": float(np.max(np.abs(kappa))),
        "kappa_mean": float(np.mean(kappa)),
        "n_samples": curve.n_samples,
        "deriv_error": curve.deriv_error,
    }
    write_json(out_dir / "curve_summary.json", summary)
    _finish(out_dir, cfg, sha, threads, verbose,
            ["curve.csv", "curve_summary.json"],
            f"ell = {curve.length:.6g}, kappa_inf = {summary['kappa_inf']:.6g}")
    return 0


# ------------------------------------------------------------------------ ks


def cmd_ks(config, args, out_dir, threads, verbose):
    block = dict(config.get("ks", {}))
    block["curve"] = _curve_block({"curve": block.get("curve", {})}, args,
                                  path="ks.curve")
    block = _override(block, args, ("n_fd", "n_fourier", "k"))
    _check_keys(block, _KS_KEYS, "ks")
    resolved = {
        "curve": block["curve"],
        "n_fd": int(block.get("n_fd", 1024)),
        "n_fourier": int(block.get("n_fourier", 512)),
        "k": int(block.get("k", 12)),
    }
    curve = _curve_from_block(resolved["curve"])
    report = curvature_operator.ks_constant(
        curve, n_fd=resolved["n_fd"], n_fourier=resolved["n_fourier"],
        k=resolved["k"])
    cfg = {"command": "ks", "ks": resolved}
    sha = sha256_hex(canonical_json(cfg))
    doc = {"config": cfg, "config_sha256": sha}
    doc.update(report.to_dict())
    write_json(out_dir / "ks_report.json", doc)
    _finish(out_dir, cfg, sha, threads, verbose, ["ks_report.json"],
            f"k_S = {report.k_S:.6g}")
    return 0


# ----------------------------------------------------------------- threshold


def _potential_block(config_block, args, path):
    block = dict(config_block)
    over = {}
    if getattr(args, "family", None) is not None:
        over["family"] = args.family
    for key in ("depth", "width", "p", "alpha", "w_reg", "half_width"):
        val = getattr(args, key, None)
        if val is not None:
            over[key] = val
    if getattr(args, "a", None) is not None:
        over["half_width"] = args.a
    if "family" in over and over["family"] != block.get("family"):
        block = over  # family switch discards stale family-specific params
    else:
        block.update(over)
    if "family" not in block:
        block = {"family": "square_well", "depth": 4.0, "half_width": 1.0,
                 **{k: v for k, v in block.items()}}
    try:
        spec = threshold.potential_spec_from_dict(block)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")
    return spec, block


def cmd_threshold(config, args, out_dir, threads, verbose):
    block = dict(config.get("threshold", {}))
    _check_keys(block, _THRESHOLD_KEYS, "threshold")
    spec, pot = _potential_block(block.get("potential", {}), args,
                                 "threshold.potential")
    L = float(args.L if args.L is not None else block.get("L", 12.0))
    n = int(args.n if args.n is not None else block.get("n", 4096))
    resolved = {"potential": pot, "L": L, "n": n}

    want_agmon = args.agmon or "agmon" in block
    want_sweep = args.sweep or "sweep" in block or want_agmon
    report = threshold.compute_threshold(spec, L=L, n=n)

    summary = {"eps0": report.eps0, "v_inf": report.v_inf, "gap": report.gap,
               "bracket": list(report.bracket), "L_used": report.L_used,
               "n_used": report.n_used, "satisfied_iii": report.satisfied_iii}
    files = ["threshold_summary.json"]

    if want_sweep:
        sw = dict(block.get("sweep", {}))
        _check_keys(sw, _SWEEP_KEYS, "threshold.sweep")
        sw = _override(sw, args, ("L_min", "L_max", "num", "h"))
        sweep_cfg = {"L_min": float(sw.get("L_min", 4.0)),
                     "L_max": float(sw.get("L_max", 14.0)),
                     "num": int(sw.get("num", 11)),
                     "h": float(sw.get("h", 1.0 / 32.0))}
        resolved["sweep"] = sweep_cfg
        L_grid = np.linspace(sweep_cfg["L_min"], sweep_cfg["L_max"],
                             sweep_cfg["num"])
        sweep = threshold.truncation_sweep(spec, L_grid, h=sweep_cfg["h"],
                                           threads=threads)
        summary["sweep"] = {"eps0": sweep.eps0, "rates": sweep.rates,
                            "gap_delta": sweep.gap_delta, "L_min": sweep.L_min,
                            "h": sweep.h}
        agmon = None
        if want_agmon:
            ag = dict(block.get("agmon", {}))
            _check_keys(ag, _AGMON_KEYS, "threshold.agmon")
            if args.agmon_theta is not None:
                ag["theta"] = args.agmon_theta
            if args.agmon_R is not None:
                ag["R"] = args.agmon_R
            if args.eta is not None:
                ag["eta"] = args.eta
            agmon_cfg = {"theta": float(ag.get("theta", 0.5)),
                         "R": float(ag.get("R", 2.0)),
                         "eta": float(ag.get("eta", 1.0))}
            resolved["agmon"] = agmon_cfg
            agmon = threshold.agmon_norms(spec, agmon_cfg["theta"],
                                          agmon_cfg["R"], L_grid,
                                          h=sweep_cfg["h"],
                                          eta=agmon_cfg["eta"],
                                          threads=threads)
            summary["agmon"] = {"theta": agmon.theta, "R": agmon.R,
                                "eta": agmon.eta,
                                "bound_estimate": agmon.bound_estimate,
                                "tail_fit": agmon.tail_fit}
        threshold.write_sweep_csv(sweep, agmon, out_dir / "sweep.csv")
        files.append("sweep.csv")

    cfg = {"command": "threshold", "threshold": resolved}
    sha = sha256_hex(canonical_json(cfg))
    doc = {"config": cfg, "config_sha256": sha}
    doc.update(summary)
    write_json(out_dir / "threshold_summary.json", doc)
    _finish(out_dir, cfg, sha, threads, verbose, files,
            f"eps0 = {report.eps0:.8g}")
    return 0


# ------------------------------------------------------------------ counting


def _energy_grid(resolved):
    top, bottom = resolved["E_top"], resolved["E_bottom"]
    if not (top > 0.0 and bottom > 0.0):
        raise PreconditionError("energy grid must be strictly positive")
    return np.logspace(math.log10(top), math.log10(bottom),
                       resolved["n_points"])


def cmd_counting(config, args, out_dir, threads, verbose):
    block = dict(config.get("counting", {}))
    block = _override(block, args, ("c", "rho0", "bc", "scale", "E_top",
                                    "E_bottom", "n_points"))
    _check_keys(block, _COUNTING_KEYS, "counting")
    resolved = {
        "c": float(block.get("c", 2.0)),
        "rho0": float(block.get("rho0", 1.0)),
        "bc": str(block.get("bc", "dirichlet")),
        "scale": float(block.get("scale", 1.0)),
        "E_top": float(block.get("E_top", 1e-3)),
        "E_bottom": float(block.get("E_bottom", 1e-8)),
        "n_points": int(block.get("n_points", 41)),
    }
    problem = counting.RadialProblem(c=resolved["c"], rho0=resolved["rho0"],
                                     bc=resolved["bc"],
                                     scale=resolved["scale"])
    E_grid = _energy_grid(resolved)
    curve = counting.counting_curve(problem, E_grid)
    fit = counting.fit_log_slope(curve)
    predicted = counting.kirsch_simon_slope(resolved["c"])
    rel = abs(fit.slope - predicted) / predicted if predicted > 0 \
        else abs(fit.slope)
    cfg = {"command": "counting", "counting": resolved}
    sha = sha256_hex(canonical_json(cfg))
    counting.write_counting_csv(curve, out_dir / "counting.csv")
    doc = {
        "config": cfg, "config_sha256": sha,
        "slope": fit.slope, "intercept": fit.intercept,
        "rms_residual": fit.rms_residual, "window": list(fit.window),
        "n_used": fit.n_used, "degenerate": fit.degenerate,
        "predicted_slope": predicted, "relative_error": rel,
    }
    write_json(out_dir / "slope.json", doc)
    _finish(out_dir, cfg, sha, threads, verbose,
            ["counting.csv", "slope.json"],
            f"slope = {fit.slope:.6g} (predicted {predicted:.6g})")
    return 0


# ------------------------------------------------------------------ assemble


def cmd_assemble(config, args, out_dir, threads, verbose):
    block = dict(config.get("assemble", {}))
    _check_keys(block, _ASSEMBLE_KEYS, "assemble")
    curve_block = _curve_block({"curve": block.get("curve", {})}, args,
                               path="assemble.curve")
    spec, pot = _potential_block(block.get("potential", {}), args,
                                 "assemble.potential")
    block = _override(block, args, ("delta", "C_knob", "eps_knob", "K_delta",
                                    "R_fixed", "E_top", "E_bottom",
                                    "n_points", "n_modes"))
    resolved = {
        "curve": curve_block,
        "potential": pot,
        "delta": float(block.get("delta", 0.05)),
        "C_knob": float(block.get("C_knob", 0.0)),
        "eps_knob": float(block.get("eps_knob", 0.0)),
        "K_delta": float(block.get("K_delta", 5.0)),
        "R_fixed": (None if block.get("R_fixed") is None
                    else float(block["R_fixed"])),
        "E_top": float(block.get("E_top", 1e-3)),
        "E_bottom": float(block.get("E_bottom", 1e-22)),
        "n_points": int(block.get("n_points", 43)),
        "n_modes": int(block.get("n_modes", 12)),
    }
    E_grid = _energy_grid(resolved)
    curve = _curve_from_block(curve_block)
    model = counting.assemble_model(
        curve, spec, delta=resolved["delta"], C_knob=resolved["C_knob"],
        eps_knob=resolved["eps_knob"], K_delta=resolved["K_delta"],
        R_fixed=resolved["R_fixed"], E_grid=E_grid,
        n_modes=resolved["n_modes"], threads=threads)
    cfg = {"command": "assemble", "assemble": resolved}
    sha = sha256_hex(canonical_json(cfg))
    counting.write_assembled_csv(model, out_dir / "assemble_counts.csv")
    doc = {
        "config": cfg, "config_sha256": sha,
        "predicted_slope": model.predicted_slope,
        "fitted_slope": model.fit.slope,
        "relative_error": model.relative_error,
        "fit": {"intercept": model.fit.intercept,
                "rms_residual": model.fit.rms_residual,
                "window": list(model.fit.window),
                "n_used": model.fit.n_used,
                "degenerate": model.fit.degenerate},
        "modes": model.modes,
        "params": model.params,
    }
    write_json(out_dir / "assemble_summary.json", doc)
    _finish(out_dir, cfg, sha, threads, verbose,
            ["assemble_counts.csv", "assemble_summary.json"],
            f"fitted slope = {model.fit.slope:.6g} "
            f"(predicted {model.predicted_slope:.6g})")
    return 0


# ---------------------------------------------------------------- plumbing


def _finish(out_dir, cfg, sha, threads, verbose, files, headline):
    meta = {
        "command": cfg["command"],
        "config_sha256": sha,
        "threads": threads,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "versions": {
            "conebound": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    write_json(out_dir / "run_meta.json", meta)
    if verbose:
        for name in files + ["run_meta.json"]:
            print(f"wrote {out_dir / name}", file=sys.stderr)
    print(headline)


def _add_curve_flags(p):
    p.add_argument("--preset", help="latitude, perturbed or tabulated")
    p.add_argument("--theta", type=float, help="polar angle of the latitude")
    p.add_argument("--amplitude", type=float, help="perturbation amplitude")
    p.add_argument("--mode", type=int, help="perturbation mode number")
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--input", help="CSV with tabulated curve points")


def _add_potential_flags(p):
    p.add_argument("--family", help="potential family name")
    p.add_argument("--a", type=float, help="alias for --half-width")
    p.add_argument("--half-width", dest="half_width", type=float)
    p.add_argument("--depth", type=float)
    p.add_argument("--width", type=float)
    p.add_argument("--p", type=float, help="confining exponent")
    p.add_argument("--alpha", type=float, help="delta well strength")
    p.add_argument("--w-reg", dest="w_reg", type=float,
                   help="delta well regularization width")


def _add_egrid_flags(p):
    p.add_argument("--E-top", dest="E_top", type=float)
    p.add_argument("--E-bottom", dest="E_bottom", type=float)
    p.add_argument("--n-points", dest="n_points", type=int)


def build_parser():
    top = argparse.ArgumentParser(
        prog="conebound",
        description="spectral toolkit for conical surfaces: cross-section "
                    "geometry, transverse thresholds and eigenvalue counting")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--out-dir", dest="out_dir", help="output directory")
        p.add_argument("--threads", type=int,
                       help="sweep parallelism (default: CONEBOUND_THREADS "
                            "or machine parallelism)")
        p.add_argument("--verbose", action="store_true", default=None)

    p = sub.add_parser("curve", help="sample a cross-section curve")
    common(p)
    _add_curve_flags(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("ks", help="curvature operator spectrum and k_S")
    common(p)
    _add_curve_flags(p)
    p.add_argument("--n-fd", dest="n_fd", type=int)
    p.add_argument("--n-fourier", dest="n_fourier", type=int)
    p.add_argument("--k", type=int, help="number of eigenvalues")
    p.set_defaults(func=cmd_ks)

    p = sub.add_parser("threshold", help="transverse threshold and sweeps")
    common(p)
    _add_potential_flags(p)
    p.add_argument("--L", type=float, help="truncation half-length")
    p.add_argument("--n", type=int, help="grid intervals")
    p.add_argument("--sweep", action="store_true", default=False)
    p.add_argument("--L-min", dest="L_min", type=float)
    p.add_argument("--L-max", dest="L_max", type=float)
    p.add_argument("--L-num", dest="num", type=int)
    p.add_argument("--h", type=float, help="sweep grid spacing")
    p.add_argument("--agmon", action="store_true", default=False)
    p.add_argument("--agmon-theta", dest="agmon_theta", type=float)
    p.add_argument("--agmon-R", dest="agmon_R", type=float)
    p.add_argument("--eta", type=float, help="tail window width")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("counting", help="half-line eigenvalue counting curve")
    common(p)
    p.add_argument("--c", type=float, help="inverse square coefficient")
    p.add_argument("--rho0", type=float)
    p.add_argument("--bc", choices=("dirichlet", "neumann"))
    p.add_argument("--scale", type=float)
    _add_egrid_flags(p)
    p.set_defaults(func=cmd_counting)

    p = sub.add_parser("assemble", help="assembled surface counting model")
    common(p)
    _add_curve_flags(p)
    _add_potential_flags(p)
    p.add_argument("--delta", type=float)
    p.add_argument("--C-knob", dest="C_knob", type=float)
    p.add_argument("--eps-knob", dest="eps_knob", type=float)
    p.add_argument("--K-delta", dest="K_delta", type=float)
    p.add_argument("--R-fixed", dest="R_fixed", type=float)
    p.add_argument("--n-modes", dest="n_modes", type=int)
    _add_egrid_flags(p)
    p.set_defaults(func=cmd_assemble)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        out_dir = Path(args.out_dir or config.get("out_dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        threads = args.threads if args.threads is not None \
            else config.get("threads")
        verbose = bool(args.verbose) if args.verbose is not None \
            else bool(config.get("verbose", False))
        return args.func(config, args, out_dir, threads, verbose)
    except ConeboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
