"""conebound: spectral toolkit for conical surfaces.

Computes the geometric slope constant k_S of a conical surface from its
cross-section curve, the transverse threshold eps0 of the associated 1D
line operator, and eigenvalue-counting curves of the reduced half-line
operators, so that the near-threshold law N(eps0 - E) ~ k_S |ln E| can be
checked numerically end to end.

`import conebound` is cheap: each public name loads its layer on first
access (PEP 562), so only the layers that use scipy pay for it.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ["ConeboundError", "ConfigError", "ConvergenceError",
               "PreconditionError"],
    "geometry": ["CurveSpec", "SampledCurve", "build_curve",
                 "geodesic_curvature", "read_curve_samples", "sup_curvature",
                 "write_curve_csv"],
    "spectral1d": ["EigResult", "Grid1D", "Operator1D", "assemble",
                   "count_below", "lowest_eigenvalues", "oscillation_count"],
    "curvature_operator": ["KsReport", "ks_constant", "ks_spectrum"],
    "threshold": ["AgmonReport", "PotentialSpec", "ThresholdReport",
                  "TruncationSweep", "agmon_norms", "agmon_weight",
                  "compute_threshold", "potential_spec_from_dict",
                  "truncation_sweep"],
    "counting": ["AssembledModel", "CountingCurve", "RadialProblem",
                 "SlopeFit", "assemble_model", "count_radial",
                 "counting_curve", "fit_log_slope", "kirsch_simon_slope"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
