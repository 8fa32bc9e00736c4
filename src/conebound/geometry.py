"""Smooth loops on the unit sphere: presets, arc-length resampling, curvature.

A curve is handed around as a SampledCurve: positions Gamma(s_i) on a uniform
arc-length grid and the geodesic curvature kappa = <Gamma x Gamma'', Gamma'>,
its derivatives taken by 4th-order periodic central differences on the
uniform grid.

Resampling pipeline: a dense sample of the curve, a cumulative chord-length
table, monotone cubic (PCHIP) interpolation against chord length, uniform
resampling.  For analytic presets the monotone interpolant inverts the table
(parameter as a function of chord length) and the preset map is re-evaluated
at the resampled parameters; tabulated polylines interpolate the coordinates
directly and renormalize onto the sphere.  The chord table is the accuracy
bottleneck either way, making the pipeline second order in the dense spacing.

Orientation convention: latitude presets are traversed so that the geodesic
curvature of a latitude circle at polar angle theta comes out +cot(theta)
with the normal n = Gamma x Gamma' pointing toward the south pole side.
Tabulated curves keep their given orientation.

scipy is imported inside the functions that use it, so that `counting`,
which needs only `SampledCurve` and `sup_curvature`, stays scipy-free.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._serial import write_csv
from .errors import ConfigError, PreconditionError

_FINE_FACTOR = 8  # dense samples per output sample in the resampling pipeline

_KINDS = ("latitude_circle", "perturbed_latitude", "tabulated")


@dataclass(frozen=True)
class CurveSpec:
    """Declarative description of a loop on the unit sphere."""

    kind: str
    theta: float = math.pi / 4
    amplitude: float = 0.0
    mode: int = 3
    samples: Optional[np.ndarray] = None

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise PreconditionError(f"unknown curve kind {self.kind!r}")
        if self.kind in ("latitude_circle", "perturbed_latitude"):
            # small overshoot allowed so truncated decimals like 1.5708
            # still denote the equator
            if not 0.0 < self.theta <= math.pi / 2 + 1e-4:
                raise PreconditionError(
                    f"polar angle must lie in (0, pi/2], got {self.theta}")
        if self.kind == "perturbed_latitude":
            if int(self.mode) != self.mode or self.mode < 2:
                raise PreconditionError(
                    f"perturbation mode must be an integer >= 2, got {self.mode}")
            if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
                raise PreconditionError(
                    f"perturbation amplitude must be finite and >= 0, "
                    f"got {self.amplitude}")
        if self.kind == "tabulated":
            pts = np.asarray(self.samples, dtype=float) if self.samples is not None else None
            if pts is None or pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 8:
                raise PreconditionError(
                    "tabulated curves need an (N, 3) sample array with N >= 8")
            norms = np.linalg.norm(pts, axis=1)
            off = float(np.max(np.abs(norms - 1.0)))
            if off > 1e-10:
                raise PreconditionError(
                    f"tabulated samples must lie on the unit sphere: "
                    f"max |1 - |p|| = {off:.3e} exceeds 1e-10")


@dataclass(frozen=True)
class SampledCurve:
    """Arc-length-sampled loop with its curvature field."""

    s: np.ndarray
    gamma: np.ndarray
    kappa: np.ndarray
    length: float
    deriv_error: float  # estimated curvature error of the differencing stage

    @property
    def n_samples(self) -> int:
        return self.s.shape[0]


def _latitude_point(theta: float, u: np.ndarray) -> np.ndarray:
    # clockwise seen from +z; see module docstring for the sign convention
    st, ct = math.sin(theta), math.cos(theta)
    return np.stack([st * np.cos(u), -st * np.sin(u),
                     np.full_like(u, ct)], axis=1)


def _polar_direction(theta: float, u: np.ndarray) -> np.ndarray:
    # unit tangent of the sphere in the direction of increasing polar angle
    st, ct = math.sin(theta), math.cos(theta)
    return np.stack([ct * np.cos(u), -ct * np.sin(u),
                     np.full_like(u, -st)], axis=1)


def _preset_points(spec: CurveSpec, u: np.ndarray) -> np.ndarray:
    # the latitude or perturbed-latitude map at curve parameters u
    if spec.kind == "latitude_circle":
        return _latitude_point(spec.theta, u)
    bump = spec.amplitude * np.sin(spec.mode * u)
    p = _latitude_point(spec.theta, u) + bump[:, None] * _polar_direction(spec.theta, u)
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def _chord_table(points: np.ndarray):
    closed = np.vstack([points, points[:1]])
    chords = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    if np.min(chords) <= 0.0:
        raise PreconditionError("curve has repeated consecutive samples")
    sigma = np.concatenate([[0.0], np.cumsum(chords)])
    return closed, sigma


def _resample_uniform(points: np.ndarray, n_samples: int) -> np.ndarray:
    from scipy.interpolate import PchipInterpolator
    closed, sigma = _chord_table(points)
    targets = sigma[-1] * np.arange(n_samples) / n_samples
    interp = PchipInterpolator(sigma, closed, axis=0)
    out = interp(targets)
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def _resample_parametric(spec: CurveSpec, n_dense: int,
                         n_samples: int) -> np.ndarray:
    # invert the chord-length table u(sigma) with a monotone cubic and
    # evaluate the analytic map there: the output points lie exactly on the
    # true curve, so the only resampling error is the smooth O(h^2)
    # parametrization drift of the table, and curvature residuals refine
    # cleanly at 2nd order
    from scipy.interpolate import PchipInterpolator
    u = np.linspace(0.0, 2.0 * math.pi, n_dense, endpoint=False)
    _, sigma = _chord_table(_preset_points(spec, u))
    u_of_sigma = PchipInterpolator(sigma, np.append(u, 2.0 * math.pi))
    targets = sigma[-1] * np.arange(n_samples) / n_samples
    return _preset_points(spec, np.asarray(u_of_sigma(targets)))


def _periodic_diff4(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """4th-order periodic central difference, first or second derivative."""
    vm2, vm1 = np.roll(values, 2, axis=0), np.roll(values, 1, axis=0)
    vp1, vp2 = np.roll(values, -1, axis=0), np.roll(values, -2, axis=0)
    if order == 1:
        return (vm2 - 8.0 * vm1 + 8.0 * vp1 - vp2) / (12.0 * h)
    if order == 2:
        return (-vm2 + 16.0 * vm1 - 30.0 * values + 16.0 * vp1 - vp2) / (12.0 * h * h)
    raise ValueError(order)


def _kappa_from_positions(gamma: np.ndarray, h: float) -> np.ndarray:
    d1 = _periodic_diff4(gamma, h, 1)
    d2 = _periodic_diff4(gamma, h, 2)
    return np.einsum("ij,ij->i", np.cross(gamma, d2), d1)


def _self_intersection_check(gamma: np.ndarray, h: float) -> None:
    # pairwise minimum distance over non-adjacent samples (cyclic index gap
    # >= 3) must stay above 2h; adjacent chords sit near h by construction.
    # Only pairs closer than 3h can decide the test, and a KD-tree lists
    # exactly those in O(n) memory; with none left the minimum is infinite.
    from scipy.spatial import cKDTree
    n = gamma.shape[0]
    pairs = cKDTree(gamma).query_pairs(3.0 * h, output_type="ndarray")
    gap = np.abs(pairs[:, 0] - pairs[:, 1])
    pairs = pairs[np.minimum(gap, n - gap) >= 3]
    d2 = np.sum((gamma[pairs[:, 0]] - gamma[pairs[:, 1]]) ** 2, axis=1)
    dmin = math.sqrt(float(np.min(d2, initial=np.inf)))
    if dmin <= 2.0 * h:
        raise PreconditionError(
            f"curve is not simple at this resolution: non-adjacent samples "
            f"approach to {dmin:.3e} <= 2h = {2.0 * h:.3e}")


def geodesic_curvature(curve: SampledCurve) -> np.ndarray:
    """Curvature field <Gamma x Gamma'', Gamma'> recomputed from positions."""
    h = curve.length / curve.n_samples
    return _kappa_from_positions(curve.gamma, h)


def sup_curvature(curve: SampledCurve) -> float:
    return float(np.max(np.abs(curve.kappa)))


def build_curve(spec: CurveSpec, n_samples: int = 1024) -> SampledCurve:
    """Construct an arc-length-uniform SampledCurve from a CurveSpec.

    Parameters
    ----------
    spec : CurveSpec
        Preset (latitude_circle / perturbed_latitude) or tabulated samples.
    n_samples : int
        Output resolution; at least 64.

    Raises
    ------
    PreconditionError
        For invalid specs, off-sphere tabulated input, or a curve that is not
        simple at the requested resolution.
    """
    spec.validate()
    if n_samples < 64:
        raise PreconditionError(f"need n_samples >= 64, got {n_samples}")

    if spec.kind == "tabulated":
        gamma = _resample_uniform(np.asarray(spec.samples, dtype=float),
                                  n_samples)
    else:
        gamma = _resample_parametric(spec, _FINE_FACTOR * n_samples, n_samples)

    # the declared length is the chord total of the output polygon, so the
    # stored s-grid and the grid actually traced agree to rounding
    _, sigma_out = _chord_table(gamma)
    length = float(sigma_out[-1])
    h = length / n_samples
    s = h * np.arange(n_samples)

    _self_intersection_check(gamma, h)

    kappa = _kappa_from_positions(gamma, h)

    # coarse-grid replay of the differencing stage gives an error estimate;
    # too-coarse grids are flagged, not rejected
    if n_samples % 2 == 0:
        kappa_half = _kappa_from_positions(gamma[::2], 2.0 * h)
        deriv_error = float(np.max(np.abs(kappa_half - kappa[::2]))) / 15.0
    else:
        deriv_error = float("nan")
    scale = max(1.0, float(np.max(np.abs(kappa))))
    if deriv_error > 0.01 * scale:
        warnings.warn(
            f"curvature differencing error estimate {deriv_error:.3e} is "
            f"large; consider more samples", stacklevel=2)

    return SampledCurve(s, gamma, kappa, length, deriv_error)


def write_curve_csv(curve: SampledCurve, path) -> None:
    rows = zip(curve.s, *curve.gamma.T, curve.kappa)
    write_csv(path, ["s", "x", "y", "z", "kappa"], rows)


def read_curve_samples(path) -> np.ndarray:
    """Read tabulated curve samples from CSV.

    Accepts headers "x,y,z", "s,x,y,z" or "s,x,y,z,kappa"; the s and kappa
    columns are ignored since the curve is resampled anyway.  A file that
    cannot be read is a ConfigError; a short row or a non-numeric cell is a
    PreconditionError naming its line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read curve file {path}: {exc}") from None
    cols = [c.strip().lower() for c in lines[0]] if lines else []
    first = 1 if cols[:1] == ["s"] else 0
    if cols[first:first + 3] != ["x", "y", "z"]:
        raise PreconditionError(f"{path}: expected header x,y,z or s,x,y,z, "
                                f"got {','.join(cols) or 'an empty file'}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            if line:
                rows.append([float(line[first + j]) for j in range(3)])
        except (IndexError, ValueError):
            raise PreconditionError(f"{path}: line {number} needs numeric "
                                    f"x,y,z, got {line}") from None
    return np.asarray(rows, dtype=float)
