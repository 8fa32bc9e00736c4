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
A preset's table is summed in blocks of n_samples chords, each block
starting from the last one's total, so only the parameters and the table
are held at full 8n + 1 length; np.cumsum adds in order, so the blocked
table is the one-shot table bit for bit.

The cubic is `_pchip`: Fritsch & Carlson's monotone slopes (SIAM J. Numer.
Anal. 17 (1980) 238-246) with the end slopes of Moler's `pchiptx`
(Numerical Computing with MATLAB, sec. 3.6), in scipy's operation order,
so it returns the values of scipy's PchipInterpolator bit for bit.  It
takes slopes only at the nodes that bracket a target, not at all 8n + 1
nodes of the dense table.  The curvature operator interpolates kappa onto
its grids with it too.

Orientation convention: latitude presets are traversed so that the geodesic
curvature of a latitude circle at polar angle theta comes out +cot(theta)
with the normal n = Gamma x Gamma' pointing toward the south pole side.
Tabulated curves keep their given orientation.

The only scipy this module uses is `scipy.spatial`'s KD-tree in the
self-intersection check, imported there, so that `counting`, which needs
only `SampledCurve` and `sup_curvature`, stays scipy-free.
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
            if not off <= 1e-10:  # a NaN coordinate is off the sphere too
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


def _preset_points(spec: CurveSpec, u: np.ndarray) -> np.ndarray:
    # the latitude or perturbed-latitude map at curve parameters u: the
    # latitude point, traversed clockwise seen from +z (see the module
    # docstring for the sign convention), pushed by the bump along the unit
    # polar direction (ct cos u, -ct sin u, -st) and put back on the sphere
    st, ct = math.sin(spec.theta), math.cos(spec.theta)
    cu, su = np.cos(u), np.sin(u)
    p = np.empty((u.shape[0], 3))
    if spec.kind == "latitude_circle":
        p[:, 0], p[:, 1], p[:, 2] = st * cu, -st * su, ct
        return p
    bump = spec.amplitude * np.sin(spec.mode * u)
    x = st * cu + bump * (ct * cu)
    y = -st * su + bump * (-ct * su)
    z = ct + bump * -st
    r = np.sqrt(x * x + y * y + z * z)
    p[:, 0], p[:, 1], p[:, 2] = x / r, y / r, z / r
    return p


def _running_chords(path: np.ndarray, carry: float = 0.0) -> np.ndarray:
    # carry, then carry plus the running sum of the chords along the path
    dx, dy, dz = np.diff(path, axis=0).T
    chords = np.sqrt(dx * dx + dy * dy + dz * dz)
    sigma = np.cumsum(np.concatenate([[carry], chords]))
    # a chord lost to the rounding of the running sum repeats a sample as
    # surely as a zero chord, and the cubic needs strictly increasing nodes
    if not np.all(sigma[1:] > sigma[:-1]):
        raise PreconditionError("curve has repeated consecutive samples")
    return sigma


def _chord_table(points: np.ndarray):
    closed = np.vstack([points, points[:1]])
    return closed, _running_chords(closed)


def _end_slope(h0, h1, m0, m1):
    # Moler's one-sided three-point end slope, held to the data's shape
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    over = (~flip & (np.sign(m0) != np.sign(m1))
            & (np.abs(d) > 3.0 * np.abs(m0)))
    d[flip] = 0.0
    d[over] = 3.0 * m0[over]
    return d


def _pchip(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Monotone cubic through (x, y) at t: PchipInterpolator(x, y)(t) bit
    for bit, extrapolating from the end pieces.

    Fritsch-Carlson slopes, taken only at the nodes that bracket a target:
    the weighted harmonic mean of the adjacent chord slopes, zero where one
    is zero or they differ in sign, and Moler's end slopes.  The Hermite
    coefficients and the power sum follow scipy's operation order.  x is
    strictly increasing with at least 3 nodes; y has x's length on axis 0.
    """
    m = x.shape[0]
    yy = y.reshape(m, -1)

    def chord(j):  # widths and slopes of segments j
        h = (x[j + 1] - x[j])[:, None]
        return h, (yy[j + 1] - yy[j]) / h

    i = np.clip(np.searchsorted(x, t, "right") - 1, 0, m - 2)
    k = np.concatenate([i, i + 1])
    c = np.clip(k, 1, m - 2)
    hl, ml = chord(c - 1)
    hr, mr = chord(c)
    w1, w2 = 2 * hr + hl, hr + 2 * hl
    flat = (np.sign(mr) != np.sign(ml)) | (mr == 0) | (ml == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(flat, 0.0, 1.0 / ((w1 / ml + w2 / mr) / (w1 + w2)))
    first, last = k == 0, k == m - 1
    d[first] = _end_slope(hl[first], hr[first], ml[first], mr[first])
    d[last] = _end_slope(hr[last], hl[last], mr[last], ml[last])
    d0, d1 = d[:i.size], d[i.size:]
    h, slope = chord(i)
    bend = (d0 + d1 - 2 * slope) / h
    s = (t - x[i])[:, None]
    s2 = s * s
    # the power sum runs up from 0.0 as scipy's does, so even a -0.0 sample
    # comes out as scipy's +0.0
    out = ((((0.0 + yy[i]) + d0 * s) + ((slope - d0) / h - bend) * s2)
           + (bend / h) * (s2 * s))
    return out.reshape(t.shape + y.shape[1:])


def _resample_uniform(points: np.ndarray, n_samples: int) -> np.ndarray:
    closed, sigma = _chord_table(points)
    targets = sigma[-1] * np.arange(n_samples) / n_samples
    out = _pchip(sigma, closed, targets)
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def _resample_parametric(spec: CurveSpec, n_samples: int) -> np.ndarray:
    # invert the chord-length table u(sigma) with a monotone cubic and
    # evaluate the analytic map there: the output points lie exactly on the
    # true curve, so the only resampling error is the smooth O(h^2)
    # parametrization drift of the table, and curvature residuals refine
    # cleanly at 2nd order.  The table is summed in blocks (see the module
    # docstring); the last block closes the loop at u = 0, as
    # _chord_table's closing row does
    n_dense = _FINE_FACTOR * n_samples
    u = np.linspace(0.0, 2.0 * math.pi, n_dense, endpoint=False)
    sigma = np.empty(n_dense + 1)
    sigma[0] = 0.0
    for lo in range(0, n_dense, n_samples):
        hi = lo + n_samples
        block = u.take(np.arange(lo, hi + 1), mode="wrap")
        sigma[lo:hi + 1] = _running_chords(_preset_points(spec, block),
                                           sigma[lo])
    targets = sigma[-1] * np.arange(n_samples) / n_samples
    return _preset_points(spec, _pchip(sigma, np.append(u, 2.0 * math.pi),
                                       targets))


def _periodic_diff4(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """4th-order periodic central difference, first or second derivative."""
    # four shifted views of one copy padded by two wrapped rows at each end
    padded = np.concatenate([values[-2:], values, values[:2]])
    vm2, vm1, vp1, vp2 = (padded[j:j + values.shape[0]] for j in (0, 1, 3, 4))
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
        For invalid specs, off-sphere tabulated input, a curve that is not
        simple at the requested resolution, or an n_samples too large to
        allocate.
    """
    spec.validate()
    if n_samples < 64:
        raise PreconditionError(f"need n_samples >= 64, got {n_samples}")

    try:
        if spec.kind == "tabulated":
            gamma = _resample_uniform(np.asarray(spec.samples, dtype=float),
                                      n_samples)
        else:
            gamma = _resample_parametric(spec, n_samples)
    except (MemoryError, ValueError) as exc:
        raise PreconditionError(
            f"cannot allocate a curve of n_samples = {n_samples:.6g}") from exc

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
    write_csv(path, ["s", "x", "y", "z", "kappa"],
              [curve.s, *curve.gamma.T, curve.kappa])


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
