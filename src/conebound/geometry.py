"""Smooth loops on the unit sphere: presets, arclength sampling, curvature.

A curve is handed around as a SampledCurve: positions Gamma(s_i) at n equal
steps of arclength, the geodesic curvature kappa = <Gamma x Gamma'', Gamma'>
there, the true length, and the spectral tail of the samples it came from.

Every curve takes one spectral route from samples at equal steps of a
smooth periodic parameter u: a preset's map at 2n steps, or tabulated rows
as given.  Their FFT, less coefficients below 1e-15 of the largest, gives
the speed and kappa = <gamma x gamma_uu, gamma_u> / |gamma_u|^3 in u, and
the speed's Fourier series the length L and s(u) (Trefethen & Weideman,
SIAM Rev. 56 (2014) 385-458).  Newton's method on Lagrange interpolation
of those tables solves s(u_i) = i L / n.  Tables whose speed and kappa are
constant to a few ulp, and whose s(u) is L u / 2 pi to the Newton
tolerance, are a circle: u_i = 2 pi i / n, and kappa is the exactly
rounded mean of its table at every sample, with no Newton step (tabulated
rows still interpolate their positions there).  The path is chosen by the
tables, never by the preset kind.  The spectral tail, the largest
coefficient in the top quarter of the samples' spectrum over the largest,
says how well they resolve the loop; above 1e-10 it is refused.

Orientation convention: latitude presets are traversed so that the geodesic
curvature of a latitude circle at polar angle theta comes out +cot(theta)
with the normal n = Gamma x Gamma' pointing toward the south pole side.
Tabulated curves keep their given orientation.

Every build checks that the samples form a simple loop.  Schur's chord
comparison (S. S. Chern, "Curves and surfaces in Euclidean space", MAA
Studies in Mathematics 4, 1967) proves that from a bound on the space
curvature, sqrt(1 + kappa^2) on the unit sphere, in a few numpy calls.
The only scipy this module uses is `scipy.spatial`'s KD-tree in the exact
search that runs when that proof cannot decide, imported there, so that a
curve the proof certifies loads no scipy, and `counting`, which needs only
`SampledCurve` and `sup_curvature`, stays scipy-free.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._serial import write_csv
from .errors import ConfigError, ConvergenceError, PreconditionError

_PRESET_SAMPLES = 2  # preset map samples per output sample
_DROP = 1e-15  # Fourier coefficients below this share of the largest go
_TAIL_BOUND = 1e-10  # largest spectral tail of a resolved curve
_TABLE_ROWS = 32  # rows of the tables in u per retained Fourier mode
_STENCIL = 12  # nodes of the Lagrange interpolation on those tables
_BLOCK = 512  # points interpolated at a time, to bound working memory
_NEWTON_STEPS = 8
_EPS = np.finfo(float).eps
_NEWTON_TOL = 8.0 * _EPS  # arclength residual, per unit length
# the most ulp by which the speed and kappa tables of a circle vary; they
# vary by at most 2.5 and 6 on latitudes, and by 93 and 1442 on a latitude
# perturbed by 1e-14
_FLAT_ULPS = 16
# the simplicity certificate's space-curvature bound over the one read off
# the tables, for kappa between their rows and the normalization of
# tabulated curves; and the most coarse samples it compares pairwise
_SCHUR_MARGIN = 1.25
_SCHUR_COARSE = 64
# 1 / prod_{l != k} (k - l) on the stencil's nodes 0 .. _STENCIL - 1
_LAGRANGE = np.array([(-1.0) ** (_STENCIL - 1 - k) * math.comb(
    _STENCIL - 1, k) for k in range(_STENCIL)]) / math.factorial(_STENCIL - 1)

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
    spectral_tail: float  # largest top-quarter Fourier coefficient, relative

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


def _coefficients(points: np.ndarray):
    """Fourier coefficients of samples at equal steps of u, less those below
    _DROP of the largest, through the highest kept; and the spectral tail."""
    n = points.shape[0]
    coef = np.fft.rfft(points, axis=0) / n
    mag = np.abs(coef)
    size = np.max(mag, axis=1)
    top = float(np.max(size))
    coef[mag < _DROP * top] = 0.0
    kept = int(np.flatnonzero(size >= _DROP * top)[-1])
    if n % 2 == 0 and kept == n // 2:
        coef[kept] *= 0.5  # the Nyquist row stands for two modes
    return coef[:kept + 1], float(np.max(size[3 * (n // 2) // 4:])) / top


def _interpolate(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The _STENCIL-point Lagrange interpolant at u of a periodic table of
    rows at u_j = 2 pi j / rows, _BLOCK points at a time."""
    m = table.shape[0]
    # window j of a column is the stencil of a point in [u_j, u_{j+1}):
    # rows j + 1 - _STENCIL / 2 .. j + _STENCIL / 2, node k offsets[k] back
    windows = np.lib.stride_tricks.sliding_window_view(
        table.T[:, np.arange(1 - _STENCIL // 2, m + _STENCIL // 2) % m],
        _STENCIL, axis=1)
    offsets = (_STENCIL // 2 - 1 - np.arange(_STENCIL))[:, None]
    out = np.empty((u.shape[0], table.shape[1]))
    for lo in range(0, u.shape[0], _BLOCK):
        x = u[lo:lo + _BLOCK] * (m / (2.0 * math.pi))
        start = np.floor(x)
        # barycentric weights (Higham, IMA J. Numer. Anal. 24 (2004)
        # 547-556); a node hit to rounding is moved off it, by 1e-300 or by
        # an ulp below the next, which leaves it weight 1 and the others 0
        d = np.clip(x - start, 1e-300, np.nextafter(1.0, 0.0)) + offsets
        weights = _LAGRANGE[:, None] / d * np.prod(d, axis=0)
        out[lo:lo + _BLOCK] = np.einsum(
            "cij,ji->ic", windows[:, start.astype(np.intp) % m], weights)
    return out


def _flat(column: np.ndarray, floor: float = 0.0) -> bool:
    """True when a table column is constant to _FLAT_ULPS ulp of its
    largest magnitude, or of floor where that is larger."""
    scale = max(floor, float(np.max(np.abs(column))))
    return float(np.ptp(column)) <= _FLAT_ULPS * _EPS * scale


def _spectral_curve(points: np.ndarray, n: int,
                    spec: Optional[CurveSpec] = None):
    """(gamma, kappa, length, tail, bend) at n equal steps of arclength
    along the loop sampled by points at equal steps of a smooth periodic
    parameter u; gamma is spec's map there, or the points' trigonometric
    interpolant, and bend the largest |kappa| on the tables in u and at
    the samples."""
    # a sample repeating the one before to rounding is no step of a parameter
    chords = np.linalg.norm(np.diff(points, axis=0, append=points[:1]), axis=1)
    if not np.all(chords > _EPS * np.sum(chords)):
        raise PreconditionError("curve has repeated consecutive samples")
    coef, tail = _coefficients(points)
    if tail > _TAIL_BOUND:
        raise PreconditionError(
            f"the samples do not resolve the curve: spectral tail "
            f"{tail:.3e} exceeds {_TAIL_BOUND:g}; sample it more finely")
    m = max(_TABLE_ROWS * coef.shape[0], 2 * _STENCIL)
    k = np.arange(coef.shape[0])[:, None]
    gamma = np.fft.irfft(coef, m, axis=0) * m
    gamma_u = np.fft.irfft(1j * k * coef, m, axis=0) * m
    gamma_uu = np.fft.irfft(-(k * k) * coef, m, axis=0) * m
    speed = np.sqrt(np.einsum("ij,ij->i", gamma_u, gamma_u))
    kappa = np.einsum("ij,ij->i", np.cross(gamma, gamma_uu),
                      gamma_u) / speed ** 3
    # s(u) = length u / 2 pi + wave(u), wave from the speed's series
    series = np.fft.rfft(speed) / m
    length = 2.0 * math.pi * float(series[0].real)
    series[0] = series[-1] = 0.0
    series[1:] /= 1j * np.arange(1, series.shape[0])
    wave = np.fft.irfft(series, m) * m
    wave -= wave[0]
    if _flat(speed) and _flat(kappa, 1.0) and \
            float(np.max(np.abs(wave))) <= _NEWTON_TOL * length:
        # a circle: s(u) = length u / 2 pi already meets the Newton
        # tolerance, and kappa is the tables' constant
        u = 2.0 * math.pi * np.arange(n) / n
        kappa_s = np.full(n, math.fsum(kappa) / m)
        at_gamma = _interpolate(gamma, u) if spec is None else None
    else:
        table = np.column_stack([wave, speed, kappa]
                                + [gamma] * (spec is None))
        # Newton steps on the interpolated s(u), from the inverse of the
        # table read linearly, until the residual is rounding
        target = length * np.arange(n) / n
        u = np.interp(target,
                      np.append(length * np.arange(m) / m + wave, length),
                      2.0 * math.pi * np.arange(m + 1) / m)
        for _ in range(_NEWTON_STEPS):
            at_u = _interpolate(table, u)
            r = length * u / (2.0 * math.pi) + at_u[:, 0] - target
            if np.max(np.abs(r)) <= _NEWTON_TOL * length:
                break
            u = u - r / at_u[:, 1]
        else:
            raise ConvergenceError(f"arclength inversion left a residual of "
                                   f"{np.max(np.abs(r)):.3e}")
        kappa_s, at_gamma = at_u[:, 2], at_u[:, 3:]
    gamma = at_gamma / np.linalg.norm(at_gamma, axis=1, keepdims=True) \
        if spec is None else _preset_points(spec, u)
    bend = max(float(np.max(np.abs(kappa))), float(np.max(np.abs(kappa_s))))
    return gamma, kappa_s, length, tail, bend


def _simple_by_curvature(gamma: np.ndarray, h: float, bend: float) -> bool:
    """True when the space-curvature bound K = _SCHUR_MARGIN sqrt(1 +
    bend^2) proves that samples at arclength steps h of a loop keep every
    pair at cyclic index gap >= 3 farther apart than 2h; False when it
    cannot decide.

    Schur: points at arclength sigma <= pi / K apart on an arc of space
    curvature <= K are at least (2 / K) sin(K sigma / 2) apart, a bound
    that rises with sigma.  So every gap 3 .. G = floor(pi / (K h)) clears
    2h when sin(3 K h / 2) > K h.  Every sample lies within arclength
    q h / 2 of a coarse sample gamma[k q], q = max(1, G // 4), so coarse
    samples at gap >= G - q farther apart than (2 + q) h clear the gaps
    above G; past _SCHUR_COARSE coarse samples this is left undecided."""
    n = gamma.shape[0]
    bound = _SCHUR_MARGIN * math.sqrt(1.0 + bend * bend)
    # sin(3x/2) > x needs x < 1, which also turns away a NaN or inf bound
    if not (bound * h < 1.0 and math.sin(1.5 * bound * h) > bound * h):
        return False
    span = int(math.pi / (bound * h))
    q = max(1, span // 4)
    idx = np.arange(0, n, q)
    if idx.shape[0] > _SCHUR_COARSE:
        return False
    coarse = gamma[idx]
    gap = np.abs(idx[:, None] - idx[None, :])
    far = np.minimum(gap, n - gap) >= span - q
    d2 = np.sum((coarse[:, None, :] - coarse[None, :, :]) ** 2, axis=2)
    # the slack covers samples that sit at arclength i h only to rounding
    # (and, on tabulated curves, to the normalization onto the sphere)
    return bool(np.all(d2[far] > ((2.0 + q) * h * (1.0 + 1e-9)) ** 2))


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
    """Curvature field <Gamma x Gamma'', Gamma'> recomputed from the
    positions by 4th-order periodic central differences: a check on the
    stored field, which it misses by O(h^4)."""
    g, h = curve.gamma, curve.length / curve.n_samples
    # four shifted views of one copy padded by two wrapped rows at each end
    padded = np.concatenate([g[-2:], g, g[:2]])
    vm2, vm1, vp1, vp2 = (padded[j:j + g.shape[0]] for j in (0, 1, 3, 4))
    d1 = (vm2 - 8.0 * vm1 + 8.0 * vp1 - vp2) / (12.0 * h)
    d2 = (-vm2 + 16.0 * vm1 - 30.0 * g + 16.0 * vp1 - vp2) / (12.0 * h * h)
    return np.einsum("ij,ij->i", np.cross(g, d2), d1)


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
        For invalid specs, off-sphere or repeated tabulated samples, a
        spectral tail above 1e-10, a curve that is not simple at the
        requested resolution, or an n_samples too large to allocate.
    ConvergenceError
        If the arclength inversion does not reach rounding.
    """
    spec.validate()
    if n_samples < 64:
        raise PreconditionError(f"need n_samples >= 64, got {n_samples}")

    try:
        if spec.kind == "tabulated":
            points, spec = np.asarray(spec.samples, dtype=float), None
        else:
            points = _preset_points(spec, np.linspace(
                0.0, 2.0 * math.pi, _PRESET_SAMPLES * n_samples,
                endpoint=False))
        gamma, kappa, length, tail, bend = _spectral_curve(
            points, n_samples, spec)
    except (MemoryError, ValueError) as exc:
        raise PreconditionError(
            f"cannot allocate a curve of n_samples = {n_samples:.6g}") from exc
    h = length / n_samples
    if not _simple_by_curvature(gamma, h, bend):
        _self_intersection_check(gamma, h)
    return SampledCurve(h * np.arange(n_samples), gamma, kappa, length, tail)


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
