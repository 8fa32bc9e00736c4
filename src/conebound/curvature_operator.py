"""The curvature-induced operator -d^2/ds^2 - kappa^2/4 on the loop.

Its strictly negative eigenvalues lambda_j determine the constant

    k_S = (1/2pi) * sum_j sqrt(-lambda_j),

the universal slope of the logarithmic eigenvalue-counting law.  Two
independent discretizations are kept deliberately separate: periodic finite
differences (with Richardson extrapolation), solved as a symmetric band, and
a truncated real Fourier basis {1, sqrt2 cos, sqrt2 sin} in which the
kinetic part is diagonal and kappa^2/4 acts through the cosine and sine sums
of its samples, assembled by direct summation rather than an FFT so the
result is bitwise deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh

from . import spectral1d
from .errors import PreconditionError
from .geometry import SampledCurve

# an eigenvalue closer to zero than this multiple of its error estimate has
# an ambiguous sign; k_S is then reported with an inclusion/exclusion interval
_ZERO_BAND = 10.0


@dataclass(frozen=True)
class KsReport:
    """Negative part of the curvature operator spectrum and k_S."""

    ell: float
    eigenvalues: np.ndarray
    negative_part: np.ndarray
    k_S: float
    k_S_uncertainty: tuple
    discretization: dict
    cross_check: dict

    @property
    def verified(self) -> bool:
        return bool(self.cross_check.get("verified", False))

    def to_dict(self) -> dict:
        return {
            "ell": self.ell,
            "eigenvalues": list(self.eigenvalues),
            "negative_part": list(self.negative_part),
            "k_S": self.k_S,
            "k_S_uncertainty": list(self.k_S_uncertainty),
            "method_diff": self.cross_check.get("method_diff"),
        }


def _kappa_on_grid(curve: SampledCurve, n: int) -> np.ndarray:
    if n == curve.n_samples:
        return curve.kappa
    # periodic interpolation of the curvature field onto the operator grid
    from scipy.interpolate import PchipInterpolator

    s_ext = np.concatenate([curve.s - curve.length, curve.s,
                            curve.s + curve.length])
    k_ext = np.concatenate([curve.kappa] * 3)
    target = curve.length * np.arange(n) / n
    return PchipInterpolator(s_ext, k_ext)(target)


def _real_fourier_matrix(q: np.ndarray, ell: float, m_max: int) -> np.ndarray:
    """Real symmetric matrix of -d^2/ds^2 + q in modes 0 < m <= m_max.

    The basis is {1, sqrt2 cos(2pi m s/ell), sqrt2 sin(2pi m s/ell)}, in that
    block order.  For real q it spans the same space as exp(2pi i m s/ell),
    |m| <= m_max, and gives the same eigenvalues.  q enters through its
    discrete cosine and sine sums a_k, b_k, k <= 2 m_max, computed by direct
    summation over the sample grid.
    """
    n = q.shape[0]
    # the phase index k j is reduced mod n exactly, so cos and sin are
    # looked up from one period
    idx = np.outer(np.arange(2 * m_max + 1), np.arange(n)) % n
    angle = (2.0 * math.pi / n) * np.arange(n)
    a = np.cos(angle)[idx] @ q / n
    b = np.sin(angle)[idx] @ q / n
    m = np.arange(1, m_max + 1)
    kin = np.diag((2.0 * math.pi * m / ell) ** 2)
    diff = m[:, None] - m[None, :]
    gap, total = np.abs(diff), m[:, None] + m[None, :]
    cs = b[total] - np.sign(diff) * b[gap]
    out = np.empty((2 * m_max + 1, 2 * m_max + 1))
    out[0, 0] = a[0]
    out[0, 1:m_max + 1] = out[1:m_max + 1, 0] = math.sqrt(2.0) * a[m]
    out[0, m_max + 1:] = out[m_max + 1:, 0] = math.sqrt(2.0) * b[m]
    out[1:m_max + 1, 1:m_max + 1] = a[gap] + a[total] + kin
    out[m_max + 1:, m_max + 1:] = a[gap] - a[total] + kin
    out[1:m_max + 1, m_max + 1:] = cs
    out[m_max + 1:, 1:m_max + 1] = cs.T
    return out


def ks_spectrum(curve: SampledCurve, n: int, method: str = "fd",
                k: int = 16) -> spectral1d.EigResult:
    """Low eigenvalues of -d^2/ds^2 - kappa^2/4 on the circle of length ell.

    method "fd" assembles the periodic second-difference operator on n nodes;
    method "fourier" diagonalizes in the real truncated Fourier basis
    {1, sqrt2 cos(2pi m s/ell), sqrt2 sin(2pi m s/ell)}, 0 < m <= n/2.
    k may not exceed the basis size: n for "fd", 2 (n // 2) + 1 for
    "fourier".
    """
    if curve.kappa is None or curve.kappa.shape[0] != curve.n_samples:
        raise PreconditionError("curve has no curvature field")
    if n < 128:
        raise PreconditionError(f"need n >= 128, got {n}")
    size = 2 * (n // 2) + 1 if method == "fourier" else n
    if not 1 <= k <= size:
        raise PreconditionError(
            f"need 1 <= k <= {size}, the {method} basis size at n = {n}, "
            f"got k = {k}")
    ell = curve.length
    kappa = _kappa_on_grid(curve, n)
    q = -0.25 * kappa * kappa
    if method == "fd":
        grid = spectral1d.Grid1D.make(0.0, ell, n, "periodic")
        op = spectral1d.assemble(q, grid, "periodic")

        def q_callable(s):
            kk = _kappa_on_grid(curve, len(s))
            return -0.25 * kk * kk

        return spectral1d.lowest_eigenvalues(op, k, want_vectors=False,
                                             potential=q_callable)
    if method == "fourier":
        m_max = n // 2
        a = _real_fourier_matrix(q, ell, m_max)
        vals = eigh(a, eigvals_only=True, subset_by_index=[0, k - 1])
        grid = spectral1d.Grid1D.make(0.0, ell, n, "periodic")
        return spectral1d.EigResult(np.asarray(vals), None, "periodic", grid,
                                    np.zeros(k))
    raise PreconditionError(f"unknown method {method!r}")


class FdKs(NamedTuple):
    """k_S from the finite-difference levels alone, with its zero band."""

    eigenvalues: np.ndarray
    ambiguous: np.ndarray
    negative_part: np.ndarray
    k_S: float
    k_S_uncertainty: tuple


def ks_fd(curve: SampledCurve, n: int = 1024, k: int = 12) -> FdKs:
    """k_S from the certainly negative Richardson-extrapolated fd levels.

    An eigenvalue within 10x its error estimate of 0 cannot be told apart
    from a zero mode: it is left out of the point estimate (zero modes
    contribute nothing) and the high end of k_S_uncertainty shows what
    including it would add.
    """
    fd = ks_spectrum(curve, n, "fd", k=k)
    vals = fd.extrapolated
    errs = np.abs(fd.richardson_error) + 1e-12 * np.maximum(1.0, np.abs(vals))

    # levels indistinguishable from zero (e.g. the geodesic ground mode at
    # -1e-12) are excluded from the point estimate, as a zero mode would be,
    # and re-included at the high end of the uncertainty interval
    ambiguous = np.abs(vals) < _ZERO_BAND * errs
    neg_certain = vals[(vals < 0.0) & ~ambiguous]
    ks_point = float(np.sum(np.sqrt(-neg_certain))) / (2.0 * math.pi)
    ks_hi = float(np.sum(np.sqrt(np.abs(vals[(vals < 0.0) | ambiguous])))) \
        / (2.0 * math.pi)
    return FdKs(vals[:k], ambiguous, neg_certain, ks_point, (ks_point, ks_hi))


def ks_constant(curve: SampledCurve, n_fd: int = 1024, n_fourier: int = 512,
                k: int = 12) -> KsReport:
    """`ks_fd`'s k_S, cross-checked against the Fourier levels.

    The finite-difference values are Richardson-extrapolated; the Fourier
    values are spectrally accurate for smooth curvature.  The report is
    flagged verified when the two k_S values agree to 1e-4 relative.
    """
    fd = ks_fd(curve, n_fd, k)
    fourier = ks_spectrum(curve, n_fourier, "fourier", k=k)
    fvals = fourier.values
    # same zero band; the fd error estimates set the noise scale for both
    kf = min(fvals.shape[0], fd.ambiguous.shape[0])
    f_certain = fvals[:kf][(fvals[:kf] < 0.0) & ~fd.ambiguous[:kf]]
    ks_fourier = float(np.sum(np.sqrt(-f_certain))) / (2.0 * math.pi)
    denom = max(abs(fd.k_S), abs(ks_fourier), 1e-30)
    diff = abs(fd.k_S - ks_fourier) / denom
    if fd.k_S == 0.0 and ks_fourier == 0.0:
        diff = 0.0

    return KsReport(
        ell=curve.length,
        eigenvalues=fd.eigenvalues,
        negative_part=fd.negative_part,
        k_S=fd.k_S,
        k_S_uncertainty=fd.k_S_uncertainty,
        discretization={"method": "fd", "n": n_fd, "n_fourier": n_fourier,
                        "extrapolated": True},
        cross_check={"k_S_fourier": ks_fourier, "method_diff": diff,
                     "verified": bool(diff < 1e-4),
                     "ambiguous_modes": int(np.sum(fd.ambiguous))},
    )
