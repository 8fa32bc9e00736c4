"""The curvature-induced operator -d^2/ds^2 - kappa^2/4 on the loop.

Its strictly negative eigenvalues lambda_j determine the constant

    k_S = (1/2pi) * sum_j sqrt(-lambda_j),

the universal slope of the logarithmic eigenvalue-counting law.  Two
discretizations are kept: a truncated real Fourier basis
{1, sqrt2 cos, sqrt2 sin} and periodic finite differences (with
Richardson extrapolation).  Each reads kappa on its own uniform grid, at
the nodes of the trigonometric interpolant of the curve's samples
(`_kappa_on_grid`).  The Fourier matrix has the kinetic symbol
(2pi m/ell)^2 on its diagonal, and kappa^2/4 couples the modes through
the cosine and sine sums of its samples, taken from one FFT.  Its levels
come from a certified solver that first tries a closed form: the mean c
of the potential gives a diagonal matrix, c plus the kinetic symbol, and
Weyl's inequality bounds how far the rest of the potential moves its
levels.  Constant curvature, as on a latitude circle, passes at any
number of samples and needs no eigensolve.  Otherwise only the block of
the lowest 64 modes is solved as a rule, and the coupling of the block's
low eigenvectors to the higher modes, read off FFTs, and a bound on the
higher modes' spectrum certify those levels to within eps times the
whole matrix's norm (a quadratic residual bound, with Cauchy
interlacing).  When both fail, as for curvature with strong high modes
or a non-constant curvature on 129 samples or fewer, `ks_spectrum`
solves the whole Fourier matrix densely.  The fd levels are always the
band solve of the cyclic second difference (`_fd_band`).
Every block and dense eigensolve runs on one OpenBLAS thread, so the
levels, and every byte of the report, do not depend on the thread count
OpenBLAS was started with.  scipy is imported only by the solves that
call it (`eigh` stays a module attribute, a wrapper that imports and calls
scipy's), so a closed-form curve loads none of it.

k_S has one route, `ks_levels`, which both `ks_constant` (the `ks`
report) and the assembled model read: the closed form or certified low
Fourier block on the curve's own samples, else the band-solved fd
levels, never the dense Fourier solve, an order of magnitude slower.
`ks_constant` cross-checks that k_S against the Fourier levels on its own
grid.  Every route reads the same zero band off its levels
(`_ks_of_levels`), and refuses levels whose highest may be negative.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral1d
from .errors import ConvergenceError, PreconditionError
from .geometry import SampledCurve

# an eigenvalue closer to zero than this multiple of its error estimate has
# an ambiguous sign; k_S is then reported with an inclusion/exclusion interval
_ZERO_BAND = 10.0

# modes of the low Fourier block that is solved and certified before the
# full n // 2-mode matrix
_LOW_MODES = 64


@dataclass(frozen=True)
class KsReport:
    """Negative part of the curvature operator spectrum and k_S."""

    ell: float
    eigenvalues: np.ndarray
    negative_part: np.ndarray
    k_S: float
    k_S_uncertainty: tuple
    method_diff: float  # relative difference to the Fourier k_S
    route: str  # "fourier" or "fd", as `KsLevels.route`

    @property
    def verified(self) -> bool:
        return self.method_diff < 1e-4


@dataclass(frozen=True)
class KsSpectrum(spectral1d.EigResult):
    """`ks_spectrum`'s levels and the solver they come from: "block" when
    the certified low block, or its closed form, gave them, else "band"
    (fd) or "dense" (Fourier)."""

    solver: str


def _require_kappa(curve: SampledCurve) -> None:
    if curve.kappa is None or curve.kappa.shape[0] != curve.n_samples:
        raise PreconditionError("curve has no curvature field")
    if not np.all(np.isfinite(curve.kappa)):
        raise PreconditionError("curvature samples must be finite")


def _kappa_on_grid(curve: SampledCurve, n: int) -> np.ndarray:
    """The trigonometric interpolant of the m curvature samples on n uniform
    nodes: a grid that divides the samples reads them, any other is
    zero-padded to n q > m nodes, q least, and every q-th kept."""
    m = curve.n_samples
    if m % n == 0:
        return curve.kappa[::m // n]
    q = -(-m // n)
    spec = np.fft.rfft(curve.kappa)
    if m % 2 == 0:
        spec[-1] *= 0.5  # padded, the Nyquist row stands for two modes
    return np.fft.irfft(spec, n * q)[::q] * (n * q / m)


def _potential(curve: SampledCurve, n: int) -> np.ndarray:
    """q = -kappa^2/4 on n uniform nodes of the loop."""
    kappa = _kappa_on_grid(curve, n)
    return -0.25 * kappa * kappa


def _fourier_symbol(ell: float):
    """m -> (2pi m/ell)^2, -d^2/ds^2 on exp(2pi i m s/ell)."""
    return lambda m: (2.0 * math.pi * m / ell) ** 2


def _real_fourier_matrix(q: np.ndarray, ell: float,
                         m_max: int) -> np.ndarray:
    """Real symmetric matrix of -d^2/ds^2 + q in modes 0 < m <= m_max.

    The basis is {1, sqrt2 cos(2pi m s/ell), sqrt2 sin(2pi m s/ell)}, in that
    block order.  For real q it spans the same space as exp(2pi i m s/ell),
    |m| <= m_max, and gives the same eigenvalues.  q enters through its
    discrete cosine and sine sums a_k, b_k, k <= 2 m_max, read off one FFT
    of its samples (k taken mod n).  The kinetic diagonal is
    `_fourier_symbol(ell)`.
    """
    n = q.shape[0]
    f = np.fft.fft(q)[np.arange(2 * m_max + 1) % n] / n
    a, b = f.real, -f.imag
    m = np.arange(1, m_max + 1)
    kin = np.diag(_fourier_symbol(ell)(m))
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


def _norm_bound(c: np.ndarray) -> float:
    """Upper bound on ||Q||_2, Q the q part of `_real_fourier_matrix` at
    m_max = n // 2, from c = |fft(q)| / n, the magnitudes of the discrete
    Fourier coefficients of q on its n samples.

    In the modes exp(2pi i m s/ell), |m| <= m_max, Q is the Hermitian
    Toeplitz matrix (c_{(m-j) mod n}) of those coefficients, with the same
    eigenvalues.  Its 2-norm is at most its largest absolute row sum, and
    each row runs over 2 m_max + 1 consecutive m - j: every residue mod n
    once, and for even n one residue twice.
    """
    return float(np.sum(c) + (np.max(c) if c.shape[0] % 2 == 0 else 0.0))


def _high_mode_residuals(q: np.ndarray, vecs: np.ndarray, m_low: int,
                         m_max: int) -> np.ndarray:
    """Coupling of the low block's vectors to the modes m_low < m <= m_max.

    vecs holds coefficient vectors in the basis of
    `_real_fourier_matrix(q, ell, m_low)`, one per column, with
    m_low < n/2.  Row j of the result is the cos then sin coefficients of
    q v_j on the high modes.  Every entry of the full matrix is the discrete
    inner product (1/n) sum phi_i q phi_j on the n samples and its kinetic
    part is diagonal, so these are exactly the full matrix's coupling block
    times vecs: each v_j is synthesized on the grid, multiplied by q and
    analysed by one FFT, with no dense product.
    """
    n = q.shape[0]
    spec = np.zeros((vecs.shape[1], n // 2 + 1), dtype=complex)
    spec[:, 0] = n * vecs[0]
    spec[:, 1:m_low + 1] = (n / math.sqrt(2.0)) * (
        vecs[1:m_low + 1] - 1j * vecs[m_low + 1:]).T
    qv = q * np.fft.irfft(spec, n)
    w = np.fft.rfft(qv)[:, m_low + 1:m_max + 1] * (math.sqrt(2.0) / n)
    return np.concatenate([w.real, -w.imag], axis=1)


def _low_block_levels(q: np.ndarray, ell: float, k: int):
    """The k lowest levels of the M = n // 2-mode Fourier matrix
    -d^2/ds^2 + q, in closed form when q is constant to within the
    tolerance below, else from its _LOW_MODES-mode block; None when neither
    can certify them.

    symbol is `_fourier_symbol(ell)`, which rises with m.  Levels are
    accepted within eps symbol(M) = eps (2pi M/ell)^2, the scale of the
    whole matrix's norm.

    First, with c the mean of q, the matrix is (K + Q(c)) + Q(q - c), and
    K + Q(c) is diagonal: c + symbol(m) on the cos and sin rows of m < n/2,
    and for even n the Nyquist rows hold 2c + symbol(M) and symbol(M) (the
    sin row vanishes on the grid).  By Weyl's inequality each level lies
    within delta = `_norm_bound` of q - c of that diagonal's, read off the
    FFT of q the block needs anyway.  So when delta is within the
    tolerance, as for a latitude circle's constant curvature, and the k
    lowest entries c + symbol(m), m = 0, 1, 1, 2, 2, ... < n/2, lie at or
    below every Nyquist row, they are the levels.

    Otherwise the block's lowest t Ritz pairs (Lam_j, v_j) couple to the rest
    of the full matrix only through the residuals r_j of
    `_high_mode_residuals`.  The rest has no eigenvalue below beta_t, the
    smaller eigenvalue of [[Lam_{t+1}, qb], [qb, h]], where qb bounds ||Q||
    and h = symbol(_LOW_MODES + 1) - qb bounds the high modes' block from
    below.  For the first t >= k with beta_t > Lam_t (this closes degenerate
    cos/sin pairs) the quadratic residual bound of C.-K. Li & R.-C. Li
    (Linear Algebra Appl. 395 (2005) 183-190) and Cauchy interlacing give
    Lam_j - sum ||r_j||^2 / (beta_t - Lam_t) <= lambda_j <= Lam_j, accepted
    when that gap is within the tolerance.  With M <= _LOW_MODES the block
    is the whole matrix, and this returns None.  The block solve runs on one
    OpenBLAS thread.
    """
    symbol = _fourier_symbol(ell)
    n = q.shape[0]
    m_max, m_low = n // 2, _LOW_MODES
    tol = np.finfo(float).eps * symbol(m_max)
    spec = np.fft.fft(q)
    coef = np.abs(spec) / n
    mean = spec[0].real / n
    ripple = coef.copy()
    ripple[0] = 0.0  # the coefficients of q - c
    if _norm_bound(ripple) <= tol:
        levels = np.repeat(mean + symbol(np.arange((n + 1) // 2)), 2)[1:k + 1]
        if levels.shape[0] == k and (
                n % 2 or levels[-1] <= symbol(m_max) + 2.0 * min(mean, 0.0)):
            return levels
    if m_max <= m_low:
        return None
    # divide and conquer: every eigenpair, at a third of the default's time
    with _one_blas_thread():
        lam, vecs = eigh(_real_fourier_matrix(q, ell, m_low), driver="evd")
    qb = _norm_bound(coef)
    h = symbol(m_low + 1) - qb
    nxt = lam[k:]
    beta = 0.5 * (nxt + h) - np.sqrt((0.5 * (nxt - h)) ** 2 + qb * qb)
    gapped = np.flatnonzero(beta > lam[k - 1:-1])
    if gapped.size == 0:
        return None
    t = k + int(gapped[0])
    r = _high_mode_residuals(q, vecs[:, :t], m_low, m_max)
    shift = float(np.sum(r * r)) / (beta[t - k] - lam[t - 1])
    return lam[:k] if shift <= tol else None


def eigh(*args, **kwargs):
    """scipy.linalg.eigh, imported on first call, so that a closed-form
    curvature operator loads no scipy."""
    from scipy.linalg import eigh
    return eigh(*args, **kwargs)


# thread-count entry points of OpenBLAS builds, 64-bit-integer ones first
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads() -> tuple:
    """((get, set),): the thread-count functions of the OpenBLAS that scipy's
    LAPACK wrappers call, or () when they call no OpenBLAS.

    `scipy.linalg` has loaded `cython_lapack`, and a symbol lookup on that
    library searches the libraries it was linked against too.
    """
    import ctypes

    import scipy.linalg

    lib = ctypes.CDLL(scipy.linalg.cython_lapack.__file__)
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return ((get, set_),)
    return ()


@contextlib.contextmanager
def _one_blas_thread():
    """Run a solve on one OpenBLAS thread; restore the old count after.

    A dense eigensolve's rounding depends on how OpenBLAS splits its
    products over threads, and at these sizes a second thread saves no time
    but keeps spinning after the solve.
    """
    apis = _openblas_threads()
    old = [get() for get, _ in apis]
    try:
        for _, set_ in apis:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(apis, old):
            set_(count)


def _fd_band(curve: SampledCurve, n: int, k: int) -> KsSpectrum:
    """The k lowest levels of the cyclic second difference on n nodes,
    with the Richardson error (fine - coarse) / 3 against n // 2 nodes on
    the lowest min(k, n // 2).

    The matrix has 2/h^2 + q on its diagonal, h = ell / n, and -1/h^2 to
    each node's two circle neighbours.  In the node order 0, n-1, 1, n-2,
    ... those sit at most two places away: always two places, and one place
    only at the order's ends (nodes 0 and n-1, and the middle two).  So it
    is a symmetric band of half-bandwidth 2, solved by LAPACK sbevx.
    """
    from scipy.linalg import eig_banded

    def levels(m: int, j: int) -> np.ndarray:
        h = curve.length / m
        h2 = h * h
        order = np.empty(m, dtype=np.intp)
        order[0::2] = np.arange((m + 1) // 2)
        order[1::2] = m - 1 - np.arange(m // 2)
        band = np.zeros((3, m))
        band[0, 2:] = band[1, 1] = band[1, -1] = -1.0 / h2
        band[2] = (2.0 / h2 + _potential(curve, m))[order]
        try:
            return eig_banded(band, eigvals_only=True, select="i",
                              select_range=(0, j - 1))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK
            raise ConvergenceError(f"fd band solve failed: {exc}") from exc

    vals, k_c = levels(n, k), min(k, n // 2)
    rich = np.zeros(k)
    rich[:k_c] = (vals[:k_c] - levels(n // 2, k_c)) / 3.0
    return KsSpectrum(vals, None, rich, "band")


def ks_spectrum(curve: SampledCurve, n: int, method: str = "fd",
                k: int = 16) -> KsSpectrum:
    """Low eigenvalues of -d^2/ds^2 - kappa^2/4 on the circle of length ell.

    method "fd" band-solves the cyclic second difference on n nodes, with
    the Richardson error against n // 2 nodes (`_fd_band`).  method
    "fourier" diagonalizes in the real truncated Fourier basis
    {1, sqrt2 cos(2pi m s/ell), sqrt2 sin(2pi m s/ell)}, 0 < m <= n/2,
    from its closed form or certified low block
    (`_low_block_levels`) when it can and as a whole otherwise, on one
    OpenBLAS thread.  k may not exceed the basis size: n for "fd",
    2 (n // 2) + 1 for "fourier".
    """
    _require_kappa(curve)
    if n < 128:
        raise PreconditionError(f"need n >= 128, got {n}")
    size = 2 * (n // 2) + 1 if method == "fourier" else n
    if not 1 <= k <= size:
        raise PreconditionError(
            f"need 1 <= k <= {size}, the {method} basis size at n = {n}, "
            f"got k = {k}")
    ell = curve.length
    if method == "fd":
        return _fd_band(curve, n, k)
    if method == "fourier":
        try:
            q = _potential(curve, n)
            vals, solver = _low_block_levels(q, ell, k), "block"
            if vals is None:
                with _one_blas_thread():
                    vals, solver = eigh(
                        _real_fourier_matrix(q, ell, n // 2),
                        eigvals_only=True, subset_by_index=[0, k - 1]), "dense"
        except MemoryError as exc:
            raise PreconditionError(
                f"the Fourier basis at n = {n} needs a dense {size} x {size} "
                f"matrix ({8.0 * size * size / 2.0**30:.3g} GiB), which could "
                f"not be allocated; lower n_fourier") from exc
        return KsSpectrum(np.asarray(vals), None, np.zeros(k), solver)
    raise PreconditionError(f"unknown method {method!r}")


class KsLevels(NamedTuple):
    """Low levels of the curvature operator, their zero band and k_S."""

    eigenvalues: np.ndarray
    ambiguous: np.ndarray
    negative_part: np.ndarray
    k_S: float
    k_S_uncertainty: tuple
    route: str  # "fd" or "fourier", the discretization the levels come from


def _ks_of_levels(vals: np.ndarray, errs: np.ndarray, route: str) -> KsLevels:
    """k_S from the certainly negative levels, with its zero band.

    Each level's error is the route's estimate errs plus a floor of
    1e-12 max(1, |lambda|).  A level within _ZERO_BAND times its error of 0
    cannot be told apart from a zero mode (e.g. the geodesic ground mode
    at -1e-12): it is left out of the point estimate, as a zero mode
    contributes nothing, and the high end of k_S_uncertainty shows what
    including it would add.  The highest level must be certainly positive,
    or a level past it could be negative too and k_S would miss it.
    """
    errs = errs + 1e-12 * np.maximum(1.0, np.abs(vals))
    ambiguous = np.abs(vals) < _ZERO_BAND * errs
    if vals[-1] < 0.0 or ambiguous[-1]:
        raise PreconditionError(
            f"the highest of the {vals.shape[0]} levels computed, "
            f"{vals[-1]:.6g}, is not certainly positive, so k_S could miss "
            f"negative levels; raise --k (ks) or --n-modes (assemble)")
    neg_certain = vals[(vals < 0.0) & ~ambiguous]
    ks_point = float(np.sum(np.sqrt(-neg_certain))) / (2.0 * math.pi)
    ks_hi = float(np.sum(np.sqrt(np.abs(vals[(vals < 0.0) | ambiguous])))) \
        / (2.0 * math.pi)
    return KsLevels(vals, ambiguous, neg_certain, ks_point, (ks_point, ks_hi),
                    route)


def ks_levels(curve: SampledCurve, k: int, n_fd: int = 1024) -> KsLevels:
    """The k lowest levels and k_S, as `ks` and `assemble` report them.

    The closed form or certified low Fourier block on the curve's own
    samples (`_low_block_levels`) gives them, each within eps (2pi M/ell)^2,
    M = n_samples // 2, of the whole matrix's level: twice that is each
    level's error.  A dense LAPACK solve of that matrix is less exact
    (syevd misses the closed form by up to 4.4 eps (2pi M/ell)^2), so its
    levels would need a wider zero band; none is taken here.  Constant
    curvature certifies in closed form at any number of samples.  A
    curvature that varies cannot certify on 129 samples or fewer, nor with
    strong modes above 64; then the band-solved fd levels on n_fd nodes
    (`ks_spectrum` "fd") give them, with their Richardson errors.
    """
    _require_kappa(curve)
    n, ell = curve.n_samples, curve.length
    vals = _low_block_levels(_potential(curve, n), ell, k)
    if vals is not None:
        err = 2.0 * np.finfo(float).eps * _fourier_symbol(ell)(n // 2)
        return _ks_of_levels(vals, np.full(k, err), "fourier")
    fd = ks_spectrum(curve, n_fd, "fd", k=k)
    return _ks_of_levels(fd.extrapolated, np.abs(fd.richardson_error), "fd")


def ks_constant(curve: SampledCurve, n_fd: int = 1024, n_fourier: int = 512,
                k: int = 12) -> KsReport:
    """`ks_levels`' k_S, cross-checked against the Fourier levels on
    n_fourier nodes.

    The Fourier values are spectrally accurate for smooth curvature.  The
    report is flagged verified when the two k_S values agree to 1e-4.
    """
    got = ks_levels(curve, k, n_fd)
    fvals = ks_spectrum(curve, n_fourier, "fourier", k=k).values
    # same zero band; the error estimates of ks_levels set it for both
    f_certain = fvals[(fvals < 0.0) & ~got.ambiguous]
    ks_fourier = float(np.sum(np.sqrt(-f_certain))) / (2.0 * math.pi)
    denom = max(abs(got.k_S), abs(ks_fourier), 1e-30)
    return KsReport(
        ell=curve.length,
        eigenvalues=got.eigenvalues,
        negative_part=got.negative_part,
        k_S=got.k_S,
        k_S_uncertainty=got.k_S_uncertainty,
        method_diff=abs(got.k_S - ks_fourier) / denom,
        route=got.route,
    )
