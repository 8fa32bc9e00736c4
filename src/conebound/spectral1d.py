"""Discretized one-dimensional Schrodinger operators.

Symmetric second-difference operators on intervals (Dirichlet / Neumann
ends), with three independent spectral probes:

* low eigenvalues and eigenvectors, with a Richardson error estimate from a
  half-grid solve only when the caller passes the operator on that grid.
  lambda_1 and lambda_2 come in O(n) from certified iterations (Parlett,
  The Symmetric Eigenvalue Problem, SIAM 1998): inverse iteration at lower
  shifts that LAPACK pttrf proves, and Rayleigh-quotient iteration
  deflated against the ground state whose index one Sturm count proves (an
  iteration that lands on a higher level is retried once from inverse
  iteration just above lambda_1, deflated against that level too); their
  vectors come from LAPACK stein.  More levels, and any failed
  certificate, fall back to bisection plus inverse iteration (LAPACK
  stebz/stein),
* an O(n) eigenvalue counter from the inertia of A - sigma I: LAPACK
  stebz's Sturm count on the tridiagonal matrix,
* a Prufer-phase shooting counter that never touches the matrix at all.

Grids carry their closure.  Dirichlet grids hold the n interior nodes
a + (i+1) h with h = (b-a)/(n+1).  Neumann grids are cell-centered: n cells
of width h = (b-a)/n, nodes a + (i+1/2) h at the midpoints, zero-flux closure
obtained by mirroring the ghost node across the wall (u_ghost = u_first),
which keeps the matrix exactly symmetric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import (dgttrf, dgttrs, dpttrf, dpttrs, dstebz,
                                  dstein)
# not called here: perfbench/tracing.py patches spectral1d.eigh by name
from scipy.linalg import eigh  # noqa: F401

from .counting import TIE_SHIFT  # the scipy-free home of the constant
from .errors import ConvergenceError, PreconditionError

_OFFSETS = {"dirichlet": 1.0, "neumann": 0.5}
_EPS = np.finfo(float).eps
# iteration steps before a solve falls back to bisection
_MAX_STEPS = 30
# inverse-iteration steps that start lambda_2's one retry
_RETRY_STEPS = 8


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (a, b); its closure sets the spacing and the nodes."""

    a: float
    b: float
    n: int
    kind: str
    h: float

    @staticmethod
    def make(a: float, b: float, n: int, kind: str) -> "Grid1D":
        if kind not in _OFFSETS:
            raise PreconditionError(f"unknown boundary kind {kind!r}")
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise PreconditionError(f"need finite b > a, got ({a}, {b})")
        if n < 16:
            raise PreconditionError(f"need n >= 16, got {n}")
        h = (b - a) / (n + 1) if kind == "dirichlet" else (b - a) / n
        if not (h * h > 0.0 and 2.0 / (h * h) < math.inf):
            raise PreconditionError(
                f"spacing h = {h:.3g} on ({a:.6g}, {b:.6g}) is too fine for "
                f"a finite 2/h^2")
        return Grid1D(float(a), float(b), int(n), kind, h)

    def nodes(self) -> np.ndarray:
        try:
            i = np.arange(self.n, dtype=float)
        except (MemoryError, ValueError) as exc:
            raise PreconditionError(
                f"cannot allocate a grid of n = {self.n:.6g} nodes on "
                f"({self.a:.6g}, {self.b:.6g})") from exc
        return self.a + (i + _OFFSETS[self.kind]) * self.h


@dataclass(frozen=True)
class Operator1D:
    """Symmetric tridiagonal operator."""

    grid: Grid1D
    diag: np.ndarray
    offdiag: np.ndarray


@dataclass(frozen=True)
class EigResult:
    """Ascending eigenvalues with optional h-weighted-normalized vectors.

    richardson_error is the signed estimate (lam_n - lam_{n/2}) / 3 of the
    leading h^2 error, so values + richardson_error is the extrapolated
    eigenvalue; it is all zeros when no half-grid solve was run.
    """

    values: np.ndarray
    vectors: Optional[np.ndarray]
    richardson_error: np.ndarray

    @property
    def extrapolated(self) -> np.ndarray:
        return self.values + self.richardson_error


def assemble(potential_samples, grid: Grid1D) -> Operator1D:
    """Second-difference operator 2/h^2 + V on the diagonal, -1/h^2 off it."""
    v = np.asarray(potential_samples, dtype=float)
    if v.shape != (grid.n,):
        raise PreconditionError(
            f"potential samples have shape {v.shape}, expected ({grid.n},)")
    if not np.all(np.isfinite(v)):
        raise PreconditionError("potential samples must be finite")
    h2 = grid.h * grid.h
    diag = 2.0 / h2 + v
    offdiag = np.full(grid.n - 1, -1.0 / h2)
    if grid.kind == "neumann":
        diag = diag.copy()
        diag[0] -= 1.0 / h2
        diag[-1] -= 1.0 / h2
    return Operator1D(grid, diag, offdiag)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # numpy's own pairwise sum: no BLAS kernel or thread count moves a bit
    return float(np.add.reduce(x * y))


def _rayleigh(d: np.ndarray, e: np.ndarray, y: np.ndarray):
    """The unit vector x = y / ||y||, its Rayleigh quotient rho and the
    residual norm ||T x - rho x||."""
    x = y / math.sqrt(_dot(y, y))
    tx = d * x
    tx[1:] += e * x[:-1]
    tx[:-1] += e * x[1:]
    rho = _dot(x, tx)
    tx -= rho * x
    return x, rho, math.sqrt(_dot(tx, tx))


def _factor_above(d: np.ndarray, e: np.ndarray, sigma: float):
    """LDL^T factors of T - sigma I, or None: LAPACK dpttrf succeeds only
    when T - sigma I is positive definite, which puts every eigenvalue of T
    above sigma."""
    df, ef, info = dpttrf(d - sigma, e)
    return None if info else (df, ef)


def _ground(d, e, x, tol, hint):
    """lambda_1 and its unit vector by inverse iteration from x, or None.

    Every shift sigma is a lower bound on lambda_1, and the Rayleigh
    quotient rho an upper one (Courant-Fischer), so lambda_1 lies in
    (sigma, rho].  The first shift is Gershgorin's lower bound less tol, or
    hint - tol when dpttrf certifies it and it lies higher; each step moves
    it up to rho - ||r|| when dpttrf succeeds there.  The answer is rho
    once rho - sigma <= tol.
    """
    ae = np.abs(e)
    sigma = float(min(d[0] - ae[0], d[-1] - ae[-1],
                      np.min(d[1:-1] - ae[:-1] - ae[1:]))) - tol
    factors = None
    if hint is not None and hint - tol > sigma:
        factors = _factor_above(d, e, hint - tol)
        if factors is not None:
            sigma = hint - tol
            x = dpttrs(*factors, x)[0]
    for _ in range(_MAX_STEPS):
        x, rho, res = _rayleigh(d, e, x)
        if rho - res > sigma:
            raised = _factor_above(d, e, rho - res)
            if raised is not None:
                sigma, factors = rho - res, raised
        if rho - sigma <= tol:
            return rho, x
        if factors is None:
            factors = _factor_above(d, e, sigma)
            if factors is None:
                return None
        x = dpttrs(*factors, x)[0]
    return None


def _rqi(d, e, x, basis, tol):
    """Rayleigh-quotient iteration from x, kept orthogonal to the unit
    vectors in basis: (rho, ||r||, unit x) once ||r|| <= tol, or as left
    after _MAX_STEPS steps or a singular dgttrf."""
    for _ in range(_MAX_STEPS):
        for v in basis:
            x = x - _dot(v, x) * v
        x, rho, res = _rayleigh(d, e, x)
        if res <= tol:
            break
        lu = dgttrf(e, d - rho, e)
        if lu[-1]:  # rho is an eigenvalue to working precision
            break
        x = dgttrs(*lu[:-1], x)[0]
    return rho, res, x


def _second(d, e, x, rho1, x1, tol):
    """lambda_2 and its unit vector by Rayleigh-quotient iteration from x,
    deflated against the ground state x1, or None.

    Some eigenvalue lies within ||r|| of rho (the residual bound).  When
    rho - ||r|| > rho1 >= lambda_1 it is not lambda_1, and when exactly two
    eigenvalues are <= rho + ||r|| (one Sturm count) it is lambda_2.  The
    first test also keeps the returned pair strictly ascending.

    An iteration the count refuses has mostly found a higher level.  The
    one retry deflates that level's vector too, when it converged, and
    starts from _RETRY_STEPS steps of inverse iteration from x at the shift
    rho1 + 1e6 tol (about 3.6e-9 ||T||): just above lambda_1, where lambda_2
    is the nearest level left.  It must pass the same certificate.
    """
    basis = [x1]
    rho, res, y = _rqi(d, e, x, basis, tol)
    if _is_second(d, e, rho, res, rho1, tol):
        return rho, y
    if res <= tol and rho - res > rho1:
        basis.append(y)
    lu = dgttrf(e, d - (rho1 + 1e6 * tol), e)
    if lu[-1]:
        return None
    for _ in range(_RETRY_STEPS):
        for v in basis:
            x = x - _dot(v, x) * v
        x = dgttrs(*lu[:-1], x)[0]
        x = x / math.sqrt(_dot(x, x))
    rho, res, y = _rqi(d, e, x, basis, tol)
    return (rho, y) if _is_second(d, e, rho, res, rho1, tol) else None


def _is_second(d, e, rho, res, rho1, tol) -> bool:
    return (res <= tol and rho - res > rho1
            and _sturm_count(d, e, rho + res) == 2)


def _certified(op: Operator1D, k: int, start):
    """The lowest k <= 2 eigenvalues of op, each certified within tol = 16 eps ||T|| (Gershgorin), and the
    iterations' unit vectors as columns; None when a certificate fails.

    start is None or (grid, values, vectors) of an operator solved on an
    overlapping interval: its columns, interpolated onto op's nodes and
    held at their end values beyond that interval, start the iterations,
    and its lambda_1, when given, is the first shift tried.
    """
    d, e, n = op.diag, op.offdiag, op.grid.n
    tol = 16.0 * _EPS * (np.abs(d).max() + 2.0 * np.abs(e).max())
    if not math.isfinite(tol):
        return None
    guess, hint = [np.ones(n), None], None
    if start is not None:
        grid, values, vecs = start
        x, x_old = op.grid.nodes(), grid.nodes()
        for j in range(min(k, vecs.shape[1])):
            guess[j] = np.interp(x, x_old, vecs[:, j])
        hint = None if values is None else float(values[0])
    ground = _ground(d, e, guess[0], tol, hint)
    if ground is None:
        return None
    rho1, x1 = ground
    if k == 1:
        return [rho1], x1[:, None]
    if guess[1] is None:
        # an odd start about the middle of the interval
        guess[1] = (np.arange(n) - 0.5 * (n - 1)) * x1
    second = _second(d, e, guess[1], rho1, x1, tol)
    if second is None:
        return None
    return [rho1, second[0]], np.stack([x1, second[1]], axis=1)


def _stein(op: Operator1D, vals) -> Optional[np.ndarray]:
    """Eigenvectors at the given values by LAPACK dstein, as
    eigh_tridiagonal computes them, taking the matrix as one block; None
    where dstebz would split it at a negligible off-diagonal."""
    d, e, n = op.diag, op.offdiag, op.grid.n
    if not np.all(e * e > _EPS * _EPS * np.abs(d[:-1] * d[1:])):
        return None
    iblock = np.zeros(n, dtype=np.int32)
    iblock[:len(vals)] = 1
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    vecs, info = dstein(d, e, vals, iblock, isplit)
    if info:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigenvector solve failed: dstein info = "
                               f"{info}")
    return vecs


def _solve_sorted(op: Operator1D, k: int, want_vectors: bool, start=None):
    """(values, vectors or None, unit iteration vectors or None)."""
    found = _certified(op, k, start) if k <= 2 else None
    if found is not None:
        vals, iterates = np.array(found[0]), found[1]
        vecs = _stein(op, vals) if want_vectors else None
        if vecs is not None or not want_vectors:
            return vals, vecs, iterates
    try:
        out = eigh_tridiagonal(op.diag, op.offdiag,
                               eigvals_only=not want_vectors,
                               select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigen solve failed: {exc}") from exc
    if want_vectors:
        return out[0], out[1], None
    return out, None, None


def lowest_eigenvalues(op: Operator1D, k: int, want_vectors: bool = True,
                       coarse: Optional[Operator1D] = None, *,
                       _start=None) -> EigResult:
    """k smallest eigenvalues, certified by inverse iteration or bisected.

    With k <= 2, lambda_1 comes from
    inverse iteration at certified lower shifts (LAPACK dpttrf/dpttrs) and
    lambda_2 from Rayleigh-quotient iteration deflated against the ground
    state (dgttrf/dgttrs), each certified within 16 eps ||T|| by its
    Rayleigh quotient, its residual, a dpttrf success and one Sturm count;
    vectors are LAPACK stein's inverse iteration at those values.  A
    lambda_2 the count refuses is tried once more before bisection.  Any
    other k, and any failed certificate, takes Sturm-sequence bisection plus
    inverse iteration (LAPACK stebz/stein).

    Parameters
    ----------
    op : Operator1D
    k : number of eigenvalues requested, k <= n.
    want_vectors : also compute eigenvectors (normalized so h * sum phi^2 = 1).
    coarse : optional operator of the same closure on the same interval
        with n // 2 nodes, discretized as op is.  Only when it is given is
        it solved for the Richardson error estimate (its lowest min(k, n // 2)
        levels); without it richardson_error is all zeros and extrapolated
        equals values.  Any other coarse operator is a PreconditionError,
        since it would extrapolate silently wrong.  The coarse solve starts
        from op's iteration vectors.
    _start : private to truncation_sweep: (grid, values, vectors) of the
        operator solved before, whose columns start this solve's iterations
        and whose lambda_1 is the first shift tried.  It moves values by
        rounding only.
    """
    g, n = op.grid, op.grid.n
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= n = {n}, got k = {k}")
    c = coarse.grid if coarse is not None else None
    if c is not None and (c.a, c.b, c.n, c.kind) != (g.a, g.b, n // 2, g.kind):
        raise PreconditionError(
            f"coarse operator must be {g.kind} on ({g.a}, {g.b}) with "
            f"{n // 2} nodes, got {c.kind} on ({c.a}, {c.b}) with {c.n}")
    vals, vecs, iterates = _solve_sorted(op, k, want_vectors, _start)
    vals = np.asarray(vals, dtype=float)

    rich = np.zeros(k)
    if coarse is not None:
        k_c = min(k, coarse.grid.n)
        warm = None if iterates is None else (g, None, iterates)
        vals_c = _solve_sorted(coarse, k_c, False, warm)[0]
        rich[:k_c] = (vals[:k_c] - np.asarray(vals_c, dtype=float)) / 3.0

    if vecs is not None:
        vecs = np.asarray(vecs, dtype=float) / math.sqrt(op.grid.h)
        # deterministic sign: largest-magnitude component is made positive
        lead = np.argmax(np.abs(vecs), axis=0)
        signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
        signs[signs == 0.0] = 1.0
        vecs = vecs * signs
    return EigResult(vals, vecs, rich)


def _sturm_count(d: np.ndarray, e: np.ndarray, sigma: float) -> int:
    """Eigenvalues <= sigma of the tridiagonal matrix (d, e).

    LAPACK dstebz counts them on (vl, sigma]; given vl = -inf it starts from
    its own Gershgorin lower bound, and a tolerance this wide stops it before
    any bisection step.  A vanishing pivot counts as negative.
    """
    m, _, _, _, info = dstebz(d, e, 1, -math.inf, sigma, 1, 1, 1e300, "E")
    if info:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Sturm count failed: dstebz info = {info}")
    return m


def count_below(op: Operator1D, level: float) -> int:
    """Number of eigenvalues <= level by Sturm inertia; O(n), no eigensolve.

    The "<=" convention is realized by counting eigenvalues <= level +
    1e-12 max(1, |level|) + 16 eps ||A||, ||A|| bounded by Gershgorin, as
    a computed eigenvalue is off by about eps ||A||.
    """
    if math.isnan(level):
        raise PreconditionError("cannot count eigenvalues below a NaN level")
    slack = 16.0 * np.finfo(float).eps * (np.abs(op.diag).max()
                                          + 2.0 * np.abs(op.offdiag).max())
    sigma = (level + TIE_SHIFT * max(1.0, abs(level)) + slack
             if math.isfinite(level) else level)
    if math.isinf(sigma):
        return op.grid.n if sigma > 0.0 else 0
    return _sturm_count(op.diag, op.offdiag, sigma)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first call: only
    oscillation_count integrates, so the other probes start without it."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def oscillation_count(potential: Callable, a: float, b: float, bc: str,
                      E: float) -> int:
    """Prufer-phase zero counter for -u'' + V u = E u on (a, b).

    The solution is shot from the left with u(a) = 0 (bc = "dirichlet") or
    u'(a) = 0 (bc = "neumann") and its interior zeros are counted through the
    phase theta, defined by u ~ sin(theta), u' ~ cos(theta) and
    theta' = cos^2(theta) + (E - V) sin^2(theta).  The phase increases
    strictly through every multiple of pi, so the zero count is
    ceil(theta(b)/pi) - 1.

    Boundary correction (Sturm oscillation theorem): the returned count equals
    the number of eigenvalues < E of the operator on (a, b) with the given
    left condition and a Dirichlet condition at b; when E hits an eigenvalue
    of that problem exactly, the crossing sits at b itself and is not counted.
    """
    if bc == "dirichlet":
        theta0 = 0.0
    elif bc == "neumann":
        theta0 = 0.5 * math.pi
    else:
        raise PreconditionError(f"unknown shooting boundary condition {bc!r}")
    if not b > a:
        raise PreconditionError(f"need b > a, got ({a}, {b})")

    def rhs(x, y):
        s = math.sin(y[0])
        c = math.cos(y[0])
        return (c * c + (E - potential(x)) * s * s,)

    sol = solve_ivp(rhs, (a, b), [theta0], method="RK45", rtol=1e-8,
                    atol=1e-10)
    if not sol.success:
        raise ConvergenceError(
            f"phase integration on ({a}, {b}) failed: {sol.message}")
    theta_b = float(sol.y[0, -1])
    return max(0, math.ceil(theta_b / math.pi) - 1)
