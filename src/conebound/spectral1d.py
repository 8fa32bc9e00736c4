"""Discretized one-dimensional Schrodinger operators.

Symmetric second-difference operators on intervals (Dirichlet / Neumann
ends), with three independent spectral probes:

* low eigenvalues and eigenvectors, with a Richardson error estimate from a
  half-grid solve only when the caller passes the operator on that grid.
  lambda_1 and lambda_2 of a mirror-symmetric operator come in O(n) as the
  ground states of its even and odd halves, by inverse iteration at lower
  shifts that LAPACK pttrf proves (Parlett, The Symmetric Eigenvalue
  Problem, SIAM 1998).  More levels, other operators and any failed
  certificate fall back to bisection plus inverse iteration (LAPACK
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
from scipy.linalg.lapack import dpttrf, dpttrs, dstebz
# not called here: perfbench/tracing.py patches spectral1d.eigh by name
from scipy.linalg import eigh  # noqa: F401

from .counting import TIE_SHIFT  # the scipy-free home of the constant
from .errors import ConvergenceError, PreconditionError

_OFFSETS = {"dirichlet": 1.0, "neumann": 0.5}
_EPS = np.finfo(float).eps
# iteration steps before a solve falls back to bisection
_MAX_STEPS = 30


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
    """The unit ground state of (d, e) by inverse iteration from x, or None.

    Every shift sigma is a lower bound on lambda_1, and the Rayleigh
    quotient rho an upper one (Courant-Fischer), so lambda_1 lies in
    (sigma, rho].  The first shift is hint - tol when dpttrf certifies it,
    else Gershgorin's lower bound less tol; each step moves
    it up to rho - tol, or else to rho - ||r||, when dpttrf succeeds there.
    Once rho - sigma <= tol, one more inverse step at sigma gives the
    vector returned, whose Rayleigh quotient lies in [lambda_1, rho]: such
    a step never raises it.
    """
    factors = None if hint is None else _factor_above(d, e, hint - tol)
    if factors is not None:
        sigma = hint - tol
        x = dpttrs(*factors, x)[0]
    else:
        ae = np.abs(e)
        sigma = float(min(d[0] - ae[0], d[-1] - ae[-1],
                          np.min(d[1:-1] - ae[:-1] - ae[1:]))) - tol
    for _ in range(_MAX_STEPS):
        x, rho, res = _rayleigh(d, e, x)
        for shift in (rho - tol, rho - res) if res > tol else (rho - res,):
            raised = _factor_above(d, e, shift) if shift > sigma else None
            if raised is not None:
                sigma, factors = shift, raised
                break
        if factors is None:
            factors = _factor_above(d, e, sigma)
            if factors is None:
                return None
        x = dpttrs(*factors, x)[0]
        if rho - sigma <= tol:
            return x / math.sqrt(_dot(x, x))
    return None


def _sectors(d: np.ndarray, e: np.ndarray):
    """The even and odd halves of a mirror-symmetric (d, e), as the
    (diag, offdiag) of each: the rows from the centre outwards, on the
    sector's own orthonormal basis.  With odd n the centre node is in the
    even half only, where it couples to its neighbour with sqrt(2) e; with
    even n the two centre nodes fold into each half's first row, d_c +- e."""
    n, m = d.size, d.size // 2
    if n % 2:
        ee = e[m:].copy()
        ee[0] *= math.sqrt(2.0)
        return (d[m:], ee), (d[m + 1:], e[m + 1:])
    de, do = d[m:].copy(), d[m:].copy()
    de[0] += e[0]
    do[0] -= e[0]
    return (de, e[m:]), (do, e[m:])


def _unfold(z: np.ndarray, n: int, sign: float) -> np.ndarray:
    """The full-length vector, even (sign 1) or odd (sign -1) about the
    centre, whose sector coordinates are z; it has the norm of z."""
    half = z / math.sqrt(2.0)
    if 2 * z.size > n:
        centre, half = z[:1], half[1:]
    else:
        centre = np.zeros(n % 2)
    return np.concatenate([sign * half[::-1], centre, half])


def _quotient(d: np.ndarray, c: float, x: np.ndarray) -> float:
    """x.Tx / x.x for the tridiagonal T with diagonal d and constant
    off-diagonal -c, in the form sum (d_i - 2c) x_i^2 + c sum (x_{i+1} -
    x_i)^2 + c (x_0^2 + x_{n-1}^2), free of the cancellation between d ~ 2c
    and the off-diagonal products."""
    dx = np.diff(x)
    num = (_dot(d - 2.0 * c, x * x) + c * _dot(dx, dx)
           + c * (x[0] * x[0] + x[-1] * x[-1]))
    return num / _dot(x, x)


def _certified(op: Operator1D, k: int, start):
    """The lowest k <= 2 eigenvalues of a mirror-symmetric op, each certified
    within tol = 16 eps ||T|| (Gershgorin), and unit vectors as columns; None
    when op is not mirror-symmetric, a certificate fails or the pair is not
    strictly ascending.

    A symmetric diagonal and a constant negative off-diagonal make the even
    and odd halves invariant (_sectors).  Eigenvector j of such an
    irreducible Jacobi matrix has j - 1 sign changes (Cantoni and Butler,
    Linear Algebra Appl. 13 (1976) 275-288), so lambda_1 is the even half's
    ground state and lambda_2 the odd half's, each taken by _ground.  Each
    level is reported as the Rayleigh quotient on T itself (_quotient) of
    the unfolded vector, which is a column of the result.

    start is None or (grid, values, vectors) of an operator solved on an
    overlapping interval: its columns, interpolated onto the nodes of op's
    right half and held at their end values beyond that interval, start
    the halves' iterations, and its values are the first shifts tried.
    """
    d, e, n = op.diag, op.offdiag, op.grid.n
    c = -float(e[0])
    if not (c > 0.0 and np.all(e == e[0]) and np.array_equal(d, d[::-1])):
        return None
    tol = 16.0 * _EPS * (np.abs(d).max() + 2.0 * c)
    if not math.isfinite(tol):
        return None
    if start is not None:
        grid, values, vecs = start
        right, old = op.grid.nodes()[n // 2:], grid.nodes()
    vals, cols = [], []
    for j, (ds, es) in enumerate(_sectors(d, e)[:k]):
        z, hint = np.ones(ds.size), None
        if start is not None:
            z = np.interp(right[right.size - ds.size:], old, vecs[:, j])
            hint = float(values[j])
        z = _ground(ds, es, z, tol, hint)
        if z is None:
            return None
        x = _unfold(z, n, 1.0 - 2.0 * j)
        vals.append(_quotient(d, c, x))
        cols.append(x)
    if k == 2 and not vals[0] < vals[1]:
        return None
    return np.array(vals), np.stack(cols, axis=1)


def _solve_sorted(op: Operator1D, k: int, want_vectors: bool, start=None):
    """(values, unit eigenvectors as columns or None): bisection computes
    them only with want_vectors, the certified route always, and they can
    start another solve."""
    found = _certified(op, k, start) if k <= 2 else None
    if found is not None:
        return found
    try:
        out = eigh_tridiagonal(op.diag, op.offdiag,
                               eigvals_only=not want_vectors,
                               select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigen solve failed: {exc}") from exc
    return out if want_vectors else (out, None)


def lowest_eigenvalues(op: Operator1D, k: int, want_vectors: bool = True,
                       coarse: Optional[Operator1D] = None, *,
                       _start=None) -> EigResult:
    """k smallest eigenvalues, certified by inverse iteration or bisected.

    With k <= 2 and a mirror-symmetric op (a palindromic diagonal and a
    constant negative off-diagonal, as threshold builds for its even
    potentials), lambda_1 and lambda_2 are the ground states of op's even
    and odd halves.  Each comes from inverse iteration at lower shifts that
    LAPACK dpttrf proves, until the shift lies within 16 eps ||T|| of the
    Rayleigh quotient, and one more inverse step; the level is that step's
    Rayleigh quotient, which the shift and the quotient before it enclose.
    Any other op or k, any failed certificate and a pair that is not
    strictly ascending take Sturm-sequence bisection plus inverse iteration
    (LAPACK stebz/stein).

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
        since it would extrapolate silently wrong.  The coarse operator is
        solved first, and its vectors and levels start op's solve.
    _start : private to truncation_sweep: (grid, values, vectors) of the
        operator solved before, whose columns start this solve's iterations
        and whose values are the first shifts tried.  It moves values by
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
    start, vals_c = _start, None
    if coarse is not None:
        vals_c, vecs_c = _solve_sorted(coarse, min(k, c.n), False, _start)
        if vecs_c is not None:
            start = (c, vals_c, vecs_c)
    vals, vecs = _solve_sorted(op, k, want_vectors, start)
    vals = np.asarray(vals, dtype=float)
    rich = np.zeros(k)
    if vals_c is not None:
        rich[:len(vals_c)] = (vals[:len(vals_c)] - vals_c) / 3.0
    if not want_vectors:
        return EigResult(vals, None, rich)
    vecs = np.asarray(vecs, dtype=float) / math.sqrt(op.grid.h)
    # deterministic sign: largest-magnitude component is made positive
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return EigResult(vals, vecs * signs, rich)


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
