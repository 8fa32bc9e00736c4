"""Discretized one-dimensional Schrodinger operators.

Symmetric second-difference operators on intervals (Dirichlet / Neumann ends)
and circles (periodic), with three independent spectral probes:

* low eigenvalues and eigenvectors via bisection plus inverse iteration
  (LAPACK stebz/stein on the tridiagonal matrix; the periodic matrix, whose
  corner entries close the circle, is reordered into a symmetric band of
  half-bandwidth 2 and solved with LAPACK sbevx), with a Richardson error
  estimate from a half-grid solve only when the caller passes the operator
  on that grid,
* an O(n) eigenvalue counter from the LDL^T inertia of A - sigma I,
* a Prufer-phase shooting counter that never touches the matrix at all.

Grids: Dirichlet operators store the n interior nodes a + i h with
h = (b-a)/(n+1).  Neumann operators are cell-centered: n cells of width
h = (b-a)/n, nodes at the midpoints, zero-flux closure obtained by mirroring
the ghost node across the wall (u_ghost = u_first), which keeps the matrix
exactly symmetric.  Periodic operators store n nodes a + i h, h = (b-a)/n,
with b identified with a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eig_banded, eigh_tridiagonal
# not called here: perfbench/tracing.py patches spectral1d.eigh by name
from scipy.linalg import eigh  # noqa: F401

from .counting import TIE_SHIFT  # the scipy-free home of the constant
from .errors import ConvergenceError, PreconditionError

# pivot guard for the inertia recurrences (LAPACK-style: a vanishing pivot is
# treated as an infinitesimally negative one)
_TINY = 1e-300

_KINDS = ("dirichlet", "neumann", "periodic")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (a, b); the spacing convention depends on the closure."""

    a: float
    b: float
    n: int
    h: float

    @staticmethod
    def make(a: float, b: float, n: int, kind: str) -> "Grid1D":
        if kind not in _KINDS:
            raise PreconditionError(f"unknown boundary kind {kind!r}")
        if not b > a:
            raise PreconditionError(f"need b > a, got ({a}, {b})")
        if n < 16:
            raise PreconditionError(f"need n >= 16, got {n}")
        h = (b - a) / (n + 1) if kind == "dirichlet" else (b - a) / n
        return Grid1D(float(a), float(b), int(n), h)

    def nodes(self, kind: str) -> np.ndarray:
        i = np.arange(self.n, dtype=float)
        if kind == "dirichlet":
            return self.a + (i + 1.0) * self.h
        if kind == "neumann":
            return self.a + (i + 0.5) * self.h
        if kind == "periodic":
            return self.a + i * self.h
        raise PreconditionError(f"unknown boundary kind {kind!r}")


@dataclass(frozen=True)
class Operator1D:
    """Symmetric tridiagonal operator, plus corner entries when periodic."""

    kind: str
    grid: Grid1D
    diag: np.ndarray
    offdiag: np.ndarray
    corner: float


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


def assemble(potential_samples, grid: Grid1D, kind: str) -> Operator1D:
    """Second-difference operator 2/h^2 + V on the diagonal, -1/h^2 off it."""
    if kind not in _KINDS:
        raise PreconditionError(f"unknown boundary kind {kind!r}")
    v = np.asarray(potential_samples, dtype=float)
    if v.shape != (grid.n,):
        raise PreconditionError(
            f"potential samples have shape {v.shape}, expected ({grid.n},)")
    if not np.all(np.isfinite(v)):
        raise PreconditionError("potential samples must be finite")
    h2 = grid.h * grid.h
    diag = 2.0 / h2 + v
    offdiag = np.full(grid.n - 1, -1.0 / h2)
    corner = 0.0
    if kind == "neumann":
        diag = diag.copy()
        diag[0] -= 1.0 / h2
        diag[-1] -= 1.0 / h2
    elif kind == "periodic":
        corner = -1.0 / h2
    return Operator1D(kind, grid, diag, offdiag, corner)


def _cyclic_entries(op: Operator1D, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    # entries A[i, j] of the periodic matrix off its diagonal
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    out = np.zeros(i.shape[0])
    adjacent = hi - lo == 1
    out[adjacent] = op.offdiag[lo[adjacent]]
    out[(lo == 0) & (hi == op.grid.n - 1)] += op.corner
    return out


def _periodic_band(op: Operator1D):
    """Upper band form of the periodic matrix in the order 0, n-1, 1, n-2, ...

    In that order each node's two circle neighbours sit at most two places
    away, so the cyclic tridiagonal matrix becomes a symmetric band of
    half-bandwidth 2.  Returns the (3, n) band and the node order.
    """
    n = op.grid.n
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = n - 1 - np.arange(n // 2)
    band = np.zeros((3, n))
    band[2] = op.diag[order]
    band[1, 1:] = _cyclic_entries(op, order[:-1], order[1:])
    band[0, 2:] = _cyclic_entries(op, order[:-2], order[2:])
    return band, order


def _solve_sorted(op: Operator1D, k: int, want_vectors: bool):
    try:
        if op.kind == "periodic":
            band, order = _periodic_band(op)
            out = eig_banded(band, eigvals_only=not want_vectors,
                             select="i", select_range=(0, k - 1))
            if want_vectors:
                out = (out[0], out[1][np.argsort(order)])
        else:
            out = eigh_tridiagonal(op.diag, op.offdiag,
                                   eigvals_only=not want_vectors,
                                   select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigen solve failed: {exc}") from exc
    if want_vectors:
        return out[0], out[1]
    return out, None


def lowest_eigenvalues(op: Operator1D, k: int, want_vectors: bool = True,
                       coarse: Optional[Operator1D] = None) -> EigResult:
    """k smallest eigenvalues via Sturm-sequence bisection + inverse iteration.

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
        since it would extrapolate silently wrong.
    """
    n = op.grid.n
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= n = {n}, got k = {k}")
    if coarse is not None and (
            coarse.kind != op.kind or coarse.grid.n != n // 2
            or (coarse.grid.a, coarse.grid.b) != (op.grid.a, op.grid.b)):
        raise PreconditionError(
            f"coarse operator must be {op.kind} on ({op.grid.a}, {op.grid.b}) "
            f"with {n // 2} nodes, got {coarse.kind} on ({coarse.grid.a}, "
            f"{coarse.grid.b}) with {coarse.grid.n}")
    vals, vecs = _solve_sorted(op, k, want_vectors)
    vals = np.asarray(vals, dtype=float)

    rich = np.zeros(k)
    if coarse is not None:
        k_c = min(k, coarse.grid.n)
        vals_c, _ = _solve_sorted(coarse, k_c, False)
        rich[:k_c] = (vals[:k_c] - np.asarray(vals_c, dtype=float)) / 3.0

    if vecs is not None:
        vecs = np.asarray(vecs, dtype=float) / math.sqrt(op.grid.h)
        # deterministic sign: largest-magnitude component is made positive
        lead = np.argmax(np.abs(vecs), axis=0)
        signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
        signs[signs == 0.0] = 1.0
        vecs = vecs * signs
    return EigResult(vals, vecs, rich)


def _tridiag_negcount(d: np.ndarray, e: np.ndarray, sigma: float) -> int:
    neg = 0
    p = d[0] - sigma
    if p == 0.0:
        p = -_TINY
    if p < 0.0:
        neg += 1
    for i in range(1, d.shape[0]):
        p = d[i] - sigma - e[i - 1] * e[i - 1] / p
        if p == 0.0:
            p = -_TINY
        if p < 0.0:
            neg += 1
    return neg


def _cyclic_negcount(d: np.ndarray, e: np.ndarray, corner: float,
                     sigma: float) -> int:
    # LDL^T of the bordered form: rows 0..n-2 are a plain tridiagonal chain,
    # the last row couples to row 0 (corner) and row n-2 (e[n-2]); f carries
    # the fill-in of the last column during the elimination.
    n = d.shape[0]
    neg = 0
    dn = d[n - 1] - sigma
    f = corner
    p = 0.0
    for i in range(n - 1):
        pivot = d[i] - sigma
        if i > 0:
            pivot -= e[i - 1] * e[i - 1] / p
        p = pivot if pivot != 0.0 else -_TINY
        if p < 0.0:
            neg += 1
        dn -= f * f / p
        if i + 1 <= n - 2:
            f_next = e[n - 2] if i + 1 == n - 2 else 0.0
            f = f_next - e[i] * f / p
    if dn == 0.0:
        dn = -_TINY
    if dn < 0.0:
        neg += 1
    return neg


def count_below(op: Operator1D, level: float) -> int:
    """Number of eigenvalues <= level, by LDL^T inertia; O(n), no solves.

    The "<=" convention is realized by counting strictly below
    level + 1e-12 * max(1, |level|).
    """
    sigma = level + TIE_SHIFT * max(1.0, abs(level))
    if op.kind == "periodic":
        return _cyclic_negcount(op.diag, op.offdiag, op.corner, sigma)
    return _tridiag_negcount(op.diag, op.offdiag, sigma)


def oscillation_count(potential: Callable, a: float, b: float, bc: str,
                      E: float, rtol: float = 1e-8,
                      atol: float = 1e-10) -> int:
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

    sol = solve_ivp(rhs, (a, b), [theta0], method="RK45",
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise ConvergenceError(
            f"phase integration on ({a}, {b}) failed: {sol.message}")
    theta_b = float(sol.y[0, -1])
    return max(0, math.ceil(theta_b / math.pi) - 1)
