"""Eigenvalue counting for inverse-square half-line operators.

The core object is A_c = -d^2/drho^2 - c / rho^2 on (rho0, inf) with a
boundary condition at rho0.  For c > 1/4 the number of eigenvalues below -E
grows like sqrt(c - 1/4) |ln E| / (2 pi) as E -> 0+; for c <= 1/4 it stays
bounded.  Counts are evaluated by oscillation theory: in x = sqrt(E) rho
every level shares one decaying solution, sqrt(rho) K_{i nu}(x), and the
count below -E is the number of its zeros above x0 = sqrt(E) rho0.  For
c > 1/4 that number is the integer part of a closed-form phase, the
argument of the power series of I_{i nu} (DLMF 10.25.2, 10.27.4, 10.45.7):
a few series terms per energy, no truncation radius, no integration, and a
certificate on every count (`_phase_counts`).  Energies near the turning
point x = nu that fail the certificate, and Neumann counts at c <= 1/4,
fall back to one inward Pruefer phase sweep on scipy's RK45
(`_sweep_counts`), which the tests also take as their reference; the
forward shooter `spectral1d.oscillation_count` stays their independent
oracle.  Below -c / rho0^2 the operator has no spectrum at all
(-c/rho^2 >= -c/rho0^2 on the half-line), so levels that deep count 0.

`assemble_model` stacks these half-line counters into the surface model: the
cross-section modes come from the curvature operator spectrum, the shrinking
transverse wells contribute channel shifts from `threshold.box_levels`, and
the staircase is compared against the predicted log slope.  Certified counts
need only numpy and math; the sweep fallback imports scipy.integrate when it
runs, and `assemble_model` imports the curvature operator and threshold
layers when it is called, not at import.  Those load scipy only in a solve
that calls LAPACK, so a latitude with a hard wall assembles on numpy alone.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._serial import write_csv
# not called here: perfbench/tracing.py patches counting.parallel_map by name
from ._serial import parallel_map  # noqa: F401
from .errors import ConvergenceError, PreconditionError
from .geometry import SampledCurve, sup_curvature

if TYPE_CHECKING:
    from .threshold import PotentialSpec

TIE_SHIFT = 1e-12  # relative level shift that makes "<= level" count ties
_N_CHANNELS = 8  # transverse channels counted per cross-section mode


def kirsch_simon_slope(c: float) -> float:
    """Asymptotic count slope sqrt((c - 1/4)_+) / (2 pi)."""
    return math.sqrt(max(c - 0.25, 0.0)) / (2.0 * math.pi)


@dataclass(frozen=True)
class RadialProblem:
    """Half-line operator -d^2/drho^2 - c/rho^2 on (rho0, inf).

    `scale` is an overall energy-scale factor: counts are taken below
    -E / scale, so a problem expressed in rescaled units can reuse the same
    grid of physical energies.
    """
    c: float
    rho0: float = 1.0
    bc: str = "dirichlet"
    scale: float = 1.0

    def validate(self) -> None:
        if not math.isfinite(self.c):
            raise PreconditionError(f"need finite c, got {self.c}")
        if not 0.0 < self.rho0 < math.inf:
            raise PreconditionError(f"need finite rho0 > 0, got {self.rho0}")
        if self.bc not in ("dirichlet", "neumann"):
            raise PreconditionError(f"unsupported boundary condition {self.bc!r}")
        if not 0.0 < self.scale < math.inf:
            raise PreconditionError(f"need finite scale > 0, got {self.scale}")


@dataclass(frozen=True)
class CountingCurve:
    E: np.ndarray
    lnE_abs: np.ndarray
    N: np.ndarray


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    rms_residual: float
    window: tuple  # (min |ln E|, max |ln E|) actually used
    n_used: int
    degenerate: bool = False


_EPS = np.finfo(float).eps
_LN2 = math.log(2.0)
# Stirling's coefficients B_2j / (2j (2j - 1)), j = 1..8 (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)


def _arg_gamma(nu: float) -> tuple[float, float]:
    """arg Gamma(1 + i nu), continuous from nu = 0, and its error bound.

    Gamma(z + 1) = z Gamma(z) (DLMF 5.5.1) steps up to w = 17 + i nu, where
    Stirling's series (DLMF 5.11.1) stops after 8 terms with a remainder
    below 1e-19 (DLMF 5.11(ii)).
    """
    w = complex(17.0, nu)
    z = 1.0 / w
    series = 0.0
    for coef in reversed(_STIRLING):
        series = series * z * z + coef
    log_gamma = (w - 0.5) * cmath.log(w) - w + series * z
    arg = log_gamma.imag - math.fsum(math.atan2(nu, j) for j in range(1, 17))
    return arg, 16.0 * _EPS * nu * (math.log(abs(w)) + 8.0) + 1e-18


def _phase_counts(problem: RadialProblem, s0: np.ndarray) -> np.ndarray:
    """Closed-form counts at s0 = ln x0 for c > 1/4; -1 where uncertified.

    K_{i nu}(x) = -pi Im I_{i nu}(x) / sinh(pi nu) (DLMF 10.27.4), and the
    series of I_{i nu} (DLMF 10.25.2) gives its phase Theta = beta + arg S,
    beta = nu ln(x/2) - arg Gamma(1 + i nu), S = sum_k term_k with
    term_k = (x^2/4)^k / (k! (1 + i nu)_k).  Theta rises through the zeros
    at -pi, -2 pi, ... and stays in (-pi, 0) above the last (DLMF 10.45.7),
    so the Dirichlet count is ceil(-Theta/pi) - 1.  Neumann takes the
    Pruefer angle of `_sweep_counts`, atan2(k w, w_s) mod pi with
    w = Im(e^{i beta} S), w_s = Im(e^{i beta} (i nu S + 2 D)) and
    D = sum_k k term_k, on the branch pi floor((Theta + pi) / pi) that w's
    zeros share with Theta, and counts the branches of atan2(k, -1/2)
    above it.

    Certificate: T = sum_k |term_k| <= 3/2 keeps |S - 1| <= 1/2 all the way
    from 0 to x0, so the principal arg S is the continuous one; T > 3/2,
    near the turning point, gives -1.  A phase within its rounding bound of
    a branch is a ConvergenceError, and a bound of 1 rad, where no count is
    an exact integer, a PreconditionError.
    """
    nu = math.sqrt(problem.c - 0.25)
    arg_gamma, err_gamma = _arg_gamma(nu)
    beta = nu * (s0 - _LN2) - arg_gamma
    err = err_gamma + 4.0 * _EPS * nu * (np.abs(s0) + 1.0)
    if err.max() >= 1.0:
        raise PreconditionError(
            f"c = {problem.c:g} is too large for an exact count: the Bessel "
            f"phase carries a rounding error of up to {err.max():.3g} rad")
    q = np.exp(2.0 * (s0 - _LN2))  # x0^2 / 4
    term = np.ones(s0.shape, dtype=complex)
    S, D, T = term.copy(), np.zeros_like(term), np.ones(s0.shape)
    k = 0
    while True:
        # past the first term each ratio |term_k / term_{k-1}| <= 1/4 where
        # T <= 3/2, so stopping below eps / 2 leaves less than eps / 6
        k += 1
        term = term * (q / (k * complex(k, nu)))
        S += term
        D += k * term
        T += np.abs(term)
        term[T > 1.5] = 0.0  # uncertified: stop before the terms overflow
        if np.abs(term).max() <= 0.5 * _EPS:
            break
    err_S = _EPS * (7 * k + 8) * T
    err = err + 3.0 * err_S + _EPS
    y = -(beta + np.angle(S)) / math.pi
    tie = np.abs(y - np.rint(y)) * math.pi <= err
    if problem.bc == "dirichlet":
        n = np.ceil(y) - 1.0
    else:
        kp = max(nu, 0.25)
        theta_bc = math.atan2(kp, -0.5)
        rot = np.exp(1j * beta)
        w = (rot * S).imag
        w_s = (rot * (1j * nu * S + 2.0 * D)).imag
        a = np.arctan2(kp * w, w_s) % math.pi
        err_a = _EPS + 4.0 * (err + k * err_S) / np.hypot(kp * w, w_s) \
            * ((kp + nu) * np.abs(S) + 2.0 * np.abs(D))
        tie |= (np.abs(a - theta_bc) <= err_a) \
            | (np.minimum(a, math.pi - a) <= err_a)
        n = (a < theta_bc) - np.floor(1.0 - y)
    certified = T <= 1.5
    if (tie & certified).any():
        x0 = float(np.exp(s0[tie & certified][0]))
        raise ConvergenceError(
            f"the Bessel phase at x0 = sqrt(E) rho0 = {x0:.6g} lies within "
            f"its rounding bound of a branch; the count is not certain")
    return np.where(certified, np.maximum(n, 0.0), -1.0).astype(int)


def _sweep_counts(problem: RadialProblem, s0: np.ndarray) -> np.ndarray:
    """Counts at s0 = ln x0 from one inward Pruefer sweep on scipy's RK45.

    In s = ln x, w = K_{i nu}(e^s) solves w'' = (e^{2s} - nu^2) w, and its
    Pruefer phase (w ~ sin(theta), w_s ~ k cos(theta)) obeys
    theta' = k cos^2(theta) + (nu^2 - e^{2s}) sin^2(theta) / k, with k = nu
    floored at 1/4 (a smaller k squeezes every angle onto pi).  The sweep
    starts past the turning point, at x1 = nu + 40, from the WKB ratio
    w_s / w = -sqrt(x^2 - nu^2) - x^2 / (2 (x^2 - nu^2)), and runs inward,
    where a start error dies out; theta falls through the multiples of pi
    at the zeros of w.  The count is the number of branches theta_bc - j pi,
    j >= 0, above theta(s0), with theta_bc = 0 for Dirichlet and
    atan2(k, -1/2) for Neumann (u'(rho0) = 0 is w_s / w = -1/2).  A c with
    no start point past the turning point is a PreconditionError, a failed
    integration a ConvergenceError.
    """
    from scipy.integrate import solve_ivp

    nu2 = problem.c - 0.25
    nu = math.sqrt(max(nu2, 0.0))
    k = max(nu, 0.25)
    # a live level has x0^2 < c = nu^2 + 1/4, so every x0 lies below x1
    x1 = nu + 40.0
    q1 = x1 * x1 - nu2
    if x1 == nu or q1 <= 0.0:
        raise PreconditionError(
            f"c = {problem.c:g} too large for a WKB start past the turning "
            f"point x = nu")
    theta1 = math.atan2(k, -math.sqrt(q1) - x1 * x1 / (2.0 * q1))

    def rhs(s, theta):
        sn = math.sin(theta[0])
        cs = math.cos(theta[0])
        return [k * cs * cs + (nu2 - math.exp(2.0 * s)) * sn * sn / k]

    s, inverse = np.unique(s0, return_inverse=True)
    sol = solve_ivp(rhs, (math.log(x1), s[0]), [theta1], t_eval=s[::-1],
                    rtol=1e-8, atol=1e-10)
    if not sol.success:
        raise ConvergenceError(f"the inward phase sweep failed: {sol.message}")
    theta = sol.y[0][::-1][inverse]
    theta_bc = 0.0 if problem.bc == "dirichlet" else math.atan2(k, -0.5)
    return np.maximum(0, np.ceil((theta_bc - theta) / math.pi)).astype(int)


def _counts(problem: RadialProblem, E) -> np.ndarray:
    """Eigenvalue counts below each level -E / scale, an eigenvalue at
    exactly -E / scale included (TIE_SHIFT): the closed form
    `_phase_counts`, and `_sweep_counts` where that is uncertified or, for
    Neumann c <= 1/4, undefined."""
    E_eff = np.asarray(E, dtype=float) / problem.scale
    depth = E_eff * (1.0 - TIE_SHIFT)
    counts = np.zeros(depth.shape, dtype=int)
    nu2 = problem.c - 0.25
    # a level at or below -c / rho0^2, the bottom of the potential, has no
    # spectrum beneath it; so neither has Dirichlet c <= 1/4 (Hardy)
    live = depth * problem.rho0 * problem.rho0 < problem.c
    if problem.bc == "dirichlet" and nu2 <= 0.0:
        live[:] = False
    if not live.any():
        return counts
    s0 = 0.5 * np.log(depth[live]) + math.log(problem.rho0)
    n = _phase_counts(problem, s0) if nu2 > 0.0 else np.full(s0.shape, -1)
    slow = n < 0
    if slow.any():
        n[slow] = _sweep_counts(problem, s0[slow])
    counts[live] = n
    return counts


def count_radial(problem: RadialProblem, E: float) -> int:
    """Number of eigenvalues of the radial operator below -E.

    The count comes from `_counts`, the closed-form Bessel phase or the
    inward sweep where that is uncertified, and depends on no truncation
    radius.  An eigenvalue at exactly -E is included.
    """
    problem.validate()
    if not E > 0:
        raise PreconditionError(f"need E > 0, got {E}")
    return int(_counts(problem, [E])[0])


def _energy_grid(E_grid) -> np.ndarray:
    """E_grid as floats: at least 2, finite, positive, strictly decreasing."""
    E = np.asarray([float(v) for v in E_grid])
    if E.size < 2:
        raise PreconditionError("energy grid needs at least 2 entries")
    if not np.all((E > 0) & (E < math.inf)):
        raise PreconditionError("energy grid must be finite and strictly "
                                "positive")
    if np.any(np.diff(E) >= 0):
        raise PreconditionError("energy grid must be strictly decreasing")
    return E


def counting_curve(problem: RadialProblem, E_grid) -> CountingCurve:
    """Counting function N(E) over a descending positive energy grid.

    Counts come from `_counts`: the closed-form Bessel phase, with one
    inward sweep shared by the energies it does not certify.  Above the
    bottom of the potential the phase crosses each
    boundary branch in one direction only, so N is nonincreasing in E.
    """
    problem.validate()
    E = _energy_grid(E_grid)
    counts = _counts(problem, E)
    return CountingCurve(E, np.abs(np.log(E)), counts)


def fit_log_slope(curve: CountingCurve) -> SlopeFit:
    """Least-squares slope of N against |ln E|.

    The largest decade of E is excluded (transient regime).  Requires at
    least 10 grid points spanning at least 4 decades before the exclusion.
    A staircase that never moves fits slope 0 and is flagged degenerate.
    """
    E, N = curve.E, curve.N
    if E.size < 10:
        raise PreconditionError(f"need at least 10 energies, got {E.size}")
    decades = math.log10(float(E[0]) / float(E[-1]))
    if decades < 4.0 - 1e-9:
        raise PreconditionError(
            f"energy grid spans {decades:.2f} decades, need at least 4")
    keep = E <= float(E[0]) / 10.0 * (1.0 + 1e-12)
    x = curve.lnE_abs[keep]
    y = N[keep].astype(float)
    if x.size < 3:
        raise PreconditionError("fewer than 3 usable points after exclusions")
    if np.all(y == y[0]):
        return SlopeFit(0.0, float(y[0]), 0.0,
                        (float(x.min()), float(x.max())), int(x.size),
                        degenerate=True)
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return SlopeFit(float(coef[0]), float(coef[1]),
                    float(np.sqrt(np.mean(resid ** 2))),
                    (float(x.min()), float(x.max())), int(x.size))


def write_counting_csv(curve: CountingCurve | AssembledModel, path) -> None:
    """The E, |ln E|, N staircase of a counting curve or assembled model."""
    write_csv(path, ["E", "lnE_abs", "N"], [curve.E, curve.lnE_abs, curve.N])


# ---------------------------------------------------------------------------
# assembled surface model


@dataclass(frozen=True)
class AssembledModel:
    E: np.ndarray
    lnE_abs: np.ndarray
    N: np.ndarray
    per_mode: dict
    modes: list          # (index, lambda_m, c_m) for retained cross modes
    predicted_slope: float
    fit: SlopeFit
    relative_error: float
    params: dict


def default_energy_grid(top: float = 1e-3, bottom: float = 1e-22,
                        n: int = 43) -> np.ndarray:
    if not (0.0 < top < math.inf and 0.0 < bottom < math.inf):
        raise PreconditionError(
            f"energy grid must be finite and strictly positive, got E_top = "
            f"{top}, E_bottom = {bottom}")
    if n < 2:
        raise PreconditionError(
            f"energy grid needs at least 2 entries, got n_points = {n}")
    return np.logspace(math.log10(top), math.log10(bottom), n)


def assemble_model(curve: SampledCurve, potential: PotentialSpec,
                   delta: float = 0.05, C_knob: float = 0.0,
                   eps_knob: float = 0.0, K_delta: float = 5.0,
                   R_fixed: Optional[float] = None,
                   E_grid: Optional[np.ndarray] = None,
                   n_modes: int = 12) -> AssembledModel:
    """Assembled eigenvalue count of the conical surface model.

    For each energy E on the grid the matching radius is R(E) = K_delta
    |ln E| (or R_fixed), the Dirichlet well on (-delta R, delta R) gives
    channel levels lambda_n, from one threshold.box_levels call on every
    energy's half width (a hard wall's in closed form, other families'
    solved once per distinct width), and each retained cross
    mode m counts half-line eigenvalues below the shifted level

        mu_n(E) = (E - eps0 + lambda_n) R^2 (1 - delta kappa_inf)^2

    with eps0 from compute_threshold, or box_levels(potential, a, 1) for a
    hard wall, which compute_threshold refuses when a > L, and attractive
    coefficient c_m = (1 - C_knob (delta + eps_knob)) / 4 - lambda_m.
    Modes with c_m <= 0 cannot bind and are dropped.  Each mode counts all
    its (E, n) shifts in one `_counts` call (the closed form, with one
    sweep for the shifts it does not certify).  The staircase is fitted
    against |ln E| and compared with the predicted slope sum
    sqrt(-lambda_m) / (2 pi).  The levels lambda_m and that slope come from
    `curvature_operator.ks_levels` (k = max(12, n_modes)): the closed form
    or certified low Fourier block on the curve's own samples, else the
    band-solved fd levels on 1024 nodes; params["ks_route"] records which
    ran, "fourier" or "fd".  A highest level that is not certainly positive
    is a PreconditionError, as k_S could then miss negative levels.
    """
    from . import curvature_operator, threshold
    if not 0.0 < delta < 0.5:
        raise PreconditionError(f"need delta in (0, 0.5), got {delta}")
    for name, knob in (("C_knob", C_knob), ("eps_knob", eps_knob)):
        if not math.isfinite(knob):
            raise PreconditionError(f"need finite {name}, got {knob}")
    if not n_modes >= 1:
        raise PreconditionError(f"need n_modes >= 1, got {n_modes}")
    potential.validate()
    E_grid = _energy_grid(default_energy_grid() if E_grid is None
                          else E_grid)

    report = curvature_operator.ks_levels(curve, max(12, n_modes))
    lambdas = np.asarray(report.eigenvalues)
    kappa_inf = sup_curvature(curve)

    eps0 = (float(threshold.box_levels(potential, potential.half_width, 1)[0])
            if potential.family == "hard_wall"
            else threshold.compute_threshold(potential).eps0)

    c_knob = (1.0 - C_knob * (delta + eps_knob)) / 4.0
    modes = [(m, float(lam), c_knob - float(lam))
             for m, lam in enumerate(lambdas[:n_modes])]
    retained = [(m, lam, c) for m, lam, c in modes if c > 0.0]
    if not retained:
        raise PreconditionError("no cross-section mode can bind; "
                                "nothing to assemble")

    if delta * kappa_inf >= 1.0:
        raise PreconditionError("delta kappa_inf >= 1; tube map degenerates")
    shrink = (1.0 - delta * kappa_inf) ** 2

    R = (np.full(E_grid.shape[0], R_fixed, dtype=float) if R_fixed is not None
         else np.array([K_delta * abs(math.log(e)) for e in E_grid.tolist()]))
    bad_R = np.flatnonzero(~(np.isfinite(R) & (R > 0.0)))
    live = int(bad_R[0]) if bad_R.size else R.shape[0]
    # channel levels of every box half width delta R, in one call
    levels = threshold.box_levels(potential, delta * R[:live], _N_CHANNELS)
    E, R_live = E_grid[:live, None], R[:live, None]
    # (level - eps0) first: for the ground channel of a closed-form family
    # the pair cancels exactly, keeping mu = E R^2 alive at energies far
    # below one ulp of eps0
    with np.errstate(over="ignore", invalid="ignore"):
        mu = (levels - eps0 + E) * R_live * R_live * shrink
        bad_mu = np.flatnonzero(~(np.isfinite(mu).all(axis=1)
                                  & (mu.min(axis=1) > 0.0)))
    if bad_mu.size:
        i = int(bad_mu[0])
        raise PreconditionError(
            f"channel shifts mu in [{mu[i].min():.3e}, {mu[i].max():.3e}] at "
            f"E = {E_grid[i]:.3e}, R = {R[i]:.3e} are not all finite and "
            f"positive; model outside its near-threshold regime")
    if live < R.shape[0]:
        raise PreconditionError(
            f"matching radius R = {float(R[live])} must be finite and "
            f"positive")
    # _counts' live rule at rho0 = 1: a shift counts only below c
    c_max = max(c for _, _, c in retained)
    if not (mu * (1.0 - TIE_SHIFT) < c_max).any():
        raise PreconditionError(
            f"every channel shift mu (the least is {mu.min():.3e}) lies at or "
            f"above the largest retained c = {c_max:.3g}, so no level counts")
    # one call per mode covers every (E, channel) shift; mu_n rises with n,
    # so channels past the first empty one add nothing to the sum
    per_mode = {m: _counts(RadialProblem(c=c), mu).sum(axis=1)
                for m, _, c in retained}
    counts = sum(per_mode.values())

    ccurve = CountingCurve(E_grid, np.abs(np.log(E_grid)), counts)
    fit = fit_log_slope(ccurve)
    predicted = report.k_S
    # against a vanishing prediction the absolute slope is the error
    rel = abs(fit.slope - predicted) / predicted if predicted > 0 \
        else abs(fit.slope)

    params = {
        "delta": delta, "C_knob": C_knob, "eps_knob": eps_knob,
        "K_delta": K_delta, "R_fixed": R_fixed, "eps0": eps0,
        "kappa_inf": kappa_inf, "ell": curve.length,
        "ks_route": report.route,
        "retained_modes": [[m, lam, c] for m, lam, c in retained],
    }
    return AssembledModel(E_grid, ccurve.lnE_abs, counts, per_mode,
                          [list(t) for t in retained], predicted, fit, rel,
                          params)
