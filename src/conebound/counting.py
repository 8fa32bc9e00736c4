"""Eigenvalue counting for inverse-square half-line operators.

The core object is A_c = -d^2/drho^2 - c / rho^2 on (rho0, inf) with a
boundary condition at rho0.  For c > 1/4 the number of eigenvalues below -E
grows like sqrt(c - 1/4) |ln E| / (2 pi) as E -> 0+; for c <= 1/4 it stays
bounded.  Counts are evaluated by oscillation theory: in x = sqrt(E) rho
every level shares one decaying solution, sqrt(rho) K_{i nu}(x), and the
count below -E is the number of its zeros above x0 = sqrt(E) rho0.  One
Pruefer phase sweep, run inward in ln x from past the turning point, is
read off at every requested x0, so a whole staircase costs one integration
and needs no truncation radius.  The sweep runs on `_dopri45`, a scalar
Dormand-Prince 5(4) kernel on plain floats that takes the same steps as
scipy's RK45 without its per-step array overhead; the forward shooter
`spectral1d.oscillation_count`, the tests' independent oracle, stays on
scipy's `solve_ivp`.  Below -c / rho0^2 the operator has no spectrum at
all (-c/rho^2 >= -c/rho0^2 on the half-line), so levels that deep count 0
without any integration.

`assemble_model` stacks these half-line counters into the surface model: the
cross-section modes come from the curvature operator spectrum, the shrinking
transverse wells contribute channel shifts, and the resulting staircase is
compared against the predicted log slope.  Counting itself needs only numpy
and math: `assemble_model` imports the scipy-backed layers (curvature
operator, threshold, spectral1d) when it is called, not at import.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._serial import parallel_map, write_csv
from .errors import ConvergenceError, PreconditionError
from .geometry import SampledCurve, sup_curvature

if TYPE_CHECKING:
    from .threshold import PotentialSpec

TIE_SHIFT = 1e-12  # relative level shift that makes "<= level" count ties
_TRANSVERSE_H = 1.0 / 512.0  # largest grid spacing of the transverse levels


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


# Dormand-Prince 5(4) with Shampine's quartic dense output: the tableau of
# scipy.integrate.RK45 (Hairer, Norsett & Wanner I, Sec. II.4-6).  _DP_P is
# its interpolant matrix without the first column, which picks stage 1 alone
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
         -22 / 525, 1 / 40)
_DP_P = ((-8048581381 / 2820520608, 8663915743 / 2820520608,
          -12715105075 / 11282082432),
         (0.0, 0.0, 0.0),
         (131558114200 / 32700410799, -68118460800 / 10900136933,
          87487479700 / 32700410799),
         (-1754552775 / 470086768, 14199869525 / 1410260304,
          -10690763975 / 1880347072),
         (127303824393 / 49829197408, -318862633887 / 49829197408,
          701980252875 / 199316789632),
         (-282668133 / 205662961, 2019193451 / 616988883,
          -1453857185 / 822651844),
         (40617522 / 29380423, -110615467 / 29380423,
          69997945 / 29380423))
_RTOL = 1e-8
_ATOL = 1e-10


def _dopri45(fun, t0: float, y0: float, t_eval) -> list:
    """Solve the scalar y' = fun(t, y), y(t0) = y0, and return y at t_eval.

    `t_eval` runs monotonically away from t0 and the integration stops at
    its last point.  Step for step this is scipy's RK45 at rtol = _RTOL,
    atol = _ATOL: the same initial-step rule, the same control (safety 0.9,
    step factors 0.2 to 10 with exponent -1/5, no growth right after a
    rejection) and the same dense output, without the per-step array
    overhead of a general vector solver.  A step that falls below 10 ulp of
    t, which includes a NaN step, raises ConvergenceError.
    """
    t_end = t_eval[-1]
    direction = math.copysign(1.0, t_end - t0)
    span = abs(t_end - t0)
    t, y, f = t0, y0, fun(t0, y0)
    scale = _ATOL + abs(y) * _RTOL
    d0, d1 = abs(y) / scale, abs(f) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = abs(fun(t + h0 * direction, y + h0 * direction * f) - f) \
        / scale / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, span)
    out = []
    while direction * (t - t_end) < 0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise ConvergenceError(
                    f"step size {h_abs:.3e} below {min_step:.3e} at t = {t}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for c, a in zip(_DP_C, _DP_A):
                K.append(fun(t + c * h,
                             y + sum(ai * ki for ai, ki in zip(a, K)) * h))
            y_new = y + h * sum(b * ki for b, ki in zip(_DP_B, K))
            K.append(fun(t + h, y_new))
            err = abs(sum(e * ki for e, ki in zip(_DP_E, K)) * h) \
                / (_ATOL + max(abs(y), abs(y_new)) * _RTOL)
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        i = len(out)
        if i < len(t_eval) and direction * (t_eval[i] - t_new) <= 0:
            q = [sum(p[j] * ki for p, ki in zip(_DP_P, K)) for j in range(3)]
            while i < len(t_eval) and direction * (t_eval[i] - t_new) <= 0:
                x = (t_eval[i] - t) / h
                out.append(y + h * x * (f + x * (q[0] + x * (q[1]
                                                               + x * q[2]))))
                i += 1
        t, y, f = t_new, y_new, K[-1]
    return out


def _sweep_counts(problem: RadialProblem, E) -> np.ndarray:
    """Eigenvalue counts below each level -E / scale, from one phase sweep.

    Levels are nudged up by TIE_SHIFT, so an eigenvalue at exactly
    -E / scale is included.

    With x = sqrt(E) rho, s = ln x and u = sqrt(rho) w, the equation
    -u'' - c/rho^2 u = -E u becomes w'' = (e^{2s} - nu^2) w, nu^2 = c - 1/4,
    for every E at once: only the boundary point s0 = ln(sqrt(E) rho0) moves.
    Its decaying solution is w = K_{i nu}(e^s), and the count below -E is
    the number of its zeros above s0 (Kirsch & Simon).  The Pruefer phase
    (w ~ sin(theta), w_s ~ k cos(theta)) obeys

        theta' = k cos^2(theta) + (nu^2 - e^{2s}) sin^2(theta) / k,

    with k = nu (theta' = nu below the turning point) floored at 1/4: as
    nu -> 0 a scale k = nu would squeeze every phase, the start angle and
    the Neumann target atan2(k, -1/2) alike, onto pi, below the solver's
    tolerance.  It starts past the turning point, at x1 = nu + 40, from the
    WKB ratio w_s / w = -sqrt(x^2 - nu^2) - x^2 / (2 (x^2 - nu^2)), and runs
    inward, where the decaying solution dominates and a start error dies
    out, on the scalar Dormand-Prince kernel `_dopri45`.  A zero of w is
    theta = 0 mod pi with theta' = k > 0, so theta falls through the
    multiples of pi on the way in.  The boundary
    condition is theta_bc = 0 for Dirichlet and atan2(k, -1/2) for Neumann
    (u'(rho0) = 0 is w_s / w = -1/2), and the count is the number of
    branches theta_bc - j pi, j >= 0, above theta(s0).  Once 40 is below
    one ulp of nu there is no start point past the turning point, and a c
    that large is a precondition error.
    """
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
    nu = math.sqrt(max(nu2, 0.0))
    k = max(nu, 0.25)
    # a live level has x0^2 < c = nu^2 + 1/4, so every x0 lies below x1
    s0, inverse = np.unique(0.5 * np.log(depth[live]) + math.log(problem.rho0),
                          return_inverse=True)
    x1 = nu + 40.0
    q1 = x1 * x1 - nu2
    if x1 == nu or q1 <= 0.0:
        raise PreconditionError(
            f"c = {problem.c:g} too large for a WKB start past the turning "
            f"point x = nu")
    theta1 = math.atan2(k, -math.sqrt(q1) - x1 * x1 / (2.0 * q1))

    def rhs(s, theta):
        sn = math.sin(theta)
        cs = math.cos(theta)
        return k * cs * cs + (nu2 - math.exp(2.0 * s)) * sn * sn / k

    theta = np.array(_dopri45(rhs, math.log(x1), theta1,
                              s0[::-1].tolist()))[::-1][inverse]
    theta_bc = 0.0 if problem.bc == "dirichlet" else math.atan2(k, -0.5)
    counts[live] = np.maximum(0, np.ceil((theta_bc - theta) / math.pi))
    return counts


def count_radial(problem: RadialProblem, E: float) -> int:
    """Number of eigenvalues of the radial operator below -E.

    The count is read off one inward phase sweep (see `_sweep_counts`),
    which has no truncation radius.  An eigenvalue at exactly -E is
    included.
    """
    problem.validate()
    if not E > 0:
        raise PreconditionError(f"need E > 0, got {E}")
    return int(_sweep_counts(problem, [E])[0])


def counting_curve(problem: RadialProblem, E_grid) -> CountingCurve:
    """Counting function N(E) over a descending positive energy grid.

    All counts come from a single inward phase sweep read off at every grid
    energy.  Above the bottom of the potential the phase crosses each
    boundary branch in one direction only, so N is nonincreasing in E.
    """
    problem.validate()
    E = np.asarray([float(v) for v in E_grid])
    if E.size < 2:
        raise PreconditionError("energy grid needs at least 2 entries")
    if not np.all(E > 0):
        raise PreconditionError("energy grid must be strictly positive")
    if np.any(np.diff(E) >= 0):
        raise PreconditionError("energy grid must be strictly decreasing")
    counts = _sweep_counts(problem, E)
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
    rows = list(zip(curve.E, curve.lnE_abs, curve.N))
    write_csv(path, ["E", "lnE_abs", "N"], rows)


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
    if not (top > 0.0 and bottom > 0.0):
        raise PreconditionError("energy grid must be strictly positive")
    return np.logspace(math.log10(top), math.log10(bottom), n)


def _transverse_levels(potential: PotentialSpec, half_width: float,
                       n_max: int) -> np.ndarray:
    """Dirichlet levels of the transverse well on (-w, w).

    hard_wall is a free box and the levels are taken in closed form; that
    keeps the shifts E - eps0 + lambda_n exact at energies far below the
    discretization error of any grid.  Other families go through the
    threshold layer's extrapolated solve, the one that gives eps0:
    cell-averaged samples on a Dirichlet grid of spacing at most
    _TRANSVERSE_H, Richardson-extrapolated on the half grid's own cell
    averages.  They are only meaningful while the shifts stay above that
    solve's error.
    """
    if potential.family == "hard_wall":
        w = min(half_width, potential.half_width)
        return np.array([(k * math.pi / (2.0 * w)) ** 2
                         for k in range(1, n_max + 1)])
    from .threshold import _extrapolated_levels

    n = max(1024, int(round(2.0 * half_width / _TRANSVERSE_H)))
    return _extrapolated_levels(potential, half_width, n - 1, "dirichlet",
                                n_max).extrapolated


def assemble_model(curve: SampledCurve, potential: PotentialSpec,
                   delta: float = 0.05, C_knob: float = 0.0,
                   eps_knob: float = 0.0, K_delta: float = 5.0,
                   R_fixed: Optional[float] = None,
                   E_grid: Optional[np.ndarray] = None,
                   eps0: Optional[float] = None, n_modes: int = 12,
                   n_channels: int = 8) -> AssembledModel:
    """Assembled eigenvalue count of the conical surface model.

    For each energy E on the grid the matching radius is R(E) = K_delta
    |ln E| (or R_fixed), the transverse Dirichlet well on (-delta R,
    delta R) contributes channel levels lambda_n, and each retained cross
    mode m counts half-line eigenvalues below the shifted level

        mu_n(E) = (E - eps0 + lambda_n) R^2 (1 - delta kappa_inf)^2

    with attractive coefficient c_m = (1 - C_knob (delta + eps_knob)) / 4
    - lambda_m.  Modes with c_m <= 0 cannot bind and are dropped.  Each
    mode counts all its (E, n) shifts from one inward phase sweep.  The
    staircase is then fitted against |ln E| and compared with the predicted
    slope sum sqrt(-lambda_m) / (2 pi) from the curvature operator
    spectrum.  The levels lambda_m and that slope are `ks_fd`'s (n = 1024,
    k = 12), the same numbers `ks_constant` reports; the Fourier cross-check
    it adds is not run here, since nothing assembled reads it.
    """
    from . import curvature_operator, threshold
    if not 0.0 < delta < 0.5:
        raise PreconditionError(f"need delta in (0, 0.5), got {delta}")
    for name, knob in (("C_knob", C_knob), ("eps_knob", eps_knob)):
        if not math.isfinite(knob):
            raise PreconditionError(f"need finite {name}, got {knob}")
    if not (n_modes >= 1 and n_channels >= 1):
        raise PreconditionError(f"need n_modes >= 1 and n_channels >= 1, got "
                                f"{n_modes} and {n_channels}")
    potential.validate()
    if E_grid is None:
        E_grid = default_energy_grid()
    E_grid = np.asarray([float(v) for v in E_grid])

    report = curvature_operator.ks_fd(curve)
    lambdas = np.asarray(report.eigenvalues)
    kappa_inf = sup_curvature(curve)

    if eps0 is None:
        if potential.family == "hard_wall":
            eps0 = (math.pi / (2.0 * potential.half_width)) ** 2
        else:
            eps0 = threshold.compute_threshold(potential).eps0

    c_knob = (1.0 - C_knob * (delta + eps_knob)) / 4.0
    modes = [(m, float(lam), c_knob - float(lam))
             for m, lam in enumerate(lambdas[:n_modes])]
    retained = [(m, lam, c) for m, lam, c in modes if c > 0.0]
    if not retained:
        raise PreconditionError("no cross-section mode can bind; "
                                "nothing to assemble")

    shrink = (1.0 - delta * kappa_inf) ** 2
    if shrink <= 0.0:
        raise PreconditionError("delta kappa_inf >= 1; tube map degenerates")

    def shifts_at(E):
        R = R_fixed if R_fixed is not None else K_delta * abs(math.log(E))
        if not (math.isfinite(R) and R > 0.0):
            raise PreconditionError(
                f"matching radius R = {R} must be finite and positive")
        levels = _transverse_levels(potential, delta * R, n_channels)
        # (level - eps0) first: for the ground channel of a closed-form
        # family the pair cancels exactly, keeping mu = E R^2 alive at
        # energies far below one ulp of eps0
        mu = (levels - eps0 + E) * R * R * shrink
        if mu.min() <= 0.0:
            raise PreconditionError(
                f"channel shift mu = {mu.min():.3e} not positive at "
                f"E = {E:.3e}; model outside its near-threshold regime")
        return mu

    mu = np.array(parallel_map(shifts_at, E_grid))
    # one sweep per mode covers every (E, channel) shift; mu_n rises with n,
    # so channels past the first empty one add nothing to the sum
    per_mode = {m: _sweep_counts(RadialProblem(c=c), mu).sum(axis=1)
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
        "retained_modes": [[m, lam, c] for m, lam, c in retained],
    }
    return AssembledModel(E_grid, ccurve.lnE_abs, counts, per_mode,
                          [list(t) for t in retained], predicted, fit, rel,
                          params)
