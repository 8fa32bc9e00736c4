"""The transverse line operator Q = -d^2/dx^2 + v and its ground state.

The ground energy eps0 is computed operationally as the Richardson-
extrapolated first Dirichlet eigenvalue on a truncated interval (-L, L): the
same discretization is built on n and on n // 2 nodes, each grid averaging
the piecewise-constant wells over its own cells, and both operators go to
spectral1d.lowest_eigenvalues.  In the continuum the matching Neumann value bounds it from below; at practical
L that enclosure is narrower than the grid resolves, so compute_threshold
records the pair without ordering it.  The truncation study fixes the grid
spacing h across the whole L-sweep: the discretization bias of lambda_1(L)
is then the same for every L and cancels in differences, which is what
makes the exponentially small truncation gaps measurable in double
precision.  Gap rates are therefore fitted against each family's own
largest-L value rather than against an external eps0.

Potential families (all even in x):

* square_well(depth, half_width): v = -depth on |x| < a, 0 outside.
* gaussian_well(depth, width):    v = -depth exp(-x^2 / (2 width^2)).
* confining(p):                   v = |x|^p.
* hard_wall(half_width):          Dirichlet box (-a, a); v = 0 inside.
* delta_approx(alpha, w_reg):     v = -(alpha / w_reg) on |x| < w_reg / 2,
                                  a delta well of strength alpha regularized
                                  at full width w_reg (integral -alpha).
* tabulated(x, v):                symmetrized by averaging v(x) and v(-x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import spectral1d
from ._serial import parallel_map, write_csv
from .errors import ConfigError, ConvergenceError, PreconditionError

# each family's parameters, named as in a potential document
_PARAMS = {"square_well": ("depth", "half_width"),
           "gaussian_well": ("depth", "width"), "confining": ("p",),
           "hard_wall": ("half_width",), "delta_approx": ("alpha", "w_reg"),
           "tabulated": ("x", "v")}

# numerical floor of a fixed-h eigenvalue difference: a few ulp of the
# operator scale 4/h^2 + |v|; gaps below ~10x this are unmeasurable
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PotentialSpec:
    family: str
    depth: float = 4.0
    half_width: float = 1.0
    width: float = 1.0
    p: float = 2.0
    alpha: float = 2.0
    w_reg: float = 0.1
    table_x: Optional[np.ndarray] = None
    table_v: Optional[np.ndarray] = None

    def validate(self) -> None:
        if self.family not in _PARAMS:
            raise PreconditionError(f"unknown potential family {self.family!r}")
        if self.family == "tabulated":
            x = np.asarray(self.table_x, dtype=float)
            v = np.asarray(self.table_v, dtype=float)
            if x.ndim != 1 or x.shape != v.shape or x.size < 2 \
                    or not np.isfinite([x, v]).all():
                raise PreconditionError(
                    f"tabulated potential needs finite 1-D x and v arrays of "
                    f"equal length >= 2, got shapes {x.shape} and {v.shape}")
            return
        names = _PARAMS[self.family]
        vals = [float(getattr(self, key)) for key in names]
        if self.family == "confining":
            ok, need = vals[0] >= 1.0, "p >= 1"
        else:
            ok, need = min(vals) > 0.0, " and ".join(f"{k} > 0" for k in names)
        if not (ok and all(map(math.isfinite, vals))):
            raise PreconditionError(f"{self.family} needs finite {need}, got "
                                    f"{dict(zip(names, vals))}")

    def __call__(self, x) -> np.ndarray:
        """Evaluate v(x); symmetric in x by construction."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        if self.family == "square_well":
            return np.where(ax < self.half_width, -self.depth, 0.0)
        if self.family == "gaussian_well":
            return -self.depth * np.exp(-x * x / (2.0 * self.width ** 2))
        if self.family == "confining":
            return ax ** self.p
        if self.family == "hard_wall":
            return np.zeros_like(x)
        if self.family == "delta_approx":
            return np.where(ax < 0.5 * self.w_reg, -self.alpha / self.w_reg, 0.0)
        xt = np.asarray(self.table_x, dtype=float)
        vt = np.asarray(self.table_v, dtype=float)
        order = np.argsort(xt)
        xt, vt = xt[order], vt[order]
        vp = np.interp(x, xt, vt)
        vm = np.interp(-x, xt, vt)
        return 0.5 * (vp + vm)

    def grid_samples(self, x, h: float) -> np.ndarray:
        """Samples for a grid of spacing h.

        Piecewise-constant wells are averaged over the cell [x - h/2,
        x + h/2]; point sampling would quantize the well width to the grid
        and cost an O(h) eigenvalue error with no clean h^2 expansion, which
        poisons extrapolation whenever a jump is not grid-aligned.  Smooth
        families take point values.
        """
        x = np.asarray(x, dtype=float)
        if self.family in ("square_well", "delta_approx"):
            if self.family == "square_well":
                w, depth = self.half_width, self.depth
            else:
                w, depth = 0.5 * self.w_reg, self.alpha / self.w_reg
            lo = np.maximum(np.abs(x) - 0.5 * h, -w)
            hi = np.minimum(np.abs(x) + 0.5 * h, w)
            frac = np.clip((hi - lo) / h, 0.0, 1.0)
            return -depth * frac
        return self(x)

    def v_inf(self) -> float:
        """liminf of v at infinity (closed form; tail minimum for tables)."""
        if self.family in ("square_well", "gaussian_well", "delta_approx"):
            return 0.0
        if self.family in ("confining", "hard_wall"):
            return math.inf
        xt = np.abs(np.asarray(self.table_x, dtype=float))
        vt = np.asarray(self(np.asarray(self.table_x, dtype=float)))
        cut = 0.9 * float(np.max(xt))
        tail = vt[xt >= cut]
        return float(np.min(tail)) if tail.size else float(np.min(vt))

    def domain_half_width(self, L: float) -> float:
        if self.family == "hard_wall":
            return min(L, self.half_width)
        return L


def potential_spec_from_dict(doc: dict) -> PotentialSpec:
    """Build a PotentialSpec from a JSON-style {family, params...} document."""
    if not isinstance(doc, dict) or "family" not in doc:
        raise ConfigError("potential document must be an object with a 'family' key")
    family = doc["family"]
    if not isinstance(family, str) or family not in _PARAMS:
        raise ConfigError(f"unknown potential family {family!r}")
    extra = set(doc) - {"family"} - set(_PARAMS[family])
    if extra:
        raise ConfigError(
            f"unknown potential key(s) for {family}: {sorted(extra)}")
    kwargs = {}
    for key in sorted(set(_PARAMS[family]) & set(doc)):
        try:
            if key in ("x", "v"):
                kwargs["table_" + key] = np.asarray(doc[key], dtype=float)
            else:
                kwargs[key] = float(doc[key])
        except (TypeError, ValueError):
            raise ConfigError(
                f"{key} must be numeric, got {doc[key]!r}") from None
    spec = PotentialSpec(family=family, **kwargs)
    spec.validate()
    return spec


@dataclass(frozen=True)
class ThresholdReport:
    eps0: float
    v_inf: float
    gap: float
    L_used: float
    n_used: int
    satisfied_iii: bool
    bracket: tuple  # (lambda_1 Neumann, lambda_1 Dirichlet), extrapolated

    def to_dict(self) -> dict:
        return {
            "eps0": self.eps0,
            "v_inf": self.v_inf,
            "gap": self.gap,
            "L_used": self.L_used,
            "n_used": self.n_used,
            "satisfied_iii": self.satisfied_iii,
            "bracket": list(self.bracket),
        }


@dataclass(frozen=True)
class TruncationSweep:
    L_grid: np.ndarray
    lam1_N: np.ndarray
    lam1_D: np.ndarray
    lam2_N: np.ndarray
    lam2_D: np.ndarray
    eps0: float
    rates: dict
    gap_delta: float
    L_min: float
    h: float


@dataclass(frozen=True)
class AgmonReport:
    theta: float
    R: float
    Phi_samples: np.ndarray
    weighted_norms: np.ndarray
    bound_estimate: float
    tail_norms: np.ndarray
    tail_fit: dict
    L_grid: np.ndarray
    eta: float


def _interval_op(spec: PotentialSpec, L: float, n: int,
                 kind: str) -> spectral1d.Operator1D:
    """Q on n nodes of (-L, L), each sampled by `grid_samples` over its
    own grid's cells."""
    half = spec.domain_half_width(L)
    grid = spectral1d.Grid1D.make(-half, half, n, kind)
    v = spec.grid_samples(grid.nodes(kind), grid.h)
    return spectral1d.assemble(v, grid, kind)


def _extrapolated_levels(spec: PotentialSpec, L: float, n: int, kind: str,
                         k: int) -> spectral1d.EigResult:
    """k lowest levels on n nodes of (-L, L), Richardson-extrapolated
    against the same discretization on n // 2 nodes."""
    return spectral1d.lowest_eigenvalues(
        _interval_op(spec, L, n, kind), k, want_vectors=False,
        coarse=_interval_op(spec, L, n // 2, kind))


def compute_threshold(spec: PotentialSpec, L: float = 12.0,
                      n: int = 4096) -> ThresholdReport:
    """Ground-state energy eps0 of Q, with gap and enclosure.

    eps0 is the Richardson-extrapolated first Dirichlet eigenvalue on the
    truncated interval; bracket records the Neumann/Dirichlet pair, whose
    continuum counterparts enclose eps0 from below and above.  At practical
    L the true width of that enclosure (~ exp(-2 sqrt(-eps0) L)) sits far
    below grid resolution, so the recorded pair agrees up to the
    extrapolation residual and its ordering is not meaningful; the ordered
    empirical bracketing lives in truncation_sweep, which works at fixed h
    where the discretization biases of the two closures separate cleanly.

    Raises
    ------
    PreconditionError
        If n < 512, if v does not exceed eps0 near the truncation ends, or if
        assumption eps0 < v_inf fails.
    ConvergenceError
        If the spectral gap is below resolution, so the ground state cannot
        be certified isolated.
    """
    spec.validate()
    if n < 512:
        raise PreconditionError(f"need n >= 512, got {n}")
    dir_res = _extrapolated_levels(spec, L, n, "dirichlet", 2)
    lam1_d, lam2_d = dir_res.extrapolated[:2]
    neu_res = _extrapolated_levels(spec, L, n, "neumann", 1)
    lam1_n = neu_res.extrapolated[0]
    eps0 = float(lam1_d)
    gap = float(lam2_d - lam1_d)

    # the truncation is only trustworthy if the potential confines at +-L
    if spec.family != "hard_wall":
        half = spec.domain_half_width(L)
        edge = np.linspace(0.95 * half, half, 32)
        vmin_edge = float(np.min(spec(edge)))
        if vmin_edge <= eps0:
            raise PreconditionError(
                f"potential near |x| = {half} dips to {vmin_edge:.6g} <= "
                f"eps0 = {eps0:.6g}; enlarge L")

    err_scale = max(abs(float(dir_res.richardson_error[1])), 1e-14)
    if gap <= 50.0 * err_scale:
        raise ConvergenceError(
            f"spectral gap {gap:.3e} below resolution {50.0 * err_scale:.3e}")
    v_inf = spec.v_inf()
    satisfied = bool(eps0 < v_inf)
    if not satisfied:
        raise PreconditionError(
            f"threshold eps0 = {eps0:.6g} does not lie below v_inf = {v_inf:.6g}")
    return ThresholdReport(eps0, v_inf, gap, spec.domain_half_width(L), n,
                           satisfied, (float(lam1_n), float(lam1_d)))


def _fit_semilog(L: np.ndarray, g: np.ndarray):
    """ln g = ln A - a L by least squares; returns (A, a, r_squared)."""
    y = np.log(g)
    coef = np.polyfit(L, y, 1)
    pred = np.polyval(coef, L)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(math.exp(coef[1])), float(-coef[0]), r2


def _sweep_lengths(spec: PotentialSpec, L_grid, h: float) -> np.ndarray:
    """Validated spec and spacing; the lengths sorted, each one finite."""
    spec.validate()
    if not (math.isfinite(h) and h > 0.0):
        raise PreconditionError(f"need finite spacing h > 0, got {h}")
    L_grid = np.asarray(sorted(float(L) for L in L_grid))
    if not np.isfinite(L_grid).all():
        raise PreconditionError(
            f"need finite sweep lengths L, got {L_grid.tolist()}")
    return L_grid


def truncation_sweep(spec: PotentialSpec, L_grid,
                     h: float = 1.0 / 32.0) -> TruncationSweep:
    """Raw eigenvalues of H_{L,N} and H_{L,D} over an L-grid at fixed h.

    Records lambda_1 and lambda_2 for both closures, the sweep's own eps0
    (midpoint of the largest-L enclosure), exponential rate fits of both
    truncation gaps, and the persistent gap delta = min_L lambda_2 - eps0.

    The rate fits use each family's largest-L value as the reference and drop
    L values whose gap sits within 10x the double-precision floor of the
    operator scale, where truncation error is unmeasurable.
    """
    L_grid = _sweep_lengths(spec, L_grid, h)
    if L_grid.size < 5:
        raise PreconditionError("truncation sweep needs at least 5 L values")

    def solve(args):
        L, kind = args
        n = int(round(2.0 * spec.domain_half_width(L) / h))
        if kind == "dirichlet":
            n -= 1
        res = spectral1d.lowest_eigenvalues(_interval_op(spec, L, n, kind), 2,
                                            want_vectors=False)
        return res.values[:2]

    work = [(L, kind) for L in L_grid for kind in ("neumann", "dirichlet")]
    out = parallel_map(solve, work)
    lam1_n = np.array([out[2 * i][0] for i in range(L_grid.size)])
    lam2_n = np.array([out[2 * i][1] for i in range(L_grid.size)])
    lam1_d = np.array([out[2 * i + 1][0] for i in range(L_grid.size)])
    lam2_d = np.array([out[2 * i + 1][1] for i in range(L_grid.size)])

    eps0 = 0.5 * (lam1_n[-1] + lam1_d[-1])

    vmax = float(np.max(np.abs(spec(np.linspace(0, float(L_grid[-1]), 257)))))
    floor = 50.0 * _EPS * (4.0 / (h * h) + vmax)

    rates = {}
    for name, lam1, sign in (("neumann", lam1_n, -1.0), ("dirichlet", lam1_d, 1.0)):
        gaps = sign * (lam1[:-1] - lam1[-1])
        keep = gaps > 10.0 * floor
        window = L_grid[:-1][keep]
        if window.size >= 3:
            A, a, r2 = _fit_semilog(window, gaps[keep])
            rates[name] = {"A": A, "a": a, "r_squared": r2,
                           "window_L": list(window)}
        else:
            rates[name] = {"A": math.nan, "a": math.nan, "r_squared": math.nan,
                           "window_L": list(window), "flagged": True}

    gap_delta = float(np.min(np.concatenate([lam2_n, lam2_d]) - eps0))

    # onset of empirical bracketing lambda_1(N) <= eps0 <= lambda_1(D)
    ok = (lam1_n <= eps0) & (eps0 <= lam1_d)
    L_min = float(L_grid[np.argmax(ok)]) if ok.any() else math.inf

    return TruncationSweep(L_grid, lam1_n, lam1_d, lam2_n, lam2_d,
                           float(eps0), rates, gap_delta, L_min, h)


def agmon_weight(spec: PotentialSpec, eps0: float, R: float,
                 x: np.ndarray) -> np.ndarray:
    """Agmon weight Phi(x) = int_R^{|x|} sqrt(v(t) - eps0) dt, zero inside.

    The integrand must be positive for |t| > R; a violation is reported with
    the offending region.
    """
    x = np.asarray(x, dtype=float)
    xmax = float(np.max(np.abs(x))) if x.size else R
    if xmax <= R:
        return np.zeros_like(x)
    t = np.linspace(R, xmax, max(1024, 4 * x.size))
    integrand_sq = spec(t) - eps0
    if np.any(integrand_sq <= 0.0):
        bad = t[integrand_sq <= 0.0]
        raise PreconditionError(
            f"v - eps0 is not positive on |x| in "
            f"[{bad.min():.6g}, {bad.max():.6g}]; Agmon weight undefined")
    integrand = np.sqrt(integrand_sq)
    phi_t = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))])
    return np.interp(np.abs(x), t, phi_t, left=0.0)


def agmon_norms(spec: PotentialSpec, theta: float, R: float, L_grid,
                h: float = 1.0 / 32.0, eta: float = 1.0) -> AgmonReport:
    """Agmon-weighted norms of the Neumann ground states over an L-sweep.

    For each L the ground state phi_{L,N} is solved at fixed spacing h and
    int e^{2 theta Phi} phi^2 dx is evaluated by the grid quadrature.  Tail
    norms ||phi_{L,N}|| over {L - eta < |x| < L} are recorded alongside and
    fitted to a decaying exponential in L.
    """
    L_grid = _sweep_lengths(spec, L_grid, h)
    if not 0.0 <= theta < 1.0:
        raise PreconditionError(f"need theta in [0, 1), got {theta}")
    if math.isnan(R):
        raise PreconditionError("need a number for the Agmon radius R, got nan")
    if not (math.isfinite(eta) and eta > 0.0):
        raise PreconditionError(f"need finite tail width eta > 0, got {eta}")
    eps0_ref = compute_threshold(spec, L=float(L_grid[-1]),
                                 n=max(512, int(round(2 * L_grid[-1] / h)))).eps0

    def solve(L):
        n = int(round(2.0 * spec.domain_half_width(L) / h))
        op = _interval_op(spec, L, n, "neumann")
        phi = spectral1d.lowest_eigenvalues(op, 1).vectors[:, 0]
        x = op.grid.nodes("neumann")
        w = agmon_weight(spec, eps0_ref, R, x) if theta > 0 else np.zeros_like(x)
        weighted = float(op.grid.h * np.sum(np.exp(2.0 * theta * w) * phi ** 2))
        mask = np.abs(x) > L - eta
        tail = float(math.sqrt(op.grid.h * np.sum(phi[mask] ** 2)))
        return weighted, tail, x, w

    out = parallel_map(solve, L_grid)
    weighted = np.array([o[0] for o in out])
    tails = np.array([o[1] for o in out])
    A, b, r2 = _fit_semilog(L_grid, tails)
    return AgmonReport(theta, R, out[-1][3], weighted,
                       float(np.max(weighted)), tails,
                       {"B": A, "b": b, "r_squared": r2}, L_grid, eta)


def write_sweep_csv(sweep: TruncationSweep, agmon: Optional[AgmonReport],
                    path) -> None:
    rows = []
    for i, L in enumerate(sweep.L_grid):
        a_norm = agmon.weighted_norms[i] if agmon is not None else math.nan
        t_norm = agmon.tail_norms[i] if agmon is not None else math.nan
        rows.append((L, sweep.lam1_N[i], sweep.lam1_D[i], sweep.lam2_N[i],
                     sweep.lam2_D[i], a_norm, t_norm))
    write_csv(path, ["L", "lam1_N", "lam1_D", "lam2_N", "lam2_D",
                     "agmon_norm", "tail_norm"], rows)
