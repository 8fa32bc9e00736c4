"""The transverse line operator Q = -d^2/dx^2 + v and its ground state.

The ground energy eps0 is computed operationally as the Richardson-
extrapolated first Dirichlet eigenvalue on a truncated interval (-L, L): the
same discretization is built on n and on n // 2 nodes, each grid averaging
the piecewise-constant wells over its own cells, and both operators go to
spectral1d.lowest_eigenvalues, which solves the half grid first.  Every
operator is made exactly mirror-symmetric, so that solve takes lambda_1
and lambda_2 from its even and odd halves.  In the continuum the matching
Neumann value bounds it from below; at practical L that enclosure is
narrower than the grid resolves, so compute_threshold records the pair
without ordering it.
The truncation study fixes the grid spacing h across the whole L-sweep: the
discretization bias of lambda_1(L) is then the same for every L and cancels
in differences, which is what makes the exponentially small truncation gaps
measurable in double precision.  Gap rates are therefore fitted against each
family's own largest-L value rather than against an external eps0.  The
sweep's Neumann solves return their ground states too, and agmon_norms
weighs those, with the sweep's own eps0, for the Agmon decay check
(assumption (iii)).  box_levels owns Q's Dirichlet levels on a box, a hard
wall's in closed form.

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
from dataclasses import dataclass
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
_LOG_MAX = math.log(np.finfo(float).max)


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
        """Half width of the interval solved at truncation L: L itself, or
        the box (-a, a) for hard_wall, which needs L >= a.  A confining
        |x|^p must stay finite out to L."""
        if self.family == "confining" and 1.0 < L < math.inf and \
                self.p * math.log(L) >= _LOG_MAX:
            raise PreconditionError(
                f"confining |x|^p with p = {self.p:g} overflows at the "
                f"truncation half width L = {L:g}; lower p or L")
        if self.family != "hard_wall":
            return L
        if not L >= self.half_width:
            raise PreconditionError(
                f"hard_wall box half width a = {self.half_width:g} exceeds "
                f"the truncation L = {L:g}; need L >= a")
        return self.half_width


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
            # float(True) is 1.0, where a number was meant
            if bool in map(type, np.ravel(np.array(doc[key], dtype=object))):
                raise TypeError("a boolean for a number")
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
    ground_states: tuple  # (grid, phi_{L,N}) of each L, h-normalized


@dataclass(frozen=True)
class AgmonReport:
    theta: float
    R: float
    weighted_norms: np.ndarray
    bound_estimate: float
    tail_norms: np.ndarray
    tail_fit: dict
    eta: float


def _interval_op(spec: PotentialSpec, L: float, n: int,
                 kind: str) -> spectral1d.Operator1D:
    """Q on n nodes of (-L, L), each sampled by `grid_samples` over its
    own grid's cells and averaged with its mirror node's sample: Q is even,
    but the nodes are mirror images only up to rounding."""
    half = spec.domain_half_width(L)
    grid = spectral1d.Grid1D.make(-half, half, n, kind)
    v = spec.grid_samples(grid.nodes(), grid.h)
    return spectral1d.assemble(0.5 * (v + v[::-1]), grid)


def _extrapolated_levels(spec: PotentialSpec, L: float, n: int, kind: str,
                         k: int) -> spectral1d.EigResult:
    """k lowest levels on n nodes of (-L, L), Richardson-extrapolated
    against the same discretization on n // 2 nodes."""
    return spectral1d.lowest_eigenvalues(
        _interval_op(spec, L, n, kind), k, want_vectors=False,
        coarse=_interval_op(spec, L, n // 2, kind))


def box_levels(spec: PotentialSpec, half_width: float, k: int) -> np.ndarray:
    """The k lowest Dirichlet levels of Q on (-w, w).

    A hard wall's box has w = min(half_width, a) and levels (j pi / 2w)^2 in
    Python floats, so lambda_1 - eps0 cancels to exactly 0 at any E; levels
    that overflow are a PreconditionError.  Other families take w =
    half_width and _extrapolated_levels at spacing at most 1/512 and at
    least 1023 interior nodes, meaningful only above that solve's error.
    """
    if spec.family == "hard_wall":
        w = min(half_width, spec.half_width)
        try:
            levels = [(j * math.pi / (2.0 * w)) ** 2 for j in range(1, k + 1)]
            if math.isinf(levels[-1]):  # pi / (2 w) rounds to inf unraised
                raise OverflowError
        except (OverflowError, ZeroDivisionError):
            raise PreconditionError(
                f"hard_wall levels overflow on the half width {w:.3e}"
            ) from None
        return np.array(levels)
    n = max(1024, int(round(2.0 * half_width * 512.0)))
    return _extrapolated_levels(spec, half_width, n - 1, "dirichlet",
                                k).extrapolated


def compute_threshold(spec: PotentialSpec, L: float = 12.0,
                      n: int = 4096) -> ThresholdReport:
    """Ground-state energy eps0 of Q, with gap and enclosure.

    eps0 is the Richardson-extrapolated first Dirichlet eigenvalue on the
    truncated interval; bracket records the Neumann/Dirichlet pair, whose
    continuum counterparts enclose eps0.  At practical L the true width of
    that enclosure (~ exp(-2 sqrt(-eps0) L)) sits far below grid
    resolution, so the recorded pair agrees up to the extrapolation
    residual and its ordering is not meaningful; the ordered empirical
    bracketing lives in truncation_sweep, which works at fixed h where the
    discretization biases of the two closures separate cleanly.  A hard
    wall takes eps0 = (pi / 2a)^2 and bracket (eps0, eps0) from box_levels.

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
    half = spec.domain_half_width(L)
    if spec.family == "hard_wall":
        lam1, lam2 = map(float, box_levels(spec, half, 2))
        return ThresholdReport(lam1, math.inf, lam2 - lam1, half, n, True,
                               (lam1, lam1))
    dir_res = _extrapolated_levels(spec, L, n, "dirichlet", 2)
    eps0, lam2 = map(float, dir_res.extrapolated[:2])
    lam1_n = _extrapolated_levels(spec, L, n, "neumann", 1).extrapolated[0]
    gap = lam2 - eps0

    # the truncation is only trustworthy if the potential confines at +-L
    vmin_edge = float(np.min(spec(np.linspace(0.95 * half, half, 32))))
    if vmin_edge <= eps0:
        raise PreconditionError(
            f"potential near |x| = {half} dips to {vmin_edge:.6g} <= "
            f"eps0 = {eps0:.6g}; enlarge L")

    err_scale = max(abs(float(dir_res.richardson_error[1])), 1e-14)
    if gap <= 50.0 * err_scale:
        raise ConvergenceError(
            f"spectral gap {gap:.3e} below resolution {50.0 * err_scale:.3e}")
    v_inf = spec.v_inf()
    if not eps0 < v_inf:
        raise PreconditionError(
            f"threshold eps0 = {eps0:.6g} does not lie below v_inf = {v_inf:.6g}")
    return ThresholdReport(eps0, v_inf, gap, half, n, True,
                           (float(lam1_n), eps0))


def _fit_semilog(L: np.ndarray, g: np.ndarray):
    """ln g = ln A - a L by least squares; returns (A, a, r_squared)."""
    y = np.log(g)
    coef = np.polyfit(L, y, 1)
    pred = np.polyval(coef, L)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(math.exp(coef[1])), float(-coef[0]), r2


def _check_spacing(spec: PotentialSpec, L_lo: float, L_hi: float,
                   h: float) -> None:
    """Refuse a spacing h that is not finite and positive, that leaves the
    sweep's shortest interval, at length L_lo, fewer than 16 nodes, or
    whose node count 2 L / h at the longest length L_hi is not finite."""
    if not (math.isfinite(h) and h > 0.0):
        raise PreconditionError(f"need finite spacing h > 0, got {h}")
    if not math.isfinite(2.0 * float(spec.domain_half_width(L_hi)) / h):
        raise PreconditionError(
            f"spacing h = {h} makes the node count 2 L / h at L = {L_hi:g} "
            f"overflow")
    half = spec.domain_half_width(L_lo)
    if int(round(2.0 * half / h)) - 1 < 16:
        raise PreconditionError(
            f"the shortest sweep interval (-{half:g}, {half:g}), at L = "
            f"{L_lo:g}, holds fewer than 16 nodes at spacing h = {h:g}")


def sweep_lengths(spec: PotentialSpec, L_min: float, L_max: float, num: int,
                  h: float) -> np.ndarray:
    """`num` evenly spaced truncation lengths from L_min to L_max.

    Everything is checked before the array is made.  Lengths closer than
    h / 2 round to the same node count 2 L / h, so more than
    1 + 2 |L_max - L_min| / h of them, which includes equal ends, are more
    than spacing h can tell apart and a PreconditionError.
    """
    ends = [L_min, L_max]
    if not np.isfinite(ends).all():
        raise PreconditionError(f"need finite sweep lengths L, got {ends}")
    if num < 5:
        raise PreconditionError(
            f"truncation sweep needs at least 5 L values, got L_num = {num}")
    _check_spacing(spec, min(ends), max(ends), h)
    most = 1.0 + 2.0 * abs(L_max - L_min) / h
    if num > most:
        raise PreconditionError(
            f"L_num = {num} lengths on [{L_min:g}, {L_max:g}] are more than "
            f"spacing h = {h:g} tells apart (at most {math.floor(most)}, "
            f"h / 2 apart)")
    return np.linspace(L_min, L_max, num)


def truncation_sweep(spec: PotentialSpec, L_grid,
                     h: float = 1.0 / 32.0) -> TruncationSweep:
    """Raw eigenvalues of H_{L,N} and H_{L,D} over an L-grid at fixed h.

    Records lambda_1 and lambda_2 for both closures, the sweep's own eps0
    (midpoint of the largest-L enclosure), exponential rate fits of both
    truncation gaps, and the persistent gap delta = min_L lambda_2 - eps0.
    The Neumann solves (a hard wall's box is Dirichlet under both) return
    vectors too: each L keeps its grid and ground state for agmon_norms.
    The operators are solved in order of L, each started from the latest
    vectors, which moves their levels by rounding only.

    The rate fits use each family's largest-L value as the reference and drop
    L values whose gap sits within 10x the double-precision floor of the
    operator scale, where truncation error is unmeasurable.
    """
    spec.validate()
    L_grid = np.asarray(sorted(float(L) for L in L_grid))
    if not np.isfinite(L_grid).all():
        raise PreconditionError(
            f"need finite sweep lengths L, got {L_grid.tolist()}")
    if L_grid.size < 5:
        raise PreconditionError("truncation sweep needs at least 5 L values")
    _check_spacing(spec, L_grid[0], L_grid[-1], h)

    # hard_wall clamps every L >= a to the box (-a, a), Dirichlet either way
    wall = spec.family == "hard_wall"

    def operator(L, kind):
        half = spec.domain_half_width(L)
        n = int(round(2.0 * half / h))
        if kind == "dirichlet" or wall:
            return half, n - 1, "dirichlet"
        return half, n, kind

    last = None  # (grid, values, vectors) of the latest solve with vectors

    def solve(args):
        nonlocal last
        half, n, kind = args
        op = _interval_op(spec, half, n, kind)
        res = spectral1d.lowest_eigenvalues(
            op, 2, want_vectors=wall or kind == "neumann", _start=last)
        if res.vectors is not None:
            last = (op.grid, res.values, res.vectors)
        return op.grid, res

    work = [operator(L, kind) for L in L_grid
            for kind in ("neumann", "dirichlet")]
    # solve each distinct operator once; parallel_map keeps their order, so
    # each length's Neumann operator starts from the previous length's
    # Neumann solve, and its Dirichlet operator from that length's Neumann
    distinct = list(dict.fromkeys(work))
    solved = dict(zip(distinct, parallel_map(solve, distinct)))
    out = [solved[key] for key in work]
    neu = out[0::2]
    lam1_n, lam2_n = np.array([res.values for _, res in neu]).T
    lam1_d, lam2_d = np.array([res.values for _, res in out[1::2]]).T

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
                           float(eps0), rates, gap_delta, L_min, h,
                           tuple((g, res.vectors[:, 0]) for g, res in neu))


def _agmon_table(spec: PotentialSpec, eps0: float, R: float, x: np.ndarray):
    """Nodes t on [R, max |x|] and Phi there by the trapezoid rule, at
    max(1024, 4 x.size) points; None when no |x| exceeds R."""
    xmax = float(np.max(np.abs(x))) if x.size else R
    if xmax <= R:
        return None
    t = np.linspace(R, xmax, max(1024, 4 * x.size))
    integrand_sq = spec(t) - eps0
    if np.any(integrand_sq <= 0.0):
        bad = t[integrand_sq <= 0.0]
        raise PreconditionError(
            f"v - eps0 is not positive on |x| in "
            f"[{bad.min():.6g}, {bad.max():.6g}]; Agmon weight undefined")
    integrand = np.sqrt(integrand_sq)
    return t, np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))])


def agmon_weight(spec: PotentialSpec, eps0: float, R: float,
                 x: np.ndarray) -> np.ndarray:
    """Agmon weight Phi(x) = int_R^{|x|} sqrt(v(t) - eps0) dt, zero inside.

    The integrand must be positive for |t| > R; a violation is reported with
    the offending region.
    """
    x = np.asarray(x, dtype=float)
    table = _agmon_table(spec, eps0, R, x)
    if table is None:
        return np.zeros_like(x)
    return np.interp(np.abs(x), *table, left=0.0)


def agmon_norms(spec: PotentialSpec, sweep: TruncationSweep, theta: float,
                R: float, eta: float = 1.0) -> AgmonReport:
    """Agmon-weighted norms of a truncation sweep's Neumann ground states.

    `sweep` is truncation_sweep(spec, ...); its ground state phi_{L,N} at
    each L is weighed as it stands, with Phi at the sweep's own eps0 read
    from one table on the longest length's nodes (Phi depends on |x|
    alone), and int e^{2 theta Phi} phi^2 dx is evaluated by the grid
    quadrature.  Tail norms ||phi_{L,N}|| over {L - eta < |x| < L}, scaled
    sums (math.hypot) that no square underflows, are recorded alongside
    and fitted to a decaying exponential in L.  A window with no grid node,
    a weighted norm that overflows, and a tail norm that is 0 or does not
    fall below the previous length's (the ground state has reached its
    floating-point floor) are each a PreconditionError.
    """
    if not 0.0 <= theta < 1.0:
        raise PreconditionError(f"need theta in [0, 1), got {theta}")
    if not math.isfinite(R):
        raise PreconditionError(f"need a finite Agmon radius R, got {R}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise PreconditionError(f"need finite tail width eta > 0, got {eta}")
    L_grid = sweep.L_grid
    table = None if theta == 0 else _agmon_table(
        spec, sweep.eps0, R, sweep.ground_states[-1][0].nodes())
    weighted, tails = [], []
    for L, (grid, phi) in zip(L_grid, sweep.ground_states):
        x = grid.nodes()
        w = 0.0 if table is None else np.interp(np.abs(x), *table, left=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = float(grid.h * np.sum(np.exp(2.0 * theta * w) * phi ** 2))
        if not math.isfinite(norm):
            raise PreconditionError(
                f"the Agmon-weighted norm at L = {L:g}, theta = {theta:g} is "
                f"not finite: the weight e^(2 theta Phi) leaves the "
                f"floating-point range; lower theta or L_max")
        weighted.append(norm)
        mask = np.abs(x) > L - eta
        if not mask.any():
            raise PreconditionError(
                f"Agmon tail window {L - eta:g} < |x| < {L:g} (eta = {eta:g})"
                f" holds no node of the grid on ({grid.a:g}, {grid.b:g}) at "
                f"spacing h = {grid.h:g}")
        tails.append(math.sqrt(grid.h) * math.hypot(*phi[mask]))
    weighted, tails = np.array(weighted), np.array(tails)
    rise = np.flatnonzero((tails[1:] >= tails[:-1]) | (tails[1:] == 0.0))
    if rise.size:
        i = int(rise[0]) + 1
        raise PreconditionError(
            f"the Agmon tail norm at L = {L_grid[i]:g} is {tails[i]:.3g}, not "
            f"below {tails[i - 1]:.3g} at L = {L_grid[i - 1]:g}: the ground "
            f"state has reached its floating-point floor, where the weighted "
            f"norms mean nothing; lower L_max")
    A, b, r2 = _fit_semilog(L_grid, tails)
    return AgmonReport(theta, R, weighted, float(np.max(weighted)), tails,
                       {"B": A, "b": b, "r_squared": r2}, eta)


def write_sweep_csv(sweep: TruncationSweep, agmon: Optional[AgmonReport],
                    path) -> None:
    if agmon is None:
        norms = [np.full(len(sweep.L_grid), math.nan)] * 2
    else:
        norms = [agmon.weighted_norms, agmon.tail_norms]
    write_csv(path, ["L", "lam1_N", "lam1_D", "lam2_N", "lam2_D",
                     "agmon_norm", "tail_norm"],
              [sweep.L_grid, sweep.lam1_N, sweep.lam1_D, sweep.lam2_N,
               sweep.lam2_D, *norms])
