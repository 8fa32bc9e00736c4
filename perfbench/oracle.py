"""Reference values that share no code with conebound.

Counts of the half-line operator -u'' - c/rho^2 u on (1, inf), u(1) = 0:
with nu = sqrt(c - 1/4), the decaying solution at energy -t^2 is
sqrt(rho) K_{i nu}(t rho), so the bound states are -t_k^2 for the zeros t_k
of K_{i nu}.  DLMF 10.45.7 gives, for small x,

    K_{i nu}(x) ~ -(pi / (nu sinh(pi nu)))^(1/2) sin(nu ln(x/2) - phi_nu),

phi_nu = arg Gamma(1 + i nu), so zero k sits near
u_k = ln 2 + (phi_nu - k pi) / nu in u = ln x.  Each seed is refined with
mpmath inside the bracket [u_k - pi/(2 nu), u_k + pi/(2 nu)].  The brackets
tile the u axis, and w(u) = K_{i nu}(e^u) solves w'' + (nu^2 - e^(2u)) w = 0,
so by Sturm comparison its zeros lie more than pi/nu apart and none lies
above ln nu: a bracket holds a zero exactly when w changes sign across it.
That makes the zero list complete, not just plausible.
"""
from __future__ import annotations

import math

import mpmath as mp
from scipy.optimize import brentq
from scipy.special import loggamma

_DPS = 30


def _kiv(nu, u):
    return mp.re(mp.besselk(1j * nu, mp.e ** u))


def kiv_zeros(c: float, x_min: float) -> list:
    """Zeros t > x_min of K_{i nu}, nu = sqrt(c - 1/4), in descending order."""
    if c <= 0.25:
        return []  # K_0 and K_mu (mu real) have no positive zeros
    nu = math.sqrt(c - 0.25)
    half = math.pi / (2.0 * nu)
    phi = float(loggamma(1.0 + 1j * nu).imag)
    top = math.log(2.0) + phi / nu + half  # upper end of bracket k = 0
    if top < math.log(nu):
        raise RuntimeError(f"brackets do not reach ln nu for c = {c}")
    zeros = []
    with mp.workdps(_DPS):
        k = 0
        while True:
            u = math.log(2.0) + (phi - k * math.pi) / nu
            if u + half < math.log(x_min):
                break
            # a zero outside [x_min, nu] is never needed, and by the spacing
            # bound the clipped bracket still holds at most one zero
            a = max(u - half, math.log(x_min) - 1.0)
            b = min(u + half, math.log(nu) + 1.0)
            if a < b and mp.sign(_kiv(nu, a)) != mp.sign(_kiv(nu, b)):
                r = mp.findroot(lambda s: _kiv(nu, s), (a, b),
                                solver="illinois", tol=mp.mpf(10) ** -24)
                t = math.exp(float(r))
                if t > x_min:
                    zeros.append(t)
            k += 1
    return zeros


class BesselCounts:
    """N(E) = #{k : t_k^2 >= E} for several c, zeros computed once."""

    def __init__(self, e_min: float):
        self._e_min = e_min
        self._x_min = 0.5 * math.sqrt(e_min)
        self._levels = {}

    def levels(self, c: float) -> list:
        if c not in self._levels:
            self._levels[c] = [t * t for t in kiv_zeros(c, self._x_min)]
        return self._levels[c]

    def count(self, c: float, E: float) -> int:
        if E < self._e_min:
            raise ValueError(f"E = {E:.3e} below the oracle's floor")
        return sum(1 for lev in self.levels(c) if lev >= E)


def assembled_count(bessel: BesselCounts, params: dict, E: float,
                    half_width: float, n_channels: int = 8) -> int:
    """Documented assembled count for a hard_wall transverse well.

    mu_n = (lambda_n - eps0 + E) R^2 (1 - delta kappa_inf)^2 with
    R = K_delta |ln E| (or R_fixed) and the Dirichlet box levels
    lambda_n = (n pi / (2 w))^2, w = min(delta R, half_width).  Every
    retained mode c_m counts its Bessel levels above mu_n.
    """
    R = params["R_fixed"] if params["R_fixed"] is not None \
        else params["K_delta"] * abs(math.log(E))
    w = min(params["delta"] * R, half_width)
    shrink = (1.0 - params["delta"] * params["kappa_inf"]) ** 2
    total = 0
    for n in range(1, n_channels + 1):
        # for n = 1 and w at the wall half-width the shift is exactly 0, so
        # mu = E R^2 shrink stays resolved far below one ulp of eps0
        shift = (n * math.pi / (2.0 * w)) ** 2 - params["eps0"]
        mu = (shift + E) * R * R * shrink
        total += sum(bessel.count(c, mu) for _, _, c in params["retained_modes"])
    return total


def square_well_ground(depth: float, half_width: float) -> float:
    """Ground level of v = -depth on |x| < a: k tan(k a) = sqrt(depth - k^2)."""
    d, a = float(depth), float(half_width)
    hi = min(math.sqrt(d) - 1e-12, (0.5 * math.pi - 1e-9) / a)
    k = brentq(lambda k: k * math.tan(k * a) - math.sqrt(max(d - k * k, 0.0)),
               1e-9, hi, xtol=1e-14, rtol=8.9e-16)
    return k * k - d


def latitude_ks(theta: float) -> float:
    """k_S of the latitude circle at polar angle theta: cot(theta) / (4 pi)."""
    return 1.0 / (math.tan(theta) * 4.0 * math.pi)
