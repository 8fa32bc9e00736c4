"""Independent reference values used by the tests.

Everything here is computed by routes that share no code with the package:
closed-form transcendental equations solved with brentq, modified Bessel
function zeros from mpmath, and the DLMF small-argument asymptotics of those
zeros.  The frozen arrays were generated once with the generators below and
pasted in, so the test suite does not depend on mpmath being fast; a single
live spot check keeps the frozen numbers honest.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import loggamma


def square_well_even_level(depth, half_width):
    """Ground state of v = -depth on |x| < half_width, zero outside.

    Even bound states solve k tan(k a) = sqrt(depth - k^2) with
    E = k^2 - depth.  The ground state is the first even root.
    """
    d, a = float(depth), float(half_width)
    kmax = math.sqrt(d)

    def f(k):
        return k * math.tan(k * a) - math.sqrt(max(d - k * k, 0.0))

    # first branch of tan: k*a in (0, pi/2)
    hi = min(kmax - 1e-12, (0.5 * math.pi - 1e-9) / a)
    k = brentq(f, 1e-9, hi, xtol=1e-14, rtol=8.9e-16)
    return k * k - d


def square_well_odd_level(depth, half_width):
    """First odd bound state: -k cot(k a) = sqrt(depth - k^2), if bound."""
    d, a = float(depth), float(half_width)
    kmax = math.sqrt(d)
    if kmax * a <= 0.5 * math.pi:
        raise ValueError("well too shallow for an odd state")

    def f(k):
        return -k / math.tan(k * a) - math.sqrt(max(d - k * k, 0.0))

    hi = min(kmax - 1e-12, (math.pi - 1e-9) / a)
    k = brentq(f, (0.5 * math.pi + 1e-9) / a, hi, xtol=1e-14, rtol=8.9e-16)
    return k * k - d


# ---------------------------------------------------------------------------
# Bound states of -u'' - c/rho^2 u on (1, inf), u(1) = 0.
#
# With nu = sqrt(c - 1/4), the decaying solution at energy E = -t^2 is
# sqrt(rho) K_{i nu}(t rho), so eigenvalues are the t with K_{i nu}(t) = 0.
# |E_k| below were found by scanning re(besselk(i*nu, t)) for sign changes
# on a fine logarithmic t grid with mpmath at 60 digits and bisecting.
# Successive ratios approach exp(-2 pi / nu), which is how many fit above
# any floor.  Regenerator: bessel_zero_energies() at the bottom.
# ---------------------------------------------------------------------------

BESSEL_ENERGIES = {
    0.5: np.array([5.255122e-06, 1.832637e-11, 6.391033e-17, 2.228772e-22]),
    1.25: np.array([4.090250e-03, 7.630517e-06, 1.424953e-08, 2.661017e-11,
                    4.969298e-14]),
    2.0: np.array([2.449295e-02, 2.110482e-04, 1.826510e-06, 1.580807e-08,
                   1.368156e-10]),
}


# Counts below -E for c = 1e4 (nu ~ 100), too many states for a zero table.
# Generated with bessel_zero_count(1e4, E) at 40 and again at 60 digits,
# which agree.
STRONG_COUPLING_COUNTS = {1e-3: 247, 1e-4: 283}


def bessel_count(c, energy):
    """Number of bound states below -energy, from the frozen zero table."""
    return int(np.count_nonzero(BESSEL_ENERGIES[c] > energy))


def dlmf_zero_energies(c, e_min):
    """|E_k| >= e_min for the half-line operator, from DLMF 10.45.

    For small x, K_{i nu}(x) ~ -(pi / (nu sinh(pi nu)))^(1/2)
    sin(nu ln(x/2) - phi) with phi = arg Gamma(1 + i nu) (DLMF 10.45.7), so
    the zeros sit at x_k ~ 2 exp((phi - k pi) / nu), k = 1, 2, ...  The
    relative error is O(x^2): the deep zeros are accurate to many digits.
    The k = 0 seed is no zero: it lies above the turning point nu at small
    nu, and near 0.74 nu at large nu, where it would add a zero (248 above
    1e-3 at c = 1e4, where there are 247).  Returns the energies x_k^2 in
    descending order.
    """
    nu = math.sqrt(c - 0.25)
    phi = float(loggamma(1.0 + 1j * nu).imag)
    out = []
    k = 1
    while True:
        x = 2.0 * math.exp((phi - k * math.pi) / nu)
        if x * x < e_min:
            return np.array(out)
        out.append(x * x)
        k += 1


def dlmf_count(c, energy, dps=40):
    """Zeros of K_{i nu}(x) above x0 = sqrt(energy) from DLMF 10.45.7 in
    mpmath, or None where x0 lies too close to a zero to tell.

    The zeros sit where nu ln(x/2) - phi, phi = arg Gamma(1 + i nu), is
    -k pi with k >= 1, as in `dlmf_zero_energies`.  The O(x^2) term shifts
    the phase by about x0^2 / (4 nu), so an x0 whose phase lies within
    x0^2 / nu of a zero gives None.
    """
    import mpmath as mp

    with mp.workdps(dps):
        nu = mp.sqrt(mp.mpf(c) - mp.mpf(1) / 4)
        x0 = mp.sqrt(mp.mpf(energy))
        y = (mp.im(mp.loggamma(1 + 1j * nu)) - nu * mp.log(x0 / 2)) / mp.pi
        if abs(y - mp.nint(y)) * mp.pi < x0 * x0 / nu:
            return None
        return max(0, int(mp.ceil(y)) - 1)


def bessel_first_zero_energy(c, dps=40):
    """Live recomputation of |E_1| for the half-line operator via mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        nu = mp.sqrt(mp.mpf(c) - mp.mpf(1) / 4)

        def f(logt):
            return mp.re(mp.besselk(1j * nu, mp.e ** logt))

        # walk down from t = 1 until the first sign change
        step = mp.mpf("0.05")
        a = mp.mpf(0)
        fa = f(a)
        while True:
            b = a - step
            fb = f(b)
            if mp.sign(fa) != mp.sign(fb):
                break
            a, fa = b, fb
            if b < -80:
                raise RuntimeError("no zero found")
        logt = mp.findroot(f, (a, b), solver="bisect", tol=mp.mpf(10) ** (-dps // 2))
        t = mp.e ** logt
        return float(t * t)


def bessel_zero_count(c, energy, dps=40, step=0.01):
    """Live count of the zeros of K_{i nu}(x) above x0 = sqrt(energy).

    Sign changes of re(besselk(i nu, e^u)) in mpmath, walked down from
    u = ln nu (the decaying solution has no zero past the turning point
    x = nu) to u0 = ln x0 in steps of `step`; the step must stay below the
    zero spacing pi / nu near x0 (0.031 at c = 1e4).
    """
    import mpmath as mp

    with mp.workdps(dps):
        nu = mp.sqrt(mp.mpf(c) - mp.mpf(1) / 4)

        def f(u):
            return mp.re(mp.besselk(1j * nu, mp.e ** u))

        u_lo = mp.log(mp.mpf(energy)) / 2
        u = mp.log(nu)
        fu = f(u)
        n = 0
        while u > u_lo:
            v = max(u - step, u_lo)
            fv = f(v)
            if mp.sign(fv) != mp.sign(fu):
                n += 1
            u, fu = v, fv
        return n


def complex_fourier_matrix(q, ell, m_max):
    """Hermitian matrix of -d^2/ds^2 + q in the modes exp(2pi i m s/ell).

    |m| <= m_max; q enters through its discrete Fourier coefficients
    c_k = (1/n) sum_j q_j exp(-2pi i k j/n), k = -2 m_max .. 2 m_max, by
    direct summation.  The package assembles the same operator in the real
    basis {1, sqrt2 cos, sqrt2 sin}; this complex form is its reference.
    """
    n = q.shape[0]
    j = np.arange(n)
    ks = np.arange(-2 * m_max, 2 * m_max + 1)
    coeffs = np.exp(-2j * math.pi * np.outer(ks, j) / n) @ q / n
    modes = np.arange(-m_max, m_max + 1)
    a = np.diag(((2.0 * math.pi * modes / ell) ** 2).astype(complex))
    a += coeffs[modes[:, None] - modes[None, :] + 2 * m_max]
    return a


def longdouble_levels(d, e, k, points=255):
    """The k lowest eigenvalues of the symmetric tridiagonal matrix (d, e),
    by Sturm-sequence multisection in np.longdouble.

    Numpy only: every shift of a pass runs the LDL^T pivot recurrence
    q_i = d_i - s - e_{i-1}^2 / q_{i-1} at once, and the number of negative
    pivots is the number of eigenvalues below s.  Each pass cuts the
    bracket of every level into points + 1 parts, from Gershgorin's
    interval until no shift falls strictly inside it.  On an x86 long
    double (64-bit mantissa) the levels are good to about
    1e-19 * max |T|, far below a double-precision solve's error.
    """
    d = np.asarray(d, dtype=np.longdouble)
    ae = np.abs(np.asarray(e, dtype=np.longdouble))
    e2 = ae * ae
    rad = np.concatenate([ae, [0]]) + np.concatenate([[0], ae])
    lo = np.full(k, (d - rad).min())
    hi = np.full(k, (d + rad).max())
    frac = np.arange(1, points + 1, dtype=np.longdouble) / (points + 1)
    tiny = np.finfo(np.longdouble).tiny
    while True:
        shifts = lo[:, None] + (hi - lo)[:, None] * frac
        q = d[0] - shifts
        below = (q < 0).astype(int)
        for i in range(1, d.size):
            q = d[i] - shifts - e2[i - 1] / np.where(q == 0, tiny, q)
            below += q < 0
        level = np.arange(k)[:, None]
        new_lo = np.where(below <= level, shifts, lo[:, None]).max(axis=1)
        new_hi = np.where(below > level, shifts, hi[:, None]).min(axis=1)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            return 0.5 * (lo + hi)
        lo, hi = new_lo, new_hi


def cyclic_fd_levels(q, ell, k):
    """The k lowest eigenvalues of the cyclic second difference -d^2/ds^2 + q
    on the n = len(q) nodes i ell / n of a loop of length ell.

    The matrix has 2/h^2 + q_i on its diagonal, h = ell / n, and -1/h^2 to
    each node's two circle neighbours, (i +- 1) mod n.  A dense numpy
    eigvalsh: the package band-solves the same matrix.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    h2 = (ell / n) ** 2
    a = np.diag(2.0 / h2 + q)
    i = np.arange(n)
    a[i, (i + 1) % n] = a[(i + 1) % n, i] = -1.0 / h2
    return np.linalg.eigvalsh(a)[:k]


def longdouble_ground_vector(d, e, steps=12):
    """The ground state of the symmetric tridiagonal matrix (d, e) with a
    negative off-diagonal, as a unit vector, by inverse iteration in
    np.longdouble.

    Numpy only: each step solves (T - sigma) y = x by the Thomas algorithm,
    from x = 1, at sigma = lambda_1 - 64 eps ||T||, with lambda_1 from
    `longdouble_levels` and eps the long double's.  That shift lies below
    lambda_1, so T - sigma is a Stieltjes matrix: every pivot and every
    iterate is positive, and each step adds no cancellation, which keeps
    tail components of 1e-150 and below good to their own relative
    precision.  Each step shrinks a level lambda_j's share of the vector by
    (lambda_1 - sigma) / (lambda_j - sigma), about 1e-13 / (lambda_j -
    lambda_1) on the threshold grids.
    """
    d = np.asarray(d, dtype=np.longdouble)
    e = np.asarray(e, dtype=np.longdouble)
    scale = np.abs(d).max() + 2 * np.abs(e).max()
    sigma = longdouble_levels(d, e, 1)[0] - 64 * np.finfo(np.longdouble).eps * scale
    n = d.size
    pivot = d - sigma
    for i in range(1, n):
        pivot[i] -= e[i - 1] * e[i - 1] / pivot[i - 1]
    mult = e / pivot[:-1]
    x = np.ones(n, dtype=np.longdouble)
    for _ in range(steps):
        for i in range(1, n):
            x[i] -= mult[i - 1] * x[i - 1]
        x[-1] /= pivot[-1]
        for i in range(n - 2, -1, -1):
            x[i] = x[i] / pivot[i] - mult[i] * x[i + 1]
        x /= np.sqrt(np.sum(x * x))
    return x
