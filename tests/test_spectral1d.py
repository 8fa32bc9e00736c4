"""Discretized 1D operators: closed-form spectra, inertia counts, shooting."""

import math

import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal, lapack
from scipy.linalg.lapack import dpttrf

from conebound import (CurveSpec, Grid1D, PotentialSpec, PreconditionError,
                       assemble, build_curve, count_below, curvature_operator,
                       lowest_eigenvalues, oscillation_count, spectral1d)
from conebound.threshold import _interval_op

from _oracles import cyclic_fd_levels, longdouble_levels


def _free_op(a, b, n, kind):
    grid = Grid1D.make(a, b, n, kind)
    return assemble(np.zeros(n), grid), grid


def fd_dirichlet_eigs(n, h):
    k = np.arange(1, n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(k * math.pi * h))


# ----------------------------------------------------------------- grids


def test_grid_nodes_dirichlet():
    g = Grid1D.make(0.0, 1.0, 31, "dirichlet")
    assert g.h == pytest.approx(1.0 / 32.0, rel=1e-15)
    x = g.nodes()
    assert x[0] == pytest.approx(g.h)
    assert x[-1] == pytest.approx(1.0 - g.h)


def test_grid_nodes_neumann_cell_centered():
    g = Grid1D.make(-2.0, 2.0, 16, "neumann")
    x = g.nodes()
    assert g.h == pytest.approx(0.25)
    assert x[0] == pytest.approx(-2.0 + 0.125)
    assert x[-1] == pytest.approx(2.0 - 0.125)
    # cell centers are symmetric about the midpoint
    assert np.allclose(x + x[::-1], 0.0, atol=1e-14)


def test_grid_validation():
    with pytest.raises(PreconditionError):
        Grid1D.make(0.0, 1.0, 8, "dirichlet")
    with pytest.raises(PreconditionError):
        Grid1D.make(1.0, 1.0, 32, "dirichlet")
    with pytest.raises(PreconditionError):
        Grid1D.make(0.0, 1.0, 32, "robin")
    with pytest.raises(PreconditionError):
        Grid1D.make(0.0, 1.0, 32, "periodic")


def test_assemble_rejects_bad_samples():
    grid = Grid1D.make(0.0, 1.0, 32, "dirichlet")
    with pytest.raises(PreconditionError):
        assemble(np.zeros(31), grid)
    bad = np.zeros(32)
    bad[7] = np.nan
    with pytest.raises(PreconditionError):
        assemble(bad, grid)


# ------------------------------------------------- closed-form spectra


def test_free_dirichlet_matches_fd_closed_form():
    # the discrete spectrum of the free second-difference operator is known
    # exactly; the solver must reproduce it to rounding
    n = 64
    op, grid = _free_op(0.0, 1.0, n, "dirichlet")
    res = lowest_eigenvalues(op, n, want_vectors=False)
    exact = fd_dirichlet_eigs(n, grid.h)
    assert np.max(np.abs(res.values - exact)) < 1e-8 * exact[-1]


def test_free_neumann_has_exact_zero_mode():
    op, grid = _free_op(0.0, 3.0, 48, "neumann")
    res = lowest_eigenvalues(op, 3)
    assert abs(res.values[0]) < 1e-10
    # zero mode is the constant, h-normalized to 1/sqrt(b - a)
    phi = res.vectors[:, 0]
    assert np.allclose(phi, 1.0 / math.sqrt(3.0), atol=1e-8)


def test_free_periodic_zero_mode_and_pairs():
    # the k_S fd fallback's cyclic second difference on the great circle,
    # where kappa = 0: levels (2/h^2)(1 - cos(2 pi m/n)), m = 0, 1, 1, 2, 2,
    # ..., the nonzero ones in cos/sin pairs
    n = 40
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 2))
    res = curvature_operator._fd_band(curve, n, 7)
    assert abs(res.values[0]) < 1e-9
    for j in (1, 3, 5):
        assert res.values[j + 1] == pytest.approx(res.values[j], rel=1e-10)
    m = np.arange(4)
    h = curve.length / n
    exact = (2.0 / h**2) * (1.0 - np.cos(2.0 * math.pi * m / n))
    assert np.allclose(res.values[[0, 1, 3, 5]], exact, rtol=1e-10, atol=1e-8)


def test_harmonic_oscillator_richardson():
    # v = x^2 on (-10, 10): levels 2k+1; extrapolation buys ~3 digits here
    def op(n):
        grid = Grid1D.make(-10.0, 10.0, n, "dirichlet")
        return assemble(grid.nodes() ** 2, grid)

    res = lowest_eigenvalues(op(511), 5, want_vectors=False, coarse=op(255))
    exact = 2.0 * np.arange(5) + 1.0
    raw_err = np.abs(res.values - exact)
    ext_err = np.abs(res.extrapolated - exact)
    assert np.all(ext_err < 1e-5)
    assert np.all(ext_err < 0.1 * raw_err)


def _well_op(a, b, n, kind):
    grid = Grid1D.make(a, b, n, kind)
    x = grid.nodes()
    return assemble(-4.0 * np.exp(-x * x) + 0.5 * np.sin(x), grid)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_richardson_error_is_the_coarse_solve(kind):
    # the estimate is (fine - coarse) / 3 on the levels the coarse grid has,
    # with the coarse operator exactly as the caller built it
    fine, coarse = _well_op(-5.0, 5.0, 81, kind), _well_op(-5.0, 5.0, 40, kind)
    for k in (3, 40, 60):
        res = lowest_eigenvalues(fine, k, want_vectors=False, coarse=coarse)
        k_c = min(k, 40)
        want = (res.values[:k_c] - lowest_eigenvalues(coarse, k_c).values) / 3
        assert np.array_equal(res.richardson_error[:k_c], want)
        assert np.all(res.richardson_error[k_c:] == 0.0)
    plain = lowest_eigenvalues(fine, 3, want_vectors=False)
    assert np.all(plain.richardson_error == 0.0)
    assert np.array_equal(plain.extrapolated, plain.values)


@pytest.mark.parametrize("coarse", [
    _well_op(-5.0, 5.0, 40, "neumann"),      # another closure
    _well_op(-5.0, 4.0, 40, "dirichlet"),    # another interval
    _well_op(-4.0, 5.0, 40, "dirichlet"),
    _well_op(-5.0, 5.0, 41, "dirichlet"),    # not n // 2 nodes
    _well_op(-5.0, 5.0, 81, "dirichlet"),
], ids=["closure", "right-end", "left-end", "n-over-2-plus-1", "n"])
def test_mismatched_coarse_operator_is_rejected(coarse):
    fine = _well_op(-5.0, 5.0, 81, "dirichlet")
    with pytest.raises(PreconditionError, match="coarse operator"):
        lowest_eigenvalues(fine, 3, coarse=coarse)


def test_grid_convergence_ratio(rng):
    # second-order stencil: each refinement shrinks the error ~4x
    exact = 1.0  # harmonic ground state

    def lam(n):
        grid = Grid1D.make(-10.0, 10.0, n, "dirichlet")
        op = assemble(grid.nodes() ** 2, grid)
        return lowest_eigenvalues(op, 1, want_vectors=False).values[0]

    drops = [lam(n) - exact for n in (128, 256, 512)]
    ratio1 = drops[0] / drops[1]
    assert 4.0 * 0.8 < ratio1 < 4.0 * 1.2


def test_eigenvector_normalization_and_sign():
    grid = Grid1D.make(-6.0, 6.0, 301, "dirichlet")
    x = grid.nodes()
    op = assemble(x**2, grid)
    res = lowest_eigenvalues(op, 3)
    for j in range(3):
        phi = res.vectors[:, j]
        assert grid.h * np.sum(phi**2) == pytest.approx(1.0, rel=1e-10)
        assert phi[np.argmax(np.abs(phi))] > 0
    # ground state of a single well has no interior node
    assert np.all(res.vectors[:, 0] > -1e-10)


# ----------------------------------------------------------- invariants


def test_neumann_below_dirichlet(rng):
    # form domain inclusion: lambda_j(N) <= lambda_j(D) for the same v
    for _ in range(4):
        a = float(rng.uniform(-3, -1))
        b = float(rng.uniform(1, 3))
        c0, c1, c2 = rng.normal(0.0, 2.0, 3)

        def v(x):
            return c0 + c1 * np.sin(x) + c2 * np.cos(2.0 * x)

        def op(n, kind):
            grid = Grid1D.make(a, b, n, kind)
            return assemble(v(grid.nodes()), grid)

        lam = {}
        for kind in ("dirichlet", "neumann"):
            lam[kind] = lowest_eigenvalues(op(400, kind), 5,
                                           want_vectors=False,
                                           coarse=op(200, kind)).extrapolated
        # the two discretizations differ at O(h^2); allow that much slack
        assert np.all(lam["neumann"] <= lam["dirichlet"] + 1e-6)


def test_dirichlet_domain_monotonicity():
    # enlarging the interval can only lower Dirichlet eigenvalues
    def v(x):
        return -4.0 * np.exp(-0.5 * x * x)

    prev = None
    for L in (4.0, 6.0, 8.0, 10.0):
        n = int(round(2 * L * 32)) - 1
        grid = Grid1D.make(-L, L, n, "dirichlet")
        op = assemble(v(grid.nodes()), grid)
        vals = lowest_eigenvalues(op, 3, want_vectors=False).values
        if prev is not None:
            assert np.all(vals <= prev + 1e-10)
        prev = vals


# ------------------------------------------------------------- counting


def test_count_below_free_dirichlet_reference():
    # continuum levels pi^2 k^2: exactly two below 50
    n = 1000
    op, grid = _free_op(0.0, 1.0, n, "dirichlet")
    assert count_below(op, 50.0) == 2
    assert count_below(op, 15.0) == 1
    assert count_below(op, 1.0) == 0


def test_count_below_tie_is_inclusive():
    n = 64
    op, grid = _free_op(0.0, 1.0, n, "dirichlet")
    lam2 = fd_dirichlet_eigs(n, grid.h)[1]
    assert count_below(op, lam2) == 2
    assert count_below(op, lam2 * (1.0 - 1e-6)) == 1
    # a level set to a computed eigenvalue counts it: the shift covers the
    # rounding eps ||A|| ~ eps 4/h^2, which at n = 500 and 2000 the relative
    # 1e-12 alone missed (0, 1, 2 in place of 1, 2, 3)
    for n in (64, 500, 2000):
        op, _ = _free_op(0.0, 1.0, n, "dirichlet")
        low = _dense_eigvalsh(op)[:3]
        assert [count_below(op, float(v)) for v in low] == [1, 2, 3]


def test_count_below_matches_dense_solve(rng):
    # Sturm inertia against a dense symmetric eigensolve, both closures
    for _ in range(12):
        kind = ("dirichlet", "neumann")[int(rng.integers(2))]
        n = int(rng.integers(16, 120))
        a, b = 0.0, float(rng.uniform(0.5, 4.0))
        grid = Grid1D.make(a, b, n, kind)
        v = rng.normal(0.0, 20.0, n)
        op = assemble(v, grid)
        dense = np.diag(op.diag)
        idx = np.arange(n - 1)
        dense[idx, idx + 1] = op.offdiag
        dense[idx + 1, idx] = op.offdiag
        vals = np.linalg.eigvalsh(dense)
        level = float(rng.uniform(vals[0] - 5.0, vals[min(n - 1, 10)] + 5.0))
        want = int(np.sum(vals <= level + 1e-12 * max(1.0, abs(level))))
        assert count_below(op, level) == want


def _dense_eigvalsh(op):
    n = op.grid.n
    dense = np.diag(op.diag)
    idx = np.arange(n - 1)
    dense[idx, idx + 1] = dense[idx + 1, idx] = op.offdiag
    return np.linalg.eigvalsh(dense)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_count_below_matches_eigvalsh_across_the_spectrum(rng, kind):
    # the Sturm count against a dense solve, with levels drawn over the
    # whole spectrum and potentials of scale 0 to 1e4
    sizes = [*rng.integers(16, 400, 8), int(rng.integers(1000, 1200))]
    for n in map(int, sizes):
        grid = Grid1D.make(0.0, float(rng.uniform(0.5, 4.0)), n, kind)
        scale = (0.0, 1.0, 20.0, 1e4)[int(rng.integers(4))]
        op = assemble(rng.normal(0.0, scale, n), grid)
        vals = _dense_eigvalsh(op)
        for level in rng.uniform(vals[0] - 1.0, vals[-1] + 1.0, 6):
            level = float(level)
            want = int(np.sum(vals <= level + 1e-12 * max(1.0, abs(level))))
            assert count_below(op, level) == want, f"n = {n}, {level!r}"


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_count_below_infinite_and_nan_levels(kind):
    op, _ = _free_op(0.0, 1.0, 40, kind)
    assert count_below(op, math.inf) == 40
    assert count_below(op, -math.inf) == 0
    with pytest.raises(PreconditionError, match="NaN"):
        count_below(op, math.nan)


def test_periodic_solve_matches_dense_solve(rng):
    # the k_S fd fallback's band solve against a dense eigensolve of the
    # cyclic matrix (tests/_oracles.py) on perturbed loops: n of both
    # parities, any k up to n, and the Richardson error against the dense
    # levels on n // 2 nodes
    for n in (16, 17, *rng.integers(18, 402, 10)):
        n = int(n)
        k = int(rng.integers(1, n + 1))
        curve = build_curve(CurveSpec(
            kind="perturbed_latitude", theta=float(rng.uniform(0.4, 1.2)),
            amplitude=float(rng.uniform(0.0, 0.3)),
            mode=int(rng.integers(2, 9))), 512)
        ell = curve.length
        q = curvature_operator._potential(curve, n)
        scale = 4.0 * (n / ell) ** 2 + float(np.max(np.abs(q)))
        res = curvature_operator._fd_band(curve, n, k)
        want = cyclic_fd_levels(q, ell, k)
        assert np.max(np.abs(res.values - want)) < 1e-12 * scale
        k_c = min(k, n // 2)
        coarse = cyclic_fd_levels(curvature_operator._potential(curve, n // 2),
                                  ell, k_c)
        assert np.max(np.abs(res.richardson_error[:k_c]
                             - (want[:k_c] - coarse) / 3.0)) < 1e-12 * scale
        assert np.all(res.richardson_error[k_c:] == 0.0)


def test_oscillation_count_free_string():
    # -u'' on (0, 1): eigenvalues pi^2 k^2
    v = lambda x: 0.0
    assert oscillation_count(v, 0.0, 1.0, "dirichlet", 50.0) == 2
    assert oscillation_count(v, 0.0, 1.0, "dirichlet", 15.0) == 1
    assert oscillation_count(v, 0.0, 1.0, "dirichlet", -1.0) == 0


def test_oscillation_count_neumann_start():
    # cos(k pi x) modes: levels 0, pi^2, 4 pi^2, ... below 50: three of them
    # (the count is of eigenvalues of the N-D mixed problem < E, which has
    # levels pi^2 (k + 1/2)^2: 2.47, 22.2, 61.7 -> two below 50)
    v = lambda x: 0.0
    assert oscillation_count(v, 0.0, 1.0, "neumann", 50.0) == 2


def test_oscillation_vs_matrix_random(rng):
    # smooth random potentials: shooting count vs fine-grid inertia count
    for _ in range(8):
        c = rng.normal(0.0, 3.0, 4)

        def v(x):
            return c[0] + c[1] * np.sin(x) + c[2] * np.cos(2 * x) \
                + c[3] * np.sin(3 * x)

        vf = lambda x: float(v(np.asarray(x, dtype=float)))
        a, b = -2.0, 3.0
        E = float(rng.uniform(0.0, 60.0))
        shot = oscillation_count(vf, a, b, "dirichlet", E)
        grid = Grid1D.make(a, b, 4000, "dirichlet")
        op = assemble(v(grid.nodes()), grid)
        assert abs(count_below(op, E) - shot) <= 1


def test_oscillation_bad_inputs():
    with pytest.raises(PreconditionError):
        oscillation_count(lambda x: 0.0, 0.0, 1.0, "robin", 1.0)
    with pytest.raises(PreconditionError):
        oscillation_count(lambda x: 0.0, 1.0, 0.0, "dirichlet", 1.0)


def test_lowest_eigenvalues_k_range():
    op, _ = _free_op(0.0, 1.0, 32, "dirichlet")
    with pytest.raises(PreconditionError):
        lowest_eigenvalues(op, 0)
    with pytest.raises(PreconditionError):
        lowest_eigenvalues(op, 33)


# ------------------------------------------------ certified k <= 2 route


def _tol(op):
    # the certificate's resolution: 16 eps times Gershgorin's bound on ||T||
    return 16.0 * np.finfo(float).eps * (np.abs(op.diag).max()
                                         + 2.0 * np.abs(op.offdiag).max())


def _bisected(op, k, want_vectors):
    out = eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=not want_vectors,
                           select="i", select_range=(0, k - 1))
    return out if want_vectors else (out, None)


@pytest.mark.parametrize("spec, n, kind", [
    (PotentialSpec(family="square_well", depth=4.0, half_width=1.0), 767,
     "dirichlet"),
    (PotentialSpec(family="confining", p=2.0), 1536, "neumann"),
    (PotentialSpec(family="confining", p=2.0), 4096, "dirichlet")],
    ids=["square-well-767-D", "confining-1536-N", "confining-4096-D"])
def test_certified_levels_are_no_farther_from_the_truth(spec, n, kind):
    # operators the threshold layer solves (a sweep length at h = 1/32 and
    # 1/64, and compute_threshold's fine grid), against long-double Sturm
    # bisection on the same matrix
    op = _interval_op(spec, 12.0, n, kind)
    truth = longdouble_levels(op.diag, op.offdiag, 2)
    new = lowest_eigenvalues(op, 2, want_vectors=False).values
    old = _bisected(op, 2, False)[0]
    assert np.all(np.abs(new - truth) <= np.abs(old - truth))
    assert np.all(np.abs(new - truth) < _tol(op))


@pytest.mark.parametrize("spec, L, n, kind", [
    (PotentialSpec(family="square_well", depth=4.0, half_width=1.0), 4.0,
     256, "neumann"),
    (PotentialSpec(family="square_well", depth=4.0, half_width=1.0), 14.0,
     895, "dirichlet"),
    (PotentialSpec(family="confining", p=2.0), 14.0, 1792, "neumann"),
    (PotentialSpec(family="square_well", depth=4.0, half_width=1.0), 12.0,
     2048, "dirichlet"),
    (PotentialSpec(family="confining", p=2.0), 12.0, 4096, "neumann")],
    ids=["square-well-256-N", "square-well-895-D", "confining-1792-N",
         "square-well-2048-D", "confining-4096-N"])
def test_symmetric_operators_solve_in_parity_sectors(monkeypatch, spec, L, n,
                                                      kind):
    # the sweeps' shortest and longest lengths at h = 1/32 and 1/64, and
    # compute_threshold's grids: both levels lie within the certificate's
    # resolution of long-double Sturm bisection, no bisection runs, and the
    # vectors are the exactly even ground state and the exactly odd second
    op = _interval_op(spec, L, n, kind)
    calls = _counting_solves(monkeypatch)
    res = lowest_eigenvalues(op, 2)
    assert calls == []
    truth = longdouble_levels(op.diag, op.offdiag, 2)
    assert np.all(np.abs(res.values - truth) < _tol(op))
    phi = res.vectors
    assert np.array_equal(phi[:, 0], phi[::-1, 0])
    assert np.array_equal(phi[:, 1], -phi[::-1, 1])
    assert np.all(phi[:, 0] > 0.0)
    assert op.grid.h * np.sum(phi ** 2, axis=0) == pytest.approx(1.0,
                                                                  rel=1e-13)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("k", [1, 2])
def test_asymmetric_operators_take_bisection(monkeypatch, kind, k):
    # no caller in the package has one: an operator that is not its own
    # mirror image takes eigh_tridiagonal's levels and vectors, bit for bit
    for op in (_harmonic_op(kind), _well_op(-5.0, 5.0, 81, kind)):
        vals, vecs = _bisected(op, k, True)
        calls = _counting_solves(monkeypatch)
        res = lowest_eigenvalues(op, k)
        assert calls == [op.grid.n]
        assert np.array_equal(res.values, vals)
        assert np.array_equal(np.abs(res.vectors),
                              np.abs(vecs) / math.sqrt(op.grid.h))


@pytest.mark.parametrize("centre", [6.5, 7.0])
def test_double_well_below_the_resolution(monkeypatch, centre):
    # symmetric wells at +-centre split lambda_2 - lambda_1 by 2.6e-11 and
    # 2.9e-12, below the certificate's resolution 1.0e-10: the even and odd
    # halves still certify each level within it, with no bisection
    grid = Grid1D.make(-12.0, 12.0, 2047, "dirichlet")
    x = grid.nodes()
    v = -8.0 * (np.exp(-2.0 * (x - centre) ** 2)
                + np.exp(-2.0 * (x + centre) ** 2))
    op = assemble(0.5 * (v + v[::-1]), grid)
    ref = _bisected(op, 2, False)[0]
    assert 0.0 < ref[1] - ref[0] < _tol(op)
    calls = _counting_solves(monkeypatch)
    res = lowest_eigenvalues(op, 2)
    assert calls == []
    # bisection's own error is a few eps ||T||, far inside the resolution
    assert np.all(np.abs(res.values - ref) < 1.25 * _tol(op))
    assert res.values[0] < res.values[1]
    # the even and odd vectors span the pair's plane orthonormally
    phi = res.vectors * math.sqrt(grid.h)
    assert np.allclose(phi.T @ phi, np.eye(2), atol=1e-10)
    tphi = op.diag[:, None] * phi
    tphi[1:] += op.offdiag[:, None] * phi[:-1]
    tphi[:-1] += op.offdiag[:, None] * phi[1:]
    assert np.max(np.abs(tphi - phi * res.values)) < _tol(op)


def _counting_solves(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(spectral1d, "eigh_tridiagonal", counted)
    return calls


def _harmonic_op(kind):
    grid = Grid1D.make(-6.0, 6.0, 300, kind)
    x = grid.nodes()
    return assemble(x * x + 0.5 * np.sin(x), grid)


def _symmetric_harmonic_op(kind):
    # 301 nodes: the even half has 151 rows, the odd half 150
    grid = Grid1D.make(-6.0, 6.0, 301, kind)
    v = grid.nodes() ** 2
    return assemble(0.5 * (v + v[::-1]), grid)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("k", [1, 2])
def test_failed_certificates_fall_back_to_bisection(monkeypatch, kind, k):
    # dpttrf refusing every shift in one half leaves its level uncertified,
    # and the solve takes bisection's levels and vectors bit for bit; with
    # k = 1 the odd half is never solved
    op = _symmetric_harmonic_op(kind)
    ref, ref_vecs = _bisected(op, k, True)
    calls = _counting_solves(monkeypatch)
    certified = lowest_eigenvalues(op, k)
    assert calls == []
    assert np.all(np.abs(certified.values - ref) < _tol(op))
    for sector, rows in (("even", 151), ("odd", 150)):
        def fail(d, e):
            return (d, e, 1) if d.size == rows else dpttrf(d, e)

        with monkeypatch.context() as m:
            m.setattr(lapack, "dpttrf", fail)
            res = lowest_eigenvalues(op, k)
        if k == 1 and sector == "odd":
            assert calls == []
            assert np.array_equal(res.values, certified.values)
            continue
        assert calls == [op.grid.n], sector
        calls.clear()
        assert np.array_equal(res.values, ref)
        assert np.array_equal(np.abs(res.vectors),
                              np.abs(ref_vecs) / math.sqrt(op.grid.h))


def test_more_levels_and_circles_take_the_old_routes(monkeypatch):
    # k > 2 never reaches the certified route, and gives what bisection
    # gave, bit for bit
    def refuse(*args, **kwargs):
        raise AssertionError("certified route taken")

    monkeypatch.setattr(spectral1d, "_certified", refuse)
    for kind in ("dirichlet", "neumann"):
        op = _well_op(-5.0, 5.0, 81, kind)
        vals, vecs = _bisected(op, 3, True)
        res = lowest_eigenvalues(op, 3)
        assert np.array_equal(res.values, vals)
        assert np.array_equal(np.abs(res.vectors),
                              np.abs(vecs) / math.sqrt(op.grid.h))


def test_solver_and_count_share_no_code(monkeypatch):
    # criterion 8 checks count_below against the shooting counter, so the
    # solver must not count with count_below, nor count_below solve
    op = _harmonic_op("dirichlet")

    def refuse(*args, **kwargs):
        raise AssertionError("called across the independence line")

    with monkeypatch.context() as m:
        m.setattr(spectral1d, "count_below", refuse)
        lowest_eigenvalues(op, 2)
    for name in ("lowest_eigenvalues", "_solve_sorted", "_certified",
                 "eigh_tridiagonal"):
        monkeypatch.setattr(spectral1d, name, refuse)
    for name in ("dpttrf", "dpttrs"):
        monkeypatch.setattr(lapack, name, refuse)
    want = int(np.sum(_dense_eigvalsh(op) <= 10.0))
    assert count_below(op, 10.0) == want == 5
