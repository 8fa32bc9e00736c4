"""Discretized 1D operators: closed-form spectra, inertia counts, shooting."""

import math

import numpy as np
import pytest

from conebound import (Grid1D, PreconditionError, assemble, count_below,
                       lowest_eigenvalues, oscillation_count)


def _free_op(a, b, n, kind):
    grid = Grid1D.make(a, b, n, kind)
    return assemble(np.zeros(n), grid, kind), grid


def fd_dirichlet_eigs(n, h):
    k = np.arange(1, n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(k * math.pi * h))


# ----------------------------------------------------------------- grids


def test_grid_nodes_dirichlet():
    g = Grid1D.make(0.0, 1.0, 31, "dirichlet")
    assert g.h == pytest.approx(1.0 / 32.0, rel=1e-15)
    x = g.nodes("dirichlet")
    assert x[0] == pytest.approx(g.h)
    assert x[-1] == pytest.approx(1.0 - g.h)


def test_grid_nodes_neumann_cell_centered():
    g = Grid1D.make(-2.0, 2.0, 16, "neumann")
    x = g.nodes("neumann")
    assert g.h == pytest.approx(0.25)
    assert x[0] == pytest.approx(-2.0 + 0.125)
    assert x[-1] == pytest.approx(2.0 - 0.125)
    # cell centers are symmetric about the midpoint
    assert np.allclose(x + x[::-1], 0.0, atol=1e-14)


def test_grid_nodes_periodic():
    g = Grid1D.make(0.0, 2.0, 20, "periodic")
    x = g.nodes("periodic")
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(2.0 - g.h)


def test_grid_validation():
    with pytest.raises(PreconditionError):
        Grid1D.make(0.0, 1.0, 8, "dirichlet")
    with pytest.raises(PreconditionError):
        Grid1D.make(1.0, 1.0, 32, "dirichlet")
    with pytest.raises(PreconditionError):
        Grid1D.make(0.0, 1.0, 32, "robin")


def test_assemble_rejects_bad_samples():
    grid = Grid1D.make(0.0, 1.0, 32, "dirichlet")
    with pytest.raises(PreconditionError):
        assemble(np.zeros(31), grid, "dirichlet")
    bad = np.zeros(32)
    bad[7] = np.nan
    with pytest.raises(PreconditionError):
        assemble(bad, grid, "dirichlet")


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
    n = 40
    op, grid = _free_op(0.0, 1.0, n, "periodic")
    res = lowest_eigenvalues(op, 7, want_vectors=False)
    assert abs(res.values[0]) < 1e-9
    # nonzero modes come in cos/sin pairs
    for j in (1, 3, 5):
        assert res.values[j + 1] == pytest.approx(res.values[j], rel=1e-10)
    k = np.arange(4)
    exact = (2.0 / grid.h**2) * (1.0 - np.cos(2.0 * math.pi * k / n))
    got = np.sort(res.values)[[0, 1, 3, 5]]
    assert np.allclose(got, exact, rtol=1e-10, atol=1e-8)


def test_periodic_corner_entry():
    op, grid = _free_op(0.0, 1.0, 32, "periodic")
    assert op.corner == pytest.approx(-1.0 / grid.h**2)


def test_harmonic_oscillator_richardson():
    # v = x^2 on (-10, 10): levels 2k+1; extrapolation buys ~3 digits here
    def op(n):
        grid = Grid1D.make(-10.0, 10.0, n, "dirichlet")
        return assemble(grid.nodes("dirichlet") ** 2, grid, "dirichlet")

    res = lowest_eigenvalues(op(511), 5, want_vectors=False, coarse=op(255))
    exact = 2.0 * np.arange(5) + 1.0
    raw_err = np.abs(res.values - exact)
    ext_err = np.abs(res.extrapolated - exact)
    assert np.all(ext_err < 1e-5)
    assert np.all(ext_err < 0.1 * raw_err)


def _well_op(a, b, n, kind):
    grid = Grid1D.make(a, b, n, kind)
    x = grid.nodes(kind)
    return assemble(-4.0 * np.exp(-x * x) + 0.5 * np.sin(x), grid, kind)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "periodic"])
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
        op = assemble(grid.nodes("dirichlet") ** 2, grid, "dirichlet")
        return lowest_eigenvalues(op, 1, want_vectors=False).values[0]

    drops = [lam(n) - exact for n in (128, 256, 512)]
    ratio1 = drops[0] / drops[1]
    assert 4.0 * 0.8 < ratio1 < 4.0 * 1.2


def test_eigenvector_normalization_and_sign():
    grid = Grid1D.make(-6.0, 6.0, 301, "dirichlet")
    x = grid.nodes("dirichlet")
    op = assemble(x**2, grid, "dirichlet")
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
            return assemble(v(grid.nodes(kind)), grid, kind)

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
        op = assemble(v(grid.nodes("dirichlet")), grid, "dirichlet")
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


def test_count_below_matches_dense_solve(rng):
    # LDL^T inertia against a dense symmetric eigensolve, all three closures
    for _ in range(12):
        kind = ("dirichlet", "neumann", "periodic")[int(rng.integers(3))]
        n = int(rng.integers(16, 120))
        a, b = 0.0, float(rng.uniform(0.5, 4.0))
        grid = Grid1D.make(a, b, n, kind)
        v = rng.normal(0.0, 20.0, n)
        op = assemble(v, grid, kind)
        dense = np.diag(op.diag)
        idx = np.arange(n - 1)
        dense[idx, idx + 1] = op.offdiag
        dense[idx + 1, idx] = op.offdiag
        if kind == "periodic":
            dense[0, -1] += op.corner
            dense[-1, 0] += op.corner
        vals = np.linalg.eigvalsh(dense)
        level = float(rng.uniform(vals[0] - 5.0, vals[min(n - 1, 10)] + 5.0))
        want = int(np.sum(vals <= level + 1e-12 * max(1.0, abs(level))))
        assert count_below(op, level) == want


def test_periodic_solve_matches_dense_solve(rng):
    # the banded periodic solver against a dense eigensolve of the cyclic
    # matrix built here; n of both parities, any k up to n, with vectors
    for n in (16, 17, *rng.integers(18, 402, 10)):
        n = int(n)
        k = int(rng.integers(1, n + 1))
        grid = Grid1D.make(0.0, float(rng.uniform(0.5, 4.0)), n, "periodic")
        v = rng.normal(0.0, 20.0, n)
        op = assemble(v, grid, "periodic")
        h2 = grid.h * grid.h
        dense = np.diag(2.0 / h2 + v)
        idx = np.arange(n)
        dense[idx, (idx + 1) % n] = dense[(idx + 1) % n, idx] = -1.0 / h2
        scale = 4.0 / h2 + float(np.max(np.abs(v)))
        res = lowest_eigenvalues(op, k, want_vectors=True)
        assert np.max(np.abs(res.values - np.linalg.eigvalsh(dense)[:k])) \
            < 1e-12 * scale
        phi = res.vectors
        assert phi.shape == (n, k)
        # h-weighted normalization and eigenvector residuals
        assert np.allclose(grid.h * np.sum(phi**2, axis=0), 1.0, atol=1e-12)
        resid = dense @ phi - phi * res.values
        assert np.max(np.abs(resid)) * math.sqrt(grid.h) < 1e-12 * scale


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
        op = assemble(v(grid.nodes("dirichlet")), grid, "dirichlet")
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
