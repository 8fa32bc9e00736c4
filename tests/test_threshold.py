"""Transverse threshold eps0: solvable wells, sweeps, Agmon weights."""

import math

import numpy as np
import pytest
from scipy.stats import kendalltau

from conebound import (ConfigError, Grid1D, PotentialSpec, PreconditionError,
                       agmon_norms, agmon_weight, assemble, compute_threshold,
                       lowest_eigenvalues, potential_spec_from_dict,
                       truncation_sweep)
from conebound import spectral1d, threshold
from conebound.threshold import write_sweep_csv

from _oracles import (longdouble_ground_vector, square_well_even_level,
                      square_well_odd_level)

SQUARE = PotentialSpec(family="square_well", depth=4.0, half_width=1.0)
L_GRID = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]


# ------------------------------------------------------------- thresholds


def test_hard_wall_closed_form():
    rep = compute_threshold(PotentialSpec(family="hard_wall", half_width=1.0))
    assert rep.eps0 == pytest.approx((math.pi / 2.0) ** 2, rel=1e-6)
    assert rep.v_inf == math.inf
    assert rep.satisfied_iii


@pytest.mark.parametrize("w", [1.0, 3.0, 0.3, 1e-3, 0.005943712350245306])
def test_box_levels_of_a_hard_wall_are_the_closed_form(w):
    # bit for bit the Python expression, on the box (-min(w, a), min(w, a));
    # at the last width numpy's ** 2 rounds some of these levels differently
    spec = PotentialSpec(family="hard_wall", half_width=1.0)
    box = min(w, 1.0)
    assert threshold.box_levels(spec, w, 8).tolist() == \
        [(j * math.pi / (2.0 * box)) ** 2 for j in range(1, 9)]


@pytest.mark.parametrize("spec, w, n", [
    (SQUARE, 4.0, 4095),
    (PotentialSpec(family="gaussian_well", depth=2.0, width=0.5), 0.5, 1023),
    (PotentialSpec(family="confining", p=2.0), 3.0, 3071)],
    ids=["square-w4", "gaussian-w0.5", "confining-w3"])
def test_box_levels_of_other_families_are_the_extrapolated_solve(spec, w, n):
    # spacing at most 1/512, and at least 1023 interior nodes
    got = threshold.box_levels(spec, w, 3)
    want = threshold._extrapolated_levels(spec, w, n, "dirichlet", 3)
    assert np.array_equal(got, want.extrapolated)


def _readme_widths():
    # delta R = 0.05 * 5 |ln E| on the README assemble grid
    from conebound.counting import default_energy_grid
    return 0.25 * np.abs(np.log(default_energy_grid()))


@pytest.mark.parametrize("a", [1.0, 10.0], ids=["readme-wall", "wide-wall"])
def test_box_levels_of_a_hard_wall_take_arrays(a):
    # the README grid's 43 widths and random widths, in one call: each row
    # is the scalar form, and the Python expression, bit for bit
    spec = PotentialSpec(family="hard_wall", half_width=a)
    rng = np.random.default_rng(7)
    for widths in (_readme_widths(),
                   10.0 ** rng.uniform(-3.0, 2.0, size=(4, 9))):
        got = threshold.box_levels(spec, widths, 8)
        assert got.shape == widths.shape + (8,)
        for w, row in zip(widths.ravel().tolist(), got.reshape(-1, 8)):
            box = min(w, a)
            want = [(j * math.pi / (2.0 * box)) ** 2 for j in range(1, 9)]
            assert row.tolist() == want
            assert np.array_equal(row, threshold.box_levels(spec, w, 8))


def test_box_levels_of_a_hard_wall_name_the_first_width_that_overflows():
    spec = PotentialSpec(family="hard_wall", half_width=1.0)
    with pytest.raises(PreconditionError,
                       match="overflow on the half width 1.000e-200"):
        threshold.box_levels(spec, np.array([0.5, 1e-200, 1e-320]), 8)


def test_box_levels_solve_each_distinct_width_once(monkeypatch):
    calls, solve = [], threshold._extrapolated_levels

    def counted(spec, L, n, kind, k):
        calls.append(L)
        return solve(spec, L, n, kind, k)

    monkeypatch.setattr(threshold, "_extrapolated_levels", counted)
    widths = np.array([4.0, 3.0, 4.0, 5.0])
    got = threshold.box_levels(SQUARE, widths, 2)
    assert sorted(calls) == [3.0, 4.0, 5.0]
    assert got.shape == (4, 2)
    for w, row in zip(widths.tolist(), got):
        assert np.array_equal(row, threshold.box_levels(SQUARE, w, 2))


def test_extrapolated_solve_of_the_hard_wall_box():
    # the fd route on the box (-1, 1) that compute_threshold ran for a hard
    # wall before it took box_levels; it returned eps0 = 2.467401098443026
    spec = PotentialSpec(family="hard_wall", half_width=1.0)
    got = threshold._extrapolated_levels(spec, 12.0, 4096, "dirichlet", 2)
    np.testing.assert_allclose(got.extrapolated,
                               [(math.pi / 2.0) ** 2, math.pi ** 2],
                               rtol=1e-9, atol=0.0)


def test_square_well_against_transcendental_oracle():
    exact = square_well_even_level(4.0, 1.0)
    rep = compute_threshold(SQUARE)
    assert abs(rep.eps0 - exact) / abs(exact) < 1e-5
    # second level too: gap puts lambda_2 at the first odd state
    lam2 = rep.eps0 + rep.gap
    exact2 = square_well_odd_level(4.0, 1.0)
    assert abs(lam2 - exact2) / abs(exact2) < 1e-4


def test_square_well_bracket_encloses_within_resolution():
    # at L = 12 the true N-D enclosure is ~1e-18 wide; the recorded pair can
    # only agree with the oracle to the extrapolation residual
    rep = compute_threshold(SQUARE)
    exact = square_well_even_level(4.0, 1.0)
    lam_n, lam_d = rep.bracket
    assert abs(lam_n - exact) < 5e-5
    assert abs(lam_d - exact) < 5e-5
    assert rep.eps0 == lam_d


def test_harmonic_confining_closed_form():
    rep = compute_threshold(PotentialSpec(family="confining", p=2.0))
    assert rep.eps0 == pytest.approx(1.0, rel=1e-6)
    assert rep.v_inf == math.inf


def test_gaussian_dual_route():
    # matrix route vs an independent shooting bisection on the ground level
    spec = PotentialSpec(family="gaussian_well", depth=4.0, width=1.0)
    rep = compute_threshold(spec)

    from conebound import oscillation_count

    def has_state_below(E):
        return oscillation_count(lambda x: float(spec(x)), -12.0, 12.0,
                                 "dirichlet", E) >= 1

    lo, hi = -4.0, 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if has_state_below(mid):
            hi = mid
        else:
            lo = mid
    assert rep.eps0 == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_delta_family_converges_to_point_interaction():
    # v = -(alpha/w) 1_{|x|<w/2}: eps0 -> -alpha^2/4 from above, order >= 1
    exact = -1.0  # alpha = 2
    eps = [compute_threshold(
        PotentialSpec(family="delta_approx", alpha=2.0, w_reg=w)).eps0
        for w in (0.1, 0.05, 0.025)]
    errs = [e - exact for e in eps]
    assert all(e > 0 for e in errs)
    # monotone from above and error at least halving per halving of w
    assert errs[0] > errs[1] > errs[2]
    assert 0.35 < errs[1] / errs[0] < 0.65
    assert 0.35 < errs[2] / errs[1] < 0.65


def test_tabulated_potential_threshold():
    x = np.linspace(-12.0, 12.0, 4001)
    spec = potential_spec_from_dict(
        {"family": "tabulated", "x": list(x),
         "v": list(-3.0 * np.exp(-x * x))})
    rep = compute_threshold(spec)
    ref = compute_threshold(PotentialSpec(family="gaussian_well", depth=3.0,
                                          width=math.sqrt(0.5)))
    assert rep.eps0 == pytest.approx(ref.eps0, abs=1e-5)


def test_nonbinding_potential_rejected():
    # a positive bump binds nothing: eps0 >= v_inf must be flagged
    x = np.linspace(-12.0, 12.0, 2001)
    spec = potential_spec_from_dict(
        {"family": "tabulated", "x": list(x),
         "v": list(2.0 * np.exp(-x * x))})
    with pytest.raises(PreconditionError):
        compute_threshold(spec)


def test_edge_dip_rejected():
    # well wider than the box: the interval cuts through the well and the
    # truncation cannot be trusted
    wide = PotentialSpec(family="square_well", depth=4.0, half_width=13.0)
    with pytest.raises(PreconditionError):
        compute_threshold(wide, L=12.0)


def test_resolution_floor():
    with pytest.raises(PreconditionError):
        compute_threshold(SQUARE, n=256)


def test_degenerate_gap_cannot_be_certified():
    # symmetric double well: the tunneling splitting (~1e-8) sits far below
    # grid resolution, so the ground state cannot be certified isolated
    x = np.linspace(-12.0, 12.0, 4001)
    v = -8.0 * (np.exp(-2.0 * (x - 5.0) ** 2) + np.exp(-2.0 * (x + 5.0) ** 2))
    spec = potential_spec_from_dict(
        {"family": "tabulated", "x": list(x), "v": list(v)})
    from conebound import ConvergenceError
    with pytest.raises(ConvergenceError):
        compute_threshold(spec)


# ------------------------------------------------------- potential algebra


def test_cell_averaged_samples_preserve_integral():
    # the averaged samples carry exactly the well's integral, any grid shift
    for n in (512, 613, 1024):
        grid = Grid1D.make(-12.0, 12.0, n, "neumann")
        v = SQUARE.grid_samples(grid.nodes(), grid.h)
        assert grid.h * float(np.sum(v)) == pytest.approx(
            -2.0 * 4.0 * 1.0, rel=1e-12)
    d = PotentialSpec(family="delta_approx", alpha=2.0, w_reg=0.05)
    grid = Grid1D.make(-8.0, 8.0, 777, "neumann")
    v = d.grid_samples(grid.nodes(), grid.h)
    assert grid.h * float(np.sum(v)) == pytest.approx(-2.0, rel=1e-12)


def test_v_inf_by_family():
    assert SQUARE.v_inf() == 0.0
    assert PotentialSpec(family="gaussian_well").v_inf() == 0.0
    assert PotentialSpec(family="confining", p=4.0).v_inf() == math.inf
    assert PotentialSpec(family="hard_wall").v_inf() == math.inf
    x = np.linspace(-10.0, 10.0, 201)
    tab = potential_spec_from_dict(
        {"family": "tabulated", "x": list(x),
         "v": list(1.0 / (1.0 + x * x))})
    assert tab.v_inf() == pytest.approx(1.0 / (1.0 + 100.0), rel=1e-6)


def test_spec_from_dict_validation():
    with pytest.raises(ConfigError):
        potential_spec_from_dict({"family": "square_well", "alpha": 2.0})
    with pytest.raises(ConfigError):
        potential_spec_from_dict({"depth": 4.0})
    with pytest.raises(PreconditionError):
        potential_spec_from_dict({"family": "square_well", "depth": -1.0})
    spec = potential_spec_from_dict({"family": "delta_approx", "alpha": 3.0})
    assert spec.alpha == 3.0 and spec.w_reg == 0.1


@pytest.mark.parametrize("doc", [
    {"family": "hard_wall", "half_width": math.inf},
    {"family": "square_well", "depth": math.nan},
    {"family": "gaussian_well", "width": math.inf},
    {"family": "confining", "p": math.inf},
    {"family": "delta_approx", "w_reg": math.nan},
], ids=["hard-wall-inf", "square-nan", "gaussian-inf", "confining-inf",
        "delta-nan"])
def test_family_parameters_must_be_finite(doc):
    # hard_wall with half_width = inf used to report the threshold of the
    # L = 12 truncation box, (pi / 24)^2, as the family's eps0
    with pytest.raises(PreconditionError, match="finite"):
        potential_spec_from_dict(doc)


@pytest.mark.parametrize("doc, needle", [
    ({"family": "square_well", "depth": "deep"}, "depth"),
    ({"family": "hard_wall", "half_width": [1.0]}, "half_width"),
    ({"family": "tabulated", "x": "abc", "v": [1.0]}, "x"),
    ({"family": ["square_well"]}, "family"),
], ids=["depth-string", "half-width-list", "table-string", "family-list"])
def test_spec_from_dict_rejects_non_numeric_values(doc, needle):
    # each of these used to escape as a ValueError or TypeError
    with pytest.raises(ConfigError, match=needle):
        potential_spec_from_dict(doc)


@pytest.mark.parametrize("x, v", [
    ([0.0, 1.0, 2.0], [1.0, 2.0]),
    ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]]),
    ([0.0], [-1.0]),
    ([0.0, math.inf], [-1.0, -1.0]),
    ([-1.0, 0.0, 1.0], [0.0, math.nan, 0.0]),
    ([0.0, 1.0], None),
], ids=["lengths", "2-d", "one-point", "inf-x", "nan-v", "missing-v"])
def test_tabulated_potential_shape_is_checked(x, v):
    # the first two used to escape as IndexError and ValueError; the next
    # three failed only later, in the solve, with no word about the table
    with pytest.raises(PreconditionError, match="tabulated potential"):
        potential_spec_from_dict({"family": "tabulated", "x": x, "v": v})
    with pytest.raises(PreconditionError, match="tabulated potential"):
        PotentialSpec(family="tabulated", table_x=np.asarray(x),
                      table_v=np.asarray(v)).validate()


# ------------------------------------------------------------------ sweeps


@pytest.fixture(scope="module")
def square_sweep():
    return truncation_sweep(SQUARE, L_GRID)


def test_sweep_brackets_everywhere(square_sweep):
    s = square_sweep
    assert np.all(s.lam1_N <= s.eps0 + 1e-12)
    assert np.all(s.eps0 <= s.lam1_D + 1e-12)
    assert s.L_min == 4.0


def test_sweep_monotone_dirichlet(square_sweep):
    assert np.all(np.diff(square_sweep.lam1_D) <= 1e-12)
    assert np.all(np.diff(square_sweep.lam1_N) >= -1e-12)


def test_sweep_exponential_rates(square_sweep):
    # truncation gap decays like exp(-2 kappa L), kappa = sqrt(-eps0)
    kappa2 = 2.0 * math.sqrt(-square_well_even_level(4.0, 1.0))
    for side in ("neumann", "dirichlet"):
        fit = square_sweep.rates[side]
        assert fit["r_squared"] > 0.99
        assert abs(fit["a"] - kappa2) / kappa2 < 0.02


def test_sweep_gap_persists(square_sweep):
    s = square_sweep
    assert s.gap_delta > 0.1 * (0.0 - s.eps0)


def test_sweep_eps0_close_to_oracle(square_sweep):
    # fixed-h values carry an O(h^2) bias; the enclosure midpoint still
    # lands within that bias of the true threshold
    exact = square_well_even_level(4.0, 1.0)
    assert abs(square_sweep.eps0 - exact) < 5e-3


def test_sweep_needs_enough_lengths():
    with pytest.raises(PreconditionError):
        truncation_sweep(SQUARE, [4.0, 8.0, 12.0])


def test_sweep_lengths_stop_where_spacing_h_tells_them_apart():
    # 1 + 2 |L_max - L_min| / h lengths lie h / 2 apart, either way round
    h = 1.0 / 32.0
    assert threshold.sweep_lengths(SQUARE, 4.0, 14.0, 641, h).tolist() \
        == np.linspace(4.0, 14.0, 641).tolist()
    assert threshold.sweep_lengths(SQUARE, 14.0, 4.0, 11, h).tolist() \
        == np.linspace(14.0, 4.0, 11).tolist()
    for L_max, num in [(14.0, 642), (4.0, 5)]:
        with pytest.raises(PreconditionError, match="tells apart"):
            threshold.sweep_lengths(SQUARE, 4.0, L_max, num, h)


@pytest.mark.parametrize("h", [0.0, -1.0 / 32.0, math.nan, math.inf])
def test_sweeps_reject_bad_spacing(h):
    # h = 0 used to overflow and h = nan to fail in int(round(nan))
    with pytest.raises(PreconditionError, match="spacing h"):
        truncation_sweep(SQUARE, L_GRID, h=h)


@pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf])
def test_sweeps_reject_nonfinite_lengths(L):
    # nan used to fail in int(round(nan)) with a ValueError
    with pytest.raises(PreconditionError, match="sweep lengths"):
        truncation_sweep(SQUARE, L_GRID[:-1] + [L])


def test_sweep_rejects_confining_overflow_at_its_longest_length():
    # |x|^270 is finite at the default L = 12 but not at 14, where the
    # sweep's potential scan used to overflow
    spec = PotentialSpec(family="confining", p=270.0)
    with pytest.raises(PreconditionError, match="L = 14"):
        truncation_sweep(spec, L_GRID)


def test_only_compute_threshold_solves_the_half_grid(monkeypatch):
    # the sweeps read raw values and vectors, so each length costs one solve
    # per closure; compute_threshold's extrapolation adds the half grids,
    # each solved first to start its full grid.  Every solve takes the
    # certified route, and none falls back to bisection
    calls = []
    solve = spectral1d._certified

    def counted(op, *args):
        calls.append(op.grid.n)
        return solve(op, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate failed")

    monkeypatch.setattr(spectral1d, "_certified", counted)
    monkeypatch.setattr(spectral1d, "eigh_tridiagonal", refuse)
    truncation_sweep(SQUARE, L_GRID[:5])
    assert len(calls) == 10
    calls.clear()
    compute_threshold(SQUARE)
    assert calls == [2048, 4096, 2048, 4096]


@pytest.mark.parametrize("spec, h", [(SQUARE, 1.0 / 32.0),
                                     (PotentialSpec(family="confining", p=2.0),
                                      1.0 / 64.0)],
                         ids=["square_well", "confining"])
def test_warm_started_sweep_matches_cold_solves(spec, h):
    # each length starts from the one before; that moves its levels by
    # rounding only, within the certificate's 16 eps ||T||
    sweep = truncation_sweep(spec, L_GRID, h)
    for i, L in enumerate(L_GRID):
        n = int(round(2.0 * L / h))
        for kind, size, lam1, lam2 in (
                ("neumann", n, sweep.lam1_N, sweep.lam2_N),
                ("dirichlet", n - 1, sweep.lam1_D, sweep.lam2_D)):
            op = threshold._interval_op(spec, L, size, kind)
            tol = 16.0 * np.finfo(float).eps * (
                np.abs(op.diag).max() + 2.0 * np.abs(op.offdiag).max())
            cold = lowest_eigenvalues(op, 2, want_vectors=False).values
            assert np.all(np.abs(cold - [lam1[i], lam2[i]]) < 2.0 * tol)


def test_harmonic_sweep_tails_match_the_closed_form():
    # the ground state of x^2 is pi^(-1/4) exp(-x^2 / 2), whose norm over
    # L - 1 < |x| < L is sqrt(erfc(L - 1) - erfc(L)); down to 1e-38 at
    # L = 14, the sweep's ground states follow it within 10%
    from scipy.special import erfc

    spec = PotentialSpec(family="confining", p=2.0)
    sweep = truncation_sweep(spec, L_GRID, 1.0 / 64.0)
    tails = agmon_norms(spec, sweep, 0.5, 2.0).tail_norms
    L = np.array(L_GRID)
    exact = np.sqrt(erfc(L - 1.0) - erfc(L))
    assert np.all(np.abs(tails / exact - 1.0) < 0.1)


@pytest.mark.parametrize("spec, h", [(SQUARE, 1.0 / 32.0),
                                     (PotentialSpec(family="confining", p=2.0),
                                      1.0 / 64.0)],
                         ids=["square_well", "confining"])
def test_sweep_ground_states_match_the_long_double_oracle(spec, h):
    # every Neumann ground state of the two frozen Agmon sweeps, node by
    # node and in its tail norm, against long-double inverse iteration on
    # the same matrix; about tol / (lambda_2 - lambda_1) bounds the error
    sweep = truncation_sweep(spec, L_GRID, h)
    tails = agmon_norms(spec, sweep, 0.5, 2.0).tail_norms
    for L, (grid, phi), tail in zip(L_GRID, sweep.ground_states, tails):
        op = threshold._interval_op(spec, L, grid.n, "neumann")
        ref = longdouble_ground_vector(op.diag, op.offdiag)
        assert np.max(np.abs(phi * math.sqrt(grid.h) / ref - 1.0)) < 1e-10
        window = ref[np.abs(grid.nodes()) > L - 1.0]
        assert abs(tail / np.sqrt(np.sum(window * window)) - 1.0) < 1e-10


@pytest.mark.parametrize("spec, solves", [
    (PotentialSpec(family="hard_wall", half_width=1.0), 1), (SQUARE, 22)],
    ids=["hard_wall", "square_well"])
def test_sweep_solves_each_distinct_operator_once(monkeypatch, spec, solves):
    # hard_wall clamps every L >= a to the box (-a, a), whose walls are
    # Dirichlet under either closure, so both closures of the 11 lengths
    # share one operator (they used to share a Neumann and a Dirichlet
    # one: 2 solves); a well's do not
    calls = []
    solve = spectral1d.lowest_eigenvalues

    def counted(op, *args, **kwargs):
        calls.append((op.grid.b, op.grid.n, op.grid.kind))
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(spectral1d, "lowest_eigenvalues", counted)
    sweep = truncation_sweep(spec, L_GRID)
    assert len(calls) == len(set(calls)) == solves
    assert sweep.lam1_N.shape == sweep.lam1_D.shape == (len(L_GRID),)
    assert len(sweep.ground_states) == len(L_GRID)


def test_sweep_csv_layout(tmp_path, square_sweep):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(square_sweep, None, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "L,lam1_N,lam1_D,lam2_N,lam2_D,agmon_norm,tail_norm"
    assert len(lines) == 1 + len(L_GRID)


# ------------------------------------------------------------------- agmon


def test_agmon_weight_square_well_closed_form():
    # outside the well v = 0, so Phi(x) = sqrt(-eps0) (|x| - R) for |x| > R
    eps0 = square_well_even_level(4.0, 1.0)
    kap = math.sqrt(-eps0)
    x = np.linspace(-6.0, 6.0, 301)
    phi = agmon_weight(SQUARE, eps0, 2.0, x)
    expect = kap * np.clip(np.abs(x) - 2.0, 0.0, None)
    assert np.max(np.abs(phi - expect)) < 1e-6
    assert np.all(phi[np.abs(x) <= 2.0] == 0.0)


def test_agmon_weight_rejects_nonpositive_integrand():
    eps0 = square_well_even_level(4.0, 1.0)
    with pytest.raises(PreconditionError) as err:
        agmon_weight(SQUARE, eps0, 0.5, np.array([3.0]))
    assert "|x|" in str(err.value)


@pytest.fixture(scope="module")
def square_agmon(square_sweep):
    return agmon_norms(SQUARE, square_sweep, 0.5, 2.0)


def test_agmon_norms_uniformly_bounded(square_agmon):
    norms = square_agmon.weighted_norms
    assert float(np.max(norms) / np.min(norms)) - 1.0 < 0.5
    assert square_agmon.bound_estimate == pytest.approx(float(np.max(norms)))
    # no growth trend with L
    tau = kendalltau(L_GRID, norms).statistic
    assert tau <= 0.1


def test_agmon_tail_decay(square_agmon):
    fit = square_agmon.tail_fit
    kap = math.sqrt(-square_well_even_level(4.0, 1.0))
    assert fit["r_squared"] > 0.95
    assert abs(fit["b"] - kap) / kap < 0.05


def test_agmon_norms_solve_nothing(monkeypatch, square_sweep):
    # the Agmon weight takes the sweep's own eps0; it used to run
    # compute_threshold on a third grid for it
    def refuse(*args, **kwargs):
        raise AssertionError("agmon_norms solved an operator")

    monkeypatch.setattr(threshold, "compute_threshold", refuse)
    monkeypatch.setattr(spectral1d, "lowest_eigenvalues", refuse)
    rep = agmon_norms(SQUARE, square_sweep, 0.5, 2.0)
    assert rep.weighted_norms.shape == (len(L_GRID),)


def test_agmon_norms_add_nothing_for_zeros_of_phi(square_sweep):
    # the integrand is the one exponent e^(2 theta Phi + 2 ln|phi|): a
    # zero of phi adds e^-inf = 0, with no RuntimeWarning (the test suite
    # makes those errors); the two end nodes it zeroes weigh 1.5e-12
    import dataclasses

    grid, phi = square_sweep.ground_states[-1]
    zeroed = phi.copy()
    zeroed[0] = zeroed[-1] = 0.0
    sweep = dataclasses.replace(square_sweep, ground_states=(
        *square_sweep.ground_states[:-1], (grid, zeroed)))
    rep = agmon_norms(SQUARE, sweep, 0.5, 2.0)
    ref = agmon_norms(SQUARE, square_sweep, 0.5, 2.0)
    assert np.array_equal(rep.weighted_norms[:-1], ref.weighted_norms[:-1])
    assert 0.0 < ref.weighted_norms[-1] - rep.weighted_norms[-1] \
        < 1e-9 * ref.weighted_norms[-1]
    assert np.array_equal(rep.tail_norms[:-1], ref.tail_norms[:-1])


def test_agmon_theta_range(square_sweep):
    with pytest.raises(PreconditionError):
        agmon_norms(SQUARE, square_sweep, 1.0, 2.0)


@pytest.mark.parametrize("R, eta, needle", [
    (math.nan, 1.0, "Agmon radius"),
    (2.0, 0.0, "eta"),
    (2.0, -1.0, "eta"),
    (2.0, math.nan, "eta"),
    (2.0, math.inf, "eta"),
], ids=["R-nan", "eta-0", "eta-negative", "eta-nan", "eta-inf"])
def test_agmon_rejects_bad_radius_and_tail_width(square_sweep, R, eta,
                                                  needle):
    # R = nan used to give NaN norms, a bad eta a NaN tail fit
    with pytest.raises(PreconditionError, match=needle):
        agmon_norms(SQUARE, square_sweep, 0.5, R, eta=eta)
