"""Transverse threshold eps0: solvable wells, sweeps, Agmon weights."""

import math

import numpy as np
import pytest
from scipy.stats import kendalltau

from conebound import (ConfigError, Grid1D, PotentialSpec, PreconditionError,
                       agmon_norms, agmon_weight, assemble, compute_threshold,
                       lowest_eigenvalues, potential_spec_from_dict,
                       truncation_sweep)
from conebound.threshold import write_sweep_csv

from _oracles import square_well_even_level, square_well_odd_level

SQUARE = PotentialSpec(family="square_well", depth=4.0, half_width=1.0)
L_GRID = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]


# ------------------------------------------------------------- thresholds


def test_hard_wall_closed_form():
    rep = compute_threshold(PotentialSpec(family="hard_wall", half_width=1.0))
    assert rep.eps0 == pytest.approx((math.pi / 2.0) ** 2, rel=1e-6)
    assert rep.v_inf == math.inf
    assert rep.satisfied_iii


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
        v = SQUARE.grid_samples(grid.nodes("neumann"), grid.h)
        assert grid.h * float(np.sum(v)) == pytest.approx(
            -2.0 * 4.0 * 1.0, rel=1e-12)
    d = PotentialSpec(family="delta_approx", alpha=2.0, w_reg=0.05)
    grid = Grid1D.make(-8.0, 8.0, 777, "neumann")
    v = d.grid_samples(grid.nodes("neumann"), grid.h)
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


@pytest.mark.parametrize("h", [0.0, -1.0 / 32.0, math.nan, math.inf])
def test_sweeps_reject_bad_spacing(h):
    # h = 0 used to overflow and h = nan to fail in int(round(nan))
    with pytest.raises(PreconditionError, match="spacing h"):
        truncation_sweep(SQUARE, L_GRID, h=h)
    with pytest.raises(PreconditionError, match="spacing h"):
        agmon_norms(SQUARE, 0.5, 2.0, L_GRID, h=h)


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
def square_agmon():
    return agmon_norms(SQUARE, 0.5, 2.0, L_GRID)


def test_agmon_norms_uniformly_bounded(square_agmon):
    norms = square_agmon.weighted_norms
    assert float(np.max(norms) / np.min(norms)) - 1.0 < 0.5
    assert square_agmon.bound_estimate == pytest.approx(float(np.max(norms)))
    # no growth trend with L
    tau = kendalltau(square_agmon.L_grid, norms).statistic
    assert tau <= 0.1


def test_agmon_tail_decay(square_agmon):
    fit = square_agmon.tail_fit
    kap = math.sqrt(-square_well_even_level(4.0, 1.0))
    assert fit["r_squared"] > 0.95
    assert abs(fit["b"] - kap) / kap < 0.05


def test_agmon_theta_range():
    with pytest.raises(PreconditionError):
        agmon_norms(SQUARE, 1.0, 2.0, L_GRID)
