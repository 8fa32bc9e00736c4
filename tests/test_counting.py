"""Half-line eigenvalue counting, slope fits, and the assembled model."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import k0, k1

from conebound import (ConvergenceError, CountingCurve, CurveSpec,
                       PotentialSpec, PreconditionError, RadialProblem,
                       assemble_model, build_curve, count_radial,
                       counting_curve, fit_log_slope, kirsch_simon_slope)
from conebound import counting, curvature_operator, threshold
from conebound.counting import default_energy_grid, write_counting_csv
from conebound.spectral1d import TIE_SHIFT, oscillation_count

from _oracles import (BESSEL_ENERGIES, STRONG_COUPLING_COUNTS, bessel_count,
                      bessel_first_zero_energy, dlmf_count,
                      dlmf_zero_energies, square_well_even_level)

# the criterion-6 grid: 8 points per decade down to the default floor 1e-22
DEEP_GRID = np.logspace(-3, -22, 153)


def test_slope_closed_forms():
    assert kirsch_simon_slope(0.25) == 0.0
    assert kirsch_simon_slope(0.0) == 0.0
    assert kirsch_simon_slope(0.5) == pytest.approx(1.0 / (4.0 * math.pi))
    assert kirsch_simon_slope(1.25) == pytest.approx(1.0 / (2.0 * math.pi))
    assert kirsch_simon_slope(2.0) == pytest.approx(
        math.sqrt(1.75) / (2.0 * math.pi))


# ------------------------------------------------------------ count_radial


@pytest.mark.parametrize("c", [0.5, 1.25, 2.0])
def test_counts_match_bessel_zeros(c):
    # energies placed between consecutive K_{i nu} zeros, where the count is
    # known exactly from the frozen table
    zeros = BESSEL_ENERGIES[c]
    probes = [float(zeros[0]) * 4.0]
    for a, b in zip(zeros[:-1], zeros[1:]):
        probes.append(math.sqrt(float(a) * float(b)))
    problem = RadialProblem(c=c)
    for E in probes:
        assert count_radial(problem, E) == bessel_count(c, E)


@pytest.mark.parametrize("c", [0.5, 1.25, 2.0])
def test_counts_flip_across_first_zero(c):
    e1 = float(BESSEL_ENERGIES[c][0])
    problem = RadialProblem(c=c)
    assert count_radial(problem, 1.02 * e1) == 0
    assert count_radial(problem, 0.98 * e1) == 1


def test_frozen_zeros_against_live_bessel():
    for c in (0.5, 1.25, 2.0):
        live = bessel_first_zero_energy(c)
        assert live == pytest.approx(float(BESSEL_ENERGIES[c][0]), rel=1e-5)


def test_dlmf_zeros_against_frozen_table():
    # the asymptotic zeros reproduce the mpmath table wherever both exist;
    # at the grid's energies (<= 1e-3) they agree far inside the 1e-3 band
    # that the deep test below skips
    for c, frozen in BESSEL_ENERGIES.items():
        dlmf = dlmf_zero_energies(c, 0.5 * float(frozen[-1]))
        assert dlmf.size == frozen.size
        deep = frozen <= 1e-3
        assert np.allclose(dlmf[deep], frozen[deep], rtol=1e-4, atol=0.0)
        assert np.allclose(dlmf, frozen, rtol=1e-2, atol=0.0)


def test_dlmf_zeros_match_frozen_strong_coupling_counts():
    # at nu ~ 100 the k = 0 seed lies near 0.74 nu, below the turning point,
    # and is no zero: an oracle that kept it gave 248 zeros above 1e-3
    zeros = dlmf_zero_energies(1e4, 1e-4)
    for E, want in STRONG_COUPLING_COUNTS.items():
        assert int(np.count_nonzero(zeros > E)) == want, f"E = {E:g}"


def _dlmf_count_or_none(zeros, E):
    """Oracle count below -E, or None within 1e-3 relative of a zero.

    That close to a zero the count hinges on the zero's position more
    finely than the asymptotic oracle pins it near the top of the grid
    (4e-3 relative for the first c = 2 zero).
    """
    if zeros.size and np.min(np.abs(zeros / E - 1.0)) < 1e-3:
        return None
    return int(np.count_nonzero(zeros > E))


@pytest.mark.parametrize("c", [0.5, 1.25, 2.0])
def test_deep_counts_match_dlmf_zeros(c):
    # regression: with the phase taken in rho out to rmax ~ 1e12, counts
    # below ~1e-14 lost or gained crossings (N = 2 at 1e-22 for c = 1/2,
    # where there are 4 states) and the c = 1/2 curve raised on its
    # monotonicity retry.  Energies near an oracle zero are skipped
    zeros = dlmf_zero_energies(c, 0.5 * float(DEEP_GRID[-1]))
    curve = counting_curve(RadialProblem(c=c), DEEP_GRID)
    checked = 0
    for E, n in zip(DEEP_GRID, curve.N):
        want = _dlmf_count_or_none(zeros, float(E))
        if want is None:
            continue
        assert n == want, f"c = {c}, E = {E:.3e}: N = {n}, oracle {want}"
        checked += 1
    assert checked >= DEEP_GRID.size - 3


def _forward_count(problem, E):
    """Count below -E shot forward in rho over doubling truncation radii."""
    E_eff = E / problem.scale
    level = -E_eff * (1.0 - TIE_SHIFT)
    rmax = max(10.0 * math.sqrt(problem.c / E_eff), 2.0 * problem.rho0)

    def potential(rho):
        return -problem.c / (rho * rho)

    prev = None
    for _ in range(9):
        n = oscillation_count(potential, problem.rho0, rmax, problem.bc,
                              level)
        if n == prev:
            return n
        prev = n
        rmax *= 2.0
    raise AssertionError(f"forward count at E = {E:.3e} did not settle")


@pytest.mark.parametrize("c", [0.5, 1.25, 2.0])
def test_neumann_counts_match_forward_shooting(c):
    # Neumann counts have no closed-form oracle; on this shallow grid the
    # forward shooter in rho is accurate, and run over the same truncation
    # radii it must give the same staircase
    grid = np.logspace(-3, -8, 41)
    problem = RadialProblem(c=c, bc="neumann")
    curve = counting_curve(problem, grid)
    forward = [_forward_count(problem, float(E)) for E in grid]
    assert curve.N.tolist() == forward


@settings(max_examples=50, derandomize=True, deadline=None)
@given(c=st.floats(0.25, 20.0, exclude_min=True),
       rho0=st.floats(0.25, 4.0), scale=st.floats(0.1, 10.0),
       bc=st.sampled_from(["dirichlet", "neumann"]),
       log10_E=st.floats(-8.0, -2.0))
def test_count_radial_matches_forward_shooting(c, rho0, scale, bc, log10_E):
    # count_radial (the closed-form phase, or the inward sweep near the
    # turning point) and the forward shooter in rho share no integration
    # variable, start point or truncation; on shallow levels both are exact
    problem = RadialProblem(c=c, rho0=rho0, bc=bc, scale=scale)
    E = 10.0 ** log10_E
    assert count_radial(problem, E) == _forward_count(problem, E)


def _log_radii(problem, E):
    """s0 = ln(sqrt(E) rho0) at the tie-shifted levels, as `_counts` forms
    it."""
    depth = np.asarray(E) / problem.scale * (1.0 - TIE_SHIFT)
    return 0.5 * np.log(depth) + math.log(problem.rho0)


def test_closed_form_matches_the_sweep():
    # the closed-form Bessel phase against the inward sweep, on the
    # certified energies of a seeded sample from 1e-40 up to the live bound
    # c / rho0^2.  The sweep's phase is only good to about its tolerance
    # accumulated over the run, so each closed-form count must lie between
    # the sweep's counts at s0 -/+ 1e-6 (1 + |s0|); the staircase is flat
    # over that window almost everywhere, where the counts are equal
    rng = np.random.default_rng(21)
    checked = exact = 0
    for c in (0.26, 0.3, 0.5, 1.25, 2.0, 5.0, 20.0, 100.0, 1e4):
        for bc in ("dirichlet", "neumann"):
            for rho0 in (0.3, 1.0, 3.0):
                problem = RadialProblem(c=c, rho0=rho0, bc=bc)
                E = 10.0 ** rng.uniform(-40.0, math.log10(c / rho0 ** 2),
                                        200)
                s0 = _log_radii(problem, E)
                s0 = s0[s0 < 0.5 * math.log(c)]  # live
                n = counting._phase_counts(problem, s0)
                s0, n = s0[n >= 0], n[n >= 0]
                d = 1e-6 * (1.0 + np.abs(s0))
                hi, at, lo = counting._sweep_counts(
                    problem, np.concatenate([s0 - d, s0, s0 + d])
                ).reshape(3, -1)
                assert np.all((lo <= n) & (n <= hi)), (c, bc, rho0)
                checked += n.size
                exact += np.count_nonzero(n == at)
    assert checked > 10000
    assert exact >= checked - 5


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_phase_on_a_branch_is_a_convergence_error(bc):
    # bisect ln x0 onto the step of the staircase: before the bracket
    # closes to adjacent floats the phase comes within its rounding bound
    # of the branch, where the count is not certain
    problem = RadialProblem(c=2.0, bc=bc)
    lo, hi = -14.0, -10.0
    with pytest.raises(ConvergenceError, match="rounding bound"):
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            n_lo, n_mid = counting._phase_counts(problem, np.array([lo, mid]))
            lo, hi = (mid, hi) if n_mid == n_lo else (lo, mid)


def test_neumann_count_near_its_branch_at_strong_coupling():
    # c = 1e4: the Neumann angle lies 4e-4 rad below its branch here, and
    # the sweep (RK45 at rtol 1e-8) counted 691.  The phase series summed
    # in 50-digit mpmath and a DOP853 sweep at rtol 1e-12 both count 692
    problem = RadialProblem(c=1e4, bc="neumann")
    assert count_radial(problem, 7.425984283365384e-16) == 692


@pytest.mark.parametrize("c", [1e6, 1e8])
def test_strong_coupling_counts_match_dlmf(c):
    # the sweep lost phase over nu = 1e3 and 1e4 radians per unit of ln x:
    # it was wrong on 1 and on 21 of these 41 energies, and `counting --c
    # 1e8` exited 0 with those counts
    grid = np.logspace(-3, -8, 41)
    curve = counting_curve(RadialProblem(c=c), grid)
    want = [dlmf_count(c, float(E)) for E in grid]
    assert None not in want
    assert curve.N.tolist() == want


@pytest.mark.parametrize("problem, grid", [
    (RadialProblem(c=20.0), np.geomspace(15.0, 0.5, 12)),
    (RadialProblem(c=20.0, bc="neumann"), np.geomspace(15.0, 0.5, 12)),
    (RadialProblem(c=0.25, bc="neumann"), np.logspace(-1, -8, 8)),
], ids=["c=20-dirichlet", "c=20-neumann", "c=0.25-neumann"])
def test_sweep_fallback_matches_forward_shooting(problem, grid):
    # energies near the turning point fail the closed form's certificate,
    # and Neumann c <= 1/4 has no Bessel phase: the inward sweep counts them
    if problem.c > 0.25:
        assert (counting._phase_counts(problem,
                                       _log_radii(problem, grid)) < 0).any()
    forward = [_forward_count(problem, float(E)) for E in grid]
    assert counting_curve(problem, grid).N.tolist() == forward


def test_failed_sweep_is_a_convergence_error(monkeypatch):
    # a right-hand side that turns NaN part way makes RK45 shrink its step
    # to nothing; the sweep must stop with a typed error, not spin
    def poisoned(fun, *args, **kwargs):
        def rhs(t, y):
            return [math.nan] if t < -0.5 else fun(t, y)
        return solve_ivp(rhs, *args, **kwargs)

    monkeypatch.setattr("scipy.integrate.solve_ivp", poisoned)
    with pytest.raises(ConvergenceError, match="sweep failed"):
        count_radial(RadialProblem(c=0.25, bc="neumann"), 1e-3)


def test_subcritical_coupling_binds_nothing():
    # c <= 1/4 is the Hardy-critical regime: no bound states at all
    for c in (0.25, 0.1, -1.0):
        problem = RadialProblem(c=c)
        for E in (1e-4, 1e-8, 1e-12):
            assert count_radial(problem, E) == 0


def test_neumann_ground_state_at_the_hardy_constant():
    # a Pruefer scale k = nu squeezed the phase onto pi as c -> 1/4+ and
    # lost this state.  At c = 1/4 the Neumann ground state -kappa^2 has
    # d/drho [sqrt(rho) K_0(kappa rho)] = 0 at rho = 1
    kappa = brentq(lambda k: k0(k) - 2.0 * k * k1(k), 1e-3, 1.0)
    for c in (0.25, 0.25 + 1e-12, math.nextafter(0.25, 1.0)):
        problem = RadialProblem(c=c, bc="neumann")
        assert count_radial(problem, 1.02 * kappa * kappa) == 0
        assert count_radial(problem, 0.98 * kappa * kappa) == 1


def test_neumann_dominates_dirichlet():
    # one boundary condition differs at rho0: counts differ by at most 1
    for E in (1e-3, 1e-5, 1e-7):
        nd = count_radial(RadialProblem(c=2.0, bc="dirichlet"), E)
        nn = count_radial(RadialProblem(c=2.0, bc="neumann"), E)
        assert nd <= nn <= nd + 1


def test_scale_moves_the_energy():
    for E in (1e-4, 3e-6):
        a = count_radial(RadialProblem(c=2.0, scale=7.5), E)
        b = count_radial(RadialProblem(c=2.0), E / 7.5)
        assert a == b


def test_count_radial_validation():
    with pytest.raises(PreconditionError):
        count_radial(RadialProblem(c=2.0), -1.0)
    with pytest.raises(PreconditionError):
        count_radial(RadialProblem(c=2.0, rho0=0.0), 1e-3)
    with pytest.raises(PreconditionError):
        count_radial(RadialProblem(c=2.0, bc="robin"), 1e-3)
    with pytest.raises(PreconditionError):
        count_radial(RadialProblem(c=2.0), math.nan)


def test_strong_coupling_count_certifies_and_scales():
    # nu ~ 100: the count is large but still certifiable, because no phase
    # accumulates beyond the turning radius; successive decades of E add
    # nu ln(10) / (2 pi) ~ 36.6 states
    n3 = count_radial(RadialProblem(c=1e4), 1e-3)
    n4 = count_radial(RadialProblem(c=1e4), 1e-4)
    assert type(n3) is int and type(n4) is int
    assert n3 > 200
    assert 35 <= n4 - n3 <= 38
    assert n3 == STRONG_COUPLING_COUNTS[1e-3]
    assert n4 == STRONG_COUPLING_COUNTS[1e-4]


# ---------------------------------------------------------- counting_curve


def test_counting_curve_monotone_and_stable():
    grid = np.logspace(-2, -9, 15)
    curve = counting_curve(RadialProblem(c=2.0), grid)
    assert np.all(np.diff(curve.N) >= 0)
    assert np.allclose(curve.lnE_abs, np.abs(np.log(grid)))


def test_counting_curve_grid_validation():
    problem = RadialProblem(c=2.0)
    with pytest.raises(PreconditionError):
        counting_curve(problem, np.logspace(-9, -2, 15))
    with pytest.raises(PreconditionError):
        counting_curve(problem, [1e-3, -1e-5])
    with pytest.raises(PreconditionError):
        counting_curve(problem, [1e-3, math.nan])
    with pytest.raises(PreconditionError):
        counting_curve(problem, [1e-3])


def test_counting_csv_header(tmp_path):
    curve = counting_curve(RadialProblem(c=2.0), np.logspace(-2, -6, 5))
    path = tmp_path / "counting.csv"
    write_counting_csv(curve, path)
    assert path.read_text().splitlines()[0] == "E,lnE_abs,N"


# ------------------------------------------------------------- slope fits


def _staircase(E, N):
    E = np.asarray(E, dtype=float)
    return CountingCurve(E, np.abs(np.log(E)), np.asarray(N, dtype=int))


def test_fit_recovers_synthetic_slope():
    E = np.logspace(-2, -10, 33)
    x = np.abs(np.log(E))
    beta = 0.25
    fit = fit_log_slope(_staircase(E, np.floor(beta * x)))
    assert fit.slope == pytest.approx(beta, rel=0.05)
    assert not fit.degenerate
    assert fit.n_used == int(np.sum(E <= 1e-3 * (1 + 1e-12)))


def test_fit_ignores_the_first_decade():
    E = np.logspace(-2, -10, 33)
    x = np.abs(np.log(E))
    N = np.floor(0.25 * x)
    clean = fit_log_slope(_staircase(E, N))
    # poison only entries in the excluded decade
    N_bad = N.copy()
    N_bad[E > 1e-3] = 0
    poisoned = fit_log_slope(_staircase(E, N_bad))
    assert poisoned.slope == clean.slope
    assert poisoned.window == clean.window


def test_fit_degenerate_staircase():
    E = np.logspace(-2, -8, 13)
    fit = fit_log_slope(_staircase(E, np.full(13, 5)))
    assert fit.degenerate
    assert fit.slope == 0.0
    assert fit.intercept == 5.0


def test_fit_preconditions():
    with pytest.raises(PreconditionError):
        fit_log_slope(_staircase(np.logspace(-2, -8, 8), np.zeros(8)))
    with pytest.raises(PreconditionError):
        fit_log_slope(_staircase(np.logspace(-2, -4.5, 12), np.zeros(12)))
    # 10 points over 4 decades, but 8 of them sit in the dropped first decade
    E = np.concatenate([np.logspace(-2, -2.9, 8), [1e-5, 1e-6]])
    with pytest.raises(PreconditionError, match="fewer than 3"):
        fit_log_slope(_staircase(E, np.zeros(10)))


def test_two_window_convergence_toward_limit_slope():
    # the fitted slope over a deeper window sits closer to the asymptote
    for c in (0.5, 1.25, 2.0):
        target = kirsch_simon_slope(c)
        errs = []
        for top, bottom in ((-2, -4), (-4, -8)):
            grid = np.logspace(top, bottom, 25)
            curve = counting_curve(RadialProblem(c=c), grid)
            coef = np.polyfit(curve.lnE_abs, curve.N.astype(float), 1)
            errs.append(abs(coef[0] - target) / target)
        assert errs[1] < errs[0], f"c = {c}: {errs}"


# --------------------------------------------------------- assembled model


@pytest.fixture(scope="module")
def small_model():
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4))
    return assemble_model(curve, PotentialSpec(family="hard_wall",
                                               half_width=1.0),
                          E_grid=np.logspace(-3, -10, 15))


def test_transverse_levels_match_the_square_well_oracle():
    # the threshold layer's cell-averaged, extrapolated solve; the old point
    # samples on a grid of their own were off by 8.7e-4 here
    sq = PotentialSpec(family="square_well", depth=4.0, half_width=1.0)
    lam = threshold.box_levels(sq, 12.0, 2)
    assert abs(lam[0] - square_well_even_level(4.0, 1.0)) < 1e-8


def test_model_solves_each_box_once(monkeypatch):
    # with R_fixed every energy shares the box (-delta R, delta R), whose
    # levels used to be re-solved at each of the 40 energies: box_levels
    # takes the whole array of widths and solves each distinct one once,
    # and a hard wall's levels, closed forms, solve nothing
    pot = PotentialSpec(family="gaussian_well", depth=2.0, width=0.5)
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4))
    calls = []
    solve = threshold._extrapolated_levels

    def counted(spec, L, n, kind, k):
        calls.append((L, kind))
        return solve(spec, L, n, kind, k)

    monkeypatch.setattr(threshold, "_extrapolated_levels", counted)
    fixed = assemble_model(curve, pot, R_fixed=200.0,
                           E_grid=np.logspace(-6, -12, 40))
    # compute_threshold solves eps0 on (-12, 12)
    assert [c for c in calls if c[0] != 12.0] == [(0.05 * 200.0, "dirichlet")]
    assert fixed.N.shape == (40,)
    calls.clear()
    assemble_model(curve, PotentialSpec(family="hard_wall", half_width=1.0),
                   E_grid=np.logspace(-3, -10, 15))
    assert calls == []


def test_model_uses_closed_form_threshold(small_model):
    assert small_model.params["eps0"] == (math.pi / 2.0) ** 2


@pytest.mark.parametrize("a", [1.0, 0.7, 2.5])
def test_hard_wall_has_one_eps0(a):
    # compute_threshold used to Richardson-solve the box (2.467401098443026
    # at a = 1) while assemble took the closed form (2.4674011002723395)
    pot = PotentialSpec(family="hard_wall", half_width=a)
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4))
    model = assemble_model(curve, pot, E_grid=np.logspace(-3, -10, 15))
    assert threshold.compute_threshold(pot).eps0 == model.params["eps0"] \
        == (math.pi / (2.0 * a)) ** 2


def test_model_retains_only_the_ground_mode(small_model):
    # latitude pi/4: lambda_0 = -1/4 binds (c = 1/2); the m = +-1 pair at
    # 1.75 cannot
    assert len(small_model.modes) == 1
    m, lam, c = small_model.modes[0]
    assert m == 0
    assert lam == pytest.approx(-0.25, abs=1e-4)
    assert c == pytest.approx(0.5, abs=1e-4)


def test_model_counts_move_and_stay_monotone(small_model):
    assert np.all(np.diff(small_model.N) >= 0)
    assert small_model.N[-1] >= 1


def test_default_model_staircase_matches_dlmf_zeros():
    # the README example down to 1e-22: only the ground channel of mode 0
    # binds, at mu = E R^2 (1 - delta kappa_inf)^2, so the staircase is the
    # half-line oracle count at mu.  It used to step 3, 2, 3 at the end
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4))
    model = assemble_model(curve, PotentialSpec(family="hard_wall",
                                                half_width=1.0))
    assert model.E[-1] == pytest.approx(1e-22)
    assert np.all(np.diff(model.N) >= 0)
    p = model.params
    shrink = (1.0 - p["delta"] * p["kappa_inf"]) ** 2
    _, _, c = model.modes[0]
    for E, n in zip(model.E, model.N):
        mu = E * (p["K_delta"] * abs(math.log(E))) ** 2 * shrink
        want = _dlmf_count_or_none(dlmf_zero_energies(c, 0.5 * mu), mu)
        if want is not None:
            assert n == want, f"E = {E:.3e}, mu = {mu:.3e}"


def test_model_per_mode_additivity(small_model):
    total = np.zeros_like(small_model.N)
    for counts in small_model.per_mode.values():
        total = total + counts
    assert np.array_equal(total, small_model.N)


def test_model_per_mode_matches_independent_recount(small_model):
    # replay the ground channel by hand for a few energies
    p = small_model.params
    shrink = (1.0 - p["delta"] * p["kappa_inf"]) ** 2
    _, _, c = small_model.modes[0]
    for i in (4, 9, 14):
        E = float(small_model.E[i])
        R = p["K_delta"] * abs(math.log(E))
        mu = E * R * R * shrink  # ground channel: level - eps0 = 0 exactly
        n = count_radial(RadialProblem(c=c), mu)
        assert n == small_model.per_mode[0][i]


def test_model_higher_channels_count_nothing(small_model):
    # channel n = 2 sits (3 pi^2 / 4) R^2 above threshold: far too high to
    # bind anything at these energies
    p = small_model.params
    shrink = (1.0 - p["delta"] * p["kappa_inf"]) ** 2
    _, _, c = small_model.modes[0]
    for i in (4, 14):
        E = float(small_model.E[i])
        R = p["K_delta"] * abs(math.log(E))
        lam2 = (2.0 * math.pi / 2.0) ** 2  # second hard-wall channel, w = 1
        mu2 = (lam2 - p["eps0"] + E) * R * R * shrink
        assert count_radial(RadialProblem(c=c), mu2) == 0


def test_model_delta_validation():
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4),
                        256)
    pot = PotentialSpec(family="hard_wall", half_width=1.0)
    with pytest.raises(PreconditionError):
        assemble_model(curve, pot, delta=0.6)
    with pytest.raises(PreconditionError):
        assemble_model(curve, pot, delta=0.0)


@pytest.mark.parametrize("n_modes, n_channels", [(0, 8), (-11, 8)])
def test_model_mode_and_channel_validation(n_modes, n_channels):
    # the channel count is no parameter: the model always sums the 8
    # transverse channels that perfbench's Bessel oracle sums
    assert counting._N_CHANNELS == n_channels
    # n_modes = -11 used to slice lambdas[:-11] and silently drop modes
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4),
                        256)
    pot = PotentialSpec(family="hard_wall", half_width=1.0)
    with pytest.raises(PreconditionError, match="n_modes >= 1"):
        assemble_model(curve, pot, n_modes=n_modes)


@pytest.mark.parametrize("spec", [
    CurveSpec(kind="latitude_circle", theta=math.pi / 4),
    # the great circle: the ground level is an ambiguous zero mode
    CurveSpec(kind="latitude_circle", theta=math.pi / 2),
    CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.05,
              mode=3),
], ids=["latitude", "great-circle", "perturbed"])
def test_model_reads_the_certified_block_levels(monkeypatch, spec):
    # assemble takes its levels from the certified low Fourier block on the
    # curve's own samples, bit for bit, and runs no fd solve; its k_S is
    # ks_constant's, bit for bit, as both read ks_levels
    curve = build_curve(spec, 1024)
    methods = []
    ks_spectrum = curvature_operator.ks_spectrum

    def spy(curve, n, method="fd", k=16):
        methods.append(method)
        return ks_spectrum(curve, n, method, k)

    monkeypatch.setattr(curvature_operator, "ks_spectrum", spy)
    model = assemble_model(curve, PotentialSpec(family="hard_wall",
                                                half_width=1.0),
                           E_grid=np.logspace(-3, -8, 10))
    assert methods == []
    assert model.params["ks_route"] == "fourier"
    with curvature_operator._one_blas_thread():
        levels = curvature_operator._low_block_levels(
            -curve.kappa ** 2 / 4, curve.length, 12)
    assert model.modes
    for m, lam, _ in model.modes:
        assert lam == levels[m]
    report = curvature_operator.ks_constant(curve)
    assert model.predicted_slope == report.k_S
    assert model.params["ell"] == report.ell
    if spec.theta == math.pi / 2:
        # the ground level sits at 0 up to rounding: excluded from k_S as a
        # zero mode would be
        assert model.predicted_slope == 0.0
        assert curvature_operator.ks_levels(curve, 12).ambiguous[0]


@pytest.mark.parametrize("E_grid, needle", [
    ([1e-8, 1e-3], "strictly decreasing"),
    ([-1e-3, -1e-8], "strictly positive"),
    ([1e-3], "at least 2 entries"),
], ids=["ascending", "negative", "single"])
def test_model_energy_grid_validation(E_grid, needle):
    # the grid check of counting_curve; an ascending grid used to fail in
    # the fit or the channel shifts, a negative one in math.log
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4),
                        256)
    pot = PotentialSpec(family="hard_wall", half_width=1.0)
    with pytest.raises(PreconditionError, match=needle):
        assemble_model(curve, pot, E_grid=E_grid)


@pytest.mark.parametrize("K_delta, needle", [
    (1e200, "channel shifts mu in [inf, inf] at E = 3.000e+00"),
    (5.0, "matching radius R = 0.0 must be"),
], ids=["mu-before-R", "R"])
def test_channel_shift_errors_name_the_first_failing_energy(K_delta, needle):
    # R = K_delta |ln E| vanishes at E = 1; at K_delta = 1e200, mu overflows
    # at E = 3 first, and that is the error raised
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4),
                        256)
    pot = PotentialSpec(family="hard_wall", half_width=1.0)
    with pytest.raises(PreconditionError, match=re.escape(needle)):
        assemble_model(curve, pot, K_delta=K_delta,
                       E_grid=[3.0, 2.0, 1.0, 0.5])

def test_default_energy_grid_shape():
    grid = default_energy_grid()
    assert grid.shape == (43,)
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e-22)
