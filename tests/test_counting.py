"""Half-line eigenvalue counting, slope fits, and the assembled model."""

import math
from unittest import mock

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
from conebound import counting, curvature_operator
from conebound.counting import default_energy_grid, write_counting_csv
from conebound.spectral1d import TIE_SHIFT, oscillation_count

from _oracles import (BESSEL_ENERGIES, STRONG_COUPLING_COUNTS, bessel_count,
                      bessel_first_zero_energy, dlmf_zero_energies,
                      square_well_even_level)

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
    # the inward sweep and the forward shooter in rho share no integration
    # variable, start point or truncation; on shallow levels both are exact
    problem = RadialProblem(c=c, rho0=rho0, bc=bc, scale=scale)
    E = 10.0 ** log10_E
    assert count_radial(problem, E) == _forward_count(problem, E)


def _evaluations(fun):
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)
    return counted, calls


@settings(max_examples=40, derandomize=True, deadline=None)
@given(c=st.floats(0.25, 20.0, exclude_min=True),
       bc=st.sampled_from(["dirichlet", "neumann"]))
def test_dopri_kernel_matches_scipy_rk45(c, bc):
    # the sweep's scalar Dormand-Prince kernel mirrors scipy's RK45 step for
    # step: on the sweep's own right-hand side, start and read-off points it
    # takes as many evaluations as solve_ivp and agrees with it far below
    # the phase gap pi that a count resolves
    kernel = counting._dopri45
    runs = []

    def both(fun, t0, y0, t_eval):
        ours, ours_calls = _evaluations(fun)
        theta = np.array(kernel(ours, t0, y0, t_eval))
        sol = solve_ivp(lambda t, y: [fun(t, y[0])], (t0, t_eval[-1]), [y0],
                        method="RK45", t_eval=t_eval, rtol=1e-8, atol=1e-10)
        assert sol.success
        runs.append((len(ours_calls), sol.nfev,
                     np.max(np.abs(theta - sol.y[0]))))
        return sol.y[0]

    problem = RadialProblem(c=c, bc=bc)
    with mock.patch.object(counting, "_dopri45", both):
        reference = counting_curve(problem, DEEP_GRID).N
    [(nfev, ref_nfev, gap)] = runs
    assert nfev == ref_nfev and gap <= 1e-9
    assert counting_curve(problem, DEEP_GRID).N.tolist() == reference.tolist()


@pytest.mark.parametrize("nan_below", [math.inf, -0.5])
def test_dopri_kernel_turns_a_nan_rhs_into_a_convergence_error(nan_below):
    # a NaN step would never fall below the minimum step by comparison; the
    # kernel must stop, not spin, whether the NaN is there from the start
    # or appears part way
    def rhs(t, y):
        assert len(calls) < 2000, "the kernel keeps stepping on NaN"
        return math.nan if t < nan_below else -y

    rhs, calls = _evaluations(rhs)
    with pytest.raises(ConvergenceError):
        counting._dopri45(rhs, 0.0, 1.0, [-0.25, -1.0])


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
    lam = counting._transverse_levels(sq, 12.0, 2)
    assert abs(lam[0] - square_well_even_level(4.0, 1.0)) < 1e-8


def test_model_uses_closed_form_threshold(small_model):
    assert small_model.params["eps0"] == (math.pi / 2.0) ** 2


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


@pytest.mark.parametrize("n_modes, n_channels", [(0, 8), (-11, 8), (12, 0)])
def test_model_mode_and_channel_validation(n_modes, n_channels):
    # n_modes = -11 used to slice lambdas[:-11] and silently drop modes
    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4),
                        256)
    pot = PotentialSpec(family="hard_wall", half_width=1.0)
    with pytest.raises(PreconditionError, match="n_modes >= 1"):
        assemble_model(curve, pot, n_modes=n_modes, n_channels=n_channels)


@pytest.mark.parametrize("spec", [
    CurveSpec(kind="latitude_circle", theta=math.pi / 4),
    # the great circle: the ground level is an ambiguous zero mode
    CurveSpec(kind="latitude_circle", theta=math.pi / 2),
    CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.05,
              mode=3),
], ids=["latitude", "great-circle", "perturbed"])
def test_model_reads_the_fd_levels_of_ks_constant(monkeypatch, spec):
    # assemble needs only the fd half of ks_constant, and must get the same
    # levels and k_S from it, bit for bit
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
    assert methods == ["fd"]
    report = curvature_operator.ks_constant(curve)
    assert methods == ["fd", "fd", "fourier"]
    assert model.predicted_slope == report.k_S
    assert model.params["ell"] == report.ell
    assert model.modes
    for m, lam, _ in model.modes:
        assert lam == report.eigenvalues[m]


def test_default_energy_grid_shape():
    grid = default_energy_grid()
    assert grid.shape == (43,)
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e-22)
