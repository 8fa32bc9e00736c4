"""Acceptance gate: one test per shipping criterion, at stated tolerances.

Each test name carries the criterion number; the terminal summary hook in
conftest.py prints one PASS/FAIL line per criterion at the end of the run.
Criteria 3, 4 and 5 share one truncation sweep through module fixtures.
"""

import math
import time

import numpy as np
import pytest

from conebound import (CurveSpec, PotentialSpec, RadialProblem, assemble,
                       assemble_model, build_curve, compute_threshold,
                       count_below, counting_curve, fit_log_slope,
                       Grid1D, ks_constant, kirsch_simon_slope,
                       lowest_eigenvalues, oscillation_count, truncation_sweep)
from conebound.threshold import agmon_norms

from _oracles import square_well_even_level

SQUARE = PotentialSpec(family="square_well", depth=4.0, half_width=1.0)
L_GRID = [float(L) for L in range(4, 15)]

_timings = {}


@pytest.fixture(scope="module")
def shared_sweep():
    t0 = time.perf_counter()
    sweep = truncation_sweep(SQUARE, L_GRID, h=1.0 / 32.0)
    _timings["sweep"] = time.perf_counter() - t0
    return sweep


@pytest.fixture(scope="module")
def shared_agmon(shared_sweep):
    return agmon_norms(SQUARE, shared_sweep, 0.5, 2.0)


def test_criterion_1_ks_closed_form():
    """cot(theta)/(4 pi) within 1e-4 relative, under 1 s per angle.

    Each angle is timed as the best of three runs (the timeit convention),
    so the bound measures the work and not a busy moment of the machine.
    """
    for theta in (math.pi / 3, math.pi / 4, math.pi / 6):
        elapsed = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            curve = build_curve(CurveSpec(kind="latitude_circle",
                                          theta=theta), 1024)
            ks = ks_constant(curve).k_S
            elapsed = min(elapsed, time.perf_counter() - t0)
        exact = (1.0 / math.tan(theta)) / (4.0 * math.pi)
        assert abs(ks - exact) / exact < 1e-4, \
            f"theta = {theta}: k_S = {ks}, exact = {exact}"
        assert elapsed < 1.0, f"theta = {theta} took {elapsed:.2f} s"


def test_criterion_2_thresholds():
    """hard wall pi^2/4 to 1e-5; delta well -> -1 within 2%, error halving."""
    t0 = time.perf_counter()
    hw = compute_threshold(PotentialSpec(family="hard_wall", half_width=1.0))
    assert abs(hw.eps0 - math.pi**2 / 4.0) / (math.pi**2 / 4.0) < 1e-5

    errs = []
    for w in (0.1, 0.05, 0.025):
        spec = PotentialSpec(family="delta_approx", alpha=2.0, w_reg=w)
        errs.append(compute_threshold(spec).eps0 - (-1.0))
    assert abs(errs[-1]) / 1.0 < 0.02, f"eps0 errors {errs}"
    for a, b in zip(errs[:-1], errs[1:]):
        ratio = b / a
        assert 0.5 * 0.7 < ratio < 0.5 * 1.3, \
            f"error ratio {ratio} outside halving band; errors {errs}"
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_bracketing_and_rates(shared_sweep):
    """lambda_1(N) <= eps0 <= lambda_1(D) on L in {4..14}; R^2 > 0.99."""
    s = shared_sweep
    assert np.all(s.lam1_N <= s.eps0 + 1e-12), "Neumann side fails to bracket"
    assert np.all(s.eps0 <= s.lam1_D + 1e-12), "Dirichlet side fails to bracket"
    assert s.L_min == 4.0
    for side in ("neumann", "dirichlet"):
        fit = s.rates[side]
        assert fit["r_squared"] > 0.99, f"{side} gap fit: {fit}"
        assert fit["a"] > 0.0
    assert _timings["sweep"] < 10.0


def test_criterion_4_gap_persistence(shared_sweep):
    """lambda_2 - eps0 stays above 0.1 (v_inf - eps0) across the sweep."""
    s = shared_sweep
    v_inf = SQUARE.v_inf()
    assert s.gap_delta > 0.1 * (v_inf - s.eps0), \
        f"gap {s.gap_delta} vs bound {0.1 * (v_inf - s.eps0)}"


def test_criterion_5_agmon_uniformity_and_tails(shared_agmon):
    """Weighted norms vary < 50% over L; tail exponential fit R^2 > 0.95."""
    norms = shared_agmon.weighted_norms
    variation = float(np.max(norms) / np.min(norms)) - 1.0
    assert variation < 0.5, f"weighted norm variation {variation}"
    fit = shared_agmon.tail_fit
    assert fit["r_squared"] > 0.95, f"tail fit {fit}"
    assert fit["b"] > 0.0


def test_criterion_6_kirsch_simon_slopes():
    """Slope within 15% for c in {1/2, 5/4, 2}; constant count (slope <
    0.005) for c = 1/4.  Under 60 s total.

    N(E) = (nu / 2 pi) |ln E| + O(1) is a staircase that steps once every
    2 pi / nu units of |ln E|, so the O(1) term averages out of a fit only
    over several whole steps.  Window rule, fixed in advance: the fitted
    range spans at least three periods 2 pi / nu for every c tested.  The
    grid keeps 8 points per decade and reaches 1e-22, the floor of
    default_energy_grid; fit_log_slope drops the first decade, which leaves
    [1e-22, 1e-4], 41.4 units of |ln E|: 3.3, 6.6 and 8.7 periods for
    c = 1/2, 5/4 and 2.
    """
    t0 = time.perf_counter()
    grid = np.logspace(-3, -22, 153)

    flat = fit_log_slope(counting_curve(RadialProblem(c=0.25), grid))
    assert abs(flat.slope) < 0.005, f"c = 1/4 slope {flat.slope}"

    failures = []
    for c in (0.5, 1.25, 2.0):
        fit = fit_log_slope(counting_curve(RadialProblem(c=c), grid))
        period = 2.0 * math.pi / math.sqrt(c - 0.25)
        assert fit.window[1] - fit.window[0] >= 3.0 * period, \
            f"c = {c}: window {fit.window} holds fewer than 3 periods"
        target = kirsch_simon_slope(c)
        rel = abs(fit.slope - target) / target
        if rel > 0.15:
            failures.append(f"c = {c}: slope {fit.slope:.5f}, "
                            f"target {target:.5f}, rel {rel:.3f}")
    assert time.perf_counter() - t0 < 60.0
    assert not failures, "; ".join(failures)


def test_criterion_7_assembled_model_slope():
    """Assembled latitude pi/4 + hard wall: slope within 20% of 1/(4 pi);
    great-circle control slope < 0.005.  Under 5 min."""
    t0 = time.perf_counter()
    pot = PotentialSpec(family="hard_wall", half_width=1.0)

    curve = build_curve(CurveSpec(kind="latitude_circle", theta=math.pi / 4))
    model = assemble_model(curve, pot)
    assert model.relative_error < 0.20, \
        f"slope {model.fit.slope} vs k_S {model.predicted_slope}"

    control = build_curve(CurveSpec(kind="latitude_circle",
                                    theta=math.pi / 2))
    flat = assemble_model(control, pot)
    assert abs(flat.fit.slope) < 0.005, f"control slope {flat.fit.slope}"
    assert time.perf_counter() - t0 < 300.0


def test_criterion_8_oracle_equivalence():
    """Inertia vs shooting counts within +-1 on 50 randomized instances;
    inertia vs dense diagonalization exact on 20 instances, n <= 400."""
    rng = np.random.default_rng(20250823)

    for _ in range(50):
        coef = rng.normal(0.0, 3.0, 4)

        def v(x):
            return coef[0] + coef[1] * np.sin(x) + coef[2] * np.cos(2 * x) \
                + coef[3] * np.sin(3 * x)

        a = float(rng.uniform(-3.0, -1.0))
        b = float(rng.uniform(1.0, 3.0))
        E = float(rng.uniform(-5.0, 60.0))
        shot = oscillation_count(lambda x: float(v(np.asarray(x))), a, b,
                                 "dirichlet", E)
        grid = Grid1D.make(a, b, 2000, "dirichlet")
        op = assemble(v(grid.nodes()), grid)
        matrix = count_below(op, E)
        assert abs(matrix - shot) <= 1, \
            f"interval ({a:.3f}, {b:.3f}), E = {E:.3f}: " \
            f"matrix {matrix} vs shooting {shot}"

    for _ in range(20):
        kind = ("dirichlet", "neumann")[int(rng.integers(2))]
        n = int(rng.integers(16, 401))
        grid = Grid1D.make(0.0, float(rng.uniform(0.5, 4.0)), n, kind)
        op = assemble(rng.normal(0.0, 20.0, n), grid)
        dense = np.diag(op.diag)
        idx = np.arange(n - 1)
        dense[idx, idx + 1] = op.offdiag
        dense[idx + 1, idx] = op.offdiag
        vals = np.linalg.eigvalsh(dense)
        level = float(rng.uniform(vals[0] - 1.0, vals[min(n - 1, 12)] + 1.0))
        want = int(np.sum(vals <= level + 1e-12 * max(1.0, abs(level))))
        assert count_below(op, level) == want, f"{kind}, n = {n}"
