"""Spherical cross-section sampling: lengths, frames, curvature, rejection."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from conebound import (CurveSpec, PreconditionError, build_curve, geometry,
                       geodesic_curvature, read_curve_samples, sup_curvature,
                       write_curve_csv)
from conebound.geometry import (_chord_table, _end_slope, _pchip,
                                _preset_points, _self_intersection_check)


def latitude(theta, n=1024):
    return build_curve(CurveSpec(kind="latitude_circle", theta=theta), n)


def perturbed(theta, amplitude, mode, n=1024):
    return build_curve(
        CurveSpec(kind="perturbed_latitude", theta=theta,
                  amplitude=amplitude, mode=mode), n)


def viviani_points(n=256):
    # figure-eight on the unit sphere with a genuine double point at (1,0,0)
    t = np.linspace(0.0, 4.0 * math.pi, n, endpoint=False)
    return np.column_stack([0.5 * (1.0 + np.cos(t)), 0.5 * np.sin(t),
                            np.sin(0.5 * t)])


# ------------------------------------------------------------ closed forms


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_latitude_length_and_curvature(theta):
    c = latitude(theta)
    assert c.length == pytest.approx(2.0 * math.pi * math.sin(theta),
                                     rel=1e-5)
    cot = 1.0 / math.tan(theta)
    assert np.max(np.abs(c.kappa - cot)) < 2e-5


def test_equator_is_a_geodesic():
    c = latitude(math.pi / 2)
    assert np.max(np.abs(c.kappa)) < 1e-8
    assert sup_curvature(c) < 1e-8
    assert c.length == pytest.approx(2.0 * math.pi, rel=1e-5)


def test_sup_curvature_reference_value():
    c = latitude(math.pi / 6)
    assert sup_curvature(c) == pytest.approx(math.sqrt(3.0), rel=1e-4)


def test_unit_sphere_and_uniform_spacing():
    c = perturbed(math.pi / 4, 0.05, 3)
    assert np.max(np.abs(np.linalg.norm(c.gamma, axis=1) - 1.0)) < 1e-12
    chords = np.linalg.norm(np.roll(c.gamma, -1, axis=0) - c.gamma, axis=1)
    assert np.std(chords) / np.mean(chords) < 1e-4


def test_arc_length_consistency():
    # sum of chords must reproduce the declared length
    for c in (latitude(math.pi / 3), perturbed(math.pi / 4, 0.05, 3)):
        chords = np.linalg.norm(np.roll(c.gamma, -1, axis=0) - c.gamma,
                                axis=1)
        assert abs(float(np.sum(chords)) - c.length) < 1e-6 * c.length
        # s-grid is the uniform partition of that length
        assert np.allclose(np.diff(c.s), c.length / c.n_samples, rtol=1e-12)


def test_frame_orthonormality():
    # |Gamma| = |n| = 1, <Gamma, n> = 0, <Gamma', n> = 0, all within 1e-6,
    # for the normal n = Gamma x Gamma' / |Gamma x Gamma'| of the samples
    c = perturbed(math.pi / 4, 0.05, 3)
    h = c.length / c.n_samples
    d1 = (8.0 * (np.roll(c.gamma, -1, axis=0) - np.roll(c.gamma, 1, axis=0))
          - (np.roll(c.gamma, -2, axis=0) - np.roll(c.gamma, 2, axis=0))) \
        / (12.0 * h)
    normal = np.cross(c.gamma, d1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    assert np.max(np.abs(np.linalg.norm(c.gamma, axis=1) - 1.0)) < 1e-6
    assert np.max(np.abs(np.linalg.norm(normal, axis=1) - 1.0)) < 1e-6
    assert np.max(np.abs(np.einsum("ij,ij->i", c.gamma, normal))) < 1e-6
    assert np.max(np.abs(np.einsum("ij,ij->i", d1, normal))) < 1e-6
    # the module's orientation convention: n points to the south pole side
    assert np.all(normal[:, 2] < 0.0)
    # the tangent norm carries the O(h^2) chord-parameter bias only
    assert np.max(np.abs(np.linalg.norm(d1, axis=1) - 1.0)) < 1e-5


# ------------------------------------------------------------- convergence


def test_latitude_refinement_ratio():
    cot = 1.0
    res = [np.max(np.abs(latitude(math.pi / 4, n).kappa - cot))
           for n in (128, 256, 512)]
    assert 3.0 < res[0] / res[1] < 5.5
    assert 3.0 < res[1] / res[2] < 5.5


def test_perturbed_refinement_ratio():
    # residual against an 8x-finer reference drops ~4x per refinement
    ref = perturbed(math.pi / 4, 0.05, 3, 2048)

    def resid(n):
        c = perturbed(math.pi / 4, 0.05, 3, n)
        step = 2048 // n
        return float(np.max(np.abs(c.kappa - ref.kappa[::step])))

    r = [resid(n) for n in (128, 256, 512)]
    assert 3.0 < r[0] / r[1] < 5.5
    assert 3.0 < r[1] / r[2] < 5.5


def test_perturbed_mean_curvature():
    c = perturbed(math.pi / 4, 0.05, 3)
    cot = 1.0
    assert abs(float(np.mean(c.kappa)) / cot - 1.0) < 0.02
    # and the perturbation actually shows up
    assert float(np.std(c.kappa)) > 0.01


def test_geodesic_curvature_matches_stored_field():
    c = perturbed(math.pi / 4, 0.05, 3)
    assert np.array_equal(geodesic_curvature(c), c.kappa)


def test_rotation_invariance(rng):
    # length and the curvature multiset do not see the embedding frame
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    base = perturbed(math.pi / 4, 0.05, 3, 512)
    rot = build_curve(CurveSpec(kind="tabulated",
                                samples=base.gamma @ q.T), 512)
    assert abs(rot.length / base.length - 1.0) < 1e-8
    dev = np.max(np.abs(np.sort(rot.kappa) - np.sort(base.kappa)))
    assert dev < 5e-3


def test_tabulated_round_trip_of_latitude():
    # feeding preset samples back through the tabulated path keeps the
    # closed-form curvature
    base = latitude(math.pi / 3, 512)
    c = build_curve(CurveSpec(kind="tabulated", samples=base.gamma), 256)
    cot = 1.0 / math.tan(math.pi / 3)
    # chord totals at different n differ at O(h^2)
    assert c.length == pytest.approx(base.length, rel=1e-4)
    assert abs(float(np.mean(c.kappa)) - cot) < 1e-3


# --------------------------------------------------------------- rejection


def test_off_sphere_tabulated_rejected():
    pts = viviani_points() * 1.001
    with pytest.raises(PreconditionError):
        CurveSpec(kind="tabulated", samples=pts).validate()


def test_self_intersecting_curve_rejected():
    with pytest.raises(PreconditionError):
        build_curve(CurveSpec(kind="tabulated", samples=viviani_points()), 256)


def _brute_force_dmin(gamma):
    # O(n^2) reference: closest pair with cyclic index gap >= 3
    n = gamma.shape[0]
    d2 = np.sum((gamma[:, None, :] - gamma[None, :, :]) ** 2, axis=2)
    i = np.arange(n)
    gap = np.abs(i[:, None] - i[None, :])
    gap = np.minimum(gap, n - gap)
    return math.sqrt(float(np.min(np.where(gap >= 3, d2, np.inf))))


def _random_loop(rng, n):
    # smooth closed curve on the sphere from a few random Fourier modes;
    # loops of this kind often cross themselves
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)[:, None]
    p = rng.normal(0.0, 1.0, (1, 3))
    for m in range(1, 4):
        p = p + (rng.normal(0.0, 1.0, (1, 3)) * np.cos(m * t)
                 + rng.normal(0.0, 1.0, (1, 3)) * np.sin(m * t)) / m
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def test_simplicity_check_matches_brute_force(rng):
    # raises exactly when the brute-force closest pair is within 2h, with
    # the same message; h at the sample spacing, at half of it (no pair of
    # the circle is then near enough to be a candidate), and on both sides
    # of the threshold dmin / 2
    loops = [viviani_points(n) for n in (64, 128, 256)]
    loops.append(latitude(math.pi / 4, 128).gamma)
    loops += [_random_loop(rng, int(rng.integers(64, 257))) for _ in range(8)]
    raised = 0
    for gamma in loops:
        dmin = _brute_force_dmin(gamma)
        chord = float(np.mean(np.linalg.norm(
            np.roll(gamma, -1, axis=0) - gamma, axis=1)))
        for h in (chord, 0.5 * chord, 0.5 * dmin, 0.5 * dmin * (1.0 - 1e-9)):
            if dmin > 2.0 * h:
                _self_intersection_check(gamma, h)
                continue
            raised += 1
            with pytest.raises(PreconditionError) as err:
                _self_intersection_check(gamma, h)
            assert str(err.value) == (
                f"curve is not simple at this resolution: non-adjacent "
                f"samples approach to {dmin:.3e} <= 2h = {2.0 * h:.3e}")
    assert raised >= len(loops)


def test_simplicity_check_memory_is_linear():
    # an n x n x 3 difference array at n = 4096 would peak near 512 MB
    tracemalloc.start()
    try:
        perturbed(math.pi / 4, 0.1, 3, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_curve_build_and_write_hold_bounded_memory(tmp_path):
    # the dense chord table is summed in blocks of n chords and the CSV is
    # written in blocks of rows, so neither holds a whole table's
    # temporaries at once; the warm-up build keeps the KD-tree's first
    # import out of the count
    perturbed(math.pi / 4, 0.1, 3, 64)
    tracemalloc.start()
    try:
        c = perturbed(math.pi / 4, 0.1, 3, 4096)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        write_curve_csv(c, tmp_path / "curve.csv")
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak < 2 * 2**20
    assert write_peak < 2**20


def test_spec_validation():
    with pytest.raises(PreconditionError):
        CurveSpec(kind="latitude_circle", theta=0.0).validate()
    with pytest.raises(PreconditionError):
        CurveSpec(kind="latitude_circle", theta=2.0).validate()
    with pytest.raises(PreconditionError):
        CurveSpec(kind="perturbed_latitude", mode=1).validate()
    with pytest.raises(PreconditionError):
        CurveSpec(kind="perturbed_latitude", amplitude=-0.1).validate()
    with pytest.raises(PreconditionError):
        CurveSpec(kind="helix").validate()
    with pytest.raises(PreconditionError):
        CurveSpec(kind="tabulated", samples=np.zeros((4, 3))).validate()


def test_equator_decimal_alias_accepted():
    # 1.5708 overshoots pi/2 in the fifth digit; treat it as the equator
    c = build_curve(CurveSpec(kind="latitude_circle", theta=1.5708), 256)
    assert sup_curvature(c) < 1e-5


def test_minimum_samples():
    with pytest.raises(PreconditionError):
        latitude(math.pi / 4, 63)


# --------------------------------------------------------------------- io


def test_csv_round_trip(tmp_path):
    c = latitude(math.pi / 4, 128)
    path = tmp_path / "curve.csv"
    write_curve_csv(c, path)
    first = path.read_text().splitlines()[0]
    assert first == "s,x,y,z,kappa"
    pts = read_curve_samples(path)
    assert pts.shape == (128, 3)
    rebuilt = build_curve(CurveSpec(kind="tabulated", samples=pts), 128)
    assert rebuilt.length == pytest.approx(c.length, rel=1e-8)


def test_read_plain_xyz(tmp_path):
    path = tmp_path / "pts.csv"
    pts = viviani_points(16)
    with open(path, "w") as fh:
        fh.write("x,y,z\n")
        for p in pts:
            fh.write(",".join(repr(float(v)) for v in p) + "\n")
    got = read_curve_samples(path)
    assert np.allclose(got, pts, atol=1e-15)


# ------------------------------------------------------- the monotone cubic
# scipy's PchipInterpolator is the oracle: _pchip must return its values bit
# for bit, since every curve digest was frozen with it


def pchip_oracle(x, y, t):
    from scipy.interpolate import PchipInterpolator
    return PchipInterpolator(x, y, axis=0)(t)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [64, 777, 1024, 4096])
@pytest.mark.parametrize("spec", [
    CurveSpec(kind="latitude_circle", theta=0.5),
    CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.2,
              mode=5),
], ids=["latitude-0.5", "perturbed-0.2-5"])
def test_pchip_matches_scipy_on_preset_chord_tables(spec, n):
    # the two tables of the pipeline: the parameter against chord length
    # (presets) and the three coordinates against it (tabulated curves), at
    # the uniform targets, every breakpoint and both ends
    u = np.linspace(0.0, 2.0 * math.pi, 8 * n, endpoint=False)
    closed, sigma = _chord_table(_preset_points(spec, u))
    targets = np.concatenate([sigma[-1] * np.arange(n) / n, sigma,
                              [sigma[0], sigma[-1]]])
    for y in (np.append(u, 2.0 * math.pi), closed):
        assert_same_bits(_pchip(sigma, y, targets),
                         pchip_oracle(sigma, y, targets))


@pytest.mark.parametrize("n", [64, 777, 1024, 4096])
@pytest.mark.parametrize("spec", [
    CurveSpec(kind="latitude_circle", theta=0.5),
    CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.1,
              mode=3),
], ids=["latitude-0.5", "perturbed-0.1-3"])
def test_blocked_chord_table_is_the_one_shot_table(monkeypatch, spec, n):
    # the table the preset resampler hands the cubic, summed block by
    # block, against the one-shot table of the same 8n parameters
    tables = []

    def recorded(x, y, t):
        tables.append(x)
        return _pchip(x, y, t)

    monkeypatch.setattr(geometry, "_pchip", recorded)
    build_curve(spec, n)
    u = np.linspace(0.0, 2.0 * math.pi, 8 * n, endpoint=False)
    assert_same_bits(tables[0], _chord_table(_preset_points(spec, u))[1])


def test_pchip_matches_scipy_on_random_tables(rng):
    # uneven nodes, integer data with flat runs, slopes that change sign,
    # one and three columns, targets on every node and beyond both ends
    for trial in range(200):
        m = int(rng.integers(3, 40))
        x = np.cumsum(rng.uniform(0.01, 2.0, m)) + rng.normal()
        y = rng.normal(size=(m, 3) if trial % 2 else m)
        if trial % 4 < 2:
            y = np.round(2.0 * y)
        t = np.concatenate([rng.uniform(x[0] - 1.0, x[-1] + 1.0, 40), x])
        assert_same_bits(_pchip(x, y, t), pchip_oracle(x, y, t))


@pytest.mark.parametrize("y, end", [
    ([0.0, 1.0, 5.0, 6.0, 6.5], 0.0),    # the one-sided slope turns: zero
    ([0.0, 1.0, -9.0, -8.0, -7.5], 3.0),  # it overshoots a turn: 3 m0
], ids=["zeroed", "capped"])
def test_pchip_end_slope_branches(y, end):
    # both shape-preserving branches of Moler's end slope, at either end
    x = np.arange(5.0)
    y = np.asarray(y)
    d = _end_slope(np.array([1.0]), np.array([1.0]),
                   np.array([y[1] - y[0]]), np.array([y[2] - y[1]]))
    assert d.tolist() == [end]
    t = np.linspace(-0.5, 4.5, 41)
    for ys in (y, -y[::-1]):
        assert_same_bits(_pchip(x, ys, t), pchip_oracle(x, ys, t))
        assert_same_bits(_pchip(x, np.column_stack([ys, 2.0 * ys, -ys]), t),
                         pchip_oracle(x, np.column_stack([ys, 2.0 * ys, -ys]),
                                      t))


def test_pchip_keeps_scipy_sign_of_zero():
    # at the node holding -0.0 the slopes make every term of the power sum
    # -0.0 (the quadratic and cubic coefficients are negative there), and
    # scipy's sum, which starts from 0.0, returns +0.0
    x = np.arange(5.0)
    y = np.array([1.0, 0.25, -0.0, -1.0, -20.0])
    want = pchip_oracle(x, y, x)
    assert not np.signbit(want[2])
    assert_same_bits(_pchip(x, y, x), want)


def test_sample_repeated_to_rounding_rejected():
    # a chord below the rounding of the running chord sum leaves two equal
    # nodes in the table, where no cubic through the nodes exists
    u = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    pts = np.column_stack([np.cos(u), np.sin(u), np.zeros_like(u)])
    pts = np.insert(pts, 50, pts[50], axis=0)
    pts[51, 0] = np.nextafter(pts[51, 0], 2.0)
    with pytest.raises(PreconditionError, match="repeated consecutive"):
        build_curve(CurveSpec(kind="tabulated", samples=pts), 128)
