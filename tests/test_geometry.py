"""Spherical cross-section sampling: lengths, frames, curvature, rejection."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from conebound import (ConvergenceError, CurveSpec, PreconditionError,
                       build_curve, geometry,
                       geodesic_curvature, read_curve_samples, sup_curvature,
                       write_curve_csv)
from conebound.geometry import (_SCHUR_MARGIN, _coefficients, _preset_points,
                                _self_intersection_check, _simple_by_curvature,
                                _spectral_curve)


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


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3, 0.5,
                                   math.pi / 2])
def test_latitude_length_and_curvature(theta):
    # the spectral pipeline has no resolution error on a circle: kappa is
    # cot(theta) and the length 2 pi sin(theta) to rounding at every n
    for n in (64, 1024, 4096):
        c = latitude(theta, n)
        assert np.max(np.abs(c.kappa - 1.0 / math.tan(theta))) <= 1e-13
        assert abs(c.length - 2.0 * math.pi * math.sin(theta)) <= \
            1e-13 * c.length


def test_latitude_refinement_ratio():
    # no O(h^2) error is left to shrink under refinement: every level of the
    # 128 -> 256 -> 512 ladder already sits at rounding against cot(pi/4)
    res = [np.max(np.abs(latitude(math.pi / 4, n).kappa - 1.0))
           for n in (128, 256, 512)]
    assert max(res) <= 1e-13


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


def chord_total(points):
    return float(np.sum(np.linalg.norm(
        np.diff(points, axis=0, append=points[:1]), axis=1)))


def test_arc_length_consistency():
    # the declared length is the true arclength, not the output polygon's
    # chord total (1.6e-6 short at n = 1024): the chord totals of the map
    # on 2^15 and 2^16 points, whose error runs in even powers of the
    # step, Richardson-extrapolate to it within 1e-12
    u = [np.linspace(0.0, 2.0 * math.pi, 2**p, endpoint=False)
         for p in (15, 16)]
    for spec in (CurveSpec(kind="latitude_circle", theta=math.pi / 3),
                 CurveSpec(kind="perturbed_latitude", theta=math.pi / 4,
                           amplitude=0.05, mode=3),
                 CurveSpec(kind="perturbed_latitude", theta=math.pi / 4,
                           amplitude=0.2, mode=5)):
        coarse, fine = (chord_total(_preset_points(spec, v)) for v in u)
        for n in (256, 1024):
            c = build_curve(spec, n)
            assert abs(c.length - (4.0 * fine - coarse) / 3.0) <= \
                1e-12 * c.length
            # s-grid is the uniform partition of that length
            assert np.allclose(np.diff(c.s), c.length / n, rtol=1e-12)


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
    # samples at equal arclength: the tangent norm carries the O(h^4)
    # error of the difference alone (1.2e-9 here)
    assert np.max(np.abs(np.linalg.norm(d1, axis=1) - 1.0)) < 1e-8


# ------------------------------------------------------------- convergence


@pytest.mark.parametrize("spec", [
    CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.05,
              mode=3),
    CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.2,
              mode=5),
], ids=["perturbed-0.05-3", "perturbed-0.2-5"])
def test_perturbed_curvature_does_not_move_with_n(spec):
    # the curvature comes from the map's resolved Fourier series in u, so
    # the output resolution only picks the nodes: every grid reads the same
    # field on the nodes it shares with the 4096-sample grid
    ref = build_curve(spec, 4096)
    for n in (128, 1024):
        c = build_curve(spec, n)
        step = 4096 // n
        assert np.max(np.abs(c.kappa - ref.kappa[::step])) <= \
            1e-10 * sup_curvature(ref)
        assert abs(c.length - ref.length) <= 1e-13 * ref.length


def test_perturbed_mean_curvature():
    c = perturbed(math.pi / 4, 0.05, 3)
    cot = 1.0
    assert abs(float(np.mean(c.kappa)) / cot - 1.0) < 0.02
    # and the perturbation actually shows up
    assert float(np.std(c.kappa)) > 0.01


def test_geodesic_curvature_matches_stored_field():
    # the position-based formula is 4th-order central differences of the
    # samples, at most 25 h^4 off the stored spectral field here (the error
    # over h^4 reads 18.8 at n = 512 and 1024)
    for n in (512, 1024):
        c = perturbed(math.pi / 4, 0.05, 3, n)
        h = c.length / n
        assert np.max(np.abs(geodesic_curvature(c) - c.kappa)) <= 25.0 * h**4


def test_rotation_invariance(rng):
    # length and the curvature multiset do not see the embedding frame
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    base = perturbed(math.pi / 4, 0.05, 3, 512)
    rot = build_curve(CurveSpec(kind="tabulated",
                                samples=base.gamma @ q.T), 512)
    assert abs(rot.length / base.length - 1.0) < 1e-13
    dev = np.max(np.abs(np.sort(rot.kappa) - np.sort(base.kappa)))
    assert dev < 1e-10


def test_tabulated_round_trip_of_latitude():
    # feeding preset samples back through the tabulated path keeps the
    # closed-form curvature
    base = latitude(math.pi / 3, 512)
    c = build_curve(CurveSpec(kind="tabulated", samples=base.gamma), 256)
    cot = 1.0 / math.tan(math.pi / 3)
    assert c.length == pytest.approx(base.length, rel=1e-13)
    assert np.max(np.abs(c.kappa - cot)) < 1e-13


# --------------------------------------------------------- tabulated input
# rows of the perturbed latitude theta = 1, amplitude 0.15, mode 4, whose
# preset reads sup|kappa| = 3.2733610324 and length 5.872419641765


ROWS_SPEC = CurveSpec(kind="perturbed_latitude", theta=1.0, amplitude=0.15,
                      mode=4)


def rows_of(count, warp=0.0):
    # the map at count equal steps of u, moved to u + warp sin(u)
    u = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    return _preset_points(ROWS_SPEC, u + warp * np.sin(u))


@pytest.mark.parametrize("count", [600, 1000, 2400])
def test_tabulated_rows_give_the_preset_curve(count):
    # the rows are read as equal steps of a smooth parameter, so any count
    # that resolves the loop gives the preset's curve; the old cubic
    # through the polyline read sup|kappa| = 5.18, 3.76 and 3.29 here
    c = build_curve(CurveSpec(kind="tabulated", samples=rows_of(count)), 1000)
    assert abs(sup_curvature(c) - 3.2733610324) <= 1e-8
    assert abs(c.length - 5.872419641765) <= 1e-10
    assert c.spectral_tail <= 1e-15
    preset = build_curve(ROWS_SPEC, 1000)
    assert np.max(np.abs(c.kappa - preset.kappa)) <= 1e-10
    assert np.max(np.abs(c.gamma - preset.gamma)) <= 1e-12


def test_smooth_reparametrization_keeps_the_curve():
    # rows at equal steps of u + 0.3 sin(u), uneven in arclength by a
    # factor of two, are another smooth parameter of the same loop
    plain = build_curve(CurveSpec(kind="tabulated", samples=rows_of(1000)),
                        1000)
    warped = build_curve(
        CurveSpec(kind="tabulated", samples=rows_of(1000, 0.3)), 1000)
    assert abs(warped.length - plain.length) <= 1e-12 * plain.length
    assert np.max(np.abs(warped.kappa - plain.kappa)) <= 1e-9


def test_arclength_inversion_that_does_not_converge_is_an_error(monkeypatch):
    # one Newton step from the Hermite start leaves a residual on a
    # perturbed curve above rounding, and the inversion says so
    monkeypatch.setattr(geometry, "_NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceError, match="arclength inversion"):
        perturbed(math.pi / 4, 0.2, 5)


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
    # an n x n x 3 difference array at n = 4096 would peak near 512 MB; the
    # curvature certificate passes this curve, so the exact search is called
    # on its samples directly, after its first import
    import scipy.spatial  # noqa: F401
    c = perturbed(math.pi / 4, 0.1, 3, 4096)
    tracemalloc.start()
    try:
        _self_intersection_check(c.gamma, c.length / c.n_samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_curve_build_and_write_hold_bounded_memory(tmp_path):
    # the tables in u are sized by the curve's Fourier modes, not by n, the
    # interpolation runs in blocks of points and the CSV is written in
    # blocks of rows; the warm-up build keeps first-call costs out of the
    # count
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


# ------------------------------------------------ simplicity certificate
# Schur's chord comparison certifies simplicity from a space-curvature
# bound; the KD-tree search runs only when it cannot decide


def peanut_points(a, rows=1024):
    # polar radius (1 + a cos(2t)) / 2 in the plane z = 1, put on the
    # sphere: its waist narrows and bends ever more sharply as a grows, and
    # its samples stop being simple near a = 0.85
    t = np.linspace(0.0, 2.0 * math.pi, rows, endpoint=False)
    r = 0.5 * (1.0 + a * np.cos(2.0 * t))
    p = np.column_stack([r * np.cos(t), r * np.sin(t), np.ones_like(t)])
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def double_wound_points(eps, phase, rows=1024):
    # twice around the z axis at polar angle pi/3 + eps sin(t): a loop of
    # low curvature whose two turns cross where sin(t) = 0, at index gap n/2
    t = np.linspace(0.0, 2.0 * math.pi, rows, endpoint=False) + phase
    theta = math.pi / 3 + eps * np.sin(t)
    return np.column_stack([np.sin(theta) * np.cos(2.0 * t),
                            np.sin(theta) * np.sin(2.0 * t), np.cos(theta)])


def space_curvature_sup(points, spec=None):
    # sup of |r' x r''| / |r'|^3 on a parameter grid 16 times finer than
    # build_curve's tables: of spec's map, or of the normalized
    # trigonometric interpolant of the points, differentiated spectrally
    coef = _coefficients(points)[0]
    fine = 16 * max(32 * coef.shape[0], 24)
    if spec is None:
        r = np.fft.irfft(coef, fine, axis=0) * fine
        r /= np.linalg.norm(r, axis=1, keepdims=True)
    else:
        r = _preset_points(spec, np.linspace(0.0, 2.0 * math.pi, fine,
                                             endpoint=False))
    c = np.fft.rfft(r, axis=0)
    k = np.arange(c.shape[0])[:, None]
    r1 = np.fft.irfft(1j * k * c, fine, axis=0)
    r2 = np.fft.irfft(-(k * k) * c, fine, axis=0)
    return float(np.max(np.linalg.norm(np.cross(r1, r2), axis=1)
                        / np.linalg.norm(r1, axis=1) ** 3))


def assert_bound_covers_curvature(spec, n):
    # build_curve's preset map samples, 2n of them
    points = _preset_points(spec, np.linspace(0.0, 2.0 * math.pi, 2 * n,
                                              endpoint=False))
    bend = _spectral_curve(points, n, spec)[4]
    assert _SCHUR_MARGIN * math.sqrt(1.0 + bend * bend) > \
        space_curvature_sup(points, spec)


def verdict(call):
    try:
        call()
    except PreconditionError as exc:
        return str(exc)
    return None


def test_simplicity_certificate_is_sound(rng):
    # on loops that cross, nearly cross or bend sharply, rebuilt from
    # tabulated rows: the certificate passes no samples that come within
    # 2h, its space-curvature bound holds on a grid finer than the tables,
    # and build_curve's verdict and message are the exact search's.  The
    # double-wound loops pass the near-pair test, so only the coarse
    # far-pair test keeps them from certifying
    loops = [_random_loop(rng, 1024) for _ in range(6)]
    loops += [viviani_points(256)]
    loops += [peanut_points(a) for a in np.linspace(0.0, 0.95, 20)]
    loops += [double_wound_points(eps, phase)
              for eps, phase in ((0.02, 0.0), (0.05, 0.3), (0.2, 1.0))]
    outcomes = set()
    for rows in loops:
        for n in (64, 128, 256, 512):
            try:
                gamma, _, length, _, bend = _spectral_curve(rows, n)
            except (PreconditionError, ConvergenceError):
                continue  # rows that do not resolve a loop build none
            h = length / n
            simple = _brute_force_dmin(gamma) > 2.0 * h
            certified = _simple_by_curvature(gamma, h, bend)
            assert simple or not certified
            outcomes.add((certified, simple))
            assert _SCHUR_MARGIN * math.sqrt(1.0 + bend * bend) > \
                space_curvature_sup(rows)
            spec = CurveSpec(kind="tabulated", samples=rows)
            assert verdict(lambda: build_curve(spec, n)) == \
                verdict(lambda: _self_intersection_check(gamma, h))
    assert outcomes == {(True, True), (False, True), (False, False)}


def count_kd_trees(monkeypatch):
    import scipy.spatial
    built = []

    def spy(*args, **kwargs):
        built.append(1)
        return tree(*args, **kwargs)

    tree = scipy.spatial.cKDTree
    monkeypatch.setattr(scipy.spatial, "cKDTree", spy)
    return built


BENCHMARK_CURVES = [
    (CurveSpec(kind="latitude_circle", theta=math.pi / 4), 1024),
    (CurveSpec(kind="latitude_circle", theta=math.pi / 2), 1024),
    (CurveSpec(kind="latitude_circle", theta=0.5), 2048),
    (CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.1,
               mode=3), 1024),
    (CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.1,
               mode=3), 4096),
]


@pytest.mark.parametrize("spec,n", BENCHMARK_CURVES, ids=[
    "latitude-0.785", "equator", "latitude-0.5-2048", "perturbed-0.1-3",
    "perturbed-0.1-3-4096"])
def test_benchmark_curves_are_certified(monkeypatch, spec, n):
    built = count_kd_trees(monkeypatch)
    build_curve(spec, n)
    assert built == []
    assert_bound_covers_curvature(spec, n)


@pytest.mark.parametrize("spec,n", [
    # sup|kappa| = 76.5: 1366 coarse samples
    (CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.3,
               mode=8), 4096),
    # sup|kappa| = 14.1: 147 coarse samples
    (CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.2,
               mode=5), 1024),
    # too few samples for the near pairs: K h = 1.7
    (CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.2,
               mode=5), 64),
], ids=["many-levels", "coarse-set-above-64", "near-pairs-undecided"])
def test_undecided_curves_take_the_exact_search(monkeypatch, spec, n):
    built = count_kd_trees(monkeypatch)
    build_curve(spec, n)
    assert built == [1]
    assert_bound_covers_curvature(spec, n)


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


def test_sample_repeated_to_rounding_rejected():
    # a chord below the rounding of the running chord sum leaves two equal
    # nodes in the table, where no cubic through the nodes exists
    u = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    pts = np.column_stack([np.cos(u), np.sin(u), np.zeros_like(u)])
    pts = np.insert(pts, 50, pts[50], axis=0)
    pts[51, 0] = np.nextafter(pts[51, 0], 2.0)
    with pytest.raises(PreconditionError, match="repeated consecutive"):
        build_curve(CurveSpec(kind="tabulated", samples=pts), 128)
