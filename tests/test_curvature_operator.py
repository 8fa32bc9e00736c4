"""Loop operator -d^2/ds^2 - kappa^2/4: spectra, k_S, two-method check."""

import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conebound import (CurveSpec, PotentialSpec, PreconditionError,
                       SampledCurve, assemble_model, build_curve, ks_constant,
                       ks_spectrum)
from conebound import curvature_operator
from conebound.curvature_operator import _real_fourier_matrix

from _oracles import complex_fourier_matrix


def latitude(theta, n=1024):
    return build_curve(CurveSpec(kind="latitude_circle", theta=theta), n)


def perturbed(amplitude, n=1024):
    return build_curve(CurveSpec(kind="perturbed_latitude",
                                 theta=math.pi / 4, amplitude=amplitude,
                                 mode=3), n)


def latitude_levels(theta, count):
    # -d^2/ds^2 - cot(theta)^2/4 on a circle of length 2 pi sin(theta):
    # lambda_n = (n / sin theta)^2 - cot(theta)^2 / 4, each n >= 1 doubled
    s, cot = math.sin(theta), 1.0 / math.tan(theta)
    lams = [-0.25 * cot * cot]
    n = 1
    while len(lams) < count:
        lams += [(n / s) ** 2 - 0.25 * cot * cot] * 2
        n += 1
    return np.array(lams[:count])


def test_latitude_spectrum_closed_form():
    c = latitude(math.pi / 4)
    exact = latitude_levels(math.pi / 4, 7)
    fd = ks_spectrum(c, 1024, "fd", k=7).extrapolated
    fourier = ks_spectrum(c, 512, "fourier", k=7).values
    # both carry the O(h^2) chord-length bias of the sampled loop, so the
    # comparison is relative to the level size
    scale = np.maximum(np.abs(exact), 1.0)
    assert np.max(np.abs(fd - exact) / scale) < 1e-4
    assert np.max(np.abs(fourier - exact) / scale) < 1e-5


@pytest.mark.parametrize("m_max, n", [(64, 128), (257, 515)])
def test_real_fourier_basis_matches_complex_basis(rng, m_max, n):
    # same operator in the real basis {1, sqrt2 cos, sqrt2 sin} and in the
    # complex exponentials: the whole spectrum agrees to rounding
    ell = float(rng.uniform(1.0, 8.0))
    s = ell * np.arange(n) / n
    p = np.arange(1, 7)[:, None]
    w = 2.0 * math.pi * p * s / ell
    coef = rng.normal(0.0, 1.0, (2, 6, 1)) / p
    q = -1.0 + np.sum(coef[0] * np.cos(w) + coef[1] * np.sin(w), axis=0)
    real = _real_fourier_matrix(q, ell, m_max)
    ref = complex_fourier_matrix(q, ell, m_max)
    assert real.shape == ref.shape == (2 * m_max + 1, 2 * m_max + 1)
    assert np.array_equal(real, real.T)
    norm = np.linalg.norm(ref, 2)
    diff = np.linalg.eigvalsh(real) - np.linalg.eigvalsh(ref)
    assert np.max(np.abs(diff)) < 1e-12 * norm


def test_degenerate_pairs_resolved():
    c = latitude(math.pi / 4)
    fourier = ks_spectrum(c, 512, "fourier", k=5).values
    assert fourier[2] - fourier[1] < 1e-9
    fd = ks_spectrum(c, 1024, "fd", k=5).extrapolated
    assert fd[2] - fd[1] < 1e-6


def test_ks_latitude_closed_form():
    theta = math.pi / 4
    report = ks_constant(latitude(theta))
    exact = (1.0 / math.tan(theta)) / (4.0 * math.pi)
    assert report.k_S == pytest.approx(exact, rel=1e-4)
    assert report.verified
    # no ambiguous modes here: the interval collapses onto the estimate
    lo, hi = report.k_S_uncertainty
    assert lo == report.k_S == hi
    assert np.allclose(report.negative_part, [-0.25], atol=1e-4)
    assert report.ell == pytest.approx(2.0 * math.pi * math.sin(theta),
                                       rel=1e-5)


def test_ks_great_circle_is_zero():
    # the ground mode sits at 0 up to rounding; it must be treated like a
    # zero mode (no contribution), with the interval recording the ambiguity
    report = ks_constant(latitude(math.pi / 2))
    assert report.eigenvalues[0] > -1e-8
    assert report.k_S == 0.0
    assert report.negative_part.size == 0
    lo, hi = report.k_S_uncertainty
    assert lo == 0.0
    assert hi < 1e-6
    assert report.verified


def test_method_agreement_on_perturbed_curve():
    # fd (extrapolated) and Fourier agree to 1e-6 relative on the lowest 10
    c = perturbed(0.05)
    fd = ks_spectrum(c, 1024, "fd", k=10).extrapolated
    fr = ks_spectrum(c, 1024, "fourier", k=10).values
    scale = np.maximum(np.abs(fr), 1.0)
    assert np.max(np.abs(fd - fr) / scale) < 1e-6


def test_nonflat_curve_binds():
    # any nonvanishing curvature pushes the bottom of the spectrum negative
    report = ks_constant(perturbed(0.05))
    assert report.eigenvalues[0] < 0.0
    assert report.k_S > 0.0


def test_constant_mode_upper_bound():
    # Rayleigh quotient of the constant: lambda_1 <= -(1/4 ell) int kappa^2
    for c in (latitude(math.pi / 4), perturbed(0.05)):
        h = c.length / c.n_samples
        bound = -0.25 * float(h * np.sum(c.kappa**2)) / c.length
        lam1 = ks_spectrum(c, 1024, "fd", k=1).extrapolated[0]
        assert lam1 <= bound + 1e-8


def test_perturbation_continuity():
    base = ks_constant(latitude(math.pi / 4)).k_S
    worst = 0.0
    for a in (0.02, 0.05):
        ks = ks_constant(perturbed(a)).k_S
        worst = max(worst, abs(ks - base) / a)
    # measured slope is ~0.23; anything that stays O(1) is healthy
    assert worst <= 0.5
    print(f"perturbation continuity constant ~ {worst:.3f}")


def test_block_route_needs_more_than_64_modes():
    # at 129 samples or fewer the 64-mode block of a non-constant curvature
    # is the whole basis and certifies nothing; at 256 it gives the k_S of
    # the 1024-sample block
    assert curvature_operator.ks_levels(perturbed(0.1, 128), 12).route == \
        "fd"
    block = curvature_operator.ks_levels(perturbed(0.1, 256), 12)
    assert block.route == "fourier"
    assert block.k_S == pytest.approx(
        curvature_operator.ks_levels(perturbed(0.1), 12).k_S, rel=1e-10)
    assert block.k_S_uncertainty == (block.k_S, block.k_S)


@pytest.mark.parametrize("case", ["perturbed-0.1-3-128", "perturbed-0.2-5"])
def test_uncertified_ks_levels_are_the_fd_band_levels(case, monkeypatch):
    # a 128-sample curve of non-constant curvature has no block to certify,
    # and strong high modes fail the certificate: one Fourier block attempt
    # at most, then the band solve on n_fd nodes, bit for bit, through
    # ks_spectrum, whose "fd" span the benchmark's tracer times
    if case == "perturbed-0.1-3-128":
        curve, tried = perturbed(0.1, 128), []
    else:
        curve = build_curve(FOURIER_CURVES[case][0], 1024)
        tried = [129]
    band = curvature_operator._fd_band(curve, 1024, 12)
    rows, calls = record_eigh_rows(monkeypatch), []

    def spy(curve, n, method="fd", k=16):
        calls.append((n, method))
        return ks_spectrum(curve, n, method, k)

    monkeypatch.setattr(curvature_operator, "ks_spectrum", spy)
    got = curvature_operator.ks_levels(curve, 12)
    assert rows == tried
    assert calls == [(1024, "fd")]
    assert got.route == "fd"
    assert np.array_equal(got.eigenvalues, band.extrapolated)
    coarse = curvature_operator.ks_levels(curve, 12, n_fd=512)
    assert calls[1:] == [(512, "fd")]
    assert np.array_equal(coarse.eigenvalues,
                          curvature_operator._fd_band(curve, 512, 12)
                          .extrapolated)


@pytest.mark.parametrize("theta, mode, k_S", [
    (math.pi / 4, 5, 1.442063668349),
    (0.5, 3, 0.884888185627),
], ids=["pi4-0.2-5", "0.5-0.2-3"])
def test_ks_levels_do_not_move_with_the_samples(theta, mode, k_S):
    # the spectral curvature is the same field at any n, so the k_S that
    # assemble reads off the 1024-node fd levels does not move with n
    # (the chord-table curve moved it by up to 9.5e-5 between these two) and
    # sits on the value of that route with a resolved curve
    spec = CurveSpec(kind="perturbed_latitude", theta=theta, amplitude=0.2,
                     mode=mode)
    coarse, fine = (curvature_operator.ks_levels(build_curve(spec, n), 12).k_S
                    for n in (1024, 2048))
    assert abs(coarse - fine) <= 1e-10 * fine
    assert abs(fine - k_S) <= 1e-8 * k_S


def test_assembled_latitude_k_S_is_the_closed_form():
    # the certified block on the curve's own samples, from a kappa that is
    # cot(theta) to rounding: 1/(4 pi) to 1e-12, where the chord-table
    # curve read 4.7e-6 high
    got = curvature_operator.ks_levels(latitude(math.pi / 4, 1024), 12)
    assert got.route == "fourier"
    assert abs(got.k_S * 4.0 * math.pi - 1.0) <= 1e-12


def test_too_few_levels_for_k_S_is_a_precondition_error():
    # 5 of the lowest levels are negative: k = 3 used to sum 3 of them
    curve = build_curve(FOURIER_CURVES["perturbed-0.2-5"][0], 1024)
    assert ks_constant(curve).negative_part.shape == (5,)
    with pytest.raises(PreconditionError, match="raise --k"):
        ks_constant(curve, k=3)
    with pytest.raises(PreconditionError, match="--n-modes"):
        curvature_operator.ks_levels(curve, 5)
    assert curvature_operator.ks_levels(curve, 6).negative_part.shape == (5,)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda c: curvature_operator.ks_levels(c, 12),
    ks_constant,
    lambda c: assemble_model(c, PotentialSpec(family="hard_wall",
                                              half_width=1.0)),
    lambda c: ks_spectrum(c, 1024, "fd"),
    lambda c: ks_spectrum(c, 1024, "fourier"),
], ids=["ks_levels", "ks_constant", "assemble_model", "ks_spectrum-fd",
        "ks_spectrum-fourier"])
def test_non_finite_curvature_is_a_precondition_error(call, bad):
    # the Fourier routes used to stop in scipy's "array must not contain
    # infs or NaNs"; the fd band checks nothing of its own
    curve = perturbed(0.1)
    kappa = curve.kappa.copy()
    kappa[0] = bad
    with pytest.raises(PreconditionError, match="curvature samples"):
        call(replace(curve, kappa=kappa))


def test_report_serialization_shape():
    doc = asdict(ks_constant(latitude(math.pi / 3)))
    assert set(doc) == {"ell", "eigenvalues", "negative_part", "k_S",
                        "k_S_uncertainty", "method_diff", "route"}
    assert len(doc["k_S_uncertainty"]) == 2
    assert doc["method_diff"] < 1e-4


def test_rejects_small_grids_and_unknown_method():
    c = latitude(math.pi / 4, 256)
    with pytest.raises(PreconditionError):
        ks_spectrum(c, 64, "fd")
    with pytest.raises(PreconditionError):
        ks_spectrum(c, 256, "chebyshev")


def test_k_beyond_basis_size_is_a_precondition_error():
    # the fourier basis at n = 128 has 129 functions, the fd grid n nodes
    c = latitude(math.pi / 4, 256)
    assert ks_spectrum(c, 128, "fourier", k=129).values.shape == (129,)
    with pytest.raises(PreconditionError, match="basis size"):
        ks_spectrum(c, 128, "fourier", k=130)
    with pytest.raises(PreconditionError, match="basis size"):
        ks_spectrum(c, 128, "fd", k=129)
    with pytest.raises(PreconditionError, match="basis size"):
        ks_spectrum(c, 128, "fd", k=0)


def constant_curvature_loop(kappa, ell, n):
    # only s, kappa and the length enter the curvature operator
    return SampledCurve(s=ell * np.arange(n) / n, gamma=np.zeros((n, 3)),
                        kappa=np.full(n, kappa), length=ell, spectral_tail=0.0)


@pytest.mark.parametrize("n", [512, 1024])
def test_fourier_route_closed_form_for_constant_curvature(n):
    # q = -kappa^2/4 is constant: lambda = (2 pi m / ell)^2 - kappa^2/4,
    # m = 0 once and every m >= 1 twice, bit for bit
    kappa, ell = 1.3, 3.0
    m = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6])
    exact = (2.0 * math.pi * m / ell) ** 2 - 0.25 * kappa * kappa
    curve = constant_curvature_loop(kappa, ell, n)
    got = ks_spectrum(curve, n, "fourier", k=12)
    assert got.solver == "block"
    assert np.array_equal(got.values, exact)


@pytest.mark.parametrize("spec, n_samples", [
    (CurveSpec(kind="latitude_circle", theta=0.5), 2048),
    (CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.1,
               mode=3), 1024),
    (CurveSpec(kind="perturbed_latitude", theta=math.pi / 4, amplitude=0.2,
               mode=5), 1024),
    (CurveSpec(kind="latitude_circle", theta=math.pi / 4), 1024),
], ids=["latitude-0.5", "perturbed-0.1-3", "perturbed-0.2-5", "latitude"])
def test_dividing_grids_subsample_the_interpolant(spec, n_samples):
    # on a grid whose nodes are samples, the trigonometric interpolant of
    # the samples returns those samples, bit for bit
    curve = build_curve(spec, n_samples)
    for n in (n_samples // 2, n_samples // 4):
        got = curvature_operator._kappa_on_grid(curve, n)
        assert np.array_equal(got, curve.kappa[::n_samples // n])


@pytest.mark.parametrize("n", [512, 777, 1024, 1536])
def test_non_dividing_grids_match_the_periodic_interpolant(n):
    # the trigonometric interpolant of 1000 samples, evaluated on n nodes
    # that are not samples, is the curve's own field there: the curve built
    # with n samples reads the same kappa, on coarser and finer grids
    spec = CurveSpec(kind="perturbed_latitude", theta=math.pi / 4,
                     amplitude=0.2, mode=5)
    got = curvature_operator._kappa_on_grid(build_curve(spec, 1000), n)
    want = build_curve(spec, n).kappa
    assert np.max(np.abs(got - want)) <= \
        1e-10 * max(1.0, float(np.max(np.abs(want))))


def direct_sum_fourier_matrix(q, ell, m_max):
    """The real Fourier matrix with a_k, b_k summed directly over the grid."""
    n = q.shape[0]
    idx = np.outer(np.arange(2 * m_max + 1), np.arange(n)) % n
    angle = (2.0 * math.pi / n) * np.arange(n)
    a = np.cos(angle)[idx] @ q / n
    b = np.sin(angle)[idx] @ q / n
    m = np.arange(1, m_max + 1)
    kin = np.diag((2.0 * math.pi * m / ell) ** 2)
    diff = m[:, None] - m[None, :]
    gap, total = np.abs(diff), m[:, None] + m[None, :]
    cs = b[total] - np.sign(diff) * b[gap]
    out = np.empty((2 * m_max + 1, 2 * m_max + 1))
    out[0, 0] = a[0]
    out[0, 1:m_max + 1] = out[1:m_max + 1, 0] = math.sqrt(2.0) * a[m]
    out[0, m_max + 1:] = out[m_max + 1:, 0] = math.sqrt(2.0) * b[m]
    out[1:m_max + 1, 1:m_max + 1] = a[gap] + a[total] + kin
    out[m_max + 1:, m_max + 1:] = a[gap] - a[total] + kin
    out[1:m_max + 1, m_max + 1:] = cs
    out[m_max + 1:, 1:m_max + 1] = cs.T
    return out


# the curves of the two ks benchmark ops, a non-constant curve at the
# latitude op's sizes, and a rougher one
FOURIER_CURVES = {
    "latitude-0.5": (CurveSpec(kind="latitude_circle", theta=0.5), 2048, 1024),
    "perturbed-0.5-0.05-3": (CurveSpec(kind="perturbed_latitude", theta=0.5,
                                       amplitude=0.05, mode=3), 2048, 1024),
    "perturbed-0.1-3": (CurveSpec(kind="perturbed_latitude",
                                  theta=math.pi / 4, amplitude=0.1, mode=3),
                        1024, 512),
    "perturbed-0.2-5": (CurveSpec(kind="perturbed_latitude",
                                  theta=math.pi / 4, amplitude=0.2, mode=5),
                        1024, 1024),
}


# rows of each matrix the route hands eigh: the latitude's constant
# curvature takes the closed form, the perturbed curves certify on the
# 64-mode block, the rougher curve falls back to the full matrix
EIGH_ROWS = {"latitude-0.5": [], "perturbed-0.5-0.05-3": [129],
             "perturbed-0.1-3": [129], "perturbed-0.2-5": [129, 1025]}


def record_eigh_rows(monkeypatch):
    rows, real_eigh = [], curvature_operator.eigh

    def eigh(a, *args, **kwargs):
        rows.append(len(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(curvature_operator, "eigh", eigh)
    return rows


@pytest.mark.parametrize("case", sorted(FOURIER_CURVES))
def test_fourier_route_matches_direct_summation(case, monkeypatch):
    spec, n_samples, n = FOURIER_CURVES[case]
    curve = build_curve(spec, n_samples)
    kappa = curvature_operator._kappa_on_grid(curve, n)
    ref = np.linalg.eigvalsh(direct_sum_fourier_matrix(
        -0.25 * kappa * kappa, curve.length, n // 2))[:12]
    rows = record_eigh_rows(monkeypatch)
    got = ks_spectrum(curve, n, "fourier", k=12).values
    assert np.max(np.abs(got - ref)) < 1e-9
    assert rows == EIGH_ROWS[case]


def bumped_loop(n, amplitude=0.05, mode=70):
    # constant curvature plus a ripple; by default of mode 70, which the
    # 64-mode block leaves out and the constant mode couples to at first
    # order
    ell = 3.0
    s = ell * np.arange(n) / n
    kappa = 1.3 + amplitude * np.cos(2.0 * math.pi * mode * s / ell)
    return SampledCurve(s=s, gamma=np.zeros((n, 3)), kappa=kappa, length=ell,
                        spectral_tail=0.0)


def full_fourier_levels(curve, n, k):
    kappa = curvature_operator._kappa_on_grid(curve, n)
    a = _real_fourier_matrix(-0.25 * kappa * kappa, curve.length, n // 2)
    with curvature_operator._one_blas_thread():
        return curvature_operator.eigh(a, eigvals_only=True,
                                       subset_by_index=[0, k - 1])


@pytest.mark.parametrize("case", ["perturbed-0.2-5", "bumped-256"])
def test_uncertified_block_falls_back_to_the_full_solve(case, monkeypatch):
    if case == "bumped-256":
        curve, n = bumped_loop(256), 256
    else:
        spec, n_samples, n = FOURIER_CURVES[case]
        curve = build_curve(spec, n_samples)
    ref = full_fourier_levels(curve, n, 12)
    rows = record_eigh_rows(monkeypatch)
    got = ks_spectrum(curve, n, "fourier", k=12).values
    assert rows == [129, n + 1]
    assert np.array_equal(got, ref)


def q_part(q, ell, m_max):
    """`_real_fourier_matrix` without its diagonal kinetic part."""
    m = np.arange(1, m_max + 1)
    kin = (2.0 * math.pi * m / ell) ** 2
    return _real_fourier_matrix(q, ell, m_max) - np.diag(np.r_[0.0, kin, kin])


@pytest.mark.parametrize("n", [128, 129, 256, 257])
def test_norm_bound_holds(rng, n):
    # white noise, and single cosines, for which the bound is tight
    m_max, x = n // 2, np.arange(n)
    for _ in range(5):
        noise = rng.normal(0.0, 1.0, n) + rng.normal()
        wave = rng.normal() * np.cos(2.0 * math.pi * rng.integers(1, n) * x
                                     / n + rng.uniform(0.0, 2.0 * math.pi))
        for q in (noise, wave):
            # the bound is exact for a wave at odd n; the reference norm
            # carries rounding error
            norm = np.linalg.norm(q_part(q, 2.0, m_max), 2)
            bound = curvature_operator._norm_bound(np.abs(np.fft.fft(q)) / n)
            assert norm <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [128, 129, 256, 257])
def test_fft_residuals_match_the_coupling_block(rng, n):
    # the full matrix's rows of modes m_low < m <= n // 2 against its
    # columns of the low block, in the block order 1, cos, sin
    m_max, m_low, ell = n // 2, 40, 2.5
    q = rng.normal(0.0, 1.0, n)
    full = _real_fourier_matrix(q, ell, m_max)
    low = np.r_[0, 1:m_low + 1, m_max + 1:m_max + m_low + 1]
    high = np.r_[m_low + 1:m_max + 1, m_max + m_low + 1:2 * m_max + 1]
    assert np.array_equal(full[np.ix_(low, low)],
                          _real_fourier_matrix(q, ell, m_low))
    vecs = rng.normal(0.0, 1.0, (2 * m_low + 1, 6))
    ref = (full[np.ix_(high, low)] @ vecs).T
    got = curvature_operator._high_mode_residuals(q, vecs, m_low, m_max)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def blas_threads():
    return [get() for get, _ in curvature_operator._openblas_threads()]


@pytest.fixture
def two_blas_threads():
    # start from 2 threads, whatever an earlier solve left behind
    apis = curvature_operator._openblas_threads()
    old = blas_threads()
    for _, set_ in apis:
        set_(2)
    yield [2] * len(apis)
    for (_, set_), count in zip(apis, old):
        set_(count)


def test_openblas_thread_functions_are_found(tmp_path):
    # where scipy links OpenBLAS the guard must find it, or every thread
    # assertion here holds vacuously.  OpenBLAS reads OPENBLAS_NUM_THREADS
    # once, when it loads: a fresh interpreter
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"]:
        pytest.skip(f"scipy links {blas['name']}, not OpenBLAS")
    script = tmp_path / "threads.py"
    script.write_text(
        "import math\n"
        "from conebound import CurveSpec, build_curve, curvature_operator\n"
        "apis = curvature_operator._openblas_threads()\n"
        "assert len(apis) == 1, apis\n"
        "get = apis[0][0]\n"
        "before, during = get(), []\n"
        "real_eigh = curvature_operator.eigh\n"
        "def eigh(*args, **kwargs):\n"
        "    during.append(get())\n"
        "    return real_eigh(*args, **kwargs)\n"
        "curvature_operator.eigh = eigh\n"
        "curve = build_curve(CurveSpec(kind='perturbed_latitude',\n"
        "                              theta=math.pi / 4, amplitude=0.1,\n"
        "                              mode=3), 256)\n"
        "curvature_operator.ks_spectrum(curve, 256, 'fourier', k=4)\n"
        "print(before, during, get())\n")
    src = str(Path(curvature_operator.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"}
    out = subprocess.run([sys.executable, str(script)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2", "[1]", "2"]


def test_fourier_solve_runs_on_one_blas_thread(monkeypatch, two_blas_threads):
    # a certified block makes one solve, a failed certificate two, and
    # assemble's block route one
    before, during = two_blas_threads, []
    real_eigh = curvature_operator.eigh

    def eigh(*args, **kwargs):
        during.append(blas_threads())
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(curvature_operator, "eigh", eigh)
    ks_spectrum(perturbed(0.1, 256), 256, "fourier", k=4)
    assert during == [[1] * len(before)]
    ks_spectrum(bumped_loop(256), 256, "fourier", k=4)
    assert during == [[1] * len(before)] * 3
    curvature_operator.ks_levels(perturbed(0.1, 256), 12)
    assert during == [[1] * len(before)] * 4
    assert blas_threads() == before


@pytest.mark.parametrize("error, raised", [(RuntimeError, RuntimeError),
                                           (MemoryError, PreconditionError)])
def test_blas_threads_restored_when_the_solve_raises(monkeypatch, error,
                                                     raised, two_blas_threads):
    before = two_blas_threads

    def eigh(*args, **kwargs):
        raise error("no solve")

    monkeypatch.setattr(curvature_operator, "eigh", eigh)
    with pytest.raises(raised):
        ks_spectrum(perturbed(0.1, 256), 256, "fourier", k=4)
    assert blas_threads() == before


def test_fourier_route_without_openblas(monkeypatch):
    # no OpenBLAS found: the solve runs on whatever threads there are
    c = perturbed(0.1, 256)
    found = ks_spectrum(c, 256, "fourier", k=8).values
    lookups = []
    monkeypatch.setattr(curvature_operator, "_openblas_threads",
                        lambda: lookups.append(1) or ())
    missing = ks_spectrum(c, 256, "fourier", k=8).values
    assert lookups == [1]
    assert np.max(np.abs(missing - found)) < 1e-10


def closed_form_levels(q, ell, k):
    """c + (2 pi m/ell)^2, m = 0, 1, 1, 2, 2, ..., c the mean of q as the
    route reads it, off the FFT of q."""
    c = np.fft.fft(q)[0].real / q.shape[0]
    m = np.repeat(np.arange(k // 2 + 1), 2)[1:k + 1]
    return c + curvature_operator._fourier_symbol(ell)(m)


def dense_levels(q, ell, k):
    """The k lowest levels of the whole matrix, solved as the Fourier route's
    dense fallback solves it."""
    a = _real_fourier_matrix(q, ell, q.shape[0] // 2)
    with curvature_operator._one_blas_thread():
        return curvature_operator.eigh(a, eigvals_only=True,
                                       subset_by_index=[0, k - 1])


@pytest.mark.parametrize("n", [64, 1024, 2048])
@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, 0.5,
                                   math.pi / 3, math.pi / 2])
def test_latitude_levels_are_the_weyl_closed_form(theta, n, monkeypatch):
    # a latitude's kappa is cot(theta) to rounding: ks_levels and the
    # Fourier route return c + symbol(m) bit for bit with no eigensolve,
    # even at 64 samples, where the 64-mode block is the whole basis.
    # Weyl's inequality puts them within eps symbol(M) of the levels of the
    # whole matrix, so within 2 eps symbol(M) of a dense solve of it, which
    # has that backward error too (at 2048 samples only for the benchmark's
    # theta = 0.5: each such solve takes about a second)
    curve, k, eps = latitude(theta, n), 12, np.finfo(float).eps
    ell, grid = curve.length, max(n, 128)  # ks_spectrum needs n >= 128
    rows = record_eigh_rows(monkeypatch)
    got = curvature_operator.ks_levels(curve, k)
    fourier = ks_spectrum(curve, grid, "fourier", k=k)
    assert rows == []
    assert (got.route, fourier.solver) == ("fourier", "block")
    want = 1.0 / (4.0 * math.pi * math.tan(theta))
    if theta == math.pi / 2:
        # the great circle's ground level is 0 to rounding: a zero mode
        assert got.k_S == 0.0 and got.ambiguous[0]
    else:
        assert abs(got.k_S - want) <= 1e-15 * want

    # ks_levels reads the curve's own samples: at n >= 128 the matrix of
    # the Fourier route on n nodes
    checks = [(grid, fourier.values)]
    if n < grid:
        checks.append((n, got.eigenvalues))
    else:
        assert np.array_equal(got.eigenvalues, fourier.values)
    symbol = curvature_operator._fourier_symbol(ell)
    for nodes, values in checks:
        q = curvature_operator._potential(curve, nodes)
        assert np.array_equal(values, closed_form_levels(q, ell, k))
        if n < 2048 or theta == 0.5:
            assert np.max(np.abs(values - dense_levels(q, ell, k))) \
                <= 2.0 * eps * symbol(nodes // 2)


@pytest.mark.parametrize("n", [128, 256])
def test_closed_form_stops_below_the_nyquist_rows(n):
    # at even n the Nyquist rows of a constant q = c read 2c + symbol(M) and
    # symbol(M) in the Fourier basis: k levels that reach them take the
    # dense solve, which finds them
    kappa, ell = 1.3, 3.0
    c, curve = -0.25 * kappa * kappa, constant_curvature_loop(kappa, ell, n)
    fourier = ks_spectrum(curve, n, "fourier", k=n + 1)
    assert fourier.solver == "dense"
    nyquist = curvature_operator._fourier_symbol(ell)(n // 2) + np.array(
        [2.0 * c, 0.0])
    assert np.allclose(fourier.values[-2:], nyquist, rtol=1e-12, atol=0.0)


def ripple_bound(curve):
    """delta = `_norm_bound` of q - mean(q), the Weyl margin of the route."""
    q = curvature_operator._potential(curve, curve.n_samples)
    coef = np.abs(np.fft.fft(q)) / q.shape[0]
    coef[0] = 0.0
    return curvature_operator._norm_bound(coef)


def test_ripple_at_the_weyl_tolerance_switches_to_the_block(monkeypatch):
    # a mode-3 ripple, inside the 64-mode block and with no first-order
    # effect on the levels, whose delta sits just above eps symbol(M) goes
    # to the block eigensolve and certifies there; just below, it takes the
    # closed form.  Both give the same levels to within 2 eps symbol(M)
    n, k = 1024, 12
    tol = np.finfo(float).eps * curvature_operator._fourier_symbol(3.0)(n // 2)
    per_unit = ripple_bound(bumped_loop(n, 1e-6, 3)) / 1e-6
    below, above = (bumped_loop(n, f * tol / per_unit, 3)
                    for f in (0.95, 1.05))
    assert ripple_bound(below) < tol < ripple_bound(above)
    rows = record_eigh_rows(monkeypatch)
    closed = ks_spectrum(below, n, "fourier", k=k)
    assert rows == []
    block = ks_spectrum(above, n, "fourier", k=k)
    assert rows == [129]
    assert closed.solver == block.solver == "block"
    assert np.max(np.abs(closed.values - block.values)) <= 2.0 * tol
