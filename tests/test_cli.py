"""End-to-end runs of the conebound command line."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conebound import cli
from conebound._serial import canonical_json, sha256_hex, write_csv


def run(args):
    return cli.main([str(a) for a in args])


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_curve_latitude_example(tmp_path):
    assert run(["curve", "--preset", "latitude", "--theta", "0.7854",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "curve_summary.json")
    assert doc["ell"] == pytest.approx(4.4429, abs=1e-3)
    assert doc["kappa_inf"] == pytest.approx(1.0, abs=1e-3)
    assert doc["n_samples"] == 1024
    header = (tmp_path / "curve.csv").read_text().splitlines()[0]
    assert header == "s,x,y,z,kappa"
    meta = load(tmp_path / "run_meta.json")
    assert set(meta) == {"command", "config_sha256", "timestamp_utc",
                         "versions"}
    assert meta["command"] == "curve"


def test_curve_equator_example(tmp_path):
    assert run(["curve", "--preset", "latitude", "--theta", "1.5708",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "curve_summary.json")
    assert abs(doc["kappa_inf"]) < 1e-4
    assert doc["ell"] == pytest.approx(2.0 * math.pi, rel=1e-4)


def test_odd_sample_counts_report_the_spectral_tail(tmp_path):
    # the tail is read off the map's samples, so an odd n reports one (the
    # differencing replay it replaced needed an even n and wrote "nan"),
    # and n only picks the nodes: the length does not move with it
    docs = []
    for n in (1000, 1001):
        assert run(["curve", "--preset", "perturbed", "--amplitude", "0.1",
                    "--mode", "3", "--n-samples", n,
                    "--out-dir", tmp_path / str(n)]) == 0
        docs.append(load(tmp_path / str(n) / "curve_summary.json"))
    for doc in docs:
        assert "deriv_error" not in doc
        assert 0.0 < doc["spectral_tail"] <= 1e-15
    assert abs(docs[1]["ell"] - docs[0]["ell"]) <= 1e-13 * docs[0]["ell"]


@pytest.mark.parametrize("jitter", [1e-3, 0.2])
def test_jittered_rows_are_refused_naming_the_tail(tmp_path, capsys, jitter):
    # rows moved along the curve by up to jitter of a step are no equal
    # steps of a smooth parameter; the chord-table cubic answered them with
    # a curvature 2.7% off (1e-3) or meaningless (0.2), and the spectral
    # tail refuses them
    step = np.arange(1000) + jitter * np.random.default_rng(7).uniform(
        -1.0, 1.0, 1000)
    write_tabulated_points(tmp_path / "rows.csv", 2.0 * math.pi * step / 1000)
    assert run(["curve", "--preset", "tabulated", "--input",
                tmp_path / "rows.csv", "--n-samples", "1000",
                "--out-dir", tmp_path]) == 4
    assert "spectral tail" in capsys.readouterr().err


def test_ks_example(tmp_path):
    assert run(["ks", "--preset", "latitude", "--theta", "0.7854",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "ks_report.json")
    assert doc["k_S"] == pytest.approx(0.0796, abs=2e-4)
    assert doc["k_S"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-3)
    assert set(doc) == {"config", "config_sha256", "ell", "eigenvalues",
                        "negative_part", "k_S", "k_S_uncertainty",
                        "method_diff", "route"}
    assert doc["route"] == "fourier"
    # the embedded hash matches the embedded config block
    assert doc["config_sha256"] == sha256_hex(canonical_json(doc["config"]))


def test_threshold_hard_wall_example(tmp_path):
    assert run(["threshold", "--family", "hard_wall", "--a", "1",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "threshold_summary.json")
    assert doc["eps0"] == pytest.approx(2.4674, abs=1e-4)
    assert doc["eps0"] == pytest.approx(math.pi**2 / 4.0, rel=1e-6)
    assert doc["v_inf"] == "inf"
    assert doc["satisfied_iii"] is True


def test_hard_wall_sweep_reports_the_box_level(tmp_path):
    # a hard wall's walls are Dirichlet under either closure; the sweep
    # used to solve a free Neumann box, whose lambda_1 ~ 0 entered bracket
    # and halved the sweep's eps0 to pi^2 / 8
    assert run(["threshold", "--family", "hard_wall", "--a", "1", "--sweep",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "threshold_summary.json")
    # compute_threshold's eps0 and gap are the closed-form box levels
    assert doc["eps0"] == 2.4674011002723395
    assert doc["gap"] == 7.4022033008170185
    assert doc["bracket"] == [doc["eps0"], doc["eps0"]]
    # the fd Dirichlet box at h = 1/32 has 63 nodes and levels
    # 4096 sin^2(k pi / 128)
    level = [4096.0 * math.sin(k * math.pi / 128.0) ** 2 for k in (1, 2)]
    sweep = doc["sweep"]
    assert sweep["eps0"] == pytest.approx(level[0], rel=1e-12)
    assert sweep["eps0"] == pytest.approx(math.pi ** 2 / 4.0, abs=1e-3)
    assert sweep["gap_delta"] == pytest.approx(level[1] - level[0], rel=1e-11)


def test_threshold_sweep_files(tmp_path):
    assert run(["threshold", "--family", "square_well", "--depth", "4",
                "--a", "1", "--sweep", "--L-min", "4", "--L-max", "8",
                "--L-num", "5", "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "threshold_summary.json")
    assert "sweep" in doc
    assert doc["sweep"]["L_min"] == 4.0
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == "L,lam1_N,lam1_D,lam2_N,lam2_D,agmon_norm,tail_norm"


def test_counting_degenerate_below_hardy(tmp_path):
    # c = 0.2 < 1/4 binds nothing; the staircase never moves
    assert run(["counting", "--c", "0.2", "--E-top", "1e-3",
                "--E-bottom", "1e-8", "--n-points", "12",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "slope.json")
    assert doc["degenerate"] is True
    assert doc["slope"] == 0.0
    assert doc["predicted_slope"] == 0.0
    header = (tmp_path / "counting.csv").read_text().splitlines()[0]
    assert header == "E,lnE_abs,N"


def test_counting_supercritical_slope(tmp_path):
    assert run(["counting", "--c", "1.25", "--E-top", "1e-3",
                "--E-bottom", "1e-8", "--n-points", "21",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "slope.json")
    assert doc["predicted_slope"] == pytest.approx(1.0 / (2.0 * math.pi))
    assert doc["relative_error"] < 0.25


# the two ks ops of perfbench's spectra workload
KS_LATITUDE = ["ks", "--preset", "latitude", "--theta", "0.5",
               "--n-samples", "2048", "--n-fd", "2048", "--n-fourier", "1024"]
KS_PERTURBED = ["ks", "--preset", "perturbed", "--amplitude", "0.1",
                "--mode", "3"]
README_ASSEMBLE = ["assemble", "--preset", "latitude", "--theta",
                   "0.7853981633974483", "--family", "hard_wall", "--a", "1.0"]
# (theta, mode) of perturbed curves with amplitude 0.2, whose strong high
# curvature modes the low Fourier block cannot certify: assemble falls back
# to the fd levels
FD_ROUTE_CURVES = [(0.7853981633974483, 5), (0.5, 3)]


def fd_route_assemble(theta, mode):
    return ["assemble", "--preset", "perturbed", "--theta", repr(theta),
            "--amplitude", "0.2", "--mode", str(mode), "--family",
            "hard_wall", "--a", "1.0"]

# sha256 of the data files that conebound 0.1.0 writes for the README
# counting and assemble examples and for Neumann c = 2 on the README grid,
# of the two sweeps with Agmon columns that perfbench's spectra workload
# runs, and of the summaries of that workload's threshold and ks ops and of
# the README assemble example (they carry eps0, bracket, k_S, method_diff
# and predicted_slope), of that workload's perturbed curve summary and of
# the README counting example's slope.json, of that curve's curve.csv, and
# of the counts of the two fd-route assemble runs; a counting or
# eigensolver method may change, these bytes may not, unless an oracle
# shows the new bytes closer to the truth.  The two ks reports were
# re-frozen twice, when the Fourier cross-check moved to one OpenBLAS
# thread and when it moved to a certified low-mode block: each moved only
# method_diff, the rounding noise of the Fourier solve.  They were
# re-frozen a third time, with FROZEN_KS_REPORTS, when the fd levels moved
# from the periodic band solve to the certified low DFT block: the
# eigenvalues moved by under 1e-8, k_S by under 2e-9 relative, method_diff
# fell 56-220x, and fd_solver was added.  The band solve misses the
# closed-form fd levels of a constant-curvature loop by up to 1e-9, the
# block by none.  The
# README assemble summary was
# re-frozen when assemble took k_S from the certified block in place of
# the fd levels: predicted_slope, relative_error and the retained lambda
# moved by under 1e-10 relative, and params gained ks_route.  The two
# Agmon sweeps and the three threshold summaries were re-frozen when the
# Agmon weight took the sweep's own eps0 in place of a third grid's
# compute_threshold (the weighted norms moved by under 7e-8 relative) and
# a hard wall's box became Dirichlet under both closures (its bracket[0],
# sweep eps0 and gap_delta went from the free Neumann box to the box
# level; test_hard_wall_sweep_reports_the_box_level).  The hard-wall summary
# was re-frozen when compute_threshold took a hard wall's levels in closed
# form from box_levels: eps0, gap and bracket moved by under 1e-9 relative.
# The two Agmon sweeps and the three threshold summaries were re-frozen
# when Dirichlet and Neumann levels with k <= 2 moved from bisection to
# certified inverse iteration: eigenvalues moved by at most 3.2e-12
# relative, the square-well gap-rate fits by at most 1.7e-4.  Against
# long-double Sturm bisection on the same matrices
# (test_certified_levels_are_no_farther_from_the_truth) the errors of
# lambda_1 and lambda_2 went from 2.4e-13 / 1.7e-13 to 5.6e-15 / 8.7e-15
# (square well, 767 Dirichlet nodes), 3.2e-14 / 4.1e-14 to 2.2e-14 /
# 1.7e-14 (confining, 1536 Neumann) and 2.0e-12 / 4.5e-12 to 4.9e-14 /
# 5.5e-14 (confining, 4096 Dirichlet), and the hard-wall sweep's eps0 and
# gap_delta from 1.5e-13 / 3.7e-13 to 1.6e-15 / 3.9e-15 off the closed-form
# fd box levels.  The last two entries pin a tabulated curve and the
# curvature field on operator grids (1024 and 512 nodes) that do not divide
# the 1000 samples.  Every curve-derived entry (the ks reports, the README
# assemble summary, the perturbed and tabulated curves) was re-frozen when
# build_curve moved from the chord-table cubic and 4th-order differences to
# one spectral pipeline; the counts did not move, and each oracle error
# fell: latitude 0.5 ks k_S 1.2e-6 -> 0, perturbed 0.1/3 ks k_S 8.0e-6 ->
# 3.5e-11 (against the resolved Fourier levels), the README assemble
# predicted_slope 4.7e-6 -> 2.2e-16 (against 1/(4 pi)), the perturbed
# curve's ell 1.6e-7 -> 2.2e-16 and kappa 1.1e-6 -> 1.6e-14, the tabulated
# curve's sup|kappa| 2.1e-2 -> 4.4e-14 and length 4.2e-5 -> 2.2e-13, and
# the perturbed 0.2/5 ks k_S 1.2e-4 -> 4.3e-7 (the 1024-node fd levels' own
# error).  The latitude ks report was re-frozen, with its FROZEN_KS_REPORTS
# entry, when a constant potential took its levels in closed form, certified
# by Weyl's inequality, in place of the block eigensolve: its eigenvalues
# went from 3.6e-12 to 0 off the closed-form fd levels c + symbol(m) on the
# mean c of its own potential (1.1e-16 off those of the exact
# -cot(0.5)^2/4), k_S stayed exactly cot(0.5)/(4 pi) and method_diff 0.0.
# The three ks reports were re-frozen, with FROZEN_KS_REPORTS, when ks took
# its k_S from ks_levels, the route assemble reads, and fd_solver became
# route: the latitude 0.5 report moved from the closed-form fd levels to
# the closed-form Fourier levels (eigenvalues 1.3e-9 -> 1.1e-16 relative
# off the exact -d^2/ds^2 - cot(0.5)^2/4, k_S exactly cot(0.5)/(4 pi)
# before and after), the perturbed 0.1/3 report from the fd blocks to the
# certified Fourier block on its samples (k_S 0.11547277170918983 ->
# 0.11547277171325303, assemble's value; method_diff 3.5e-11 -> 0.0), and
# the perturbed 0.2/5 report on 1000 samples kept every number bit for bit
# (the fd band on 1024 nodes, 4.3e-7 off the Hill's-equation k_S).  The two
# Agmon sweeps and the three threshold summaries were re-frozen when
# lambda_1 and lambda_2 became the ground states of the even and odd halves
# of exactly symmetrized operators, the Agmon weight one table per sweep
# and the tail norms scaled sums: the sweeps' lambda columns moved by at
# most 6.9e-14, eps0 by 3.5e-13 (square well, 2.8203408e-6 -> 2.8203411e-6
# off the transcendental root) and 9.5e-14 (harmonic, 1.37674e-9 ->
# 1.37684e-9 off 1), the agmon_norm column by 6.7e-16 (square well) and
# 1.3e-9 (harmonic) relative, the tail norms by 1.0e-12 relative at most;
# against long-double Sturm bisection the errors of lambda_1 and lambda_2
# went from 5.6e-15 / 8.7e-15 to 7.2e-16 / 3.3e-16 (square well, 767
# Dirichlet nodes), 2.2e-14 / 1.7e-14 to 2.2e-16 / 2.2e-16 (confining, 1536
# Neumann) and 4.9e-14 / 5.5e-14 to 2.0e-15 / 2.2e-15 (confining, 4096
# Dirichlet), and the hard-wall sweep's eps0 and gap_delta from 1.6e-15 /
# 3.9e-15 to 3.0e-16 / 3.3e-16 off the closed-form fd box levels.  The
# README assemble summary was re-frozen when a circle's curvature became
# the exactly rounded mean of its constant kappa table, with no Newton step
# or interpolation: kappa_inf went from 1.0000000000000013 to
# 1.0000000000000002, 1.3e-15 -> 1.6e-16 off cot(0.7853981633974483) =
# 1 + 6.1e-17, and nothing else moved.  The latitude 0.5 ks report and
# FROZEN_KS_REPORTS kept their bytes (k_S 1.7e-16 off cot(0.5) / (4 pi)
# before and after), and so did every count
FROZEN_OUTPUTS = [
    (["counting", "--c", "1.25", "--E-top", "1e-3", "--E-bottom", "1e-8"],
     "counting.csv",
     "5ca89373a10be65e71e6680055339182ccb1a7b95b4ea0d2918ccfa712b9c32d"),
    (README_ASSEMBLE, "assemble_counts.csv",
     "826d81f809bcd774e9586bb7078570e67eb106ab700aa40b66907b63969c8fd5"),
    (["counting", "--c", "2", "--E-top", "1e-3", "--E-bottom", "1e-8",
      "--n-points", "41", "--bc", "neumann"],
     "counting.csv",
     "644dd1b41d3f9c35c1a5d761c1ca96c7e144afbb8d608b8486ef9f49fc2dd5cf"),
    (["threshold", "--family", "square_well", "--depth", "4", "--a", "1",
      "--sweep", "--agmon"],
     "sweep.csv",
     "aa40e0bd6d79324e8f0104db94d0e38ecdf0db29d9368cc7bec6fe82937b6f85"),
    (["threshold", "--family", "confining", "--p", "2", "--h", "0.015625",
      "--sweep", "--agmon"],
     "sweep.csv",
     "0fad50cd030a879c2c1e9701cebfd075e1702d7a0b99330c068dba177860933c"),
    (["threshold", "--family", "square_well", "--depth", "4", "--a", "1",
      "--sweep", "--agmon"],
     "threshold_summary.json",
     "a62b7537e243cd30c065c320a5a55e776c79faade9512e0d0a0c8725a93daa78"),
    (["threshold", "--family", "confining", "--p", "2", "--h", "0.015625",
      "--sweep", "--agmon"],
     "threshold_summary.json",
     "2295123103c2bfa839d8aec15303fd08e703cf35c9d137546a792035fb341e46"),
    (["threshold", "--family", "hard_wall", "--a", "1", "--sweep"],
     "threshold_summary.json",
     "6f2fd711db9fb8f6ec8ada8a1dcf5f8fb89cde89d32aecaa1b627635ba8abd93"),
    (KS_LATITUDE, "ks_report.json",
     "e9cc19da3df315c6ec9a170ab68ee1e0c21e33ff31d97a28702640fedab63d5b"),
    (KS_PERTURBED, "ks_report.json",
     "c2bb95ea92c6916867f91496b9fb1440731ef7533d299493e1cdb3dd5e006c77"),
    (README_ASSEMBLE, "assemble_summary.json",
     "ae9750053f349aa49f60809038f4072c24a9e2fc30b530a0dfdf589fdc1b279d"),
    (["curve", "--preset", "perturbed", "--amplitude", "0.1", "--mode", "3",
      "--n-samples", "4096"],
     "curve_summary.json",
     "319d47226099738656ad90619913447a12c3cdc7c85c9065c4b45054277d0672"),
    (["counting", "--c", "1.25", "--E-top", "1e-3", "--E-bottom", "1e-8"],
     "slope.json",
     "da46a749f1ed7b4f641530c925bdf7f169ec4bc20b0ed440380cfcd1b7915b48"),
    (["curve", "--preset", "perturbed", "--amplitude", "0.1", "--mode", "3",
      "--n-samples", "4096"],
     "curve.csv",
     "dfccd8706fd0fcaa51baeda4af831ba6557b87f6aa0776464d0f5a41aea5a4eb"),
    (fd_route_assemble(*FD_ROUTE_CURVES[0]), "assemble_counts.csv",
     "d1fa1cdbd3b41544ccb45b21723204e146253f4c3b89fff6ce0f232579bcbc87"),
    (fd_route_assemble(*FD_ROUTE_CURVES[1]), "assemble_counts.csv",
     "ef6474deee889df54f0967dbc3b77dd5e4a313a6d40354796772d017b535a925"),
    (["curve", "--preset", "tabulated", "--input", "points.csv",
      "--n-samples", "1000"],
     "curve.csv",
     "af8efe51c461488de9488f6b0190eafda86891478c96d18cba0f724f42d242a0"),
    (["ks", "--preset", "perturbed", "--amplitude", "0.2", "--mode", "5",
      "--n-samples", "1000"],
     "ks_report.json",
     "3861ee637bd63161477992a21147022a00ed5b659cbb43f068bac3b9cc9873b6"),
]


def write_tabulated_points(path, u=None):
    # samples of a perturbed latitude at the parameters u, by default 2400
    # equal steps, uneven in arclength, written at full precision: the
    # input of the frozen tabulated curve
    if u is None:
        u = np.linspace(0.0, 2.0 * math.pi, 2400, endpoint=False)
    st, ct = math.sin(1.0), math.cos(1.0)
    bump = 0.15 * np.sin(4.0 * u)
    p = np.column_stack([(st + bump * ct) * np.cos(u),
                         (st + bump * ct) * np.sin(u), ct - bump * st])
    p /= np.sqrt(np.sum(p * p, axis=1, keepdims=True))
    np.savetxt(path, p, delimiter=",", header="x,y,z", comments="")


@pytest.mark.parametrize("argv, name, digest", FROZEN_OUTPUTS,
                         ids=["readme-counting", "readme-assemble",
                              "neumann-c2", "square-well-sweep",
                              "confining-sweep", "square-well-summary",
                              "confining-summary", "hard-wall-summary",
                              "ks-latitude-report", "ks-perturbed-report",
                              "readme-assemble-summary",
                              "perturbed-curve-summary",
                              "readme-counting-slope",
                              "perturbed-curve-csv",
                              "fd-route-assemble-pi4-0.2-5",
                              "fd-route-assemble-0.5-0.2-3",
                              "tabulated-curve-csv",
                              "ks-perturbed-0.2-5-n1000-report"])
def test_output_bytes_are_frozen(tmp_path, monkeypatch, argv, name, digest):
    monkeypatch.chdir(tmp_path)  # the tabulated input is named relative
    write_tabulated_points("points.csv")
    assert run(argv + ["--out-dir", tmp_path]) == 0
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of canonical_json of those ks reports without method_diff: every
# other field comes from ks_levels alone, so a change to the Fourier
# cross-check may move method_diff and nothing else.  Re-frozen with the
# two reports above each time their levels moved: to the certified low DFT
# fd block, to the spectral curve pipeline, the latitude entry to the
# closed form, and both when ks took ks_levels' k_S in place of the fd
# route's
FROZEN_KS_REPORTS = [
    (KS_LATITUDE,
     "7f7965e9bcb3826a0110e866db1021078331b0d5162d65198423ecebee5b5976"),
    (KS_PERTURBED,
     "de096f78af58132ad1448386ec54f28303d3f12d8b2364bd0be61032b8fae84e"),
]


@pytest.mark.parametrize("argv, digest", FROZEN_KS_REPORTS,
                         ids=["ks-latitude", "ks-perturbed"])
def test_fd_fields_of_ks_report_are_frozen(tmp_path, argv, digest):
    assert run(argv + ["--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "ks_report.json")
    del doc["method_diff"]
    assert sha256_hex(canonical_json(doc)) == digest


SUMMARY = {"curve": "curve_summary.json", "ks": "ks_report.json",
           "threshold": "threshold_summary.json", "counting": "slope.json",
           "assemble": "assemble_summary.json"}

_LAT = "0.7853981633974483"
_SEED0_GRID = ["--E-top", "0.001", "--E-bottom", "1e-08", "--n-points", "41"]

# config_sha256 of the resolved config, as conebound 0.1.0 resolves it, for
# the README examples, every seed-0 op and probe of perfbench/run.py and
# config-file cases; a change to config handling may not move any of them
FROZEN_CONFIGS = {
    "readme-curve": (
        ["curve", "--preset", "latitude", "--theta", _LAT], None,
        "8dd9aac9e9a88a80a5d1f490a6805c92d7116c8cf14160fab164871e11c517be"),
    "readme-ks": (
        ["ks", "--preset", "latitude", "--theta", _LAT], None,
        "91ae9ea576cae1760f266e13c04a1cee9a913f7428918829de0bbc065b085919"),
    "readme-threshold": (
        ["threshold", "--family", "hard_wall", "--a", "1.0", "--sweep"], None,
        "918fcb75fd681ac1f88333974baa5bf391722321709eb3eed100b2d7ca93c061"),
    "readme-counting": (
        ["counting", "--c", "1.25", "--E-top", "1e-3", "--E-bottom", "1e-8"],
        None,
        "0798385b4579f284b372410d77078fc006387562fa880c83920f7a2cb66e4287"),
    "readme-assemble": (
        ["assemble", "--preset", "latitude", "--theta", _LAT, "--family",
         "hard_wall", "--a", "1.0"], None,
        "0d4be7dc40538af427a65cd36e54a969c2857468abf91046225091a18f6dc9b8"),
    "readme-ks-config": (
        ["ks"], {"ks": {"curve": {"preset": "latitude",
                                  "theta": 0.7853981633974483,
                                  "n_samples": 1024}}},
        "91ae9ea576cae1760f266e13c04a1cee9a913f7428918829de0bbc065b085919"),
    "bench-assemble-latitude": (
        ["assemble", "--preset", "latitude", "--theta", _LAT, "--family",
         "hard_wall", "--a", "1.0", "--E-top", "0.001", "--E-bottom", "1e-22",
         "--n-points", "43"], None,
        "0d4be7dc40538af427a65cd36e54a969c2857468abf91046225091a18f6dc9b8"),
    "bench-assemble-equator": (
        ["assemble", "--preset", "latitude", "--theta", "1.5707963267948966",
         "--family", "hard_wall", "--a", "1.0", "--E-top", "0.001",
         "--E-bottom", "1e-22", "--n-points", "43"], None,
        "b319abc4734e4d7b9dbc60d3ef02ed6192d0a37e77cc9ee510750b82dc265a99"),
    "bench-counting-c0.25": (
        ["counting", "--c", "0.25"] + _SEED0_GRID, None,
        "033fd3f905a6bf0d3861dc3a4b8305b02e7d64a3d423bd37119ce5b6626fdc92"),
    "bench-counting-c0.5": (
        ["counting", "--c", "0.5"] + _SEED0_GRID, None,
        "55f879ed3c53ee934e6c6d9d36996d1556cef6b03ae6f82ef5b41a230bbf9c66"),
    "bench-counting-c1.25": (
        ["counting", "--c", "1.25"] + _SEED0_GRID, None,
        "0798385b4579f284b372410d77078fc006387562fa880c83920f7a2cb66e4287"),
    "bench-counting-c2": (
        ["counting", "--c", "2.0"] + _SEED0_GRID, None,
        "6efde95592d9e80310fe9acea496618160ad51e24f4b742a4abdd1174a484419"),
    "bench-counting-neumann": (
        ["counting", "--c", "2.0"] + _SEED0_GRID + ["--bc", "neumann"], None,
        "ed1c13515fdc192d8ddef3505c610ecaa7e0e7d807a50caa3cfe1cef91d45b8f"),
    "bench-probe-c2": (
        ["counting", "--c", "2.0", "--E-top", "0.001", "--E-bottom", "1e-16",
         "--n-points", "40"], None,
        "c9d16469fc1ec8402d4b07a0f2d17b2c0ef752c64b685559ad248faa451a1c6a"),
    "bench-probe-c1.25": (
        ["counting", "--c", "1.25", "--E-top", "0.001", "--E-bottom", "1e-16",
         "--n-points", "40"], None,
        "efd3bb18f4ea2fc13683e5b28e00b9fe6e9621745e6ad58fc2da48a313f1f5aa"),
    "bench-curve-perturbed": (
        ["curve", "--preset", "perturbed", "--amplitude", "0.1", "--mode", "3",
         "--n-samples", "4096"], None,
        "f168b445b8a9957b5731fa5244e74fba13bd74c65fe2d4e73c73d3a2c1851bf8"),
    "bench-ks-latitude": (
        ["ks", "--preset", "latitude", "--theta", "0.5", "--n-samples", "2048",
         "--n-fd", "2048", "--n-fourier", "1024"], None,
        "9b989642af8d4556cc3f9cf8c38af4dd8777cb563787dff038fb4216856b3cbc"),
    "bench-ks-perturbed": (
        ["ks", "--preset", "perturbed", "--amplitude", "0.1", "--mode", "3"],
        None,
        "9cfc1a73a1477b5a7a41472767bbb7574894cf4b16a226e83867d47f2a6f93bc"),
    "bench-threshold-square-well": (
        ["threshold", "--family", "square_well", "--depth", "4", "--a", "1",
         "--sweep", "--agmon"], None,
        "679e04490a84166ab9efced579e9b3697b4d45125d013e981cff9ad18ebaa06e"),
    "bench-threshold-confining": (
        ["threshold", "--family", "confining", "--p", "2", "--h", "0.015625",
         "--sweep", "--agmon"], None,
        "04b037435b9ec1dc52c5dfa8525bd8b81ef8ed84fa5cb3cee7995a9a8712ca32"),
    "bench-threshold-hard-wall": (
        ["threshold", "--family", "hard_wall", "--a", "1", "--sweep"], None,
        "918fcb75fd681ac1f88333974baa5bf391722321709eb3eed100b2d7ca93c061"),
    # the family switch drops the file's square_well parameters
    "config-family-switch": (
        ["threshold", "--family", "hard_wall"],
        {"threshold": {"potential": {"family": "square_well", "depth": 3.0,
                                     "half_width": 0.5}}},
        "b855d0056a4dc59041e19a18b6d2b6d75b32ef68aa45dec4c20947b3ace31bb7"),
    "config-a-over-half-width": (
        ["threshold", "--a", "1.5"],
        {"threshold": {"potential": {"family": "hard_wall",
                                     "half_width": 2.0}}},
        "3fbdbaa029ce43016a1e449ed4af3c0b6d8b2a2f1c6cf14c84b9f02f507921b6"),
    # the potential block is kept as written, so 4 and 4.0 hash differently
    "config-integer-depth": (
        ["threshold"],
        {"threshold": {"potential": {"family": "square_well", "depth": 4,
                                     "half_width": 1}}},
        "dfef84d7bd987ecfddfded5c1c0f581a07363df091198f8a7c7573760a998135"),
    "config-tabulated-curve": (
        ["curve"],
        {"curve": {"preset": "tabulated", "input": "points.csv",
                   "n_samples": 256}},
        "3d263c80672a2660b6e5663e634cbf4fef5353e28df56eda8879d2be608ea1f3"),
    "config-sweep-agmon": (
        ["threshold"],
        {"threshold": {"potential": {"family": "square_well", "depth": 2.5,
                                     "half_width": 1},
                       "L": 10, "n": 2048,
                       "sweep": {"L_min": 4, "L_max": 8, "num": 5},
                       "agmon": {"theta": 0.4, "eta": 0.5}}},
        "c1cf98a5128c883d45a215c13c04b0a82024dcfaec99a69ab96fc6caf7957b6a"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_CONFIGS))
def test_resolved_configs_are_frozen(tmp_path, monkeypatch, case):
    argv, config, digest = FROZEN_CONFIGS[case]
    monkeypatch.chdir(tmp_path)  # tabulated inputs are named relative
    t = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    np.savetxt("points.csv", np.column_stack(
        [math.sin(1.0) * np.cos(t), math.sin(1.0) * np.sin(t),
         np.full(t.size, math.cos(1.0))]), delimiter=",", header="x,y,z",
        comments="")
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    assert run(argv + ["--out-dir", "out"]) == 0
    doc = load(tmp_path / "out" / SUMMARY[argv[0]])
    assert doc["config_sha256"] == sha256_hex(canonical_json(doc["config"]))
    assert doc["config_sha256"] == digest


def test_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["ks", "--preset", "perturbed", "--theta", "0.7854",
                    "--amplitude", "0.05", "--mode", "3",
                    "--out-dir", d]) == 0
    assert (a / "ks_report.json").read_bytes() == \
        (b / "ks_report.json").read_bytes()


@pytest.mark.parametrize("rows", [1, 511, 512, 513])
def test_streamed_csv_is_the_one_shot_join(tmp_path, rows):
    # rows go out in blocks of 512, and each column keeps the format its
    # whole dtype picks: the list column below is float even where its
    # first block holds only integers
    rng = np.random.default_rng(rows)
    wide = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
    mixed = list(range(rows - 1)) + [0.5]
    header = ["x", "N", "m"]
    write_csv(tmp_path / "t.csv", header, [wide, np.arange(rows) - 3, mixed])
    cells = [[repr(v) for v in wide.tolist()],
             [str(v - 3) for v in range(rows)],
             [repr(float(v)) for v in mixed]]
    want = "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"
    assert (tmp_path / "t.csv").read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("argv", [
    KS_PERTURBED,
    ["assemble", "--preset", "perturbed", "--amplitude", "0.1", "--mode", "3",
     "--family", "hard_wall", "--a", "1.0"],
], ids=["ks", "assemble"])
def test_report_does_not_depend_on_blas_threads(tmp_path, argv):
    # both take levels from a dense eigh of the low block: a latitude's
    # constant curvature takes the closed form and solves nothing.  OpenBLAS
    # reads its thread count once, when it loads: one fresh interpreter per
    # count
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-m", "conebound.cli", *argv,
                              "--out-dir", str(tmp_path / threads)],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
    name = SUMMARY[argv[0]]
    assert (tmp_path / "1" / name).read_bytes() == \
        (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("argv", [README_ASSEMBLE, KS_LATITUDE],
                         ids=["readme-assemble", "ks-latitude"])
def test_latitude_runs_solve_no_eigenproblem(tmp_path, monkeypatch, argv):
    # a latitude's constant curvature takes its levels in closed form on
    # every route: no block, dense or fd-basis eigensolve
    from conebound import curvature_operator

    calls = []
    monkeypatch.setattr(curvature_operator, "eigh",
                        lambda *args, **kwargs: calls.append(1))
    assert run(argv + ["--out-dir", tmp_path]) == 0
    assert calls == []


# one run per command; its summary, fed back as --config, must replay it
REPLAYS = {
    "curve": ["curve", "--preset", "perturbed", "--amplitude", "0.05",
              "--n-samples", "512"],
    "ks": ["ks", "--preset", "latitude", "--theta", "1.0472"],
    "threshold": ["threshold", "--family", "square_well", "--depth", "3",
                  "--a", "1", "--n", "1024", "--sweep", "--agmon",
                  "--L-min", "4", "--L-max", "8", "--L-num", "5"],
    "counting": ["counting", "--c", "2", "--E-bottom", "1e-7",
                 "--n-points", "11", "--bc", "neumann"],
    "assemble": ["assemble", "--preset", "latitude", "--theta", "0.7854",
                 "--family", "hard_wall", "--a", "1", "--E-bottom", "1e-10",
                 "--n-points", "15", "--R-fixed", "50"],
}


@pytest.mark.parametrize("command", sorted(REPLAYS))
def test_embedded_config_reruns_identically(tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(REPLAYS[command] + ["--out-dir", first]) == 0
    # the summary embeds the fully resolved inputs; passing the summary file
    # itself back must reproduce every data file byte for byte
    assert run([command, "--config", first / SUMMARY[command],
                "--out-dir", second]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        if name != "run_meta.json":
            assert (first / name).read_bytes() == (second / name).read_bytes()


def test_summary_of_another_command_is_a_config_error(tmp_path, capsys):
    assert run(REPLAYS["curve"] + ["--out-dir", tmp_path]) == 0
    code = run(["ks", "--config", tmp_path / "curve_summary.json",
                "--out-dir", tmp_path / "ks"])
    assert code == 2
    assert "not a summary of a 'ks' run" in capsys.readouterr().err


def test_threads_flag_is_gone(tmp_path, capsys):
    # sweeps run serially; the old thread-count flag is an argparse error
    with pytest.raises(SystemExit) as exc:
        run(["counting", "--threads", "2", "--out-dir", tmp_path])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_malformed_config_names_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"curve": {"preset" "latitude"}}')
    code = run(["curve", "--config", bad, "--out-dir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert "byte offset" in err
    assert "bad.json" in err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"curve": {"preset": "latitude",
                                         "bogus_knob": 1}}))
    code = run(["curve", "--config", cfg, "--out-dir", tmp_path])
    assert code == 2
    assert "curve.bogus_knob" in capsys.readouterr().err


# values of the wrong type; each used to die in a traceback (exit 1) or, for
# n_samples 1.9, to be truncated to 1
BAD_CONFIGS = {
    "theta-string": ({"curve": {"theta": "abc"}}, "curve.theta"),
    "c-list": ({"counting": {"c": [1]}}, "counting.c"),
    "preset-list": ({"curve": {"preset": ["latitude"]}}, "curve.preset"),
    "depth-string": ({"threshold": {"potential": {
        "family": "square_well", "depth": "deep"}}},
        "threshold.potential: depth"),
    "n-samples-fraction": ({"curve": {"n_samples": 1.9}}, "curve.n_samples"),
    "ks-curve-mode": ({"ks": {"curve": {"mode": "three"}}}, "ks.curve.mode"),
    "sweep-num-fraction": ({"threshold": {"sweep": {"num": 5.5}}},
                           "threshold.sweep.num"),
    "potential-string": ({"assemble": {"potential": "hard_wall"}},
                         "assemble.potential"),
    "table-string": ({"threshold": {"potential": {
        "family": "tabulated", "x": "abc", "v": [1.0]}}},
        "threshold.potential: x"),
    # the removed thread-count key is now an unknown key
    "threads-key": ({"threads": 2, "counting": {}}, "config.threads"),
    # each of these ran: a boolean as the number 1 (n_points then exited 4),
    # "false" as a true switch, and a choice the flag refuses to exit 4
    "c-bool": ({"counting": {"c": True}}, "counting.c"),
    "n-points-bool": ({"counting": {"n_points": True}}, "counting.n_points"),
    "depth-bool": ({"threshold": {"potential": {
        "family": "square_well", "depth": True}}},
        "threshold.potential: depth"),
    "table-bool": ({"threshold": {"potential": {
        "family": "tabulated", "x": [0.0, 1.0, False], "v": [1.0, 2.0, 3.0]}}},
        "threshold.potential: x"),
    "verbose-string": ({"verbose": "false", "counting": {}},
                       "config.verbose"),
    "bc-robin": ({"counting": {"bc": "robin"}}, "counting.bc"),
    # a list for a path used to be read as the file "['x']"
    "input-list": ({"curve": {"preset": "tabulated", "input": ["x"]}},
                   "curve.input"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_mistyped_config_values_are_config_errors(tmp_path, capsys, case):
    config, key = BAD_CONFIGS[case]
    command = next(name for name in SUMMARY if name in config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg, "--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def test_integral_float_counts_are_accepted(tmp_path):
    # 1024.0 is the integer 1024: same resolved config, same hash
    for d, n in ((tmp_path / "a", 1024), (tmp_path / "b", 1024.0)):
        d.mkdir()
        (d / "cfg.json").write_text(json.dumps({"curve": {"n_samples": n}}))
        assert run(["curve", "--config", d / "cfg.json", "--out-dir", d]) == 0
    assert (tmp_path / "a" / "curve_summary.json").read_bytes() == \
        (tmp_path / "b" / "curve_summary.json").read_bytes()


def test_invalid_theta_is_a_precondition_error(tmp_path, capsys):
    code = run(["curve", "--preset", "latitude", "--theta", "9.9",
                "--out-dir", tmp_path])
    assert code == 4
    assert "polar angle" in capsys.readouterr().err


def test_oversized_k_is_a_precondition_error(tmp_path, capsys):
    code = run(["ks", "--preset", "latitude", "--theta", "0.7",
                "--n-fourier", "128", "--k", "200", "--out-dir", tmp_path])
    assert code == 4
    assert "basis size" in capsys.readouterr().err


def test_unallocatable_fourier_matrix_is_a_precondition_error(
        tmp_path, monkeypatch, capsys):
    # stands in for numpy's "Unable to allocate 74.5 GiB" at this size
    from conebound import curvature_operator

    real = curvature_operator._real_fourier_matrix

    def no_memory(q, *args):
        # only the --n-fourier grid; the fd grids' blocks still solve
        if q.shape[0] == 100000:
            raise MemoryError("Unable to allocate 74.5 GiB")
        return real(q, *args)

    monkeypatch.setattr(curvature_operator, "_real_fourier_matrix", no_memory)
    # a non-constant curvature, which the closed form of a latitude's
    # constant one would answer with no matrix
    code = run(["ks", "--preset", "perturbed", "--amplitude", "0.1",
                "--mode", "3", "--n-fourier", "100000", "--out-dir", tmp_path])
    assert code == 4
    assert "dense 100001 x 100001 matrix" in capsys.readouterr().err


_ASSEMBLE = ["assemble", "--preset", "latitude", "--theta", "0.7854",
             "--family", "hard_wall", "--a", "1"]


# each of these used to exit 0 with slope 0 or die in a traceback
BAD_COUNTING_INPUTS = [
    (["counting", "--c", "nan"], "finite c"),
    (["counting", "--c", "inf"], "finite c"),
    (["counting", "--rho0", "nan"], "rho0"),
    (["counting", "--rho0", "inf"], "rho0"),
    (["counting", "--scale", "nan"], "scale"),
    (["counting", "--scale", "inf"], "scale"),
    (["counting", "--c", "1e300"], "c = 1e+300"),
    (["counting", "--E-top", "0"], "strictly positive"),
    (["counting", "--E-top", "nan"], "strictly positive"),
    (["counting", "--E-bottom", "-0.5"], "strictly positive"),
    (_ASSEMBLE + ["--E-top", "-0.001"], "strictly positive"),
    (_ASSEMBLE + ["--E-bottom", "0"], "strictly positive"),
    (_ASSEMBLE + ["--K-delta", "nan"], "matching radius"),
    (_ASSEMBLE + ["--K-delta", "inf"], "matching radius"),
    (_ASSEMBLE + ["--R-fixed", "inf"], "matching radius"),
    (_ASSEMBLE + ["--C-knob", "nan"], "finite C_knob"),
    (_ASSEMBLE + ["--C-knob", "inf"], "finite C_knob"),
    (_ASSEMBLE + ["--eps-knob", "nan"], "finite eps_knob"),
    (_ASSEMBLE + ["--eps-knob", "inf"], "finite eps_knob"),
    (_ASSEMBLE + ["--n-modes", "-11"], "n_modes >= 1"),
    (_ASSEMBLE + ["--n-modes", "0"], "n_modes >= 1"),
    # delta kappa_inf = 1.29 >= 1
    (["assemble", "--preset", "latitude", "--theta", "0.3", "--family",
      "hard_wall", "--a", "1", "--delta", "0.4"], "tube map degenerates"),
    # transverse grids numpy refuses to size, before allocating anything
    (["assemble", "--K-delta", "1e300"], "cannot allocate a grid"),
    (["assemble", "--R-fixed", "1e300"], "cannot allocate a grid"),
    # energy grids that np.logspace refused (exit 1) or that ascend, which
    # fit_log_slope or the channel shifts reported with misleading messages
    (["counting", "--n-points", "-5"], "n_points = -5"),
    (_ASSEMBLE + ["--n-points", "-5"], "n_points = -5"),
    (_ASSEMBLE + ["--E-top", "1e-22", "--E-bottom", "1e-3"],
     "strictly decreasing"),
    (["assemble", "--E-bottom", "1e-3", "--E-top", "1e-22"],
     "strictly decreasing"),
    # every shift mu at or above every retained c: these exited 0 with
    # "fitted slope = 0"
    (_ASSEMBLE + ["--K-delta", "1e150"], "no level counts"),
    (_ASSEMBLE + ["--R-fixed", "1e150"], "no level counts"),
    (["assemble", "--R-fixed", "1e-20"], "no level counts"),
    # a transverse spacing whose 2/h^2 is not finite (ZeroDivisionError)
    (["assemble", "--R-fixed", "1e-300"], "too fine"),
]


@pytest.mark.parametrize("argv, needle", BAD_COUNTING_INPUTS,
                         ids=[f"{a[0]} {a[-2]} {a[-1]}"
                              for a, _ in BAD_COUNTING_INPUTS])
def test_bad_counting_inputs_are_precondition_errors(tmp_path, capsys, argv,
                                                     needle):
    assert run(argv + ["--out-dir", tmp_path]) == 4
    assert needle in capsys.readouterr().err


# these used to die in OverflowError (h = 0) or ValueError (h = nan)
@pytest.mark.parametrize("h", ["0", "-0.03125", "nan", "inf"])
def test_bad_sweep_spacing_is_a_precondition_error(tmp_path, capsys, h):
    assert run(["threshold", "--sweep", "--h", h, "--out-dir", tmp_path]) == 4
    assert "spacing h" in capsys.readouterr().err


# non-finite sweep lengths, curve amplitudes and family parameters, and
# Agmon inputs that are NaN or, for eta, not positive; each used to die in
# a ValueError traceback (exit 1) or to exit 0 with NaN or wrong numbers
BAD_REAL_INPUTS = [
    (["threshold", "--sweep", "--L-min", "nan"], "sweep lengths"),
    (["threshold", "--sweep", "--L-max", "inf"], "sweep lengths"),
    (["threshold", "--agmon", "--agmon-R", "nan"], "Agmon radius"),
    (["threshold", "--agmon", "--agmon-R", "inf"], "Agmon radius"),
    (["threshold", "--L", "inf"], "finite b > a"),
    (["threshold", "--agmon", "--eta", "0"], "eta"),
    (["threshold", "--agmon", "--eta", "-1"], "eta"),
    (["threshold", "--agmon", "--eta", "nan"], "eta"),
    (["threshold", "--family", "hard_wall", "--a", "inf"], "finite"),
    (["curve", "--preset", "perturbed", "--amplitude", "nan"], "amplitude"),
    (["curve", "--preset", "perturbed", "--amplitude", "inf"], "amplitude"),
    # bounds and sizes that np.logspace and np.linspace warned about or
    # refused (exit 1)
    (["counting", "--E-top", "inf"], "E_top = inf"),
    (["assemble", "--E-bottom", "inf"], "E_bottom = inf"),
    (["threshold", "--sweep", "--L-num", "-1"], "L_num = -1"),
    # hard_wall levels and shifts that overflow: R * R warned and exited 0
    # with slope 0, the levels of a 1e-302 wide box and the eps0 of a
    # 1e-200 wide wall raised OverflowError (exit 1)
    (_ASSEMBLE + ["--K-delta", "1e290"], "not all finite"),
    (_ASSEMBLE + ["--R-fixed", "1e-300"], "levels overflow"),
    (_ASSEMBLE + ["--a", "1e-200"], "levels overflow"),
    # pi / (2 a) is inf here without an OverflowError; an inf eps0 would
    # pass eps0 < v_inf = inf
    (["threshold", "--family", "hard_wall", "--a", "5e-324"],
     "levels overflow"),
    # Agmon tail windows with no grid node fitted log(0) and exited 0 with
    # a NaN tail fit: the hard wall's box ends inside every window, and
    # eta = 0.001 is below h / 2
    (["threshold", "--family", "hard_wall", "--a", "1", "--sweep",
      "--agmon"], "holds no node"),
    (["threshold", "--sweep", "--agmon", "--eta", "0.001"], "eta = 0.001"),
    # |x|^400 overflowed at x = 12 and exited 4 naming neither p nor L
    (["threshold", "--family", "confining", "--p", "400"],
     "p = 400 overflows at the truncation half width L = 12"),
    # sweep lengths shorter than 16 nodes were reported as an n never set
    (["threshold", "--family", "confining", "--sweep", "--L-min", "1e-3",
      "--L-max", "2e-3"], "at L = 0.001, holds fewer than 16 nodes"),
    (["threshold", "--sweep", "--h", "0.5"],
     "at L = 4, holds fewer than 16 nodes at spacing h = 0.5"),
    # 2 L / h overflowed and int() raised OverflowError (exit 1), at every
    # length for a subnormal h and at the longest one only for h = 5e-308
    (["threshold", "--sweep", "--h", "5e-324"],
     "spacing h = 5e-324 makes the node count 2 L / h at L = 14 overflow"),
    (["threshold", "--sweep", "--h", "5e-308"],
     "spacing h = 5e-308 makes the node count 2 L / h at L = 14 overflow"),
    # np.linspace asked for an 8 GB grid of lengths h / 2 cannot separate;
    # equal ends exited 0 with both rate fits flagged NaN
    (["threshold", "--sweep", "--L-num", "1000000000"],
     "L_num = 1000000000 lengths on [4, 14] are more than spacing h"),
    (["threshold", "--sweep", "--L-min", "8", "--L-max", "8"],
     "(at most 1, h / 2 apart)"),
    # the default sweep to L = 14 stopped here at L = 13 while e^(2 theta
    # Phi) was formed alone; with one exponent, the computed tail stalls
    # (2.27e-252 at |x| = 18.4, where Phi = 2068) and the product's
    # exponent reaches 909 at L = 18.4
    (["threshold", "--sweep", "--agmon", "--family", "confining",
      "--L-max", "20", "--p", "4"],
     "Agmon-weighted norm at L = 18.4, theta = 0.5 is not finite"),
]


@pytest.mark.parametrize("argv, needle", BAD_REAL_INPUTS,
                         ids=[" ".join(a[-2:]) for a, _ in BAD_REAL_INPUTS])
def test_bad_real_inputs_are_precondition_errors(tmp_path, capsys, argv,
                                                 needle):
    # the input is rejected before any arithmetic warns about it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv + ["--out-dir", tmp_path]) == 4
    assert needle in capsys.readouterr().err


def test_confining_sweep_tails_follow_the_long_double_ground_states(
        tmp_path):
    # LAPACK stein's ground states sat at a floor near 5e-52, and a sweep
    # to L = 12 exited 4 at L = 10.4 (5.93e-52, not below 4.46e-52 at
    # L = 9.6); before that check it exited 0 with bound_estimate 5.9e149.
    # e^(2 theta Phi) alone overflows at L = 13, and this default sweep to
    # L = 14 exited 4 there until the weighted integrand became one
    # exponent; its weighted norms now agree to 12 digits.  The
    # parity-sector vectors follow the ground state down to 2.7e-209 at
    # L = 13, where an unscaled sum of squares underflows to 0, and the
    # tail norms match the long-double oracle's to L = 13, once the oracle
    # takes the 24 steps it needs there.  At L = 14 the tail norm reads
    # 2.37e-254 against the converged oracle's 1.36e-254
    from conebound import PotentialSpec, threshold
    from _oracles import longdouble_ground_vector

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["threshold", "--sweep", "--agmon", "--family",
                    "confining", "--p", "4", "--out-dir", tmp_path]) == 0
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    spec, h = PotentialSpec(family="confining", p=4.0), 1.0 / 32.0
    assert rows[:, 0].tolist() == [4.0 + L for L in range(11)]
    for L, tail in rows[:-1][:, [0, -1]]:
        op = threshold._interval_op(spec, L, int(round(2.0 * L / h)),
                                    "neumann")
        phi = longdouble_ground_vector(op.diag, op.offdiag, steps=24)
        window = phi[np.abs(op.grid.nodes()) > L - 1.0]
        want = np.sqrt(np.sum(window * window))  # h cancels: phi is unit
        assert abs(tail / want - 1.0) < 1e-12, L
    assert rows[-2, -1] < 1e-208
    assert rows[-1, -1] < rows[-2, -1]
    np.testing.assert_allclose(rows[:, -2], 1.00012428612373, rtol=1e-12)


def test_tube_guard_allows_delta_kappa_just_below_one(tmp_path):
    # theta = 0.05 at the default delta gives delta kappa_inf = 0.999
    assert run(["assemble", "--preset", "latitude", "--theta", "0.05",
                "--family", "hard_wall", "--a", "1", "--E-bottom", "1e-8",
                "--n-points", "12", "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "assemble_summary.json")
    assert 0.99 < 0.05 * doc["params"]["kappa_inf"] < 1.0


def test_grid_out_of_memory_is_a_precondition_error(tmp_path, capsys,
                                                    monkeypatch):
    # a real attempt would ask for 745 GiB, so the allocation failure is
    # faked for node arrays that large
    arange = np.arange

    def fake(n, *args, **kwargs):
        if isinstance(n, int) and n >= 10**10:
            raise MemoryError(f"Unable to allocate {8 * n} bytes")
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", fake)
    assert run(["threshold", "--n", "100000000000",
                "--out-dir", tmp_path]) == 4
    assert "grid of n = 1e+11 nodes" in capsys.readouterr().err


def test_curve_out_of_memory_is_a_precondition_error(tmp_path, capsys,
                                                     monkeypatch):
    # the dense resampling table would take 5.8 TiB; its allocation failure
    # is faked, as in the grid test above
    linspace = np.linspace

    def fake(start, stop, num=50, *args, **kwargs):
        if num >= 10**10:
            raise MemoryError(f"Unable to allocate {8 * num} bytes")
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", fake)
    assert run(["curve", "--n-samples", "100000000000",
                "--out-dir", tmp_path]) == 4
    assert "n_samples = 1e+11" in capsys.readouterr().err


def test_agmon_sweep_solves_each_neumann_operator_once(tmp_path,
                                                       monkeypatch):
    # the summary's compute_threshold makes 2 solves and the 11-length
    # sweep 2 per length; the Agmon norms weigh the sweep's own Neumann
    # ground states against its own eps0 and solve nothing (they used to
    # run a second compute_threshold for that eps0: 26 calls, 13 Neumann)
    from conebound import spectral1d
    calls = []
    solve = spectral1d.lowest_eigenvalues

    def counted(*args, **kwargs):
        calls.append(args[0].grid.kind)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral1d, "lowest_eigenvalues", counted)
    assert run(["threshold", "--family", "square_well", "--depth", "4",
                "--a", "1", "--sweep", "--agmon", "--out-dir", tmp_path]) == 0
    assert len(calls) == 24
    assert calls.count("neumann") == 12


# missing or unreadable files; each used to die in a traceback (exit 1)
UNREADABLE_FILES = [
    (["curve", "--config", "nope.json"], "nope.json"),
    (["curve", "--config", "."], "Is a directory"),
    (["curve", "--preset", "tabulated", "--input", "nope.csv"], "nope.csv"),
    (["curve", "--preset", "tabulated", "--input", "."], "Is a directory"),
]


@pytest.mark.parametrize("argv, needle", UNREADABLE_FILES,
                         ids=[" ".join(a[1:]) for a, _ in UNREADABLE_FILES])
def test_unreadable_files_are_config_errors(tmp_path, monkeypatch, capsys,
                                            argv, needle):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out-dir", "out"]) == 2
    assert needle in capsys.readouterr().err


_CSV = ["curve", "--preset", "tabulated", "--input"]
_POT = ["threshold", "--config"]


def _table(**arrays):
    return json.dumps({"threshold": {"potential": {
        "family": "tabulated", "x": [-1.0, 0.0, 1.0], "v": [0.0, -1.0, 0.0],
        **arrays}}})


# a curve CSV with a bad row or a tabulated potential of the wrong shape;
# the short row, the length mismatch and the 2-D table used to die in
# IndexError or ValueError tracebacks (exit 1)
BAD_INPUT_FILES = {
    "curve-short-row": (_CSV, "x,y,z\n1,0,0\n1,2\n", "line 3"),
    "curve-non-numeric": (_CSV, "s,x,y,z\n0,1,0,0\n1,0,1,zero\n", "line 3"),
    # a NaN coordinate passed the sphere check and died in the resampler
    "curve-nan-point": (_CSV, "x,y,z\n1,0,0\nnan,1,0\n0,1,0\n-1,0,0\n"
                        "0,-1,0\n0.6,-0.8,0\n0.8,0.6,0\n-0.6,0.8,0\n",
                        "unit sphere"),
    "table-lengths": (_POT, _table(v=[1.0, 2.0]), "equal length"),
    "table-2d": (_POT, _table(x=[[0.0, 1.0]], v=[[1.0, 2.0]]), "1-D"),
    "table-one-point": (_POT, _table(x=[0.0], v=[-1.0]), ">= 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_FILES))
def test_bad_input_files_are_precondition_errors(tmp_path, capsys, case):
    argv, text, needle = BAD_INPUT_FILES[case]
    (tmp_path / "input").write_text(text)
    assert run(argv + [tmp_path / "input", "--out-dir", tmp_path]) == 4
    assert needle in capsys.readouterr().err


def _tabulated_threshold(tmp_path, x, v):
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps({"threshold": {"potential": {
        "family": "tabulated", "x": list(x), "v": list(v)}}}))
    return run(["threshold", "--config", cfg, "--out-dir", tmp_path])


def test_uncertifiable_gap_is_a_convergence_error(tmp_path, capsys):
    x = np.linspace(-12.0, 12.0, 4001)
    v = -8.0 * (np.exp(-2.0 * (x - 5.0) ** 2) + np.exp(-2.0 * (x + 5.0) ** 2))
    assert _tabulated_threshold(tmp_path, x, v) == 3
    assert "gap" in capsys.readouterr().err
    # two depth-4 square wells of half width 1 at +-4: the tunnelling split
    # of the lowest pair lies far below the Richardson resolution
    x = np.linspace(-12.0, 12.0, 2401)
    v = np.where(np.abs(np.abs(x) - 4.0) < 1.0, -4.0, 0.0)
    assert _tabulated_threshold(tmp_path, x, v) == 3
    assert "spectral gap 3.928e-05 below resolution 6.993e-04" in \
        capsys.readouterr().err


def test_well_above_the_far_tail_is_a_precondition_error(tmp_path, capsys):
    # the table falls to -10 beyond |x| = 16, outside the truncation
    # L = 12, so the truncated well's level -2.87 binds nothing
    x = np.linspace(-20.0, 20.0, 401)
    v = np.select([np.abs(x) < 1.0, np.abs(x) < 16.0], [-4.0, 0.0], -10.0)
    assert _tabulated_threshold(tmp_path, x, v) == 4
    assert "eps0 = -2.86727 does not lie below v_inf = -10" in \
        capsys.readouterr().err


def test_assemble_small_run(tmp_path):
    assert run(["assemble", "--preset", "latitude", "--theta", "0.7854",
                "--family", "hard_wall", "--a", "1", "--E-top", "1e-3",
                "--E-bottom", "1e-10", "--n-points", "15",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "assemble_summary.json")
    assert doc["predicted_slope"] == pytest.approx(1.0 / (4.0 * math.pi),
                                                   rel=1e-3)
    assert doc["params"]["eps0"] == pytest.approx(math.pi**2 / 4.0)
    assert len(doc["modes"]) == 1
    rows = (tmp_path / "assemble_counts.csv").read_text().splitlines()
    assert rows[0] == "E,lnE_abs,N"
    assert len(rows) == 16


@pytest.mark.parametrize("theta, mode", FD_ROUTE_CURVES,
                         ids=["pi4-0.2-5", "0.5-0.2-3"])
def test_uncertified_assemble_takes_the_fd_levels(tmp_path, theta, mode):
    # the low block fails its certificate on these curves: assemble reads
    # the fd levels and k_S of ks_levels, bit for bit, and not the dense
    # Fourier solve
    from conebound import CurveSpec, build_curve
    from conebound.curvature_operator import ks_levels

    assert run(fd_route_assemble(theta, mode) + ["--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "assemble_summary.json")
    assert doc["params"]["ks_route"] == "fd"
    curve = build_curve(CurveSpec(kind="perturbed_latitude", theta=theta,
                                  amplitude=0.2, mode=mode), 1024)
    fd = ks_levels(curve, 12)
    assert fd.route == "fd"
    assert doc["predicted_slope"] == fd.k_S
    assert doc["modes"]
    for m, lam, _ in doc["modes"]:
        assert lam == fd.eigenvalues[m]


@pytest.mark.parametrize("theta, mode", FD_ROUTE_CURVES,
                         ids=["pi4-0.2-5", "0.5-0.2-3"])
def test_uncertified_assemble_makes_one_block_solve(monkeypatch, theta, mode):
    # the Fourier block fails on these samples; no fd block is tried on them
    from conebound import CurveSpec, PotentialSpec, build_curve
    from conebound import curvature_operator
    from conebound.counting import assemble_model

    curve = build_curve(CurveSpec(kind="perturbed_latitude", theta=theta,
                                  amplitude=0.2, mode=mode), 1024)
    rows, real_eigh = [], curvature_operator.eigh

    def eigh(a, *args, **kwargs):
        rows.append(len(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(curvature_operator, "eigh", eigh)
    model = assemble_model(curve, PotentialSpec(family="hard_wall",
                                                half_width=1.0),
                           E_grid=np.logspace(-3, -8, 10))
    assert rows == [129]
    assert model.params["ks_route"] == "fd"


@pytest.mark.parametrize("curve", [
    ["--preset", "latitude"],
    ["--preset", "perturbed", "--amplitude", "0.1", "--mode", "3"],
    ["--preset", "perturbed", "--amplitude", "0.2", "--mode", "5"],
], ids=["latitude-pi4", "perturbed-0.1-3", "perturbed-0.2-5"])
def test_ks_and_assemble_report_one_k_S(tmp_path, curve):
    # both read ks_levels: the closed form, the certified Fourier block on
    # the curve's samples, and (0.2/5) the fd band, with the same bits
    assert run(["ks", *curve, "--out-dir", tmp_path / "ks"]) == 0
    assert run(["assemble", *curve, "--family", "hard_wall", "--a", "1.0",
                "--out-dir", tmp_path / "assemble"]) == 0
    ks = load(tmp_path / "ks" / "ks_report.json")
    summary = load(tmp_path / "assemble" / "assemble_summary.json")
    assert ks["k_S"] == summary["predicted_slope"]
    assert ks["route"] == summary["params"]["ks_route"]


# a curve with 16 negative levels, 4 more than assemble's default 12 modes
MANY_LEVELS = ["--preset", "perturbed", "--theta", "0.7853981633974483",
               "--amplitude", "0.3", "--mode", "8", "--n-samples", "4096"]


def test_too_few_levels_for_k_S_exit_4(tmp_path, capsys):
    # they used to report the k_S of the levels computed: 1.04995 for ks
    # --k 3 (3 of 5 negative levels), 15.87 for assemble (12 of 16).  The
    # 16 levels come from the 1024-node fd band, whose own error on this
    # sharply bent curve (sup|kappa| = 76) is 1.1e-3 of the resolved
    # 18.0752; the slope no longer moves with --n-samples
    code = run(["ks", "--preset", "perturbed", "--amplitude", "0.2",
                "--mode", "5", "--k", "3", "--out-dir", tmp_path / "ks"])
    assert code == 4
    assert "raise --k" in capsys.readouterr().err
    assemble = ["assemble", *MANY_LEVELS, "--family", "hard_wall", "--a",
                "1.0", "--delta", "0.01"]
    assert run(assemble + ["--out-dir", tmp_path / "a"]) == 4
    assert "--n-modes" in capsys.readouterr().err
    assert run(assemble + ["--n-modes", "17", "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "assemble_summary.json")
    assert len(doc["modes"]) == 16
    assert doc["predicted_slope"] == pytest.approx(18.0546, rel=1e-5)


@pytest.mark.parametrize("args", [["--a", "20"], ["--a", "1", "--L", "0.5"],
                                  ["--a", "1", "--sweep", "--L-min", "0.5"]],
                         ids=["a-20", "L-0.5", "sweep-L-0.5"])
def test_hard_wall_wider_than_truncation_exits_4(tmp_path, capsys, args):
    # the box used to be clamped to (-L, L): --a 20 reported
    # pi^2 / (4 * 12^2), the default L = 12, in place of pi^2 / (4 * 20^2)
    code = run(["threshold", "--family", "hard_wall", *args,
                "--out-dir", tmp_path])
    assert code == 4
    assert "need L >= a" in capsys.readouterr().err


def test_assemble_reads_a_hard_wall_wider_than_the_truncation(tmp_path):
    # threshold refuses a = 20 > L = 12; assemble reads the box level
    # itself, at any width
    assert run(["assemble", "--family", "hard_wall", "--a", "20", "--delta",
                "0.2", "--out-dir", tmp_path]) == 0
    eps0 = load(tmp_path / "assemble_summary.json")["params"]["eps0"]
    assert eps0 == (math.pi / 40.0) ** 2


def test_hard_wall_inside_truncation_is_the_box(tmp_path):
    assert run(["threshold", "--family", "hard_wall", "--a", "20", "--L",
                "20", "--out-dir", tmp_path]) == 0
    eps0 = load(tmp_path / "threshold_summary.json")["eps0"]
    assert eps0 == pytest.approx(math.pi ** 2 / (4.0 * 20.0 ** 2), rel=1e-6)


def test_run_meta_segregates_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["curve", "--preset", "latitude", "--theta", "0.7854",
                    "--out-dir", d]) == 0
    # data identical even though the metadata timestamps differ
    assert (a / "curve_summary.json").read_bytes() == \
        (b / "curve_summary.json").read_bytes()
    ma, mb = load(a / "run_meta.json"), load(b / "run_meta.json")
    assert ma["config_sha256"] == mb["config_sha256"]
