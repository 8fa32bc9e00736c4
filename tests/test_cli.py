"""End-to-end runs of the conebound command line."""

import hashlib
import json
import math

import numpy as np
import pytest

from conebound import cli
from conebound._serial import canonical_json, sha256_hex


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
    assert set(meta) == {"command", "config_sha256", "threads",
                         "timestamp_utc", "versions"}
    assert meta["command"] == "curve"


def test_curve_equator_example(tmp_path):
    assert run(["curve", "--preset", "latitude", "--theta", "1.5708",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "curve_summary.json")
    assert abs(doc["kappa_inf"]) < 1e-4
    assert doc["ell"] == pytest.approx(2.0 * math.pi, rel=1e-4)


def test_ks_example(tmp_path):
    assert run(["ks", "--preset", "latitude", "--theta", "0.7854",
                "--out-dir", tmp_path]) == 0
    doc = load(tmp_path / "ks_report.json")
    assert doc["k_S"] == pytest.approx(0.0796, abs=2e-4)
    assert doc["k_S"] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-3)
    assert set(doc) == {"config", "config_sha256", "ell", "eigenvalues",
                        "negative_part", "k_S", "k_S_uncertainty",
                        "method_diff"}
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


# sha256 of the data files that conebound 0.1.0 writes for the README
# counting and assemble examples and for Neumann c = 2 on the README grid;
# a counting method may change, these bytes may not
FROZEN_OUTPUTS = [
    (["counting", "--c", "1.25", "--E-top", "1e-3", "--E-bottom", "1e-8"],
     "counting.csv",
     "5ca89373a10be65e71e6680055339182ccb1a7b95b4ea0d2918ccfa712b9c32d"),
    (["assemble", "--preset", "latitude", "--theta", "0.7853981633974483",
      "--family", "hard_wall", "--a", "1.0"],
     "assemble_counts.csv",
     "826d81f809bcd774e9586bb7078570e67eb106ab700aa40b66907b63969c8fd5"),
    (["counting", "--c", "2", "--E-top", "1e-3", "--E-bottom", "1e-8",
      "--n-points", "41", "--bc", "neumann"],
     "counting.csv",
     "644dd1b41d3f9c35c1a5d761c1ca96c7e144afbb8d608b8486ef9f49fc2dd5cf"),
]


@pytest.mark.parametrize("argv, name, digest", FROZEN_OUTPUTS,
                         ids=["readme-counting", "readme-assemble",
                              "neumann-c2"])
def test_output_bytes_are_frozen(tmp_path, argv, name, digest):
    assert run(argv + ["--out-dir", tmp_path]) == 0
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["ks", "--preset", "perturbed", "--theta", "0.7854",
                    "--amplitude", "0.05", "--mode", "3",
                    "--out-dir", d]) == 0
    assert (a / "ks_report.json").read_bytes() == \
        (b / "ks_report.json").read_bytes()


def test_embedded_config_reruns_identically(tmp_path):
    first = tmp_path / "first"
    assert run(["ks", "--preset", "latitude", "--theta", "1.0472",
                "--out-dir", first]) == 0
    doc = load(first / "ks_report.json")
    # the embedded config names the fully resolved inputs; feeding it back
    # must reproduce the run byte for byte
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps({"ks": doc["config"]["ks"]}))
    second = tmp_path / "second"
    assert run(["ks", "--config", cfg_path, "--out-dir", second]) == 0
    assert (first / "ks_report.json").read_bytes() == \
        (second / "ks_report.json").read_bytes()


def test_threads_do_not_change_results(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, threads in ((a, "1"), (b, "4")):
        assert run(["counting", "--c", "2", "--E-top", "1e-3",
                    "--E-bottom", "1e-7", "--n-points", "11",
                    "--threads", threads, "--out-dir", d]) == 0
    assert (a / "counting.csv").read_bytes() == (b / "counting.csv").read_bytes()
    assert (a / "slope.json").read_bytes() == (b / "slope.json").read_bytes()


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
]


@pytest.mark.parametrize("argv, needle", BAD_COUNTING_INPUTS,
                         ids=[f"{a[0]} {a[-2]} {a[-1]}"
                              for a, _ in BAD_COUNTING_INPUTS])
def test_bad_counting_inputs_are_precondition_errors(tmp_path, capsys, argv,
                                                     needle):
    assert run(argv + ["--out-dir", tmp_path]) == 4
    assert needle in capsys.readouterr().err


def test_uncertifiable_gap_is_a_convergence_error(tmp_path, capsys):
    x = np.linspace(-12.0, 12.0, 4001)
    v = -8.0 * (np.exp(-2.0 * (x - 5.0) ** 2) + np.exp(-2.0 * (x + 5.0) ** 2))
    cfg = tmp_path / "dwell.json"
    cfg.write_text(json.dumps({"threshold": {"potential": {
        "family": "tabulated", "x": list(x), "v": list(v)}}}))
    code = run(["threshold", "--config", cfg, "--out-dir", tmp_path])
    assert code == 3
    assert "gap" in capsys.readouterr().err


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
