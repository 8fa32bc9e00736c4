"""End-to-end runs of the conebound command line."""

import hashlib
import json
import math
import warnings

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
    assert set(meta) == {"command", "config_sha256", "timestamp_utc",
                         "versions"}
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
# counting and assemble examples and for Neumann c = 2 on the README grid,
# of the two sweeps with Agmon columns that perfbench's spectra workload
# runs, and of the summaries of that workload's threshold and ks ops and of
# the README assemble example (they carry eps0, bracket, k_S, method_diff
# and predicted_slope); a counting or eigensolver method may change, these
# bytes may not
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
    (["threshold", "--family", "square_well", "--depth", "4", "--a", "1",
      "--sweep", "--agmon"],
     "sweep.csv",
     "5a0e15fadef47907627a1feb908556cd6f11edfbbb5421f49e1c1d1e985c48bf"),
    (["threshold", "--family", "confining", "--p", "2", "--h", "0.015625",
      "--sweep", "--agmon"],
     "sweep.csv",
     "d9dde3d6408c187946b690845f7adfb6eb6f1f03f36b296103e2b624e7baacf9"),
    (["threshold", "--family", "square_well", "--depth", "4", "--a", "1",
      "--sweep", "--agmon"],
     "threshold_summary.json",
     "09e3d4b1891e52a13cf9dfab34a2495b86cd5e737053f61617c55520d3bc91aa"),
    (["threshold", "--family", "confining", "--p", "2", "--h", "0.015625",
      "--sweep", "--agmon"],
     "threshold_summary.json",
     "393f35e310924679954c93da40e6b52f7bfc60de75c24b8f5a162270d4acabcc"),
    (["threshold", "--family", "hard_wall", "--a", "1", "--sweep"],
     "threshold_summary.json",
     "878f6ae6a69b34daaf2f125c6e42082889197715d81ba38bf98925b7a1802c50"),
    (["ks", "--preset", "latitude", "--theta", "0.5", "--n-samples", "2048",
      "--n-fd", "2048", "--n-fourier", "1024"],
     "ks_report.json",
     "4169c53d86069c4c299b38c43de2f6c8a2615090dadbeac39cb10c12281699c8"),
    (["ks", "--preset", "perturbed", "--amplitude", "0.1", "--mode", "3"],
     "ks_report.json",
     "8c1ed9344ebeabc02dadabd41b677936333335fefda06305ec08d7d2359df781"),
    (["assemble", "--preset", "latitude", "--theta", "0.7853981633974483",
      "--family", "hard_wall", "--a", "1.0"],
     "assemble_summary.json",
     "4fe216b0dcfa2d0816aad0aa7f806c75412c895290c8a9944606ceb6432c804b"),
]


@pytest.mark.parametrize("argv, name, digest", FROZEN_OUTPUTS,
                         ids=["readme-counting", "readme-assemble",
                              "neumann-c2", "square-well-sweep",
                              "confining-sweep", "square-well-summary",
                              "confining-summary", "hard-wall-summary",
                              "ks-latitude-report", "ks-perturbed-report",
                              "readme-assemble-summary"])
def test_output_bytes_are_frozen(tmp_path, argv, name, digest):
    assert run(argv + ["--out-dir", tmp_path]) == 0
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


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
    (["threshold", "--agmon", "--eta", "0"], "eta"),
    (["threshold", "--agmon", "--eta", "-1"], "eta"),
    (["threshold", "--agmon", "--eta", "nan"], "eta"),
    (["threshold", "--family", "hard_wall", "--a", "inf"], "finite"),
    (["curve", "--preset", "perturbed", "--amplitude", "nan"], "amplitude"),
    (["curve", "--preset", "perturbed", "--amplitude", "inf"], "amplitude"),
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
