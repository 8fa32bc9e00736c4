"""Import hygiene: the package and the CLI load their layers lazily.

Each check runs in a fresh interpreter, so modules imported by other tests
in the same test run cannot mask an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conebound

SRC = Path(conebound.__file__).resolve().parents[1]


def fresh(code):
    """Run code in a fresh interpreter importing this checkout; its stdout
    parsed as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path},
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


SCIPY = "[m for m in sorted(sys.modules) if m.split('.')[0] == 'scipy']"


def test_counting_cli_loads_no_scipy(tmp_path):
    loaded = fresh(f"""
import contextlib, io, json, sys
import conebound.cli
after_import = {SCIPY}
with contextlib.redirect_stdout(io.StringIO()):
    code = conebound.cli.main(["counting", "--out-dir", {str(tmp_path)!r}])
print(json.dumps([after_import, code, {SCIPY}]))
""")
    assert loaded == [[], 0, []]
    assert (tmp_path / "counting.csv").is_file()


def test_public_names_resolve_lazily():
    report = fresh("""
import json
import conebound
names = conebound.__all__
star = {}
exec("from conebound import *", star)
try:
    conebound.nope
    missing_raises = False
except AttributeError:
    missing_raises = True
print(json.dumps({
    "unresolved": [n for n in names if getattr(conebound, n, None) is None],
    "unbound": sorted(set(names) - set(star)),
    "undir": sorted(set(names) - set(dir(conebound))),
    "missing_raises": missing_raises, "unique": len(set(names)) == len(names),
}))
""")
    assert report == {"unresolved": [], "unbound": [], "undir": [],
                      "missing_raises": True, "unique": True}


@pytest.mark.parametrize("argv", [
    ["threshold", "--family", "square_well", "--sweep", "--agmon"],
    ["ks", "--preset", "latitude", "--theta", "0.7854"],
    ["assemble", "--preset", "latitude", "--theta", "0.7854", "--family",
     "hard_wall", "--a", "1"],
], ids=["threshold", "ks", "assemble"])
def test_solver_commands_load_no_scipy_integrate(tmp_path, argv):
    # spectral1d.oscillation_count integrates an ODE, and so does the
    # counting sweep fallback, which imports scipy.integrate only when a
    # count fails the closed form's certificate; none of these reaches
    # either.  spectral1d used to import scipy.integrate on load
    loaded = fresh(f"""
import contextlib, io, json, sys
import conebound.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = conebound.cli.main({argv + ["--out-dir", str(tmp_path)]!r})
print(json.dumps([code, [m for m in sys.modules
                         if m.startswith("scipy.integrate")]]))
""")
    assert loaded == [0, []]


@pytest.mark.parametrize("argv", [
    ["threshold", "--sweep", "--agmon"],
    ["curve", "--preset", "perturbed", "--amplitude", "0.1", "--mode", "3"],
    ["ks", "--preset", "latitude", "--theta", "0.5", "--n-samples", "2048",
     "--n-fd", "2048", "--n-fourier", "1024"],
    ["ks", "--preset", "perturbed", "--amplitude", "0.2", "--mode", "5",
     "--n-samples", "1000"],
    ["assemble", "--preset", "latitude", "--theta", "0.7854", "--family",
     "hard_wall", "--a", "1"],
], ids=["threshold-agmon", "curve", "ks-dividing", "ks-non-dividing",
         "assemble"])
def test_commands_load_no_scipy_interpolate(tmp_path, argv):
    # the Agmon weight integrates and interpolates in numpy; the curve
    # pipeline and the curvature field on operator grids, dividing the
    # samples or not, interpolate with numpy's FFT and Lagrange stencils
    loaded = fresh(f"""
import contextlib, io, json, sys
import conebound.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = conebound.cli.main({argv + ["--out-dir", str(tmp_path)]!r})
print(json.dumps([code, [m for m in sys.modules
                         if m.startswith("scipy.interpolate")]]))
""")
    assert loaded == [0, []]


SPATIAL = "[m for m in sys.modules if m.startswith('scipy.spatial')]"


@pytest.mark.parametrize("argv", [
    ["curve"],
    ["curve", "--preset", "perturbed", "--amplitude", "0.1", "--mode", "3",
     "--n-samples", "4096"],
], ids=["latitude", "perturbed-4096"])
def test_certified_curve_loads_no_scipy(tmp_path, argv):
    # Schur's chord bound certifies these curves simple, so the KD-tree
    # search, the only scipy the curve command used, never runs
    loaded = fresh(f"""
import contextlib, io, json, sys
import conebound.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = conebound.cli.main({argv + ["--out-dir", str(tmp_path)]!r})
print(json.dumps([code, {SCIPY}]))
""")
    assert loaded == [0, []]


@pytest.mark.parametrize("argv,spatial", [
    (["ks", "--preset", "latitude"], False),
    (["assemble", "--preset", "latitude", "--theta", "0.7853981633974483",
      "--family", "hard_wall", "--a", "1.0"], False),
    # sup|kappa| = 14.1 leaves 147 coarse samples: the certificate cannot
    # decide, and the exact search imports scipy.spatial
    (["curve", "--preset", "perturbed", "--amplitude", "0.2", "--mode", "5"],
     True),
], ids=["ks", "assemble", "curve-undecided"])
def test_scipy_spatial_loads_only_for_the_exact_search(tmp_path, argv,
                                                       spatial):
    loaded = fresh(f"""
import contextlib, io, json, sys
import conebound.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = conebound.cli.main({argv + ["--out-dir", str(tmp_path)]!r})
print(json.dumps([code, bool({SPATIAL})]))
""")
    assert loaded == [0, spatial]
