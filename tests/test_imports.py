"""Import hygiene: the package and the CLI load their layers lazily.

Each check runs in a fresh interpreter, so modules imported by other tests
in the same test run cannot mask an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
