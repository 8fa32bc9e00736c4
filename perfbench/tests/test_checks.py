"""The count check of run.py on synthetic outputs.

Run with:  python3 -m pytest -q perfbench/tests
"""
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


class FixedCounts:
    """Stands in for oracle.BesselCounts with given counts per energy."""

    def __init__(self, counts):
        self.counts = counts

    def count(self, c, E):
        return self.counts[round(math.log10(E))]


def check_counts(tmp_path, written):
    op = run.Op("counting", ["counting"], "counting", (1e-3, 1e-5, 3), 2.0)
    E = np.logspace(-3, -5, 3)
    rows = [f"{float(e)!r},{abs(math.log(e))!r},{n}"
            for e, n in zip(E, written)]
    (tmp_path / "counting.csv").write_text("E,lnE_abs,N\n" + "\n".join(rows))
    return run.check_op(op, tmp_path, FixedCounts({-3: 1, -4: 2, -5: 3}), 0)


def test_matching_counts_pass(tmp_path):
    chk = check_counts(tmp_path, [1, 2, 3])
    assert chk.problems == [] and chk.mismatches == []


def test_off_by_one_is_measured_not_failed(tmp_path):
    chk = check_counts(tmp_path, [1, 2, 2])
    assert chk.problems == []
    [(e, got, want)] = chk.mismatches
    assert (got, want) == (2, 3) and math.isclose(e, 1e-5)


def test_off_by_more_than_one_fails(tmp_path):
    chk = check_counts(tmp_path, [1, 0, 0])
    assert len(chk.mismatches) == 2
    assert chk.problems and "off by more than one" in chk.problems[0]
