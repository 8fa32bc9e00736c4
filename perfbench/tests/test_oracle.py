"""The Bessel-zero count oracle against tabulated bound-state energies.

Run with:  python3 -m pytest -q perfbench/tests
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402

# |E_k| of -u'' - c/rho^2 u on (1, inf), u(1) = 0, found by scanning
# Re K_{i nu}(t) for sign changes with mpmath at 60 digits
TABLE = {
    0.5: [5.255122e-06, 1.832637e-11, 6.391033e-17, 2.228772e-22],
    1.25: [4.090250e-03, 7.630517e-06, 1.424953e-08, 2.661017e-11,
           4.969298e-14],
    2.0: [2.449295e-02, 2.110482e-04, 1.826510e-06, 1.580807e-08,
          1.368156e-10],
}


@pytest.mark.parametrize("c", sorted(TABLE))
def test_zeros_match_table(c):
    levels = [t * t for t in oracle.kiv_zeros(c, 1e-12)]
    assert levels[:len(TABLE[c])] == pytest.approx(TABLE[c], rel=1e-6)


def test_counts_step_at_levels():
    counts = oracle.BesselCounts(1e-16)
    assert counts.count(2.0, 2.5e-2) == 0
    assert counts.count(2.0, 2.4e-2) == 1
    assert counts.count(2.0, 1e-10) == 5
    assert counts.count(0.25, 1e-16) == 0
    with pytest.raises(ValueError):
        counts.count(2.0, 1e-17)
