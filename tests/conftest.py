import math

import numpy as np
import pytest

from ptwell.cli import run_table

# golden ground-level columns of the three reference tables
TABLE1_E0 = [5.55331, 20.67629, 46.94324, 84.78728, 134.43752, 196.03417]
# The paper prints 86.31766 for the last row of table 2 (label 58, eps = 56).
# That is a misprint: the straight-ray oracle in _ray_oracle.py, which shares
# no code with ptwell, gives 86.31763817 at two matching points, stable to
# 1e-9 under changes of outer radius, matching point and rtol, and it
# reproduces the other five printed rows to within their rounding
# (test_ray_oracle.py).  The datum is that value rounded to five decimals.
TABLE2_E0 = [2.65128, 9.21477, 20.70525, 37.32010, 59.16865, 86.31764]
LABELS = [8.0, 18.0, 28.0, 38.0, 48.0, 58.0]
# (M, eps, E0) of the distinct golden rows: table 3 shares table 1's models
GOLDEN_ROWS = [(1, lab, E) for lab, E in zip(LABELS, TABLE1_E0)] + [
    (2, lab - 2.0, E) for lab, E in zip(LABELS, TABLE2_E0)]
# levels k of p^2 - x^4 (M = 1, eps = 2) from its Hermitian equivalent
# p^2 + 4x^4 - 2x (Buslaev-Grecchi), oscillator-basis eigvalsh at 200 and
# 260 states
QUARTIC_LEVELS = {14: 122.65325555460625, 15: 134.05801339251497,
                  16: 145.7108917610595, 24: 246.8232804182049}


def oscillator_levels(coeffs, count, size=260, length=0.45):
    """The lowest `count` levels of the Hermitian p^2 + sum_j coeffs[j] x^j.

    numpy eigvalsh in the first `size` harmonic-oscillator states, with
    x = length (a + a^+)/sqrt(2) and p^2 = -(a - a^+)^2/(2 length^2) built in
    a basis padded by len(coeffs) states, so that every matrix element
    kept is exact.  For p^2 + 4x^4 - 2x this reproduces QUARTIC_LEVELS
    within 2e-14, and at 200 and 260 states k = 0..30 agree within 1.2e-14;
    for p^2 + x^4, k = 0..26 agree within 6e-14.
    """
    n = size + len(coeffs)
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    x = length / math.sqrt(2.0) * (a + a.T)
    d = a - a.T
    h = -(d @ d) / (2.0 * length ** 2)
    xj = np.eye(n)
    for c in coeffs:
        h += c * xj
        xj = xj @ x
    return np.linalg.eigvalsh(h[:size, :size])[:count]


@pytest.fixture(scope="session")
def table1():
    return run_table(1)


@pytest.fixture(scope="session")
def table2():
    return run_table(2)


@pytest.fixture(scope="session")
def table3():
    return run_table(3)
