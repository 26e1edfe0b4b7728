"""The high-precision straight-ray oracle on levels with a reference.

The oracle (_mp_oracle.py) imports nothing from ptwell.  It reproduces the
harmonic-oscillator level E = 7 and a level of p^2 - x^4 from the
oscillator-basis reference of p^2 + 4x^4 - 2x (Buslaev & Grecchi).
"""

import pytest

from _mp_oracle import level
from conftest import QUARTIC_LEVELS


def test_oscillator_anchor():
    assert float(level(1, 0.0, 7.0 + 1e-7)) == pytest.approx(7.0, rel=1e-15)


def test_quartic_level_14():
    # the reference is a double-precision eigvalsh, good to about 2e-14
    E = QUARTIC_LEVELS[14]
    assert float(level(1, 2.0, E * (1 + 1e-9))) == pytest.approx(E, rel=5e-14)
