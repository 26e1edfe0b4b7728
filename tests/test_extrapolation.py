import math

import numpy as np
import pytest

from ptwell.extrapolation import richardson, subtract_leading


class TestRichardson:
    def test_printed_first_order(self):
        got = richardson([8.0, 18.0], [0.07825, 0.06998], 1)
        assert got[-1] == pytest.approx(0.06336, abs=5e-6)

    def test_printed_second_order(self):
        got = richardson([8.0, 18.0, 28.0], [0.07825, 0.06998, 0.06742], 2)
        assert got[-1] == pytest.approx(0.06259, abs=5e-6)

    def test_exact_on_inverse_linear(self):
        eps = [5.0, 9.0, 14.0, 30.0]
        vals = [2.75 - 4.5 / e for e in eps]
        for r in richardson(eps, vals, 1):
            assert r == pytest.approx(2.75, abs=1e-13)

    def test_polynomial_exactness(self):
        rng = np.random.default_rng(13)
        for order in (1, 2, 3):
            coeffs = rng.uniform(-2, 2, order + 1)
            eps = np.cumsum(rng.uniform(1.0, 10.0, order + 3)) + 3.0
            vals = [float(sum(c / e ** j for j, c in enumerate(coeffs)))
                    for e in eps]
            for r in richardson(list(eps), vals, order):
                assert r == pytest.approx(coeffs[0], rel=1e-12, abs=1e-12)

    def test_window_alignment(self):
        out = richardson([8.0, 18.0, 28.0, 38.0], [1.0, 2.0, 3.0, 4.0], 2)
        assert len(out) == 2  # first window ends at the third grid point

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            richardson([8.0, 18.0], [1.0, 2.0], 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            richardson([1.0, 2.0], [1.0], 1)

    @pytest.mark.parametrize("eps", [
        [1.0, 1.0],         # ZeroDivisionError without the grid check
        [0.0, 1.0],         # ZeroDivisionError without the grid check
        [math.nan, 1.0],    # [nan] without the grid check
        [2.0, 1.0], [-1.0, 1.0], [1.0, math.inf], [1.0, 3.0, 2.0],
    ])
    def test_grid_check(self, eps):
        with pytest.raises(ValueError):
            richardson(eps, [1.0] * len(eps), 1)


class TestSubtractLeading:
    def test_printed_row(self):
        # with full-precision F the first entry of the corrected column is
        # 0.12597; the 5-decimal-rounded F lands on 0.126
        got = subtract_leading([8.0], [0.07825], 1.0 / 16.0)
        assert got[0] == pytest.approx(0.126, abs=5e-4)

    def test_exact_leading_gives_zero(self):
        assert subtract_leading([8.0, 18.0], [0.0625, 0.0625], 0.0625) == [0.0, 0.0]

    def test_then_richardson(self, table3):
        assert table3.columns["R1"][1] == pytest.approx(0.14150, abs=2e-5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            subtract_leading([1.0], [1.0, 2.0], 0.0)
