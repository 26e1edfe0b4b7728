import math

import pytest

from ptwell.classical import period_asymptotic, period_exact


class TestPeriodExact:
    def test_harmonic_period(self):
        res = period_exact(0.0, 1.0)
        assert res.T == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_energy_independence_at_zero_deformation(self):
        for E in (0.3, 1.0, 9.0, 250.0):
            assert period_exact(0.0, E).T == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_et_product(self):
        res = period_exact(3.0, 2.0)
        assert res.ET_product == pytest.approx(2.0 * res.T)

    def test_domain(self):
        with pytest.raises(ValueError):
            period_exact(1.0, -2.0)

    @pytest.mark.parametrize("epsilon,E", [(1.0, math.nan), (1.0, math.inf),
                                           (math.nan, 1.0), (math.inf, 1.0)])
    def test_non_finite_domain(self, epsilon, E):
        with pytest.raises(ValueError):
            period_exact(epsilon, E)


class TestAsymptotics:
    def test_substitution(self):
        assert period_asymptotic(100.0, 4.0) == pytest.approx(4.0 * math.pi / 200.0)

    @pytest.mark.parametrize("epsilon,E", [(1.0, math.nan), (1.0, math.inf),
                                           (math.nan, 1.0), (math.inf, 1.0),
                                           (0.0, 1.0), (1.0, 0.0)])
    def test_domain(self, epsilon, E):
        with pytest.raises(ValueError):
            period_asymptotic(epsilon, E)

    def test_convergence_to_asymptote(self):
        ratios = [period_exact(e, 1.0).T / period_asymptotic(e, 1.0)
                  for e in (50.0, 100.0, 200.0, 400.0)]
        assert abs(ratios[2] - 1.0) <= 0.05          # within 5% by eps = 200
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))  # monotone approach

    def test_large_deformation_table_scale(self):
        # at the golden (eps = 58, E = 196.03417) point the exact period is
        # within 20% of 4 pi/(eps sqrt(E))
        r = period_exact(58.0, 196.03417).T * 58.0 * math.sqrt(196.03417) / (4.0 * math.pi)
        assert 0.8 <= r <= 1.2


class TestUncertaintyDiagnostic:
    def test_order_one_across_table(self, table1):
        # E T stays O(1) along the golden ground-level scan
        for eps, E in zip(table1.labels, table1.E0):
            et = period_exact(eps, E).ET_product
            assert 1.0 <= et <= 10.0
