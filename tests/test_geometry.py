import cmath
import math

import numpy as np
import pytest

from ptwell.geometry import (BranchCutError, ModelSpec, potential_value,
                             turning_points, turning_radius, wedge_angles)


class TestPotential:
    def test_reduces_to_square(self):
        assert potential_value(ModelSpec(1, 0.0), 2.0) == 4.0

    @pytest.mark.parametrize("eps", [0.0, 1.0, 3.7, 8.0])
    def test_negative_imaginary_axis_kills_deformation(self, eps):
        # at x = -i the factor (ix)^eps is 1, so V = (-i)^2 = -1
        v = potential_value(ModelSpec(1, eps), -1j)
        assert abs(v - (-1.0)) <= 1e-14

    def test_quartic_with_unit_deformation(self):
        v = potential_value(ModelSpec(2, 1.0), 1.0)
        assert abs(v - 1j) <= 1e-15

    def test_branch_cut_raises(self):
        with pytest.raises(BranchCutError):
            potential_value(ModelSpec(1, 0.5), 2j)
        with pytest.raises(BranchCutError):
            potential_value(ModelSpec(1, 0.5), np.array([-1j, 2j]))

    def test_pt_symmetry(self):
        # V(-conj(x)) = conj(V(x)) off the cut
        rng = np.random.default_rng(5)
        for model in (ModelSpec(1, 0.7), ModelSpec(2, 3.2)):
            for _ in range(50):
                x = complex(rng.uniform(-3, 3), rng.uniform(-3, -0.01))
                lhs = potential_value(model, -x.conjugate())
                rhs = potential_value(model, x).conjugate()
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("M,eps", [(1, 0.0), (1, 0.7), (2, 3.2), (3, 54.0)])
    def test_array_matches_scalar(self, M, eps):
        model = ModelSpec(M, eps)
        rng = np.random.default_rng(9)
        x = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 0.0, 40)
        got = potential_value(model, x)
        want = [potential_value(model, xi) for xi in x]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestWedges:
    def test_hermitian_limit(self):
        w = wedge_angles(ModelSpec(1, 0.0))
        assert w.theta_left == pytest.approx(-math.pi)
        assert w.theta_right == 0.0
        assert w.opening == pytest.approx(math.pi / 2.0)

    def test_direct_substitution(self):
        w = wedge_angles(ModelSpec(1, 8.0))
        assert w.theta_right == pytest.approx(-math.pi / 3.0)
        assert w.theta_left == pytest.approx(-math.pi + math.pi / 3.0)

    def test_large_deformation_gap(self):
        # angular gap theta_right - theta_left approaches 2 pi (M+1)/eps
        for M in (1, 2):
            for eps in (200.0, 2000.0):
                w = wedge_angles(ModelSpec(M, eps))
                gap = w.theta_right - w.theta_left
                assert gap == pytest.approx(2.0 * math.pi * (M + 1) / eps, rel=0.05)

    def test_opening_shrinks_with_deformation(self):
        for M in (1, 2, 3):
            openings = [wedge_angles(ModelSpec(M, e)).opening
                        for e in (0.0, 1.0, 4.0, 16.0, 64.0)]
            assert all(b < a for a, b in zip(openings, openings[1:]))

    def test_bounds(self):
        for M in (1, 2, 3):
            for eps in (0.0, 0.5, 7.0, 300.0):
                w = wedge_angles(ModelSpec(M, eps))
                assert -math.pi <= w.theta_left <= -math.pi / 2.0
                assert -math.pi / 2.0 <= w.theta_right <= 0.0


class TestTurningPoints:
    def test_hermitian_oscillator(self):
        tp = turning_points(ModelSpec(1, 0.0), 9.0)
        assert abs(tp.x_right - 3.0) <= 1e-12
        assert abs(tp.x_left - (-3.0)) <= 1e-12

    def test_large_deformation_approaches_minus_i(self):
        tp = turning_points(ModelSpec(1, 2e4), 5.0)
        assert abs(tp.x_right - (-1j)) <= 2e-3
        assert abs(tp.x_left - (-1j)) <= 2e-3

    def test_residual_is_energy(self):
        # V(x_tp) = E to near machine precision; the defining property
        rng = np.random.default_rng(11)
        for _ in range(60):
            model = ModelSpec(int(rng.integers(1, 4)), float(rng.uniform(0, 30)))
            E = float(rng.uniform(0.2, 400.0))
            tp = turning_points(model, E)
            for x in (tp.x_left, tp.x_right):
                assert abs(potential_value(model, x) - E) <= 1e-12 * E

    def test_quartic_angles(self):
        tp = turning_points(ModelSpec(2, 1.0), 1.0)
        assert abs(abs(tp.x_right) - 1.0) <= 1e-14
        assert cmath.phase(tp.x_right) == pytest.approx(-math.pi / 10.0)
        assert cmath.phase(tp.x_left) == pytest.approx(-math.pi + math.pi / 10.0)

    def test_pt_pair(self):
        for model in (ModelSpec(1, 3.3), ModelSpec(2, 11.0)):
            tp = turning_points(model, 7.5)
            assert abs(tp.x_left - (-tp.x_right.conjugate())) <= 1e-12

    def test_nonpositive_energy_raises(self):
        with pytest.raises(ValueError):
            turning_points(ModelSpec(1, 1.0), 0.0)

    @pytest.mark.parametrize("E", [math.nan, math.inf])
    def test_non_finite_energy_raises(self, E):
        # nan passed the E <= 0 guard and gave nan turning points
        with pytest.raises(ValueError):
            turning_points(ModelSpec(1, 1.0), E)
        with pytest.raises(ValueError):
            turning_radius(ModelSpec(1, 1.0), E)


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(0, 1.0)
        with pytest.raises(ValueError):
            ModelSpec(1, -0.5)
