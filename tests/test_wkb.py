import cmath
import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import ptwell.limit as limit
import ptwell.wkb as wkb
from _wkb_oracle import coefficients as oracle_coefficients
from conftest import oscillator_levels
from ptwell.geometry import ModelSpec, potential_value, turning_points
from ptwell.limit import E_of_F, level_nu, nu_spectrum
from ptwell.specfun import gamma_fn
from ptwell.wkb import (action_integral, ground_expansion_exact,
                        ground_expansion_wkb, wkb_energy_closed,
                        wkb_energy_fourth, wkb_energy_next,
                        wkb_energy_quadrature)


class TestActionIntegral:
    def test_harmonic_ground(self):
        # int sqrt(1 - x^2) over [-1, 1] = pi/2
        assert action_integral(ModelSpec(1, 0.0), 1.0) == pytest.approx(
            math.pi / 2.0, abs=1e-12)

    def test_closed_form_is_root(self):
        E = wkb_energy_closed(0, 8.0)
        assert action_integral(ModelSpec(1, 8.0), E) == pytest.approx(
            math.pi / 2.0, rel=1e-8)

    def test_quartic_real_axis_oracle(self):
        # at eps = 0 the contour is the real segment; adaptive quadrature of
        # 2 int_0^1 sqrt(1 - x^4) dx is an independent oracle
        oracle, err = quad(lambda x: math.sqrt(1.0 - x ** 4), 0.0, 1.0)
        oracle *= 2.0
        assert err < 1e-8
        assert abs(oracle - 1.7480383695280799) < 1e-10  # guards the oracle
        assert action_integral(ModelSpec(2, 0.0), 1.0) == pytest.approx(
            oracle, rel=1e-9)

    def test_path_independence_polyline(self):
        # replace the straight segment by a two-segment detour through a
        # lowered midpoint; analyticity makes the action identical
        model = ModelSpec(1, 6.0)
        E = 4.2
        tp = turning_points(model, E)
        via = 0.5 * (tp.x_left + tp.x_right) - 0.25j * abs(tp.x_right)
        nodes, wts = np.polynomial.legendre.leggauss(400)

        def leg(a, b, q_prev):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            total = 0j
            for t, wt in zip(nodes, wts):
                q = cmath.sqrt(E - potential_value(model, mid + half * t))
                if q_prev is not None and abs(q - q_prev) > abs(q + q_prev):
                    q = -q
                q_prev = q
                total += wt * q
            return total * half, q_prev

        s1, qp = leg(tp.x_left, via, None)
        s2, _ = leg(via, tp.x_right, qp)
        detour = s1 + s2
        if detour.real < 0:
            detour = -detour
        direct = action_integral(model, E)
        assert abs(detour.real - direct) <= 1e-9
        assert abs(detour.imag) <= 1e-9

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            action_integral(ModelSpec(1, 1.0), -1.0)

    @pytest.mark.parametrize("E", [math.nan, math.inf])
    def test_rejects_non_finite_energy(self, E):
        # both returned nan
        with pytest.raises(ValueError):
            action_integral(ModelSpec(1, 1.0), E)


class TestClosedForm:
    @pytest.mark.parametrize("k", range(6))
    def test_hermitian_collapse(self, k):
        assert wkb_energy_closed(k, 0.0) == pytest.approx(2 * k + 1, rel=1e-14)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("energy", [wkb_energy_closed, wkb_energy_next,
                                        wkb_energy_fourth])
    def test_non_finite_domain(self, energy, epsilon):
        with pytest.raises(ValueError):
            energy(0, epsilon)

    def test_against_quadrature_root(self):
        # the closed form must be the root of action = pi/2 at k = 0
        E = wkb_energy_quadrature(ModelSpec(1, 8.0), 0)
        assert E == pytest.approx(wkb_energy_closed(0, 8.0), rel=1e-8)
        assert abs(E - 5.214426298777) < 1e-6

    def test_large_deformation_scaling(self):
        # approach is O(ln eps / eps)
        for eps in (1e3, 1e4, 1e5):
            ratio = wkb_energy_closed(0, eps) / (eps * eps / 16.0)
            assert ratio == pytest.approx(1.0, abs=4.0 * math.log(eps) / eps)

    def test_ratio_trend_toward_asymptote(self):
        # |E_WKB / ((1/4)(k+1/2)^2 eps^2) - 1| drifts down the sampled grid;
        # for k = 0 the eps ln(eps) correction changes sign near eps = 21,
        # so the trend there starts at the second grid point
        for k, grid in ((0, (40.0, 80.0, 160.0)), (1, (20.0, 40.0, 80.0, 160.0)),
                        (2, (20.0, 40.0, 80.0, 160.0))):
            gaps = [abs(wkb_energy_closed(k, e) / (0.25 * (k + 0.5) ** 2 * e * e) - 1.0)
                    for e in grid]
            assert all(b < a for a, b in zip(gaps, gaps[1:])), f"k={k}: {gaps}"


class TestQuadrature:
    def test_harmonic_exact(self):
        assert wkb_energy_quadrature(ModelSpec(1, 0.0), 2) == pytest.approx(
            5.0, rel=1e-8)

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("eps", [0.0, 1.0, 4.0, 8.0])
    def test_equivalence_with_closed_form(self, k, eps):
        got = wkb_energy_quadrature(ModelSpec(1, eps), k)
        assert got == pytest.approx(wkb_energy_closed(k, eps), rel=1e-8)

    # (2, 0.9, 0), (3, 0.2, 0), (3, 0.3, 0) and (3, 2.5, 0) once landed
    # 11-25% off, when a root search walked away from an exact first guess
    @pytest.mark.parametrize("M, eps, k", [(2, 0.9, 0), (3, 0.2, 0),
                                           (3, 0.3, 0), (3, 2.5, 0),
                                           (2, 6.0, 3), (3, 40.0, 10)])
    def test_analytic_leading_level(self, M, eps, k):
        # the action between the turning points of x^N (ix)^eps at E = 1 is
        # u = cos(eps pi/2N) sqrt(pi) Gamma(1 + 1/N) / Gamma(3/2 + 1/N)
        N = 2 * M + eps
        u = (math.cos(eps * math.pi / (2.0 * N)) * math.sqrt(math.pi)
             * math.gamma(1.0 + 1.0 / N) / math.gamma(1.5 + 1.0 / N))
        want = ((k + 0.5) * math.pi / u) ** (2.0 * N / (N + 2.0))
        assert wkb_energy_quadrature(ModelSpec(M, eps), k) == pytest.approx(
            want, rel=1e-8)

    def test_quartic_ground_accuracy(self):
        # leading WKB at k = 0 is crude but lands within 25% of the golden
        # quartic-table value printed at row label 8
        got = wkb_energy_quadrature(ModelSpec(2, 8.0), 0)
        assert abs(got - 2.65128) / 2.65128 < 0.25


class TestNextOrder:
    def test_correction_vanishes_at_zero(self):
        assert wkb_energy_next(0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert wkb_energy_next(3, 0.0) == pytest.approx(7.0, rel=1e-14)

    def test_high_precision_gamma_oracle(self):
        # value frozen from an extended-precision evaluation of the same
        # closed form; double arithmetic must agree to ~1e-12
        assert wkb_energy_next(0, 58.0) == pytest.approx(
            196.78305756365287, rel=1e-12)

    def test_large_deformation_expansion(self):
        # eps-linear coefficient tends to (7/3 + ln 2)/4 = 0.75662
        for eps, tol in ((1e4, 3e-3), (1e6, 1e-4)):
            c = (wkb_energy_next(0, eps) - eps * eps / 16.0
                 + 0.25 * eps * math.log(eps)) / eps
            assert abs(c - 0.7566201284733197) <= tol


def _closed_m1(k, eps):
    # the M = 1 leading closed form in its own grouping: a bit reference
    num = gamma_fn((3.0 * eps + 8.0) / (2.0 * eps + 4.0)) \
        * math.sqrt(math.pi) * (k + 0.5)
    den = math.sin(math.pi / (eps + 2.0)) * gamma_fn((eps + 3.0) / (eps + 2.0))
    return (num / den) ** ((2.0 * eps + 4.0) / (eps + 4.0))


def _next_m1(k, eps):
    # and the M = 1 next-order form, likewise
    return _closed_m1(k, eps) * (1.0 + (2.0 + eps) * (1.0 + eps)
                                 * math.sin(2.0 * math.pi / (2.0 + eps))
                                 / (6.0 * math.pi * (k + 0.5) ** 2 * (4.0 + eps) ** 2))


def _eta(k, eps, M):
    return wkb_energy_next(k, eps, M) / wkb_energy_closed(k, eps, M) - 1.0


class TestClosedFormEveryM:
    def test_m1_bits_unchanged(self):
        # solver paths at high k move when the seed moves by one ulp
        for eps in np.arange(0.0, 60.0, 0.37).tolist() + [2.0, 8.0, 58.0]:
            for k in range(0, 31, 3):
                assert wkb_energy_closed(k, eps) == _closed_m1(k, eps), (k, eps)
                assert wkb_energy_next(k, eps) == _next_m1(k, eps), (k, eps)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_leading_is_quadrature_root(self, M):
        # the action scales as E^(1/2 + 1/N), so the 400-node quadrature at
        # E = 1 gives the root of the leading rule
        for eps in (0.0, 0.3, 1.0, 2.5, 3.9, 8.0, 21.5, 40.0, 59.5):
            a = action_integral(ModelSpec(M, eps), 1.0, nodes=400)
            expo = 0.5 + 1.0 / (2.0 * M + eps)
            for k in (0, 5):
                want = ((k + 0.5) * math.pi / a) ** (1.0 / expo)
                got = wkb_energy_closed(k, eps, M)
                assert abs(got - want) <= 1e-12 * want, (eps, k)

    @pytest.mark.parametrize("k", [0, 1, 7, 26])
    def test_correction_at_hermitian_points(self, k):
        assert _eta(k, 0.0, 1) == 0.0
        assert abs(_eta(k, 0.0, 2) - 1.0 / (9.0 * math.pi * (k + 0.5) ** 2)) <= 1e-14

    def test_next_order_quartic_levels(self):
        # p^2 + x^4 from the oscillator basis: the next-order error falls as
        # (k + 1/2)^-4, 6.8e-7 relative at k = 8 and 7.2e-9 at k = 26
        ref = oscillator_levels([0.0, 0.0, 0.0, 0.0, 1.0], 27)
        errs = {k: abs(wkb_energy_next(k, 0.0, 2) / ref[k] - 1.0)
                for k in range(8, 27)}
        assert max(errs.values()) <= 1e-6
        for k, err in errs.items():
            assert err * (k + 0.5) ** 4 == pytest.approx(
                errs[8] * 8.5 ** 4, rel=0.01), k
        # the leading form is 600-7000 times farther off
        assert all(abs(wkb_energy_closed(k, 0.0, 2) / ref[k] - 1.0) > 600.0 * err
                   for k, err in errs.items())

    @pytest.mark.parametrize("M", [0, -1, 1.5])
    @pytest.mark.parametrize("energy", [wkb_energy_closed, wkb_energy_next,
                                        wkb_energy_fourth])
    def test_rejects_bad_M(self, energy, M):
        with pytest.raises(ValueError):
            energy(0, 1.0, M)


def _eta2(k, eps, M):
    return (wkb_energy_fourth(k, eps, M) - wkb_energy_next(k, eps, M)) \
        / wkb_energy_closed(k, eps, M)


@functools.cache
def _oracle(M, eps):
    """(eta nu^2, eta2 nu^4) of the contour oracle, each taken once."""
    return oracle_coefficients(M, eps)


# eta2 nu^4 to ten decimals, from an earlier contour integration of y4
FOURTH_ANCHORS = {(2, 0.0): -0.0035275797, (1, 2.0): 0.0004909953,
                  (3, 0.0): -0.0037104926, (4, 0.0): 0.0054522089,
                  (1, 8.0): -0.0012594916, (1, 18.0): -0.0012060079}


class TestFourthOrder:
    # the closed form's nu^-2 and nu^-4 terms against the contour integrals
    # of y0, y2 and y4 (_wkb_oracle), which share no code with it; taken at
    # k = 1 (nu^2 = 9/4, nu^4 = 81/16), where no model here stops the series

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, 4.0, 8.0])
    def test_against_contour_oracle(self, M, eps):
        eta, eta2 = _oracle(M, eps)
        assert abs(eta.imag) <= 1e-14 and abs(eta2.imag) <= 1e-14
        for got, want in ((_eta(1, eps, M) * 2.25, eta.real),
                          (_eta2(1, eps, M) * 5.0625, eta2.real)):
            assert abs(got - float(want)) <= 1e-10 * abs(want) + 1e-16

    @pytest.mark.parametrize("M,eps", sorted(FOURTH_ANCHORS))
    def test_anchors(self, M, eps):
        want = FOURTH_ANCHORS[M, eps]
        assert abs(_eta2(1, eps, M) * 5.0625 - want) <= 5e-11
        assert abs(float(_oracle(M, eps)[1].real) - want) <= 5e-11

    @pytest.mark.parametrize("M,eps,k", [(3, 8.0, 0), (4, 8.0, 0), (6, 0.0, 0),
                                         (8, 20.0, 1)])
    def test_stops_where_terms_stop_shrinking(self, M, eps, k):
        # |eta2| >= |eta| here: the fourth-order energy is the next-order one
        eta, eta2 = (c.real / (k + 0.5) ** p for c, p in zip(_oracle(M, eps), (2, 4)))
        assert abs(eta2) >= abs(eta) > 0.1
        assert wkb_energy_fourth(k, eps, M) == wkb_energy_next(k, eps, M)
        assert wkb_energy_fourth(k + 1, eps, M) != wkb_energy_next(k + 1, eps, M)

    @pytest.mark.parametrize("k", [0, 1, 7, 26])
    def test_harmonic_collapse(self, k):
        assert wkb_energy_fourth(k, 0.0) == pytest.approx(2 * k + 1, rel=1e-15)

    def test_continuous_at_n_3(self):
        # at N = 3 sin(3 pi/N) vanishes and r3 = 1 at M = 1
        E = wkb_energy_fourth(3, 1.0)
        for h in (1e-9, -1e-9):
            assert wkb_energy_fourth(3, 1.0 + h) == pytest.approx(E, rel=1e-8)

    @pytest.mark.parametrize("M,eps,coeffs,k_max", [
        (2, 0.0, [0.0, 0.0, 0.0, 0.0, 1.0], 26),
        (1, 2.0, [0.0, -2.0, 0.0, 0.0, 4.0], 30)])
    def test_hermitian_levels(self, M, eps, coeffs, k_max):
        # p^2 + x^4 and p^2 - x^4 (levels of p^2 + 4x^4 - 2x) from the
        # oscillator basis: the fourth-order error falls as (k + 1/2)^-6,
        # 4.5e-9 relative at (2, 0, 8) and 6.2e-10 at (1, 2, 8), and is 150
        # to 2000 times smaller than the next-order error
        ref = oscillator_levels(coeffs, k_max + 1)
        errs = {k: abs(wkb_energy_fourth(k, eps, M) / ref[k] - 1.0)
                for k in range(8, k_max + 1)}
        for k, err in errs.items():
            assert err * (k + 0.5) ** 6 == pytest.approx(
                errs[8] * 8.5 ** 6, rel=0.05), k
            assert abs(wkb_energy_next(k, eps, M) / ref[k] - 1.0) >= 150.0 * err, k


class TestAsymptoticEnergy:
    # the large-deformation spectrum E ~ F eps^2, F = nu^2/4, with level j
    # of the limit at nu = k + P/(M+1), k = j // M and P = (j mod M) + 1
    def test_substitution(self):
        assert level_nu(1, 0) ** 2 / 4.0 * 8.0 ** 2 == pytest.approx(4.0)
        # E_of_F's refined scaling tends to F eps^2, here to 2 ln(F eps^2)/eps
        F = level_nu(1, 0) ** 2 / 4.0
        assert E_of_F(F, 1e12) / (F * 1e24) == pytest.approx(1.0, rel=1e-9)

    def test_quartic_ground_coefficient(self):
        assert level_nu(2, 0) ** 2 / 4.0 == pytest.approx(1.0 / 36.0)

    def test_oscillator_ground_coefficient(self):
        assert level_nu(1, 0) ** 2 / 4.0 == pytest.approx(1.0 / 16.0)

    def test_bad_P(self):
        # P = 1..M only: no index j names a level outside that range
        for M in (1, 2, 3):
            for level in nu_spectrum(M, 3):
                assert 1 <= level.P <= M
                assert level.nu == pytest.approx(level.k + level.P / (M + 1.0))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -3.0])
    def test_domain(self, epsilon):
        with pytest.raises(ValueError):
            E_of_F(1.0 / 16.0, epsilon, 1)


class TestGroundExpansions:
    def test_exact_coefficient(self):
        c = (1.0 + 0.5772156649015329 + 2.0 * math.log(2.0)) / 4.0
        assert abs(c - 0.74088) < 5e-6
        got = ground_expansion_exact(math.e)  # ln eps = 1 isolates c cleanly
        back = (got - math.e ** 2 / 16.0 + 0.25 * math.e) / math.e
        assert back == pytest.approx(c, rel=1e-12)

    def test_wkb_coefficient(self):
        c = (7.0 / 3.0 + math.log(2.0)) / 4.0
        assert abs(c - 0.75662) < 5e-6

    def test_difference_of_expansions(self):
        for eps in (10.0, 58.0, 200.0):
            diff = ground_expansion_wkb(eps) - ground_expansion_exact(eps)
            assert abs(diff - (0.75662 - 0.74088) * eps) <= 1e-4 * eps

    def test_near_table_anchor(self):
        # O(ln eps) remainder keeps the expansion within 15 of the golden
        # ground energy at deformation 58
        assert abs(ground_expansion_exact(58.0) - 196.03417) <= 15.0

    def test_next_order_matches_wkb_expansion(self):
        # wkb_energy_next and its large-deformation expansion agree up to
        # O(ln eps)
        for eps in (50.0, 200.0):
            gap = abs(wkb_energy_next(0, eps) - ground_expansion_wkb(eps))
            assert gap <= 3.0 * math.log(eps)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    @pytest.mark.parametrize("expansion", [ground_expansion_exact, ground_expansion_wkb])
    def test_non_finite_domain(self, expansion, epsilon):
        with pytest.raises(ValueError):
            expansion(epsilon)

    def test_domain(self):
        with pytest.raises(ValueError):
            ground_expansion_exact(0.5)


LEVEL_INDEXED = {
    "wkb_energy_closed": lambda k: wkb_energy_closed(k, 2.0),
    "wkb_energy_next": lambda k: wkb_energy_next(k, 2.0, 2),
    "wkb_energy_fourth": lambda k: wkb_energy_fourth(k, 8.0, 3),
    "wkb_energy_quadrature": lambda k: wkb_energy_quadrature(ModelSpec(1, 2.0), k),
    "level_nu": lambda j: level_nu(2, j),
    "nu_spectrum k_max": lambda k: nu_spectrum(1, k),
    "nu_spectrum M": lambda M: nu_spectrum(M, 2),
}


class TestLevelIndexDomain:
    # a level index is an integer >= 0 everywhere, by the rule solve_level
    # and scan_levels keep: 2.5 gave an energy (or a nu) that is no level,
    # and nu_spectrum raised TypeError from range at 2.0 and 1.5

    @pytest.mark.parametrize("name", LEVEL_INDEXED)
    @pytest.mark.parametrize("k", [-1, 2.5, 2.0, math.nan, "2"])
    def test_refused_before_any_work(self, monkeypatch, name, k):
        def no_work(*args):
            raise AssertionError("work done before the index was checked")

        monkeypatch.setattr(wkb, "gamma_fn", no_work)
        monkeypatch.setattr(wkb, "action_integral", no_work)
        monkeypatch.setattr(limit, "level_nu", no_work)
        with pytest.raises(ValueError, match="integer"):
            LEVEL_INDEXED[name](k)

    @pytest.mark.parametrize("name", LEVEL_INDEXED)
    def test_numpy_integer_accepted(self, name):
        assert LEVEL_INDEXED[name](np.int64(2)) == LEVEL_INDEXED[name](2)
