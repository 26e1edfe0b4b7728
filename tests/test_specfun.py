import cmath
import math

import numpy as np
import pytest
from scipy import special

from ptwell.limit import f1_ground
from ptwell.specfun import (EULER_GAMMA, SpecialFunctionError, bessel_K_logw,
                            bessel_K_scaled, gamma_fn)

from _dd import dd_bessel_K, dd_bessel_series

SQRT_PI = math.sqrt(math.pi)


def relerr(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestGamma:
    @pytest.mark.parametrize("x, expected", [
        (1.0, 1.0),
        (0.5, SQRT_PI),
        (1.5, SQRT_PI / 2.0),
    ])
    def test_known_values(self, x, expected):
        assert relerr(gamma_fn(x), expected) <= 1e-13

    def test_accuracy_on_working_range(self):
        for x in np.linspace(0.02, 60.0, 2999).tolist() + [1e-300, 171.5]:
            assert gamma_fn(x) == math.gamma(x), x

    def test_recurrence(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(0.1, 20.0, 200):
            x = float(x)
            assert relerr(gamma_fn(x + 1.0), x * gamma_fn(x)) <= 1e-13

    def test_reflection_negative(self):
        assert relerr(gamma_fn(-0.5), -2.0 * SQRT_PI) <= 1e-13

    def test_pole_raises(self):
        with pytest.raises(SpecialFunctionError):
            gamma_fn(0.0)
        with pytest.raises(SpecialFunctionError):
            gamma_fn(-3.0)


class TestEulerGamma:
    def test_value(self):
        assert EULER_GAMMA == 0.5772156649015329

    def test_quarter(self):
        assert abs(EULER_GAMMA / 4.0 - 0.144304) < 5e-7

    def test_identity(self):
        # the solvable limit's first correction is exactly gamma/4
        assert 4.0 * f1_ground() == EULER_GAMMA


def bessel_I(nu: float, w: complex) -> complex:
    """I_nu(w) from scipy.special.iv; ptwell has no principal-sheet I."""
    return complex(special.iv(nu, w))


class TestBesselI:
    # I_nu enters ptwell only through bessel_K_logw's connection term: these
    # check the scipy.special.iv that it calls
    def test_half_order_closed_form(self):
        # I_{1/2}(w) = sqrt(2/(pi w)) sinh w
        got = bessel_I(0.5, 1.0 + 0j)
        assert relerr(got, math.sqrt(2.0 / math.pi) * math.sinh(1.0)) <= 1e-13
        assert abs(got - 0.9376748882454876) <= 1e-12

    def test_rotation_by_pi(self):
        w = cmath.exp(1j * math.pi) * 1.0
        got = bessel_I(0.5, w)
        want = cmath.exp(1j * math.pi * 0.5) * bessel_I(0.5, 1.0 + 0j)
        assert abs(got - want) <= 1e-12

    def test_series_oracle_third_order(self):
        oracle = dd_bessel_series(1, 3, 2.0)
        assert abs(oracle - 2.158782581372863) <= 1e-14  # guards the oracle
        assert relerr(bessel_I(1.0 / 3.0, 2.0 + 0j), oracle) <= 1e-13

    def test_scaled_matches_unscaled(self):
        # the scaled K that limit uses against the log-argument K
        for w in (3.0 + 0j, 8.0 - 2.0j, -4.0 - 1.0j):
            want = bessel_K_logw(0.5, cmath.log(w)) * cmath.exp(w.real)
            assert relerr(bessel_K_scaled(0.5, w), want) <= 1e-12

    def test_asymptotic_match_large_real(self):
        # leading growth: I_nu(r) ~ e^r / sqrt(2 pi r)
        for nu in (1.0 / 3.0, 0.5, 1.5):
            for r in (25.0, 40.0, 120.0):
                val = complex(special.ive(nu, r)) * math.sqrt(2.0 * math.pi * r)
                assert 1.0 - 10.0 / r <= val.real <= 1.0 + 10.0 / r
                assert abs(val.imag) <= 1e-12


class TestBesselK:
    # principal-sheet K through the log-argument K that limit uses, t = log w
    def test_half_order_closed_form(self):
        got = bessel_K_logw(0.5, 0j)
        assert relerr(got, math.sqrt(math.pi / 2.0) * math.exp(-1.0)) <= 1e-13
        assert abs(got - 0.4610685044478946) <= 1e-12

    def test_asymptotic_regime(self):
        # K_{1/2} is exactly its leading asymptotic form
        got = bessel_K_logw(0.5, complex(math.log(30.0)))
        want = math.sqrt(math.pi / 60.0) * math.exp(-30.0)
        assert relerr(got, want) <= 1e-10

    def test_connection_oracle(self):
        oracle = dd_bessel_K(2, 3, 1.5)
        assert abs(oracle - 0.24024045240315574) <= 1e-14
        assert relerr(bessel_K_logw(2.0 / 3.0, complex(math.log(1.5))),
                      oracle) <= 1e-12

    def test_scaled_deep(self):
        # no underflow at astronomically large argument
        r = 3.0e5
        val = bessel_K_scaled(0.5, complex(r))
        assert relerr(val, math.sqrt(math.pi / (2.0 * r))) <= 1e-10

    def test_zero_raises(self):
        with pytest.raises(SpecialFunctionError):
            bessel_K_scaled(0.5, 0j)


class TestBesselJY:
    # ptwell evaluates no J or Y: these check the scipy.special jv and yv
    # that the M = 2 eigenfunction oracle of test_limit calls, against the
    # K and I that ptwell uses
    def test_J_rotation_to_I(self):
        # J_nu(i w) = e^{nu pi i/2} I_nu(w)
        got = complex(special.jv(1.0 / 3.0, 1j))
        want = cmath.exp(1j * math.pi / 6.0) * bessel_I(1.0 / 3.0, 1.0 + 0j)
        assert abs(got - want) <= 1e-12

    def test_J_series_oracle(self):
        oracle = dd_bessel_series(1, 3, 1.0, alternating=True)
        assert abs(oracle - 0.7308764021694480) <= 1e-14
        assert relerr(complex(special.jv(1.0 / 3.0, 1.0 + 0j)), oracle) <= 1e-13

    def test_Y_rotation_to_IK(self):
        # Y_nu(i w) = (-2/pi) e^{-nu pi i/2} K_nu(w) + i e^{nu pi i/2} I_nu(w)
        nu = 1.0 / 3.0
        got = complex(special.yv(nu, 1j))
        want = ((-2.0 / math.pi) * cmath.exp(-1j * nu * math.pi / 2.0)
                * bessel_K_logw(nu, 0j)
                + 1j * cmath.exp(1j * nu * math.pi / 2.0) * bessel_I(nu, 1.0 + 0j))
        assert abs(got - want) <= 1e-11


class TestInvariants:
    def test_wronskian(self):
        # an identity of the scipy.special functions specfun calls
        # I_nu(w) K_nu'(w) - I_nu'(w) K_nu(w) = -1/w.  The identity cancels
        # like e^(2|Re w|) eps between its terms, so verification is only
        # meaningful where that loss stays below the tolerance: the full
        # radius range in the right lower quadrant, |w| <= 6 in the left.
        rng = np.random.default_rng(17)
        for nu in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.5):
            for _ in range(40):
                if rng.random() < 0.5:
                    r = float(rng.uniform(0.1, 20.0))
                    phi = -float(rng.uniform(0.05, 0.85))
                else:
                    r = float(rng.uniform(0.1, 6.0))
                    phi = -math.pi + float(rng.uniform(0.05, 0.85))
                w = r * cmath.exp(1j * phi)
                lhs = (special.iv(nu, w) * special.kvp(nu, w)
                       - special.ivp(nu, w) * special.kv(nu, w))
                assert relerr(lhs, -1.0 / w) <= 1e-10

    @pytest.mark.parametrize("nu", [0.5, 1.0 / 3.0])
    @pytest.mark.parametrize("m", [-1, 1])
    def test_rotation_laws(self, nu, m):
        # I_nu(e^{m pi i} w) = e^{m nu pi i} I_nu(w), and the log-argument
        # K at t = log r + m pi i is scipy's principal K at the edge of the
        # cut, r e^{m pi i}
        for r in (0.3, 1.0, 3.0, 8.0):
            w = complex(r)
            rw = r * cmath.exp(1j * math.pi * m)
            gotI = bessel_I(nu, rw)
            wantI = cmath.exp(1j * math.pi * m * nu) * bessel_I(nu, w)
            assert relerr(gotI, wantI) <= 1e-10
            gotK = bessel_K_logw(nu, complex(math.log(r), m * math.pi))
            wantK = complex(special.kv(nu, rw))
            assert relerr(gotK, wantK) <= 1e-10


def _log_series(nu: float, t: complex) -> complex:
    """sum_k (e^t/2)^(nu+2k) / (k! Gamma(nu+k+1)) with the power written as
    exp(nu (t - ln 2)): single-valued in the log-argument t, so I_nu on
    every sheet of log.  Oracle for |e^t| <= 3, where cancellation costs at
    most ~e^6 of the double.
    """
    z2 = cmath.exp(2.0 * (t - math.log(2.0)))
    term = 1.0 / math.gamma(nu + 1.0)
    total = term
    for k in range(1, 80):
        term *= z2 / (k * (nu + k))
        total += term
    return cmath.exp(nu * (t - math.log(2.0))) * total


class TestLogArgument:
    # sheet boundaries of the rotation identities: multiples of pi/2 up to
    # 5 pi/2, which covers Im t = +-pi and +-2pi
    EDGES = [j * math.pi / 2.0 for j in range(-5, 6)]

    @pytest.mark.parametrize("f", [bessel_K_logw])
    @pytest.mark.parametrize("nu", [1.0 / 3.0, 0.5, 2.0 / 3.0])
    def test_continuous_across_sheet_edges(self, f, nu):
        # a sign error in an m-dependent term shows as an O(1) jump here;
        # the sides are a few ulps apart, so the true change is below 1e-12
        for r in (0.4, 2.0, 9.0):
            for edge in self.EDGES:
                below = f(nu, complex(math.log(r), edge - 4e-15))
                above = f(nu, complex(math.log(r), edge + 4e-15))
                assert relerr(above, below) <= 1e-12, (r, edge)

    @pytest.mark.parametrize("nu", [1.0 / 3.0, 0.5, 2.0 / 3.0])
    def test_matches_log_series_on_every_sheet(self, nu):
        s = math.sin(nu * math.pi)
        for r in (0.3, 1.0, 3.0):
            for phi in np.linspace(-3.2 * math.pi, 3.2 * math.pi, 29):
                t = complex(math.log(r), float(phi))
                k = math.pi * (_log_series(-nu, t) - _log_series(nu, t)) / (2.0 * s)
                assert relerr(bessel_K_logw(nu, t), k) <= 1e-11, (r, phi)

    @pytest.mark.parametrize("nu, m", [(0.5, 2), (1.5, 2), (1.5, -2),
                                       (2.5, 4), (1.0 / 3.0, 3)])
    def test_no_I_term_at_integer_m_nu(self, nu, m):
        # sin(m nu pi) = 0 removes the I_nu term of the continuation, so K
        # keeps its relative accuracy even where I_nu is 1e17 times larger;
        # a rounding residue of sin(m nu pi) would swamp it
        for r in (6.0, 20.0):
            got = bessel_K_logw(nu, complex(math.log(r), m * math.pi))
            want = cmath.exp(-1j * m * nu * math.pi) * special.kv(nu, r)
            assert relerr(got, want) <= 1e-13, r

    @pytest.mark.parametrize("nu", [1.0 / 3.0, 0.5, 1.5])
    def test_large_argument_principal_sheet(self, nu):
        # |w| past the old series limit nu + 25: same as the principal values
        for r in (30.0, 60.0, 200.0):
            for phi in (-2.8, -1.2, 0.0, 0.7, 2.9):
                t = complex(math.log(r), phi)
                want = special.kv(nu, cmath.exp(t))
                assert relerr(bessel_K_logw(nu, t), want) <= 1e-12, (r, phi)

    def test_domain(self):
        with pytest.raises(SpecialFunctionError):
            bessel_K_logw(1.0, 0.5j)
        with pytest.raises(SpecialFunctionError):
            bessel_K_logw(0.5, complex(math.nan, 0.0))
