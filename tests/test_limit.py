import cmath
import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from ptwell.limit import (E_of_F, F_of_eps, boundary_log_decay, f1_ground,
                          f1_oracle, level_nu, limit_wavefunction, nu_spectrum,
                          quantization_residual, scaled_ode_residual)

EULER_GAMMA = 0.5772156649015329


class TestSpectrum:
    def test_oscillator_family(self):
        levels = nu_spectrum(1, 2)
        assert [lv.nu for lv in levels] == pytest.approx([0.5, 1.5, 2.5])
        assert [lv.F for lv in levels] == pytest.approx(
            [1.0 / 16.0, 9.0 / 16.0, 25.0 / 16.0])

    def test_quartic_family(self):
        levels = nu_spectrum(2, 0)
        assert [lv.nu for lv in levels] == pytest.approx([1.0 / 3.0, 2.0 / 3.0])
        assert levels[0].F == pytest.approx(1.0 / 36.0)
        assert (levels[0].k, levels[0].P) == (0, 1)

    def test_sorted_and_complete(self):
        levels = nu_spectrum(3, 2)
        nus = [lv.nu for lv in levels]
        assert nus == sorted(nus)
        assert len(levels) == 9

    @pytest.mark.parametrize("M", range(1, 9))
    def test_level_nu_indexes_the_spectrum(self, M):
        # the one definition of nu for level j, which the shooting seeds use
        levels = nu_spectrum(M, 40)
        assert len(levels) == 41 * M
        for j, lv in enumerate(levels):
            nu = level_nu(M, j)
            assert (lv.k, lv.P, lv.nu, lv.F) == (j // M, j % M + 1, nu,
                                                 nu ** 2 / 4.0)
            assert lv.nu == lv.k + lv.P / (M + 1.0)

    @pytest.mark.parametrize("k_max", [-1, -5])
    def test_negative_k_max(self, k_max):
        # used to return an empty spectrum
        with pytest.raises(ValueError, match="k_max"):
            nu_spectrum(2, k_max)


class TestQuantization:
    def test_oscillator_zero(self):
        assert abs(quantization_residual(1, 0.5)) <= 1e-14

    def test_quartic_zero(self):
        # cos(2 pi/3) = -1/2 exactly
        assert abs(quantization_residual(2, 1.0 / 3.0)) <= 1e-14

    def test_integer_rejected(self):
        assert quantization_residual(1, 1.0) == pytest.approx(-1.0)

    def test_all_levels_are_zeros(self):
        for M in (1, 2):
            for lv in nu_spectrum(M, 6):
                assert abs(quantization_residual(M, lv.nu)) <= 1e-14

    def test_unsupported_M(self):
        for M in (0, -1, 1.5):
            with pytest.raises(ValueError, match="M"):
                quantization_residual(M, 0.25)

    def test_quartet_zeros(self):
        # M = 3: cos(3 nu pi) + cos(nu pi) vanishes at nu = k + P/4, P = 1..3,
        # and is at least 0.5 in size halfway between those zeros
        for k in range(6):
            for P in (1, 2, 3):
                assert abs(quantization_residual(3, k + P / 4.0)) <= 1e-14
            for x in (0.125, 0.375, 0.625, 0.875):
                assert abs(quantization_residual(3, k + x)) >= 0.5

    @pytest.mark.parametrize("M", range(1, 7))
    def test_dirichlet_kernel(self, M):
        # the cosine sum is sin((M+1) nu pi) / (2 sin(nu pi)); the quotient
        # loses digits near integer nu, so nu keeps 0.05 away from them
        rng = np.random.default_rng(M)
        for nu in rng.integers(0, 12, 200) + rng.uniform(0.05, 0.95, 200):
            want = math.sin((M + 1) * nu * math.pi) / (2.0 * math.sin(nu * math.pi))
            assert quantization_residual(M, nu) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("nu", [0.0, -0.5, math.inf, math.nan])
    def test_domain(self, M, nu):
        # inf used to raise OverflowError from round
        with pytest.raises(ValueError, match="nu"):
            quantization_residual(M, nu)


class TestWavefunction:
    def test_ground_closed_form(self):
        # for nu = 1/2 the eigenfunction is exactly e^w / sqrt(2 pi w)
        for y in (0.0, 0.5, 1.0):
            z = -1j * y
            w = 0.5 * math.exp(math.pi * y / 2.0)
            got = limit_wavefunction(1, 0.5, z)
            want = math.exp(w) / math.sqrt(2.0 * math.pi * w)
            assert abs(got - want) <= 1e-12 * abs(want)
        # for nu = n + 1/2 it is e^(i nu pi)/pi K_nu(w e^(i pi)), and
        # K_(n+1/2)(v) = sqrt(pi/2v) e^-v sum_j (n+j)!/(j!(n-j)!) (2v)^-j
        # (DLMF 10.49.12); up to the legs of the arch, where psi once was
        # the small difference of its I and K parts
        for nu in (1.5, 2.5, 3.5):
            n = round(nu - 0.5)
            for x in np.linspace(-1.98, 1.98, 23):
                for y in np.linspace(0.0, 2.0, 11):
                    t = math.log(nu) + 0.5j * math.pi * complex(x, -y)
                    w = cmath.exp(t)
                    series = sum(math.factorial(n + j)
                                 / (math.factorial(j) * math.factorial(n - j))
                                 * (-2.0 * w) ** -j for j in range(n + 1))
                    want = cmath.exp(1j * nu * math.pi) / math.pi \
                        * math.sqrt(math.pi / 2.0) * cmath.exp(-(t + 1j * math.pi) / 2.0) \
                        * cmath.exp(w) * series
                    got = limit_wavefunction(1, nu, complex(x, -y))
                    assert abs(got - want) <= 1e-13 * abs(want), (nu, x, y)

    def test_decay_on_vertical(self):
        # |psi| collapses doubly exponentially down the boundary line
        logs = [boundary_log_decay(1, 0.5, y) for y in (4.0, 6.0, 8.0, 10.0)]
        assert all(b < a for a, b in zip(logs, logs[1:]))
        # growth-free bound: ln|psi| <= -nu e^{pi y/2} + slowly varying
        y = 10.0
        assert logs[-1] <= -0.5 * math.exp(math.pi * y / 2.0) + 10.0

    def test_decay_on_vertical_quartic(self):
        logs = [boundary_log_decay(2, 1.0 / 3.0, y) for y in (4.0, 6.0, 8.0)]
        assert all(b < a for a, b in zip(logs, logs[1:]))

    def test_decay_rejects_non_eigenvalue(self):
        # off the spectrum psi grows on one boundary line, where
        # |psi| = c K_nu(r) no longer holds
        with pytest.raises(ValueError, match="eigenvalue"):
            boundary_log_decay(1, 1.0, 2.0)
        with pytest.raises(ValueError, match="eigenvalue"):
            boundary_log_decay(2, 0.5, 2.0)

    def test_pt_self_conjugate(self):
        # psi(-conj z) = conj(psi(z)) on the first 3M levels of M = 1..4,
        # over the whole arch
        rng = np.random.default_rng(23)
        for M in (1, 2, 3, 4):
            for lv in nu_spectrum(M, 2):
                for _ in range(20):
                    z = complex(rng.uniform(-(M + 0.9), M + 0.9),
                                rng.uniform(-1.2, 0.2))
                    a = limit_wavefunction(M, lv.nu, -z.conjugate())
                    b = limit_wavefunction(M, lv.nu, z).conjugate()
                    assert abs(a - b) <= 1e-13 * abs(b), (M, lv.nu, z)

    def test_high_precision_oracle(self):
        # against c e^(s nu) K_nu(w e^s) in 40-digit mpmath, with
        # K_nu = pi (I_-nu - I_nu) / (2 sin nu pi) and each I continued by
        # I_mu(v e^(m pi i)) = e^(m mu pi i) I_mu(v); at M = 3, nu = 3/2 the
        # centre of the arch lies on the sheet m = 2, where the I_nu term of
        # the continued K vanishes and K_nu is 1e-5 of I_nu
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        for M in (1, 2, 3, 4):
            for lv in nu_spectrum(M, 2):
                for x in (0.0, *rng.uniform(-(M + 0.9), M + 0.9, 5)):
                    z = complex(x, rng.uniform(-1.0, 0.2))
                    with mp.workdps(40):
                        nu = mp.mpf(lv.nu)
                        s = (1 if z.real <= 0.0 else -1) * 0.5j * mp.pi * (M + 1)
                        t = mp.log(nu) + 0.5j * mp.pi * z + s
                        m = int(mp.nint(mp.im(t) / mp.pi))
                        v = mp.exp(t - 1j * m * mp.pi)
                        i_pair = [mp.expjpi(m * mu) * mp.besseli(mu, v)
                                  for mu in (-nu, nu)]
                        k = mp.pi * (i_pair[0] - i_pair[1]) / (2 * mp.sinpi(nu))
                        want = complex((1 if M % 2 else -2) * mp.exp(s * nu) / mp.pi * k)
                    got = limit_wavefunction(M, lv.nu, z)
                    assert abs(got - want) <= 1e-12 * abs(want), (M, lv.nu, z)

    def test_quartic_bessel_pair(self):
        # the M = 2 eigenfunctions as C1 J_nu(w) + Y_nu(w), with C1 set by
        # decay on the left line, against scipy's principal-sheet J and Y;
        # |Re z| < 1 keeps w on the principal sheet
        rng = np.random.default_rng(29)
        for lv in nu_spectrum(2, 2)[:5]:
            nu = lv.nu
            c1 = -(math.cos(nu * math.pi) - cmath.exp(3j * nu * math.pi)) \
                / math.sin(nu * math.pi)
            for _ in range(40):
                z = complex(rng.uniform(-0.99, 0.99), rng.uniform(-0.75, 0.15))
                w = nu * cmath.exp(0.5j * math.pi * z)
                want = c1 * special.jv(nu, w) + special.yv(nu, w)
                got = limit_wavefunction(2, nu, z)
                assert abs(got - want) <= 1e-12 * abs(want), (nu, z)

    def test_non_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            limit_wavefunction(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            limit_wavefunction(2, 0.5, 0.0)

    def test_unsupported_M(self):
        for M in (0, -1, 1.5):
            with pytest.raises(ValueError, match="M"):
                limit_wavefunction(M, 0.25, 0.0)
            with pytest.raises(ValueError, match="M"):
                boundary_log_decay(M, 0.25, 2.0)


def _z_samples(rng, n=20):
    # the region the benchmark's limit items sample, |Re z| <= 1.25,
    # Im z in [-0.75, 0.15]; test_whole_arch covers the rest of the arch
    return [complex(rng.uniform(-1.25, 1.25), rng.uniform(-0.75, 0.15))
            for _ in range(n)]


class TestScaledOde:
    def test_first_levels_satisfy_equation(self):
        rng = np.random.default_rng(41)
        for M in (1, 2):
            for lv in nu_spectrum(M, 2)[:3]:
                psi = lambda zz: limit_wavefunction(M, lv.nu, zz)
                for z in _z_samples(rng):
                    assert scaled_ode_residual(M, lv.F, z, psi) <= 1e-6

    def test_whole_arch(self):
        # the first 3M levels of M = 1..4 up to 0.1 from the boundary lines
        # Re z = +-(M+1), well past the benchmark's |Re z| <= 1.25
        rng = np.random.default_rng(43)
        for M in (1, 2, 3, 4):
            for lv in nu_spectrum(M, 2):
                psi = lambda zz: limit_wavefunction(M, lv.nu, zz)
                for _ in range(20):
                    z = complex(rng.uniform(-(M + 0.9), M + 0.9),
                                rng.uniform(-1.0, 0.2))
                    assert scaled_ode_residual(M, lv.F, z, psi) <= 1e-6, (M, lv.nu, z)

    def test_near_node_at_origin(self):
        # the M = 2, nu = 2/3 eigenfunction vanishes at z = 0; there the
        # difference step's rounding noise is largest against |psi''|
        psi = lambda zz: limit_wavefunction(2, 2.0 / 3.0, zz)
        grid = np.linspace(-0.05, 0.05, 11)
        worst = max(scaled_ode_residual(2, 1.0 / 9.0, complex(x, y), psi)
                    for x in grid for y in grid)
        assert worst <= 1e-6

    def test_wrong_level_rejected(self):
        # the nu = 3/2 eigenfunction does not satisfy the F = 1/16 equation
        rng = np.random.default_rng(42)
        psi = lambda zz: limit_wavefunction(1, 1.5, zz)
        bad = max(scaled_ode_residual(1, 1.0 / 16.0, z, psi)
                  for z in _z_samples(rng))
        assert bad > 1e-2


class TestDeformationMap:
    def test_table_row_values(self):
        assert F_of_eps(5.55331, 8.0) == pytest.approx(0.07825, abs=5e-6)

    def test_quartic_row_under_published_labeling(self):
        # the quartic table applies the map at the row label (deformation
        # + 2) and divides by label^2 instead of (label+2)^2
        F = F_of_eps(2.65128, 8.0) * 100.0 / 64.0
        assert F == pytest.approx(0.05035, abs=5e-6)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for M in (1, 2, 3, 4):
            for _ in range(200):
                F = float(10.0 ** rng.uniform(-3, 1))
                eps = float(rng.uniform(0.0, 100.0))
                assert F_of_eps(E_of_F(F, eps, M), eps, M) == pytest.approx(F, rel=1e-13)

    def test_m1_keeps_its_bits(self):
        # the M = 1 forms written out: M = 1 keeps these bits
        for eps in (0.0, 0.37, 8.0, 58.0):
            F = 5.5 ** ((eps + 4.0) / (eps + 2.0)) / (eps + 2.0) ** 2
            E = (0.07 * (eps + 2.0) ** 2) ** ((eps + 2.0) / (eps + 4.0))
            assert F_of_eps(5.5, eps) == F and E_of_F(0.07, eps) == E

    def test_quartic_table_column(self, table2):
        # table 2 solves M = 2 at eps = label - 2 and maps E0 with M = 2
        eps = [lab - 2.0 for lab in table2.labels]
        assert table2.columns["F"] == [F_of_eps(E, e, 2)
                                       for E, e in zip(table2.E0, eps)]

    def test_M_domain(self):
        with pytest.raises(ValueError):
            F_of_eps(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            E_of_F(1.0, 1.0, 0)

    def test_round_trip_spot(self):
        E = E_of_F(0.0625, 38.0)
        assert F_of_eps(E, 38.0) == pytest.approx(0.0625, abs=1e-13)

    @pytest.mark.parametrize("E,epsilon", [(math.nan, 1.0), (math.inf, 1.0),
                                           (1.0, math.nan), (1.0, math.inf)])
    def test_F_non_finite_domain(self, E, epsilon):
        with pytest.raises(ValueError):
            F_of_eps(E, epsilon)

    @pytest.mark.parametrize("F,epsilon", [(math.nan, 1.0), (math.inf, 1.0),
                                           (1.0, math.nan), (1.0, math.inf)])
    def test_E_non_finite_domain(self, F, epsilon):
        with pytest.raises(ValueError):
            E_of_F(F, epsilon)

    def test_shooting_consistency(self, table1):
        # the map applied to the shooting energies reproduces the golden
        # F column to 1e-5
        printed = [0.07825, 0.06998, 0.06742, 0.06617, 0.06542, 0.06493]
        for lab, E, want in zip(table1.labels, table1.E0, printed):
            assert F_of_eps(E, lab) == pytest.approx(want, abs=1e-5)


class TestFirstCorrection:
    def test_ground_value(self):
        assert f1_ground() == pytest.approx(0.144304, abs=5e-7)
        assert 4.0 * f1_ground() == pytest.approx(EULER_GAMMA, rel=1e-15)

    def test_coeffs_bundle(self):
        # F(eps) = f0 + f1/eps + ... for the M = 1 ground level
        assert nu_spectrum(1, 0)[0].F == 1.0 / 16.0
        assert f1_ground() == pytest.approx(EULER_GAMMA / 4.0, rel=1e-15)

    def test_oracle_matches_closed_form(self):
        assert f1_oracle() == pytest.approx(EULER_GAMMA / 4.0, abs=1e-8)
        assert abs(f1_oracle() - f1_ground()) <= 1e-6

    def test_oracle_numerator_is_classical_integral(self):
        # int_0^inf e^{-2t} ln(2t) dt = -gamma/2 under u = 2t
        val, err = quad(lambda t: math.exp(-2.0 * t) * math.log(2.0 * t),
                        0.0, math.inf, limit=200)
        assert err < 1e-7  # scipy's (conservative) estimate
        assert val == pytest.approx(-EULER_GAMMA / 2.0, abs=1e-9)

    def test_oracle_denominator_is_residue(self):
        # clockwise residue of e^{2w}/w^2: -2 pi i * 2 = -4 pi i; verified by
        # a small-circle quadrature (analytic 4 e^{2w} part integrates to 0)
        n = 4000
        total = 0j
        r = 0.35
        for j in range(n):
            th = -2.0 * math.pi * (j + 0.5) / n  # clockwise
            w = r * cmath.exp(1j * th)
            dw = -2j * math.pi * r * cmath.exp(1j * th) / n
            total += (4.0 + 1.0 / (w * w)) * cmath.exp(2.0 * w) * dw
        assert abs(total - (-4j * math.pi)) <= 1e-6
