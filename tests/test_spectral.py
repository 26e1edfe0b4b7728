import math

import numpy as np
import pytest
from scipy.integrate import quad

import ptwell.geometry as geometry
import ptwell.spectral as spectral
from conftest import GOLDEN_ROWS, QUARTIC_LEVELS
from ptwell.geometry import ModelSpec, turning_radius
from ptwell.shooting import MAX_DEPTH, default_seed, solve_level
from ptwell.spectral import certified_levels


def contour_levels(model, k_max, depth, n):
    return spectral._levels(model, spectral._scales(model, k_max), k_max,
                            depth, n)


class TestOracles:
    # oracles that share no code with the collocation

    def test_oscillator(self):
        levels = certified_levels(ModelSpec(1, 0.0), 10, 1e-9)
        assert len(levels) == 11
        for k, (E, rel) in enumerate(levels):
            assert E == pytest.approx(2 * k + 1, rel=1e-12)
            assert 0.0 <= rel <= 1e-9

    def test_hermitian_quartic(self):
        # p^2 - x^4 with PT boundary conditions is isospectral to the
        # Hermitian p^2 + 4x^4 - 2x; a level is either certified within 1e-12
        # of it or not certified at all
        levels = certified_levels(ModelSpec(1, 2.0), max(QUARTIC_LEVELS), 1e-9)
        assert len(levels) > 16
        for k, want in QUARTIC_LEVELS.items():
            if k < len(levels):
                assert levels[k][0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.3, 1.1, 2.6, 3.75])
    def test_matches_shooting(self, M, eps):
        model = ModelSpec(M, eps)
        levels = certified_levels(model, 5, 1e-9)
        assert len(levels) == 6
        for k, (E, _) in enumerate(levels):
            res = solve_level(model, k)
            assert res.converged
            assert abs(res.E.real - E) <= 1e-10 * E


class TestCertification:
    def test_contour_cut_short_is_rejected(self, monkeypatch):
        # ends at a ground-level decay depth of 8 cut the wedges short: two
        # sizes on that contour agree to 1e-12, yet level 0 is 6e-8 off
        model = ModelSpec(1, 0.3)
        true = certified_levels(model, 5, 1e-9)[0][0]
        a, b = (contour_levels(model, 5, 8.0, n) for n in (90, 110))
        assert np.all(np.abs(a - b) <= 1e-12 * b)
        assert abs(b[0] - true) > 1e-8 * true
        monkeypatch.setattr(spectral, "CONTOURS", ((8.0, 90), (40.0, 110)))
        assert certified_levels(model, 5, 1e-9) == []

    def test_walled_contour_is_rejected(self):
        # at M = 3, eps = 54 both contours give 196.034171 as the lowest
        # level: that of the problem between walls in the wedges next to
        # the boundary ones (the M = 1, eps = 58 ground level); shooting
        # gives 48.649358 for k = 0
        model = ModelSpec(3, 54.0)
        a, b = (contour_levels(model, 5, depth, n)
                for depth, n in spectral.CONTOURS)
        assert a[0] == pytest.approx(196.034171, rel=1e-8)
        assert abs(a[0] - b[0]) <= 1e-12 * b[0]
        assert certified_levels(model, 5, 1e-9) == []

    @pytest.mark.parametrize("eps", [18.0, 28.0, 58.0])
    def test_large_deformation_disagrees(self, eps):
        assert certified_levels(ModelSpec(1, eps), 5, 1e-9) == []

    def test_near_branch_point_disagrees(self):
        # the vertex of the hyperbola passes 0.04 rho from the branch point
        # of V at the origin
        assert certified_levels(ModelSpec(1, 0.1), 5, 1e-9) == []

    def test_prefix_within_tol(self):
        # levels ascend, and certification stops at the first level whose
        # contours disagree by more than tol
        model = ModelSpec(2, 1.1)
        levels = certified_levels(model, 5, 1e-9)
        assert len(levels) == 6
        assert [E for E, _ in levels] == sorted(E for E, _ in levels)
        for _, tol in levels:
            m = next((k for k, (_, rel) in enumerate(levels) if rel > tol), 6)
            assert certified_levels(model, 5, tol) == levels[:m]


def _complex_levels(model, scales, k_max, depth, n):
    # _levels by the complex eigensolve of the interior matrix itself
    ev = np.linalg.eigvals(spectral._interior(model, scales, depth, n))
    real = ev[(np.abs(ev.imag) <= spectral.REAL_REL * np.abs(ev)) & (ev.real > 0.0)].real
    return np.sort(real)[:k_max + 1]


SMALL_GRID = [(M, eps) for M in (1, 2, 3) for eps in (0.0, 1.1, 4.5, 8.0)]


class TestRealEigensolve:
    @pytest.mark.parametrize("M,eps", SMALL_GRID)
    def test_interior_centrohermitian(self, M, eps):
        model = ModelSpec(M, eps)
        scales = spectral._scales(model, 5)
        for depth, n in spectral.CONTOURS:
            a = spectral._interior(model, scales, depth, n)
            assert np.linalg.norm(a[::-1, ::-1].conj() - a) <= 1e-13 * np.linalg.norm(a)

    @pytest.mark.parametrize("m", [1, 2, 7, 88, 89, 109])
    def test_lee_unitary(self, m):
        q = spectral._lee(m)
        assert np.abs(q.conj().T @ q - np.eye(m)).max() <= 1e-15

    @pytest.mark.parametrize("M,eps", SMALL_GRID)
    def test_levels_match_complex_eigensolve(self, M, eps):
        model = ModelSpec(M, eps)
        scales = spectral._scales(model, 5)
        count = len(certified_levels(model, 5, 1e-9))
        assert count > 0
        for depth, n in spectral.CONTOURS:
            got = spectral._levels(model, scales, 5, depth, n)[:count]
            want = _complex_levels(model, scales, 5, depth, n)[:count]
            assert np.all(np.abs(got - want) <= 1e-10 * want)

    def test_certified_counts_match_complex_eigensolve(self, monkeypatch):
        points = [(M, eps, (0, 5, 10)[(i + M) % 3]) for M in (1, 2, 3)
                  for i, eps in enumerate(np.linspace(0.0, 40.0, 10))]
        real = [len(certified_levels(ModelSpec(M, eps), k, 1e-9))
                for M, eps, k in points]
        monkeypatch.setattr(spectral, "_levels", _complex_levels)
        assert real == [len(certified_levels(ModelSpec(M, eps), k, 1e-9))
                        for M, eps, k in points]
        assert sum(real) > 50


def _bisection(n, r0, depth, decay=geometry._decay):
    # R of decay_radius by doubling and 40 bisection steps
    target = depth / r0 ** (0.5 * n + 1.0)
    lo, hi = 1.0, 2.0
    while decay(n, hi) < target:
        lo, hi = hi, 2.0 * hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if decay(n, mid) < target else (lo, mid)
    return r0 * hi


class TestEndRadius:
    # geometry.decay_radius, the one rule both solvers end their contours by

    @pytest.mark.parametrize("eps", [9.0, 40.0, 160.0])
    def test_small_target(self, eps):
        # at M = 1 the wall depth is small against r0^(n/2 + 1), and a
        # Newton start above the root steps below T = 1
        n, r0 = 2.0 + eps, spectral._scales(ModelSpec(1, eps), 0)[2]
        got = geometry.decay_radius(n, r0, spectral.WALL_DEPTH)
        assert got == pytest.approx(_bisection(n, r0, spectral.WALL_DEPTH), rel=1e-12)

    @pytest.mark.parametrize("n", [2.0, 8.0, 60.0, 800.0])
    @pytest.mark.parametrize("pt", [1e-7, 1e-9, 1e-12, 1e-15, 1e-20])
    def test_root_near_turning_radius(self, n, pt):
        # p depth/r0^p = pt: below 1e-8 the start rounds to 1 or close and
        # Newton stopped far short; the depth at R, by adaptive quadrature
        # of sqrt(expm1(n log1p(s))) with s = t - 1, reaches depth, by at
        # most 1.5e-6 more, up to the rounding of R
        p, depth = 0.5 * n + 1.0, 15.3
        r0 = (p * depth / pt) ** (1.0 / p)
        d = geometry.decay_radius(n, r0, depth) / r0 - 1.0
        got, _ = quad(lambda s: math.sqrt(math.expm1(n * math.log1p(s))), 0.0, d,
                      epsabs=0.0, epsrel=1e-12)
        rounding = 1.5 * 2.3e-16 / d
        assert 1.0 - rounding <= got * r0 ** p / depth <= 1.0 + 1.5e-6 + rounding

    def test_newton_matches_bisection(self, monkeypatch):
        decay_radius, decay = geometry.decay_radius, geometry._decay
        calls, evals = [], []

        def recorded(n, r0, depth):
            calls.append((n, r0, depth))
            return decay_radius(n, r0, depth)

        def counted(n, T):
            evals[-1] += 1
            return decay(n, T)

        monkeypatch.setattr(spectral, "decay_radius", recorded)
        for M in (1, 2, 3, 4):
            for eps in np.arange(0.0, 61.0, 10.0):
                for k_max in (0, 10):
                    certified_levels(ModelSpec(M, eps), k_max, 1e-9)
        assert {depth for _, _, depth in calls} == {spectral.WALL_DEPTH} | {
            depth for depth, _ in spectral.CONTOURS}
        # shooting's outer radii: its depths from rtol and MAX_DEPTH at the
        # turning radii of the golden rows and the high levels
        points = [(ModelSpec(M, eps), E) for M, eps, E in GOLDEN_ROWS]
        points += [(ModelSpec(M, eps), default_seed(ModelSpec(M, eps), k))
                   for M, eps, ks in ((1, 2.0, range(8, 31)), (2, 0.0, range(8, 27)))
                   for k in ks]
        depths = [0.5 * math.log(1.0 / rtol) + 1.5 for rtol in
                  (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)] + [MAX_DEPTH]
        calls += [(2.0 * model.M + model.epsilon, turning_radius(model, E), depth)
                  for model, E in points for depth in depths]
        monkeypatch.setattr(geometry, "_decay", counted)
        for args in calls:
            evals.append(0)
            R = decay_radius(*args)
            assert evals[-1] <= 8
            assert R == pytest.approx(_bisection(*args), rel=1e-12)
