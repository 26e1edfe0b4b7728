import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airy, gamma, j0, j1, y0, y1

import ptwell.shooting as shooting
import ptwell.wkb as wkb
import _sabotage as sabotage
from _named_sets import ITEM7, LARGE_EPS
from _arch_oracle import action as arch_action
from _arch_oracle import crossing as arch_crossing
from _ray_oracle import _segment as oracle_segment
from _ray_oracle import _wkb_start
from _ray_oracle import level as oracle_level
from conftest import GOLDEN_ROWS, QUARTIC_LEVELS, oscillator_levels
from ptwell.cli import TABLE_GRID
from ptwell.geometry import (ModelSpec, potential_value, turning_points,
                             turning_radius, wedge_angles)
from ptwell.shooting import match_height, scan_levels, solve_level
from ptwell.wkb import wkb_energy_closed, wkb_energy_fourth, wkb_energy_next


def _path(model, E, rtol=shooting.DEFAULT_RTOL):
    """The solve's path for E, shot at E."""
    return shooting._shoot_path(shooting._build_path(model, E, 1.0, rtol))


def _rays(path):
    """(angle, outer radius) of the left and the right ray of `path`."""
    return [(-math.pi - path.theta, path.R), (path.theta, path.R)]


def _u(E, path):
    """psi'/psi at -i ym on `path`, shot at E from the path's counts."""
    return shooting._shoot(E, [path], path.panels)[0][0]


def _ic(model, E, theta, R):
    """The WKB start at R e^(i theta), with V there from potential_value."""
    return shooting._outgoing_ic(model, E, theta, R,
                                 potential_value(model, R * cmath.exp(1j * theta)))


def _u_left(E, path):
    """psi'/psi at -i ym integrated down the left side of `path`, the mirror
    image -conj(x) of the right one, from the path's step counts, with V
    from potential_value: the solver itself integrates only the right side."""
    model, theta = path.model, -math.pi - path.theta
    ex = cmath.exp(1j * theta)
    x_t = turning_points(model, path.E_ref).x_left
    corner = path.corner / abs(x_t) * x_t
    psi, dpsi_ds, _ = _ic(model, E, theta, path.R)
    y = psi, -dpsi_ds / ex
    for (x0, x1), n in zip(((path.R * ex, corner), (corner, -1j * path.ym)), path.panels):
        y = shooting._segment(_straight_leg(model, E, x0, x1), *y, n, path.rtol, ())[:2]
    return y[1] / y[0]


def _depth_points():
    """(model, E) of the golden rows, the high levels and low-M seeds."""
    golden = [(ModelSpec(M, eps), E) for M, eps, E in GOLDEN_ROWS]
    levels = [(1, 2.0, k) for k in range(8, 31)] + [(2, 0.0, k) for k in range(8, 27)]
    levels += [(M, eps, k) for M in (1, 2, 3) for eps in (0.0, 0.5, 1.3, 2.0, 6.0)
               for k in range(6)]
    return golden + [(ModelSpec(M, eps), shooting.default_seed(ModelSpec(M, eps), k))
                     for M, eps, k in levels]


class TestContour:
    def test_hermitian_rays_on_real_axis(self):
        path = _path(ModelSpec(1, 0.0), 1.0)
        assert path.theta == 0.0
        assert -math.pi - path.theta == pytest.approx(-math.pi)
        assert path.ym == 0.0     # matching at the origin

    def test_wedge_substitution(self):
        path = _path(ModelSpec(1, 8.0), 5.5)
        assert path.theta == pytest.approx(-math.pi / 3.0)
        assert -math.pi - path.theta == pytest.approx(-2.0 * math.pi / 3.0)

    def test_radius_shrinks_toward_one(self):
        r_small = _path(ModelSpec(1, 8.0), 5.55).R
        r_large = _path(ModelSpec(1, 58.0), 196.0).R
        assert r_large < r_small
        assert 1.0 < r_large < 2.0

    def test_decay_proxy_invariant(self):
        # Re[(V - E)^(1/2) x] >= 25 at the outer point of every ray
        for model, E in ((ModelSpec(1, 0.0), 1.0), (ModelSpec(1, 8.0), 5.55),
                         (ModelSpec(2, 6.0), 2.65), (ModelSpec(1, 58.0), 196.0)):
            path = _path(model, E)
            for theta, R in _rays(path):
                x0 = R * cmath.exp(1j * theta)
                q = cmath.sqrt(potential_value(model, x0) - E)
                if (q * cmath.exp(1j * theta)).real < 0.0:
                    q = -q
                assert (q * x0).real >= 25.0

    @pytest.mark.parametrize("rtol", [1e-13, shooting.DEFAULT_RTOL, 1e-8, 1e-6])
    def test_outer_radius_reaches_depth(self, rtol):
        # the decay exponent of the WKB start, int Re sqrt(r^N - E e^{2i theta})
        # dr along the ray from the turning radius (V e^{2i theta} = r^N on
        # the wedge centre), by scipy's adaptive quadrature, which shares no
        # code with the solver; at eps = 0 the bound R is taken from is
        # exact, so the depth meets its target there to rounding
        worst = math.inf
        for model, E in _depth_points():
            n, theta = 2.0 * model.M + model.epsilon, wedge_angles(model).theta_right
            R = shooting._ray_radius(model, E, 1.0, rtol)
            w = E * cmath.exp(2j * theta)
            depth, err = quad(lambda r: cmath.sqrt(r ** n - w).real,
                              turning_radius(model, E), R, epsabs=1e-12, epsrel=1e-13,
                              limit=200)
            assert err <= 1e-9
            target = 0.5 * math.log(1.0 / rtol) + 1.5
            worst = min(worst, depth - target * (1.0 - 1e-12))
        assert worst >= 0.0


class TestRayStart:
    # the outer point carries the WKB log-derivative with its first
    # correction, -sqrt(Q) - Q'/(4Q); the straight-ray oracle computes the
    # same start with no code shared

    @pytest.mark.parametrize("M,eps,E", [(1, 0.0, 1.0), (1, 8.0, 5.55),
                                         (1, 58.0, 196.0), (2, 6.0, 2.65),
                                         (3, 1.3, 1.26)])
    def test_matches_oracle_start(self, M, eps, E):
        model = ModelSpec(M, eps)
        path = _path(model, E)
        for theta, R in _rays(path):
            y0, y1, _ = _ic(model, E, theta, R)
            psi, dpsi_dx = _wkb_start(theta, R, M, eps, E)
            want = dpsi_dx / psi
            assert abs(-y1 / (cmath.exp(1j * theta) * y0) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("M,eps,E", [(1, 0.0, 1.0), (1, 8.0, 5.55),
                                         (1, 58.0, 196.0), (2, 6.0, 2.65 + 0.3j),
                                         (3, 1.3, 1.26)])
    def test_start_slope(self, M, eps, E):
        # the third part is the E-derivative of the start's psi'/psi, the
        # Wronskian of psi and psi_E there (psi = 1 at every E); inward it
        # is damped by the growth of psi, so no shot shows it at rtol
        model = ModelSpec(M, eps)
        path = _path(model, abs(E))
        ex = cmath.exp(1j * path.theta)

        def log_derivative(E):
            y0, y1, _ = _ic(model, E, path.theta, path.R)
            return -y1 / (ex * y0)

        h = 1e-4 * abs(E)
        want = (log_derivative(E + h) - log_derivative(E - h)) / (2 * h)
        w = _ic(model, E, path.theta, path.R)[2]
        assert abs(w - want) <= 1e-8 * abs(want)

    @pytest.mark.parametrize("M,eps", [(1, 8.0), (2, 6.0), (1, 58.0)])
    def test_depth_from_rtol_suffices(self, M, eps):
        # a 1.5x outer radius, hence a far deeper start, leaves E0 in place
        model = ModelSpec(M, eps)
        a = solve_level(model, 0, rtol=1e-13)
        b = solve_level(model, 0, rtol=1e-13, radius_factor=1.5)
        assert a.converged and b.converged
        assert abs(a.E - b.E) <= 1e-12 * abs(b.E)


def _projective(a, b):
    """|a0 b1 - a1 b0| / (|a| |b|): the sine of the angle between two states."""
    return abs(a[0] * b[1] - a[1] * b[0]) / (math.hypot(abs(a[0]), abs(a[1]))
                                             * math.hypot(abs(b[0]), abs(b[1])))


def _scaled(model, E, x, y):
    """(psi, dpsi/dx) scaled to (psi, psi'/k), k = sqrt|V(x) - E| + 1."""
    k = math.sqrt(abs(potential_value(model, x) - E)) + 1.0
    return y[0], y[1] / k


def _straight_leg(model, E, x0, x1):
    """(q, length, u) of the segment from x0 to x1, as _segment takes it,
    with V from potential_value."""
    u = (x1 - x0) / abs(x1 - x0)
    return (lambda s: u * u * (potential_value(model, x0 + s * u) - E)), abs(x1 - x0), u


class TestMagnusRay:
    # the ray and the chord run on Chebyshev panels (_transfers); the
    # oracles are closed forms, scipy's Airy and Bessel functions, and
    # scipy's Dormand-Prince DOP853 in _ray_oracle, which shares no code

    @pytest.mark.parametrize("E", [0.5, 2.2, 6.3, 3.7 + 0.4j])
    def test_oscillator_closed_form(self, E):
        # psi = U(-E/2, sqrt(2) x) decays on the right: at the origin
        # psi'/psi = -2 Gamma((3 - E)/4) / Gamma((1 - E)/4); the left solution
        # is its mirror image, integrated down the left side by the test
        model = ModelSpec(1, 0.0)
        path = _path(model, abs(E), 1e-13)
        want = -2.0 * gamma((3.0 - E) / 4.0) / gamma((1.0 - E) / 4.0)
        for u, sign in ((_u(complex(E), path), 1.0),
                        (_u_left(complex(E), path), -1.0)):
            assert abs(u - sign * want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("M,eps,k", [(1, 6.0, 0), (1, 58.0, 0), (2, 56.0, 0),
                                         (1, 2.0, 8), (2, 0.0, 8), (2, 0.0, 11)])
    def test_agrees_with_dp45(self, M, eps, k):
        # the first leg, from the outer point to the turning point, at the level
        model = ModelSpec(M, eps)
        E = solve_level(model, k).E
        path = _path(model, E)
        ex = cmath.exp(1j * path.theta)
        x0, x1 = path.R * ex, turning_points(model, E).x_right
        want = oracle_segment(x0, x1, _wkb_start(path.theta, path.R, M, eps, E),
                              M, eps, E)
        psi, dpsi_ds, _ = _ic(model, E, path.theta, path.R)
        leg = shooting._legs(E, path)[0]
        got = shooting._segment(leg, psi, -dpsi_ds / ex, path.panels[0],
                                shooting.DEFAULT_RTOL, ())
        assert _projective(_scaled(model, E, x1, want),
                           _scaled(model, E, x1, got)) <= 1e-11

    def test_chord_agrees_with_oracle(self):
        # psi'/psi at the match point, carried down the ray and the chord
        model = ModelSpec(1, 2.0)
        E = solve_level(model, 8).E
        path = _path(model, E)
        ex = cmath.exp(1j * path.theta)
        corner, x_match = path.corner * ex, -1j * path.ym
        y = oracle_segment(path.R * ex, corner,
                           _wkb_start(path.theta, path.R, 1, 2.0, E), 1, 2.0, E)
        want = oracle_segment(corner, x_match, y, 1, 2.0, E)
        u = _u(E, path)
        assert _projective(_scaled(model, E, x_match, want),
                           _scaled(model, E, x_match, (1.0, u))) <= 1e-11

    def test_spectral_order_on_bessel(self):
        # psi'' = -e^s psi over [-2, 5] is solved by J0(t) and Y0(t), with
        # t = 2 e^(s/2) and dt/ds = t/2; q has nonzero derivatives of every
        # order.  Halving the panels cuts the error by more than 2^12, where
        # a sixth-order method gains 2^6, down to rounding at 8 panels
        def fundamental(s):
            t = 2.0 * math.exp(s / 2.0)
            return np.array([[j0(t), y0(t)], [-j1(t) * t / 2.0, -y1(t) * t / 2.0]])

        exact = fundamental(5.0) @ np.linalg.inv(fundamental(-2.0))
        errors = []
        for n in (2, 4, 8):
            errors.append(max(
                _projective(shooting._propagate(lambda s: -np.exp(s - 2.0) + 0j, 7.0,
                                                1.0 - column, 0.0 + column, n),
                            exact[:, column])
                for column in range(2)))
        assert errors[2] <= 1e-14
        assert errors[0] / errors[1] >= 2.0 ** 12

    def test_constant_q_closed_form(self):
        # for constant q = k^2 the transfer matrix over L is
        # [[cosh kL, sinh kL / k], [k sinh kL, cosh kL]]: growing, oscillating
        # and in between, on one panel and on several
        for qv in (4.0, -9.0, 2.0 - 3.0j, 1e-3, 30.0j):
            k, length = cmath.sqrt(qv), 1.7
            want = np.array([cmath.cosh(k * length), cmath.sinh(k * length) / k,
                             k * cmath.sinh(k * length), cmath.cosh(k * length)])
            for n, t in zip((1, 2, 5), shooting._transfers(
                    [(lambda s: np.full(s.shape, complex(qv)), length, (1, 2, 5))])):
                t = np.array(t[:4])
                wedge = np.outer(t, want) - np.outer(want, t)
                assert np.linalg.norm(wedge) / (math.sqrt(2.0) * np.linalg.norm(t)
                                                * np.linalg.norm(want)) <= 1e-14, (qv, n)

    def test_turning_point_matches_airy(self):
        # psi'' = s psi from s = -10, in the allowed region, across the
        # turning point at 0 to s = 2, in the forbidden one (23 radians of
        # WKB phase): Ai and Bi each arrive at their own values
        ai0, aip0, bi0, bip0 = airy(-10.0)
        ai1, aip1, bi1, bip1 = airy(2.0)
        for n in (8, 16):
            for start, end in (((ai0, aip0), (ai1, aip1)), ((bi0, bip0), (bi1, bip1))):
                y = shooting._propagate(lambda s: s - 10.0 + 0j, 12.0, *start, n)
                assert _projective(y, end) <= 1e-13, n

    def test_step_matrices_of_unequal_size(self):
        # psi'' = k^2 psi on the first 184 of 368 panels of [0, 1], rows of
        # the node array, growing by e^5 each and e^920 in all, then
        # psi'' = 0 on [1/2, 1]: (psi, psi') ends along (1 + k/2, k).
        # Unscaled, the product overflows; divided by its largest entry
        # after each product, it stays finite and keeps the free panels
        k = 1840.0

        def q(s):
            grow = np.arange(s.shape[0])[:, None] < s.shape[0] // 2
            return np.where(grow, k * k, 0.0) + 0.0 * s + 0j

        y = shooting._propagate(q, 1.0, 1.0, 0.0, 368)
        assert _projective(y, (1.0 + 0.5 * k, k)) <= 1e-14

    def test_batched_product_of_unequal_blocks(self):
        # counts of unequal sizes, solved in one batch, give the ordered
        # product of their panels' transfer matrices, later panel on the
        # left, each panel a one-panel leg of its own; each count also gives
        # exactly what it gives alone
        def q(s):
            return (3.0 - 2.0j) * np.cos(2.0 * s) + (1.0 + 4.0j) * s

        counts = (1, 3, 17, 64, 100)
        got = shooting._transfers([(q, 2.0, counts)])
        for n, t in zip(counts, got):
            h = 2.0 / n
            want = np.eye(2, dtype=complex)
            for i in range(n):
                panel, = shooting._transfers([(lambda s: q(s + i * h), h, (1,))])
                want = np.array(panel[:4]).reshape(2, 2) @ want
                want /= np.abs(want).max()
            assert shooting._transfers([(q, 2.0, (n,))]) == [t]
            t = np.array(t[:4]).reshape(2, 2) / np.linalg.norm(t[:4])
            assert np.linalg.norm(t - want / np.linalg.norm(want)) <= 1e-13

    def test_batched_blocks_of_unequal_growth(self):
        # the two halves of test_step_matrices_of_unequal_size as two legs of
        # one batch: every panel of the first grows by e^5, and the free
        # panels of the second would underflow under a scale common to both
        k = 1840.0
        grow, free = shooting._transfers([
            (lambda s: np.full(s.shape, k * k + 0j), 0.5, (184,)),
            (lambda s: np.zeros(s.shape, complex), 0.5, (17,))])
        y = np.array(free[:4]).reshape(2, 2) @ np.array(grow[:4]).reshape(2, 2) @ [1.0, 0.0]
        assert _projective(y, (1.0 + 0.5 * k, k)) <= 1e-14

    def test_step_cap_raises(self, monkeypatch):
        # a count past the panel cap raises before any node is built, and so
        # does a leg whose doubling runs past it
        with pytest.raises(shooting.ShootingError, match="panels"):
            shooting._transfers([(lambda s: 1 / 0, 1.0, (shooting._MAX_PANELS + 1,))])
        monkeypatch.setattr(shooting, "_MAX_PANELS", 4)
        model = ModelSpec(2, 0.0)
        with pytest.raises(shooting.ShootingError, match="panels"):
            _u(172.6 + 0j, _path(model, 172.6))

    def test_non_finite_q_raises(self):
        with pytest.raises(shooting.ShootingError), np.errstate(invalid="ignore"):
            shooting._propagate(lambda s: np.full(s.shape, complex(math.nan)),
                                1.0, 1.0, 0.0, 64)
        # a non-finite energy raises before numpy sees it: no RuntimeWarning
        model = ModelSpec(1, 8.0)
        path = _path(model, 5.55)
        for E in (math.inf, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(shooting.ShootingError):
                    _u(complex(E), path)

    @pytest.mark.parametrize("y", [(1.0, 1.0), (math.nan, 0.0)])
    def test_lost_state_raises(self, y):
        # a transfer matrix that maps the state to 0, or a non-finite state,
        # leaves no scale to divide by: ShootingError, not ZeroDivisionError
        t = [1.0, -1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 1.0]
        with pytest.raises(shooting.ShootingError, match="lost"):
            shooting._propagate(None, 1.0, *y, 1, t)

    def test_singular_panel_raises(self, monkeypatch):
        # a LinAlgError from the batched solve is a ShootingError, which a
        # solve reports as an unconverged level
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(shooting.np.linalg, "solve", singular)
        with pytest.raises(shooting.ShootingError, match="singular"):
            shooting._transfers([(lambda s: np.ones(s.shape, complex), 1.0, (2,))])
        assert not solve_level(ModelSpec(1, 8.0), 0).converged


class TestLogDerivative:
    # psi'/psi at the match point -i y*, which is the origin at M = 1, eps = 0

    def test_even_ground_state(self):
        # psi'(0) = 0 for the harmonic ground state reached from either side
        model = ModelSpec(1, 0.0)
        uR = _u(1.0, _path(model, 1.0))
        assert abs(uR) <= 1e-6

    def test_parity(self):
        model = ModelSpec(1, 0.0)
        path = _path(model, 1.0)
        assert abs(_u_left(1.0, path) + _u(1.0, path)) <= 1e-6

    def test_matching_at_golden_energy(self):
        model = ModelSpec(1, 8.0)
        path = _path(model, 5.55331)
        uL = _u_left(5.55331, path)
        uR = _u(5.55331, path)
        assert abs(uL - uR) <= 1e-5


class TestMismatch:
    # the solver's matching defect on the path built for E

    def test_zero_at_eigenvalue(self):
        model = ModelSpec(1, 0.0)
        assert abs(shooting._matching_defect(1.0, _path(model, 1.0))[0]) <= 1e-6

    def test_bounded_away_between_levels(self):
        model = ModelSpec(1, 0.0)
        assert abs(shooting._matching_defect(2.0, _path(model, 2.0))[0]) >= 0.1

    def test_quartic_golden_row(self):
        # golden table row label 8 (deformation 6): E listed as 2.65128
        model = ModelSpec(2, 6.0)
        assert abs(shooting._matching_defect(2.65128, _path(model, 2.65128))[0]) <= 1e-5


class TestOneRayDefect:
    # only the right side is integrated: u_L(E) = -conj(u_R(conj E))

    @pytest.fixture
    def shots(self, monkeypatch):
        """(energies of the defects, energies of the right-side shots of
        one path, which a build's shot is not)."""
        defects, shots = [], []
        shoot, defect = shooting._shoot, shooting._matching_defect

        def counted_shot(E, paths, panels):
            if len(paths) == 1:
                shots.append(E)
            return shoot(E, paths, panels)

        def counted_defect(E, path):
            defects.append(E)
            return defect(E, path)

        monkeypatch.setattr(shooting, "_shoot", counted_shot)
        monkeypatch.setattr(shooting, "_matching_defect", counted_defect)
        return defects, shots

    @pytest.mark.parametrize("k,M,eps", [
        (k, M, eps) for k in (0, 3)
        for M, eps in ((1, 0.0), (1, 8.0), (2, 6.0), (2, 56.0), (3, 1.3))
    ] + [(24, 1, 2.0), (30, 1, 2.0), (20, 2, 0.0), (26, 2, 0.0)])
    def test_equals_two_ray_defect(self, M, eps, k):
        # the one-shot defect against the two-ray one, its left side
        # integrated down its own legs on the solve's counts
        model = ModelSpec(M, eps)
        E = shooting.default_seed(model, k)
        path = _path(model, E)
        w = shooting._defect(E, path, *shooting._shoot(E, [path], path.panels)[0][:2])[0]
        uL, uR = _u_left(E, path), _u(E, path)
        assert type(w) is float
        assert abs(w - (uL - uR) / ((1 + abs(uL)) * (1 + abs(uR)))) <= 1e-12

    @pytest.mark.parametrize("M,eps,k,im", [(1, 0.0, 0, 0.3), (1, 8.0, 1, 0.2),
                                            (2, 6.0, 2, 0.5), (2, 56.0, 0, 0.4),
                                            (3, 1.3, 3, 0.1), (1, 2.0, 12, 0.4)])
    def test_left_mirror_at_complex_energy(self, M, eps, k, im):
        # PT symmetry: the left side at E is the mirror of the right side at
        # conj E, the left side integrated down its own legs
        model = ModelSpec(M, eps)
        E0 = shooting.default_seed(model, k)
        E = complex(E0, im * math.sqrt(E0))
        path = _path(model, abs(E))
        uL = _u_left(E, path)
        assert abs(uL + _u(E.conjugate(), path).conjugate()) <= 1e-13 * abs(uL)

    @pytest.mark.parametrize("M,eps,E", [(1, 2.0, 6.0), (1, 8.0, 5.55),
                                         (1, 58.0, 196.0), (2, 6.0, 2.65),
                                         (2, 56.0, 86.3), (3, 1.3, 10.5)])
    def test_mirrored_radius(self, M, eps, E):
        # one outer radius serves both rays: radius by radius, the decay
        # rate on the left ray is the right ray's, so R does not depend on
        # the side
        model = ModelSpec(M, eps)
        path = _path(model, E)
        theta_left = -math.pi - path.theta
        assert theta_left == wedge_angles(model).theta_left
        for r in np.linspace(turning_radius(model, E), path.R, 7):
            left, right = (cmath.sqrt((potential_value(model, r * cmath.exp(1j * t)) - E)
                                      * cmath.exp(2j * t)).real
                           for t in (theta_left, path.theta))
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)
        assert shooting._ray_radius(model, E, 1.0, shooting.DEFAULT_RTOL) == path.R

    def test_real_seed_integrates_no_left_ray(self, shots):
        # one real shot per defect, but none for the defect at the build's
        # energy, where the build's shot stands in
        defects, energies = shots
        res = solve_level(ModelSpec(1, 8.0), 0)
        assert res.converged
        assert type(res.E) is float
        assert res.E == pytest.approx(5.553310025131625, rel=1e-12)
        assert all(type(E) is float for E in energies)
        assert len(energies) < len(defects)

    @pytest.mark.parametrize("seed", [5.55 + 0.01j, complex(5.55, -1e-300),
                                      complex(5.55, math.nan), complex(5.55, math.inf)])
    def test_complex_seed_refused(self, shots, seed):
        # Newton runs on the real axis, where the spectrum lies: a seed off
        # it is refused before any shot
        with pytest.raises(ValueError, match="real"):
            solve_level(ModelSpec(1, 8.0), 0, seed=seed)
        assert shots == ([], [])


class TestRootSeed:
    # re-seeded with its own root, a level's last Newton step rounds to
    # nothing or spans an ulp; the level must still be reported converged

    @pytest.mark.parametrize("M,eps,tol", [(1, 2.0, 1e-9), (1, 8.0, 1e-12),
                                           (1, 8.0, 1e-9)])
    def test_reseed_near_root(self, monkeypatch, M, eps, tol):
        model = ModelSpec(M, eps)
        root = solve_level(model, 0, tol=tol).E
        calls, shots = [], []
        defect, shoot = shooting._matching_defect, shooting._shoot

        def recorded(E, path):
            calls.append((E, path))
            return defect(E, path)

        def recorded_shot(E, paths, panels):
            shots.extend((E, path.E_ref, path.corner) for path in paths)
            return shoot(E, paths, panels)

        monkeypatch.setattr(shooting, "_matching_defect", recorded)
        monkeypatch.setattr(shooting, "_shoot", recorded_shot)
        for ulps in range(-6, 7):
            calls.clear()
            shots.clear()
            res = solve_level(model, 0, seed=root + ulps * math.ulp(root), tol=tol)
            assert res.converged, ulps
            assert res.E == pytest.approx(root, rel=1e-12)
            # a step that leaves E unchanged, or is below tol, stops without
            # evaluating again; a step back to the seed takes the build's
            # shot: no energy is shot twice on one path
            assert all(a != b for a, b in zip(calls, calls[1:]))
            assert len(set(shots)) == len(shots)


MATCH_CASES = [(1, 2.0), (1, 58.0), (2, 6.0), (2, 56.0), (3, 1.3), (3, 54.0)]


def _arch(model, eta):
    """_arch_integral's (J(eta), slope) on the model's own rule."""
    return shooting._arch_integral(model, eta, shooting._arch_rule(model))


class TestImActionToAxis:
    # G(y), the imaginary part of the action from x_t to -i y, in the
    # closed form match_height zeroes: r_t sqrt(E) (sin(eps pi/(2N))
    # B(1/N, 3/2)/N - J(y/r_t)), J by _arch_integral, on heights up to
    # sin(eps pi/(2N)) r_t, the bound on the root its rule is built for
    @pytest.mark.parametrize("M,eps", MATCH_CASES)
    @pytest.mark.parametrize("k", [0, 3])
    def test_equals_scalar_loop(self, M, eps, k):
        # against the arch oracle's segment action (_arch_oracle.py), a
        # scalar loop over a rule exact at the turning point's square root
        model = ModelSpec(M, eps)
        E = shooting.default_seed(model, k)
        r, n = turning_radius(model, E), 2.0 * M + eps
        top = math.sin(0.5 * math.pi * eps / n)
        scale = r * math.sqrt(E)
        arch = top * gamma(1.0 / n) * gamma(1.5) / (n * gamma(1.5 + 1.0 / n))
        for eta in list(np.linspace(0.0, top, 26)[1:]) + [match_height(model, E) / r]:
            got = scale * (arch - _arch(model, float(eta))[0])
            assert abs(got - arch_action(M, eps, E, r * eta)) <= 1e-13 * scale

    @pytest.mark.parametrize("M,eps", MATCH_CASES + [(4, 20.0), (4, 58.0), (6, 20.0)])
    def test_slope_is_derivative(self, M, eps):
        # dJ/deta = sqrt(1 - (-1)^M eta^N), against a central difference of J
        # and against quad
        model = ModelSpec(M, eps)
        n, sign = 2 * M + eps, (-1) ** M
        top = math.sin(0.5 * math.pi * eps / n)
        for eta in np.linspace(0.05, 0.95, 7) * top:
            got, slope = _arch(model, eta)
            assert slope == pytest.approx(math.sqrt(1.0 - sign * eta ** n), rel=1e-15)
            want = quad(lambda s: math.sqrt(1.0 - sign * s ** n), 0.0, eta,
                        epsabs=0.0, epsrel=2e-14)[0]
            assert got == pytest.approx(want, rel=1e-13)
            h = 1e-5 * eta
            diff = (_arch(model, eta + h)[0] - _arch(model, eta - h)[0]) / (2.0 * h)
            assert diff == pytest.approx(slope, rel=1e-6)


def _counted_height(monkeypatch, model, E):
    """(match_height(model, E), the number of J evaluations it makes)."""
    calls = []
    integral = shooting._arch_integral

    def counted(model, eta, rule):
        calls.append(eta)
        return integral(model, eta, rule)

    monkeypatch.setattr(shooting, "_arch_integral", counted)
    y = match_height(model, E)
    monkeypatch.setattr(shooting, "_arch_integral", integral)
    return y, len(calls)


class TestMatchHeightRoot:
    # against the arch oracle (_arch_oracle.py), which integrates along the
    # straight segment by a rule exact at x_t, tracks the branch along its
    # nodes and bisects inside (0, r_t) with no code shared

    @pytest.mark.parametrize("M,eps", MATCH_CASES + [
        (M, eps) for M in range(1, 7)
        for eps in (1e-3, 0.1, 2.0, 20.0, 58.0, 800.0, 3200.0)
        if (M, eps) not in MATCH_CASES])
    @pytest.mark.parametrize("k", [0, 3])
    def test_equals_bisection(self, monkeypatch, M, eps, k):
        # Newton takes at most 7 evaluations of J to the root, inside the
        # turning radius
        model = ModelSpec(M, eps)
        E = shooting.default_seed(model, k)
        r = turning_radius(model, E)
        got, calls = _counted_height(monkeypatch, model, E)
        assert calls <= 7
        assert 0.0 < got < r
        assert abs(got - arch_crossing(M, eps, E)) <= 1e-13 * max(1.0, r)


def _window(model, k):
    # log-midpoints of the next-order WKB energies of level k's neighbours
    w = [wkb_energy_next(j, model.epsilon, model.M) for j in (k - 1, k, k + 1) if j >= 0]
    return (math.sqrt(w[0] * w[1]) if k else 0.0), math.sqrt(w[-2] * w[-1])


class TestWkbWindow:
    @pytest.mark.parametrize("M,eps", [(1, 0.0), (1, 2.0), (1, 58.0), (2, 1.0),
                                       (3, 3.9), (2, 6.0), (4, 58.0)])
    @pytest.mark.parametrize("k", [0, 1, 5, 24])
    def test_bohr_sommerfeld_neighbours(self, M, eps, k):
        model = ModelSpec(M, eps)
        lo, hi = shooting._wkb_window(model, k)
        assert (lo, hi) == pytest.approx(_window(model, k), rel=1e-14)
        w = [wkb_energy_next(j, eps, M) for j in range(k + 2)]
        if k == 0:
            assert lo == 0.0
        else:
            assert w[k - 1] < lo < w[k]
        assert w[k] < hi < w[k + 1]

    def test_finite_at_limit_scale_seed(self):
        # where default_seed is the solvable-limit scale the bracket is the
        # same next-order one; at (2, 6) it holds the levels 2.6512775
        # (k = 0) and 45.906028 (k = 3)
        model = ModelSpec(2, 6.0)
        for k, E in ((0, 2.6512775), (3, 45.90602785378239)):
            lo, hi = shooting._wkb_window(model, k)
            assert 0.0 <= lo < E < hi < math.inf

    def test_ends_runaway_secant(self, monkeypatch, caplog):
        # a defect with the sign (-1)^k below its only root, which lies 30%
        # above the seed, outside the bracket: every iterate is below the
        # level, so the bracket narrows from below until it is tol wide
        model = ModelSpec(1, 2.0)
        root = 1.3 * shooting.default_seed(model, 24)
        monkeypatch.setattr(shooting, "_matching_defect",
                            lambda E, path: ((root - E) / root, -1.0 / root))
        res = solve_level(model, 24)
        lo, hi = shooting._wkb_window(model, 24)
        assert not res.converged
        assert hi * (1.0 - 1e-9) <= res.E < hi
        assert res.iterations <= 40
        assert "no sign change" in caplog.text

    def test_converging_iterates_stay_inside(self, monkeypatch):
        # with no level certified by the spectral engine, the scans shoot
        # every level from its continuation seed
        monkeypatch.setattr(shooting, "certified_levels", lambda *args: [])
        solves = []
        # scan_levels shoots through solve_level
        solve, defect = shooting.solve_level, shooting._matching_defect

        def recorded_solve(model, k, seed=None, *args):
            energies = []
            solves.append((model, k, seed, energies))
            res = solve(model, k, seed, *args)
            assert res.converged, (model, k)
            return res

        def recorded_defect(E, path):
            solves[-1][3].append(E)
            return defect(E, path)

        monkeypatch.setattr(shooting, "solve_level", recorded_solve)
        monkeypatch.setattr(shooting, "_matching_defect", recorded_defect)
        # the 12 distinct solves of the golden tables (table 3 repeats M = 1)
        for M in (1, 2):
            for label in TABLE_GRID:
                shooting.solve_level(ModelSpec(M, label - (2 * M - 2)), 0)
        for M in (1, 2):
            scan_levels([ModelSpec(M, eps) for eps in (0.0, 1.0, 2.0, 3.0)], 5)
        assert len(solves) == 12 + 2 * 4 * 6
        # every defect after the seed's lies in the bracket, at every
        # (M, eps); the check path is shot at one of these energies
        for model, k, seed, energies in solves:
            lo, hi = _window(model, k)
            assert energies and all(lo <= E <= hi for E in energies[1:]), (model, k)


class TestSignBracket:
    # the spectrum is real, so on the real axis the defect changes sign only
    # at a level, and below level j it has the sign (-1)^j on every path:
    # the bracket narrows by it, and a level's label does not depend on
    # its seed

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 2.0, 8.0, 58.0])
    def test_sign_below_each_level(self, M, eps):
        # at the lower window edge of levels 1..10, and at a quarter of the
        # next-order ground energy, below level 0 (which lies within
        # 0.55..1.14 of it)
        model = ModelSpec(M, eps)
        for j in range(11):
            E = shooting._wkb_window(model, j)[0] if j else 0.25 * wkb_energy_next(0, eps, M)
            w = shooting._matching_defect(E, _path(model, E))[0]
            assert type(w) is float and w != 0.0
            assert (w > 0.0) == (j % 2 == 0), (j, E, w)

    @pytest.mark.parametrize("M,eps,k,E_ref", [
        (3, 20.0, 2, 86.824345056556),      # converged to level 1, 36.571
        (2, 28.0, 8, 2960.7136086),         # to level 7, 2324.49
        (4, 4.0, 4, 40.146886831084),       # to level 3, 26.221
        (4, 58.0, 4, 1203.93839208865)])    # to level 5, 1723.07
    def test_labels_against_ray_oracle(self, M, eps, k, E_ref):
        # from the solvable-limit seed at M >= 2, eps >= 4, where no bracket
        # held the iterates, these converged, flagged converged, to the
        # neighbouring level in the comment
        res = solve_level(ModelSpec(M, eps), k)
        assert res.converged
        E = oracle_level(M, eps, E_ref * (1.0 - 1e-8), E_ref * (1.0 + 1e-8))
        assert abs(res.E - E) <= 1e-9 * E


class TestSolveLevel:
    def test_oscillator_third_level(self):
        res = solve_level(ModelSpec(1, 0.0), 3)
        assert res.converged
        assert res.E == pytest.approx(7.0, abs=1e-8)

    def test_table_one_row(self):
        res = solve_level(ModelSpec(1, 18.0), 0)
        assert res.converged
        assert res.E == pytest.approx(20.67629, abs=1e-5)

    def test_table_two_last_row(self):
        # row label 58 of the quartic table (deformation 56); the eigenvalue
        # converges to 86.317638, about 2e-5 below the printed 86.31766, which
        # is a misprint: the independent straight-ray oracle (_ray_oracle.py,
        # test_ray_oracle.py) gives 86.31763817, i.e. 86.31764 to five places
        res = solve_level(ModelSpec(2, 56.0), 0)
        assert res.converged
        assert res.E == pytest.approx(86.31766, abs=1e-4)
        assert res.E == pytest.approx(86.3176382, abs=2e-6)

    def test_reality_invariant(self):
        for model, k in ((ModelSpec(1, 2.5), 1), (ModelSpec(1, 8.0), 0),
                         (ModelSpec(2, 6.0), 0)):
            res = solve_level(model, k)
            assert res.converged
            assert type(res.E) is float
            assert res.residual <= 1e-7

    def test_discretization_independence(self):
        # the eigenvalue from an independent run at tol = 1e-12 with doubled
        # outer radius pins the default-settings result to 1e-7 relative
        for eps in (1.0, 2.0):
            model = ModelSpec(1, eps)
            a = solve_level(model, 0)
            b = solve_level(model, 0, tol=1e-12, rtol=5e-12, radius_factor=2.0)
            assert a.converged and b.converged
            assert abs(a.E - b.E) <= 1e-7 * abs(b.E)

    def test_tight_tolerances_at_m3(self):
        # at tol = 1e-12 and rtol = 1e-13 the solve returns a level, not an
        # exception from a zero scale in _propagate
        res = solve_level(ModelSpec(3, 8.0), 9, seed=279.1894151783502,
                          tol=1e-12, rtol=1e-13)
        assert res.converged
        assert res.E == pytest.approx(279.189415, abs=1e-6)

    @pytest.mark.parametrize("rtol", [0.0, 0.5, 1e-14, 1e-5, math.nan])
    def test_rtol_domain(self, rtol):
        # rtol = 0 overflowed the step control; 0.5 "converged" to 0.99973
        with pytest.raises(ValueError):
            solve_level(ModelSpec(1, 0.0), 0, rtol=rtol)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1e-14, 1e-5, math.nan])
    def test_tol_domain(self, tol):
        # nan, 0 and -1 ran 15 iterations and reported a converging level
        # unconverged
        with pytest.raises(ValueError):
            solve_level(ModelSpec(1, 2.0), 0, tol=tol)
        with pytest.raises(ValueError):
            scan_levels([ModelSpec(1, 2.0)], 0, tol=tol)

    @pytest.mark.parametrize("k", [-1, 2.5, 2.0, math.nan, "2"])
    def test_level_index_domain(self, monkeypatch, k):
        # 2.5 and 2.0 raised TypeError from range in _wkb_window, and
        # scan_levels ran its eigensolves before a slice raised TypeError;
        # both refuse them before any work
        def no_work(*args):
            raise AssertionError("work done before the index was checked")

        monkeypatch.setattr(shooting, "certified_levels", no_work)
        monkeypatch.setattr(shooting, "_wkb_window", no_work)
        with pytest.raises(ValueError, match="integer"):
            solve_level(ModelSpec(1, 2.0), k)
        with pytest.raises(ValueError, match="integer"):
            scan_levels([ModelSpec(1, 2.0)], k)

    def test_numpy_level_index(self):
        # a numpy integer is an integer
        assert solve_level(ModelSpec(1, 8.0), np.int64(0)).converged
        assert len(scan_levels([ModelSpec(1, 8.0)], np.int64(1))) == 2

    @pytest.mark.parametrize("seed", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_non_finite_seed(self, seed):
        # the path is built for |seed|; a nan seed used to return unconverged
        with pytest.raises(ValueError):
            solve_level(ModelSpec(1, 2.0), 0, seed=seed)

    @pytest.mark.parametrize("M,eps", [(1, 0.0), (1, 2.0), (4, 58.0)])
    @pytest.mark.parametrize("seed", [1e30, 1e300])
    def test_huge_seed_fails_softly(self, M, eps, seed):
        # the outer radius lies within rounding of the turning radius there;
        # its Newton search once took the log of 0
        res = solve_level(ModelSpec(M, eps), 0, seed=seed)
        assert not res.converged

    @pytest.mark.parametrize("factor", [0.0, -1.0, 0.5, math.inf, math.nan])
    def test_radius_factor_domain(self, factor):
        # 0, -1 and 0.5 "converged" to 7.694, 8.133 and 5.5063, not 5.55331
        with pytest.raises(ValueError):
            solve_level(ModelSpec(1, 8.0), 0, radius_factor=factor)

    @pytest.mark.parametrize("M,eps,k,coeffs", [
        (1, 0.0, 0, [0.0, 0.0, 1.0]),
        (1, 2.0, 0, [0.0, -2.0, 0.0, 0.0, 4.0]),
        (2, 0.0, 3, [0.0, 0.0, 0.0, 0.0, 1.0])])
    @pytest.mark.parametrize("factor", [1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("rtol", [1e-8, 1e-11, 1e-13])
    def test_enlarged_radius_converges(self, M, eps, k, coeffs, factor, rtol):
        # the ray of the oscillator at radius factor 3 or 4 agreed in its
        # first pair with a gap at rounding level, which extrapolated to a
        # stored count of 8, and the next shot overflowed
        E = oscillator_levels(coeffs, k + 1)[k]
        res = solve_level(ModelSpec(M, eps), k, rtol=rtol, radius_factor=factor)
        assert res.converged
        assert abs(res.E - E) <= 1e-9 * E


class TestSolvePath:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"match_height": 0, "defect": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(shooting, "match_height",
                            counted("match_height", shooting.match_height))
        monkeypatch.setattr(shooting, "_matching_defect",
                            counted("defect", shooting._matching_defect))
        return counts

    def test_built_once_near_seed(self, counts):
        res = solve_level(ModelSpec(1, 58.0), 0)
        assert res.converged
        assert res.E == pytest.approx(196.0341706067545, rel=1e-12)
        assert counts["match_height"] == 1
        assert counts["defect"] > 1

    def test_rebuilt_after_large_move(self, counts):
        model = ModelSpec(2, 6.0)
        seed = shooting.default_seed(model, 3)
        res = solve_level(model, 3)
        assert res.converged
        assert abs(res.E - seed) > 0.3 * seed
        assert res.E == pytest.approx(45.90602785378239, rel=1e-10)
        assert counts["match_height"] >= 2
        assert counts["match_height"] < counts["defect"]

    def test_check_path_reaches_match_point(self):
        # rays that turn inside the turning radius: same psi'/psi
        model = ModelSpec(1, 8.0)
        E = 5.553310025131625
        path = _path(model, E)
        check = shooting._check_path(path)
        assert check.corner < path.corner
        for u_side in (_u, _u_left):
            u = u_side(E, path)
            u_check = u_side(E, check)
            assert abs(u_check - u) <= 1e-9 * abs(u)

    @pytest.mark.parametrize("k,E_ref", sorted(QUARTIC_LEVELS.items()))
    def test_check_path_flags_inaccurate_levels(self, k, E_ref):
        # the check path is what flags an inaccurate level
        res = solve_level(ModelSpec(1, 2.0), k)
        assert res.converged == (abs(res.E - E_ref) <= 1e-6 * E_ref)


    @pytest.mark.parametrize("M,eps,k", [(1, 58.0, 0), (2, 0.0, 20)])
    def test_two_passes_per_leg(self, monkeypatch, M, eps, k):
        # the build's shot finishes each leg of the path and of its check
        # path, which it carries, in two passes from _phase_count, and the
        # panel counts it keeps let every later integration on the path
        # finish each leg in two passes too.  The build's shot gives the
        # first Newton step and the last step is not shot, so the solve
        # shoots once per iteration
        model = ModelSpec(M, eps)
        propagate = shooting._propagate
        shoot_path, shoot = shooting._shoot_path, shooting._shoot
        passes, calls = [0], []

        def counted(*args):
            passes[0] += 1
            return propagate(*args)

        def recorded_build(path):
            before = passes[0]
            out = shoot_path(path)
            calls.append((path, passes[0] - before))
            return out

        def recorded_shot(E, paths, panels):
            before = passes[0]
            out = shoot(E, paths, panels)
            if len(paths) == 1:     # not the build's shot
                calls.append((paths[0], passes[0] - before))
            return out

        monkeypatch.setattr(shooting, "_propagate", counted)
        monkeypatch.setattr(shooting, "_shoot_path", recorded_build)
        monkeypatch.setattr(shooting, "_shoot", recorded_shot)
        res = solve_level(model, k)
        assert res.converged
        assert all(path.corner == turning_radius(model, path.E_ref) for path, _ in calls)
        assert len(calls) == res.iterations
        assert [n for _, n in calls] == [8] + [4] * (len(calls) - 1)

    def test_stored_counts_still_doubled(self):
        # started from 1 panel on each leg, the doubling reaches the same u
        model = ModelSpec(1, 58.0)
        E = 196.0341706067545
        path = _path(model, E)
        u = _u(E, path)
        assert abs(_u(E, replace(path, panels=(1, 1))) - u) <= 1e-12 * abs(u)

    @pytest.mark.parametrize("M,eps,k,coeffs,tol", [
        (2, 0.0, 20, [0, 0, 0, 0, 1], 1e-9),
        # stale: this bound dates from the chord that started at the turning
        # radius, whose rounding floor moved u by up to 4e-7 between start
        # counts in the sixth-order regime; the chord from the turning point
        # moves it by 3e-13, and the bound is kept as it was
        (1, 2.0, 30, [0, -2, 0, 0, 4], 1e-6)])
    def test_coarse_start_not_taken_for_floor(self, M, eps, k, coeffs, tol):
        # from 1 panel, the first doublings shrink O(1) gaps by less than 8;
        # they must be doubled on, not returned as the rounding floor
        model = ModelSpec(M, eps)
        E = oscillator_levels(coeffs, k + 1)[k]
        path = _path(model, E)
        u = _u(E, path)
        try:
            coarse = _u(E, replace(path, panels=(1, 1)))
        except shooting.ShootingError:
            return
        assert abs(coarse - u) / ((1 + abs(coarse)) * (1 + abs(u))) <= tol

    @staticmethod
    def _chord_passes(monkeypatch, model, path):
        """Panel counts of the passes on the chord of `path`, as they run,
        with their results."""
        _, length, *_ = shooting._legs(path.E_ref, path)[1]
        passes = []
        propagate = shooting._propagate

        def recorded(q, s1, y0, y1, n, t=None):
            y = propagate(q, s1, y0, y1, n, t)
            if s1 == length:
                passes.append((n, y))
            return y

        monkeypatch.setattr(shooting, "_propagate", recorded)
        return passes

    def test_count_from_first_pair(self, monkeypatch):
        # at M = 1, eps = 2, k = 9 the chord started from one panel takes
        # more than two passes, and its first pair is far apart; that pair
        # bounds the count it returns, by the gap's fall as n^-_DEGREE
        model = ModelSpec(1, 2.0)
        E = shooting.default_seed(model, 9)
        path = _path(model, E)
        rtol = shooting.DEFAULT_RTOL
        ray, chord = shooting._legs(E, path)
        ex = cmath.exp(1j * path.theta)
        psi, dpsi_ds, _ = _ic(model, E, path.theta, path.R)
        psi, dpsi, *_ = shooting._segment(ray, psi, -dpsi_ds / ex, path.panels[0], rtol, ())
        passes = self._chord_passes(monkeypatch, model, path)
        *_, count = shooting._segment(chord, psi, dpsi, 1, rtol, ())
        assert len(passes) > 2
        (n, a), (_, b) = passes[:2]
        k = math.sqrt(abs(potential_value(model, -1j * path.ym) - E)) + 1.0
        gap = _projective((a[0], a[1] / k), (b[0], b[1] / k))
        tol = shooting._leg_tol(rtol)
        assert gap > tol
        assert count <= n * (4.0 * gap / tol) ** (1.0 / shooting._DEGREE) + 1.0

    def test_floor_count_repeats_last_passes(self, monkeypatch):
        # _segment's floor exit, on a hand-built radial path: at M = 1,
        # eps = 2, k = 14 the chord from the turning radius r_t e^(i theta)
        # to -i y* loses several e-folds to the other solution and, started
        # from one panel, stops at the rounding floor; started two doublings
        # below that count, it stops there again
        model = ModelSpec(1, 2.0)
        E = shooting.default_seed(model, 14)
        path = _path(model, E)
        assert _path(model, E) == path
        rtol = shooting.DEFAULT_RTOL
        ex = cmath.exp(1j * path.theta)
        corner = turning_radius(model, E) * ex
        ray, chord = (_straight_leg(model, E, x0, x1) for x0, x1 in
                      ((path.R * ex, corner), (corner, -1j * path.ym)))
        psi, dpsi_ds, _ = _ic(model, E, path.theta, path.R)
        psi, dpsi, *_ = shooting._segment(
            ray, psi, -dpsi_ds / ex, shooting._phase_count(*ray[:2], rtol), rtol, ())
        passes = []
        propagate = shooting._propagate

        def recorded(q, s1, y0, y1, n, t=None):
            passes.append(n)
            return propagate(q, s1, y0, y1, n, t)

        monkeypatch.setattr(shooting, "_propagate", recorded)
        *_, count = shooting._segment(chord, psi, dpsi, 1, rtol, ())
        built = list(passes)
        passes.clear()
        shooting._segment(chord, psi, dpsi, count, rtol, ())
        assert passes == built[-3:]
        assert len(built) > 3

    def test_chord_agrees_in_two_passes(self, monkeypatch):
        # at M = 1, eps = 2, k = 24 the chord from the turning point gains and
        # loses about e^1.8, so rounding stays below the leg tolerance: a shot
        # agrees in the two passes the path starts from, with no floor exit
        model = ModelSpec(1, 2.0)
        E = oscillator_levels([0.0, -2.0, 0.0, 0.0, 4.0], 25)[24]
        path = _path(model, E)
        passes = self._chord_passes(monkeypatch, model, path)
        _u(E, path)
        (n, a), (n2, b) = passes
        assert (n, n2) == (path.panels[1], 2 * path.panels[1])
        k = math.sqrt(abs(potential_value(model, -1j * path.ym) - E)) + 1.0
        gap = _projective((a[0], a[1] / k), (b[0], b[1] / k))
        assert gap <= shooting._leg_tol(shooting.DEFAULT_RTOL)

    def test_potential_once_per_node_set(self, monkeypatch):
        # V does not depend on E: a solve evaluates it once per path, leg and
        # node set that its shots use.  A build evaluates the node sets of its
        # shot, on both paths, in at most two array calls (the probes, then
        # the leg ends and first pairs) and two scalar ones (the outer and the
        # match point); a set first met in a third pass takes one array call
        # of its own, and a later shot makes none
        calls, fills, used, builds, shots, third = [], [], set(), [0], [0], [False]
        potential, legs, fill = shooting.potential_value, shooting._legs, shooting._fill
        build_path, shoot = shooting._build_path, shooting._shoot
        transfers = shooting._transfers

        def key(path, j, s):
            return path.R, path.corner, path.ym, j, s.shape

        def counted_potential(model, x):
            calls.append(isinstance(x, np.ndarray))
            return potential(model, x)

        def recorded_fill(sets):
            fills.append((third[0], [key(*node_set) for node_set in sets]))
            return fill(sets)

        def recorded_legs(E, path):
            def recorded(j, q):
                def q_used(s):
                    used.add(key(path, j, s))
                    return q(s)
                return q_used
            return [(recorded(j, q), length, u)
                    for j, (q, length, u) in enumerate(legs(E, path))]

        def flagged_transfers(legs):
            # a kernel call of one count is a pass beyond the first pair
            third[0] = len(legs) == 1 and len(legs[0][2]) == 1
            try:
                return transfers(legs)
            finally:
                third[0] = False

        def counted_build(*args):
            builds[0] += 1
            return build_path(*args)

        def counted_shot(E, paths, panels):
            before = len(calls)
            out = shoot(E, paths, panels)
            if len(paths) == 1:     # not the build's shot
                shots[0] += 1
                assert len(calls) == before
            return out

        monkeypatch.setattr(shooting, "potential_value", counted_potential)
        monkeypatch.setattr(shooting, "_fill", recorded_fill)
        monkeypatch.setattr(shooting, "_legs", recorded_legs)
        monkeypatch.setattr(shooting, "_transfers", flagged_transfers)
        monkeypatch.setattr(shooting, "_build_path", counted_build)
        monkeypatch.setattr(shooting, "_shoot", counted_shot)
        # from 2% above the leading WKB seed (1, 2, 11) takes four Newton
        # steps on one path; seeded 20% high, (2, 2, 5) builds three paths
        # and meets node sets in third passes
        cases = [(ModelSpec(1, 2.0), 11, 1.02 * wkb_energy_closed(11, 2.0), False),
                 (ModelSpec(2, 2.0), 5, 1.2 * shooting.default_seed(ModelSpec(2, 2.0), 5), True)]
        for model, k, seed, rebuilt in cases:
            calls.clear(), fills.clear(), used.clear()
            builds[0] = shots[0] = 0
            assert solve_level(model, k, seed=seed).converged
            assert shots[0] >= 3
            assert (builds[0] > 1) == rebuilt == any(later for later, _ in fills)
            evaluated = [node_set for _, sets in fills for node_set in sets]
            assert len(evaluated) == len(set(evaluated))
            assert set(evaluated) == used
            assert all(len(sets) == 1 for later, sets in fills if later)
            assert len([sets for later, sets in fills if not later]) <= 2 * builds[0]
            assert calls.count(True) == len(fills)
            assert calls.count(False) <= 2 * builds[0]

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.0, 2.0, 58.0])
    def test_batched_potential_is_elementwise(self, monkeypatch, M, eps):
        # a build evaluates V on all node sets of both paths in one call; each
        # stored set is bit for bit V on that set alone
        model = ModelSpec(M, eps)
        paths, check_path = [], shooting._check_path

        def recorded_check(*args):
            paths.append(check_path(*args))
            return paths[-1]

        monkeypatch.setattr(shooting, "_check_path", recorded_check)
        paths.append(_path(model, shooting.default_seed(model, 3)))
        stored = 0
        for path in paths:
            for (j, shape), v in path.v.items():
                assert isinstance(v, np.ndarray), (j, shape)
                x0, length, u = path.lines[j]
                s = (np.array([length]) if shape == (1,) else length * shooting._PROBE
                     if shape == shooting._PROBE.shape else shooting._nodes(length, shape[0]))
                assert np.array_equal(v, potential_value(model, x0 + s * u)), (j, shape)
                stored += 1
        assert stored >= 14

    @pytest.mark.parametrize("M,eps,k", [(1, 8.0, 0)] + [(1, 2.0, k) for k in range(8, 17)])
    def test_one_defect_check_shift(self, monkeypatch, M, eps, k):
        # the check path is _check_path of the solve's path, and its legs
        # ride the build's shot at E_ref.  The shift is the distance between
        # the two paths' Newton images from that energy on the exact slope
        # of the solve's path, as separate shots of the two paths there,
        # from the build's start counts, give it, with the defect's
        # integration uncertainty added to their gap; over |E| it is the
        # result's residual.  On the check path a secant over 0.1% of E
        # finds the same slope
        model = ModelSpec(M, eps)
        rtol = shooting.DEFAULT_RTOL
        built, shoot_path = [], shooting._shoot_path

        def recorded(path):
            built.append(shoot_path(path))
            return built[-1]

        monkeypatch.setattr(shooting, "_shoot_path", recorded)
        res = solve_level(model, k)
        assert res.converged
        path = built[-1]
        E, shift = path.E_ref, path.shift
        check = shooting._check_path(path)
        assert check == shooting._check_path(_path(model, path.E_ref))
        start = tuple(shooting._phase_count(q, length, rtol)
                      for q, length, _ in shooting._legs(path.E_ref, path))
        solve_path, check = (replace(p, panels=start) for p in (path, check))
        w, dw = shooting._defect(E, solve_path, *shooting._shoot(E, [solve_path], start)[0][:2])
        u_R = abs(_u(E, solve_path))
        c0 = shooting._defect(E, check, *shooting._shoot(E, [check], start)[0][:2])[0]
        c1 = shooting._matching_defect(1.001 * E, check)[0]
        blur = shooting._leg_tol(rtol) * 2.0 * u_R / (1.0 + u_R) ** 2
        assert shift == (abs(c0 - w) + blur) / abs(dw) <= 0.01 * shooting.CHECK_REL * res.E
        assert res.residual == shift / abs(res.E)
        assert 0.5 <= abs((c1 - c0) / (0.001 * E)) / abs(dw) <= 2.0

    def test_flat_defect_is_not_a_match(self):
        # where Re u_R is 0 on both paths the two defects agree exactly, so
        # their gap alone would pass any root; the shift keeps the defect's
        # integration uncertainty, tol 2|u_R|/(1 + |u_R|)^2, over its slope
        model, rtol = ModelSpec(1, 38.0), shooting.DEFAULT_RTOL
        path = _path(model, 183084.511)
        E, du, u = path.E_ref, path.u_ref[1], -511.578j
        dw = shooting._defect(E, path, u, du)[1]
        blur = shooting._leg_tol(rtol) * 2.0 * abs(u) / (1.0 + abs(u)) ** 2
        assert shooting._check_shift(path, (u, du), (u, du)) == blur / abs(dw) > 0.0

    def test_refused_residual_in_units_of_e(self):
        # a root refused on a path moved off the arch reports its shift
        # over |E|, the unit of CHECK_REL: (1, 38, 28) at 1.2 r_t, where
        # Re u_R is 1e-16 of |u_R| on both paths and the integration
        # uncertainty is most of the gap
        res = sabotage.solve(ModelSpec(1, 38.0), 28, 1.2)
        assert not res.converged
        assert abs(res.E - solve_level(ModelSpec(1, 38.0), 28).E) > 1e-3 * res.E
        assert res.residual > 1.0

    def test_no_finite_step_is_no_root(self):
        # on the path moved to 1.2 r_t, (1, 38, 18) seeded at the next-order
        # WKB energy reaches E = 82453.227, 2.6% above the level, where
        # Re u_R and its slope vanish to the last bit: w = dw = 0 gives no
        # Newton step, and the stop reports an infinite residual, not
        # |w| = 0, which would read as an exact root
        res = sabotage.solve(ModelSpec(1, 38.0), 18, 1.2, seed=wkb_energy_next(18, 38.0))
        assert not res.converged
        assert res.E == pytest.approx(82453.227, rel=1e-8)
        assert abs(res.E - solve_level(ModelSpec(1, 38.0), 18).E) > 0.02 * res.E
        assert res.residual == math.inf

    @pytest.mark.parametrize("seed_factor", [0.5, 2.0])
    @pytest.mark.parametrize("M,eps,k", [(1, 2.0, 8), (2, 0.0, 11), (1, 58.0, 9)])
    def test_rebuilt_solve_judged_on_its_last_path(self, monkeypatch, M, eps, k, seed_factor):
        # seeded at half or twice the level, Newton leaves the seed's path
        # band and the path is rebuilt, with its check path, near the root:
        # the root is judged on the last path built, whose E_ref lies within
        # PATH_BAND of it
        model = ModelSpec(M, eps)
        want = solve_level(model, k)
        builds, shoot_path = [], shooting._shoot_path

        def counted(path):
            builds.append(shoot_path(path))
            return builds[-1]

        monkeypatch.setattr(shooting, "_shoot_path", counted)
        res = solve_level(model, k, seed=seed_factor * want.E)
        assert want.converged and res.converged
        assert abs(res.E - want.E) <= 1e-12 * abs(want.E)
        path = builds[-1]
        assert len(builds) > 1 and res.residual == path.shift / abs(res.E)
        assert abs(res.E - path.E_ref) <= shooting.PATH_BAND * path.E_ref

    @pytest.mark.parametrize("k,eps", [(12, 2.0), (28, 58.0)])
    @pytest.mark.parametrize("broken", ["panels", "vertex"])
    def test_failing_check_path_does_not_fail_the_solve(self, monkeypatch, caplog, k, eps, broken):
        # check path legs that fail, past the panel cap (a vertex at 0.2 of
        # the check path's, whose chord amplifies rounding so far that no
        # pair agrees) or from a non-finite vertex, fail the build's shot,
        # which carries them.  The solve's legs are then shot alone: the
        # solve runs as it would, and its root is reported path-dependent
        # with an infinite residual
        model = ModelSpec(1, eps)
        want = solve_level(model, k)
        check_path = shooting._check_path

        def failing(*args):
            check = check_path(*args)
            return replace(check, corner=(0.2 if broken == "panels" else math.nan) * check.corner)

        monkeypatch.setattr(shooting, "_check_path", failing)
        with np.errstate(invalid="ignore"):
            res = solve_level(model, k)
        assert want.converged
        assert (res.E, res.iterations) == (want.E, want.iterations)
        assert not res.converged and res.residual == math.inf
        assert "path-dependent" in caplog.text
        assert "integration failed" not in caplog.text


SCHEDULE_CASES = [(1, 8.0, 0), (2, 56.0, 0), (1, 58.0, 0), (1, 2.0, 24), (2, 0.0, 26)]


class TestShotSchedule:
    # the build's start counts agree at once and later shots start from the
    # counts it keeps, so each shot finishes both legs in the two passes of
    # one kernel call; the check path's legs ride the build's shot, in that
    # call, so the check takes no call of its own; no shot is repeated

    @pytest.mark.parametrize("M,eps,k", SCHEDULE_CASES)
    def test_one_kernel_call_per_shot(self, monkeypatch, M, eps, k):
        model = ModelSpec(M, eps)
        transfers, shoot = shooting._transfers, shooting._shoot
        calls, shots = [0], []

        def counted(legs):
            calls[0] += 1
            return transfers(legs)

        def recorded(E, paths, panels):
            before = calls[0]
            out = shoot(E, paths, panels)
            shots.append(((paths[0].E_ref, paths[0].corner, E), calls[0] - before))
            return out

        monkeypatch.setattr(shooting, "_transfers", counted)
        monkeypatch.setattr(shooting, "_shoot", recorded)
        assert solve_level(model, k).converged
        assert [n for _, n in shots] == [1] * len(shots)
        assert calls[0] == len(shots)
        # the build's shot at E_ref gives the solve's first Newton step
        keys = [key for key, _ in shots]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("M,eps,k", SCHEDULE_CASES)
    def test_last_step_not_shot(self, monkeypatch, M, eps, k):
        # the step below tol is taken without a shot: the build's shot and
        # one per Newton step but the last, even where that step rounds to
        # nothing, as at (2, 0, 26), all on the solve's path; the check
        # path's legs ride the build's shot, the first
        model = ModelSpec(M, eps)
        shoot, shots = shooting._shoot, []

        def recorded(E, paths, panels):
            path, *check = paths
            on_solve = path.corner == turning_radius(model, path.E_ref)
            assert check in ([], [shooting._check_path(path)])
            shots.append((E, on_solve, bool(check)))
            return shoot(E, paths, panels)

        monkeypatch.setattr(shooting, "_shoot", recorded)
        res = solve_level(model, k)
        assert res.converged
        assert all(on_solve for _, on_solve, _ in shots)
        assert len(shots) == res.iterations
        assert [E for E, _, carried in shots if carried] == [shots[0][0]]

    @pytest.mark.parametrize("bad", [0, 1, 40])
    def test_non_finite_q_between_rescales(self, bad):
        # a nan at one node of one panel raises, wherever it sits, whether
        # its count is batched with finite ones or alone
        def q(s):
            v = np.ones(s.shape, complex)
            v.flat[bad % v.size] = math.nan
            return v

        with pytest.raises(shooting.ShootingError), np.errstate(invalid="ignore"):
            shooting._transfers([(lambda s: np.ones(s.shape, complex), 1.0, (64,)),
                                 (q, 1.0, (2,))])
        with pytest.raises(shooting.ShootingError), np.errstate(invalid="ignore"):
            shooting._transfers([(q, 1.0, (64, 2))])

    def test_two_kernel_calls_at_a_high_level(self, monkeypatch):
        # (1, 2, 12) seeded at the next-order WKB energy: the build's shot,
        # which the check path's legs ride, gives the first Newton step, one
        # more shot the second, below tol and not shot; no shot is spent on
        # a slope and none on the check (TestOneShot: from the default seed
        # the first step is below tol)
        transfers, calls = shooting._transfers, [0]

        def counted(legs):
            calls[0] += 1
            return transfers(legs)

        monkeypatch.setattr(shooting, "_transfers", counted)
        res = solve_level(ModelSpec(1, 2.0), 12, seed=wkb_energy_next(12, 2.0))
        assert res.converged
        assert res.iterations == 2
        assert calls[0] == 2
        E = oscillator_levels([0.0, -2.0, 0.0, 0.0, 4.0], 13)[12]
        assert abs(res.E - E) <= 1e-9 * E


class TestSlope:
    # each shot returns du/dE at the match point from the Wronskian of psi
    # and psi_E: its value at the outer point minus int psi^2 dx, which the
    # panels give from the nodes they solve

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.0, 2.0, 8.5, 58.0])
    @pytest.mark.parametrize("k", [0, 5, 12])
    def test_central_difference(self, M, eps, k):
        # against a central difference with h = 1e-5 |E|, of u or, where
        # u is near a pole (|u| up to 1e15 at M = 1, eps = 0, k = 5), of
        # 1/u; where 1/u is near its own pole, u is smooth
        model = ModelSpec(M, eps)
        E = shooting.default_seed(model, k)
        path = _path(model, E)
        energies = [complex(E)]
        if (M, eps, k) == (1, 2.0, 5):
            energies.append(complex(E, 0.1 * math.sqrt(E)))
        for E in energies:
            u, du = shooting._shoot(E, [path], path.panels)[0][:2]
            h = 1e-5 * abs(E)
            up, um = (_u(E + d, path) for d in (h, -h))
            errors = [abs(du - (up - um) / (2 * h)) / abs(du)]
            if u != 0.0:
                errors.append(abs(-du / u ** 2 - (1 / up - 1 / um) / (2 * h))
                              / abs(du / u ** 2))
            assert min(errors) <= 1e-7, (E, errors)

    @pytest.mark.parametrize("qv", [4.0, -9.0, 2.0 - 3.0j, 30.0j])
    def test_constant_q_gram(self, qv):
        # for q = k^2 the solutions from (1, 0) and (0, 1) are cosh ks and
        # sinh ks / k, whose c-product Gram matrix over [0, L] is closed
        # form; the kernel returns it times d, on one panel and on several
        k, length = cmath.sqrt(qv), 1.7
        sh2 = cmath.sinh(2 * k * length) / (4 * k)
        want = [length / 2 + sh2, cmath.sinh(k * length) ** 2 / (2 * k * k),
                (sh2 - length / 2) / (k * k)]
        for n, t in zip((1, 2, 5), shooting._transfers(
                [(lambda s: np.full(s.shape, complex(qv)), length, (1, 2, 5))])):
            d = t[7]
            for got, g in zip(t[4:7], want):
                assert abs(got / d - g) <= 1e-13 * max(1.0, abs(want[0])), (qv, n)

    def test_node_at_the_match_point(self, monkeypatch):
        # at M = 1, eps = 0, k = 9 psi has a node at the origin, and the
        # seed 19 is exact: psi there once came out 0.0 and the shot divided
        # by it.  psi at a node to the last bit is one rounding unit, so u
        # and du/dE are finite, and Newton, on the reciprocals, takes no step
        model, E = ModelSpec(1, 0.0), 19.0
        path = _path(model, E)
        chord = shooting._legs(E, path)[1][1]
        segment = shooting._segment

        def zeroed(leg, *args):
            psi, *rest = segment(leg, *args)
            return (0.0 if leg[1] == chord else psi), *rest

        monkeypatch.setattr(shooting, "_segment", zeroed)
        u, du = shooting._shoot(complex(E), [path], path.panels)[0][:2]
        assert cmath.isfinite(u) and cmath.isfinite(du) and abs(u) > 1e15
        w, dw = shooting._defect(E, path, *shooting._shoot(E, [path], path.panels)[0][:2])
        assert abs(w) <= 1e-12 and abs(w / dw) <= 1e-12 * E


class TestNewtonSafeguards:
    def test_reciprocals_only_near_a_node(self):
        # the limit-scale seed of (2, 36, 2), 520.15, is 2% above level 2,
        # where |u_R| = 1.19 with its imaginary part dominant: on
        # 1/u_L - 1/u_R Newton steps up by 36 and runs to level 3 (874.35),
        # on u_L - u_R it steps down by 9.3.  The straight-ray oracle's
        # defect changes sign four times on [1, 900], at 37.3, 157.0,
        # 510.6 and 874.4, so this is level 2
        res = solve_level(ModelSpec(2, 36.0), 2)
        assert res.converged
        E_ref = oracle_level(2, 36.0, 509.0, 512.0)
        assert abs(res.E - E_ref) <= 1e-9 * E_ref

    @pytest.mark.parametrize("M,eps,k,E_ref", [(1, 8.0, 3, 133.7796461407702),
                                               (1, 20.0, 5, 1954.6837217307355),
                                               (1, 28.0, 3, 1751.7074650874474)])
    def test_reciprocals_near_a_pole_of_u(self, M, eps, k, E_ref):
        # the next-order seed's u_R is large (-1262 - 24580i at (1, 8, 3))
        # with its imaginary part dominant: a pole of u lies just off the
        # real axis, so 1/u is nearly linear and one step on the
        # reciprocals lands within tol, where the numerator takes two or
        # three more; the same root, in two iterations and three shots
        res = solve_level(ModelSpec(M, eps), k)
        assert res.converged
        assert res.iterations == 2
        assert res.E == pytest.approx(E_ref, rel=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_far_seeds_need_no_step_cap(self, M):
        # no step is capped: a step that leaves the sign bracket is replaced
        # by its midpoint, so seeds at half and twice default_seed converge
        # to the default-seeded root
        for eps in (0.0, 8.0, 58.0):
            model = ModelSpec(M, eps)
            for k in (0, 1, 5):
                want = solve_level(model, k)
                assert want.converged, (eps, k)
                for factor in (0.5, 2.0):
                    res = solve_level(model, k, factor * shooting.default_seed(model, k))
                    assert res.converged, (eps, k, factor)
                    assert abs(res.E - want.E) <= 1e-12 * want.E, (eps, k, factor)

    def test_bracket_keeps_a_crossed_root(self, monkeypatch):
        # at (2, 52, 6) the first Newton step, from the limit-scale seed
        # 6371.0, crosses a root, to 6143.2, and the next (-290) would leave
        # that bracket for 4412.15, the root k = 5 converges to.  It is
        # replaced by the bracket's midpoint, and every later iterate stays
        # inside; the root kept, 6317.05, is the one the secant found
        model = ModelSpec(2, 52.0)
        seen, defect = [], shooting._matching_defect

        def recorded(E, path):
            out = defect(E, path)
            seen.append((E, out[0], path.E_ref))
            return out

        monkeypatch.setattr(shooting, "_matching_defect", recorded)
        res = solve_level(model, 6)
        assert res.converged
        assert res.E == pytest.approx(6317.054697636675, rel=1e-12)
        *solve, _ = seen        # the last defect is the check path's
        assert len({E_ref for *_, E_ref in solve}) == 1
        crossed = next(i for i in range(1, len(solve))
                       if (solve[i][1] > 0.0) != (solve[i - 1][1] > 0.0))
        lo, hi = sorted((solve[crossed - 1][0], solve[crossed][0]))
        assert hi - lo > 200.0
        assert solve[crossed + 1][0] == pytest.approx(0.5 * (lo + hi), rel=1e-15)
        assert all(lo <= E <= hi for E, *_ in solve[crossed:])


class TestFirstIterate:
    # where default_seed is WKB (M = 1, or eps < 4) the solve starts from the
    # fourth-order WKB energy.  From the next-order energy, which lies
    # farther from these levels, its second defect lies one Newton step from
    # the first, with no shot spent on a slope

    @staticmethod
    def _defects(monkeypatch):
        """(energies of the defects, their Newton steps)."""
        energies, steps, defect = [], [], shooting._matching_defect

        def recorded(E, path):
            energies.append(E)
            out = defect(E, path)
            steps.append(-out[0] / out[1])
            return out

        monkeypatch.setattr(shooting, "_matching_defect", recorded)
        return energies, steps

    @pytest.mark.parametrize("eps,k", [(0.5, 0), (2.0, 3), (2.0, 24), (8.0, 12),
                                       (58.0, 0)])
    def test_next_order_wkb_at_m1(self, monkeypatch, eps, k):
        energies, steps = self._defects(monkeypatch)
        E0 = wkb_energy_next(k, eps)
        assert solve_level(ModelSpec(1, eps), k, seed=E0).converged
        assert energies[:2] == [E0, E0 + steps[0]]

    @pytest.mark.parametrize("M,eps,k", [(2, 0.0, 3), (2, 0.0, 26), (2, 1.0, 7),
                                         (3, 0.5, 2), (3, 3.0, 10), (4, 3.9, 5)])
    def test_next_order_wkb_at_small_eps(self, monkeypatch, M, eps, k):
        energies, steps = self._defects(monkeypatch)
        E0 = wkb_energy_next(k, eps, M)
        assert solve_level(ModelSpec(M, eps), k, seed=E0).converged
        assert energies[:2] == [E0, E0 + steps[0]]

    @pytest.mark.parametrize("M,eps,k", [(1, 0.5, 0), (1, 2.0, 3), (1, 2.0, 24),
                                         (1, 8.0, 12), (1, 58.0, 0), (2, 0.0, 3),
                                         (2, 0.0, 26), (2, 1.0, 7), (3, 0.5, 2),
                                         (3, 3.0, 10), (4, 3.9, 5)])
    def test_fourth_order_wkb_by_default(self, monkeypatch, M, eps, k):
        energies, _ = self._defects(monkeypatch)
        assert solve_level(ModelSpec(M, eps), k).converged
        assert energies[0] == wkb_energy_fourth(k, eps, M)

    def test_given_seed_and_limit_scale_unchanged(self, monkeypatch):
        # a given seed is the first iterate; at M >= 2, eps >= 4 so is the
        # solvable-limit scale of default_seed
        energies, _ = self._defects(monkeypatch)
        solve_level(ModelSpec(1, 2.0), 3, seed=11.0)
        assert energies[0] == 11.0
        energies.clear()
        solve_level(ModelSpec(2, 1.0), 3, seed=20.0)
        assert energies[0] == 20.0
        energies.clear()
        model = ModelSpec(2, 6.0)
        solve_level(model, 3)
        assert energies[0] == shooting.default_seed(model, 3)

    def test_high_level_at_eps_8(self):
        # the leading WKB seed ended this solve unconverged at 4296.87 after
        # 9 iterations.  No contour certifies it and the ray oracle's
        # defect is rounding noise here, so the check is the next-order WKB
        # error, which falls as (k + 1/2)^-4: its gap at k = 14, scaled to
        # k = 28, is the gap at k = 28 to within 2%
        model = ModelSpec(1, 8.0)
        res = solve_level(model, 28)
        assert res.converged
        assert abs(res.E - 4402.253485) <= 1e-8 * 4402.253485
        gap14, gap28 = (1.0 - E / wkb_energy_next(k, 8.0) for k, E in
                        ((14, solve_level(model, 14).E), (28, res.E)))
        assert gap28 == pytest.approx(gap14 * (14.5 / 28.5) ** 4, rel=0.02)

    def test_high_levels_at_eps_28(self):
        # (1, 28, 20) and (1, 28, 21) stopped path-dependent under the
        # sixth-order Magnus kernel; on panels their check paths agree.  No
        # contour certifies them and the ray oracle's root moves with its
        # match point by 2e-4 there, so the check is again the next-order
        # WKB gap: scaled by (k + 1/2)^4 from k = 12, it lands within 0.5%
        model = ModelSpec(1, 28.0)
        gap12 = 1.0 - solve_level(model, 12).E / wkb_energy_next(12, 28.0)
        for k in (20, 21):
            res = solve_level(model, k)
            assert res.converged, k
            gap = 1.0 - res.E / wkb_energy_next(k, 28.0)
            assert gap == pytest.approx(gap12 * (12.5 / (k + 0.5)) ** 4, rel=0.005)


# the sweep and the large-eps table of ROADMAP's grounding note
SWEEP = sabotage.SWEEP


class TestOneShot:
    # the fourth-order WKB seed lies within tol of these levels, so the
    # first Newton step, from the build's shot, is at most tol |E| and is
    # taken without a shot: the build's shot, which carries the check path's
    # legs, is the solve's one kernel call

    @pytest.mark.parametrize("M,eps,ks", [(1, 2.0, range(8, 31)), (2, 0.0, range(11, 27))])
    def test_one_kernel_call(self, monkeypatch, M, eps, ks):
        transfers, calls = shooting._transfers, [0]

        def counted(legs):
            calls[0] += 1
            return transfers(legs)

        monkeypatch.setattr(shooting, "_transfers", counted)
        for k in ks:
            calls[0] = 0
            res = solve_level(ModelSpec(M, eps), k)
            assert res.converged and res.iterations == 1 and calls[0] == 1, k

    def test_seed_inside_window(self):
        # where default_seed is WKB the seed brackets no other level
        for M, eps, k in SWEEP:
            model = ModelSpec(M, eps)
            if M == 1 or eps < 4.0:
                seed = shooting.default_seed(model, k)
                assert seed == wkb_energy_fourth(k, eps, M)
                lo, hi = shooting._wkb_window(model, k)
                assert lo < seed < hi, (M, eps, k)


PURE_CASES = [(1, 2.0, 8), (2, 28.0, 10), (3, 58.0, 29), (4, 0.0, 4),           # SWEEP
              (1, 28.0, 21), (1, 38.0, 16), (1, 48.0, 11), (1, 58.0, 28),      # ITEM7
              (1, 100.0, 0), (2, 400.0, 2), (3, 1600.0, 5), (4, 3200.0, 1)]    # LARGE_EPS


class TestPureSolves:
    # a path is one record that keeps its lines, V and check verdict; none
    # of them may leak from one solve into another, or through a replace
    # that moves the vertex

    def test_order_does_not_matter(self, monkeypatch):
        assert set(PURE_CASES) <= set(SWEEP + ITEM7 + LARGE_EPS)
        built, shoot_path = [], shooting._shoot_path

        def recorded(path):
            built.append(shoot_path(path))
            return built[-1]

        monkeypatch.setattr(shooting, "_shoot_path", recorded)

        def records(cases):
            out = {}
            for M, eps, k in cases:
                res = solve_level(ModelSpec(M, eps), k)
                out[M, eps, k] = (repr(res.E), res.iterations, res.converged,
                                  repr(res.residual))
            return out

        forwards = records(PURE_CASES)
        assert records(PURE_CASES[::-1]) == forwards
        # every path keeps V on node sets only, keyed by (leg, shape)
        for path in built:
            assert all(j in (0, 1) and type(shape) is tuple and isinstance(v, np.ndarray)
                       for (j, shape), v in path.v.items())
        # the check path is a replace of the solve's path: it computes its
        # own lines from its own vertex
        for path in built[:len(PURE_CASES)]:
            check = shooting._check_path(path)
            assert check.lines != path.lines
            assert check.lines[0][0] == path.lines[0][0]


class TestCheckVertex:
    # off the arch the check path's chord amplifies rounding by e^(2 g), g
    # its net WKB growth.  With its vertex fixed at CHECK_CORNER x_t, g grew
    # with eps and k until the chord stopped at rounding floors of 1e-6 and
    # more; _check_path moves the vertex towards x_t so that g stays within
    # the budget B = 1/2 ln(sqrt(tol) 2^53), and the chord agrees like any leg

    @staticmethod
    def _checked(monkeypatch, model, k):
        """The result of a solve, and the path whose root was checked: the
        last path built, whose verdict is the result's residual."""
        built, shoot_path = [], shooting._shoot_path

        def recorded(path):
            built.append(shoot_path(path))
            return built[-1]

        monkeypatch.setattr(shooting, "_shoot_path", recorded)
        res = solve_level(model, k)
        checked = built[-1]
        assert res.residual == checked.shift / abs(res.E)
        return res, checked

    @pytest.mark.parametrize("eps,k", [(28.0, 21), (56.0, 10), (58.0, 9), (58.0, 28),
                                       (38.0, 16)])
    def test_verdict_does_not_turn_on_last_bits(self, monkeypatch, eps, k):
        # with the vertex at CHECK_CORNER x_t, 41, 28, 41, 22 and 37 of the
        # 41 verdicts within 20 ulps of these levels passed, as the chord's
        # floor fell.  Within the budget every shift is far below CHECK_REL,
        # with the build re-shot at every energy within 20 ulps of the one
        # the check was taken at, the build's energy
        model = ModelSpec(1, eps)
        rtol = shooting.DEFAULT_RTOL
        res, path = self._checked(monkeypatch, model, k)
        assert res.converged
        check = shooting._check_path(path)
        assert check.corner > shooting.CHECK_CORNER * turning_radius(model, path.E_ref)
        E = path.E_ref
        for i in range(-20, 21):
            Ei = E + i * math.ulp(E)
            # a failed check path would leave the verdict inf
            again = shooting._shoot_path(replace(path, E_ref=Ei))
            assert again.shift <= 0.01 * shooting.CHECK_REL * Ei, i

    @pytest.mark.parametrize("eps,k", [(28.0, 21), (56.0, 10), (58.0, 9), (38.0, 16)])
    def test_moved_vertex_levels_against_mp_oracle(self, eps, k):
        # the high-precision oracle, on its own straight-ray path, puts each
        # within 1e-14 of the solve; at (1, 38, 16) its 50-digit value is kept
        res = solve_level(ModelSpec(1, eps), k)
        assert res.converged
        if (eps, k) == (38.0, 16):
            E_ref = 64646.252470253802808
        else:
            from _mp_oracle import level as mp_level    # the only use of mpmath here
            E_ref = float(mp_level(1, eps, res.E))
        assert abs(res.E - E_ref) <= 1e-14 * E_ref

    def test_corner_kept_on_golden_and_high_levels(self):
        # the golden rows and every level the high-levels benchmark draws
        # keep the vertex at CHECK_CORNER x_t, so their verdicts are as before
        high = [(1, 2.0, k) for k in (*range(8, 15), 16, 24)]
        high += [(2, 0.0, k) for k in range(8, 27, 3)]
        paths = [(ModelSpec(M, eps), E) for M, eps, E in GOLDEN_ROWS]
        paths += [(ModelSpec(M, eps), shooting.default_seed(ModelSpec(M, eps), k))
                  for M, eps, k in high]
        for model, E in paths:
            path = _path(model, E)
            check = shooting._check_path(path)
            assert check.corner == shooting.CHECK_CORNER * path.corner, model

    def test_growth_within_budget(self):
        # the chord's growth from the vertex c x_t, where -i ym lies on the
        # arch through x_t: |Im int_c^1 sqrt(E - V(t x_t)) x_t dt|, by quad
        rtol = shooting.DEFAULT_RTOL
        budget = 0.5 * math.log(math.sqrt(shooting._leg_tol(rtol)) * 2.0 ** 53)
        assert budget == pytest.approx(10.9, abs=0.05)
        for M, eps, k in SWEEP + LARGE_EPS:
            model = ModelSpec(M, eps)
            E = shooting.default_seed(model, k)
            r_t = turning_radius(model, E)
            x_t = turning_points(model, E).x_right
            c = shooting._check_path(shooting._build_path(model, E, 1.0, rtol)).corner / r_t
            growth = quad(lambda t: (cmath.sqrt(E - potential_value(model, t * x_t))
                                     * x_t).imag, c, 1.0)[0]
            assert abs(growth) <= budget, (M, eps, k)

    def test_check_catches_moved_solve_paths(self):
        # the sabotage harness (_sabotage.py) on a fixed sample: the solve's
        # own path with its vertex at 0.8 or 1.2 r_t, off the arch, converges
        # to wrong roots at many levels; the check refuses every one of them.
        # At (1, 38, 18), s = 1.2, Newton stops on a defect flat to the last
        # bit, unconverged (test_no_finite_step_is_no_root)
        sample = [(M, eps, k) for M in (1, 2, 3, 4) for eps in (8.0, 38.0, 58.0)
                  for k in (6, 18, 28)]
        want = {(M, eps, k): solve_level(ModelSpec(M, eps), k).E
                for M, eps, k in sample}
        for s in (0.8, 1.2):
            wrong, missed = sabotage.caught(want, s)
            assert len(wrong) >= 10, s
            assert missed == [], (s, missed)


class TestHermitianLevels:
    # levels with an independent reference, each converged within 1e-9

    @pytest.mark.parametrize("M,eps,coeffs,k_max", [
        # p^2 - x^4 has the levels of p^2 + 4x^4 - 2x (Buslaev & Grecchi,
        # J. Phys. A 26 (1993) 5541)
        (1, 2.0, [0.0, -2.0, 0.0, 0.0, 4.0], 30),
        (2, 0.0, [0.0, 0.0, 0.0, 0.0, 1.0], 26)])
    def test_oscillator_basis_reference(self, M, eps, coeffs, k_max):
        model = ModelSpec(M, eps)
        for k, E_ref in enumerate(oscillator_levels(coeffs, k_max + 1)):
            res = solve_level(model, k)
            assert res.converged, k
            assert abs(res.E - E_ref) <= 1e-9 * E_ref, k

    def test_quartic_levels_to_rounding(self):
        # on the monotone path no leg stops at a rounding floor: the levels
        # of p^2 - x^4 come out within 1e-12 of the reference up to k = 30
        model = ModelSpec(1, 2.0)
        for k, E_ref in enumerate(oscillator_levels([0.0, -2.0, 0.0, 0.0, 4.0], 31)):
            res = solve_level(model, k)
            assert res.converged, k
            assert abs(res.E - E_ref) <= 1e-12 * E_ref, k

    @pytest.mark.parametrize("eps,k,lo,hi", [(42.5, 2, 2253.0, 2254.0),
                                             (51.5, 1, 1265.0, 1266.0)])
    def test_large_eps_ray_oracle(self, eps, k, lo, hi):
        # at large eps the check path must accept right levels
        res = solve_level(ModelSpec(1, eps), k)
        assert res.converged
        E_ref = oracle_level(1, eps, lo, hi)
        assert abs(res.E - E_ref) <= 1e-10 * E_ref


class TestEvenMLabels:
    # at even M >= 4 and large eps the match height once lay beyond the
    # turning radius, and these levels converged to levels 2 and 3
    # (63.526812 and 653.103539)

    @pytest.mark.parametrize("M,eps,k,lo,hi", [(4, 20.0, 3, 117.0, 117.6),
                                               (4, 58.0, 2, 352.0, 352.8)])
    def test_ray_oracle(self, M, eps, k, lo, hi):
        res = solve_level(ModelSpec(M, eps), k)
        assert res.converged
        E_ref = oracle_level(M, eps, lo, hi)
        assert abs(res.E - E_ref) <= 1e-9 * E_ref


class TestScan:
    def test_hermitian_anchor(self):
        results = scan_levels([ModelSpec(1, 0.0)], 4)
        energies = [r.E for r in results]
        assert energies == pytest.approx([1.0, 3.0, 5.0, 7.0, 9.0], rel=1e-8)

    def test_monotone_rise(self):
        grid = [ModelSpec(1, e) for e in (0.0, 2.0, 4.0, 8.0)]
        results = scan_levels(grid, 4)
        assert all(r.converged for r in results)
        per_level = {}
        for r, model in zip(results, [m for m in grid for _ in range(5)]):
            per_level.setdefault(r.k, []).append(r.E)
        for k, curve in per_level.items():
            assert all(b > a for a, b in zip(curve, curve[1:])), f"level {k}"

    def test_ordering_is_deterministic(self):
        grid = [ModelSpec(1, e) for e in (1.0, 0.0)]
        results = scan_levels(grid, 1)
        assert [r.k for r in results] == [0, 1, 0, 1]
        assert results[0].E < results[2].E  # eps = 0 rows first

    def test_no_action_quadrature(self, monkeypatch):
        # seeds, WKB windows and contour radii at M >= 2 come from the closed
        # forms: no action quadrature runs in a solve, in the spectral engine
        # or in a level-scan item at M = 2 with every level shot as if the
        # engine had certified none
        def refused(*args):
            raise AssertionError("action quadrature")

        monkeypatch.setattr(wkb, "_action_once", refused)
        assert solve_level(ModelSpec(3, 0.5), 4).converged
        assert len(shooting.certified_levels(ModelSpec(2, 1.1), 5, 1e-10)) == 6
        monkeypatch.setattr(shooting, "certified_levels", lambda *args: [])
        grid = [ModelSpec(2, eps) for eps in (0.0, 1.1, 2.9)]
        results = scan_levels(grid, 5)
        assert len(results) == 18
        assert all(r.converged and r.iterations > 0 for r in results)

    def test_shots_through_solve_level(self, monkeypatch):
        # the levels the spectral engine leaves (M = 1 at eps = 0.1 and 0.2)
        # are shot by the public solve_level, from continuation seeds
        calls, solve = [], shooting.solve_level

        def recorded(model, k, *args):
            calls.append((model.epsilon, k))
            return solve(model, k, *args)

        monkeypatch.setattr(shooting, "solve_level", recorded)
        results = scan_levels([ModelSpec(1, eps) for eps in (0.0, 0.1, 0.2, 0.3)], 2)
        assert calls == [(eps, k) for eps in (0.1, 0.2) for k in range(3)]
        shot = [(r.E, r.iterations) for r in results if r.iterations]
        assert shot == [(1.0030970656620783 + 0j, 3), (3.0611351519218117 + 0j, 3),
                        (5.1670858423666255 + 0j, 3), (1.0100685202881654 + 0j, 3),
                        (3.1370668462544784 + 0j, 3), (5.357600879563637 + 0j, 2)]

    @pytest.mark.parametrize("M,want", [
        (2, [1.905812, 7.753113, 17.684143, 29.998397, 44.784535, 61.656818]),
        (3, [1.743317, 6.963227, 15.562837, 27.161729, 41.103504, 57.296217])])
    def test_labels_at_limit_scale_seeds(self, M, want):
        # at eps >= 4, M >= 2 default_seed is the solvable-limit scale, and
        # before the sign bracket shooting from it gave levels 3 and 4
        # (M = 2) or 3, 4 and 5 (M = 3) one energy; these certified spectral
        # values are roots that shooting started from them converges to
        results = scan_levels([ModelSpec(M, 4.0)], 5)
        assert [r.E for r in results] == pytest.approx(want, abs=1e-6)
        assert all(r.converged and r.iterations == 0 and r.residual <= 1e-9
                   for r in results)

    def test_python_scalars_out(self):
        # E and residual are Python scalars, whether a level is shot or taken
        # from the spectral engine: numpy scalars must not leak out of the
        # transfer matrices
        results = scan_levels([ModelSpec(1, e) for e in (0.1, 1.0)], 1)
        results.append(solve_level(ModelSpec(1, 8.0), 0))
        assert {r.iterations > 0 for r in results} == {True, False}
        for r in results:
            assert type(r.E) is float and type(r.residual) is float

    def test_levels_increase_at_eps_8(self):
        energies = [r.E for r in scan_levels([ModelSpec(2, 8.0)], 5)]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_scan_reproduces_table_rows(self):
        grid = [ModelSpec(1, e) for e in (8.0, 18.0)]
        results = scan_levels(grid, 0)
        assert results[0].E == pytest.approx(5.55331, abs=2e-5)
        assert results[1].E == pytest.approx(20.67629, abs=2e-5)


class TestMatchHeight:
    def test_origin_at_zero_deformation(self, monkeypatch):
        # at every M, with no action evaluated
        for M in range(1, 7):
            for E in (0.5, 1.0, 172.6):
                assert _counted_height(monkeypatch, ModelSpec(M, 0.0), E) == (0.0, 0)

    def test_approaches_turning_radius(self):
        model = ModelSpec(1, 58.0)
        r_tp = 196.0 ** (1.0 / 60.0)
        ym = match_height(model, 196.0)
        assert 0.9 * r_tp <= ym <= 1.05 * r_tp

    @pytest.mark.parametrize("M", range(1, 7))
    def test_scale_invariance(self, M):
        # V is homogeneous, so the arch is one curve scaled by r_t: y*/r_t
        # does not depend on E
        for eps in (0.1, 2.0, 58.0, 3200.0):
            model = ModelSpec(M, eps)
            etas = [match_height(model, E) / turning_radius(model, E)
                    for E in (0.5, 1.0, 172.6, 1e6)]
            assert max(etas) - min(etas) <= 1e-15, eps

    def test_large_eps_table_converges(self):
        # the large-eps table of ROADMAP's grounding note, where at even M
        # the arch integrand nearly vanishes at the crossing
        for M, eps, k in LARGE_EPS:
            assert solve_level(ModelSpec(M, eps), k).converged, (M, eps, k)
