import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma, j0, j1, y0, y1

import ptwell.shooting as shooting
from _ray_oracle import _segment as oracle_segment
from _ray_oracle import _wkb_start
from _ray_oracle import level as oracle_level
from conftest import QUARTIC_LEVELS, oscillator_levels
from ptwell.cli import TABLE_GRID
from ptwell.geometry import (ModelSpec, potential_value, turning_points,
                             turning_radius, wedge_angles)
from ptwell.shooting import match_height, scan_levels, solve_level
from ptwell.wkb import wkb_energy_closed, wkb_energy_quadrature


def _path(model, E):
    return shooting._build_path(model, E, 1.0, shooting.DEFAULT_RTOL)


def _rays(path):
    """(angle, outer radius) of the left and the right ray of `path`."""
    return [(-math.pi - path.theta, path.R), (path.theta, path.R)]


def _u(model, E, side, path):
    return shooting._u_interior(model, E, side, path, shooting.DEFAULT_RTOL)


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
            y0, y1 = shooting._outgoing_ic(model, E, theta, R)
            psi, dpsi_dx = _wkb_start(theta, R, M, eps, E)
            want = dpsi_dx / psi
            assert abs(-y1 / (cmath.exp(1j * theta) * y0) - want) <= 1e-13 * abs(want)

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
    # the ray and the chord run by sixth-order Magnus steps; the oracle is
    # scipy's Dormand-Prince DOP853 in _ray_oracle, which shares no code

    @pytest.mark.parametrize("E", [0.5, 2.2, 6.3, 3.7 + 0.4j])
    def test_oscillator_closed_form(self, E):
        # psi = U(-E/2, sqrt(2) x) decays on the right: at the origin
        # psi'/psi = -2 Gamma((3 - E)/4) / Gamma((1 - E)/4); the left solution
        # is its mirror image
        model = ModelSpec(1, 0.0)
        path = shooting._build_path(model, abs(E), 1.0, 1e-13)
        want = -2.0 * gamma((3.0 - E) / 4.0) / gamma((1.0 - E) / 4.0)
        for side, sign in (("R", 1.0), ("L", -1.0)):
            u = shooting._u_interior(model, complex(E), side, path, 1e-13)
            assert abs(u - sign * want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("M,eps,k", [(1, 6.0, 0), (1, 58.0, 0), (2, 56.0, 0),
                                         (1, 2.0, 8), (2, 0.0, 8), (2, 0.0, 11)])
    def test_agrees_with_dp45(self, M, eps, k):
        # the first leg, from the outer point to the turning point, at the level
        model = ModelSpec(M, eps)
        E = solve_level(model, k).E.real
        path = _path(model, E)
        ex = cmath.exp(1j * path.theta)
        x0, x1 = path.R * ex, turning_points(model, E).x_right
        want = oracle_segment(x0, x1, _wkb_start(path.theta, path.R, M, eps, E),
                              M, eps, E)
        psi, dpsi_ds = shooting._outgoing_ic(model, E, path.theta, path.R)
        leg = shooting._legs(model, E, path.theta, path)[0]
        got = shooting._segment(leg, psi, -dpsi_ds / ex, path.steps[0],
                                shooting.DEFAULT_RTOL, ())
        assert _projective(_scaled(model, E, x1, want),
                           _scaled(model, E, x1, got)) <= 1e-11

    def test_chord_agrees_with_oracle(self):
        # psi'/psi at the match point, carried down the ray and the chord
        model = ModelSpec(1, 2.0)
        E = solve_level(model, 8).E.real
        path = _path(model, E)
        ex = cmath.exp(1j * path.theta)
        corner, x_match = path.corner * ex, -1j * path.ym
        y = oracle_segment(path.R * ex, corner,
                           _wkb_start(path.theta, path.R, 1, 2.0, E), 1, 2.0, E)
        want = oracle_segment(corner, x_match, y, 1, 2.0, E)
        u = _u(model, E, "R", path)
        assert _projective(_scaled(model, E, x_match, want),
                           _scaled(model, E, x_match, (1.0, u))) <= 1e-11

    def test_sixth_order_on_bessel(self):
        # psi'' = -e^s psi over [-2, 3] is solved by J0(t) and Y0(t), with
        # t = 2 e^(s/2) and dt/ds = t/2; q has nonzero derivatives of every
        # order, so each term of Omega up to order h^6 is exercised
        def fundamental(s):
            t = 2.0 * math.exp(s / 2.0)
            return np.array([[j0(t), y0(t)], [-j1(t) * t / 2.0, -y1(t) * t / 2.0]])

        exact = fundamental(3.0) @ np.linalg.inv(fundamental(-2.0))
        errors = []
        for n in (64, 128):
            errors.append(max(
                _projective(shooting._magnus(lambda s: -np.exp(s - 2.0) + 0j, 5.0,
                                             1.0 - column, 0.0 + column, n),
                            exact[:, column])
                for column in range(2)))
        assert errors[1] <= 1e-9
        assert errors[0] / errors[1] >= 50.0     # 2^6 = 64

    def test_step_matrices_of_unequal_size(self):
        # psi'' = k^2 psi on [0, 1/2), each step growing by e^460, then
        # psi'' = 0 on [1/2, 1]: (psi, psi') ends along (1 + k/2, k).  Scaled
        # by the largest entry of all, the free steps' matrices would
        # underflow to zero when two of them are multiplied
        k = math.sqrt(8.7e8)
        y = shooting._magnus(lambda s: np.where(s < 0.5, k * k, 0.0) + 0j,
                             1.0, 1.0, 0.0, 64)
        assert _projective(y, (1.0 + 0.5 * k, k)) <= 1e-14

    def test_batched_product_of_unequal_blocks(self):
        # blocks of unequal sizes, reduced in one tree, give the sequential
        # product of their step matrices, later step on the left; each block
        # also gives exactly what it gives alone
        def q(s):
            return (3.0 - 2.0j) * np.cos(2.0 * s) + (1.0 + 4.0j) * s

        counts = (1, 3, 17, 64, 100)
        got = shooting._transfers([(q, 2.0, counts)])
        for n, t in zip(counts, got):
            h = 2.0 / n
            nodes = h * (np.arange(n) + shooting._GAUSS3[:, None])
            steps = shooting._step_matrices(q(nodes), np.full(n, h))
            want = np.eye(2, dtype=complex)
            for a, b, c, e in steps.T:
                want = np.array([[a, b], [c, e]]) @ want
            assert shooting._transfers([(q, 2.0, (n,))]) == [t]
            t = np.array(t).reshape(2, 2) / np.linalg.norm(t)
            assert np.linalg.norm(t - want / np.linalg.norm(want)) <= 1e-13

    def test_batched_blocks_of_unequal_growth(self):
        # the two halves of test_step_matrices_of_unequal_size as two blocks
        # of one tree: every step of the first grows by e^460, and the free
        # steps of the second would underflow under a scale common to both
        k = math.sqrt(8.7e8)
        grow, free = shooting._transfers([
            (lambda s: np.full(s.shape, k * k + 0j), 0.5, (32,)),
            (lambda s: np.zeros(s.shape, complex), 0.5, (17,))])
        y = np.array(free).reshape(2, 2) @ np.array(grow).reshape(2, 2) @ [1.0, 0.0]
        assert _projective(y, (1.0 + 0.5 * k, k)) <= 1e-14

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(shooting, "_MAX_RAY_STEPS", 256)
        model = ModelSpec(2, 0.0)
        with pytest.raises(shooting.ShootingError):
            _u(model, 172.6 + 0j, "R", _path(model, 172.6))

    def test_non_finite_q_raises(self):
        with pytest.raises(shooting.ShootingError), np.errstate(invalid="ignore"):
            shooting._magnus(lambda s: np.full(s.shape, complex(math.nan)),
                             1.0, 1.0, 0.0, 64)
        # a non-finite energy raises before numpy sees it: no RuntimeWarning
        model = ModelSpec(1, 8.0)
        path = _path(model, 5.55)
        for E in (math.inf, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(shooting.ShootingError):
                    _u(model, complex(E), "R", path)


class TestLogDerivative:
    # psi'/psi at the match point -i y*, which is the origin at M = 1, eps = 0

    def test_even_ground_state(self):
        # psi'(0) = 0 for the harmonic ground state reached from either side
        model = ModelSpec(1, 0.0)
        uR = _u(model, 1.0, "R", _path(model, 1.0))
        assert abs(uR) <= 1e-6

    def test_parity(self):
        model = ModelSpec(1, 0.0)
        path = _path(model, 1.0)
        assert abs(_u(model, 1.0, "L", path) + _u(model, 1.0, "R", path)) <= 1e-6

    def test_matching_at_golden_energy(self):
        model = ModelSpec(1, 8.0)
        path = _path(model, 5.55331)
        uL = _u(model, 5.55331, "L", path)
        uR = _u(model, 5.55331, "R", path)
        assert abs(uL - uR) <= 1e-5


class TestMismatch:
    # the solver's matching defect on the path built for E

    def test_zero_at_eigenvalue(self):
        model = ModelSpec(1, 0.0)
        assert abs(shooting._matching_defect(model, 1.0, _path(model, 1.0),
                                             shooting.DEFAULT_RTOL)[0]) <= 1e-6

    def test_bounded_away_between_levels(self):
        model = ModelSpec(1, 0.0)
        assert abs(shooting._matching_defect(model, 2.0, _path(model, 2.0),
                                             shooting.DEFAULT_RTOL)[0]) >= 0.1

    def test_quartic_golden_row(self):
        # golden table row label 8 (deformation 6): E listed as 2.65128
        model = ModelSpec(2, 6.0)
        assert abs(shooting._matching_defect(model, 2.65128, _path(model, 2.65128),
                                             shooting.DEFAULT_RTOL)[0]) <= 1e-5


class TestOneRayDefect:
    # for real E the defect integrates the right ray only, u_L = -conj(u_R)

    @pytest.fixture
    def left_calls(self, monkeypatch):
        calls = []
        u_interior = shooting._u_interior

        def counted(model, E, side, path, rtol):
            if side == "L":
                calls.append(E)
            return u_interior(model, E, side, path, rtol)

        monkeypatch.setattr(shooting, "_u_interior", counted)
        return calls

    @pytest.mark.parametrize("M,eps", [(1, 0.0), (1, 8.0), (2, 6.0),
                                       (2, 56.0), (3, 1.3)])
    @pytest.mark.parametrize("k", [0, 3])
    def test_equals_two_ray_defect(self, M, eps, k):
        model = ModelSpec(M, eps)
        E = complex(shooting.default_seed(model, k))
        path = _path(model, E.real)
        w, uR = shooting._matching_defect(model, E, path, shooting.DEFAULT_RTOL)
        uL = _u(model, E, "L", path)
        assert uR == _u(model, E, "R", path)
        assert w.imag == 0.0
        assert abs(w - (uL - uR) / ((1 + abs(uL)) * (1 + abs(uR)))) <= 1e-12

    @pytest.mark.parametrize("M,eps,E", [(1, 2.0, 6.0), (1, 8.0, 5.55),
                                         (1, 58.0, 196.0), (2, 6.0, 2.65),
                                         (2, 56.0, 86.3), (3, 1.3, 10.5)])
    def test_mirrored_radius(self, M, eps, E):
        # the path searches the right ray only; the left ray's own search
        # lands on the same radius
        model = ModelSpec(M, eps)
        path = _path(model, E)
        theta_left = -math.pi - path.theta
        assert theta_left == wedge_angles(model).theta_left
        R = shooting._ray_radius(model, E, theta_left, 1.0, shooting.DEFAULT_RTOL)
        assert R == path.R

    def test_real_seed_integrates_left_ray_once(self, left_calls):
        res = solve_level(ModelSpec(1, 8.0), 0)
        assert res.converged
        assert res.E.imag == 0.0
        assert res.E.real == pytest.approx(5.553310025131625, rel=1e-12)
        assert left_calls == [res.E]

    def test_complex_seed_integrates_both_rays(self, left_calls):
        res = solve_level(ModelSpec(1, 8.0), 0, seed=5.55 + 0.01j)
        assert res.converged
        assert res.E.real == pytest.approx(5.553310025131625, rel=1e-12)
        assert abs(res.E.imag) <= 1e-8 * res.E.real
        assert len(left_calls) >= res.iterations + 2

    @pytest.mark.parametrize("offset", [1e-6, -1e-6])
    def test_pt_check_sees_left_ray(self, monkeypatch, offset):
        # an imaginary error in the left ray alone must fail the PT check
        u_interior = shooting._u_interior

        def skewed(model, E, side, path, rtol):
            u = u_interior(model, E, side, path, rtol)
            return u + 1j * offset * abs(u) if side == "L" else u

        monkeypatch.setattr(shooting, "_u_interior", skewed)
        for model in (ModelSpec(1, 8.0), ModelSpec(2, 6.0)):
            res = solve_level(model, 0)
            assert res.E.imag == 0.0
            assert not res.converged


class TestRootSeed:
    # re-seeded with its own root, a level's last secant step rounds to
    # nothing or spans an ulp; the PT check then divided rounding noise by
    # rounding noise and reported the level unconverged

    @pytest.mark.parametrize("M,eps,tol", [(1, 2.0, 1e-9), (1, 8.0, 1e-12),
                                           (1, 8.0, 1e-9)])
    def test_reseed_near_root(self, monkeypatch, M, eps, tol):
        model = ModelSpec(M, eps)
        root = solve_level(model, 0, tol=tol).E.real
        calls = []
        defect = shooting._matching_defect

        def recorded(model, E, path, rtol):
            calls.append((E, path))
            return defect(model, E, path, rtol)

        monkeypatch.setattr(shooting, "_matching_defect", recorded)
        for ulps in range(-6, 7):
            calls.clear()
            res = solve_level(model, 0, seed=root + ulps * math.ulp(root), tol=tol)
            assert res.converged, ulps
            assert res.E.real == pytest.approx(root, rel=1e-12)
            # a step that leaves E unchanged stops without evaluating again
            assert all(a != b for a, b in zip(calls, calls[1:]))


def _im_action_loop(model, E, y):
    """Scalar reference for _im_action_to_axis: (Im action, sum |terms|)."""
    d = model.epsilon * math.pi / (4.0 * model.M + 2.0 * model.epsilon)
    a, b = turning_radius(model, E) * cmath.exp(-1j * d), -1j * y
    nodes, wts = np.polynomial.legendre.leggauss(64)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    roots = [cmath.sqrt(E - potential_value(model, mid + half * t)) for t in nodes]
    if roots[-1].imag < 0.0:
        roots[-1] = -roots[-1]
    for i in range(len(roots) - 2, -1, -1):
        if abs(roots[i] - roots[i + 1]) > abs(roots[i] + roots[i + 1]):
            roots[i] = -roots[i]
    tot = 0j
    for w, q in zip(wts, roots):
        tot += w * q
    return (tot * half).imag, sum(abs(w * q) for w, q in zip(wts, roots)) * abs(half)


class TestImActionToAxis:
    # the principal roots change sign along the segment at M = 3, eps = 54
    @pytest.mark.parametrize("M,eps", [(1, 2.0), (1, 58.0), (2, 6.0), (2, 56.0),
                                       (3, 1.3), (3, 54.0)])
    @pytest.mark.parametrize("k", [0, 3])
    def test_equals_scalar_loop(self, M, eps, k):
        model = ModelSpec(M, eps)
        E = shooting.default_seed(model, k)
        r = turning_radius(model, E)
        for y in list(np.linspace(0.0, 1.25 * r, 26)) + [match_height(model, E)]:
            want, scale = _im_action_loop(model, E, float(y))
            got = shooting._im_action_to_axis(model, E, float(y))
            assert abs(got - want) <= 1e-15 * scale


    @pytest.mark.parametrize("M,eps", [(1, 2.0), (1, 58.0), (2, 6.0), (2, 56.0),
                                       (3, 1.3), (3, 54.0)])
    @pytest.mark.parametrize("k", [0, 3])
    def test_heights_at_once(self, M, eps, k):
        # an array of heights gives what the heights give one by one
        model = ModelSpec(M, eps)
        E = shooting.default_seed(model, k)
        ys = np.linspace(0.0, 1.25 * turning_radius(model, E), 26)
        got = shooting._im_action_to_axis(model, E, ys)
        assert got.tolist() == [shooting._im_action_to_axis(model, E, float(y))
                                for y in ys]


def _bisected_height(model, E):
    """match_height by bisection of the scalar action to 1e-13 max(1, r)."""
    r = turning_radius(model, E)
    ys = np.linspace(0.0, 1.25 * r, 26)
    gs = [shooting._im_action_to_axis(model, E, float(y)) for y in ys]
    i = max(i for i in range(25) if gs[i] * gs[i + 1] <= 0.0)
    lo, hi, glo = float(ys[i]), float(ys[i + 1]), gs[i]
    while hi - lo > 1e-13 * max(1.0, r):
        mid = 0.5 * (lo + hi)
        gm = shooting._im_action_to_axis(model, E, mid)
        if glo * gm <= 0.0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


class TestMatchHeightRoot:
    @pytest.mark.parametrize("M,eps", [(1, 2.0), (1, 58.0), (2, 6.0), (2, 56.0),
                                       (3, 1.3), (3, 54.0)])
    @pytest.mark.parametrize("k", [0, 3])
    def test_equals_bisection(self, monkeypatch, M, eps, k):
        # one array scan of the heights, then at most 12 actions to the root
        model = ModelSpec(M, eps)
        E = shooting.default_seed(model, k)
        want = _bisected_height(model, E)
        calls = []
        action = shooting._im_action_to_axis

        def counted(model, E, y):
            calls.append(y)
            return action(model, E, y)

        monkeypatch.setattr(shooting, "_im_action_to_axis", counted)
        got = match_height(model, E)
        assert np.ndim(calls[0]) == 1 and len(calls[0]) == 26
        assert len(calls) - 1 <= 12
        assert abs(got - want) <= 1e-13 * max(1.0, turning_radius(model, E))


def _bohr_sommerfeld(model, k):
    # leading WKB level; k may be a half-integer
    if model.M == 1:
        return wkb_energy_closed(k, model.epsilon)
    return wkb_energy_quadrature(model, k)


class TestWkbWindow:
    @pytest.mark.parametrize("M,eps", [(1, 0.0), (1, 2.0), (1, 58.0), (2, 1.0),
                                       (3, 3.9)])
    @pytest.mark.parametrize("k", [0, 1, 5, 24])
    def test_bohr_sommerfeld_neighbours(self, M, eps, k):
        model = ModelSpec(M, eps)
        lo, hi = shooting._wkb_window(model, k, shooting.default_seed(model, k))
        if k == 0:
            assert lo == 0.0
        else:
            assert lo == pytest.approx(_bohr_sommerfeld(model, k - 0.5), rel=1e-12)
        assert hi == pytest.approx(_bohr_sommerfeld(model, k + 0.5), rel=1e-12)

    def test_none_at_limit_scale_seed(self):
        model = ModelSpec(2, 6.0)
        assert shooting._wkb_window(model, 0, shooting.default_seed(model, 0)) == \
            (0.0, math.inf)

    def test_ends_runaway_secant(self, monkeypatch, caplog):
        # a defect whose only root lies 30% above the seed, outside the
        # window: the first capped secant step leaves it
        model = ModelSpec(1, 2.0)
        root = 1.3 * shooting.default_seed(model, 24)
        monkeypatch.setattr(shooting, "_matching_defect",
                            lambda model, E, path, rtol: ((E - root) / root, 1.0))
        res = solve_level(model, 24)
        assert not res.converged
        assert res.iterations <= 5
        assert "WKB window" in caplog.text

    def test_converging_iterates_stay_inside(self, monkeypatch):
        # with no level certified by the spectral engine, the scans shoot
        # every level from its continuation seed
        monkeypatch.setattr(shooting, "certified_levels", lambda *args: [])
        solves = []
        # solve_level and scan_levels both solve through _solve
        solve, defect = shooting._solve, shooting._matching_defect

        def recorded_solve(model, k, seed, *args):
            energies = []
            solves.append((model, k, seed, energies))
            res = solve(model, k, seed, *args)
            assert res.converged, (model, k)
            return res

        def recorded_defect(model, E, path, rtol):
            solves[-1][3].append(E.real)
            return defect(model, E, path, rtol)

        monkeypatch.setattr(shooting, "_solve", recorded_solve)
        monkeypatch.setattr(shooting, "_matching_defect", recorded_defect)
        # the 12 distinct solves of the golden tables (table 3 repeats M = 1)
        for M in (1, 2):
            for label in TABLE_GRID:
                shooting.solve_level(ModelSpec(M, label - (2 * M - 2)), 0)
        for M in (1, 2):
            scan_levels([ModelSpec(M, eps) for eps in (0.0, 1.0, 2.0, 3.0)], 5)
        assert len(solves) == 12 + 2 * 4 * 6
        windowed = 0
        for model, k, seed, energies in solves:
            if model.M > 1 and model.epsilon >= 4.0:
                continue
            lo = _bohr_sommerfeld(model, k - 0.5) if k else 0.0
            hi = _bohr_sommerfeld(model, k + 0.5)
            if seed is not None:
                lo, hi = min(lo, seed.real), max(hi, seed.real)
            assert energies and all(lo <= E <= hi for E in energies), (model, k)
            windowed += 1
        assert windowed == 6 + 2 * 4 * 6


class TestSolveLevel:
    def test_oscillator_third_level(self):
        res = solve_level(ModelSpec(1, 0.0), 3)
        assert res.converged
        assert res.E.real == pytest.approx(7.0, abs=1e-8)

    def test_table_one_row(self):
        res = solve_level(ModelSpec(1, 18.0), 0)
        assert res.converged
        assert res.E.real == pytest.approx(20.67629, abs=1e-5)

    def test_table_two_last_row(self):
        # row label 58 of the quartic table (deformation 56); the eigenvalue
        # converges to 86.317638, about 2e-5 below the printed 86.31766, which
        # is a misprint: the independent straight-ray oracle (_ray_oracle.py,
        # test_ray_oracle.py) gives 86.31763817, i.e. 86.31764 to five places
        res = solve_level(ModelSpec(2, 56.0), 0)
        assert res.converged
        assert res.E.real == pytest.approx(86.31766, abs=1e-4)
        assert res.E.real == pytest.approx(86.3176382, abs=2e-6)

    def test_reality_invariant(self):
        for model, k in ((ModelSpec(1, 2.5), 1), (ModelSpec(1, 8.0), 0),
                         (ModelSpec(2, 6.0), 0)):
            res = solve_level(model, k)
            assert res.converged
            assert abs(res.E.imag) <= 1e-8 * abs(res.E.real)
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
        # exception from a zero scale in _magnus
        res = solve_level(ModelSpec(3, 8.0), 9, seed=279.1894151783502,
                          tol=1e-12, rtol=1e-13)
        assert res.converged
        assert res.E.real == pytest.approx(279.189415, abs=1e-6)

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

    @pytest.mark.parametrize("seed", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_non_finite_seed(self, seed):
        # the path is built for |seed|; a nan seed used to return unconverged
        with pytest.raises(ValueError):
            solve_level(ModelSpec(1, 2.0), 0, seed=seed)

    @pytest.mark.parametrize("factor", [0.0, -1.0, 0.5, math.inf, math.nan])
    def test_radius_factor_domain(self, factor):
        # 0, -1 and 0.5 "converged" to 7.694, 8.133 and 5.5063, not 5.55331
        with pytest.raises(ValueError):
            solve_level(ModelSpec(1, 8.0), 0, radius_factor=factor)


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
        assert res.E.real == pytest.approx(196.0341706067545, rel=1e-12)
        assert counts["match_height"] == 1
        assert counts["defect"] > 1

    def test_rebuilt_after_large_move(self, counts):
        model = ModelSpec(2, 6.0)
        seed = shooting.default_seed(model, 3)
        res = solve_level(model, 3)
        assert res.converged
        assert abs(res.E.real - seed) > 0.3 * seed
        assert res.E.real == pytest.approx(45.90602785378239, rel=1e-10)
        assert counts["match_height"] >= 2
        assert counts["match_height"] < counts["defect"]

    def test_check_path_reaches_match_point(self):
        # rays that turn inside the turning radius: same psi'/psi
        model = ModelSpec(1, 8.0)
        E = 5.553310025131625
        path = shooting._build_path(model, E, 1.0, shooting.DEFAULT_RTOL)
        check = replace(path, corner=shooting.CHECK_CORNER * path.corner)
        for side in "LR":
            u = shooting._u_interior(model, E, side, path, 1e-11)
            u_check = shooting._u_interior(model, E, side, check, 1e-11)
            assert abs(u_check - u) <= 1e-9 * abs(u)

    @pytest.mark.parametrize("k,E_ref", sorted(QUARTIC_LEVELS.items()))
    def test_check_path_flags_inaccurate_levels(self, k, E_ref):
        # the mirrored ray and chord integrations keep Im E = 0 here, so only
        # the check path can flag an inaccurate level
        res = solve_level(ModelSpec(1, 2.0), k)
        assert res.converged == (abs(res.E.real - E_ref) <= 1e-6 * E_ref)


    @pytest.mark.parametrize("M,eps,k", [(1, 58.0, 0), (2, 0.0, 20)])
    def test_two_passes_per_leg(self, monkeypatch, M, eps, k):
        # the step counts fixed when the path is built let every later
        # integration on it finish each leg in two Magnus passes; the check
        # path, whose ray runs on past the turning radius, may double once
        model = ModelSpec(M, eps)
        magnus, u_interior = shooting._magnus, shooting._u_interior
        passes, calls = [0], []

        def counted(*args):
            passes[0] += 1
            return magnus(*args)

        def recorded(model, E, side, path, rtol):
            before = passes[0]
            u = u_interior(model, E, side, path, rtol)
            calls.append((path, passes[0] - before))
            return u

        monkeypatch.setattr(shooting, "_magnus", counted)
        monkeypatch.setattr(shooting, "_u_interior", recorded)
        res = solve_level(model, k)
        assert res.converged
        solve = [n for path, n in calls
                 if path.corner == turning_radius(model, path.E_ref)]
        assert len(solve) >= res.iterations + 2
        assert solve == [4] * len(solve)
        assert len(calls) == len(solve) + 1     # one check-path integration

    def test_stored_counts_still_doubled(self):
        # started from 8 steps on each leg, the doubling reaches the same u
        model = ModelSpec(1, 58.0)
        E = 196.0341706067545
        path = _path(model, E)
        u = _u(model, E, "R", path)
        assert abs(_u(model, E, "R", replace(path, steps=(8, 8))) - u) <= 1e-12 * abs(u)

    @pytest.mark.parametrize("M,eps,k,coeffs,tol", [
        (2, 0.0, 20, [0, 0, 0, 0, 1], 1e-9),
        # stale: this bound dates from the chord that started at the turning
        # radius, whose rounding floor moved u by up to 4e-7 between start
        # counts in the sixth-order regime; the chord from the turning point
        # moves it by 3e-13, and the bound is kept as it was
        (1, 2.0, 30, [0, -2, 0, 0, 4], 1e-6)])
    def test_coarse_start_not_taken_for_floor(self, M, eps, k, coeffs, tol):
        # from 8 steps, the first doublings shrink O(1) gaps by less than 8;
        # they must be doubled on, not returned as the rounding floor
        model = ModelSpec(M, eps)
        E = oscillator_levels(coeffs, k + 1)[k]
        path = _path(model, E)
        u = _u(model, E, "R", path)
        try:
            coarse = _u(model, E, "R", replace(path, steps=(8, 8)))
        except shooting.ShootingError:
            return
        assert abs(shooting._defect(coarse, u)) <= tol

    @staticmethod
    def _chord_passes(monkeypatch, model, path):
        """Step counts of the _magnus passes on the chord of `path`, as they
        run, with their results."""
        _, length, _ = shooting._legs(model, path.E_ref, path.theta, path)[1]
        passes = []
        magnus = shooting._magnus

        def recorded(q, s1, y0, y1, n, t=None):
            y = magnus(q, s1, y0, y1, n, t)
            if s1 == length:
                passes.append((n, y))
            return y

        monkeypatch.setattr(shooting, "_magnus", recorded)
        return passes

    def test_count_from_first_pair(self, monkeypatch):
        # at M = 1, eps = 2, k = 9 the chord's agreeing pair lies at the
        # rounding floor, and a count taken from it alone is 4.7 times the
        # phase count; the first pair the build compares bounds it
        model = ModelSpec(1, 2.0)
        E = shooting.default_seed(model, 9)
        path = _path(model, E)
        passes = self._chord_passes(monkeypatch, model, path)
        assert _path(model, E) == path
        assert len(passes) > 2
        (n, a), (_, b) = passes[:2]
        k = math.sqrt(abs(potential_value(model, -1j * path.ym) - E)) + 1.0
        gap = _projective((a[0], a[1] / k), (b[0], b[1] / k))
        tol = shooting._leg_tol(shooting.DEFAULT_RTOL)
        assert path.steps[1] <= n * (4.0 * gap / tol) ** (1.0 / 6.0) + 1.0

    def test_floor_count_repeats_last_passes(self, monkeypatch):
        # _segment's floor exit, on a hand-built radial path: at M = 1,
        # eps = 2, k = 14 the chord from the turning radius r_t e^(i theta)
        # to -i y* loses several e-folds to the other solution and stops at
        # the rounding floor; started two doublings below that count, it
        # stops there again
        model = ModelSpec(1, 2.0)
        E = shooting.default_seed(model, 14)
        path = _path(model, E)
        assert _path(model, E) == path
        rtol = shooting.DEFAULT_RTOL
        ex = cmath.exp(1j * path.theta)
        corner = turning_radius(model, E) * ex
        ray, chord = (_straight_leg(model, E, x0, x1) for x0, x1 in
                      ((path.R * ex, corner), (corner, -1j * path.ym)))
        psi, dpsi_ds = shooting._outgoing_ic(model, E, path.theta, path.R)
        psi, dpsi, _ = shooting._segment(
            ray, psi, -dpsi_ds / ex, shooting._phase_count(*ray[:2], rtol), rtol, ())
        passes = []
        magnus = shooting._magnus

        def recorded(q, s1, y0, y1, n, t=None):
            passes.append(n)
            return magnus(q, s1, y0, y1, n, t)

        monkeypatch.setattr(shooting, "_magnus", recorded)
        *_, count = shooting._segment(
            chord, psi, dpsi, shooting._phase_count(*chord[:2], rtol), rtol, ())
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
        _u(model, E, "R", path)
        (n, a), (n2, b) = passes
        assert (n, n2) == (path.steps[1], 2 * path.steps[1])
        k = math.sqrt(abs(potential_value(model, -1j * path.ym) - E)) + 1.0
        gap = _projective((a[0], a[1] / k), (b[0], b[1] / k))
        assert gap <= shooting._leg_tol(shooting.DEFAULT_RTOL)

    def test_potential_once_per_node_set(self, monkeypatch):
        # V does not depend on E: a solve evaluates it once per path, leg and
        # node set that its shots use, on either side, not once per shot
        model = ModelSpec(1, 2.0)
        evaluated, used, calls = [0], set(), [0]
        potential, legs = shooting._potential, shooting._legs

        def counted_potential(model, x):
            evaluated[0] += 1
            return potential(model, x)

        def recorded_legs(model, E, theta, path):
            def recorded(j, q):
                def q_used(s):
                    calls[0] += 1
                    used.add((path.R, path.corner, path.ym, j, s.shape))
                    return q(s)
                return q_used
            return [(recorded(j, q), length, u)
                    for j, (q, length, u) in enumerate(legs(model, E, theta, path))]

        monkeypatch.setattr(shooting, "_potential", counted_potential)
        monkeypatch.setattr(shooting, "_legs", recorded_legs)
        res = solve_level(model, 11)
        assert res.converged
        assert evaluated[0] == len(used)
        assert 2 * evaluated[0] < calls[0]

    @pytest.mark.parametrize("M,eps,k", [(1, 8.0, 0)] + [(1, 2.0, k) for k in range(8, 17)])
    def test_one_defect_check_shift(self, monkeypatch, M, eps, k):
        # the check-path shift from the solve's slope is within a factor 2
        # of a secant step between E and 1.001 E on the check path
        model = ModelSpec(M, eps)
        seen = []
        check_shift = shooting._check_shift

        def recorded(model, E, check, slope, rtol):
            shift = check_shift(model, E, check, slope, rtol)
            seen.append((E, check, shift))
            return shift

        monkeypatch.setattr(shooting, "_check_shift", recorded)
        assert solve_level(model, k).converged
        (E, check, shift), = seen
        c0 = shooting._matching_defect(model, E, check, shooting.DEFAULT_RTOL)[0]
        c1 = shooting._matching_defect(model, 1.001 * E, check, shooting.DEFAULT_RTOL)[0]
        two = abs(c0 * 0.001 * E / (c1 - c0))
        assert 0.5 * two <= shift <= 2.0 * two


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
            assert abs(res.E.real - E_ref) <= 1e-9 * E_ref, k

    def test_quartic_levels_to_rounding(self):
        # on the monotone path no leg stops at a rounding floor: the levels
        # of p^2 - x^4 come out within 1e-12 of the reference up to k = 30
        model = ModelSpec(1, 2.0)
        for k, E_ref in enumerate(oscillator_levels([0.0, -2.0, 0.0, 0.0, 4.0], 31)):
            res = solve_level(model, k)
            assert res.converged, k
            assert abs(res.E.real - E_ref) <= 1e-12 * E_ref, k

    @pytest.mark.parametrize("eps,k,lo,hi", [(42.5, 2, 2253.0, 2254.0),
                                             (51.5, 1, 1265.0, 1266.0)])
    def test_large_eps_ray_oracle(self, eps, k, lo, hi):
        # at large eps the check path must accept right levels
        res = solve_level(ModelSpec(1, eps), k)
        assert res.converged
        E_ref = oracle_level(1, eps, lo, hi)
        assert abs(res.E.real - E_ref) <= 1e-10 * E_ref


class TestScan:
    def test_hermitian_anchor(self):
        results = scan_levels([ModelSpec(1, 0.0)], 4)
        energies = [r.E.real for r in results]
        assert energies == pytest.approx([1.0, 3.0, 5.0, 7.0, 9.0], rel=1e-8)

    def test_monotone_rise(self):
        grid = [ModelSpec(1, e) for e in (0.0, 2.0, 4.0, 8.0)]
        results = scan_levels(grid, 4)
        assert all(r.converged for r in results)
        per_level = {}
        for r, model in zip(results, [m for m in grid for _ in range(5)]):
            per_level.setdefault(r.k, []).append(r.E.real)
        for k, curve in per_level.items():
            assert all(b > a for a, b in zip(curve, curve[1:])), f"level {k}"

    def test_ordering_is_deterministic(self):
        grid = [ModelSpec(1, e) for e in (1.0, 0.0)]
        results = scan_levels(grid, 1)
        assert [r.k for r in results] == [0, 1, 0, 1]
        assert results[0].E.real < results[2].E.real  # eps = 0 rows first

    def test_one_quadrature_per_level(self, monkeypatch):
        # shaped like a level-scan item at M = 2, with every level shot as if
        # the spectral engine had certified none: the seed, the continuation
        # ratio and the WKB window share one quadrature per (model, k)
        monkeypatch.setattr(shooting, "certified_levels", lambda *args: [])
        calls = []
        quadrature = shooting.wkb_energy_quadrature

        def counted(model, k):
            calls.append((model, k))
            return quadrature(model, k)

        monkeypatch.setattr(shooting, "wkb_energy_quadrature", counted)
        grid = [ModelSpec(2, eps) for eps in (0.0, 1.1, 2.9)]
        results = scan_levels(grid, 5)
        assert all(r.converged for r in results)
        assert sorted(calls, key=lambda c: (c[0].epsilon, c[1])) == \
            [(model, k) for model in grid for k in range(6)]

    @pytest.mark.parametrize("M,want", [
        (2, [1.905812, 7.753113, 17.684143, 29.998397, 44.784535, 61.656818]),
        (3, [1.743317, 6.963227, 15.562837, 27.161729, 41.103504, 57.296217])])
    def test_labels_at_limit_scale_seeds(self, M, want):
        # at eps >= 4, M >= 2 default_seed is no WKB bracket, and shooting
        # from it gave levels 3 and 4 (M = 2) or 3, 4 and 5 (M = 3) one
        # energy; these certified spectral values are roots that shooting
        # started from them converges to
        results = scan_levels([ModelSpec(M, 4.0)], 5)
        assert [r.E.real for r in results] == pytest.approx(want, abs=1e-6)
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
            assert type(r.E) is complex and type(r.residual) is float

    def test_levels_increase_at_eps_8(self):
        energies = [r.E.real for r in scan_levels([ModelSpec(2, 8.0)], 5)]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_scan_reproduces_table_rows(self):
        grid = [ModelSpec(1, e) for e in (8.0, 18.0)]
        results = scan_levels(grid, 0)
        assert results[0].E.real == pytest.approx(5.55331, abs=2e-5)
        assert results[1].E.real == pytest.approx(20.67629, abs=2e-5)


class TestMatchHeight:
    def test_origin_at_zero_deformation(self):
        assert match_height(ModelSpec(1, 0.0), 1.0) == 0.0

    def test_approaches_turning_radius(self):
        model = ModelSpec(1, 58.0)
        r_tp = 196.0 ** (1.0 / 60.0)
        ym = match_height(model, 196.0)
        assert 0.9 * r_tp <= ym <= 1.05 * r_tp
