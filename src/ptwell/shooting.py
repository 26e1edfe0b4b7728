"""Finite-deformation eigensolver by complex-ray shooting.

The Schroedinger equation -psi'' + V psi = E psi is integrated inward along
the two anti-Stokes rays that carry the decay boundary conditions, from the
WKB decaying solution with its first correction at the outer radius where
the decay exponent reaches 1/2 ln(1/rtol) + 1.5: the inward integration
damps the start error by about e^(-2 depth), below the integrator
tolerance.  Eigenvalues are the zeros of a normalized log-derivative
matching defect, located by a damped complex secant iteration.  Where the
seed is Bohr-Sommerfeld (M = 1, or eps < 4) level k lies between the WKB
energies at k - 1/2 and k + 1/2, and an iterate that leaves that window
ends the solve unconverged.

The solver matches on the negative imaginary axis at the height where the
classically allowed arch joining the turning points crosses it: the signal
there stays O(1) for every deformation, which makes the large-deformation
golden values reachable in double precision, while at the origin it falls
off exponentially once the deformation is large (match_height).

The path of each side is monotone.  A straight leg runs from the outer
point to the turning point x_t, and on it the wanted solution only grows; a
chord joins x_t to the match point, and on it the solution gains and loses
the same few e-folds (0.5 to 1.8 at M = 1, eps = 2, k = 8..30), so rounding
is not amplified.  Both legs are integrated by the sixth-order Magnus
method, the step count doubled until two counts agree (_segment).  The
equation is linear and a transfer matrix does not depend on the state it
carries, so one call of the kernel _transfers forms the first two counts of
both legs of a shot in one numpy pass and one pairwise tree.  A solve
builds its path (outer radius, vertex, match height and the count each leg
starts from) once, from the seed energy, and rebuilds it only when |E|
leaves a band of PATH_BAND around it; the counts it keeps let every later
integration on the path take two passes per leg, and V, which does not
depend on E, is evaluated once per path and node set (_build_path, _legs).

For real E the left solution is the PT mirror of the right one,
u_L(-i y*) = -conj(u_R(-i y*)), so the defect needs only the right side and
is real: a real seed keeps the secant on the real axis.  Complex E
integrates both sides.  After a real root converges the left side is
integrated once there, and the PT-reality check is applied to the secant
step that this two-sided defect would take.  The two integrations mirror
each other to rounding, so that check sees no integration error; a
converged root is therefore also re-checked on a second path to the same
match point, whose vertex is CHECK_CORNER x_t: an eigenvalue does not
depend on the path, so a root that moves there by more than CHECK_REL |E|
is reported unconverged (_check_shift gives the move).
All operations are pure.  scan_levels shoots only the levels that the
spectral engine (ptwell.spectral) does not certify.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .geometry import (ModelSpec, continued_sqrt, gauss_legendre,
                       potential_phase, turning_points,
                       turning_radius, wedge_angles)
from .spectral import certified_levels
from .wkb import wkb_energy_closed, wkb_energy_quadrature

logger = logging.getLogger(__name__)

DEFAULT_RTOL = 1e-11        # integrator tolerance: Magnus steps are
                            # refined to rtol/100 on each leg
DEFAULT_TOL = 1e-9          # secant convergence: |dE| <= tol |E|
MAX_DEPTH = 120.0           # cap so radius_factor cannot explode the run
MAX_ITER = 60
PATH_BAND = 0.05            # |E| band per path; moves the decay depth at R by < 1
CHECK_CORNER = 0.95         # corner radius of the check path, in turning radii
CHECK_REL = 1e-6            # root shift allowed on the check path: the six
                            # significant digits the golden tables print


class ShootingError(RuntimeError):
    """Integration or convergence failure inside the shooting solver."""


@dataclass(frozen=True)
class EigenResult:
    """A converged (or failed) eigenvalue solve for one level."""

    k: int
    E: complex
    residual: float     # |matching defect| at the final iterate; for a
                        # level from scan_levels' spectral engine, the
                        # relative disagreement of its two contours
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# outer radius from the decay depth
# ---------------------------------------------------------------------------

def _decay_depth(model: ModelSpec, E: float, theta: float, R: float) -> float:
    """int |sqrt(V - E)| d|x| along the ray between turning radius and R."""
    r0 = turning_radius(model, E)
    if R <= r0:
        return 0.0
    nodes, wts = gauss_legendre(32)
    s = 0.5 * (R - r0) * nodes + 0.5 * (R + r0)
    v = potential_phase(model, theta) * s ** (2.0 * model.M + model.epsilon)
    return 0.5 * (R - r0) * float(np.dot(wts, np.sqrt(np.abs(v - E))))


def _outer_radius(model: ModelSpec, E: float, theta: float, depth: float) -> float:
    r0 = turning_radius(model, E)
    R = r0 * 1.05
    while _decay_depth(model, E, theta, R) < depth:
        R *= 1.25
        if R > 1e9:
            raise ShootingError("outer radius runaway")
    lo, hi = R / 1.25, R
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if _decay_depth(model, E, theta, mid) < depth:
            lo = mid
        else:
            hi = mid
    return hi


def _ray_radius(model: ModelSpec, E: float, theta: float,
                radius_factor: float, rtol: float) -> float:
    """Outer radius where the decay depth reaches 1/2 ln(1/rtol) + 1.5,
    enlarged by `radius_factor`.

    Integrated inward, the solution growing outward that the corrected WKB
    start admixes is damped by about e^(-2 depth) against the wanted one,
    which puts it below rtol at this depth.  Because the depth grows like
    R^(M + eps/2 + 1), an enlarged radius is capped where the depth reaches
    MAX_DEPTH to keep large-deformation runs finite.
    """
    if not 1.0 <= radius_factor < math.inf:
        raise ValueError("radius_factor must be finite and >= 1")
    depth = 0.5 * math.log(1.0 / rtol) + 1.5
    R = _outer_radius(model, E, theta, depth) * radius_factor
    if radius_factor != 1.0 and _decay_depth(model, E, theta, R) > MAX_DEPTH:
        R = _outer_radius(model, E, theta, MAX_DEPTH)
    return R


def _outgoing_ic(model: ModelSpec, E: complex, theta: float, R: float):
    """(psi, dpsi/ds) of the WKB solution decaying outward, at s = 0.

    psi'/psi = -sqrt(Q) - Q'/(4Q) with Q = V - E and Q' = n V/x: the leading
    form with its first correction.
    """
    ex = cmath.exp(1j * theta)
    n = 2.0 * model.M + model.epsilon
    v = R ** n * potential_phase(model, theta)
    q = cmath.sqrt(v - E)
    if (q * ex).real < 0.0:
        q = -q
    return 1.0 + 0j, (q + n * v / (4.0 * R * ex * (v - E))) * ex


# ---------------------------------------------------------------------------
# straight segments: sixth-order Magnus steps for psi_ss = q(s) psi
# ---------------------------------------------------------------------------

_GAUSS3 = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
_IDENTITY = np.eye(2, dtype=complex)[..., None]
_MAX_RAY_STEPS = 2 ** 16     # a segment that needs more raises: caps its memory


def _step_matrices(qs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Entries (a, b, c, e), shape (4, N), of the matrices [[a, b], [c, e]]
    of Magnus steps of sizes h, from q at their Gauss nodes, shape (3, N).

    The three-Gauss-point scheme of Blanes, Casas, Oteo & Ros, Phys. Rep.
    470 (2009) 151, section 4: with A_j = [[0, 1], [q_j, 0]] at the nodes,
    a1 = h A_2, a2 = sqrt(15) h/3 (A_3 - A_1), a3 = 10 h/3 (A_3 - 2 A_2 + A_1),
    C1 = [a1, a2], C2 = -[a1, 2 a3 + C1]/60 and
    Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240.  In the basis
    E12, E21, H = diag(1, -1) the commutators are closed forms, and the
    traceless exp(Omega) = cosh d I + sinh d/d Omega with d^2 = -det Omega.
    """
    q1, q2, q3 = qs
    b2 = (math.sqrt(15.0) / 3.0 * h) * (q3 - q1)
    b3 = (10.0 / 3.0 * h) * (q3 - 2.0 * q2 + q1)
    hq2, hb2 = h * q2, h * b2
    # Omega = [[w, w12], [w21, -w]]
    w12 = h + h * (hb2 * hb2 - 20.0 * h * b3) / 3600.0
    w21 = hq2 + b3 / 12.0 + (20.0 * h * hq2 * b3 + h * b3 * b3
                             - 30.0 * hb2 * b2 + hq2 * hb2 * hb2) / 3600.0
    w = hb2 * (h * (40.0 * hq2 + b3) / 30.0 - 20.0) / 240.0
    d2 = w * w + w12 * w21
    d = np.sqrt(d2)
    ed = np.exp(d)
    ch = 0.5 * (ed + 1.0 / ed)
    small = np.abs(d2) < 1e-6
    sh = 0.5 * (ed - 1.0 / ed) / np.where(small, 1.0, d)
    sh[small] = (1.0 + d2 / 6.0 + d2 * d2 / 120.0)[small]
    return np.stack([ch + sh * w, sh * w12, sh * w21, ch - sh * w])


def _transfers(legs: Sequence[tuple]) -> list[list[complex]]:
    """[a, b, c, e] of the transfer matrix [[a, b], [c, e]], up to a scale,
    of n uniform Magnus steps on [0, length] for psi_ss = q(s) psi, q taking
    an array of s, for each count n of each (q, length, counts) in `legs`.

    The one Magnus kernel: q is called once per count, on the (3, n) Gauss
    nodes of its n steps, every step matrix is formed in one vector pass,
    and the blocks of steps, one per count, are multiplied pairwise in one
    tree.  Each block is padded with identities to a power of two and the
    blocks are laid out largest first, so no pair straddles two blocks and a
    block leaves the tree, from the end, once it is one matrix.  At each
    level every matrix is divided by its own largest entry: a common scale
    would let matrices far below it underflow to zero.
    """
    counts = [n for _, _, ns in legs for n in ns]
    if max(counts) > _MAX_RAY_STEPS:
        raise ShootingError(f"segment needs more than {_MAX_RAY_STEPS} Magnus steps")
    qs = np.concatenate([q(length / n * (np.arange(n) + _GAUSS3[:, None]))
                         for q, length, ns in legs for n in ns], axis=1)
    hs = np.repeat([length / n for _, length, ns in legs for n in ns], counts)
    steps = _step_matrices(qs, hs).reshape(2, 2, -1)
    blocks = [steps[..., e - n:e] for n, e in zip(counts, itertools.accumulate(counts))]
    sizes = [1 << (n - 1).bit_length() for n in counts]
    order = sorted(range(len(counts)), key=sizes.__getitem__, reverse=True)
    m = np.concatenate([part for i in order for part in (
        blocks[i], np.broadcast_to(_IDENTITY, (2, 2, sizes[i] - counts[i])))], axis=2)
    out, width = [None] * len(counts), 1
    while True:
        scale = np.abs(m).max(axis=(0, 1))
        if not 0.0 < scale.min() <= scale.max() < math.inf:
            raise ShootingError("non-finite propagator")
        m /= scale
        while order and sizes[order[-1]] == width:
            out[order.pop()] = m[..., -1].ravel().tolist()
            m = m[..., :-1]
        if not order:
            return out
        # later step on the left: l r for l = m[..., 2i + 1], r = m[..., 2i]
        l, r = m[..., 1::2], m[..., 0::2]
        m = l[:, :1] * r[:1] + l[:, 1:] * r[1:]
        width *= 2


def _magnus(q, s1: float, y0: complex, y1: complex, n: int,
            t: list[complex] | None = None) -> tuple[complex, complex]:
    """(psi, dpsi/ds) at s1 from (y0, y1) at 0, for psi_ss = q(s) psi, in n
    uniform sixth-order Magnus steps, up to a common scale: by their
    transfer matrix t, else by _transfers.  Every Magnus pass comes here."""
    a, b, c, e = t if t is not None else _transfers([(q, s1, (n,))])[0]
    y0, y1 = a * y0 + b * y1, c * y0 + e * y1
    scale = max(abs(y0), abs(y1))
    return y0 / scale, y1 / scale


def _leg_tol(rtol: float) -> float:
    """Projective agreement that ends the step doubling on a leg."""
    return max(rtol / 100.0, 2e-14)


def _phase_count(q, length: float, rtol: float) -> int:
    """Magnus steps to try first on a leg, with no count known:
    0.16 tol^(-1/6) per radian of the WKB phase int sqrt|V - E| ds
    (33-point trapezoid), above the 0.05..0.14 that the agreement needs on
    the rays of M = 1..3, eps = 0..58, k = 0..28."""
    qs = q(np.linspace(0.0, length, 33))
    phase = float(np.trapezoid(np.sqrt(np.abs(qs)), dx=length / 32.0))
    return max(8, math.ceil(0.16 * phase * _leg_tol(rtol) ** (-1.0 / 6.0)))


def _segment(leg: tuple, psi: complex, dpsi: complex, steps: int, rtol: float,
             first: Sequence[list[complex]]) -> tuple[complex, complex, int]:
    """(psi, dpsi/dx) at the end x1 of `leg` (see _legs) from (psi, dpsi/dx)
    at its start, up to a common scale, and the step count to start from on
    a leg like it.  `first` holds the transfer matrices of the first passes.

    The count, `steps` first, is doubled until the results for n and 2n
    agree in (psi, psi_s/k), k = sqrt|q| + 1 at x1, to
    tol = max(rtol/100, 2e-14): |a0 b1 - a1 b0| <= tol |a| |b|, a test that
    holds also where psi or psi_s vanishes at x1; or until a doubling shrinks
    a gap of at most sqrt(tol) by less than 8, where the sixth-order error
    shrinks by 64, so the rest is rounding.  The bound keeps out coarse
    counts, whose gaps stall near 0.16, far above rounding floors (below
    0.44 sqrt(tol)): a count too small is doubled, never trusted.

    The count returned: the gap falls as n^-6, so a pair (n, 2n) at gap g
    puts the pair that meets tol with a margin of 4 at n (4 g/tol)^(1/6)
    steps.  After agreement, max(8, ceil(.)) of the smallest such count over
    the pairs compared: a last gap near the rounding floor overstates the
    truncation error, which the larger gaps before it measure.  After the
    rounding floor, the count two doublings below the last, which reaches
    the floor again in three passes.
    """
    q, length, u = leg
    tol = _leg_tol(rtol)
    k = math.sqrt(abs(q(np.array([length]))[0])) + 1.0
    first = iter(first)
    prev, gap, best = None, math.inf, math.inf
    while True:     # _transfers raises past _MAX_RAY_STEPS
        y0, y1 = _magnus(q, length, psi, u * dpsi, steps, next(first, None))
        a0, a1 = y0, y1 / k
        if prev is not None:
            last, gap = gap, abs(prev[0] * a1 - prev[1] * a0) / (
                math.hypot(abs(prev[0]), abs(prev[1])) * math.hypot(abs(a0), abs(a1)))
            best = min(best, steps / 2 * (4.0 * gap / tol) ** (1.0 / 6.0))
            if gap <= tol:
                return y0, y1 / u, max(8, math.ceil(best))
            if 8.0 * gap > last and gap <= math.sqrt(tol):
                return y0, y1 / u, steps // 4
        prev, steps = (a0, a1), 2 * steps


# ---------------------------------------------------------------------------
# interior matching: arch height, ray and chord
# ---------------------------------------------------------------------------

def _im_action_to_axis(model: ModelSpec, E: float, y):
    """Im of int sqrt(E - V) dx from the right turning point to -i y, on
    the branch continued from the axis end, where Im sqrt >= 0: a float for
    a float y, an array for an array of heights.

    The segments of all heights form one path for continued_sqrt; its flips
    between the end of one segment and the start of the next are undone when
    each segment is turned to its own axis end.  Each sum runs over the
    nodes in order, as a scalar loop would add them.
    """
    ys = np.atleast_1d(y)
    a, b = turning_points(model, E).x_right, -1j * ys[:, None]
    nodes, wts = gauss_legendre(64)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * nodes
    roots = continued_sqrt(model, E, x.ravel(), -1).reshape(x.shape)
    roots = np.where(roots[:, -1:].imag < 0.0, -roots, roots)
    im = (np.cumsum(wts * roots, axis=1)[:, -1:] * half).imag[:, 0]
    return im if np.ndim(y) else float(im[0])


def match_height(model: ModelSpec, E: float) -> float:
    """Height y* where the classically allowed arch crosses -i y.

    Found as the zero of the imaginary part of the action accumulated from
    the right turning point (path independent).  This is the origin at
    eps = 0 and approaches the turning radius as the deformation grows.
    The highest sign change among 26 heights up to 1.25 turning radii is
    refined by the Illinois method (Dowell & Jarratt, BIT 11 (1971) 168)
    until the bracket is narrower than 1e-12 max(1, r) or the iterate stops
    moving.
    """
    if model.epsilon == 0.0 and model.M % 2 == 1:
        return 0.0
    r = turning_radius(model, E)
    ys = np.linspace(0.0, 1.25 * r, 26)
    gs = _im_action_to_axis(model, E, ys)
    cross = np.flatnonzero(gs[:-1] * gs[1:] <= 0.0)
    if not cross.size:
        return float(ys[int(np.argmin(np.abs(gs)))])
    i = int(cross[-1])
    a, b, fa, fb = float(ys[i]), float(ys[i + 1]), float(gs[i]), float(gs[i + 1])
    c, side = a, 0
    for _ in range(50):
        if b - a < 1e-12 * max(1.0, r):
            break
        c_prev, c = c, (a * fb - b * fa) / (fb - fa)
        if c == c_prev:
            break
        fc = _im_action_to_axis(model, E, c)
        if fc * fb > 0.0:
            b, fb = c, fc
            if side == -1:
                fa *= 0.5       # a kept twice: halve its weight
            side = -1
        elif fc * fa > 0.0:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
        else:
            break
    return c


def _potential(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """V(x) = |x|^N e^{i(N phi + eps pi/2)} in the closed lower half-plane,
    with N = 2M + eps and phi = arg x: potential_value with no logarithm."""
    n = 2.0 * model.M + model.epsilon
    return np.abs(x) ** n * np.exp(1j * (n * np.angle(x) + 0.5 * math.pi * model.epsilon))


@dataclass(frozen=True)
class _Path:
    """Path of one solve, built for |E| = E_ref: on the right a straight leg
    from R e^{i theta} to the vertex, the turning point x_t of E_ref scaled
    to radius `corner` (CHECK_CORNER r_t on the check path), then a chord to
    the match point -i ym; the left side is its mirror image -conj(x).  The
    legs start from `steps` Magnus steps; `v` keeps V (see _legs)."""

    E_ref: float
    ym: float
    corner: float
    theta: float
    R: float
    steps: tuple[int, int]
    v: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _legs(model: ModelSpec, E: complex, theta: float, path: _Path) -> list[tuple]:
    """(q, length, u) of the first leg and the chord of `path` on the side of
    the ray at angle theta (path.theta, or -pi - path.theta on the left), at
    energy E: psi_ss = q(s) psi = u^2 (V - E) psi on [0, length] along the
    unit direction u.  q is called on fixed node sets, one per shape (Gauss
    nodes of n Magnus steps, the leg's end, _phase_count's probes), so V on
    the right side is evaluated once per leg and shape and kept in path.v;
    on the left, V at -conj(x) is conj V(x)."""
    x_t = turning_points(model, path.E_ref).x_right
    ends = (path.R * cmath.exp(1j * path.theta), path.corner / abs(x_t) * x_t,
            -1j * path.ym)
    mirror = theta != path.theta

    def leg(j):
        x0, length = ends[j], abs(ends[j + 1] - ends[j])
        u = (ends[j + 1] - x0) / length

        def q(s):
            v = path.v.get((j, s.shape))
            if v is None:
                v = path.v[j, s.shape] = _potential(model, x0 + s * u)
            return (u * u).conjugate() * (v.conjugate() - E) if mirror else u * u * (v - E)
        return q, length, -u.conjugate() if mirror else u

    return [leg(0), leg(1)]


def _shoot(model: ModelSpec, E: complex, theta: float, path: _Path,
           steps: tuple[int, int], rtol: float) -> tuple[complex, tuple[int, int]]:
    """psi'/psi at -i ym, carried along the legs of `path` on the side of
    the ray at angle theta from `steps` Magnus steps first, whose first two
    passes take one call of _transfers; and the counts _segment returns."""
    psi, dpsi_ds = _outgoing_ic(model, E, theta, path.R)    # s = R - |x|
    dpsi = -dpsi_ds / cmath.exp(1j * theta)
    legs = _legs(model, E, theta, path)
    firsts = _transfers([(q, length, (n, 2 * n))
                         for (q, length, _), n in zip(legs, steps)])
    psi, dpsi, ray = _segment(legs[0], psi, dpsi, steps[0], rtol, firsts[:2])
    psi, dpsi, chord = _segment(legs[1], psi, dpsi, steps[1], rtol, firsts[2:])
    return dpsi / psi, (ray, chord)


def _build_path(model: ModelSpec, E_ref: float, radius_factor: float,
                rtol: float) -> _Path:
    """The path for E_ref.  Its step counts come from one integration of the
    right side at E_ref, started from _phase_count on each leg; the left
    side mirrors the right one, and so do its decay depth and its counts."""
    theta = wedge_angles(model).theta_right
    R = _ray_radius(model, E_ref, theta, radius_factor, rtol)
    path = _Path(E_ref, match_height(model, E_ref), turning_radius(model, E_ref),
                 theta, R, (0, 0))
    first = [_phase_count(q, length, rtol)
             for q, length, _ in _legs(model, E_ref, theta, path)]
    built = replace(path, steps=_shoot(model, E_ref, theta, path, first, rtol)[1])
    built.v.update(path.v)
    return built


def _u_interior(model: ModelSpec, E: complex, side: str, path: _Path,
                rtol: float) -> complex:
    """psi'/psi at -i ym, integrated along `path` from the outer point."""
    if not cmath.isfinite(E):
        raise ShootingError("non-finite energy")
    theta = -math.pi - path.theta if side == "L" else path.theta
    return _shoot(model, E, theta, path, path.steps, rtol)[0]


def _defect(uL: complex, uR: complex) -> complex:
    """Interior-matched defect (u_L - u_R) / ((1 + |u_L|)(1 + |u_R|)).

    The product normalization keeps the defect bounded and vanishing at
    every eigenvalue, including states whose wavefunction has a node at the
    matching point (the log-derivatives then diverge on both sides).
    """
    return (uL - uR) / ((1.0 + abs(uL)) * (1.0 + abs(uR)))


def _matching_defect(model: ModelSpec, E: complex, path: _Path,
                     rtol: float) -> tuple[complex, complex]:
    """(defect, u_R) at E.  For real E, u_L = -conj(u_R) by PT symmetry, so
    only the right ray is integrated and the defect is real."""
    uR = _u_interior(model, E, "R", path, rtol)
    uL = -uR.conjugate() if E.imag == 0.0 else _u_interior(model, E, "L", path, rtol)
    return _defect(uL, uR), uR


# ---------------------------------------------------------------------------
# eigenvalue iteration
# ---------------------------------------------------------------------------

def level_nu(M: int, k: int) -> float:
    """Limit index of the k-th level: nu = k//M + ((k mod M) + 1)/(M + 1)."""
    return k // M + ((k % M) + 1) / (M + 1.0)


def default_seed(model: ModelSpec, k: int) -> float:
    """Solver seed: closed-form WKB for M = 1, else the better of the WKB
    quadrature (small deformation) and the solvable-limit scale (large)."""
    if model.M == 1:
        return wkb_energy_closed(k, model.epsilon)
    if model.epsilon < 4.0:
        return wkb_energy_quadrature(model, k)
    nu = level_nu(model.M, k)
    n = 2.0 * model.M + model.epsilon
    return (0.25 * nu * nu * n * n) ** (n / (n + 2.0))


def _wkb_window(model: ModelSpec, k: int, E_k: float) -> tuple[float, float]:
    """Bracket of level k: the leading WKB energies at k - 1/2 and k + 1/2
    (0 for k = 0), from the level-k estimate E_k.

    Both Bohr-Sommerfeld seeds, the M = 1 closed form and the quadrature,
    scale as (k + 1/2)^(2N/(N + 2)) with N = 2M + eps.  Where default_seed
    is the solvable-limit scale (M >= 2, eps >= 4) there is no bracket.
    """
    if model.M > 1 and model.epsilon >= 4.0:
        return 0.0, math.inf
    n = 2.0 * model.M + model.epsilon
    p = 2.0 * n / (n + 2.0)
    return E_k * (k / (k + 0.5)) ** p, E_k * ((k + 1.0) / (k + 0.5)) ** p


def _check_shift(model: ModelSpec, E: complex, check: _Path, slope: complex,
                 rtol: float) -> float:
    """|root of the defect on `check` - E|, from one secant step at E with
    the solve's slope dE/dw: at a fixed match point the defect does not
    depend on the path, so neither does its slope."""
    try:
        return abs(_matching_defect(model, E, check, rtol)[0] * slope)
    except ShootingError:
        return math.inf


def _check_tolerances(tol: float, rtol: float) -> None:
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("tol out of range [1e-13, 1e-6]")
    if not 1e-13 <= rtol <= 1e-6:
        raise ValueError("rtol out of range [1e-13, 1e-6]")


def solve_level(model: ModelSpec, k: int, seed: complex | None = None,
                tol: float = DEFAULT_TOL, rtol: float = DEFAULT_RTOL,
                radius_factor: float = 1.0,
                max_iter: int = MAX_ITER) -> EigenResult:
    """Converge level k by damped complex secant on the matching defect.

    Stops when |dE| <= tol |E|, or when the step no longer changes E; the
    result is flagged converged only if the PT-reality check
    |Im E| <= 1e-8 |Re E| also holds, and if the root moves by at most
    CHECK_REL |E| on the check path (see the module docstring).  A real seed
    integrates one ray per defect and stays real; at its root the check
    reads Im E from the secant step w2 (E1 - E0) / (w1 - w0) of the two-ray
    defect w2, with the slope of the last step taken.  Where default_seed is
    WKB, an iterate whose real part leaves the WKB window of level k (see
    _wkb_window), widened to include the seed, ends the solve unconverged.
    Failures return an unconverged EigenResult instead of raising.

    Raises:
        ValueError: for k < 0, tol or rtol outside [1e-13, 1e-6], a
            radius_factor that is not finite and >= 1, or a seed whose
            modulus is 0, inf or nan (the path is built for |seed|).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _solve(model, k, seed, default_seed(model, k), tol, rtol,
                  radius_factor, max_iter)


def _solve(model: ModelSpec, k: int, seed: complex | None, est: float,
           tol: float, rtol: float, radius_factor: float,
           max_iter: int) -> EigenResult:
    """solve_level, given the level-k estimate est = default_seed(model, k)."""
    _check_tolerances(tol, rtol)
    E0 = complex(seed) if seed is not None else complex(est)
    lo, hi = _wkb_window(model, k, est)
    lo, hi = min(lo, E0.real), max(hi, E0.real)
    E1 = E0 * 1.001
    try:
        path = _build_path(model, abs(E0), radius_factor, rtol)
        w0 = _matching_defect(model, E0, path, rtol)[0]
        w1, uR = _matching_defect(model, E1, path, rtol)
    except ShootingError as exc:
        logger.warning("integration failed at seed for k=%d: %s", k, exc)
        return EigenResult(k, E0, math.inf, 0, False)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        if w1 == w0:
            break
        slope = (E1 - E0) / (w1 - w0)
        dE = -w1 * slope
        cap = 0.25 * abs(E1)
        if abs(dE) > cap:
            dE *= cap / abs(dE)
        if E1 + dE == E1:
            # below half an ulp of E1: E1 is the root
            converged = True
            break
        if not lo <= (E1 + dE).real <= hi:
            logger.warning("secant left the WKB window [%g, %g] for k=%d at E=%s",
                           lo, hi, k, E1 + dE)
            return EigenResult(k, E1, abs(w1), iterations, False)
        E0, w0 = E1, w1
        E1 = E1 + dE
        try:
            if abs(abs(E1) - path.E_ref) > PATH_BAND * path.E_ref:
                # the defect depends on the path: keep both secant points on one
                path = _build_path(model, abs(E1), radius_factor, rtol)
                w0 = _matching_defect(model, E0, path, rtol)[0]
            w1, uR = _matching_defect(model, E1, path, rtol)
        except ShootingError as exc:
            logger.warning("integration failed at E=%s for k=%d: %s", E1, k, exc)
            return EigenResult(k, E1, math.inf, iterations, False)
        if abs(dE) <= tol * abs(E1):
            converged = True
            break
    im = E1.imag
    if converged and im == 0.0:
        # the one-ray defect is real by construction: test the two-ray one
        try:
            w2 = _defect(_u_interior(model, E1, "L", path, rtol), uR)
        except ShootingError as exc:
            logger.warning("left-ray integration failed for k=%d: %s", k, exc)
            return EigenResult(k, E1, math.inf, iterations, False)
        # the slope of the step that led here: its pair lies more than
        # tol |E| apart, whereas the last pair can be an ulp apart, where
        # w1 - w0 is rounding noise
        im = (w2 * slope).imag
    pt_real = abs(im) <= 1e-8 * abs(E1.real)
    if not pt_real:
        logger.warning("PT-reality violated for k=%d: E=%s", k, E1)
    path_ok = True
    if converged and pt_real:
        check = replace(path, corner=CHECK_CORNER * path.corner)
        path_ok = _check_shift(model, E1, check, slope, rtol) <= CHECK_REL * abs(E1)
        if not path_ok:
            logger.warning("path-dependent root for k=%d at E=%s", k, E1)
    return EigenResult(k, E1, abs(w1), iterations, converged and pt_real and path_ok)


def scan_levels(model_grid: Sequence[ModelSpec], k_max: int,
                tol: float = DEFAULT_TOL, rtol: float = DEFAULT_RTOL) -> list[EigenResult]:
    """Levels k = 0..k_max over a deformation grid.

    At each grid point the spectral engine (ptwell.spectral) gives level k
    when it and every lower level agree within tol on two collocation
    contours; it is returned converged, with 0 iterations and that relative
    disagreement as its residual.  Every other level is shot, by the solver
    of solve_level (rtol is its integrator tolerance), from a continuation
    seed: the last converged E of the level times the ratio of default_seed
    here to default_seed at the previous grid point.  With k_max = 5 the
    engine certifies every level at M = 1 for eps = 0 and
    0.25 <= eps <= 14, at M = 2 for eps <= 10 and at M = 3 for eps <= 8;
    M = 1 near eps = 0+ (below about 0.23) and larger deformations are
    shot.

    Results are ordered by (epsilon, k).  Per-point failures are reported as
    unconverged entries and the scan continues.  A level that stops rising
    with epsilon triggers a warning, as does a collision of two levels.

    Raises:
        ValueError: for k_max < 0, or a tol or rtol that solve_level rejects.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    _check_tolerances(tol, rtol)
    models = sorted(model_grid, key=lambda m: m.epsilon)
    out: list[EigenResult] = []
    prev: dict[int, complex] = {}       # last converged E of each level
    prev_model = None
    est = functools.cache(default_seed)     # evaluated once per (model, k)
    for model in models:
        results = [EigenResult(k, complex(E), rel, 0, True) for k, (E, rel)
                   in enumerate(certified_levels(model, k_max, tol))]
        for k in range(len(results), k_max + 1):
            seed = prev[k].real * (est(model, k) / est(prev_model, k)) \
                if k in prev else est(model, k)
            results.append(_solve(model, k, seed, est(model, k), tol, rtol,
                                  1.0, MAX_ITER))
        for k, res in enumerate(results):
            if res.converged:
                if k in prev and res.E.real < prev[k].real - tol * abs(res.E):
                    logger.warning("level k=%d not rising at epsilon=%g",
                                   k, model.epsilon)
                prev[k] = res.E
            out.append(res)
        for a, b in itertools.combinations(results, 2):
            if a.converged and b.converged and abs(a.E - b.E) < 1e-6 * abs(a.E):
                logger.warning("level collision at epsilon=%g: k=%d and k=%d",
                               model.epsilon, a.k, b.k)
        prev_model = model
    return out
