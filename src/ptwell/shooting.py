"""Finite-deformation eigensolver by complex-ray shooting.

The Schroedinger equation -psi'' + V psi = E psi is integrated inward along
the anti-Stokes ray of the right decay wedge (the left one follows by PT
symmetry, see below), from the WKB decaying solution with its first
correction at the outer radius where a lower bound on the decay exponent
(geometry.decay_radius) reaches 1/2 ln(1/rtol) + 1.5: the inward
integration damps the start error by about e^(-2 depth), below the
integrator tolerance.  Eigenvalues are the zeros of a normalized
log-derivative matching defect, located by a damped complex secant
iteration from the seed E0 and E0 (1 + 1e-6).  A step with
|dE| <= tol |E + dE| is taken and ends the solve without a shot at its end
point.  Where the seed is Bohr-Sommerfeld (M = 1, or eps < 4), E0 is the
closed-form next-order WKB energy (wkb.wkb_energy_next) unless a seed is
given, level k lies between the leading WKB energies at k - 1/2 and
k + 1/2, and an iterate that leaves that window ends the solve unconverged.

The solver matches on the negative imaginary axis at the height where the
classically allowed arch joining the turning points crosses it: the signal
there stays O(1) for every deformation, which makes the large-deformation
golden values reachable in double precision, while at the origin it falls
off exponentially once the deformation is large.  On the axis V is real, so
the imaginary part of the action to -i y has the closed-form slope
-Re sqrt(E - V(-i y)), and Newton finds the height below the turning
radius in a few action evaluations (match_height).

The path is monotone.  A straight leg runs from the outer point to the
turning point x_t, and on it the wanted solution only grows; a chord joins
x_t to the match point, and on it the solution gains and loses the same few
e-folds (0.5 to 1.8 at M = 1, eps = 2, k = 8..30), so rounding is not
amplified.  Both legs are integrated by the sixth-order Magnus method,
the step count doubled until two counts agree (_segment).  The equation is
linear and a transfer matrix does not depend on the state it carries, so
one call of the kernel _transfers forms the first two counts of both legs
of a shot in one numpy pass and one pairwise tree.  A solve
builds its path (outer radius, vertex, match height and the count each leg
starts from) once, from the seed energy, and rebuilds it only when |E|
leaves a band of PATH_BAND around it.  The build's own shot starts each leg
from a count that agrees in its first two passes, and its result is the
solve's defect at that energy (_matching_defect); the counts it keeps let
every later shot on the path finish both legs in those two passes, one
kernel call, and V (geometry.potential_value), which does not depend on E,
is evaluated once per path and node set (_build_path, _legs).

Only the right side is integrated.  PT symmetry maps the left solution at
E to the mirror image of the right one at conj E, so
u_L(E) = -conj(u_R(conj E)) at -i y*: for real E the defect takes one shot
and is real, so a real seed keeps the secant on the real axis, and its root
passes the PT-reality check |Im E| <= 1e-8 |Re E| as it stands; complex E
takes two shots, and a complex root is held to that check.  Since a real
root cannot fail it, a converged root is also re-checked on a second path
to the same match point, whose vertex is CHECK_CORNER x_t: an eigenvalue
does not depend on the path, so a root that moves there by more than
CHECK_REL |E| is reported unconverged (_check_shift gives the move, and
the defect there, which is the result's residual).  Its first leg runs on
past x_t, so it starts from twice the count kept for the solve's.  All
operations are pure.  scan_levels shoots only the levels that the spectral
engine (ptwell.spectral) does not certify.
"""

from __future__ import annotations

import cmath
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .geometry import (ModelSpec, continued_sqrt, decay_radius,
                       gauss_legendre, potential_value, turning_points,
                       turning_radius, wedge_angles)
from .limit import level_nu
from .spectral import certified_levels
from .wkb import wkb_energy_closed, wkb_energy_next

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
    residual: float     # |matching defect| at E: on the check path for a
                        # converged root, else at the last shot; for a
                        # level from scan_levels' spectral engine, the
                        # relative disagreement of its two contours
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# outer radius from the decay depth
# ---------------------------------------------------------------------------

def _ray_radius(model: ModelSpec, E: float, radius_factor: float,
                rtol: float) -> float:
    """`radius_factor` times the outer radius where the decay depth from the
    turning radius reaches 1/2 ln(1/rtol) + 1.5 (geometry.decay_radius, a
    lower bound on the depth along the ray).

    Integrated inward, the solution growing outward that the corrected WKB
    start admixes is damped by about e^(-2 depth) against the wanted one,
    which puts it below rtol at this depth.  Because the depth grows like
    R^(M + eps/2 + 1), an enlarged radius is capped where the depth reaches
    MAX_DEPTH to keep large-deformation runs finite.
    """
    if not 1.0 <= radius_factor < math.inf:
        raise ValueError("radius_factor must be finite and >= 1")
    n, r_t = 2.0 * model.M + model.epsilon, turning_radius(model, E)
    R = radius_factor * decay_radius(n, r_t, 0.5 * math.log(1.0 / rtol) + 1.5)
    if radius_factor > 1.0:
        R = min(R, decay_radius(n, r_t, MAX_DEPTH))
    if not R > r_t:
        raise ShootingError("outer radius within rounding of the turning radius")
    return R


def _outgoing_ic(model: ModelSpec, E: complex, theta: float, R: float):
    """(psi, dpsi/ds) of the WKB solution decaying outward, at s = 0.

    psi'/psi = -sqrt(Q) - Q'/(4Q) with Q = V - E and Q' = n V/x: the leading
    form with its first correction.
    """
    ex = cmath.exp(1j * theta)
    n = 2.0 * model.M + model.epsilon
    v = potential_value(model, R * ex)
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
_RESCALE_LEVELS = 3          # tree levels per rescale in _transfers


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


def _normalised(m: np.ndarray) -> np.ndarray:
    """The 2 x 2 matrices m[:, :, i] each divided by its largest entry.

    Raises ShootingError where that entry is 0 or not finite."""
    scale = np.abs(m).max(axis=(0, 1))
    if not 0.0 < scale.min() <= scale.max() < math.inf:
        raise ShootingError("non-finite propagator")
    return m * (1.0 / scale)


def _transfers(legs: Sequence[tuple]) -> list[list[complex]]:
    """[a, b, c, e] of the transfer matrix [[a, b], [c, e]], up to a scale,
    of n uniform Magnus steps on [0, length] for psi_ss = q(s) psi, q taking
    an array of s, for each count n of each (q, length, counts) in `legs`.

    The one Magnus kernel: q is called once per count, on the (3, n) Gauss
    nodes of its n steps, every step matrix is formed in one vector pass,
    and the blocks of steps, one per count, are multiplied pairwise in one
    tree.  Each block is padded with identities to a power of two and the
    blocks are laid out largest first, so no pair straddles two blocks and a
    block leaves the tree, from the end, once it is one matrix.

    Every _RESCALE_LEVELS-th level, the step matrices first, each matrix is
    divided by its own largest entry (a common scale would let matrices far
    below it underflow to zero), and each transfer matrix once as it leaves;
    both raise on an entry that is not finite.  In between, entries stay
    below 2^(2^_RESCALE_LEVELS - 1), since a product of matrices with
    entries of at most a has entries of at most 2 a^2; and the step matrices
    exp(Omega) have det 1, so a product of them has an entry of at least
    1/sqrt 2 and cannot underflow.
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
    out, level = [None] * len(counts), 0
    while True:
        if level % _RESCALE_LEVELS == 0:
            m = _normalised(m)
        while order and sizes[order[-1]] == 1 << level:
            out[order.pop()] = m[..., -1]
            m = m[..., :-1]
        if not order:
            return _normalised(np.stack(out, axis=2)).reshape(4, -1).T.tolist()
        # later step on the left: l r for l = m[..., 2i + 1], r = m[..., 2i]
        l, r = m[..., 1::2], m[..., 0::2]
        m = l[:, :1] * r[:1] + l[:, 1:] * r[1:]
        level += 1


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
    """0.16 tol^(-1/6) Magnus steps per radian of the WKB phase
    int sqrt|V - E| ds on a leg (33-point trapezoid), at least 8: the scale
    from which _build_path sets the count each leg starts from."""
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
    steps.  After agreement, the smallest such count over the pairs
    compared: a last gap near the rounding floor overstates the truncation
    error, which the larger gaps before it measure.  It is kept to at least
    8 and at least half the lower count of the agreeing pair: a pair that
    agrees at once, with a gap at rounding level, extrapolates to any count
    (the oscillator's ray at radius factor 3 agreed at 2817 steps, was kept
    at 8, and overflowed on the next shot).  After the
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
                return y0, y1 / u, max(8, steps // 4, math.ceil(best))
            if 8.0 * gap > last and gap <= math.sqrt(tol):
                return y0, y1 / u, steps // 4
        prev, steps = (a0, a1), 2 * steps


# ---------------------------------------------------------------------------
# interior matching: arch height, ray and chord
# ---------------------------------------------------------------------------

def _im_action_to_axis(model: ModelSpec, E: float, y: float) -> tuple[float, float]:
    """G(y) = Im int sqrt(E - V) dx from the right turning point to -i y,
    by 64-point Gauss-Legendre on the straight segment, and its slope
    dG/dy = -Re sqrt(E - V(-i y)).

    The roots at the nodes are one branch, continued from the principal
    root at -i y, where V = (-1)^M y^N is real (N = 2M + eps): below the
    turning radius E - V(-i y) > 0, so the slope is -sqrt(E -+ y^N) < 0.
    The sum runs over the nodes in order, as a scalar loop would add them.
    """
    a, b = turning_points(model, E).x_right, -1j * y
    nodes, wts = gauss_legendre(64)
    half = 0.5 * (b - a)
    roots = continued_sqrt(model, E, np.append(0.5 * (a + b) + half * nodes, b), -1)
    return float((np.cumsum(wts * roots[:-1])[-1] * half).imag), float(-roots[-1].real)


def match_height(model: ModelSpec, E: float) -> float:
    """Height y* where the classically allowed arch crosses -i y.

    The zero of G (_im_action_to_axis), by Newton from h = -Im x_t, where
    the straight segment joining the turning points crosses the axis.  Below
    the turning radius r_t the slope -sqrt(E -+ y^N) keeps its sign and
    shrinks in magnitude as y^N grows (concave G at odd M, convex at even
    M), so G is monotone there and Newton converges monotonically after at
    most one step; the iterates are kept in [y/2, r_t], and the loop stops
    once a step is at most 1e-13 max(1, r_t).  This is the origin at
    eps = 0, and approaches the turning radius as the deformation grows.
    """
    if model.epsilon == 0.0:
        return 0.0
    r, y = turning_radius(model, E), -turning_points(model, E).x_right.imag
    for _ in range(50):
        g, slope = _im_action_to_axis(model, E, y)
        y_next = min(max(y - g / slope, 0.5 * y), r)
        if abs(y_next - y) <= 1e-13 * max(1.0, r):
            return y_next
        y = y_next
    raise ShootingError("match height: Newton did not settle")


@dataclass(frozen=True)
class _Path:
    """Path of one solve, built for |E| = E_ref: a straight leg from
    R e^{i theta} to the vertex, the turning point x_t of E_ref scaled to
    radius `corner` (CHECK_CORNER r_t on the check path), then a chord to
    the match point -i ym.  The legs start from `steps` Magnus steps; `v`
    keeps V (see _legs); `u_ref` is psi'/psi at -i ym at E_ref, from the
    build's shot."""

    E_ref: float
    ym: float
    corner: float
    theta: float
    R: float
    steps: tuple[int, int]
    v: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    u_ref: complex | None = field(default=None, repr=False, compare=False)


def _legs(model: ModelSpec, E: complex, path: _Path) -> list[tuple]:
    """(q, length, u) of the first leg and the chord of `path` at energy E:
    psi_ss = q(s) psi = u^2 (V - E) psi on [0, length] along the unit
    direction u.  q is called on fixed node sets, one per shape (Gauss nodes
    of n Magnus steps, the leg's end, _phase_count's probes), so V is
    evaluated once per leg and shape and kept in path.v."""
    x_t = turning_points(model, path.E_ref).x_right
    ends = (path.R * cmath.exp(1j * path.theta), path.corner / abs(x_t) * x_t,
            -1j * path.ym)

    def leg(j):
        x0, length = ends[j], abs(ends[j + 1] - ends[j])
        u = (ends[j + 1] - x0) / length

        def q(s):
            v = path.v.get((j, s.shape))
            if v is None:
                v = path.v[j, s.shape] = potential_value(model, x0 + s * u)
            return u * u * (v - E)
        return q, length, u

    return [leg(0), leg(1)]


def _shoot(model: ModelSpec, E: complex, path: _Path, steps: tuple[int, int],
           rtol: float) -> tuple[complex, tuple[int, int]]:
    """psi'/psi at -i ym, carried along the legs of `path` from `steps`
    Magnus steps first, whose first two passes take one call of _transfers;
    and the counts _segment returns."""
    psi, dpsi_ds = _outgoing_ic(model, E, path.theta, path.R)    # s = R - |x|
    dpsi = -dpsi_ds / cmath.exp(1j * path.theta)
    legs = _legs(model, E, path)
    firsts = _transfers([(q, length, (n, 2 * n))
                         for (q, length, _), n in zip(legs, steps)])
    psi, dpsi, ray = _segment(legs[0], psi, dpsi, steps[0], rtol, firsts[:2])
    psi, dpsi, chord = _segment(legs[1], psi, dpsi, steps[1], rtol, firsts[2:])
    return dpsi / psi, (ray, chord)


def _build_path(model: ModelSpec, E_ref: float, radius_factor: float,
                rtol: float) -> _Path:
    """The path for E_ref, with its step counts and u_ref from one shot at
    E_ref.

    The shot starts each leg from a count whose first pair already agrees
    (_segment), as measured on M = 1..3, eps = 0..58, k = 0..28: on the
    first leg half of _phase_count, where agreement needs 0.16..0.50 of it
    at rtol 1e-11 and 1e-13 (up to 0.57 at 1e-8); on the chord _phase_count
    plus 0.5 tol^(-1/6) for the Airy layer at the turning point, which takes
    a fixed number of steps in its own variable while the WKB phase there
    grows by almost nothing.  93% of those chords agree at once; the golden
    tables' chords need _phase_count + 0.19..0.33 tol^(-1/6).
    """
    R = _ray_radius(model, E_ref, radius_factor, rtol)
    path = _Path(E_ref, match_height(model, E_ref), turning_radius(model, E_ref),
                 wedge_angles(model).theta_right, R, (0, 0))
    ray, chord = (_phase_count(q, length, rtol)
                  for q, length, _ in _legs(model, E_ref, path))
    u, steps = _shoot(model, E_ref, path, (
        max(8, ray // 2), chord + math.ceil(0.5 * _leg_tol(rtol) ** (-1.0 / 6.0))), rtol)
    built = replace(path, steps=steps, u_ref=u)
    built.v.update(path.v)
    return built


def _u_interior(model: ModelSpec, E: complex, path: _Path, rtol: float) -> complex:
    """psi'/psi at -i ym, integrated along `path` from the outer point."""
    if not cmath.isfinite(E):
        raise ShootingError("non-finite energy")
    return _shoot(model, E, path, path.steps, rtol)[0]


def _matching_defect(model: ModelSpec, E: complex, path: _Path,
                     rtol: float) -> complex:
    """Interior-matched defect (u_L - u_R) / ((1 + |u_L|)(1 + |u_R|)) at E,
    with u = psi'/psi at -i ym on `path`.

    The product normalization keeps the defect bounded and vanishing at
    every eigenvalue, including states whose wavefunction has a node at the
    matching point (the log-derivatives then diverge on both sides).  Only
    the right side is integrated: PT symmetry maps the left solution at E
    to the mirror image of the right one at conj E, so
    u_L(E) = -conj(u_R(conj E)).  For real E that is one shot and a real
    defect; at the path's E_ref, u_R is the build's shot (u_ref), not a
    second shot of the same leg.
    """
    if E == path.E_ref and path.u_ref is not None:
        uR = path.u_ref
    else:
        uR = _u_interior(model, E, path, rtol)
    mirror = uR if E.imag == 0.0 else _u_interior(model, E.conjugate(), path, rtol)
    uL = -mirror.conjugate()
    return (uL - uR) / ((1.0 + abs(uL)) * (1.0 + abs(uR)))


# ---------------------------------------------------------------------------
# eigenvalue iteration
# ---------------------------------------------------------------------------

def _wkb_seeded(model: ModelSpec) -> bool:
    """Whether default_seed is Bohr-Sommerfeld: M = 1, or eps < 4."""
    return model.M == 1 or model.epsilon < 4.0


def default_seed(model: ModelSpec, k: int) -> float:
    """Level-k estimate: the closed-form leading WKB energy where
    _wkb_seeded (M = 1, or eps < 4), else the solvable-limit scale."""
    if _wkb_seeded(model):
        return wkb_energy_closed(k, model.epsilon, model.M)
    nu = level_nu(model.M, k)
    n = 2.0 * model.M + model.epsilon
    return (0.25 * nu * nu * n * n) ** (n / (n + 2.0))


def _wkb_window(model: ModelSpec, k: int, E_k: float) -> tuple[float, float]:
    """Bracket of level k: the leading WKB energies at k - 1/2 and k + 1/2
    (0 for k = 0), from the level-k estimate E_k.

    The leading closed form scales as (k + 1/2)^(2N/(N + 2)) with
    N = 2M + eps, so the bracket stays leading order where the solve starts
    from the next-order energy.  Where default_seed is the solvable-limit
    scale (M >= 2, eps >= 4) there is no bracket.
    """
    if not _wkb_seeded(model):
        return 0.0, math.inf
    n = 2.0 * model.M + model.epsilon
    p = 2.0 * n / (n + 2.0)
    return E_k * (k / (k + 0.5)) ** p, E_k * ((k + 1.0) / (k + 0.5)) ** p


def _check_shift(model: ModelSpec, E: complex, check: _Path, slope: complex,
                 rtol: float) -> tuple[float, float]:
    """(|root of the defect on `check` - E|, |defect on `check` at E|), the
    root from one secant step at E with the solve's slope dE/dw: at a fixed
    match point the defect does not depend on the path, so neither does its
    slope.  Both are inf where the check path fails to integrate."""
    try:
        w = _matching_defect(model, E, check, rtol)
    except ShootingError:
        return math.inf, math.inf
    return abs(w * slope), abs(w)


def _check_tolerances(tol: float, rtol: float) -> None:
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("tol out of range [1e-13, 1e-6]")
    if not 1e-13 <= rtol <= 1e-6:
        raise ValueError("rtol out of range [1e-13, 1e-6]")


def solve_level(model: ModelSpec, k: int, seed: complex | None = None,
                tol: float = DEFAULT_TOL, rtol: float = DEFAULT_RTOL,
                radius_factor: float = 1.0) -> EigenResult:
    """Converge level k by damped complex secant on the matching defect.

    The secant starts from the seed E0 and E0 (1 + 1e-6); with no seed, E0
    is wkb_energy_next where default_seed is WKB (M = 1, or eps < 4) and
    default_seed, the solvable-limit scale, otherwise.  It stops at a
    step with |dE| <= tol |E + dE|, and takes that step without shooting
    its end point; the result is flagged converged only if the PT-reality
    check |Im E| <= 1e-8 |Re E| also holds, and if the root moves by at
    most CHECK_REL |E| on the check path (see the module docstring), whose
    defect at E is then the residual.  A real seed
    takes one shot per defect and stays real, so its root passes the
    PT-reality check as it stands; a complex seed takes two, at E and
    conj E (see _matching_defect).
    Where default_seed is WKB, an iterate whose real part leaves the WKB
    window of level k (see _wkb_window), widened to include the seed, ends
    the solve unconverged.
    Failures return an unconverged EigenResult instead of raising.

    Raises:
        ValueError: for k < 0, tol or rtol outside [1e-13, 1e-6], a
            radius_factor that is not finite and >= 1, or a seed whose
            modulus is 0, inf or nan (the path is built for |seed|).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_tolerances(tol, rtol)
    est = default_seed(model, k)
    if seed is None:
        seed = wkb_energy_next(k, model.epsilon, model.M) if _wkb_seeded(model) else est
    E0 = complex(seed)
    lo, hi = _wkb_window(model, k, est)
    lo, hi = min(lo, E0.real), max(hi, E0.real)
    E1 = E0 * (1.0 + 1e-6)
    try:
        path = _build_path(model, abs(E0), radius_factor, rtol)
        w0 = _matching_defect(model, E0, path, rtol)
        w1 = _matching_defect(model, E1, path, rtol)
    except ShootingError as exc:
        logger.warning("integration failed at seed for k=%d: %s", k, exc)
        return EigenResult(k, E0, math.inf, 0, False)
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        if w1 == w0:
            break
        slope = (E1 - E0) / (w1 - w0)
        dE = -w1 * slope
        cap = 0.25 * abs(E1)
        if abs(dE) > cap:
            dE *= cap / abs(dE)
        if not lo <= (E1 + dE).real <= hi:
            logger.warning("secant left the WKB window [%g, %g] for k=%d at E=%s",
                           lo, hi, k, E1 + dE)
            return EigenResult(k, E1, abs(w1), iterations, False)
        E0, w0, E1 = E1, w1, E1 + dE
        if abs(dE) <= tol * abs(E1):
            # the step is taken but not shot: the check path re-checks E1
            converged = True
            break
        try:
            if abs(abs(E1) - path.E_ref) > PATH_BAND * path.E_ref:
                # the defect depends on the path: keep both secant points on one
                path = _build_path(model, abs(E1), radius_factor, rtol)
                w0 = _matching_defect(model, E0, path, rtol)
            w1 = _matching_defect(model, E1, path, rtol)
        except ShootingError as exc:
            logger.warning("integration failed at E=%s for k=%d: %s", E1, k, exc)
            return EigenResult(k, E1, math.inf, iterations, False)
    pt_real = abs(E1.imag) <= 1e-8 * abs(E1.real)
    if not pt_real:
        logger.warning("PT-reality violated for k=%d: E=%s", k, E1)
    if not converged:
        return EigenResult(k, E1, abs(w1), iterations, False)
    check = replace(path, corner=CHECK_CORNER * path.corner,
                    steps=(2 * path.steps[0], path.steps[1]), u_ref=None)
    shift, residual = _check_shift(model, E1, check, slope, rtol)
    path_ok = shift <= CHECK_REL * abs(E1)
    if pt_real and not path_ok:
        logger.warning("path-dependent root for k=%d at E=%s", k, E1)
    return EigenResult(k, E1, residual, iterations, pt_real and path_ok)


def scan_levels(model_grid: Sequence[ModelSpec], k_max: int,
                tol: float = DEFAULT_TOL, rtol: float = DEFAULT_RTOL) -> list[EigenResult]:
    """Levels k = 0..k_max over a deformation grid.

    At each grid point the spectral engine (ptwell.spectral) gives level k
    when it and every lower level agree within tol on two collocation
    contours; it is returned converged, with 0 iterations and that relative
    disagreement as its residual.  Every other level is shot by solve_level
    (rtol is its integrator tolerance) from a continuation seed: the last
    converged E of the level times the ratio of default_seed here to
    default_seed at the previous grid point.  With k_max = 5 the
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
    for model in models:
        results = [EigenResult(k, complex(E), rel, 0, True) for k, (E, rel)
                   in enumerate(certified_levels(model, k_max, tol))]
        for k in range(len(results), k_max + 1):
            est = default_seed(model, k)
            seed = prev[k].real * (est / default_seed(prev_model, k)) \
                if k in prev else est
            results.append(solve_level(model, k, seed, tol, rtol))
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
