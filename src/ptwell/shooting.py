"""Finite-deformation eigensolver by complex-ray shooting.

The Schroedinger equation -psi'' + V psi = E psi is integrated inward along
the anti-Stokes ray of the right decay wedge (the left one follows by PT
symmetry, see below), from the WKB decaying solution with its first
correction at the outer radius where a lower bound on the decay exponent
(geometry.decay_radius) reaches 1/2 ln(1/rtol) + 1.5: the inward
integration damps the start error by about e^(-2 depth), below the
integrator tolerance.  Eigenvalues are the zeros of a normalized
log-derivative matching defect, located by a damped complex Newton
iteration from the seed E0.  Each shot also gives the exact slope of
u = psi'/psi at the match point x_m: psi'' = (V - E) psi makes the
Wronskian W = psi psi_E' - psi' psi_E of psi and its E-derivative fall as
W' = -psi^2, so du/dE = W/psi^2 at x_m, where W is its value at the outer
point minus the integral of psi^2 along the path.  The panels of a shot
give that integral from the nodes they have already solved (_transfers),
so no shot is spent on a slope.  A step with |dE| <= tol |E + dE| is taken
and ends the solve without a shot at its end point.  The spectrum is real
(Dorey, Dunning & Tateo, J. Phys. A 34 (2001) 5679), so on the real axis
the defect changes sign only at a level: below level j it has the sign
(-1)^j, on every path.  Level k lies between the log-midpoints of the
next-order WKB energies (wkb.wkb_energy_next) at k - 1, k and k + 1, and
the sign of each real iterate narrows that bracket (solve_level).

The solver matches on the negative imaginary axis at the height where the
classically allowed arch joining the turning points crosses it: the signal
there stays O(1) for every deformation, which makes the large-deformation
golden values reachable in double precision, while at the origin it falls
off exponentially once the deformation is large.  V is homogeneous of
degree 2M + eps, so the arch is one curve scaled by the turning radius r_t,
and the height is r_t times the root of one real equation in (M, eps)
(match_height): the match point lies on the arch exactly.

The path is monotone.  A straight leg runs from the outer point to the
turning point x_t, and on it the wanted solution only grows; a chord joins
x_t to the match point, and on it the solution gains and loses the same few
e-folds (0.5 to 1.8 at M = 1, eps = 2, k = 8..30), so rounding is not
amplified.  Both legs are integrated on equal Chebyshev panels of degree
_DEGREE, on each of which psi'' = q psi is solved as an integral equation
(_transfers), and the panel count is doubled until two counts agree
(_segment).  The error falls spectrally, so a panel spans about 10 radians
of WKB phase.  The equation is linear and a transfer matrix does not depend
on the state it carries, so one call of the kernel _transfers forms the
first two counts of both legs of a shot in one batched solve.  A solve
builds its path (outer radius, vertex, match height and the count each leg
starts from) once, from the seed energy, and rebuilds it only when |E|
leaves a band of PATH_BAND around it.  The build's own shot starts each leg
from a count sized by its WKB phase (_phase_count), and its result is the
solve's defect and slope at that energy (_matching_defect); the counts it
keeps let every later shot on the path finish both legs in two passes, one
kernel call, and V (geometry.potential_value), which does not depend on E,
is evaluated once per path and node set (_build_path, _legs).

Only the right side is integrated.  PT symmetry maps the left solution at
E to the mirror image of the right one at conj E, so
u_L(E) = -conj(u_R(conj E)) at -i y*: for real E the defect takes one shot
and is real, so a real seed keeps Newton on the real axis, and its root
passes the PT-reality check |Im E| <= 1e-8 |Re E| as it stands; complex E
takes two shots, and a complex root is held to that check.  Since a real
root cannot fail it, a converged root is also checked on a second path to
the same match point, whose vertex a budget of e-folds places inside x_t
(_check_path): every leg keeps one rule, agree to tol or stop at a
rounding floor of at most sqrt(tol).  The defect and its slope do not
depend on the path, so from E_ref, where the build's shot carries both
paths' legs (_shoot_path), their Newton images agree to rounding; a root
whose images on its last path differ more than CHECK_REL |E| is reported
unconverged (_check_shift).  All operations are pure.  scan_levels
shoots only the levels the spectral engine (ptwell.spectral) does not certify.
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

from .geometry import (ModelSpec, decay_radius, gauss_legendre,
                       potential_value, turning_points, turning_radius,
                       wedge_angles)
from .limit import level_nu
from .spectral import _cheb, certified_levels
from .wkb import wkb_energy_next

logger = logging.getLogger(__name__)

DEFAULT_RTOL = 1e-11        # integrator tolerance: panel counts are
                            # doubled to rtol/100 on each leg
DEFAULT_TOL = 1e-9          # Newton convergence: |dE| <= tol |E|
MAX_DEPTH = 120.0           # cap so radius_factor cannot explode the run
MAX_ITER = 60
PATH_BAND = 0.05            # |E| band per path; moves the decay depth at R by < 1
CHECK_CORNER = 0.95         # the check path's farthest corner, in turning radii
CHECK_REL = 1e-6            # root shift allowed on the check path: the six
                            # significant digits the golden tables print


class ShootingError(RuntimeError):
    """Integration or convergence failure inside the shooting solver."""


@dataclass(frozen=True)
class EigenResult:
    """A converged (or failed) eigenvalue solve for one level."""

    k: int
    E: complex
    residual: float     # a checked root's shift over |E| (_check_shift),
                        # inf where a shot failed or Newton found no finite
                        # step, else |defect| at the last shot; from
                        # scan_levels' engine, its contours' relative gap
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
    """(psi, dpsi/ds, W) of the WKB solution decaying outward, at s = 0.

    psi'/psi = -sqrt(Q) - Q'/(4Q) with Q = V - E and Q' = n V/x: the leading
    form with its first correction.  W = psi psi_E' - psi' psi_E, the
    Wronskian of psi and its E-derivative in x, is the E-derivative of that
    psi'/psi, 1/(2 sqrt(Q)) - n V/(4 x Q^2), since psi = 1 at every E.
    """
    ex = cmath.exp(1j * theta)
    n = 2.0 * model.M + model.epsilon
    v = potential_value(model, R * ex)
    q = cmath.sqrt(v - E)
    if (q * ex).real < 0.0:
        q = -q
    corr = n * v / (4.0 * R * ex * (v - E))
    return 1.0 + 0j, (q + corr) * ex, 0.5 / q - corr / (v - E)


# ---------------------------------------------------------------------------
# straight segments: Chebyshev panels for psi_ss = q(s) psi
# ---------------------------------------------------------------------------

_DEGREE = 24                # Chebyshev degree of every panel
_MAX_PANELS = 2 ** 10       # a leg that needs more raises: caps its memory


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, j2t, w) for panels of degree _DEGREE.  x: the Chebyshev points
    of spectral._cheb in ascending order, mapped to [0, 1].  With j the
    integration matrix on them, (j f)_i = int_0^{x_i} f, exact for
    polynomials of degree _DEGREE: j2t = (j^2)^T, and w = the last row of
    j, the Clenshaw-Curtis weights of int_0^1.  Built on first use; shared
    and only read by callers."""
    t = -_cheb(_DEGREE)[0]
    cheb = np.polynomial.chebyshev
    coef = np.linalg.inv(cheb.chebvander(t, _DEGREE))   # values -> coefficients
    j = 0.5 * cheb.chebvander(t, _DEGREE + 1) @ cheb.chebint(coef, lbnd=-1.0)
    return 0.5 * (1.0 + t), np.ascontiguousarray((j @ j).T), j[-1]


def _transfers(legs: Sequence[tuple]) -> list[list[complex]]:
    """[a, b, c, e, g11, g12, g22, d] for n equal Chebyshev panels on
    [0, length] for psi_ss = q(s) psi, q taking an array of s, for each count
    n of each (q, length, counts) in `legs`:
    the transfer matrix [[a, b], [c, e]] up to a scale S, the c-product Gram
    matrix [[g11, g12], [g12, g22]] of int_0^length psi^2 ds over the
    states at s = 0, up to S^2, and d = 1/S^2, which is det [[a, b], [c, e]]
    kept without cancellation.

    On a panel [s0, s0 + h], with s = s0 + h x and sigma = h^2 psi_ss,
    psi = alpha + beta h x + j^2 sigma, so psi_ss = q psi is the integral
    equation (I - h^2 q j^2) sigma = h^2 q (alpha + beta h x) at the panel's
    nodes (L. Greengard, SIAM J. Numer. Anal. 28 (1991) 1071; Trefethen,
    Spectral Methods in MATLAB, ch. 6, for the points), well conditioned
    where the differential form is not.  Its solutions for (alpha, beta) =
    (1, 0) and (0, 1) at the nodes give the panel's transfer matrix, by
    their values at x = 1 and their slopes there, beta + (w . sigma)/h,
    and its Gram matrix, with w the Clenshaw-Curtis weights.  q is called
    once per count, on the (n, _DEGREE + 1) nodes of its panels, and every
    panel of every count is solved in one batched numpy.linalg.solve.  The
    panels of a count are then multiplied in order, each product divided by
    its largest entry and the Gram sum and d by its square; a panel's
    transfer matrix has det 1, so no product underflows.  Raises
    ShootingError past _MAX_PANELS, on a singular panel and on an entry that
    is not finite.
    """
    counts = [n for _, _, ns in legs for n in ns]
    if max(counts) > _MAX_PANELS:
        raise ShootingError(f"segment needs more than {_MAX_PANELS} panels")
    x, j2t, w = _panel_rule()
    qs = np.concatenate([q(length / n * (np.arange(n)[:, None] + x))
                         for q, length, ns in legs for n in ns])
    h = np.repeat([length / n for _, length, ns in legs for n in ns], counts)[:, None]
    hq = h * h * qs
    # the transposed matrices, so that each is in the column order LAPACK takes
    lhs = j2t * hq[:, None, :]
    np.subtract(np.eye(_DEGREE + 1), lhs, out=lhs)
    try:
        sigma = np.linalg.solve(lhs.transpose(0, 2, 1), np.stack([hq, hq * (h * x)], axis=2))
    except np.linalg.LinAlgError as exc:
        raise ShootingError("singular panel") from exc
    # the two solutions at the nodes; j^2 is real, so it acts on the real
    # and imaginary parts of sigma in one real product
    psi = np.matmul(j2t.T, sigma.view(float)).view(complex)
    psi[:, :, 0] += 1.0
    psi[:, :, 1] += h * x
    # each panel's [a, b, c, e - 1, g11, g12, g21, g22]
    rows = np.empty((len(hq), 8), complex)
    rows[:, :2] = psi[:, -1]
    rows[:, 2:4] = np.matmul(w, sigma.view(float)).view(complex) / h
    rows[:, 4:] = np.matmul((psi * (h * w)[:, :, None]).transpose(0, 2, 1), psi).reshape(-1, 4)
    if not np.isfinite(rows).all():
        raise ShootingError("non-finite propagator")
    rows, out = rows.tolist(), []
    for n, end in zip(counts, itertools.accumulate(counts)):
        a, b, c, e, g11, g12, _, g22 = rows[end - n]
        e += 1.0
        d = 1.0
        for pa, pb, pc, pe, h11, h12, _, h22 in rows[end - n + 1:end]:
            # this panel's Gram matrix over the states at s = 0: P^T G P
            x11, x12 = h11 * a + h12 * c, h11 * b + h12 * e
            x21, x22 = h12 * a + h22 * c, h12 * b + h22 * e
            g11 += a * x11 + c * x21
            g12 += a * x12 + c * x22
            g22 += b * x12 + e * x22
            pe += 1.0
            a, b, c, e = pa * a + pb * c, pa * b + pb * e, pc * a + pe * c, pc * b + pe * e
            scale = max(abs(a), abs(b), abs(c), abs(e))
            if not 0.0 < scale < math.inf:
                raise ShootingError("non-finite propagator")
            r = 1.0 / scale
            a, b, c, e = a * r, b * r, c * r, e * r
            r *= r
            g11, g12, g22, d = g11 * r, g12 * r, g22 * r, d * r
        out.append([a, b, c, e, g11, g12, g22, d])
    return out


def _propagate(q, length: float, y0: complex, y1: complex, n: int,
               t: list[complex] | None = None) -> tuple[complex, complex, complex, float]:
    """(psi, dpsi/ds) at `length` from (y0, y1) at 0, for psi_ss = q(s) psi,
    across n Chebyshev panels, up to a common scale L; then L^2 times
    int_0^length psi^2 ds, and L^2.  By the _transfers entry t, else by
    _transfers.  Every pass comes here; a lost state raises ShootingError."""
    a, b, c, e, g11, g12, g22, d = t if t is not None else _transfers([(q, length, (n,))])[0]
    z0, z1 = a * y0 + b * y1, c * y0 + e * y1
    scale = max(abs(z0), abs(z1))
    if not 0.0 < scale < math.inf:
        raise ShootingError("state lost in propagation")
    norm = (g11 * y0 + 2.0 * g12 * y1) * y0 + g22 * y1 * y1
    return z0 / scale, z1 / scale, norm / scale / scale, d / scale / scale


def _leg_tol(rtol: float) -> float:
    """Projective agreement that ends the panel doubling on a leg."""
    return max(rtol / 100.0, 2e-14)


def _phase_count(q, length: float, rtol: float) -> int:
    """One panel per (4 d/e) (tol/4)^(1/d) radians of the WKB phase
    int sqrt|V - E| ds on a leg (33-point trapezoid), at least 1, with
    d = _DEGREE and tol = _leg_tol(rtol): the count each leg starts from
    when _build_path builds a path.

    On a panel of theta radians psi is locally exp(+-i theta x), whose
    Chebyshev coefficients of degree d fall as (e theta/(4 d))^d, so this is
    the panel on which the truncation error of degree d is tol/4: 9.6
    radians at the default rtol, 8.8 at rtol 1e-13, 15.5 at 1e-6.
    """
    qs = q(np.linspace(0.0, length, 33))
    phase = float(np.trapezoid(np.sqrt(np.abs(qs)), dx=length / 32.0))
    radians = 4.0 * _DEGREE / math.e * (0.25 * _leg_tol(rtol)) ** (1.0 / _DEGREE)
    return max(1, math.ceil(phase / radians))


def _segment(leg: tuple, psi: complex, dpsi: complex, panels: int, rtol: float,
             first: Sequence[list[complex]],
             w: complex = 0j) -> tuple[complex, complex, complex, int]:
    """(psi, dpsi/dx, W) at the end x1 of `leg` (see _legs) from their
    values at its start, up to a common scale (W to its square), and the
    panel count to start from on a leg like it.  `first` holds the
    _transfers entries of the first passes.  W = psi psi_E' - psi' psi_E
    has W' = -psi^2, so the leg takes int psi^2 dx off it.

    The count, `panels` first, is doubled until the results for n and 2n
    agree in (psi, psi_s/k), k = sqrt|q| + 1 at x1, to
    tol = max(rtol/100, 2e-14): |a0 b1 - a1 b0| <= tol |a| |b|, a test that
    holds also where psi or psi_s vanishes at x1; or until a doubling shrinks
    a gap of at most sqrt(tol) by less than 8, where the truncation error
    shrinks by far more, so the rest is rounding.  The bound keeps out
    coarse counts, whose gaps stall at O(1): a count too small is doubled,
    never trusted.  The check path's chord keeps this rule too (_check_path).

    The count returned: the gap falls as n^-_DEGREE, so a pair (n, 2n) at
    gap g puts the pair that meets tol with a margin of 4 at
    n (4 g/tol)^(1/_DEGREE) panels.  After agreement, the smallest such
    count over the pairs compared: a last gap near the rounding floor
    overstates the truncation error, which the larger gaps before it
    measure.  It is kept to at least half the lower count of the agreeing
    pair: a pair that agrees at once, with a gap at rounding level,
    extrapolates to too few panels.  After the rounding floor, the count two
    doublings below the last, which reaches the floor again in three passes.
    """
    q, length, u = leg
    tol = _leg_tol(rtol)
    k = math.sqrt(abs(q(np.array([length]))[0])) + 1.0
    first = iter(first)
    prev, gap, best = None, math.inf, math.inf
    while True:     # _transfers raises past _MAX_PANELS
        y0, y1, norm, d = _propagate(q, length, psi, u * dpsi, panels, next(first, None))
        a0, a1 = y0, y1 / k
        if prev is not None:
            last, gap = gap, abs(prev[0] * a1 - prev[1] * a0) / (
                math.hypot(abs(prev[0]), abs(prev[1])) * math.hypot(abs(a0), abs(a1)))
            best = min(best, panels / 2 * (4.0 * gap / tol) ** (1.0 / _DEGREE))
            if gap <= tol:
                return y0, y1 / u, d * w - u * norm, max(1, panels // 4, math.ceil(best))
            if 8.0 * gap > last and gap <= math.sqrt(tol):
                return y0, y1 / u, d * w - u * norm, panels // 4
        prev, panels = (a0, a1), 2 * panels


# ---------------------------------------------------------------------------
# interior matching: arch height, ray and chord
# ---------------------------------------------------------------------------

def _arch_rule(model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """(e^-tau, weights) of _arch_integral at `model`: 16 Gauss-Legendre
    nodes on each panel of [0, 40 - d], d = -N ln sin(eps pi/(2N)), the
    first panel d wide and each next up to 3 times as wide as its distance
    from 0, at most 8; the weights carry the factor e^(-tau/N)/N."""
    n = 2.0 * model.M + model.epsilon
    d = max(-n * math.log(math.sin(0.5 * math.pi * model.epsilon / n)), 1e-12)
    edges, width = [0.0], d
    while edges[-1] < 40.0 - d:
        edges.append(min(edges[-1] + min(width, 8.0), 40.0 - d))
        width = 3.0 * edges[-1]
    x, w = gauss_legendre(16)
    ends = np.array(edges)
    h = np.diff(ends)[:, None]
    tau = ends[:-1, None] + h * (0.5 * x + 0.5)
    return np.exp(-tau).ravel(), ((0.5 / n) * h * w * np.exp(-tau / n)).ravel()


def _arch_integral(model: ModelSpec, eta: float, rule: tuple) -> tuple[float, float]:
    """J(eta) = int_0^eta sqrt(1 - (-1)^M s^N) ds for 0 < eta <= sin(eps
    pi/(2N)), and its slope sqrt(1 - (-1)^M eta^N), by `rule` (_arch_rule).

    J = eta + int_0^eta (sqrt(1 - v) - 1) ds, v = (-1)^M s^N, and the
    second integrand, -v/(1 + sqrt(1 - v)), is taken in tau, s = eta
    e^(-tau/N), where it falls as e^(-tau): beyond 40 - d it adds less than
    e^(-40) eta, as eta^N <= e^(-d).  Its one singularity, the branch point
    of sqrt(1 - v), lies at distance |ln eta^N| >= d from tau = 0 (at even
    M, where eta^N reaches 0.96 at eps = 3200, the integrand nearly
    vanishes at s = eta), and the panels are graded from there."""
    u = (-1) ** model.M * eta ** (2.0 * model.M + model.epsilon)
    v = u * rule[0]
    return eta - eta * float(np.dot(rule[1], v / (1.0 + np.sqrt(1.0 - v)))), math.sqrt(1.0 - u)


def match_height(model: ModelSpec, E: float) -> float:
    """Height y* = r_t eta* where the classically allowed arch crosses -i y.

    V is homogeneous of degree N = 2M + eps: on the ray through x_t,
    V = E (rho/r_t)^N, and on the axis V(-i t) = (-1)^M t^N.  |V| = |x|^N,
    so E - V has no zero inside |x| < r_t, and by Cauchy the action from
    x_t to -i y runs along the ray to 0 and down the axis: its imaginary
    part is r_t sqrt(E) (sin(eps pi/(2N)) B(1/N, 3/2)/N - J(y/r_t))
    (_arch_integral).  eta*, the zero of that bracket, does not depend on E.
    Newton from eta = sin(eps pi/(2N)) B(1/N, 3/2)/N converges to it
    monotonically: J is convex and above eta at odd M, concave and below it
    at even M, and so above eta J(1), whence eta* <= sin(eps pi/(2N)).  It
    stops once a step is at most 1e-13 eta.  y* is the origin at eps = 0,
    and approaches the turning radius as eps grows.
    """
    if model.epsilon == 0.0:
        return 0.0
    r, n = turning_radius(model, E), 2.0 * model.M + model.epsilon
    eta = target = math.sin(0.5 * math.pi * model.epsilon / n) * math.gamma(1.0 + 1.0 / n) \
        * math.gamma(1.5) / math.gamma(1.5 + 1.0 / n)
    rule = _arch_rule(model)
    for _ in range(50):
        got, slope = _arch_integral(model, eta, rule)
        step = (got - target) / slope
        eta -= step
        if abs(step) <= 1e-13 * eta:
            return r * eta
    raise ShootingError("match height: Newton did not settle")


@dataclass(frozen=True)
class _Path:
    """Path of one solve, built for |E| = E_ref: a straight leg from
    R e^{i theta} to the vertex, the turning point x_t of E_ref scaled to
    radius `corner` (inside r_t on the check path, see _check_path), then a
    chord to the match point -i ym.  The legs start from `panels` Chebyshev
    panels; `v` keeps V (see _legs); `u_ref` and `u_check` are what
    _u_interior returns at E_ref on it and on its check path, from the
    build's shot (_shoot_path), u_check None where the check path fails."""

    E_ref: float
    ym: float
    corner: float
    theta: float
    R: float
    panels: tuple[int, int]
    v: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    u_ref: tuple[complex, complex] | None = field(default=None, repr=False, compare=False)
    u_check: tuple[complex, complex] | None = field(default=None, repr=False, compare=False)


def _legs(model: ModelSpec, E: complex, path: _Path) -> list[tuple]:
    """(q, length, u) of the first leg and the chord of `path` at energy E:
    psi_ss = q(s) psi = u^2 (V - E) psi on [0, length] along the unit
    direction u.  q is called on fixed node sets, one per shape (the nodes of
    n panels, the leg's end, _phase_count's probes), so V is evaluated once
    per leg and shape and kept in path.v."""
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


def _shoot(model: ModelSpec, E: complex, paths: Sequence[_Path],
           panels: tuple[int, int], rtol: float) -> list[tuple]:
    """For each of `paths`, paths from the same outer point: psi'/psi at
    -i ym and its E-derivative, carried along its legs from `panels` first,
    and the counts _segment returns.  The first two passes of every leg of
    every path take one call of _transfers.

    The derivative is W/psi^2 at -i ym: W = psi psi_E' - psi' psi_E starts
    at the outer point as the E-derivative of the WKB start and loses
    int psi^2 dx on each leg (_segment)."""
    psi0, dpsi_ds, w0 = _outgoing_ic(model, E, paths[0].theta, paths[0].R)    # s = R - |x|
    shots = [(_legs(model, E, p), list(panels)) for p in paths]
    ts = iter(_transfers([(q, length, (n, 2 * n)) for legs, ns in shots
                          for (q, length, _), n in zip(legs, ns)]))
    out = []
    for legs, ns in shots:
        psi, dpsi, w = psi0, -dpsi_ds / cmath.exp(1j * paths[0].theta), w0
        for j, leg in enumerate(legs):
            psi, dpsi, w, ns[j] = _segment(leg, psi, dpsi, ns[j], rtol,
                                           itertools.islice(ts, 2), w)
        if psi == 0.0:      # a node at -i ym to the last bit: psi is one rounding unit
            psi = 2.0 ** -53 * abs(dpsi)
        out.append((dpsi / psi, w / (psi * psi), tuple(ns)))
    return out


def _shoot_path(model: ModelSpec, path: _Path, rtol: float) -> _Path:
    """`path`, unshot, with its panel counts, u_ref and u_check from one
    shot at E_ref that also carries its check path's legs (_check_path);
    where those fail, its own are shot alone and u_check is None.

    Both paths start each leg from _phase_count on `path`.  On M = 1..3,
    eps = 0..58, k = 0..28 (270 builds) every first leg agrees in its first
    pair at rtol 1e-13, 1e-11 and 1e-8, and the chord in 152, 184 and 231 of
    them.  The other chords take a third pass.  At 1e-11, 33 are Airy
    layers at the turning point (k >= 1), where the WKB phase grows by
    almost nothing and the layer needs 2 panels where the phase gives 1; the
    rest start a panel short at larger phase, or are high levels at large
    eps whose pairs stop at the rounding floor.  The count _segment keeps
    finishes later shots in two passes after agreement, and in three after
    the floor."""
    start = tuple(_phase_count(q, length, rtol)
                  for q, length, _ in _legs(model, path.E_ref, path))
    try:
        shot, check = _shoot(model, path.E_ref, [path, _check_path(model, path, rtol)],
                             start, rtol)
    except ShootingError:       # the check path's legs may fail alone
        (shot,), check = _shoot(model, path.E_ref, [path], start, rtol), None
    built = replace(path, panels=shot[2], u_ref=shot[:2],
                    u_check=check[:2] if check else None)
    built.v.update(path.v)
    return built


def _build_path(model: ModelSpec, E_ref: float, radius_factor: float, rtol: float) -> _Path:
    """The path for E_ref, shot at E_ref (_shoot_path)."""
    R = _ray_radius(model, E_ref, radius_factor, rtol)
    return _shoot_path(model, _Path(E_ref, match_height(model, E_ref),
                                    turning_radius(model, E_ref),
                                    wedge_angles(model).theta_right, R, (0, 0)), rtol)


def _u_interior(model: ModelSpec, E: complex, path: _Path,
                rtol: float) -> tuple[complex, complex]:
    """psi'/psi at -i ym, integrated along `path` from the outer point, and
    its E-derivative (see _shoot)."""
    if not cmath.isfinite(E):
        raise ShootingError("non-finite energy")
    return _shoot(model, E, [path], path.panels, rtol)[0][:2]


def _matching_defect(model: ModelSpec, E: complex, path: _Path,
                     rtol: float) -> tuple[complex, complex]:
    """(w, dw) at E: the interior-matched defect
    w = (u_L - u_R) / ((1 + |u_L|)(1 + |u_R|)), with u = psi'/psi at -i ym
    on `path`, and its slope dw = f' w/f, whose Newton step -w/dw is the
    step -f/f' on the holomorphic numerator f = u_L - u_R, or on
    f = 1/u_L - 1/u_R where u_R is large: beyond k_m = sqrt|E - V(-i ym)| + 1,
    the WKB wavenumber there, or beyond 1 with |u_L - u_R| > |u_L + u_R|.
    w/f, the normalization, is formed from u_L and u_R, so dw is finite
    where f vanishes.

    The product normalization keeps the defect bounded and vanishing at
    every eigenvalue, including states whose wavefunction has a node at the
    matching point (the log-derivatives then diverge on both sides).  Near
    a node u has a pole, where u_L - u_R is far from linear in E and its
    reciprocals are close to it: at eps = 0 the match point is the origin,
    where every odd level has its node, and at (1, 8, 3) the seed's u_R,
    -1262 - 24580i, lies near a pole just off the real axis (two Newton
    steps on the reciprocals, four on the numerator).  For real E,
    u_L - u_R = -2 Re u_R and u_L + u_R = 2i Im u_R; below k_m the
    reciprocals are taken only where the real part dominates.  At
    (2, 36, 2), seeded 2% above the level, u_R = 0.76 - 0.92i: the
    reciprocals step away, to level 3, and the numerator steps to the
    level.  Only the right side is integrated: PT symmetry maps the left
    solution at E to the mirror image of the right one at conj E, so
    u_L(E) = -conj(u_R(conj E)), and so is its E-derivative.  For real E
    that is one shot and a real defect and step; at the path's E_ref, u_R
    is the build's shot (u_ref), not a second shot of the same leg.
    """
    at_ref = E == path.E_ref and path.u_ref is not None
    u = path.u_ref if at_ref else _u_interior(model, E, path, rtol)
    return _defect(model, E, path.ym, *u,
                   u if E.imag == 0.0 else _u_interior(model, E.conjugate(), path, rtol))


def _defect(model: ModelSpec, E: complex, ym: float, uR: complex, duR: complex,
            mirror: tuple[complex, complex]) -> tuple[complex, complex]:
    """_matching_defect's (w, dw) from (u_R, du_R/dE) at E and at conj E."""
    uL, duL = -mirror[0].conjugate(), -mirror[1].conjugate()
    scale = (1.0 + abs(uL)) * (1.0 + abs(uR))
    if abs(uR) > math.sqrt(abs(E - potential_value(model, -1j * ym))) + 1.0 or (
            abs(uR) > 1.0 and abs(uL - uR) > abs(uL + uR)):
        # u_L - u_R = -u_L u_R (1/u_L - 1/u_R), and -u_L u_R = |u_R|^2 for real E
        dw = (duR / (uR * uR) - duL / (uL * uL)) * (-uL * uR) / scale
    else:
        dw = (duL - duR) / scale
    return (uL - uR) / scale, dw


# ---------------------------------------------------------------------------
# eigenvalue iteration
# ---------------------------------------------------------------------------

def default_seed(model: ModelSpec, k: int) -> float:
    """Level-k estimate: the next-order WKB energy (wkb.wkb_energy_next)
    where M = 1 or eps < 4, else the solvable-limit scale.

    The limit scale stays where it is measured to be the better start: on
    the golden table 2 (M = 2, k = 0, eps = 6..56) the next-order energy
    is 37% low and a pass takes 29 kernel calls against 20.  A level's
    label does not depend on its seed: _wkb_window brackets it.
    """
    if model.M == 1 or model.epsilon < 4.0:
        return wkb_energy_next(k, model.epsilon, model.M)
    nu = level_nu(model.M, k)
    n = 2.0 * model.M + model.epsilon
    return (0.25 * nu * nu * n * n) ** (n / (n + 2.0))


def _wkb_window(model: ModelSpec, k: int) -> tuple[float, float]:
    """Bracket of level k: the log-midpoints sqrt(w_{k-1} w_k) and
    sqrt(w_k w_{k+1}) of the next-order WKB energies w_j
    (wkb.wkb_energy_next), with 0 below k = 0.

    Each of 2,909 certified levels of M = 1..8, eps = 0..60 lies nearer in
    log to its own w_j than to any other, so each midpoint lies between two
    neighbouring levels and the bracket holds level k alone.
    """
    w = [wkb_energy_next(j, model.epsilon, model.M) for j in range(max(k - 1, 0), k + 2)]
    return (math.sqrt(w[0] * w[1]) if k else 0.0), math.sqrt(w[-2] * w[-1])


def _check_path(model: ModelSpec, path: _Path, rtol: float) -> _Path:
    """`path` with its vertex at c x_t, c = max(CHECK_CORNER, c_B): the path
    a converged root is re-checked on.  Its chord amplifies rounding by
    e^(2 g), g the net WKB growth |Im int sqrt(E - V) dx| on it.  V = E t^N
    at t x_t, so g = r_t sqrt(E) cos(pi M/N) int_c^1 sqrt(1 - t^N) dt (from
    x_t to -i ym it is 0: match_height puts ym on the arch exactly), at most
    G (2/3)(1 - c)^(3/2) with G = r_t sqrt(E N) cos(pi M/N).  c_B =
    1 - (1.5 B/G)^(2/3) keeps g to B = 1/2 ln(sqrt(tol) 2^53), 10.9 e-folds
    at the default rtol (tol = _leg_tol(rtol)): rounding stays below the
    sqrt(tol) floor a leg may stop at (_segment)."""
    n = 2.0 * model.M + model.epsilon
    budget = 0.5 * math.log(math.sqrt(_leg_tol(rtol)) * 2.0 ** 53)
    rate = path.corner * math.sqrt(path.E_ref * n) * math.cos(math.pi * model.M / n)
    # G; at eps = 0 cos(pi M/N) is 0 up to rounding, and c_B far below CHECK_CORNER
    c_b = 1.0 - (1.5 * budget / rate) ** (2.0 / 3.0) if rate > 0.0 else 0.0
    return replace(path, corner=max(CHECK_CORNER, c_b) * path.corner)


def _check_shift(model: ModelSpec, path: _Path, rtol: float) -> float:
    """|w_check - w|/|dw|, w and dw the defect and its slope on `path` and
    w_check the defect on its check path (_check_path), at E_ref from the
    build's shot (u_ref, u_check): the distance between the two paths'
    Newton images from that energy, inf where the check path failed.  The
    gap is widened by the defect's integration uncertainty,
    tol 2|u_R|/(1 + |u_R|)^2 with tol = _leg_tol(rtol): where Re u_R is 0
    on both paths the defects agree exactly, and would pass any root."""
    E, u, u_check = path.E_ref, path.u_ref, path.u_check
    w, dw = _defect(model, E, path.ym, *u, u)
    if u_check is None or not dw:
        return math.inf
    gap = abs(_defect(model, E, path.ym, *u_check, u_check)[0] - w)
    return (gap + _leg_tol(rtol) * 2.0 * abs(u[0]) / (1.0 + abs(u[0])) ** 2) / abs(dw)


def _check_tolerances(tol: float, rtol: float) -> None:
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("tol out of range [1e-13, 1e-6]")
    if not 1e-13 <= rtol <= 1e-6:
        raise ValueError("rtol out of range [1e-13, 1e-6]")


def solve_level(model: ModelSpec, k: int, seed: complex | None = None,
                tol: float = DEFAULT_TOL, rtol: float = DEFAULT_RTOL,
                radius_factor: float = 1.0) -> EigenResult:
    """Converge level k by damped complex Newton on the matching defect.

    Newton starts from the seed E0, default_seed if none is given.  Each
    shot gives the defect and its exact slope (see _matching_defect), so
    the build's shot at E0 gives the first step, which, like every step, is
    capped at 0.25 |E|.  Level k is bracketed by _wkb_window.  On the real
    axis the defect is -2 Re u_R / (1 + |u_R|)^2, and PT symmetry gives
    psi_L(-i y) = conj psi_R(-i y), so where Re u_R or psi_R vanishes so
    does the Wronskian of psi_L and psi_R: the defect changes sign only at
    a level, and has the sign (-1)^k between levels k - 1 and k on every
    path.  A real iterate inside the bracket becomes its lower end where
    the defect has that sign, else its upper end, and the bracket outlives
    a path rebuild.  A step whose real part leaves the bracket is replaced
    by a step to its midpoint (Numerical Recipes' rtsafe); once the bracket
    has narrowed to hi - lo <= tol hi, such a step finds no sign change and
    ends the solve unconverged.  Newton stops at a Newton step with
    |dE| <= tol |E + dE|, and takes that step without shooting its end
    point; the result is flagged converged only if the PT-reality check
    |Im E| <= 1e-8 |Re E| also holds, and if the Newton images of the last
    path and its check path from its E_ref lie within CHECK_REL |E| of each
    other (_check_shift).  A real seed takes one shot per defect and stays
    real, so its root passes the PT-reality check as it stands; a complex
    seed takes two, at E and conj E (see _matching_defect).  Failures
    return an unconverged EigenResult instead of raising, with residual inf
    where Newton finds no finite step.

    Raises:
        ValueError: for k < 0, tol or rtol outside [1e-13, 1e-6], a
            radius_factor that is not finite and >= 1, or a seed whose
            modulus is 0, inf or nan (the path is built for |seed|).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_tolerances(tol, rtol)
    E = complex(default_seed(model, k) if seed is None else seed)
    lo, hi = _wkb_window(model, k)
    try:
        path = _build_path(model, abs(E), radius_factor, rtol)
        w, dw = _matching_defect(model, E, path, rtol)
    except ShootingError as exc:
        logger.warning("integration failed at seed for k=%d: %s", k, exc)
        return EigenResult(k, E, math.inf, 0, False)
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        dE = -w / dw if dw else complex(math.inf)
        if not cmath.isfinite(dE):
            return EigenResult(k, E, math.inf, iterations, False)
        cap = 0.25 * abs(E)
        if abs(dE) > cap:
            dE *= cap / abs(dE)
        if E.imag == 0.0 and lo < E.real < hi:
            if (w.real > 0.0) == (k % 2 == 0):
                lo = E.real
            else:
                hi = E.real
        newton = lo <= (E + dE).real <= hi
        if not newton:
            if hi - lo <= tol * hi:
                logger.warning("no sign change in [%g, %g] for k=%d", lo, hi, k)
                return EigenResult(k, E, abs(w), iterations, False)
            dE = 0.5 * (lo + hi) - E
        E += dE
        if newton and abs(dE) <= tol * abs(E):
            # the step is taken but not shot
            converged = True
            break
        try:
            if abs(abs(E) - path.E_ref) > PATH_BAND * path.E_ref:
                path = _build_path(model, abs(E), radius_factor, rtol)
            w, dw = _matching_defect(model, E, path, rtol)
        except ShootingError as exc:
            logger.warning("integration failed at E=%s for k=%d: %s", E, k, exc)
            return EigenResult(k, E, math.inf, iterations, False)
    pt_real = abs(E.imag) <= 1e-8 * abs(E.real)
    if not pt_real:
        logger.warning("PT-reality violated for k=%d: E=%s", k, E)
    if not converged:
        return EigenResult(k, E, abs(w), iterations, False)
    residual = _check_shift(model, path, rtol) / abs(E)
    path_ok = residual <= CHECK_REL
    if pt_real and not path_ok:
        logger.warning("path-dependent root for k=%d at E=%s", k, E)
    return EigenResult(k, E, residual, iterations, pt_real and path_ok)


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
    unconverged entries and the scan continues.

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
        prev.update((res.k, res.E) for res in results if res.converged)
        out += results
        prev_model = model
    return out
