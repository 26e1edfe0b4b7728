"""Every level of (M, eps) at once, from dense eigensolves on a complex contour.

-psi'' + V psi = E psi is discretised by Chebyshev collocation (Trefethen,
Spectral Methods in MATLAB, SIAM 2000, ch. 6) on the PT-symmetric hyperbola

    x(s) = rho (sinh s cos theta + i cosh s sin theta),   -L <= s <= L,

with psi = 0 at both ends.  theta is the centre of the right decay wedge, so
the ends run into the centres theta and -pi - theta of the two wedges, and
the vertex -i rho |sin theta| lies on the negative imaginary axis, where V
is analytic.  rho is the turning radius of the leading WKB energy of the
highest wanted level.  The half-width L puts the ends where the WKB decay
exponent of the ground level, int sqrt(r^N - r0^N) dr from its turning
radius r0 (geometry.decay_radius, which also sets the shooting solver's
outer radius), reaches a fixed depth; a fixed L cuts the wedges short for
some (M, eps) while two sizes on it still agree.  The levels are the real
eigenvalues of the interior collocation matrix A, in ascending order.  PT
symmetry makes A centrohermitian, J conj(A) J = A with J the flip, so Lee's
unitary Q makes Q^H A Q real (A. Lee, Linear Algebra Appl. 29 (1980) 205),
and one real numpy.linalg.eigvals of it gives every level.

A level is certified only when two contours of different depth and size
(CONTOURS) agree on it and on every level below it.  A contour too short
for a level, or a size too small for it, moves the level by more on one
contour than on the other; so does a spurious eigenvalue, which shifts the
labels of every level above it.  The two agree to about 1e-13 where
collocation resolves the levels on a contour sized for them; low levels on
a contour sized for a much higher k_max carry rounding noise up to about
3e-10 (M = 1, eps = 3, k_max = 30), which a tol of 1e-9 still certifies.
Where collocation does not resolve the levels, the contours disagree instead
of agreeing on a wrong value: near eps = 0+, where the vertex passes close
to the branch point of V at the origin (M = 1, eps = 0.2: 3e-9), and at
large deformations (M = 1, eps = 18: 3e-7; eps >= 28: no agreement).  The
one exception found, a hyperbola walled off in the forbidden region at
M >= 3 and large eps, is refused before any eigensolve (_walled).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import (ModelSpec, decay_radius, potential_value,
                       turning_radius, wedge_angles)
from .wkb import wkb_energy_closed

# (WKB decay depth of the ground level at the contour ends, collocation
# size) of the two contours that must agree
CONTOURS = ((30.0, 90), (40.0, 110))
REAL_REL = 1e-6     # an eigenvalue with |Im E| <= REAL_REL |E| is real
# Largest WKB decay of the ground level where the contour crosses the wedge
# next to a boundary wedge (_walled).  On M = 3, 4, eps = 0, 2, ..., 60,
# k_max = 0, 1, 5, 10, the levels that shooting confirms cross at <= 0.22,
# those that agree on a wrong value at >= 0.70
WALL_DEPTH = 0.4


@functools.cache
def _cheb(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev points cos(j pi/n), j = 0..n, and the first and second
    differentiation matrices on them (Trefethen, SMM, cheb.m); shared and
    only read by callers."""
    t = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (t[:, None] - t[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return t, d, d @ d


@functools.cache
def _lee(m: int) -> np.ndarray:
    """Lee's unitary Q of size m, (1/sqrt 2) [[I, 0, iI], [0, sqrt 2, 0],
    [J, 0, -iJ]] with blocks of size m // 2 and the middle row and column
    only for odd m: Q^H A Q is real when J conj(A) J = A; shared and only
    read by callers."""
    h = m // 2
    i = np.arange(h)
    q = np.zeros((m, m), dtype=complex)
    q[i, i] = q[m - 1 - i, i] = math.sqrt(0.5)
    q[i, m - h + i] = 1j * math.sqrt(0.5)
    q[m - 1 - i, m - h + i] = -1j * math.sqrt(0.5)
    if m % 2:
        q[h, h] = 1.0
    return q


def _scales(model: ModelSpec, k_max: int) -> tuple[float, float, float]:
    """(theta, rho, r0): the right wedge centre, the turning radius of the
    leading WKB level k_max and that of the ground level."""
    n = 2.0 * model.M + model.epsilon
    rho = turning_radius(model, wkb_energy_closed(k_max, model.epsilon, model.M))
    # leading WKB energies scale as (k + 1/2)^(2N/(N + 2)), radii as its 1/N
    r0 = rho * (2.0 * k_max + 1.0) ** (-2.0 / (n + 2.0))
    return wedge_angles(model).theta_right, rho, r0


def _walled(model: ModelSpec, theta: float, rho: float, r0: float) -> bool:
    """Whether the hyperbola crosses the centre of the wedge next to each
    boundary wedge beyond where the ground level has decayed by WALL_DEPTH.

    There psi ~ 0 acts as a Dirichlet wall, and for M >= 3 the levels of
    the problem between the two walls, whose wedges lie M - 1 apart, come
    out on both contours alike: at M = 3, eps = 54 both give 196.034171,
    the M = 1, eps = 58 ground level, as the lowest level, where shooting
    converges to 48.649358 for k = 0 and 197.85098 for k = 1.  For M = 1
    and 2 the walls cut off problems between one wedge or two adjacent
    ones, which have no levels.  The hyperbola meets the ray at
    angle phi at radius rho |sin 2 theta| / (2 sqrt(sin(phi + theta)
    sin(phi - theta))); the wedge next to the right one is centred at
    phi = theta - 2 pi/(N + 2).
    """
    if model.M < 3:
        return False
    n = 2.0 * model.M + model.epsilon
    phi = theta - 2.0 * math.pi / (n + 2.0)
    r = rho * abs(math.sin(2.0 * theta)) / (
        2.0 * math.sqrt(math.sin(phi + theta) * math.sin(phi - theta)))
    return r > decay_radius(n, r0, WALL_DEPTH)


def _interior(model: ModelSpec, scales: tuple[float, float, float],
              depth: float, n: int) -> np.ndarray:
    """The interior rows and columns of the n-point collocation matrix of
    -d^2/dx^2 + V on the hyperbola for `scales` (_scales), whose ends reach
    the ground level's WKB decay depth `depth` or the radius rho."""
    theta, rho, r0 = scales
    R = max(decay_radius(2.0 * model.M + model.epsilon, r0, depth), rho)
    # |x(s)|^2 = rho^2 (sinh^2 s + sin^2 theta)
    L = math.asinh(math.sqrt((R / rho) ** 2 - math.sin(theta) ** 2))
    t, d1, d2 = _cheb(n)
    s = L * t
    c, si = math.cos(theta), math.sin(theta)
    x = rho * (np.sinh(s) * c + 1j * np.cosh(s) * si)
    xs = rho * (np.cosh(s) * c + 1j * np.sinh(s) * si)
    # psi_xx = (psi_ss - (x_ss/x_s) psi_s) / x_s^2 with x_ss = x, and
    # d/ds = d/dt / L
    a = (x / (L * xs ** 3))[:, None] * d1 - (1.0 / (L * xs) ** 2)[:, None] * d2
    a += np.diag(potential_value(model, x))
    return a[1:-1, 1:-1]


def _levels(model: ModelSpec, scales: tuple[float, float, float],
            k_max: int, depth: float, n: int) -> np.ndarray:
    """The real eigenvalues of the n-point collocation, ascending, at most
    k_max + 1 of them, on the hyperbola for levels 0..k_max (`scales` from
    _scales) whose ends reach the ground level's WKB decay depth `depth` (or,
    if farther, the turning radius of level k_max)."""
    # x(-s) = -conj x(s), x_s(-s) = conj x_s(s), V(-conj x) = conj V(x), d1
    # skew- and d2 centrosymmetric: the interior is centrohermitian, and
    # .real drops only rounding, as the nodes are symmetric only to rounding
    q = _lee(n - 1)
    ev = np.linalg.eigvals((q.conj().T @ _interior(model, scales, depth, n) @ q).real)
    real = ev[(np.abs(ev.imag) <= REAL_REL * np.abs(ev)) & (ev.real > 0.0)].real
    return np.sort(real)[:k_max + 1]


def certified_levels(model: ModelSpec, k_max: int,
                     tol: float) -> list[tuple[float, float]]:
    """(E_k, relative disagreement) for k = 0, 1, ..., up to k_max, while
    level k and every level below it agree within tol |E_k| on the two
    CONTOURS.  E_k is the value on the second, deeper and larger, contour.
    No level is certified where the contour is walled (see _walled).
    """
    scales = _scales(model, k_max)
    if _walled(model, *scales):
        return []
    a, b = (_levels(model, scales, k_max, depth, n) for depth, n in CONTOURS)
    out = []
    for ea, eb in zip(a.tolist(), b.tolist()):
        rel = abs(ea - eb) / eb
        if not rel <= tol:
            break
        out.append((eb, rel))
    return out
