"""Complex-plane geometry of the deformed-oscillator eigenproblem.

The family of Hamiltonians is H = p^2 + x^(2M) (ix)^eps with integer M >= 1
and deformation eps >= 0.  This module fixes the branch convention of the
potential, the anti-Stokes wedge directions that carry the boundary
conditions, the turning points of E - V and the outer radius of a ray.

Branch convention: (ix)^eps = exp(eps Log(ix)) with the principal logarithm,
so the potential is analytic on the cut plane with the cut along the
positive imaginary x-axis.  Every contour used by the solvers lives in the
closed lower half-plane where V is smooth.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np


class BranchCutError(ValueError):
    """Evaluation requested on the branch cut (positive imaginary axis)."""


@dataclass(frozen=True)
class ModelSpec:
    """Hamiltonian parameters: power index M and deformation epsilon.

    The total potential power is 2M + epsilon; epsilon = 0 is the Hermitian
    x^(2M) oscillator whose boundary conditions are continued to eps > 0.
    """

    M: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.M < 1 or self.M != int(self.M):
            raise ValueError("M must be a positive integer")
        if not (self.epsilon >= 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and >= 0")


@dataclass(frozen=True)
class WedgePair:
    """Anti-Stokes directions bounding-wedge centers for the two rays."""

    theta_left: float
    theta_right: float
    opening: float


@dataclass(frozen=True)
class TurningPair:
    """Zeros of E - V(x) adjacent to the two boundary wedges."""

    x_left: complex
    x_right: complex


def potential_value(model: ModelSpec, x: complex | np.ndarray) -> complex | np.ndarray:
    """V(x) = x^(2M) exp(eps Log(ix)) on the principal branch.

    x is a scalar, for which V(0) = 0 and the result is a complex, or an
    ndarray, evaluated elementwise (0 is then excluded for eps > 0).

    Raises:
        BranchCutError: if x lies on the positive imaginary axis (arg(ix)
            would be pi exactly) and eps > 0.
    """
    array = isinstance(x, np.ndarray)
    if not array:
        x = complex(x)
        if x == 0:
            return 0j
    if model.epsilon == 0.0:
        return x ** (2 * model.M)
    ix = 1j * x
    on_cut = (ix.real < 0.0) & (ix.imag == 0.0)
    if on_cut.any() if array else on_cut:
        raise BranchCutError("potential branch cut along the positive imaginary axis")
    lib = np if array else cmath
    return x ** (2 * model.M) * lib.exp(model.epsilon * lib.log(ix))


# Gauss-Legendre nodes and weights on [-1, 1], computed once per order (at
# order 200 leggauss outlasts the integral) and shared: callers only read them
gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


def _decay(n: float, T: float) -> float:
    """int_1^T sqrt(t^n - 1) dt.  With t = 1 + (T - 1) w^2 the integrand is
    smooth in w on [0, 1], so 32 Gauss-Legendre nodes give it."""
    nodes, wts = gauss_legendre(32)
    w = 0.5 * (nodes + 1.0)
    t = 1.0 + (T - 1.0) * w * w
    return (T - 1.0) * float(np.dot(wts, w * np.sqrt(t ** n - 1.0)))


def decay_radius(n: float, r0: float, depth: float) -> float:
    """R = r0 T where int_r0^R sqrt(r^n - r0^n) dr reaches depth.

    On a wedge centre theta, V e^{2i theta} = r^n with n = 2M + eps, so for
    |E| = r0^n the WKB decay rate Re(sqrt(V - E) e^{i theta}) is at least
    sqrt(r^n - r0^n): the depth is a lower bound on the decay exponent.

    With p = n/2 + 1 that is _decay(n, T) = depth/r0^p, solved by Newton in
    log T with the exact slope sqrt(T^n - 1), started where
    T^p = 1 + p depth/r0^p.  There _decay <= depth/r0^p, as
    sqrt(t^n - 1) <= t^(n/2), and the iterates rise to the root from below.
    From the matching bound above, (T - 1)^p = p depth/r0^p, the first step
    overshoots below the root, and for a depth of 0.4 (spectral.WALL_DEPTH)
    at M = 1, eps >= 9 below T = 1.  Where p depth/r0^p < 1e-8 the start is
    so close to 1 that Newton stops short or at T = 1; there T solves
    int_1^T sqrt(n (t - 1)) dt = depth/r0^p, at or above the root as
    t^n - 1 >= n (t - 1), with a depth high by at most 1.5e-6 relative.
    """
    p = 0.5 * n + 1.0
    target = depth / r0 ** p
    if p * target < 1e-8:
        return r0 * (1.0 + (1.5 * target / math.sqrt(n)) ** (2.0 / 3.0))
    T = (1.0 + p * target) ** (1.0 / p)
    for _ in range(50):
        got = _decay(n, T)
        step = math.log(got / target) * got / (T * math.sqrt(T ** n - 1.0))
        T *= math.exp(-step)
        if abs(step) <= 1e-14:
            break
    return r0 * T


def wedge_angles(model: ModelSpec) -> WedgePair:
    """Centers and opening of the decay wedges continued from eps = 0.

    theta_right = -eps pi / (4M + 2 eps + 4), theta_left mirrors it about
    the negative imaginary axis, and the opening is 2 pi/(2M + eps + 2).
    Both centers sink toward -pi/2 as eps grows.
    """
    d = 4.0 * model.M + 2.0 * model.epsilon + 4.0
    tr = -model.epsilon * math.pi / d
    tl = -math.pi - tr  # = -pi + eps*pi/d
    return WedgePair(theta_left=tl, theta_right=tr,
                     opening=2.0 * math.pi / (2.0 * model.M + model.epsilon + 2.0))


def turning_radius(model: ModelSpec, E: float) -> float:
    """|x| of the turning points, E^(1/(2M+eps)).

    Raises:
        ValueError: unless 0 < E < inf (nan included).
    """
    if not 0.0 < E < math.inf:
        raise ValueError("E must be finite and positive")
    return E ** (1.0 / (2.0 * model.M + model.epsilon))


def turning_points(model: ModelSpec, E: float) -> TurningPair:
    """The PT-conjugate pair of zeros of E - V adjacent to the wedges.

    x_right = E^(1/(2M+eps)) exp(-i eps pi/(4M + 2 eps)) and x_left is its
    mirror through the imaginary axis; V(x) = E holds exactly at both.

    Raises:
        ValueError: unless 0 < E < inf (nan included).
    """
    r = turning_radius(model, E)
    d = model.epsilon * math.pi / (4.0 * model.M + 2.0 * model.epsilon)
    x_right = r * cmath.exp(-1j * d)
    x_left = r * cmath.exp(1j * (d - math.pi))
    return TurningPair(x_left=x_left, x_right=x_right)
