"""WKB machinery for the deformed-oscillator family.

The quantization rule is int_{x_left}^{x_right} sqrt(E - V) dx = (k + 1/2) pi
with the integral taken between the complex turning points.  For M = 1 the
leading-order rule has a closed form in Gamma functions; for general M the
energy follows from the quadrature at E = 1 through the exact scaling of the
action with E.  The next-order corrected formula and the large-deformation
expansions of the ground-state energy are also provided.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .geometry import ModelSpec, gauss_legendre, potential_value, turning_points
from .specfun import EULER_GAMMA, gamma_fn


@dataclass(frozen=True)
class WkbEstimate:
    """A WKB energy estimate for level k of a given model."""

    k: int
    M: int
    epsilon: float
    order: int  # 1 = leading, 2 = next-order corrected
    E: float

    def __post_init__(self) -> None:
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.E <= 0.0:
            raise ValueError("E must be positive")


def wkb_estimate(model: ModelSpec, k: int, order: int = 1) -> WkbEstimate:
    """Bundle the appropriate WKB energy for (model, k) at the given order.

    Order 1 uses the closed form for M = 1 and the quadrature root
    otherwise; order 2 (M = 1 only) applies the next-order correction.
    """
    if order == 2:
        if model.M != 1:
            raise ValueError("next-order WKB is available for M = 1 only")
        E = wkb_energy_next(k, model.epsilon)
    elif model.M == 1:
        E = wkb_energy_closed(k, model.epsilon)
    else:
        E = wkb_energy_quadrature(model, k)
    return WkbEstimate(k=k, M=model.M, epsilon=model.epsilon, order=order, E=E)


class BranchContinuityError(RuntimeError):
    """The square-root branch could not be tracked along the segment."""


def _action_once(model: ModelSpec, E: float, n: int) -> complex:
    """Gauss-Legendre action along the straight turning-point segment.

    The substitution s = sin(u) absorbs the square-root endpoint behaviour,
    so the integrand is analytic in u and the quadrature converges
    spectrally.  The branch of sqrt(E - V) is fixed by continuity walking
    outward from the segment midpoint; the overall sign makes Re > 0.
    """
    tp = turning_points(model, E)
    mid = 0.5 * (tp.x_left + tp.x_right)
    half = 0.5 * (tp.x_right - tp.x_left)
    nodes, wts = gauss_legendre(n)
    u = 0.5 * math.pi * nodes
    vals = [E - potential_value(model, mid + half * math.sin(ui)) for ui in u]
    roots: list[complex] = [0j] * n
    i0 = n // 2
    roots[i0] = cmath.sqrt(vals[i0])
    for i in range(i0 + 1, n):
        q = cmath.sqrt(vals[i])
        if abs(q - roots[i - 1]) > abs(q + roots[i - 1]):
            q = -q
        roots[i] = q
    for i in range(i0 - 1, -1, -1):
        q = cmath.sqrt(vals[i])
        if abs(q - roots[i + 1]) > abs(q + roots[i + 1]):
            q = -q
        roots[i] = q
    total = 0j
    for i in range(n):
        total += wts[i] * roots[i] * math.cos(u[i])
    total *= half * 0.5 * math.pi
    if total.real < 0.0:
        total = -total
    return total


def action_integral(model: ModelSpec, E: float, nodes: int = 200) -> float:
    """int sqrt(E - V) dx from x_left to x_right, real and positive.

    Integrates along the straight segment joining the turning points (path
    independence inside the cut lower half-plane makes this equivalent to
    any admissible arch).  The imaginary part must come out below 1e-9 in
    relative terms; if it does not, the node count is doubled once before
    giving up.

    Raises:
        ValueError: unless 0 < E < inf (nan included).
        BranchContinuityError: if the residual imaginary part persists.
    """
    if not 0.0 < E < math.inf:
        raise ValueError("E must be finite and positive")
    total = _action_once(model, E, nodes)
    if abs(total.imag) > 1e-9 * abs(total):
        total = _action_once(model, E, 2 * nodes)
        if abs(total.imag) > 1e-9 * abs(total):
            raise BranchContinuityError(
                f"action imaginary part {total.imag:.3e} exceeds tolerance")
    return total.real


def wkb_energy_closed(k: int, epsilon: float) -> float:
    """Closed-form leading WKB energy for M = 1.

    E_k = [Gamma((3 eps + 8)/(2 eps + 4)) sqrt(pi) (k + 1/2)
           / (sin(pi/(eps+2)) Gamma((eps+3)/(eps+2)))]^((2 eps + 4)/(eps + 4)).

    Exact at eps = 0, where it collapses to 2k + 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    num = gamma_fn((3.0 * epsilon + 8.0) / (2.0 * epsilon + 4.0)) \
        * math.sqrt(math.pi) * (k + 0.5)
    den = math.sin(math.pi / (epsilon + 2.0)) \
        * gamma_fn((epsilon + 3.0) / (epsilon + 2.0))
    return (num / den) ** ((2.0 * epsilon + 4.0) / (epsilon + 4.0))


def wkb_energy_quadrature(model: ModelSpec, k: int) -> float:
    """Leading WKB energy for any M: root of action_integral(E) = (k+1/2) pi.

    V is homogeneous of degree N = 2M + eps along rays, so scaling x by
    E^(1/N) gives A(E) = A(1) E^(1/2 + 1/N) exactly, and the root follows
    from one action integral.  Serves as the general-M counterpart of the
    closed form, and as the default solver seed for M >= 2.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    expo = 0.5 + 1.0 / (2.0 * model.M + model.epsilon)
    return ((k + 0.5) * math.pi / action_integral(model, 1.0)) ** (1.0 / expo)


def wkb_energy_next(k: int, epsilon: float) -> float:
    """Next-order WKB energy for M = 1: leading factor times the correction

    [1 + (2+eps)(1+eps) sin(2 pi/(2+eps)) / (6 pi (k+1/2)^2 (4+eps)^2)].

    The correction vanishes identically at eps = 0.  Stated for the
    high-level regime but exposed for all k >= 0.
    """
    lead = wkb_energy_closed(k, epsilon)
    corr = 1.0 + (2.0 + epsilon) * (1.0 + epsilon) \
        * math.sin(2.0 * math.pi / (2.0 + epsilon)) \
        / (6.0 * math.pi * (k + 0.5) ** 2 * (4.0 + epsilon) ** 2)
    return lead * corr


def asymptotic_energy(M: int, k: int, P: int, epsilon: float) -> float:
    """Large-deformation spectrum: E = (1/4) (k + P/(M+1))^2 eps^2.

    Raises:
        ValueError: unless 1 <= P <= M and 0 <= epsilon < inf (nan included).
    """
    if not (1 <= P <= M and 0.0 <= epsilon < math.inf):
        raise ValueError("need 1 <= P <= M and finite epsilon >= 0")
    return 0.25 * (k + P / (M + 1.0)) ** 2 * epsilon * epsilon


def ground_expansion_exact(epsilon: float) -> float:
    """Ground-state energy expansion with the exact linear coefficient:

    eps^2/16 - (1/4) eps ln eps + (1/4)(1 + gamma + 2 ln 2) eps,

    the linear coefficient being 0.74088 to five decimals.  Valid up to an
    O(ln eps) remainder.
    """
    if not 1.0 < epsilon < math.inf:
        raise ValueError("expansion stated for finite epsilon > 1")
    c = 0.25 * (1.0 + EULER_GAMMA + 2.0 * math.log(2.0))
    return epsilon * epsilon / 16.0 - 0.25 * epsilon * math.log(epsilon) + c * epsilon


def ground_expansion_wkb(epsilon: float) -> float:
    """Same expansion with the WKB linear coefficient (7/3 + ln 2)/4 = 0.75662."""
    if not 1.0 < epsilon < math.inf:
        raise ValueError("expansion stated for finite epsilon > 1")
    c = 0.25 * (7.0 / 3.0 + math.log(2.0))
    return epsilon * epsilon / 16.0 - 0.25 * epsilon * math.log(epsilon) + c * epsilon
