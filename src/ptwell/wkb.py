"""WKB machinery for the deformed-oscillator family.

The quantization rule is int_{x_left}^{x_right} sqrt(E - V) dx = (k + 1/2) pi
with the integral taken between the complex turning points.  With
N = 2M + eps, V = E t^N exactly on the ray from 0 to either turning point,
so the leading rule and its next-order correction reduce to Beta functions
and both energies have closed forms in Gamma functions for every M.  The
quadrature of the action along the turning-point segment is kept as an
independent cross-check of the closed form.  The large-deformation
expansions of the ground-state energy are also provided.
"""

from __future__ import annotations

import cmath
import math

from .geometry import ModelSpec, gauss_legendre, potential_value, turning_points
from .specfun import EULER_GAMMA, gamma_fn


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


def wkb_energy_closed(k: int, epsilon: float, M: int = 1) -> float:
    """Closed-form leading WKB energy for any M.

    With N = 2M + eps, V = E t^N on the ray from 0 to each turning point
    x_t = E^(1/N) e^(i(M/N - 1/2) pi) (mirrored on the left), so the action
    is a Beta function and

    E_k = [Gamma(3/2 + 1/N) sqrt(pi) (k + 1/2)
           / (sin(pi M/N) Gamma(1 + 1/N))]^(2N/(N + 2)).

    The integer terms are grouped so that M = 1 gives, bit for bit, the form
    [Gamma((3 eps + 8)/(2 eps + 4)) sqrt(pi) (k + 1/2)
     / (sin(pi/(eps + 2)) Gamma((eps + 3)/(eps + 2)))]^((2 eps + 4)/(eps + 4)).
    Exact at eps = 0, M = 1, where it collapses to 2k + 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    if M < 1 or M != int(M):
        raise ValueError("M must be a positive integer")
    num = gamma_fn((3.0 * epsilon + (6 * M + 2)) / (2.0 * epsilon + 4 * M)) \
        * math.sqrt(math.pi) * (k + 0.5)
    den = math.sin(math.pi * M / (epsilon + 2 * M)) \
        * gamma_fn((epsilon + (2 * M + 1)) / (epsilon + 2 * M))
    return (num / den) ** ((2.0 * epsilon + 4 * M) / (epsilon + (2 * M + 2)))


def wkb_energy_quadrature(model: ModelSpec, k: int) -> float:
    """Leading WKB energy for any M: root of action_integral(E) = (k+1/2) pi.

    V is homogeneous of degree N = 2M + eps along rays, so scaling x by
    E^(1/N) gives A(E) = A(1) E^(1/2 + 1/N) exactly, and the root follows
    from one action integral.  An independent cross-check of
    wkb_energy_closed (within 6e-14 at 400 nodes on M = 1..4, eps < 60);
    no solver seed goes through it.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    expo = 0.5 + 1.0 / (2.0 * model.M + model.epsilon)
    return ((k + 0.5) * math.pi / action_integral(model, 1.0)) ** (1.0 / expo)


def wkb_energy_next(k: int, epsilon: float, M: int = 1) -> float:
    """Next-order WKB energy for any M: the leading closed form times 1 + eta,

    eta = N (N - 1) sin(2 pi/N) r^2 / (6 pi (N + 2)^2 (k + 1/2)^2),
    r = sin(pi M/N) / sin(pi/N),  N = 2M + eps,

    from the second-order rule int sqrt(E - V) dx
    - (1/24) d^2/dE^2 int V'^2 / sqrt(E - V) dx = (k + 1/2) pi (Bender &
    Orszag, 1978, ch. 10), whose second term is a Beta function on the same
    rays.  At M = 1, r is exactly 1 and eta vanishes at eps = 0; at M = 2,
    eps = 0 (the quartic oscillator) eta = 1/(9 pi (k + 1/2)^2).  Stated
    for the high-level regime but exposed for all k >= 0.
    """
    lead = wkb_energy_closed(k, epsilon, M)
    r = math.sin(math.pi * M / (epsilon + 2 * M)) \
        / math.sin(math.pi / (epsilon + 2 * M))
    corr = 1.0 + (epsilon + 2 * M) * (epsilon + (2 * M - 1)) \
        * math.sin(2.0 * math.pi / (epsilon + 2 * M)) * r * r \
        / (6.0 * math.pi * (k + 0.5) ** 2 * (epsilon + (2 * M + 2)) ** 2)
    return lead * corr


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
