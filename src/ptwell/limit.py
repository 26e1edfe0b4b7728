"""The exactly solvable large-deformation limit.

After the scaling x = (-i + pi z/(2M + eps)) E^(1/(2M+eps)), the eigenproblem
collapses (as eps -> infinity) to

    psi''(z) + F pi^2 (1 + (-1)^(M+1) e^(i pi z)) psi(z) = 0,   F = E/eps^2,

a complex analog of the square well.  The substitution w = nu e^(i pi z / 2)
with nu = 2 sqrt(F) turns it into the modified Bessel equation for odd M and
the ordinary Bessel equation for even M.  Decay on the vertical boundary
lines Re z = +-(M+1) quantizes nu:

    M = 1:  cos(nu pi) = 0          ->  nu = k + 1/2,
    M = 2:  cos(2 nu pi) = -1/2     ->  nu = k + 1/3, k + 2/3,

and in general nu = k + P/(M+1), P = 1..M, so F = nu^2/4.

The refined deformation map F(eps) = E^((eps+2M+2)/(eps+2M)) / (eps+2)^2
expands as F = f0 + f1/eps + ..., and at M = 1 the ground-state correction
evaluates in closed form to f1 = gamma/4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import (EULER_GAMMA, bessel_J_logw, bessel_K_logw,
                      bessel_K_scaled, bessel_Y_logw)


@dataclass(frozen=True)
class LimitLevel:
    """One level of the solvable limit: indices (k, P), nu, and F = nu^2/4."""

    k: int
    P: int
    nu: float
    F: float


def level_nu(M: int, j: int) -> float:
    """Limit index of level j = 0, 1, ... in ascending order:
    nu = j//M + ((j mod M) + 1)/(M + 1)."""
    return j // M + ((j % M) + 1) / (M + 1.0)


def nu_spectrum(M: int, k_max: int) -> list[LimitLevel]:
    """All limit levels with k <= k_max, sorted by nu: entry j is level j,
    with k = j // M, P = (j mod M) + 1 and nu = level_nu(M, j)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    nus = [level_nu(M, j) for j in range((k_max + 1) * M)]
    return [LimitLevel(j // M, j % M + 1, nu, nu ** 2 / 4.0)
            for j, nu in enumerate(nus)]


def quantization_residual(M: int, nu: float) -> float:
    """cos(nu pi) for M = 1, cos(2 nu pi) + 1/2 for M = 2.

    Arguments are reduced modulo the period before calling cos, so the
    residual vanishes to ~1e-16 at spectrum values of any index.

    Raises:
        ValueError: unless 0 < nu < inf (nan included), and for M >= 3 (no
            closed condition is implemented; the spectrum itself is
            available through nu_spectrum).
    """
    if not 0.0 < nu < math.inf:
        raise ValueError("nu must be finite and positive")
    if M == 1:
        t = nu - 2.0 * round(nu / 2.0)
        return math.cos(math.pi * t)
    if M == 2:
        t = nu - round(nu)
        return math.cos(2.0 * math.pi * t) + 0.5
    raise ValueError("closed quantization condition implemented for M in {1, 2}")


# ---------------------------------------------------------------------------
# limit eigenfunctions
# ---------------------------------------------------------------------------

def _coeffs(M: int, nu: float) -> tuple[complex, complex]:
    """(C1, C2) enforcing decay on the left vertical; odd M uses (I, K) with
    C2 = 1/pi, even M uses (J, Y) with C2 = 1."""
    if M % 2 == 1:
        c2 = 1.0 / math.pi
        c1 = -1j * cmath.exp(1j * nu * math.pi) * math.pi * c2
        return c1, complex(c2)
    s = math.sin(nu * math.pi)
    c2 = 1.0 + 0j
    c1 = -c2 * (math.cos(nu * math.pi) - cmath.exp(3j * nu * math.pi)) / s
    return c1, c2


def _right_bc_residual(M: int, nu: float, c1: complex, c2: complex) -> float:
    """Growing-component coefficient on the right vertical, normalized."""
    if M % 2 == 1:
        val = c1 * cmath.exp(1j * nu * math.pi) - 1j * math.pi * c2
        scale = abs(c1) + math.pi * abs(c2)
    else:
        s = math.sin(nu * math.pi)
        e = cmath.exp(3j * nu * math.pi)
        val = c1 + c2 * (math.cos(nu * math.pi) - 1.0 / e) / s
        scale = abs(c1) + abs(c2) / abs(s)
    return abs(val) / scale


def limit_wavefunction(M: int, nu: float, z: complex) -> complex:
    """The limit eigenfunction at a point z of the arch region, M in {1, 2}.

    Odd M:  psi = C1 I_nu(w) + C2 K_nu(w), even M: psi = C1 J_nu(w) +
    C2 Y_nu(w), with w = nu e^(i pi z/2) evaluated through the log-argument
    entry points so the analytic continuation across |arg w| > pi (needed
    for |Re z| up to M + 1) is built in.  C2 is normalized to 1/pi for M = 1,
    which makes the ground function literally I_1/2 + K_1/2/pi =
    e^w / sqrt(2 pi w); the overall scale is otherwise arbitrary.

    For odd M, cos(nu pi) = 0 makes C1 I + C2 K equal to
    e^(+-i nu pi)/pi K_nu(w e^(+-i pi)), which decays on Re z = -+(M + 1);
    the sign of -Re z avoids the cancellation of the C1 and C2 parts near
    the legs of the arch.

    Raises:
        ValueError: if nu is not a spectrum value (decay can then be
            enforced on one vertical only), or M not in {1, 2}.
    """
    if M not in (1, 2):
        raise ValueError("limit wavefunction implemented for M in {1, 2}")
    c1, c2 = _coeffs(M, nu)
    if _right_bc_residual(M, nu, c1, c2) > 1e-8:
        raise ValueError(f"nu = {nu} is not a limit eigenvalue for M = {M}")
    t = math.log(nu) + 1j * math.pi * z / 2.0
    if M % 2 == 1:
        s = 1j * math.pi if z.real <= 0.0 else -1j * math.pi
        return cmath.exp(s * nu) / math.pi * bessel_K_logw(nu, t + s)
    return c1 * bessel_J_logw(nu, t) + c2 * bessel_Y_logw(nu, t)


def boundary_log_decay(M: int, nu: float, y: float) -> float:
    """ln |psi| on the vertical boundary lines z = +-(M+1) - i y.

    There the growing Bessel component cancels by construction and
    |psi| = c K_nu(r) with r = nu e^(pi y / 2); evaluated through the scaled
    K so arbitrarily deep points do not underflow.  Decreases monotonically
    in y (doubly exponential decay).
    """
    if M not in (1, 2):
        raise ValueError("implemented for M in {1, 2}")
    _, c2 = _coeffs(M, nu)
    c = abs(c2) if M % 2 == 1 else abs(c2) * 2.0 / math.pi
    r = nu * math.exp(math.pi * y / 2.0)
    return math.log(c) + math.log(abs(bessel_K_scaled(nu, complex(r)))) - r


def scaled_ode_residual(M: int, F: float, z: complex,
                        psi: Callable[[complex], complex]) -> float:
    """Relative residual of psi in the scaled equation at z.

    psi'' is formed by Richardson-refined central differences (base step
    3e-3), and the residual |psi'' + F pi^2 (1 + (-1)^(M+1) e^(i pi z)) psi|
    is normalized by |psi''| + F pi^2 (1 + |e^(i pi z)|) |psi|.  The step
    balances the rounding noise of psi, amplified by 1/h^2, against the h^4
    truncation error: on the first three levels of M = 1, 2 over Re z in
    [-1.25, 1.25], Im z in [-0.75, 0.15] the worst residual is 4e-6 at a step
    of 1e-4 (near the node of the M = 2, nu = 2/3 level at the origin),
    1e-8 at 2e-3, 6e-9 at 3e-3 and 2e-8 at 5e-3.
    """
    h = 3e-3
    pc = psi(z)

    def second(hh: float) -> complex:
        return (psi(z + hh) - 2.0 * pc + psi(z - hh)) / (hh * hh)

    d2 = (4.0 * second(h / 2.0) - second(h)) / 3.0
    sgn = 1.0 if M % 2 == 1 else -1.0
    coef = F * math.pi ** 2 * (1.0 + sgn * cmath.exp(1j * math.pi * z))
    resid = abs(d2 + coef * pc)
    scale = abs(d2) + F * math.pi ** 2 * (1.0 + abs(cmath.exp(1j * math.pi * z))) * abs(pc)
    return resid / max(scale, 1e-300)


# ---------------------------------------------------------------------------
# deformation map and the first correction
# ---------------------------------------------------------------------------

def F_of_eps(E: float, epsilon: float, M: int = 1) -> float:
    """F = E^((eps+2M+2)/(eps+2M)) / (eps+2)^2, the refined scaling of E.
    Raises ValueError unless 0 < E < inf, 0 <= eps < inf (nan included)
    and M >= 1."""
    if not (0.0 < E < math.inf and 0.0 <= epsilon < math.inf and M >= 1):
        raise ValueError("need finite E > 0, epsilon >= 0 and M >= 1")
    return E ** ((epsilon + (2 * M + 2)) / (epsilon + 2 * M)) / (epsilon + 2.0) ** 2


def E_of_F(F: float, epsilon: float, M: int = 1) -> float:
    """Exact inverse of F_of_eps.  Raises ValueError unless 0 < F < inf,
    0 <= eps < inf (nan included) and M >= 1."""
    if not (0.0 < F < math.inf and 0.0 <= epsilon < math.inf and M >= 1):
        raise ValueError("need finite F > 0, epsilon >= 0 and M >= 1")
    return (F * (epsilon + 2.0) ** 2) ** ((epsilon + 2 * M) / (epsilon + (2 * M + 2)))


def f1_ground() -> float:
    """The ground-state 1/eps correction coefficient, gamma/4."""
    return EULER_GAMMA / 4.0


def f1_oracle() -> float:
    """f1 from the wrap-around contour integrals, evaluated numerically.

    The ratio of contour integrals reduces to real quantities: the
    numerator's branch-cut discontinuity gives 4 pi i int_0^inf e^(-2t)
    ln(2t) dt, the denominator is -4 pi i from the residue of e^(2w)/w^2 at
    the origin traversed clockwise (the analytic 4 e^(2w) part integrates
    to zero).  Returns (1/2) numerator/denominator.

    With 2t = e^x the integral becomes (1/2) int x e^(x - e^x) dx over the
    real line, an entire integrand decaying on both sides, on which the
    trapezoidal rule converges geometrically in 1/h; the rule at twice the
    step serves as the error estimate.  (scipy.integrate is not imported:
    it would add about 26 MB to every process that imports ptwell.)
    """
    def trapezoid(h: float) -> float:
        x = np.arange(-50.0, 5.0, h)
        return 0.5 * h * float(np.sum(x * np.exp(x - np.exp(x))))

    val = trapezoid(0.25)
    err = abs(val - trapezoid(0.5))
    if err > 1e-7:
        raise RuntimeError(f"f1 quadrature error estimate too large: {err:.2e}")
    numerator = 4.0 * math.pi * val * 1j
    denominator = -4.0 * math.pi * 1j
    return 0.5 * (numerator / denominator).real
