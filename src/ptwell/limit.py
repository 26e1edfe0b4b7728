"""The exactly solvable large-deformation limit.

After the scaling x = (-i + pi z/(2M + eps)) E^(1/(2M+eps)), the eigenproblem
collapses (as eps -> infinity) to

    psi''(z) + F pi^2 (1 + (-1)^(M+1) e^(i pi z)) psi(z) = 0,   F = E/eps^2,

a complex analog of the square well.  The substitution w = nu e^(i pi z / 2)
with nu = 2 sqrt(F) turns it into the modified Bessel equation in the
variable w e^(i pi (M+1)/2), whose solution K_nu decays on the left
boundary line Re z = -(M+1).  Decay on the right line Re z = M+1 as well
quantizes nu, for every M:

    sin((M+1) nu pi) / sin(nu pi) = 0   ->  nu = k + P/(M+1), P = 1..M,

so F = nu^2/4 (M = 1: nu = k + 1/2; M = 2: nu = k + 1/3, k + 2/3).

The refined deformation map F(eps) = E^((eps+2M+2)/(eps+2M)) / (eps+2)^2
expands as F = f0 + f1/eps + ..., and at M = 1 the ground-state correction
evaluates in closed form to f1 = gamma/4.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import EULER_GAMMA, bessel_K_logw, bessel_K_scaled


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
    if not isinstance(j, numbers.Integral) or j < 0:
        raise ValueError("j must be an integer >= 0")
    return j // M + ((j % M) + 1) / (M + 1.0)


def nu_spectrum(M: int, k_max: int) -> list[LimitLevel]:
    """All limit levels with k <= k_max, sorted by nu: entry j is level j,
    with k = j // M, P = (j mod M) + 1 and nu = level_nu(M, j)."""
    if not isinstance(M, numbers.Integral) or M < 1:
        raise ValueError("M must be an integer >= 1")
    if not isinstance(k_max, numbers.Integral) or k_max < 0:
        raise ValueError("k_max must be an integer >= 0")
    nus = [level_nu(M, j) for j in range((k_max + 1) * M)]
    return [LimitLevel(j // M, j % M + 1, nu, nu ** 2 / 4.0)
            for j, nu in enumerate(nus)]


def quantization_residual(M: int, nu: float) -> float:
    """sin((M+1) nu pi) / (2 sin(nu pi)), zero exactly at the levels
    nu = k + P/(M+1), P = 1..M.

    Summed as cos(M nu pi) + cos((M-2) nu pi) + ..., plus 1/2 for even M:
    cos(nu pi) at M = 1, cos(2 nu pi) + 1/2 at M = 2.  Each m nu is
    reduced modulo 2 before calling cos, so the residual vanishes to
    ~1e-16 at spectrum values of any index.

    Raises:
        ValueError: unless M is a positive integer and 0 < nu < inf (nan
            included).
    """
    if M < 1 or M != int(M):
        raise ValueError("M must be a positive integer")
    if not 0.0 < nu < math.inf:
        raise ValueError("nu must be finite and positive")
    total = 0.0 if M % 2 == 1 else 0.5
    for m in range(int(M), 0, -2):
        t = m * nu - 2.0 * round(m * nu / 2.0)
        total += math.cos(math.pi * t)
    return total


def _require_level(M: int, nu: float) -> None:
    if abs(quantization_residual(M, nu)) > 1e-8:
        raise ValueError(f"nu = {nu} is not a limit eigenvalue for M = {M}")


# ---------------------------------------------------------------------------
# limit eigenfunctions
# ---------------------------------------------------------------------------

def limit_wavefunction(M: int, nu: float, z: complex) -> complex:
    """The limit eigenfunction at a point z of the arch region
    |Re z| <= M + 1.

    psi = c e^(s nu) K_nu(w e^s) with w = nu e^(i pi z/2),
    s = +i pi (M+1)/2 for Re z <= 0 and -i pi (M+1)/2 elsewhere, and
    c = 1/pi for odd M, -2/pi for even M.  On the left boundary line
    z = -(M+1) - i y the argument w e^s = nu e^(pi y/2) is positive, so psi
    decays there.  Continued to the right line, K gains the growing I_nu
    term with the factor sin((M+1) nu pi)/sin(nu pi) (DLMF 10.34.2), which
    vanishes at the levels: there both signs of s give the same function,
    decaying on both lines, and each keeps the K argument near the positive
    axis on its half of the arch, so no two parts cancel near the legs.
    K is evaluated through its log-argument entry point, which carries the
    continuation across |arg| > pi.

    c makes the M = 1 ground function literally e^w / sqrt(2 pi w), and
    each M = 2 function C1 J_nu(w) + Y_nu(w) with
    C1 = -(cos nu pi - e^(3 i nu pi))/sin nu pi; the overall scale is
    otherwise arbitrary.

    Raises:
        ValueError: if M is not a positive integer, or nu is not a
            spectrum value (decay can then be enforced on one line only).
    """
    _require_level(M, nu)
    s = 0.5j * math.pi * (M + 1)
    if z.real > 0.0:
        s = -s
    c = 1.0 if M % 2 == 1 else -2.0
    t = math.log(nu) + 1j * math.pi * z / 2.0
    return c * cmath.exp(s * nu) / math.pi * bessel_K_logw(nu, t + s)


def boundary_log_decay(M: int, nu: float, y: float) -> float:
    """ln |psi| on the vertical boundary lines z = +-(M+1) - i y.

    There the K argument w e^s of limit_wavefunction is real and positive,
    so |psi| = |c| K_nu(r) with r = nu e^(pi y / 2) and |c| = 1/pi for odd
    M, 2/pi for even M; evaluated through the scaled K so arbitrarily deep
    points do not underflow.  Decreases monotonically in y (doubly
    exponential decay).

    Raises:
        ValueError: if M is not a positive integer, or nu is not a
            spectrum value (psi then grows on one of the lines).
    """
    _require_level(M, nu)
    c = (1.0 if M % 2 == 1 else 2.0) / math.pi
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
    [-1.25, 1.25], Im z in [-0.75, 0.15] (the benchmark's region) the worst
    residual is 4e-6 at a step of 1e-4 (near the node of the M = 2,
    nu = 2/3 level at the origin), 1e-8 at 2e-3, 6e-9 at 3e-3 and 2e-8 at
    5e-3.  At 3e-3 the worst is 1.2e-8 on the first 3M levels of M = 1..4
    over the whole arch, |Re z| <= M + 0.9, Im z in [-1, 0.2] (300 points
    a level).
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
