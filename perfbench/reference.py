"""Reference values for the benchmark checks.

Nothing here imports ptwell: every value is either printed in the paper or
computed by a method that shares no code with the solver it checks.

* Hermitian anchors.  At eps = 0 the M = 2 problem is p^2 + x^4, and by the
  Buslaev-Grecchi equivalence (J. Phys. A 26 (1993) 5541) the M = 1, eps = 2
  problem p^2 - x^4 with PT boundary conditions is isospectral to the
  Hermitian p^2 + 4 x^4 - 2 x.  Both are diagonalised with numpy `eigvalsh`
  in a harmonic-oscillator basis.  M = 1, eps = 0 is the oscillator, 2k + 1.
* Other small deformations (0 < eps < 4).  Chebyshev collocation on the
  PT-symmetric hyperbola x(s) = rho (sinh s cos t + i cosh s sin t), which
  runs into the centres t and -pi - t of the two decay wedges, and one dense
  `numpy.linalg.eigvals`.
* WKB and the classical period.  The turning points sit on the rays where
  V = r^(2M+eps) is real, so both integrals reduce to Beta functions:
  closed forms for every M, evaluated with `math.gamma` and `scipy.special`.
* Solvable limit.  The wavefunction is checked against the scaled equation
  with the benchmark's own fourth-order differences; the boundary decay
  against `scipy.special.kve`.

Every computed reference is made at two discretisation sizes and must agree
with itself before it is used (`ReferenceError` otherwise).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import beta, kve

EULER_GAMMA = float(np.euler_gamma)

# Golden columns of the three tables, as printed in the paper (row labels
# 8, 18, ..., 58); the tolerances are those of the acceptance suite.
GOLDEN_LABELS = (8.0, 18.0, 28.0, 38.0, 48.0, 58.0)
GOLDEN = {
    1: {"E0": [5.55331, 20.67629, 46.94324, 84.78728, 134.43752, 196.03417],
        "F": [0.07825, 0.06998, 0.06742, 0.06617, 0.06542, 0.06493],
        "R1": [0.06336, 0.06281, 0.06266, 0.06260, 0.06257],
        "R2": [0.06259, 0.06253, 0.06251, 0.06251]},
    2: {"E0": [2.65128, 9.21477, 20.70525, 37.32010, 59.16865, 86.31766]},
    3: {"R0": [0.12597, 0.13460, 0.13767, 0.13926, 0.14024, 0.14090],
        "R1": [0.14150, 0.14321, 0.14372, 0.14394, 0.14406],
        "R2": [0.14389, 0.14418, 0.14425, 0.14428]},
}
GOLDEN_TOL = 2e-5
# Last order-2 extrapolant against its exact limit: 1/36 (table 2), gamma/4
# (table 3), at the acceptance suite's 2e-4.
GOLDEN_LIMITS = {2: 1.0 / 36.0, 3: EULER_GAMMA / 4.0}
GOLDEN_LIMIT_TOL = 2e-4

SELF_AGREEMENT = 1e-9   # relative agreement of a reference with itself


class ReferenceError(RuntimeError):
    """A reference disagreed with itself across discretisation sizes."""


def _agree(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    if len(a) != len(b):
        raise ReferenceError(f"{what}: {len(a)} vs {len(b)} levels")
    worst = float(np.max(np.abs(a - b) / np.abs(b)))
    if worst > SELF_AGREEMENT:
        raise ReferenceError(f"{what}: sizes disagree by {worst:.2e}")
    return b


# ---------------------------------------------------------------------------
# Hermitian anchors in a harmonic-oscillator basis
# ---------------------------------------------------------------------------

def _oscillator_eigvals(coeffs: tuple[float, ...], size: int,
                        omega: float = 4.0) -> np.ndarray:
    """Eigenvalues of p^2 + sum_j coeffs[j] x^j in `size` oscillator states.

    Products of x are formed in a slightly larger basis and then cut, so
    every kept matrix element is exact.
    """
    n = size + len(coeffs)
    idx = np.arange(n)
    x = np.zeros((n, n))
    off = np.sqrt(idx[1:] / (2.0 * omega))
    x[idx[:-1], idx[1:]] = off
    x[idx[1:], idx[:-1]] = off
    h = np.diag((2.0 * idx + 1.0) * omega / 2.0)
    p2 = -np.sqrt((idx[:-2] + 1.0) * (idx[:-2] + 2.0)) * omega / 2.0
    h[idx[:-2], idx[:-2] + 2] = p2
    h[idx[:-2] + 2, idx[:-2]] = p2
    power = np.eye(n)
    for j, c in enumerate(coeffs):
        if j:
            power = power @ x
        if c:
            h += c * power
    return np.linalg.eigvalsh(h[:size, :size])


# (M, eps) -> polynomial coefficients of the Hermitian equivalent
_HERMITIAN = {
    (2, 0.0): (0.0, 0.0, 0.0, 0.0, 1.0),     # p^2 + x^4
    (1, 2.0): (0.0, -2.0, 0.0, 0.0, 4.0),    # p^2 + 4x^4 - 2x
}


def hermitian_levels(M: int, eps: float, count: int) -> np.ndarray:
    """Lowest `count` levels of the Hermitian equivalent of (M, eps)."""
    coeffs = _HERMITIAN[(M, eps)]
    a = _oscillator_eigvals(coeffs, 200)[:count]
    b = _oscillator_eigvals(coeffs, 260)[:count]
    return _agree(a, b, f"oscillator basis M={M} eps={eps}")


# ---------------------------------------------------------------------------
# Chebyshev collocation on a PT-symmetric contour
# ---------------------------------------------------------------------------

def _cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev points and differentiation matrix (Trefethen, SMM ch. 6)."""
    t = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dt = t[:, None] - t[None, :]
    d = np.outer(c, 1.0 / c) / (dt + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, t


def _collocation_eigvals(M: int, eps: float, n: int, rho: float,
                         half_width: float) -> np.ndarray:
    theta = -eps * math.pi / (4.0 * M + 2.0 * eps + 4.0)
    d, t = _cheb(n)
    s = half_width * t
    d1 = d / half_width
    d2 = d1 @ d1
    c, si = math.cos(theta), math.sin(theta)
    x = rho * (np.sinh(s) * c + 1j * np.cosh(s) * si)
    xp = rho * (np.cosh(s) * c + 1j * np.sinh(s) * si)
    v = x ** (2 * M) * np.exp(eps * np.log(1j * x))
    # -psi_xx + V psi with psi_xx = (psi_ss - (x''/x') psi_s) / x'^2, x'' = x
    a = -(1.0 / xp ** 2)[:, None] * d2 + (x / xp ** 3)[:, None] * d1 + np.diag(v)
    ev = np.linalg.eigvals(a[1:-1, 1:-1])
    real = ev[(np.abs(ev.imag) < 1e-6 * np.abs(ev)) & (ev.real > 0.0)]
    return np.sort(real.real)


def collocation_levels(M: int, eps: float, count: int) -> np.ndarray:
    """Lowest `count` real levels of p^2 + x^(2M)(ix)^eps, 0 < eps < 4.

    The contour scale is the turning radius of the highest wanted level and
    reaches 2.5 times that radius at its ends.
    """
    if not 0.0 < eps < 4.0:
        raise ValueError("collocation reference is set up for 0 < eps < 4")
    rho = wkb_leading(M, eps, count - 1) ** (1.0 / (2 * M + eps))
    half_width = math.log(5.0)
    a = _collocation_eigvals(M, eps, 120, rho, half_width)[:count]
    b = _collocation_eigvals(M, eps, 160, rho, half_width)[:count]
    return _agree(a, b, f"collocation M={M} eps={eps}")


def level_reference(M: int, eps: float, count: int) -> np.ndarray:
    """Levels k = 0..count-1 of (M, eps) from the appropriate reference."""
    if (M, eps) == (1, 0.0):
        return 2.0 * np.arange(count) + 1.0
    if (M, eps) in _HERMITIAN:
        return hermitian_levels(M, eps, count)
    return collocation_levels(M, eps, count)


# ---------------------------------------------------------------------------
# closed forms: WKB, classical period, solvable limit
# ---------------------------------------------------------------------------

def wkb_leading(M: int, eps: float, k: int) -> float:
    """Leading WKB level: the action 2 cos(d) E^(1/2+1/N) int_0^1
    sqrt(1 - s^N) ds equals (k + 1/2) pi, with N = 2M + eps and d = eps pi/(2N)
    the angle of the turning points below the real axis."""
    n = 2.0 * M + eps
    d = eps * math.pi / (2.0 * n)
    unit = math.cos(d) * math.sqrt(math.pi) * math.gamma(1.0 + 1.0 / n) \
        / math.gamma(1.5 + 1.0 / n)
    return ((k + 0.5) * math.pi / unit) ** (2.0 * n / (n + 2.0))


def wkb_next_m1(k: int, eps: float) -> float:
    """Next-order M = 1 WKB level: the leading level times
    1 + (2+eps)(1+eps) sin(2 pi/(2+eps)) / (6 pi (k+1/2)^2 (4+eps)^2)."""
    corr = 1.0 + (2.0 + eps) * (1.0 + eps) * math.sin(2.0 * math.pi / (2.0 + eps)) \
        / (6.0 * math.pi * (k + 0.5) ** 2 * (4.0 + eps) ** 2)
    return wkb_leading(1, eps, k) * corr


def classical_period(eps: float, E: float) -> float:
    """Period of the M = 1 complex pendulum, 2 int dx / sqrt(E - V) between
    the turning points: 4 cos(d) E^(1/N - 1/2) B(1/N, 1/2) / N, N = 2 + eps."""
    n = 2.0 + eps
    d = eps * math.pi / (2.0 * n)
    return 4.0 * math.cos(d) * E ** (1.0 / n - 0.5) * beta(1.0 / n, 0.5) / n


def limit_ode_residual(psi, M: int, nu: float, z: complex,
                       h: float = 1e-3) -> float:
    """Relative residual of psi'' + F pi^2 (1 + (-1)^(M+1) e^(i pi z)) psi,
    F = nu^2/4, with a fourth-order central difference of step h."""
    p = [psi(z + j * h) for j in (-2, -1, 0, 1, 2)]
    d2 = (-p[0] + 16.0 * p[1] - 30.0 * p[2] + 16.0 * p[3] - p[4]) / (12.0 * h * h)
    e = cmath.exp(1j * math.pi * z)
    f = nu * nu / 4.0 * math.pi ** 2
    sign = 1.0 if M % 2 == 1 else -1.0
    resid = abs(d2 + f * (1.0 + sign * e) * p[2])
    return resid / (abs(d2) + f * (1.0 + abs(e)) * abs(p[2]))


def boundary_log_decay(M: int, nu: float, y: float) -> float:
    """ln |psi| on the lines z = +-(M+1) - i y, where psi = c K_nu(r) with
    r = nu e^(pi y/2); c is 1/pi for M = 1 and 2/pi for M = 2 under the
    package's normalisation of the limit wavefunction."""
    c = 1.0 / math.pi if M == 1 else 2.0 / math.pi
    r = nu * math.exp(math.pi * y / 2.0)
    return math.log(c) + math.log(kve(nu, r)) - r
