"""High-precision straight-ray shooting for test oracles.

Finds a real level of H = p^2 + x^(2M) (ix)^eps in mpmath arithmetic at DPS
digits: psi'' = (V - E) psi is carried by Taylor series, their coefficients
from the binomial series of V about each step's start, inward from a
decaying WKB start DEPTH e-folds beyond the turning radius on the centre ray
of the right decay wedge, down that ray and along a chord to a match point
on the negative imaginary axis.  PT symmetry makes the left log-derivative
there -conj of the right one, so for real E the defect is real, and a
secant iteration from a double-precision estimate locates its root.  At
high levels and large eps the match point lies off the arch, where Re u_R
is 1e-28 of |u_R| at (1, 28, 21): 50 digits still resolve the root to
1e-20, where double-precision paths stop at a rounding floor.
Oracle use only: it imports nothing from ptwell, so it shares no code with
the shooting solver it checks.
"""

from __future__ import annotations

import cmath
import math

import mpmath

DPS = 50
DEPTH = 40.0        # e-folds of decay from the turning radius to the start
GROWTH = 4.0        # |h| sqrt|V - E| per Taylor step
REACH = 0.25        # step length per |z| at its start: V's binomial series


def _potential(z, M: int, eps: float):
    # principal branch: (ix)^eps = exp(eps Log(ix)), cut on the positive
    # imaginary axis
    return z ** (2 * M) * mpmath.exp(eps * mpmath.log(1j * z))


def _taylor_step(z0, h, psi, dpsi, M: int, eps: float, E):
    """(psi, dpsi/ds) at s = 1 on z = z0 + s h from their values at s = 0,
    for psi_ss = h^2 (V - E) psi, by the Taylor series of psi about z0."""
    n_pow = 2 * M + eps
    v0 = _potential(z0, M, eps)
    ratio = h / z0
    q = [h * h * (v0 - E)]          # Taylor coefficients of h^2 (V - E)
    binom, term = mpmath.mpf(1), h * h * v0
    c = [psi, dpsi]
    tiny = mpmath.mpf(10) ** (-DPS - 5) * (abs(psi) + abs(dpsi))
    small = 0
    n = 0
    while small < 3:
        binom = binom * (n_pow - n) / (n + 1)
        term = term * ratio
        q.append(term * binom)
        c.append(mpmath.fsum(q[j] * c[n - j] for j in range(n + 1)) / ((n + 1) * (n + 2)))
        small = small + 1 if abs(c[-1]) * (n + 2) < tiny else 0
        n += 1
        if n > 2000:
            raise RuntimeError("mp oracle: Taylor series did not converge")
    return mpmath.fsum(c), mpmath.fsum(j * cj for j, cj in enumerate(c) if j)


def _carry(a, b, psi, dpsi, M: int, eps: float, E):
    """(psi, dpsi/dz) at b from their values at a, along the straight line,
    up to a common scale."""
    t, span = mpmath.mpf(0), b - a
    while t < 1:
        z0 = a + t * span
        reach = min(REACH * abs(z0),
                    GROWTH / math.sqrt(float(abs(_potential(z0, M, eps) - E)) + 1.0))
        dt = min(1 - t, mpmath.mpf(reach) / abs(span))
        h = dt * span
        psi, ds = _taylor_step(z0, h, psi, dpsi * h, M, eps, E)
        dpsi = ds / h
        scale = abs(psi) + abs(dpsi)
        psi, dpsi, t = psi / scale, dpsi / scale, t + dt
    return psi, dpsi


def _start(theta: float, M: int, eps: float, E: float) -> float:
    """Radius on the ray at angle theta where the decay from the turning
    radius reaches DEPTH e-folds (64-point trapezoid steps in double)."""
    n_pow = 2 * M + eps
    r_t = E ** (1.0 / n_pow)
    ex = cmath.exp(1j * theta)
    depth, r, dr = 0.0, r_t, r_t / 64.0
    while depth < DEPTH:
        q0, q1 = (cmath.sqrt(ex * ex * (complex(_potential(x * ex, M, eps)) - E))
                  for x in (r, r + dr))
        depth += 0.5 * dr * (abs(q0.real) + abs(q1.real))
        r += dr
    return r


def _u_right(M: int, eps: float, E, match: float):
    """psi'/psi at -i match E^(1/N) of the solution decaying in the right
    wedge."""
    n_pow = 2 * M + eps
    theta = -math.pi * eps / (2.0 * (n_pow + 2.0))     # centre of the wedge
    R = _start(theta, M, eps, float(E))
    ex = mpmath.expjpi(mpmath.mpf(theta) / mpmath.pi)
    z = R * ex
    v = _potential(z, M, eps)
    qr = mpmath.sqrt(ex * ex * (v - E))     # psi_rr = qr^2 psi on the ray
    if mpmath.re(qr) < 0:
        qr = -qr
    dqr = ex ** 3 * n_pow * v / z
    dpsi = (-qr - dqr / (4 * qr * qr)) / ex
    ym = match * mpmath.mpf(E) ** (1 / mpmath.mpf(n_pow))
    psi, dpsi = _carry(z, ym * ex, mpmath.mpc(1), dpsi, M, eps, E)
    psi, dpsi = _carry(ym * ex, -1j * ym, psi, dpsi, M, eps, E)
    return dpsi / psi


def level(M: int, eps: float, E0: float, match: float = 0.9) -> float:
    """The real level next to E0, to 1e-20 relative: secant on
    w(E) = -2 Re u_R / (1 + |u_R|)^2, the normalized defect u_L - u_R on the
    real axis, from E0 and E0 (1 + 1e-10)."""
    with mpmath.workdps(DPS):
        def w(E):
            u = _u_right(M, eps, E, match)
            return -2 * mpmath.re(u) / (1 + abs(u)) ** 2

        E_a, E_b = mpmath.mpf(E0), mpmath.mpf(E0) * (1 + mpmath.mpf(10) ** -10)
        w_a, w_b = w(E_a), w(E_b)
        for _ in range(30):
            E_a, E_b = E_b, E_b - w_b * (E_b - E_a) / (w_b - w_a)
            if abs(E_b - E_a) <= mpmath.mpf(10) ** -20 * abs(E_b):
                return E_b
            w_a, w_b = w_b, w(E_b)
    raise RuntimeError("mp oracle: secant did not settle")
