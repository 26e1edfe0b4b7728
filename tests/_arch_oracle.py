"""Height where the classically allowed arch crosses the negative imaginary
axis, for test oracles.

G(y) = Im int sqrt(E - V) dx from the right turning point
x_t = E^(1/N) exp(-i eps pi/(4M + 2 eps)) to -i y, N = 2M + eps, by the
64-point Gauss-Legendre rule on the straight segment, which defines the
height the solver matches at.  The branch of the root is tracked on a dense
path along the segment, from the principal root at -i y (where
V = (-1)^M y^N is real and E - V > 0 below the turning radius r_t), and
the zero of G is bisected inside (0, r_t).  Oracle use only: it imports
nothing from ptwell, so it shares no code with the solver it checks.
"""

from __future__ import annotations

import math

import numpy as np

NODES, WEIGHTS = np.polynomial.legendre.leggauss(64)
# the segment's parameter t, 1 at -i y and -1 at x_t: the Gauss nodes and a
# dense grid, walked from t = 1 down
PATH_T = np.concatenate([NODES, np.linspace(-1.0, 1.0, 1025)])
ORDER = np.argsort(-PATH_T, kind="stable")


def _potential(x: np.ndarray, M: int, eps: float) -> np.ndarray:
    # principal branch: (ix)^eps = exp(eps Log(ix)), cut on the positive
    # imaginary axis
    return x ** (2 * M) * np.exp(eps * np.log(1j * x))


def action(M: int, eps: float, E: float, y: float) -> float:
    """G(y) on the branch continued along a dense path from -i y."""
    N = 2 * M + eps
    x_t = E ** (1.0 / N) * complex(math.cos(eps * math.pi / (4 * M + 2 * eps)),
                                   -math.sin(eps * math.pi / (4 * M + 2 * eps)))
    mid, half = 0.5 * (x_t - 1j * y), 0.5 * (-1j * y - x_t)
    roots = np.sqrt(E - _potential(mid + half * PATH_T[ORDER], M, eps))
    # a point takes the sign of the root of its predecessor nearer to it
    turned = np.abs(roots[1:] - roots[:-1]) > np.abs(roots[1:] + roots[:-1])
    roots[1:] *= np.cumprod(np.where(turned, -1.0, 1.0))
    at_t = np.empty(len(PATH_T), dtype=complex)
    at_t[ORDER] = roots
    total = 0j
    for w, q in zip(WEIGHTS, at_t[:64]):
        total += w * q
    return (total * half).imag


def crossing(M: int, eps: float, E: float) -> float:
    """The zero of G in (0, r_t), bisected to 1e-14 max(1, r_t) from G > 0
    at 0+ and G < 0 at r_t-.  Neither end is evaluated: at even M, -i r_t
    is itself a zero of E - V, and the principal root there has no sign."""
    r = E ** (1.0 / (2 * M + eps))
    lo, hi = 0.0, r
    while hi - lo > 1e-14 * max(1.0, r):
        mid = 0.5 * (lo + hi)
        if action(M, eps, E, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    if lo == 0.0 or hi == r:
        raise RuntimeError("arch oracle: no crossing inside (0, r_t)")
    return 0.5 * (lo + hi)
