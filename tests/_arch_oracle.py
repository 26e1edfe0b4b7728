"""Height where the classically allowed arch crosses the negative imaginary
axis, for test oracles.

G(y) = Im int sqrt(E - V) dx from the right turning point
x_t = E^(1/N) exp(-i eps pi/(4M + 2 eps)) to -i y, N = 2M + eps, along the
straight segment.  With x = x_t + (-i y - x_t) w^2 the integrand is
sqrt(E - V) 2 (-i y - x_t) w, which vanishes linearly at w = 0 and is
smooth there: the square root of the simple zero of E - V at x_t is taken
into the substitution, and a composite Gauss-Legendre rule in w converges
at its full order.  The branch of the root is tracked along the rule's
nodes from the principal root at -i y (where V = (-1)^M y^N is real and
E - V > 0 below the turning radius r_t), and the zero of G is bisected
inside (0, r_t).  Oracle use only: it imports nothing from ptwell, so it
shares no code with the solver it checks, which finds the same height from
a closed form.
"""

from __future__ import annotations

import math

import numpy as np

_X, _W = np.polynomial.legendre.leggauss(16)
PANELS = 64
# the rule's nodes and weights in w on [0, 1]
NODES = ((np.arange(PANELS)[:, None] + 0.5 * (_X + 1.0)) / PANELS).ravel()
WEIGHTS = np.tile(_W / (2.0 * PANELS), PANELS)


def _potential(x: np.ndarray, M: int, eps: float) -> np.ndarray:
    # principal branch: (ix)^eps = exp(eps Log(ix)), cut on the positive
    # imaginary axis
    return x ** (2 * M) * np.exp(eps * np.log(1j * x))


def action(M: int, eps: float, E: float, y: float) -> float:
    """G(y) on the branch continued along the nodes from -i y."""
    N = 2 * M + eps
    x_t = E ** (1.0 / N) * complex(math.cos(eps * math.pi / (4 * M + 2 * eps)),
                                   -math.sin(eps * math.pi / (4 * M + 2 * eps)))
    chord = -1j * y - x_t
    # w = 1 (-i y) first, then the nodes from the largest w down
    w = np.append(1.0, NODES[::-1])
    roots = np.sqrt(E - _potential(x_t + chord * w * w, M, eps))
    # a point takes the sign of the root of its predecessor nearer to it
    turned = np.abs(roots[1:] - roots[:-1]) > np.abs(roots[1:] + roots[:-1])
    roots[1:] *= np.cumprod(np.where(turned, -1.0, 1.0))
    total = 0j
    for wt, node, q in zip(WEIGHTS, NODES, roots[:0:-1]):
        total += wt * 2.0 * node * q
    return (total * chord).imag


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
