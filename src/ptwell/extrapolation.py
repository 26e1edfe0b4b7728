"""Richardson extrapolation in inverse powers of the deformation.

A sequence V(eps) = c0 + c1/eps + c2/eps^2 + ... sampled on an increasing
grid is accelerated by evaluating, at 1/eps = 0, the degree-m polynomial in
1/eps through the m+1 samples ending at each grid point (sliding Neville
windows).  Order 1 reduces to (eps_n V_n - eps_{n-1} V_{n-1}) / (eps_n -
eps_{n-1}); order m is exact on sequences that are degree-m polynomials in
1/eps.
"""

from __future__ import annotations

import math
from typing import Sequence


def _neville_at_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    xs = list(xs)
    p = list(ys)
    n = len(xs)
    for m in range(1, n):
        for i in range(n - m):
            p[i] = (xs[i + m] * p[i] - xs[i] * p[i + 1]) / (xs[i + m] - xs[i])
    return p[0]


def richardson(epsilons: Sequence[float], values: Sequence[float],
               order: int = 1) -> list[float]:
    """Order-m extrapolants on sliding windows ending at each grid point.

    Entry j corresponds to grid point j + order (the first `order` grid
    points have no window); the returned list has len(values) - order
    entries.

    Raises:
        ValueError: if fewer than order + 1 samples are supplied, or unless
            the grid is finite, positive and strictly increasing (a nan is
            rejected).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(values) != len(epsilons):
        raise ValueError("values and epsilons lengths differ")
    if len(values) < order + 1:
        raise ValueError(f"need at least {order + 1} points for order {order}")
    if not all(0.0 < a < b < math.inf for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("epsilons must be finite, positive and strictly increasing")
    out = []
    for n in range(order, len(values)):
        xs = [1.0 / epsilons[j] for j in range(n - order, n + 1)]
        ys = [values[j] for j in range(n - order, n + 1)]
        out.append(_neville_at_zero(xs, ys))
    return out


def subtract_leading(epsilons: Sequence[float], values: Sequence[float],
                     f0: float) -> list[float]:
    """(values[n] - f0) * epsilons[n]: isolates the 1/eps coefficient."""
    if len(values) != len(epsilons):
        raise ValueError("values and epsilons lengths differ")
    return [(v - f0) * e for v, e in zip(values, epsilons)]
