"""Classical period of the complex pendulum (M = 1 family).

The classical motion of H = p^2 + x^2 (ix)^eps is periodic with

    T = 4 sqrt(pi) E^(-eps/(4+2 eps))
        Gamma((3+eps)/(2+eps)) cos(eps pi/(4+2 eps)) / Gamma((4+eps)/(4+2 eps)),

which is 2 pi for every E at eps = 0 and behaves as 4 pi/(eps sqrt(E)) for
large deformation.  The product E T serves as an order-one uncertainty
diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import gamma_fn


@dataclass(frozen=True)
class PeriodResult:
    T: float
    ET_product: float


def period_exact(epsilon: float, E: float) -> PeriodResult:
    """Exact period of the complex pendulum at energy E (M = 1 only).

    Raises:
        ValueError: for E that is not finite and positive, or epsilon that
            is not finite and >= 0.
    """
    if not 0.0 < E < math.inf:
        raise ValueError("E must be finite and positive")
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    T = (4.0 * math.sqrt(math.pi)
         * E ** (-epsilon / (4.0 + 2.0 * epsilon))
         * gamma_fn((3.0 + epsilon) / (2.0 + epsilon))
         * math.cos(epsilon * math.pi / (4.0 + 2.0 * epsilon))
         / gamma_fn((4.0 + epsilon) / (4.0 + 2.0 * epsilon)))
    return PeriodResult(T=T, ET_product=E * T)


def period_asymptotic(epsilon: float, E: float) -> float:
    """Large-deformation period, 4 pi / (eps sqrt(E))."""
    if not (0.0 < E < math.inf and 0.0 < epsilon < math.inf):
        raise ValueError("need finite E > 0 and epsilon > 0")
    return 4.0 * math.pi / (epsilon * math.sqrt(E))
