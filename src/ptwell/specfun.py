"""Double-precision special functions over scipy.special.

Provides the exponentially scaled K_nu of real order and complex argument,
and a "log-argument" entry point for K_nu that evaluates its analytic
continuation off the principal sheet: every limit eigenfunction is one K
function there (see `ptwell.limit`).

Principal-sheet values come from scipy's iv/kv and kve (Amos' algorithm,
ACM TOMS 12 (1986) 265).  A log-argument t = log w names a point on the
Riemann surface of log; it is written as w0 e^(m pi i) with w0 in the
right half-plane, and the rotation identity (DLMF 10.34.2)

    K_nu(w0 e^(m pi i)) = e^(-m nu pi i) K_nu(w0)
                          - pi i sin(m nu pi)/sin(nu pi) I_nu(w0)

carries the principal values there.  All functions are pure.

scipy.special is imported on the first Bessel evaluation, not with this
module: only the limit wavefunctions evaluate a Bessel function, and the
import takes about 0.3 s and 25 MB of resident memory, two thirds of what
`import ptwell` took with it.  No `ptwell` command loads it.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

EULER_GAMMA = float(np.euler_gamma)


class SpecialFunctionError(ValueError):
    """Domain violation in a special-function evaluation."""


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x: math.gamma, with the poles as domain errors.

    Raises:
        SpecialFunctionError: at the poles x = 0, -1, -2, ...
    """
    if x <= 0.0 and x == math.floor(x):
        raise SpecialFunctionError(f"gamma pole at x = {x}")
    return math.gamma(x)


def _check_arg(w: complex, singular: str | None = None) -> complex:
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise SpecialFunctionError("non-finite argument")
    if singular is not None and w == 0:
        raise SpecialFunctionError(f"{singular} is singular at w = 0")
    return w


@functools.cache
def _special():
    """scipy.special, imported on the first call and bound from then on."""
    from scipy import special
    return special


def bessel_K_scaled(nu: float, w: complex) -> complex:
    """K_nu(w) * exp(+Re w): underflow-safe for large positive Re w."""
    w = _check_arg(w, "K_nu")
    # scipy's kve scales by exp(+w)
    return complex(_special().kve(nu, w)) * cmath.exp(-1j * w.imag)


# ---------------------------------------------------------------------------
# log-argument entry point: continuation off the principal sheet
# ---------------------------------------------------------------------------

def _sheet(t: complex) -> tuple[complex, int]:
    """(w0, m) with e^t = w0 e^(m pi i) and |arg w0| <= pi/2."""
    t = _check_arg(t)
    m = round(t.imag / math.pi)
    return cmath.exp(complex(t.real, t.imag - m * math.pi)), m


def _sin_pi(x: float) -> float:
    """sin(x pi), with x reduced to [-1/2, 1/2] first: exactly zero at
    integer x, where sin(x pi) would leave ~x 1e-16."""
    t = x - 2.0 * round(x / 2.0)
    if abs(t) > 0.5:
        t = math.copysign(1.0, t) - t
    return math.sin(math.pi * t)


def _connection_ratio(nu: float, m: int) -> float:
    """sin(m nu pi) / sin(nu pi), non-integer nu only.

    Exactly zero where m nu is an integer: there the I_nu term is absent,
    and a rounding residue times I_nu could swamp a decaying K_nu.
    """
    s = _sin_pi(nu)
    if abs(s) < 1e-12:
        raise SpecialFunctionError("connection formula requires non-integer order")
    return _sin_pi(m * nu) / s


def bessel_K_logw(nu: float, t: complex) -> complex:
    """K_nu(e^t) on the sheet named by t, non-integer nu only."""
    w0, m = _sheet(t)
    ratio = _connection_ratio(nu, m)
    special = _special()
    return (cmath.exp(-1j * m * nu * math.pi) * complex(special.kv(nu, w0))
            - 1j * math.pi * ratio * complex(special.iv(nu, w0)))
