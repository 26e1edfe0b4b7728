"""Double-precision special functions over scipy.special.

Provides the Bessel functions I_nu, K_nu, J_nu, Y_nu of real order and
complex argument, exponentially scaled variants, and "log-argument" entry
points that evaluate the analytic continuation off the principal sheet.

Principal-sheet values come from scipy's iv/kv/jv/yv and ive/kve (Amos'
algorithm, ACM TOMS 12 (1986) 265).  A log-argument t = log w names a point
on the Riemann surface of log; it is written as w0 e^(m pi i) with w0 in the
right half-plane, and the rotation identities (DLMF 10.11.1-2, 10.34.1-2)

    K_nu(w0 e^(m pi i)) = e^(-m nu pi i) K_nu(w0)
                          - pi i sin(m nu pi)/sin(nu pi) I_nu(w0),
    J_nu(w0 e^(m pi i)) = e^(m nu pi i) J_nu(w0),
    Y_nu(w0 e^(m pi i)) = e^(-m nu pi i) Y_nu(w0)
                          + 2i sin(m nu pi) cot(nu pi) J_nu(w0)

carry the principal values there.  All functions are pure.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special

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


def _finite(value: complex, name: str) -> complex:
    if not cmath.isfinite(value):
        raise OverflowError(f"{name} overflow; use the scaled variant")
    return value


# ---------------------------------------------------------------------------
# public principal-sheet evaluations
# ---------------------------------------------------------------------------

def bessel_I(nu: float, w: complex) -> complex:
    """Modified Bessel function I_nu(w), real order nu >= 0, complex w."""
    w = _check_arg(w)
    if nu < 0:
        raise SpecialFunctionError("order must be non-negative")
    return _finite(complex(special.iv(nu, w)), "I_nu")


def bessel_I_scaled(nu: float, w: complex) -> complex:
    """I_nu(w) * exp(-Re w): overflow-safe along the growth direction."""
    w = _check_arg(w)
    # scipy's ive scales by exp(-|Re w|)
    return complex(special.ive(nu, w)) * math.exp(abs(w.real) - w.real)


def bessel_K(nu: float, w: complex) -> complex:
    """Modified Bessel function K_nu(w), w != 0."""
    return _finite(complex(special.kv(nu, _check_arg(w, "K_nu"))), "K_nu")


def bessel_K_scaled(nu: float, w: complex) -> complex:
    """K_nu(w) * exp(+Re w): underflow-safe for large positive Re w."""
    w = _check_arg(w, "K_nu")
    # scipy's kve scales by exp(+w)
    return complex(special.kve(nu, w)) * cmath.exp(-1j * w.imag)


def bessel_J(nu: float, w: complex) -> complex:
    """Ordinary Bessel function J_nu(w)."""
    return complex(special.jv(nu, _check_arg(w)))


def bessel_Y(nu: float, w: complex) -> complex:
    """Ordinary Bessel function Y_nu(w), w != 0."""
    return complex(special.yv(nu, _check_arg(w, "Y_nu")))


def bessel_I_prime(nu: float, w: complex) -> complex:
    """d/dw I_nu(w) = (I_{nu-1}(w) + I_{nu+1}(w)) / 2."""
    return complex(special.ivp(nu, _check_arg(w)))


def bessel_K_prime(nu: float, w: complex) -> complex:
    """d/dw K_nu(w) = -(K_{nu-1}(w) + K_{nu+1}(w)) / 2, w != 0."""
    return complex(special.kvp(nu, _check_arg(w, "K_nu")))


# ---------------------------------------------------------------------------
# log-argument entry points: continuation off the principal sheet
# ---------------------------------------------------------------------------

def _sheet(t: complex) -> tuple[complex, int]:
    """(w0, m) with e^t = w0 e^(m pi i) and |arg w0| <= pi/2."""
    t = _check_arg(t)
    m = round(t.imag / math.pi)
    return cmath.exp(complex(t.real, t.imag - m * math.pi)), m


def _connection_ratio(nu: float, m: int) -> float:
    """sin(m nu pi) / sin(nu pi), non-integer nu only."""
    s = math.sin(nu * math.pi)
    if abs(s) < 1e-12:
        raise SpecialFunctionError("connection formula requires non-integer order")
    return math.sin(m * nu * math.pi) / s


def bessel_J_logw(nu: float, t: complex) -> complex:
    """J_nu(e^t) on the sheet of log named by the log-argument t."""
    w0, m = _sheet(t)
    return cmath.exp(1j * m * nu * math.pi) * complex(special.jv(nu, w0))


def bessel_K_logw(nu: float, t: complex) -> complex:
    """K_nu(e^t) on the sheet named by t, non-integer nu only."""
    w0, m = _sheet(t)
    ratio = _connection_ratio(nu, m)
    return (cmath.exp(-1j * m * nu * math.pi) * complex(special.kv(nu, w0))
            - 1j * math.pi * ratio * complex(special.iv(nu, w0)))


def bessel_Y_logw(nu: float, t: complex) -> complex:
    """Y_nu(e^t) on the sheet named by t, non-integer nu only."""
    w0, m = _sheet(t)
    ratio = _connection_ratio(nu, m)
    return (cmath.exp(-1j * m * nu * math.pi) * complex(special.yv(nu, w0))
            + 2j * ratio * math.cos(nu * math.pi) * complex(special.jv(nu, w0)))
