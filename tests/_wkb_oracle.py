"""Fourth-order WKB coefficients by contour integration, for test oracles.

With Q = V - E and y the log-derivative psi'/psi, the Riccati equation
y' + y^2 = Q expanded in hbar gives y0 = sqrt(Q), y1 = -Q'/(4Q) and the even
terms

    y2 = Q''/(8 Q^(3/2)) - 5 Q'^2/(32 Q^(5/2)),
    y4 = Q''''/(32 Q^(5/2)) - 7 Q' Q'''/(32 Q^(7/2)) - 19 Q''^2/(128 Q^(7/2))
         + 221 Q'^2 Q''/(256 Q^(9/2)) - 1105 Q'^4/(2048 Q^(11/2)),

and the rule (1/2i) closed-int (y0 + y2 + y4) dx = (k + 1/2) pi on a loop
around the two turning points (Bender & Orszag, Advanced Mathematical
Methods, 1978, sec. 10.7); y1 gives the 1/2, and the odd terms beyond it
are total derivatives.  The loop is the ellipse x = mid + half cos(theta +
i rho) whose foci are the turning points, and the integrals are taken by
the trapezoid rule in theta, which converges geometrically on a periodic
analytic integrand: rho is half the distance, in the same coordinates, to
the nearest other singularity (another zero of Q, or the branch point of V
at the origin when eps is not an integer), and 1 where there is none.
sqrt(Q) is tracked along the nodes, and every Q^(1/2 - n) is sqrt(Q)/Q^n
on that branch.  V is
homogeneous of degree N = 2M + eps, so Q^(j) = N (N - 1) .. (N - j + 1)
V/x^j, and the three terms scale as E^p, E^-p and E^-3p, p = 1/2 + 1/N:
the rule is a0 z + a2/z + a4/z^3 = nu pi in z = E^p, nu = k + 1/2, with
the a's the integrals at E = 1.  Solved to nu^-4, E = E0 (1 + eta + eta2).
Oracle use only: it imports nothing from ptwell, so it shares no code with
the closed form it checks.
"""

from __future__ import annotations

import mpmath

DPS = 30


def _potential(x, M: int, eps):
    # principal branch: (ix)^eps = exp(eps Log(ix)), cut on the positive
    # imaginary axis
    return x ** (2 * M) * mpmath.exp(eps * mpmath.log(1j * x))


def _singularities(M: int, eps) -> list:
    """The zeros of V - 1 other than the turning points, on the principal
    sheet, and the origin if V branches there."""
    N = 2 * M + eps
    phi = (mpmath.mpf(M) / N - mpmath.mpf(1) / 2) * mpmath.pi
    out = [] if eps == int(eps) else [mpmath.mpc(0)]
    for j in range(-int(N) - 1, int(N) + 2):
        ang = phi + 2 * mpmath.pi * j / N
        if j not in (0, -M) and -1.5 * mpmath.pi < ang <= 0.5 * mpmath.pi:
            out.append(mpmath.expj(ang))
    return out


def integrals(M: int, eps) -> tuple:
    """(a0, a2, a4): (1/2i) closed-int y dx of y0, y2 and y4 at E = 1, on the
    branch that makes a0 > 0."""
    with mpmath.workdps(DPS):
        eps = mpmath.mpf(eps)
        N = 2 * M + eps
        phi = (mpmath.mpf(M) / N - mpmath.mpf(1) / 2) * mpmath.pi
        x_r = mpmath.expj(phi)
        x_l = -mpmath.conj(x_r)
        mid, half = (x_l + x_r) / 2, (x_r - x_l) / 2
        rho = min((abs(mpmath.im(mpmath.acos((z - mid) / half)))
                   for z in _singularities(M, eps)), default=2) / 2
        n = int(2.5 * DPS / float(rho)) + 16
        totals = [mpmath.mpc(0)] * 3
        root = None
        for i in range(n):
            w = 2 * mpmath.pi * i / n + 1j * rho
            x, dx = mid + half * mpmath.cos(w), -half * mpmath.sin(w)
            v = _potential(x, M, eps)
            q = v - 1
            q1, q2 = N * v / x, N * (N - 1) * v / x ** 2
            q3 = N * (N - 1) * (N - 2) * v / x ** 3
            q4 = (N - 3) * q3 / x
            r = mpmath.sqrt(q)
            if root is not None and abs(r - root) > abs(r + root):
                r = -r
            root = r
            y2 = (q2 / (8 * q ** 2) - 5 * q1 ** 2 / (32 * q ** 3)) * r
            y4 = (q4 / (32 * q ** 3) - 7 * q1 * q3 / (32 * q ** 4)
                  - 19 * q2 ** 2 / (128 * q ** 4) + 221 * q1 ** 2 * q2 / (256 * q ** 5)
                  - 1105 * q1 ** 4 / (2048 * q ** 6)) * r
            for j, y in enumerate((r, y2, y4)):
                totals[j] += y * dx
        a = [t * 2 * mpmath.pi / n / 2j for t in totals]
        if mpmath.re(a[0]) < 0:
            a = [-t for t in a]
        return tuple(a)


def coefficients(M: int, eps) -> tuple:
    """(eta nu^2, eta2 nu^4) from integrals(M, eps).

    With z0 = nu pi/a0, z = z0 (1 + s) solves the rule to nu^-4 at
    s = -b2 - b2^2 - b4, b2 = a2/(a0 z0^2) and b4 = a4/(a0 z0^4), and
    E/E0 = (1 + s)^(1/p) = 1 + s/p + (1/p)(1/p - 1) s^2/2."""
    with mpmath.workdps(DPS):
        a0, a2, a4 = integrals(M, eps)
        p = mpmath.mpf(1) / 2 + 1 / (2 * M + mpmath.mpf(eps))
        # in units of nu: z0 = pi/a0 at nu = 1
        z0 = mpmath.pi / a0
        b2, b4 = a2 / (a0 * z0 ** 2), a4 / (a0 * z0 ** 4)
        eta = -b2 / p
        eta2 = (-b2 ** 2 - b4) / p + (1 / p) * (1 / p - 1) * b2 ** 2 / 2
        return eta, eta2
