"""Solves on a deliberately moved path, for testing what the check path
catches.

`solve` runs solve_level with the solve's own path built with its vertex at
s r_t in place of the turning point x_t, and shot the way _build_path shoots
a path (_shoot_path): one shot at E_ref gives the kept counts, u_ref and, on
_check_path of the moved path, u_check, which solve_level checks its roots
against.  Off the arch the moved chord loses the wanted solution to the
other one, so the solve may converge to a wrong root; the check path, on
another path to the same match point, should then refuse it.

Run as a script, it solves every level of SWEEP at default arguments and on
paths moved to s = 0.8, 0.9 and 1.2, prints the levels that come back wrong
by more than 1e-6 relative and those of them reported converged, and exits
with status 1 if there is one, or if an s leaves fewer than MIN_WRONG levels
wrong: a harness that no longer moves the path tests nothing:

    PYTHONPATH=src python tests/_sabotage.py
"""

from __future__ import annotations

import functools
import logging
import sys
from unittest import mock

import ptwell.shooting as shooting
from ptwell.geometry import ModelSpec, turning_radius, wedge_angles

SWEEP = [(M, eps, k) for M in (1, 2, 3, 4)
         for eps in (0.0, 2.0, 8.0, 18.0, 28.0, 38.0, 48.0, 58.0)
         for k in [*range(0, 29, 2), 29]]
MIN_WRONG = 50      # each s leaves 98 to 247 of the sweep wrong


def moved_path(model: ModelSpec, E_ref: float, radius_factor: float, rtol: float,
               s: float) -> shooting._Path:
    """_build_path's path for E_ref, with its vertex at s r_t."""
    R = shooting._ray_radius(model, E_ref, radius_factor, rtol)
    return shooting._shoot_path(model, shooting._Path(
        E_ref, shooting.match_height(model, E_ref), s * turning_radius(model, E_ref),
        wedge_angles(model).theta_right, R, (0, 0)), rtol)


def solve(model: ModelSpec, k: int, s: float) -> shooting.EigenResult:
    """solve_level at default arguments, on paths whose vertex is s r_t."""
    with mock.patch.object(shooting, "_build_path", functools.partial(moved_path, s=s)):
        return shooting.solve_level(model, k)


def caught(levels: dict, s: float) -> tuple[list, list]:
    """(wrong, missed) among `levels`, {(M, eps, k): E at default arguments},
    solved on paths whose vertex is s r_t: the levels more than 1e-6 |E|
    off, and those of them reported converged."""
    wrong, missed = [], []
    for (M, eps, k), E in levels.items():
        res = solve(ModelSpec(M, eps), k, s)
        if abs(res.E - E) > 1e-6 * E:
            wrong.append((M, eps, k))
            if res.converged:
                missed.append((M, eps, k))
    return wrong, missed


if __name__ == "__main__":
    logging.disable(logging.WARNING)
    levels = {(M, eps, k): shooting.solve_level(ModelSpec(M, eps), k).E.real
              for M, eps, k in SWEEP}
    failed = False
    for s in (0.8, 0.9, 1.2):
        wrong, miss = caught(levels, s)
        print(f"s = {s}: {len(wrong)} of {len(levels)} wrong, missed {miss}")
        failed |= bool(miss) or len(wrong) < MIN_WRONG
    sys.exit(1 if failed else 0)
