"""Solves on a deliberately moved path, for testing what the check path
catches.

`solve` runs solve_level with the solve's own path built by _build_path and
its vertex then moved from the turning point x_t to s r_t, before the solve
shoots it (_shoot_path): one shot at E_ref gives the kept counts, u_ref and,
on _check_path of the moved path, the check verdict that solve_level judges
its roots by.  Off the arch the moved chord loses the wanted solution to
the other one, so the solve may converge to a wrong root; the check path, on
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
from dataclasses import replace
from unittest import mock

import ptwell.shooting as shooting
from ptwell.geometry import ModelSpec

SWEEP = [(M, eps, k) for M in (1, 2, 3, 4)
         for eps in (0.0, 2.0, 8.0, 18.0, 28.0, 38.0, 48.0, 58.0)
         for k in [*range(0, 29, 2), 29]]
MIN_WRONG = 50      # each s leaves 98 to 247 of the sweep wrong
_build_path = shooting._build_path      # unpatched: `solve` patches the module's name


def moved_path(model: ModelSpec, E_ref: float, radius_factor: float, rtol: float,
               s: float) -> shooting._Path:
    """_build_path's unshot path for E_ref, with its vertex moved to s r_t."""
    path = _build_path(model, E_ref, radius_factor, rtol)
    return replace(path, corner=s * path.corner)


def solve(model: ModelSpec, k: int, s: float, seed: float | None = None) -> shooting.EigenResult:
    """solve_level from `seed`, else at default arguments, on paths whose
    vertex is s r_t."""
    with mock.patch.object(shooting, "_build_path", functools.partial(moved_path, s=s)):
        return shooting.solve_level(model, k, seed)


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
    levels = {(M, eps, k): shooting.solve_level(ModelSpec(M, eps), k).E
              for M, eps, k in SWEEP}
    failed = False
    for s in (0.8, 0.9, 1.2):
        wrong, miss = caught(levels, s)
        print(f"s = {s}: {len(wrong)} of {len(levels)} wrong, missed {miss}")
        failed |= bool(miss) or len(wrong) < MIN_WRONG
    sys.exit(1 if failed else 0)
