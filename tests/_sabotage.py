"""Solves on a deliberately moved path, for testing what the check path
catches.

`solve` runs solve_level with the solve's own path built with its vertex at
s r_t in place of the turning point x_t, the way _build_path builds a path:
each leg starts from _phase_count and the build's shot at E_ref gives the
kept counts and u_ref.  The check path is then _check_path of the moved
path.  Off the arch the moved chord loses the wanted solution to the other
one, so the solve may converge to a wrong root; the check path, on another
path to the same match point, should then refuse it.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from unittest import mock

import ptwell.shooting as shooting
from ptwell.geometry import ModelSpec, turning_radius, wedge_angles


def moved_path(model: ModelSpec, E_ref: float, radius_factor: float, rtol: float,
               s: float) -> shooting._Path:
    """_build_path's path for E_ref, with its vertex at s r_t."""
    R = shooting._ray_radius(model, E_ref, radius_factor, rtol)
    path = shooting._Path(E_ref, shooting.match_height(model, E_ref),
                          s * turning_radius(model, E_ref),
                          wedge_angles(model).theta_right, R, (0, 0))
    start = tuple(shooting._phase_count(q, length, rtol)
                  for q, length, _ in shooting._legs(model, E_ref, path))
    *u_ref, panels = shooting._shoot(model, E_ref, path, start, rtol)
    built = replace(path, panels=panels, u_ref=tuple(u_ref))
    built.v.update(path.v)
    return built


def solve(model: ModelSpec, k: int, s: float) -> shooting.EigenResult:
    """solve_level at default arguments, on paths whose vertex is s r_t."""
    with mock.patch.object(shooting, "_build_path", functools.partial(moved_path, s=s)):
        return shooting.solve_level(model, k)
