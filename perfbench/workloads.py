"""The four benchmark workloads: seeded inputs, timed calls and checks.

A workload is a list of items.  Each item has a `run` callable, the only
code that is timed, which calls into ptwell through module attributes (so
the traced run sees the same calls), and a `check` that compares the
returned value with a reference from `reference.py`.  Checks are not timed.

Outcomes are "ok", "wrong" (finished but outside the stated tolerance of
its reference) and "failed" (did not converge, or raised).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from ptwell import classical, cli, extrapolation, geometry, limit, shooting, wkb

import reference as ref

# Stated tolerance for a shooting level against its reference: ten times
# the solver's default secant tolerance (|dE| <= 1e-9 |E|).
LEVEL_RTOL = 1e-8
CLOSED_FORM_RTOL = 1e-12
QUADRATURE_RTOL = 1e-8      # WKB quadrature root, as acceptance criterion 5
LIMIT_ODE_TOL = 1e-6        # limit wavefunction residual, as criterion 6
LIMIT_DIAGNOSTIC_TOL = 1e-5
F1_TOL = 1e-9
SCAN_KMAX = 5

OK, WRONG, FAILED = "ok", "wrong", "failed"
_RANK = {OK: 0, WRONG: 1, FAILED: 2}


@dataclass
class Outcome:
    status: str
    detail: str = ""
    shooting_rel_err: float = 0.0   # worst level error among converged solves


@dataclass
class Item:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Workload:
    name: str
    items: list[Item]
    note: str


def worst(outcomes: list[Outcome]) -> Outcome:
    top = max(outcomes, key=lambda o: _RANK[o.status])
    detail = "; ".join(o.detail for o in outcomes if o.status != OK)
    err = max(o.shooting_rel_err for o in outcomes)
    return Outcome(top.status, detail, err)


def _level_outcome(label: str, res, want: float) -> Outcome:
    if not res.converged:
        return Outcome(FAILED, f"{label} not converged (E={res.E:.9g}, "
                               f"{res.iterations} iterations)")
    err = abs(res.E.real - want) / abs(want)
    if err > LEVEL_RTOL:
        return Outcome(WRONG, f"{label} E={res.E.real:.10g} vs {want:.10g} "
                              f"(rel {err:.1e})", err)
    return Outcome(OK, "", err)


def _rel(got: float, want: float, tol: float, label: str) -> Outcome:
    err = abs(got - want) / max(abs(want), 1e-300)
    if not err <= tol:
        return Outcome(WRONG, f"{label} = {got:.12g} vs {want:.12g} (rel {err:.1e})")
    return Outcome(OK)


# ---------------------------------------------------------------------------
# golden-tables: the paper's three tables through the command line
# ---------------------------------------------------------------------------

def _table_item(table_id: int) -> Item:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["table", "--id", str(table_id), "--format", "json"])
        return status, out.getvalue()

    def check(result) -> Outcome:
        status, text = result
        if status != 0:
            return Outcome(FAILED, f"table {table_id}: exit status {status}")
        data = json.loads(text)
        labels = ref.GOLDEN_LABELS
        bad = []
        err = 0.0
        for col, want in ref.GOLDEN[table_id].items():
            got = [v for v in data[col] if v is not None]
            for lab, g, w in zip(labels[len(labels) - len(want):], got, want):
                if abs(g - w) > ref.GOLDEN_TOL:
                    bad.append(f"table {table_id} {col}({lab:g}) = {g:.7f} vs {w}")
                if col == "E0":
                    err = max(err, abs(g - w) / w)
        if table_id in ref.GOLDEN_LIMITS:
            r2 = data["R2"][-1]
            if abs(r2 - ref.GOLDEN_LIMITS[table_id]) > ref.GOLDEN_LIMIT_TOL:
                bad.append(f"table {table_id} R2(58) = {r2:.6f} vs its limit")
        return Outcome(WRONG if bad else OK, "; ".join(bad), err)

    return Item(f"table {table_id}", run, check)


def golden_tables(seed: int) -> Workload:
    return Workload("golden-tables", [_table_item(t) for t in (1, 2, 3)],
                    f"seed {seed} unused: the inputs are the paper's three tables")


# ---------------------------------------------------------------------------
# level-scan: continuation scans k = 0..5 on a seeded grid in [0, 4]
# ---------------------------------------------------------------------------

def _scan_item(M: int, grid: list[float]) -> Item:
    models = [geometry.ModelSpec(M, e) for e in grid]
    refs = [ref.level_reference(M, e, SCAN_KMAX + 1) for e in grid]

    def check(results) -> Outcome:
        outs = []
        for i, (eps, want) in enumerate(zip(grid, refs)):
            for res in results[i * (SCAN_KMAX + 1):(i + 1) * (SCAN_KMAX + 1)]:
                outs.append(_level_outcome(f"M={M} eps={eps:g} k={res.k}",
                                           res, want[res.k]))
        return worst(outs)

    key = f"scan M={M} eps=" + ",".join(f"{e:g}" for e in grid)
    return Item(key, lambda: shooting.scan_levels(models, SCAN_KMAX), check)


def level_scan(seed: int) -> Workload:
    rng = random.Random(seed)

    def low() -> float:
        return round(rng.uniform(0.25, 1.75), 3)

    def high() -> float:
        return round(rng.uniform(2.25, 3.75), 3)

    grids = [(1, [0.0, low()]), (1, [2.0, high()]), (2, [0.0, low()]),
             (2, [low(), high()])]
    return Workload("level-scan", [_scan_item(M, g) for M, g in grids],
                    "eps grid anchors 0 (M=1, 2) and 2 (M=1); seeded points "
                    "in [0.25, 1.75] and [2.25, 3.75]")


# ---------------------------------------------------------------------------
# high-levels: single solves at k = 8..28
# ---------------------------------------------------------------------------

# Fixed rather than seeded, because a seeded pick would move the metrics
# with the seed more than with the code: the failure-path probes, since a
# solve that does not converge costs up to three times more or less than
# its neighbour in k; and the M = 2 levels, since a converging solve's cost
# swings by 30% with the parity of k and the median item is one of them.
HIGH_FIXED = ((1, 2.0, 16), (1, 2.0, 24)) + tuple((2, 0.0, k) for k in range(8, 27, 3))


def _solve_item(M: int, eps: float, k: int, want: float) -> Item:
    model = geometry.ModelSpec(M, eps)
    label = f"M={M} eps={eps:g} k={k}"
    return Item(label, lambda: shooting.solve_level(model, k),
                lambda res: _level_outcome(label, res, want))


def high_levels(seed: int) -> Workload:
    rng = random.Random(seed)
    picks = [(1, 2.0, rng.randint(8, 10)), (1, 2.0, rng.randint(11, 14))]
    picks += list(HIGH_FIXED)
    rng.shuffle(picks)
    refs = {(M, eps): ref.hermitian_levels(M, eps, 29) for M, eps in
            ((2, 0.0), (1, 2.0))}
    items = [_solve_item(M, eps, k, float(refs[(M, eps)][k])) for M, eps, k in picks]
    return Workload("high-levels", items,
                    "seeded k in 8..10 and 11..14 at M=1, eps=2, and the order; "
                    "fixed k=8, 11, ..., 26 at M=2, eps=0 and failure probes "
                    "k=16, 24 at M=1, eps=2")


# ---------------------------------------------------------------------------
# limit-wkb: solvable limit, WKB, period, extrapolation; no shooting
# ---------------------------------------------------------------------------

_LIMIT_NU = {1: (0.5, 1.5, 2.5), 2: (1.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0)}


def _limit_item(i: int, M: int, nu: float, z: complex, y: float) -> Item:
    def psi(w):
        return limit.limit_wavefunction(M, nu, w)

    def run():
        return (psi(z), limit.scaled_ode_residual(M, nu * nu / 4.0, z, psi),
                limit.boundary_log_decay(M, nu, y),
                limit.quantization_residual(M, nu))

    def check(out) -> Outcome:
        value, diag, decay, qres = out
        label = f"limit M={M} nu={nu:.4g} z={z:.3f}"
        outs = []
        own = ref.limit_ode_residual(psi, M, nu, z)
        if not (math.isfinite(abs(value)) and own <= LIMIT_ODE_TOL):
            outs.append(Outcome(WRONG, f"{label}: residual {own:.1e}"))
        if not 0.0 <= diag <= LIMIT_DIAGNOSTIC_TOL:
            outs.append(Outcome(WRONG, f"{label}: diagnostic {diag:.1e}"))
        want = ref.boundary_log_decay(M, nu, y)
        if not abs(decay - want) <= 1e-10 * (1.0 + abs(want)):
            outs.append(Outcome(WRONG, f"{label}: decay {decay!r} vs {want!r}"))
        if not abs(qres) <= 1e-14:
            outs.append(Outcome(WRONG, f"{label}: quantization {qres:.1e}"))
        return worst(outs) if outs else Outcome(OK)

    return Item(f"limit {i}", run, check)


def _wkb_item(M: int, eps: float, k: int) -> Item:
    model = geometry.ModelSpec(M, eps)
    label = f"wkb M={M} eps={eps:g} k={k}"

    def run():
        quad = wkb.wkb_energy_quadrature(model, k)
        if M != 1:
            return quad, None, None
        return quad, wkb.wkb_energy_closed(k, eps), wkb.wkb_energy_next(k, eps)

    def check(out) -> Outcome:
        quad, closed, nxt = out
        lead = ref.wkb_leading(M, eps, k)
        outs = [_rel(quad, lead, QUADRATURE_RTOL, f"{label} quadrature")]
        if M == 1:
            outs += [_rel(closed, lead, CLOSED_FORM_RTOL, f"{label} closed"),
                     _rel(quad, closed, QUADRATURE_RTOL, f"{label} quadrature/closed"),
                     _rel(nxt, ref.wkb_next_m1(k, eps), CLOSED_FORM_RTOL,
                          f"{label} next")]
        return worst(outs)

    return Item(label, run, check)


def _period_item(i: int, eps: float, E: float) -> Item:
    return Item(f"period {i}", lambda: classical.period_exact(eps, E),
                lambda res: _rel(res.T, ref.classical_period(eps, E),
                                 CLOSED_FORM_RTOL, f"period eps={eps:g} E={E:g}"))


def _richardson_item(i: int, rng: random.Random) -> Item:
    order = rng.choice((1, 2))
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(order + 1)]
    grid = [2.0]
    for _ in range(order + 3):
        grid.append(grid[-1] + rng.uniform(1.0, 8.0))
    grid = grid[1:]
    values = [sum(c / e ** j for j, c in enumerate(coeffs)) for e in grid]

    def check(out) -> Outcome:
        # exact on a polynomial of degree `order` in 1/eps
        scale = max(1.0, abs(coeffs[0]))
        bad = [r for r in out if abs(r - coeffs[0]) > 1e-12 * scale]
        if bad or len(out) != len(grid) - order:
            return Outcome(WRONG, f"richardson order {order}: {bad} vs {coeffs[0]}")
        return Outcome(OK)

    return Item(f"richardson {i}",
                lambda: extrapolation.richardson(grid, values, order), check)


def _f1_item() -> Item:
    want = ref.EULER_GAMMA / 4.0
    return Item("f1 oracle", limit.f1_oracle,
                lambda got: _rel(got, want, F1_TOL, "f1_oracle"))


LIMIT_ITEMS = 1200
WKB_ITEMS = 450
# WKB inputs are drawn from a fixed grid, so that the outcome of every point
# at the baseline is known (baseline.json): eps = 0, 0.1, ..., 1, then 1.5,
# 2, ..., 58; k = 0..10; M = 1..3.
WKB_EPS = (tuple(round(0.1 * j, 1) for j in range(11))
           + tuple(1.5 + 0.5 * j for j in range(114)))
SMALL_ITEMS = 20


def limit_wkb(seed: int) -> Workload:
    rng = random.Random(seed)
    items = []
    for i in range(LIMIT_ITEMS):
        M = 1 + i % 2
        z = complex(rng.uniform(-1.25, 1.25), rng.uniform(-0.75, 0.15))
        items.append(_limit_item(i, M, rng.choice(_LIMIT_NU[M]), z,
                                 rng.uniform(0.0, 3.0)))
    per_m = WKB_ITEMS // 3
    for i in range(WKB_ITEMS):
        # eps stratified along the grid: the j-th item of each M falls in
        # the j-th of `per_m` equal stretches of it
        j = i // 3
        eps = WKB_EPS[int((j + rng.random()) * len(WKB_EPS) / per_m)]
        items.append(_wkb_item(1 + i % 3, eps, rng.randint(0, 10)))
    for i in range(SMALL_ITEMS):
        items.append(_period_item(i, round(rng.uniform(0.0, 58.0), 3),
                                  round(rng.uniform(0.5, 50.0), 3)))
        items.append(_richardson_item(i, rng))
    items.append(_f1_item())
    rng.shuffle(items)
    return Workload("limit-wkb", items,
                    f"{LIMIT_ITEMS} limit, {WKB_ITEMS} WKB, {SMALL_ITEMS} period "
                    f"and {SMALL_ITEMS} Richardson items, one f1 oracle")


WORKLOADS = {
    "golden-tables": golden_tables,
    "level-scan": level_scan,
    "high-levels": high_levels,
    "limit-wkb": limit_wkb,
}
