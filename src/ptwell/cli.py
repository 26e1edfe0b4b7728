"""Command-line front end: single solves, golden tables, level curves.

Subcommands
-----------
eigen    one shooting solve (M, epsilon, k)
wkb      WKB estimate (closed Gamma-function form, optionally second or
         fourth order)
limit    the solvable-limit spectrum nu = k + P/(M+1)
table    golden tables 1-3 (ground-level deformation scans + extrapolants)
figure1  level curves E_k(epsilon) for M = 1
period   classical complex-pendulum period

Tables are emitted as CSV with 5-decimal cells mirroring the reference
layout (including blank leading extrapolant cells) so golden-file diffs are
trivial; JSON output carries full precision.  Exit status is 0 only if all
requested solves converged.

Table row labels follow the reference tables' convention label = 2M + eps - 2
(the total potential power minus 2): for M = 1 the label is the deformation
itself, for M = 2 the model solved at row label L is ModelSpec(2, L - 2).
The tabulated F column uses the refined map F = E^((eps+2M+2)/(eps+2M)) /
(eps+2)^2 and the extrapolants accelerate in the true 1/eps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

from .classical import period_asymptotic, period_exact
from .extrapolation import richardson, subtract_leading
from .geometry import ModelSpec
from .limit import F_of_eps, nu_spectrum
from .shooting import DEFAULT_RTOL, DEFAULT_TOL, EigenResult, scan_levels, solve_level
from .wkb import wkb_energy_closed, wkb_energy_fourth, wkb_energy_next

TABLE_GRID = (8.0, 18.0, 28.0, 38.0, 48.0, 58.0)
MAX_FIGURE1_POINTS = 10_001     # eps = 0..10 in steps of 1e-3


@dataclass
class TableResult:
    table_id: int
    labels: list[float]
    E0: list[float]
    columns: dict[str, list[float | None]] = field(default_factory=dict)
    all_converged: bool = True


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def format_csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _cell(v: float | None) -> str:
    return "" if v is None else f"{v:.5f}"


def table_csv_rows(result: TableResult) -> list[list[str]]:
    names = list(result.columns)
    rows = [["epsilon", "E0"] + names]
    for i, lab in enumerate(result.labels):
        row = [f"{lab:g}", f"{result.E0[i]:.5f}"]
        row += [_cell(result.columns[name][i]) for name in names]
        rows.append(row)
    return rows


def _pad(col: list[float], total: int) -> list[float | None]:
    return [None] * (total - len(col)) + list(col)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_table(table_id: int, tol: float = DEFAULT_TOL,
              rtol: float = DEFAULT_RTOL) -> TableResult:
    """Ground-level deformation scan with the extrapolant columns.

    Tables 1 and 2 list E0, F, R1, R2 for M = 1 and M = 2; table 3 lists the
    leading-behavior-subtracted column R0 = (F - 1/16) eps and its
    extrapolants for M = 1.  Raises ValueError for any other table_id.
    """
    if table_id not in (1, 2, 3):
        raise ValueError("table_id must be 1, 2 or 3")
    M = 2 if table_id == 2 else 1
    labels = list(TABLE_GRID)
    eps_true = [lab - (2 * M - 2) for lab in labels]
    results: list[EigenResult] = []
    for eps in eps_true:
        results.append(solve_level(ModelSpec(M, eps), 0, tol=tol, rtol=rtol))
    ok = all(r.converged for r in results)
    E0 = [r.E for r in results]
    fvals = [F_of_eps(e, ep, M) for e, ep in zip(E0, eps_true)]
    if table_id in (1, 2):
        raw = fvals
        cols = {"F": [v for v in fvals]}
    else:
        raw = subtract_leading(eps_true, fvals, 1.0 / 16.0)
        cols = {"R0": list(raw)}
    cols["R1"] = _pad(richardson(eps_true, raw, 1), len(labels))
    cols["R2"] = _pad(richardson(eps_true, raw, 2), len(labels))
    return TableResult(table_id=table_id, labels=labels, E0=E0,
                       columns=cols, all_converged=ok)


def run_figure1(eps_max: float, k_max: int, step: float,
                tol: float = DEFAULT_TOL, rtol: float = DEFAULT_RTOL):
    """Level curves (epsilon, E_k) for M = 1 on a uniform deformation grid,
    eps = i step for i = 0, 1, ... up to eps_max (within 1e-12), at most
    MAX_FIGURE1_POINTS points.

    Returns (curves, failures, all_converged); failed points leave gaps in
    the curves and are listed in failures.
    """
    if not 0.0 < step < math.inf:
        raise ValueError("step must be finite and positive")
    if not 0.0 <= eps_max <= 10.0:
        raise ValueError("eps_max must lie in [0, 10] (desk-scale scans)")
    span = (eps_max + 1e-12) / step
    if not span < MAX_FIGURE1_POINTS:
        raise ValueError(f"step gives more than {MAX_FIGURE1_POINTS} grid points "
                         "(desk-scale scans)")
    grid = [round(i * step, 12) for i in range(math.floor(span) + 1)]
    models = [ModelSpec(1, eps) for eps in grid]
    results = scan_levels(models, k_max, tol=tol, rtol=rtol)
    curves: dict[int, list[tuple[float, float]]] = {k: [] for k in range(k_max + 1)}
    failures = []
    for i, model in enumerate(models):
        for res in results[i * (k_max + 1):(i + 1) * (k_max + 1)]:
            if res.converged:
                curves[res.k].append((model.epsilon, res.E))
            else:
                failures.append({"epsilon": model.epsilon, "k": res.k})
    return curves, failures, not failures


def run_eigen(args: argparse.Namespace):
    model = ModelSpec(args.M, args.epsilon)
    res = solve_level(model, args.k, tol=args.tol, rtol=args.rtol,
                      radius_factor=args.radius_factor)
    payload = {
        "model": {"M": model.M, "epsilon": model.epsilon},
        "results": [{
            "k": res.k,
            "E": res.E,
            "E_imag": 0.0,      # E is real; kept for format stability
            "residual": res.residual,
            "iterations": res.iterations,
            "converged": res.converged,
        }],
    }
    return payload, res.converged


def run_wkb(args: argparse.Namespace):
    energy = {1: wkb_energy_closed, 2: wkb_energy_next, 4: wkb_energy_fourth}[args.order]
    payload = {
        "model": {"M": args.M, "epsilon": args.epsilon},
        "results": [{"k": args.k, "order": args.order,
                     "E": energy(args.k, args.epsilon, args.M)}],
    }
    return payload, True


def run_limit(args: argparse.Namespace):
    levels = nu_spectrum(args.M, args.k_max)
    payload = {
        "model": {"M": args.M},
        "levels": [{"k": lv.k, "P": lv.P, "nu": lv.nu, "F": lv.F}
                   for lv in levels],
    }
    return payload, True


def run_period(args: argparse.Namespace):
    res = period_exact(args.epsilon, args.E)
    payload = {
        "epsilon": args.epsilon,
        "E": args.E,
        "T": res.T,
        "ET_product": res.ET_product,
    }
    if args.epsilon > 0.0:
        payload["T_asymptotic"] = period_asymptotic(args.epsilon, args.E)
    return payload, True


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _flat_csv(payload: dict) -> list[list[str]]:
    """Single-result payloads as a header row plus one row per entry."""
    if "results" in payload or "levels" in payload:
        key = "results" if "results" in payload else "levels"
        entries = payload[key]
        header = list(entries[0])
        rows = [header]
        for e in entries:
            rows.append([repr(e[h]) if isinstance(e[h], float) else str(e[h])
                         for h in header])
        return rows
    header = list(payload)
    return [header, [repr(payload[h]) if isinstance(payload[h], float)
                     else str(payload[h]) for h in header]]


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args fills a new
    namespace on every call."""
    p = argparse.ArgumentParser(
        prog="ptwell",
        description="Spectra of H = p^2 + x^(2M)(ix)^eps: shooting, WKB, "
                    "solvable limit, golden tables.")
    sub = p.add_subparsers(dest="command", required=True)

    def output(sp, fmt_default):
        sp.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        sp.add_argument("--output", default=None, help="output path (default stdout)")

    def tolerances(sp):
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="Newton convergence tolerance (relative dE)")
        sp.add_argument("--rtol", type=float, default=DEFAULT_RTOL,
                        help="integrator relative tolerance")

    sp = sub.add_parser("eigen", help="one shooting solve")
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--k", type=int, default=0)
    tolerances(sp)
    sp.add_argument("--radius-factor", type=float, default=1.0,
                    help="outer-radius multiplier (discretization checks)")
    output(sp, "json")

    sp = sub.add_parser("wkb", help="WKB estimate")
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--order", type=int, choices=(1, 2, 4), default=1)
    output(sp, "json")

    sp = sub.add_parser("limit", help="solvable-limit spectrum")
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--k-max", type=int, default=0)
    output(sp, "json")

    sp = sub.add_parser("table", help="golden table 1, 2, or 3")
    sp.add_argument("--id", type=int, choices=(1, 2, 3), required=True)
    tolerances(sp)
    output(sp, "csv")

    sp = sub.add_parser("figure1", help="level curves for M = 1")
    sp.add_argument("--eps-max", type=float, default=4.0)
    sp.add_argument("--k-max", type=int, default=2)
    sp.add_argument("--step", type=float, default=1.0)
    tolerances(sp)
    output(sp, "csv")

    sp = sub.add_parser("period", help="classical period")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--E", type=float, default=1.0)
    output(sp, "json")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "table":
            result = run_table(args.id, args.tol, args.rtol)
            if args.format == "csv":
                text = format_csv(table_csv_rows(result))
            else:
                text = dumps_json({
                    "table_id": result.table_id,
                    "labels": result.labels,
                    "E0": result.E0,
                    **{name: col for name, col in result.columns.items()},
                })
            _emit(text, args.output)
            return 0 if result.all_converged else 1
        if args.command == "figure1":
            curves, failures, ok = run_figure1(args.eps_max, args.k_max, args.step,
                                               args.tol, args.rtol)
            if args.format == "csv":
                rows = [["k", "epsilon", "E"]]
                for k in sorted(curves):
                    for eps, E in curves[k]:
                        rows.append([str(k), f"{eps:g}", repr(E)])
                text = format_csv(rows)
            else:
                text = dumps_json({
                    "model": {"M": 1},
                    "curves": [{"k": k, "points": [[e, E] for e, E in pts]}
                               for k, pts in sorted(curves.items())],
                    "failures": failures,
                })
            _emit(text, args.output)
            return 0 if ok else 1
        runner = {"eigen": run_eigen, "wkb": run_wkb,
                  "limit": run_limit, "period": run_period}[args.command]
        payload, ok = runner(args)
        if args.format == "csv":
            text = format_csv(_flat_csv(payload))
        else:
            text = dumps_json(payload)
        _emit(text, args.output)
        return 0 if ok else 1
    except (ValueError, RuntimeError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
