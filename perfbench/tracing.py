"""Tracing for the per-layer run: spans and counts at ptwell's name bindings.

`Tracer.install` replaces every public function bound in a ptwell module
namespace with a wrapper, at the binding where the calling module looks it
up: `ptwell.shooting.potential_value` and `ptwell.wkb.potential_value` are
wrapped separately, so calls are attributed to the caller.  A wrapper keeps
a span (function, start, end, parent span, item) in memory; functions in
COUNT_ONLY, called ~10^4 times per item, are counted and not timed.  Spans
are recorded only while an item runs, so reference checks are not traced.

A layer is the module that defines the function.  Self time is a span's
duration minus the spans it directly contains.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import inspect
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "shooting", "geometry", "wkb", "limit", "specfun",
          "extrapolation", "classical")
COUNT_ONLY = {"geometry.potential_value"}

# Functions the per-layer metrics read; one that a later version of the
# package no longer has is reported absent and its metrics read 0.
REFERENCED = (
    "shooting.solve_level", "shooting.match_height", "shooting.default_seed",
    "shooting.scan_levels", "geometry.potential_value",
    "geometry.turning_radius", "geometry.wedge_angles",
    "wkb.wkb_energy_quadrature", "wkb.action_integral",
    "wkb.wkb_energy_closed", "limit.limit_wavefunction",
    "limit.boundary_log_decay", "limit.scaled_ode_residual",
    "specfun.gamma_fn", "extrapolation.richardson", "classical.period_exact",
)

SOURCE_FILES = ("__init__", "classical", "cli", "extrapolation", "geometry",
                "limit", "shooting", "specfun", "wkb")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[tuple[str, str], list[int]] = {}
        self.solves: list[tuple] = []   # (k, iterations, converged, residual)
        self.item: str | None = None
        self.found: set[str] = set()

    def install(self) -> None:
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"ptwell.{layer}")
            except ModuleNotFoundError:
                continue
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("ptwell.")):
                    continue
                key = f"{obj.__module__.removeprefix('ptwell.')}.{obj.__name__}"
                self.found.add(key)
                setattr(module, name, self._wrap(obj, key, layer))

    def absent(self) -> list[str]:
        return [key for key in REFERENCED if key not in self.found]

    def _wrap(self, fn, key: str, binding: str):
        cell = self.counters.setdefault((binding, key), [0])
        if key in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.item is not None:
                    cell[0] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self.stack
        solves = self.solves if key == "shooting.solve_level" else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            item = self.item
            if item is None:
                return fn(*args, **kwargs)
            cell[0] += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (key, start, end, parent, item)
            if solves is not None:
                solves.append((result.k, result.iterations, result.converged,
                               result.residual))
            return result
        return timed

    def calls(self, key: str, binding: str | None = None) -> int:
        return sum(cell[0] for (b, k), cell in self.counters.items()
                   if k == key and binding in (None, b))

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (key, start, end, _, _) in enumerate(self.spans):
            out[key] += (end - start) - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [list(s) for s in self.spans],
            "calls": {f"{b}:{k}": c[0] for (b, k), c in self.counters.items()},
            "solves": [list(s) for s in self.solves],
            "absent": self.absent(),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def potential_probe(potential_value, model_spec, points: int = 1000,
                    repeats: int = 100) -> tuple[float, int]:
    """ns per call of potential_value on fixed points of the right decay ray,
    median over repeats, averaged over (M, eps) = (1, 8) and (2, 56);
    (0, 0) if the function is gone."""
    if potential_value is None:
        return 0.0, 0
    per_config = []
    calls = 0
    for M, eps in ((1, 8.0), (2, 56.0)):
        model = model_spec(M, eps)
        ray = cmath.exp(-1j * eps * math.pi / (4.0 * M + 2.0 * eps + 4.0))
        xs = [(0.05 + 3.0 * j / points) * ray for j in range(points)]
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for x in xs:
                potential_value(model, x)
            samples.append((time.perf_counter() - start) / points)
            calls += points
        per_config.append(statistics.median(samples))
    return 1e9 * statistics.fmean(per_config), calls


def layer_metrics(tr: Tracer, passes: int, max_iter: int | None,
                  speed: float) -> dict[str, float]:
    """Per-layer metrics, per traced pass over the workload's items; self
    times are multiplied by `speed`, the traced passes' scaled/raw ratio."""
    selfs = {k: v * speed for k, v in tr.self_times().items()}

    def calls(key, binding=None):
        return tr.calls(key, binding) / passes

    def self_s(key):
        return selfs.get(key, 0.0) / passes

    def prefixed_s(prefix):
        return sum(v for k, v in selfs.items() if k.startswith(prefix)) / passes

    def prefixed_calls(prefix):
        return sum(c[0] for (_, k), c in tr.counters.items()
                   if k.startswith(prefix)) / passes

    solves = calls("shooting.solve_level")
    iters = sum(s[1] for s in tr.solves)
    wasted = sum(s[1] for s in tr.solves if not s[2])
    failed = {"max_iter": 0, "pt_reality": 0, "integration": 0}
    for _, iterations, converged, residual in tr.solves:
        if converged:
            continue
        if math.isinf(residual):
            failed["integration"] += 1
        elif iterations == max_iter:
            failed["max_iter"] += 1
        else:
            failed["pt_reality"] += 1
    pot_shooting = calls("geometry.potential_value", "shooting")
    m = {
        "shooting.solve_calls": solves,
        "shooting.solve_self_s": self_s("shooting.solve_level"),
        "shooting.secant_iters": iters / passes,
        "shooting.iters_per_solve": iters / passes / solves if solves else 0.0,
        "shooting.match_height_calls": calls("shooting.match_height"),
        "shooting.match_height_s": self_s("shooting.match_height"),
        "shooting.seed_calls": calls("shooting.default_seed"),
        "shooting.seed_s": self_s("shooting.default_seed"),
        "shooting.scan_self_s": self_s("shooting.scan_levels"),
        "shooting.wasted_iter_frac": wasted / iters if iters else 0.0,
        "geometry.potential_calls.shooting": pot_shooting,
        "geometry.potential_calls.wkb": calls("geometry.potential_value", "wkb"),
        "geometry.potential_calls_per_solve": pot_shooting / solves if solves else 0.0,
        "geometry.turning_radius_calls": calls("geometry.turning_radius"),
        "geometry.wedge_angles_calls": calls("geometry.wedge_angles"),
        "wkb.quadrature_calls": calls("wkb.wkb_energy_quadrature"),
        "wkb.quadrature_s": self_s("wkb.wkb_energy_quadrature"),
        "wkb.action_calls": calls("wkb.action_integral"),
        "wkb.action_s": self_s("wkb.action_integral"),
        "wkb.closed_calls": calls("wkb.wkb_energy_closed"),
        "limit.wavefunction_calls": calls("limit.limit_wavefunction"),
        "limit.wavefunction_s": self_s("limit.limit_wavefunction"),
        "limit.decay_s": self_s("limit.boundary_log_decay"),
        "limit.ode_residual_s": self_s("limit.scaled_ode_residual"),
        "specfun.bessel_calls": prefixed_calls("specfun.bessel"),
        "specfun.bessel_s": prefixed_s("specfun.bessel"),
        "specfun.gamma_calls": calls("specfun.gamma_fn"),
        "extrapolation.richardson_s": self_s("extrapolation.richardson"),
        "classical.period_s": self_s("classical.period_exact"),
        "cli.self_s": prefixed_s("cli."),
    }
    for reason, n in failed.items():
        m[f"shooting.failed.{reason}"] = n / passes
    return m


def source_lines(src: Path) -> dict[str, float]:
    """Line count of each package source file (0 once a file is gone)."""
    out = {}
    for name in SOURCE_FILES:
        path = src / "ptwell" / f"{name}.py"
        lines = len(path.read_text().splitlines()) if path.is_file() else 0
        out[f"{name.strip('_')}.src_lines"] = float(lines)
    return out
