"""ptwell benchmark: one workload, one closed-loop caller, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  The
workload's items run one after another in this process; the next item
starts only when the previous one has returned.  Passes over the item list
repeat while the next pass is predicted to end within --seconds (at least
one pass).  Before the passes, `setup_s` times a fresh interpreter
importing ptwell, several times.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, untraced.
--trace 1 spends half the time on untraced passes and half on passes with
every ptwell function wrapped (see tracing.py), and reports the per-layer
metrics; the spans are written to .perfbench_out/.

Every line but the last is for people; the last is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  `correct` is false when an
item whose recorded baseline outcome (baseline.json) is "ok" comes out
wrong or failed.  Items with a known defect at the baseline still count in
fail_frac, wrong_frac and `failed`.  A reference that disagrees with itself
stops the run with exit status 3 and no result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PT_WELL_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
LISTED = 10   # outcome details printed per kind


def measure_setup() -> list[tuple[float, float]]:
    """(raw, scaled) seconds for a fresh interpreter to import ptwell; one
    untimed warm-up (byte-code compilation), then SETUP_REPEATS imports,
    each timed and speed-sampled inside the child (import_probe.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, str(HERE / "import_probe.py")],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            raw, scaled = map(float, proc.stdout.split()[-2:])
            times.append((raw, scaled))
    return times


def run_item(item, tracer, tag: str):
    """Run one item; returns (result, Outcome or None when it returned)."""
    from workloads import FAILED, Outcome

    if tracer is not None:
        tracer.item = tag
    try:
        return item.run(), None
    except Exception as exc:  # an item that raises is a failed item
        return None, Outcome(FAILED, f"{item.key} raised "
                                     f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.item = None


def check_item(item, result):
    from workloads import WRONG, Outcome

    try:
        return item.check(result)
    except Exception:
        return Outcome(WRONG, f"{item.key}: unreadable result\n"
                              + traceback.format_exc())


def run_passes(workload, budget: float, tracer=None) -> list[list[tuple]]:
    """Closed loop over the items; returns per pass a list of
    (key, raw seconds, scaled seconds, Outcome)."""
    marks = []
    start = time.perf_counter()
    with speed.Sampler() as sampler:
        while True:
            records = []
            for i, item in enumerate(workload.items):
                begin = sampler.mark()
                result, outcome = run_item(item, tracer, f"{len(marks)}:{i}")
                end = sampler.mark()
                records.append((item.key, begin, end,
                                outcome or check_item(item, result)))
            marks.append(records)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(marks) > budget:
                break
    return [[(key, *sampler.timed(begin, end), outcome)
             for key, begin, end, outcome in records] for records in marks]


def speed_ratio(timings) -> float:
    """Scaled over raw time of a list of (raw, scaled) timings."""
    return sum(t[1] for t in timings) / sum(t[0] for t in timings)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten values
    beyond it; below 20 values that rule falls at or under the median, so
    the maximum is reported instead."""
    v = sorted(values)
    n = len(v)
    if n < 20:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def pass_walls(passes, column: int = 2) -> list[float]:
    return [sum(r[column] for r in p) for p in passes]


def end_to_end(passes, setup) -> tuple[dict, list[str]]:
    """wall_s is the sum over items of each item's median across passes, so
    one slow pass does not move it; the tail is taken over the same medians."""
    per_item: dict[str, list[float]] = {}
    for p in passes:
        for i, record in enumerate(p):
            per_item.setdefault(f"{i}:{record[0]}", []).append(record[2])
    medians = [statistics.median(v) for v in per_item.values()]
    wall = sum(medians)
    tail_s, pct = tail(medians)
    notes: list[str] = []
    ok = sum(r[3].status == "ok" for p in passes for r in p) / len(passes)
    metrics = {
        "wall_s": wall,
        "ok_per_s": ok / wall,
        "op_p50_ms": 1e3 * statistics.median(medians),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(s for _, s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    walls, raw = pass_walls(passes), pass_walls(passes, 1)
    if len(medians) <= 20:
        notes += [f"  item {key}: {1e3 * statistics.median(v):.1f} ms scaled"
                  for key, v in per_item.items()]
    notes += [f"passes = {len(passes)}, items per pass = {len(medians)}",
             "pass walls, scaled to reference speed = "
             + ", ".join(f"{w:.4f}" for w in walls) + " s; raw = "
             + ", ".join(f"{w:.4f}" for w in raw) + " s",
             f"op_tail_ms is p{pct:.4g} of {len(medians)} per-item medians",
             f"setup_s is the median of {len(setup)} imports, scaled = "
             + ", ".join(f"{s:.4f}" for _, s in setup) + " s; raw = "
             + ", ".join(f"{r:.4f}" for r, _ in setup) + " s"]
    return metrics, notes


def outcome_summary(passes, baseline: dict) -> tuple[dict, bool, list[str]]:
    records = [r for p in passes for r in p]
    attempted = len(records)
    failed = sum(r[3].status == "failed" for r in records)
    wrong = sum(r[3].status == "wrong" for r in records)
    known = set(baseline["wrong"] + baseline["failed"])
    regressions = sorted({r[3].detail for r in records
                          if r[3].status != "ok" and r[0] not in known})
    defects = sorted({r[3].detail for r in records
                      if r[3].status != "ok" and r[0] in known})
    summary = {
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "wrong_frac": wrong / attempted,
        "max_rel_err": max(r[3].shooting_rel_err for r in records),
    }
    lines = [f"fail_frac = {failed / attempted!r} 1 ({failed} of {attempted} items)",
             f"wrong_frac = {wrong / attempted!r} 1 ({wrong} of {attempted} items)"]
    for label, details in (("known defect at baseline", defects),
                           ("REGRESSION against baseline", regressions)):
        lines += [f"{label}: {d}" for d in details[:LISTED]]
        if len(details) > LISTED:
            lines.append(f"{label}: ... and {len(details) - LISTED} more")
    return summary, not regressions, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ptwell" / "__init__.py").is_file():
        print(f"error: no ptwell package under {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup = measure_setup()

    sys.path[:0] = [str(SRC), str(HERE)]
    logging.disable(logging.WARNING)   # the solver logs each failed level
    import reference
    import tracing
    import workloads
    from ptwell import geometry, shooting

    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
    except reference.ReferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    baseline = json.loads((HERE / "baseline.json").read_text())[args.workload]

    print(f"workload {workload.name}, seed {args.seed}: {workload.note}")
    print("closed loop, one caller; PT_WELL_THREADS unset")
    if args.trace:
        with speed.Sampler() as sampler:
            begin = sampler.mark()
            probe_ns, probe_calls = tracing.potential_probe(
                getattr(geometry, "potential_value", None), geometry.ModelSpec)
            end = sampler.mark()
        probe_ns *= speed_ratio([sampler.timed(begin, end)])
    untraced = run_passes(workload, args.seconds / (2.0 if args.trace else 1.0))
    e2e, notes = end_to_end(untraced, setup)
    passes = untraced
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced = run_passes(workload, args.seconds / 2.0, tracer)
        passes = untraced + traced

    summary, correct, lines = outcome_summary(passes, baseline)
    for m in spec["end_to_end"]:
        print(f"{m['name']} = {e2e[m['name']]!r} {m['unit']}")
    for line in notes + lines:
        print(line)

    if args.trace:
        untraced_wall = statistics.median(pass_walls(untraced))
        traced_wall = statistics.median(pass_walls(traced))
        values = tracing.layer_metrics(
            tracer, len(traced), getattr(shooting, "MAX_ITER", None),
            speed_ratio([r[1:3] for p in traced for r in p]))
        values.update(tracing.source_lines(SRC))
        values.update({
            "geometry.potential_ns_per_call": probe_ns,
            "geometry.potential_probe_calls": float(probe_calls),
            "shooting.max_rel_err": summary["max_rel_err"],
            "fail_frac": summary["fail_frac"],
            "wrong_frac": summary["wrong_frac"],
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        })
        out_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(out_file)
        print(f"traced passes = {len(traced)}, spans = {len(tracer.spans)}, "
              f"written to {out_file.relative_to(ROOT)}")
        for key in tracer.absent():
            print(f"absent: ptwell.{key} (its metrics read 0)")
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']} = {value!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
