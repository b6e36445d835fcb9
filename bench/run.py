"""Benchmark runner for pengeo: one workload, one process, one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload vertical-heis --seed 0 --seconds 40 --trace 0

The runner imports pengeo from ``src/`` of the checkout, sets the workload
up, then runs whole units back to back (a closed loop) for about
``--seconds`` seconds.  Every unit passes the workload's correctness gate,
and units that share an input must produce bitwise-identical outputs.

With ``--trace 0`` it reports the end-to-end metrics: the median of nine
set-up times (this process and eight child processes spread over the run),
the median unit time rescaled to a reference host speed (see
``hostspeed.py``), the share of operations that succeeded, and peak memory.
With ``--trace 1`` it alternates untraced and traced units on the same
input and reports the per-layer metrics from the traced ones, plus the
tracing overhead; the spans are written to
``.bench_run/trace-<workload>.json``.  The last line of standard output is
one JSON object; the lines before it repeat every metric with its unit and
sample count, the raw unit times, and the machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up samples per run: this process plus SETUP_SAMPLES - 1 children.
SETUP_SAMPLES = 9
# Times of layers that some workloads never call.  There they read exactly
# 0 on every run, and the result format takes a time that reads the same on
# every run for one that was not measured, so they are printed with the rest
# but left out of the JSON result.  Call counts are not times and stay in it.
PRINTED_ONLY = (
    "drift.transport_batch.s",
    "drift.integrate_flow.s",
    "diagnostics.s",
    "cli.solve.s",
    "cli.diagnose.s",
    "cli.self_s",
)
# Units every run completes, whatever --seconds says.
MIN_UNITS = 3
MIN_TRACE_UNITS = 4


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _set_up(name: str, seed: int):
    """Import pengeo and build the workload; return (workload, seconds, workdir)."""
    started = time.perf_counter()
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR))
    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - started, workdir


def _child_setup_seconds(args) -> float:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _machine(load_at_start) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_at_start": list(load_at_start),
    }


def _measure(args, workload, tracer, speed, setups: list) -> list:
    """Run units until the time is up; return one record per unit.

    Untraced units run under the host-speed sampler.  Without tracing, the
    child set-ups are spread over the run, outside the measured time.
    """
    trace = bool(args.trace)
    floor = MIN_TRACE_UNITS if trace else MIN_UNITS
    started_run = time.perf_counter()
    outside = 0.0  # time spent on child set-ups
    records = []
    while True:
        i = len(records)
        traced = trace and i % 2 == 1
        # A traced run keeps one input so traced and untraced units compare.
        unit = 0 if trace else i
        prepared = workload.prepare(unit)
        first = len(tracer.spans)
        if traced:
            with tracer.installed():
                started = time.perf_counter()
                with tracer.span("unit"):
                    output = workload.run(prepared, tracer.span)
                wall = time.perf_counter() - started
            scaled = None
        else:
            with speed:
                started = time.perf_counter()
                output = workload.run(prepared, lambda name: nullcontext())
                wall = time.perf_counter() - started - speed.paused
            scaled = speed.to_reference(wall)
        records.append(
            {
                "traced": traced,
                "wall": wall,
                "scaled": scaled,
                "key": workload.key(unit),
                "result": workload.check(output),
                "spans": (first, len(tracer.spans)),
            }
        )
        elapsed = time.perf_counter() - started_run - outside
        if not trace:
            due = 1 + math.ceil((SETUP_SAMPLES - 1) * min(elapsed / args.seconds, 1.0))
            while len(setups) < due:
                started = time.perf_counter()
                setups.append(_child_setup_seconds(args))
                outside += time.perf_counter() - started
        median_wall = statistics.median(r["wall"] for r in records)
        if len(records) >= floor and elapsed + 0.5 * median_wall > args.seconds:
            return records


def _layer_metrics(spans, first: int, last: int, result) -> dict:
    from tracer import prefix_time, summarize

    stats = summarize(spans, first, last)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    iterations = result.iterations
    energy_calls = get("functionals.energy", "calls")
    rows = get("geometry.penalized_forms", "rows") + get("geometry.penalized_gram", "rows")
    out = {
        "optimizer.self_s": get("optimizer.minimize_energy", "self_s"),
        "optimizer.iterations": iterations,
        "optimizer.rungs": get("optimizer.minimize_energy", "calls"),
        "optimizer.accept_ratio": iterations / energy_calls if energy_calls else 0.0,
        "optimizer.energy_gradient.calls": get("optimizer.energy_gradient", "calls"),
        "optimizer.energy_gradient.s": get("optimizer.energy_gradient", "s"),
        "functionals.energy.calls": energy_calls,
        "functionals.energy.s": get("functionals.energy", "s"),
    }
    for name in ("penalized_forms", "penalized_gram"):
        for key in ("calls", "rows", "s"):
            out[f"geometry.{name}.{key}"] = get(f"geometry.{name}", key)
    out["geometry.gram_batch.s"] = get("geometry.gram_batch", "s")
    out["geometry.frame_batch.s"] = get("geometry.frame_batch", "s")
    out["geometry.rows_per_iter"] = rows / iterations if iterations else 0.0
    for key in ("calls", "rows", "s"):
        out[f"drift.transport_batch.{key}"] = get("drift.transport_batch", key)
    out["drift.integrate_flow.calls"] = get("drift.integrate_flow", "calls")
    out["drift.integrate_flow.s"] = get("drift.integrate_flow", "s")
    out["diagnostics.calls"] = sum(
        entry["calls"] for name, entry in stats.items() if name.startswith("diagnostics.")
    )
    out["diagnostics.s"] = prefix_time(spans, "diagnostics.", first, last)
    out["cli.solve.s"] = get("cli.solve", "s")
    out["cli.diagnose.s"] = get("cli.diagnose", "s")
    out["cli.self_s"] = get("cli.solve", "self_s") + get("cli.diagnose", "self_s")
    out["cli.bytes_written"] = result.bytes_written
    out["cli.files_written"] = result.files_written
    return out


def _units_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_iter"):
        return "rows/iter"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def _report(args, workload, machine, setups, records, tracer) -> dict:
    """Print the human-readable record and return the JSON result."""
    results = [r["result"] for r in records]
    attempted = sum(len(res.ops) for res in results)
    failed = sum(1 for res in results for _, ok in res.ops if not ok)
    problems = [p for res in results for p in res.problems]

    # Units that share an input must agree bitwise, traced or not.
    digests: dict = {}
    for r in records:
        digests.setdefault(r["key"], set()).add(r["result"].digest)
    mismatched = [key for key, seen in digests.items() if len(seen) > 1]
    if mismatched:
        problems.append(f"outputs differ between units on the same input: {mismatched}")

    untraced = [r["wall"] for r in records if not r["traced"]]
    scaled = [r["scaled"] for r in records if not r["traced"]]
    metrics = {}
    counts = {}
    if args.trace:
        traced = [r for r in records if r["traced"]]
        per_unit = [_layer_metrics(tracer.spans, *r["spans"], r["result"]) for r in traced]
        for name in per_unit[0]:
            values = [m[name] for m in per_unit]
            if _units_of(name) == "s":
                metrics[name] = statistics.median(values)
            else:
                if len(set(values)) > 1:
                    problems.append(f"traced units disagree on {name}: {values}")
                metrics[name] = values[0]
        traced_wall = statistics.median(r["wall"] for r in traced)
        untraced_wall = statistics.median(untraced)
        metrics["trace.traced_solve_s"] = traced_wall
        metrics["trace.untraced_solve_s"] = untraced_wall
        # Units alternate untraced, traced; neighbours share the host's state.
        pairs = zip(records[0::2], records[1::2])
        metrics["trace.overhead_frac"] = (
            statistics.median(t["wall"] / u["wall"] for u, t in pairs) - 1.0
        )
        counts = {"traced units": len(traced), "untraced units": len(untraced)}
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["solve_s"] = statistics.median(scaled)
        metrics["ok_frac"] = (attempted - failed) / attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counts = {"setup samples": len(setups), "units": len(untraced)}

    seed_note = "" if workload.uses_seed else " (ignored by this workload)"
    print(f"workload: {args.workload}  seed: {args.seed}{seed_note}  trace: {args.trace}")
    print(f"machine: {json.dumps(machine)}")
    print(f"samples: {json.dumps(counts)}")
    if not args.trace:
        print(f"unit wall s: {[round(w, 4) for w in untraced]}")
        print(f"unit rescaled s: {[round(w, 4) for w in scaled]}")
        print(f"unit iterations: {[res.iterations for res in results]}")
        print(f"set-up wall s: {[round(s, 4) for s in setups]}")
        print(f"solve_wall_s = {statistics.median(untraced)!r} s (median unit wall time)")
    print(f"operations: {attempted} attempted, {failed} failed (failed_frac {failed / attempted:.4f})")
    for label in sorted({lbl for res in results for lbl, ok in res.ops if not ok}):
        print(f"  failed: {label}")
    if tracer.absent:
        print(f"trace targets absent: {tracer.absent}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {_units_of(name)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _units_of(name)}
            for name, value in metrics.items()
            if name not in PRINTED_ONLY
        },
    }


def _write_spans(workload_name: str, tracer) -> None:
    path = RUN_DIR / f"trace-{workload_name}.json"
    with path.open("w") as fh:
        json.dump({"absent": tracer.absent, "spans": tracer.spans}, fh)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "pengeo" / "__init__.py").is_file():
        print(f"pengeo sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload, setup_s, workdir = _set_up(args.workload, args.seed)
    try:
        if args.setup_only:
            print(repr(setup_s))
            return 0
        from hostspeed import HostSpeed
        from tracer import Tracer
        from workloads import TRACE_TARGETS

        speed = HostSpeed()
        tracer = Tracer(TRACE_TARGETS)
        setups = [setup_s]
        records = _measure(args, workload, tracer, speed, setups)
        result = _report(args, workload, _machine(load_at_start), setups, records, tracer)
        if args.trace:
            _write_spans(args.workload, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
