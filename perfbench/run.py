"""Benchmark of the torus-asep verifier and simulator.

    python3 perfbench/run.py                       # every workload, untraced and traced
    python3 perfbench/run.py --workload exact_numeric --seed 3 --seconds 15 --trace 0

Each workload runs in its own fresh process (perfbench/worker.py), one after
another, with the package imported from `src/` and BLAS/OpenMP pools pinned
to one thread.  The load is a closed loop: one client issues ops back to
back, and an op counts only once its outputs pass an exact gate
(perfbench/workloads.py describes the workloads and their ops).

With `--trace 0` the end-to-end metrics are printed: set-up time (median of
five fresh processes spread over the run, each timed from start until its
warm-up op is done), certified ops per second, the 10th-percentile, median
and tail op time, simulator events per second, peak RSS of the measured
process and the error rate.  BENCHMARK.json bounds set-up time, the
10th-percentile op time and peak RSS: on a shared machine, contention from
other tenants slows whole stretches of a run by up to 2x, which moves ops
per second and the median op time between runs by more than a useful
bound, while the fast end of the op times stays within a few percent.  With
`--trace 1` a separate run wraps a span around each call into the package
and prints per-layer self times and counts, median per op; spans are written
to `.perfbench/`.  Without `--workload` both runs are made for every workload
and the tracing overhead is the gap between their ops per second.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics, holding the metrics BENCHMARK.json lists.  The exit code
is non-zero if any op failed its gate or a worker did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BEFORE = SETUP_AFTER = 2  # set-up-only processes around the measured one
RUN_LIMIT_S = 170.0  # one workload's processes, set-up samples included
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p10_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


class BenchError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and its result (None if set-up only)."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} failed (exit {code}) before reporting")
    result = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return setup_s, result


def measure(workload: str, args, trace: int) -> dict:
    """One measured worker; when untraced, set-up-only workers before and
    after it, so the set-up median spans the whole run."""
    argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)]
    if args.lattice:
        argv += ["--lattice", args.lattice]
    if args.inject_fault:
        argv.append("--inject-fault")
    deadline = time.monotonic() + RUN_LIMIT_S
    extra = 0 if trace else SETUP_BEFORE
    setups = [run_worker(argv + ["--setup-only"], deadline)[0] for _ in range(extra)]
    setup_s, result = run_worker(argv, deadline)
    setups.append(setup_s)
    extra = 0 if trace else SETUP_AFTER
    setups += [run_worker(argv + ["--setup-only"], deadline)[0] for _ in range(extra)]
    result["setup_s"] = statistics.median(setups)
    return result


def end_to_end(result: dict) -> dict:
    tail = result["op_tail"]
    return {
        "setup_s": result["setup_s"],
        "ops_per_s": result["ops_per_s"],
        "op_p10_s": result["op_p10_s"],
        "op_p50_s": result["op_p50_s"],
        "op_tail_s": tail["value"] if tail else None,
        "events_per_s": result["events_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": result["failed"] / result["attempted"],
    }


def per_layer(result: dict, names: list[str]) -> dict:
    """Every listed layer metric; a layer this workload never reaches reads 0."""
    layers = dict(result.get("layers", {}), **{"trace.ops_per_s": result["ops_per_s"]})
    return {name: layers.get(name, 0.0) for name in names}


def print_table(workload: str, values: dict, units: dict, note: dict | None = None) -> None:
    for name, value in values.items():
        if value is None:
            continue
        extra = f"  {note[name]}" if note and name in note else ""
        print(f"  {workload:<15} {name:<40} {value:>14.6g} {units[name]}{extra}")


def print_end_to_end(workload: str, result: dict, units: dict) -> dict:
    values = end_to_end(result)
    tail = result["op_tail"]
    note = {"op_tail_s": f"(p{tail['percentile']:.0f} of {tail['ops']} ops)"} if tail else {}
    print(f"{workload}: {result['attempted']} ops attempted, {result['failed']} failed")
    print_table(workload, values, units, note)
    if tail is None:
        print(f"  {workload:<15} {'op_tail_s':<40} {'omitted':>14} (fewer than 11 certified ops)")
    return values


def print_per_layer(workload: str, result: dict, names: list[str], units: dict) -> dict:
    values = per_layer(result, names)
    op_total = sum(v for k, v in values.items() if units[k] == "s")
    note = {
        k: f"({100 * v / op_total:.1f}% of op)" for k, v in values.items() if units[k] == "s" and op_total
    }
    print(f"{workload} traced: {result['attempted']} ops attempted, {result['failed']} failed")
    print_table(workload, values, units, note)
    return values


def metrics_json(values: dict, names: list[str], units: dict, prefix: str = "") -> dict:
    return {
        prefix + name: {"value": values[name], "unit": units[name]}
        for name in names
        if values.get(name) is not None
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    units = dict(E2E_UNITS, **{m["name"]: m["unit"] for m in spec["per_layer"]})

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lattice", help="override L,n of the workload (smoke self-test)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="gate every timed op against a wrong expectation (smoke self-test)")
    args = parser.parse_args(argv)

    try:
        if args.workload != "all":
            result = measure(args.workload, args, args.trace)
            if args.trace:
                values = print_per_layer(args.workload, result, layer_names, units)
                metrics = metrics_json(values, layer_names, units)
            else:
                values = print_end_to_end(args.workload, result, units)
                metrics = metrics_json(values, e2e_names, units)
            summary = {"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics}
        else:
            attempted = failed = 0
            metrics = {}
            for workload in names:
                plain = measure(workload, args, 0)
                traced = measure(workload, args, 1)
                values = print_end_to_end(workload, plain, units)
                print_per_layer(workload, traced, layer_names, units)
                overhead = 1 - traced["ops_per_s"] / plain["ops_per_s"] if plain["ops_per_s"] else 0.0
                print(f"  {workload:<15} {'tracing overhead':<40} {100 * overhead:>14.2f} % of ops_per_s")
                attempted += plain["attempted"] + traced["attempted"]
                failed += plain["failed"] + traced["failed"]
                metrics.update(metrics_json(values, e2e_names, units, workload + "."))
            summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
