"""One benchmark process: set up one workload, then run its closed loop.

Started by run.py, one fresh process per workload.  Protocol on stdout:
a `READY` line once set-up (import, input generation, one warm-up op that
fills the package's caches) is done, then, unless `--setup-only`, one
`RESULT <json>` line.  Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

INPUT_POOL = 256  # inputs drawn during set-up; timed ops cycle through them
TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


def p10(times: list[float]) -> float | None:
    """Nearest-rank 10th percentile of the op times.

    On a shared machine, phases of contention from other tenants slow every
    op they overlap by up to 2x; a low percentile reads the program's own
    speed as long as some ops in the run escape them, where the median
    flips with the share of the run that was contended.
    """
    if not times:
        return None
    return sorted(times)[(len(times) + 9) // 10 - 1]


def tail_percentile(times: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it (None below 11 ops)."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    rank = len(ordered) - 10
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / len(ordered), "ops": len(ordered)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lattice", default=None, help="override L,n (smoke self-test)")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lattice = tuple(int(x) for x in args.lattice.split(",")) if args.lattice else None
    workload = workloads.make_workload(args.workload, lattice)
    rng = random.Random(args.seed)
    pool = [workload.draw_input(rng) for _ in range(INPUT_POOL + 1)]
    # The warm-up op is gated like any other; if it fails the run is void.
    workload.op(pool[0], Tracer(False))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(bool(args.trace))
    ops: list[tuple[float, int] | None] = []  # (seconds, simulator events); None = failed
    first_digest = None
    start = time.perf_counter()
    while True:
        tracer.op = len(ops)
        item = pool[1 + tracer.op % INPUT_POOL]
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                events, digest = workload.op(item, tracer, fault=args.inject_fault)
        except Exception:  # any exception is a failed op; the loop keeps running
            ops.append(None)
            if ops.count(None) <= 3:
                traceback.print_exc()
        else:
            ops.append((time.perf_counter() - t0, events))
            if len(ops) == 1:
                first_digest = digest
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start

    # Replay the first op with its input; a different output fails that op.
    if first_digest is not None:
        try:
            workload.replay_check(pool[1], first_digest, fault=args.inject_fault)
        except Exception:
            traceback.print_exc()
            ops[0] = None

    certified = [op for op in ops if op is not None]
    seconds = [t for t, _ in certified]
    result = {
        "attempted": len(ops),
        "failed": len(ops) - len(certified),
        "ops_per_s": len(certified) / elapsed,
        "op_p10_s": p10(seconds),
        "op_p50_s": statistics.median(seconds) if seconds else None,
        "op_tail": tail_percentile(seconds),
        "events_per_s": sum(e for _, e in certified) / elapsed if workload.events else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer.enabled:
        ok_ops = [i for i, op in enumerate(ops) if op is not None]
        layers = tracer.per_op_medians(ok_ops) if ok_ops else {}
        if "op.s" in layers:
            layers["op.self_s"] = layers.pop("op.s")  # the op span's self time: benchmark overhead
        result["layers"] = layers
        tracer.dump(TRACE_DIR / f"trace-{args.workload}-L{workload.L}n{workload.n}-seed{args.seed}.json")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
