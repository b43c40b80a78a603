"""Smoke self-test of the benchmark on the small (4,2) lattice.

    python3 perfbench/selftest.py

For every workload shape it checks that
  * an untraced run exits 0 and prints every end-to-end metric by name with
    its unit, in the table and, for the metrics BENCHMARK.json lists, in the
    closing JSON line;
  * a traced run reports every per-layer metric BENCHMARK.json lists;
  * a run whose gate checks each op against a deliberately wrong expectation
    (weights at another rate point, one state too many, a replay with another
    seed) counts failed ops and exits non-zero.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TABLE_METRICS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def run(workload: str, *extra: str) -> tuple[int, list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--lattice", "4,2", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1]) if lines else {}


def printed(lines: list[str], workload: str, name: str, unit: str) -> bool:
    pattern = re.compile(rf"^\s+{workload}\s+{re.escape(name)}\s+\S+ {re.escape(unit)}(\s|$)")
    return any(pattern.match(line) for line in lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok: bool, message: str) -> None:
        print(("PASS " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for workload in [w["name"] for w in spec["workloads"]]:
        code, lines, summary = run(workload, "--trace", "0")
        check(code == 0 and summary.get("correct") is True and summary.get("failed") == 0,
              f"{workload}: untraced run passes its gate")
        simulator = workload.startswith("mc_")
        for name, unit in TABLE_METRICS.items():
            if name == "events_per_s" and not simulator:
                continue
            omitted = name == "op_tail_s" and any("op_tail_s" in l and "omitted" in l for l in lines)
            check(omitted or printed(lines, workload, name, unit), f"{workload}: prints {name} in {unit}")
        metrics = summary.get("metrics", {})
        for m in spec["end_to_end"]:
            check(metrics.get(m["name"], {}).get("unit") == m["unit"],
                  f"{workload}: result line has {m['name']} in {m['unit']}")

        code, _, summary = run(workload, "--trace", "1")
        metrics = summary.get("metrics", {})
        check(code == 0 and all(metrics.get(m["name"], {}).get("unit") == m["unit"] for m in spec["per_layer"]),
              f"{workload}: traced run reports every per-layer metric")

        code, _, summary = run(workload, "--trace", "0", "--inject-fault")
        check(code != 0 and summary.get("correct") is False and summary.get("failed", 0) >= 1,
              f"{workload}: a wrong expectation counts as a failed op")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
