"""In-memory spans and counters for the traced benchmark run.

A span records its name, start, end, parent span and op id.  Spans are
opened only by the benchmark's own files, around the calls it makes into the
package's public functions, and are kept in memory until the run ends.  A
span's self time is its duration minus the time its child spans cover; the
benchmark is single-threaded, so sibling spans never overlap and no span
waits on another.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0


class _OpenSpan:
    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        parent = t._open[-1].id if t._open else None
        span = Span(len(t.spans), parent, t.op, self.name, time.perf_counter())
        t.spans.append(span)
        t._open.append(span)

    def __exit__(self, *exc) -> None:
        self.tracer._open.pop().end = time.perf_counter()


class Tracer:
    """Spans and per-op counts; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op = -1
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, float]] = []
        self._open: list[Span] = []

    def span(self, name: str):
        return _OpenSpan(self, name) if self.enabled else nullcontext()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((self.op, name, value))

    def self_times(self) -> dict[tuple[int, str], float]:
        """Seconds of self time per (op id, span name)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[tuple[int, str], float] = {}
        for s in self.spans:
            key = (s.op, s.name)
            out[key] = out.get(key, 0.0) + (s.end - s.start) - covered[s.id]
        return out

    def per_op_medians(self, ops: list[int]) -> dict[str, float]:
        """Median over the given ops of each span's self time, keyed
        `<span>.s`, and of each count, keyed by its name.

        A span or count an op never reached contributes 0 for that op.
        """
        per_op: dict[str, dict[int, float]] = {}
        for (op, name), seconds in self.self_times().items():
            per_op.setdefault(name + ".s", {})[op] = seconds
        for op, name, value in self.counts:
            per_op.setdefault(name, {})[op] = value
        return {
            name: statistics.median(values.get(op, 0.0) for op in ops)
            for name, values in per_op.items()
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [asdict(s) for s in self.spans],
            "counts": [{"op": op, "name": name, "value": v} for op, name, v in self.counts],
        }
        path.write_text(json.dumps(payload) + "\n")
