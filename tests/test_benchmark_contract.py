"""The package API that the benchmark workloads in perfbench/ rely on.

A change to the report types, entry counts or call signatures that would
make a benchmark op fail its gate fails here first, on the small (4,2)
lattice.
"""

import importlib
import random
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("tracing")


@pytest.mark.parametrize("name", ["exact_numeric", "exact_symbolic"])
def test_exact_workload_op_passes_its_gate(bench, name):
    workloads, tracing = bench
    work = workloads.make_workload(name, (4, 2))
    item = work.draw_input(random.Random(7))
    assert work.op(item, tracing.Tracer(False)) == (0, None)
    with pytest.raises(workloads.GateFailure):
        work.op(item, tracing.Tracer(False), fault=True)


def test_simulator_workload_op_passes_its_gate_and_replays(bench):
    workloads, tracing = bench
    work = workloads.make_workload("mc_transient", (6, 3))
    seed = work.draw_input(random.Random(7))
    events, digest = work.op(seed, tracing.Tracer(False))
    assert events == work.events
    work.replay_check(seed, digest)
    with pytest.raises(workloads.GateFailure):
        work.replay_check(seed, digest, fault=True)
