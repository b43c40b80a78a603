"""The package API that the benchmark workloads in perfbench/ rely on.

A change to the report types, entry counts or call signatures that would
make a benchmark op fail its gate fails here first, on the small (4,2)
lattice and at each workload's own lattice, (5,3) or (40,5).  The graph
keeps one state per rotation orbit, and the counts the workloads gate on
and report (`gen.states`, `gen.num_states`, the `gen.transitions` arcs)
keep their full-space values.
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


DEFAULT_LATTICES = {"exact_numeric": (5, 3), "exact_symbolic": (5, 3), "mc_transient": (40, 5)}


@pytest.mark.parametrize("name", DEFAULT_LATTICES)
def test_each_workload_op_passes_its_gate_at_its_default_lattice(bench, name):
    workloads, tracing = bench
    work = workloads.make_workload(name)
    assert (work.L, work.n) == DEFAULT_LATTICES[name]
    item = work.draw_input(random.Random(7))
    tracer = tracing.Tracer(True)
    events, digest = work.op(item, tracer)
    counts = {key: value for _, key, value in tracer.counts}
    if name == "mc_transient":
        assert events == work.events == counts["mcmc.events"]
        work.replay_check(item, digest)
        return
    import reference_graph
    from torus_asep import build_generator

    full = reference_graph.object_graph(work.L, work.n)
    arcs = sum(len(targets) for targets in full.targets)
    gen = build_generator(work.L, work.n)
    assert (events, digest) == (0, None)
    assert gen.states == full.states and gen.num_states == len(full.states) == counts["dynamics.states"] == 270
    assert sum(len(outs) for outs in gen.transitions) == arcs == counts["dynamics.arcs"]
    with pytest.raises(workloads.GateFailure):
        work.op(item, tracing.Tracer(False), fault=True)
