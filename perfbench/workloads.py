"""The benchmark workloads: seeded inputs, one op each, and its exact gate.

Each op makes the same public-API calls a user of the package makes, wrapped
in one span per call, and then checks the outputs exactly.  An op whose gate
fails raises GateFailure.  The workload seed drives a `random.Random` that
draws every input (rate points, simulator seeds); the package receives only
those drawn values.

    exact_numeric   (5,3), 270 states.  Rate point drawn with p_k, q_k in
                    {1/10, ..., 90/10}.  build_generator -> exact_stationary
                    -> probability x Z == weight value -> verify_balance ->
                    densities -> currents_exact.  The exact solve and the
                    generator dominate; polynomial arithmetic is barely used.
    exact_symbolic  (5,3), 270 states.  The symbolic `verify` and
                    `observables` calls: build_generator -> verify_balance
                    -> lumping_report -> weight_identities -> densities ->
                    currents_exact -> scott_russell_check ->
                    partition_function_special (three cases).  Symbolic
                    densities and currents dominate; there is no solve.
    mc_transient    (40,5), p = (1, 3/2, 2, 5/4, 1), q = (1/2, 1/4, 1/3, 1/5,
                    1/2).  simulate(events=2*10^3, batches=20) ->
                    estimate_observables.  Nearly every event reaches a new
                    state, so compiling states and the growing per-call
                    caches dominate time and memory.

The lattices are smaller than the verifier's largest practical sizes so that
every run completes many ops within its measuring window.  A fourth workload,
the simulator on a small recurrent lattice where the compile cache nearly
always hits, was left out: its op times moved the most with contention from
other tenants of a shared machine.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from torus_asep import (
    RatePoint,
    build_generator,
    config_weight,
    currents_exact,
    densities,
    estimate_observables,
    exact_stationary,
    lumping_report,
    partition_function_special,
    scott_russell_check,
    simulate,
    verify_balance,
    weight_identities,
)

from tracing import Tracer

SPECIAL_CASES = ("identical", "symmetric", "totally_asymmetric")
BATCHES = 20
_UNTRACED = Tracer(False)


class GateFailure(AssertionError):
    """An op's output differs from what the benchmark expects."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def _full_state_count(L: int, n: int) -> int:
    """L rotations of binom(L-1, n-1) bullet patterns times n^(L-n) box labels."""
    return L * math.comb(L - 1, n - 1) * n ** (L - n)


def _observable_entry_counts(L: int, n: int) -> tuple[int, int]:
    """Density entries (bullet and box per site) and current entries
    (edge and box-row per site, row totals, columns, three vertical kinds)."""
    return 2 * n * L, 2 * n * L + 4 * n + L


def _rate_point(p: tuple[Fraction, ...], q: tuple[Fraction, ...], n: int) -> RatePoint:
    if n > len(p):
        raise ValueError(f"workload rates cover at most {len(p)} rows, got n = {n}")
    return RatePoint(p[:n], q[:n])


def _draw_rate_point(n: int, rng: random.Random, denominator: int = 10) -> RatePoint:
    draw = lambda: Fraction(rng.randint(1, 9 * denominator), denominator)  # noqa: E731
    return RatePoint(tuple(draw() for _ in range(n)), tuple(draw() for _ in range(n)))


@dataclass
class Workload:
    name: str
    L: int
    n: int
    rates: RatePoint | None = None  # fixed rates of the simulator workloads
    events: int = 0  # simulator events per op

    def draw_input(self, rng: random.Random):
        raise NotImplementedError

    def op(self, item, tracer: Tracer, fault: bool = False) -> tuple[int, str | None]:
        """Run one op and check it.

        Returns the simulator events it executed and a digest of its
        reproducible output, which `replay_check` compares (None if the op
        has none to replay).  With `fault` the gate checks against a
        deliberately wrong expectation, so the op fails.
        """
        raise NotImplementedError


class ExactNumeric(Workload):
    def draw_input(self, rng):
        return _draw_rate_point(self.n, rng)

    def op(self, rates, tracer, fault=False):
        L, n = self.L, self.n
        # The faulty expectation takes the weights at a different rate point.
        weight_rates = RatePoint((rates.p[0] + 1,) + rates.p[1:], rates.q) if fault else rates
        with tracer.span("dynamics.build_generator"):
            gen = build_generator(L, n)
        tracer.count("dynamics.states", gen.num_states)
        tracer.count("dynamics.arcs", sum(len(outs) for outs in gen.transitions))
        with tracer.span("stationary.exact_stationary"):
            table = exact_stationary(gen, rates)
        with tracer.span("stationary.config_weight"):
            values = [config_weight(w).evaluate(weight_rates) for w in gen.states]
            z = sum(values)
            sums_to_one = sum(table.probabilities) == 1
            proportional = all(p * z == v for p, v in zip(table.probabilities, values))
        with tracer.span("stationary.verify_balance"):
            balance = verify_balance(L, n, rates=rates, gen=gen)
        with tracer.span("observables.densities"):
            dens = densities(L, n, rates)
        with tracer.span("observables.currents_exact"):
            cur = currents_exact(L, n, rates)
        tracer.count("observables.entries", len(dens.entries) + len(cur.entries))
        _require(gen.num_states == _full_state_count(L, n), "unexpected state count")
        _require(sums_to_one, "probabilities do not sum to 1")
        _require(proportional, "probability x Z differs from the weight value")
        _require(balance.ok, "balance equations fail")
        _require(dens.ok and cur.ok, "an observable differs from its oracle")
        _require(
            (len(dens.entries), len(cur.entries)) == _observable_entry_counts(L, n),
            "unexpected number of observable entries",
        )
        return 0, None


class ExactSymbolic(Workload):
    def draw_input(self, rng):
        return None  # the symbolic op has no rate point: it proves identities in all rates

    def op(self, _item, tracer, fault=False):
        L, n = self.L, self.n
        # The faulty expectation counts one state too many.
        expected_states = _full_state_count(L, n) + (1 if fault else 0)
        with tracer.span("dynamics.build_generator"):
            gen = build_generator(L, n)
        tracer.count("dynamics.states", gen.num_states)
        tracer.count("dynamics.arcs", sum(len(outs) for outs in gen.transitions))
        with tracer.span("stationary.verify_balance"):
            balance = verify_balance(L, n, gen=gen)
        with tracer.span("stationary.lumping_report"):
            lumping = lumping_report(L, n, gen=gen)
        with tracer.span("stationary.weight_identities"):
            identities = weight_identities(n)
        with tracer.span("observables.densities"):
            dens = densities(L, n)
        with tracer.span("observables.currents_exact"):
            cur = currents_exact(L, n)
        tracer.count("observables.entries", len(dens.entries) + len(cur.entries))
        with tracer.span("observables.scott_russell_check"):
            scott_russell = scott_russell_check(L, n)
        with tracer.span("observables.partition_function_special"):
            certificates = [partition_function_special(L, n, case) for case in SPECIAL_CASES]
        _require(balance.num_states == expected_states, "unexpected state count")
        _require(balance.ok, "symbolic balance fails")
        _require(lumping.ok, "lumping certificate fails")
        _require(identities.ok, "weight identities fail")
        _require(dens.ok and cur.ok, "an observable differs from its oracle")
        _require(
            (len(dens.entries), len(cur.entries)) == _observable_entry_counts(L, n),
            "unexpected number of observable entries",
        )
        _require(scott_russell.ok, "vertical and horizontal currents differ")
        _require(all(c.equal for c in certificates), "a special-case certificate fails")
        return 0, None


class MonteCarlo(Workload):
    def draw_input(self, rng):
        return rng.getrandbits(63)

    def op(self, seed, tracer, fault=False):
        # The simulator's faulty expectation lives in replay_check.
        with tracer.span("mcmc.simulate"):
            state, ledger = simulate(
                self.L, self.n, self.rates, seed=seed, events=self.events, batches=BATCHES
            )
        with tracer.span("mcmc.estimate_observables"):
            report = estimate_observables(ledger, state)
        tracer.count("mcmc.events", state.events)
        # Distinct states equal the simulator's compile-cache misses; they are
        # read from the per-state occupancy record while SimState keeps one,
        # and read -1 once it does not.
        record = getattr(state, "state_time", None)
        distinct = len(record) if record else -1
        tracer.count("mcmc.distinct_states", distinct)
        tracer.count("mcmc.cache_hit_ratio", 1 - distinct / state.events if distinct >= 0 else -1)
        _require(state.events == self.events, "event count differs from the request")
        # Each column holds one particle before and after every move, so the
        # signed crossings of each boundary cancel in every batch.
        net = ledger.bullet_edge.sum(axis=1) + ledger.box_edge.sum(axis=1) + ledger.box_jump
        _require(not net.any(), "net crossings of a boundary do not cancel")
        _require(
            all(math.isfinite(e.value) for e in report.currents.values())
            and all(math.isfinite(e.value) for e in report.densities.values()),
            "an estimate is not finite",
        )
        return state.events, ledger_digest(state, ledger)

    def replay_check(self, seed, digest, fault=False):
        """The same seed must give the same ledger; the faulty expectation
        replays another seed."""
        _, replayed = self.op(seed + 1 if fault else seed, _UNTRACED)
        _require(replayed == digest, "replay with the same seed gives another ledger")


def ledger_digest(state, ledger) -> str:
    h = hashlib.sha256()
    for array in (
        ledger.bullet_edge,
        ledger.box_edge,
        ledger.box_jump,
        ledger.row_up,
        ledger.row_down,
        ledger.batch_time,
        state.occupancy,
    ):
        h.update(array.tobytes())
    h.update(repr((state.elapsed, state.events, state.word.letters)).encode())
    return h.hexdigest()


_TRANSIENT_RATES = (
    (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 4), Fraction(1)),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 5), Fraction(1, 2)),
)

# name -> (shape, (L, n), MC rates, MC events per op)
WORKLOADS = {
    "exact_numeric": (ExactNumeric, (5, 3), None, 0),
    "exact_symbolic": (ExactSymbolic, (5, 3), None, 0),
    "mc_transient": (MonteCarlo, (40, 5), _TRANSIENT_RATES, 2_000),
}


def make_workload(name: str, lattice: tuple[int, int] | None = None) -> Workload:
    """Build a workload; `lattice` overrides (L, n) for the smoke self-test."""
    shape, default_lattice, rates, events = WORKLOADS[name]
    L, n = lattice or default_lattice
    return shape(name, L, n, _rate_point(*rates, n) if rates else None, events)
