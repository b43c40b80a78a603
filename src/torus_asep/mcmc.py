"""Continuous-time Monte Carlo over the exact dynamics, with crossing ledgers.

The event loop is plain Gillespie sampling: an exponential holding time with
parameter equal to the total outgoing rate, then a rate-proportional choice
of transition.  Every executed transition updates a ledger of signed
column-boundary crossings derived from its displacement records:

* bullet crossings, per (row, boundary);
* label-preserving box crossings, per (row, boundary) - these are the swap
  moves and the shifting blocks, whose row is well defined;
* label-changing box crossings (the relabelled jumper), per boundary only,
  since the jumper changes row mid-transition;
* per-row counts of the nonlocal forward moves (box row k -> k-1, "up") and
  backward moves (box row k -> k+1, "down").

Column currents use all box crossings; per-row horizontal currents use only
the label-preserving ones, matching the exact-observable conventions.
Runs are reproducible: a fixed (seed, parameters) pair yields an identical
event sequence, ledger, and occupancy record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import displacement_crossings, outgoing_transitions, tau_zero
from .model import ColoredWord
from .symbolic import RatePoint

CH_BULLET, CH_BOX_LOCAL, CH_BOX_JUMP, CH_ROW_UP, CH_ROW_DOWN = range(5)


@dataclass
class _CompiledState:
    targets: list[tuple[int, ...]]
    cum: np.ndarray
    total: float
    crossings: list[tuple[tuple[int, int, int, int], ...]]
    occ_species: np.ndarray
    occ_rows: np.ndarray
    occ_cols: np.ndarray


def _compile_state(letters: tuple[int, ...], n: int, p: list[float], q: list[float]) -> _CompiledState:
    word = ColoredWord(n, letters)
    L = len(letters)
    targets = []
    rates = []
    crossings = []
    for t in outgoing_transitions(word):
        family, k = t.rate_symbol
        rate = p[k - 1] if family == "p" else q[k - 1]
        if rate <= 0.0:
            continue
        targets.append(t.target.letters)
        rates.append(rate)
        ops: list[tuple[int, int, int, int]] = []
        for d in t.displacements:
            if d.species == "bullet":
                channel = CH_BULLET
                row = d.label_from - 1
            elif not d.jump:
                channel = CH_BOX_LOCAL
                row = d.label_from - 1
            else:
                channel = CH_BOX_JUMP
                row = 0
            for boundary, sign in displacement_crossings(d, L):
                ops.append((channel, row, boundary, sign))
        if t.kind == "F2":
            ops.append((CH_ROW_UP, t.row - 1, 0, 1))
        elif t.kind == "B2":
            ops.append((CH_ROW_DOWN, t.row - 1, 0, 1))
        crossings.append(tuple(ops))
    rate_arr = np.array(rates, dtype=np.float64)
    occ_species = np.array([0 if c > 0 else 1 for c in letters], dtype=np.intp)
    occ_rows = np.array([abs(c) - 1 for c in letters], dtype=np.intp)
    occ_cols = np.arange(L, dtype=np.intp)
    return _CompiledState(
        targets=targets,
        cum=np.cumsum(rate_arr),
        total=float(rate_arr.sum()),
        crossings=crossings,
        occ_species=occ_species,
        occ_rows=occ_rows,
        occ_cols=occ_cols,
    )


@dataclass
class CrossingLedger:
    """Per-batch signed crossing counts; batch 0..batches-1 partition the run."""

    L: int
    n: int
    batches: int
    bullet_edge: np.ndarray  # (batches, n, L)
    box_edge: np.ndarray  # (batches, n, L), label-preserving crossings
    box_jump: np.ndarray  # (batches, L), label-changing crossings
    row_up: np.ndarray  # (batches, n)
    row_down: np.ndarray  # (batches, n)
    batch_time: np.ndarray  # (batches,)

    @classmethod
    def empty(cls, L: int, n: int, batches: int) -> "CrossingLedger":
        return cls(
            L=L,
            n=n,
            batches=batches,
            bullet_edge=np.zeros((batches, n, L), dtype=np.int64),
            box_edge=np.zeros((batches, n, L), dtype=np.int64),
            box_jump=np.zeros((batches, L), dtype=np.int64),
            row_up=np.zeros((batches, n), dtype=np.int64),
            row_down=np.zeros((batches, n), dtype=np.int64),
            batch_time=np.zeros(batches, dtype=np.float64),
        )

    def box_column(self, j: int) -> int:
        """Total signed box crossings of boundary j|j+1 (1-based), all rows."""
        return int(self.box_edge[:, :, j - 1].sum() + self.box_jump[:, j - 1].sum())

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["channel", "row", "boundary", "count"]]
        names = {CH_BULLET: "bullet_edge", CH_BOX_LOCAL: "box_edge"}
        for channel, array in ((CH_BULLET, self.bullet_edge), (CH_BOX_LOCAL, self.box_edge)):
            totals = array.sum(axis=0)
            for i in range(self.n):
                for j in range(self.L):
                    rows.append([names[channel], str(i + 1), str(j + 1), str(int(totals[i, j]))])
        jump = self.box_jump.sum(axis=0)
        for j in range(self.L):
            rows.append(["box_jump", "", str(j + 1), str(int(jump[j]))])
        up = self.row_up.sum(axis=0)
        down = self.row_down.sum(axis=0)
        for i in range(self.n):
            rows.append(["row_up", str(i + 1), "", str(int(up[i]))])
            rows.append(["row_down", str(i + 1), "", str(int(down[i]))])
        return rows


@dataclass
class SimState:
    word: ColoredWord
    elapsed: float
    events: int
    occupancy: np.ndarray  # (batches, 2, n, L): species 0 = bullet, 1 = box
    state_time: dict[tuple[int, ...], float]
    seed: int
    rates: RatePoint
    batches: int

    def empirical_distribution(self) -> dict[tuple[int, ...], float]:
        if self.elapsed <= 0:
            return {}
        return {k: v / self.elapsed for k, v in self.state_time.items()}


def simulate(
    L: int,
    n: int,
    rates: RatePoint,
    seed: int,
    events: int | None = None,
    time_horizon: float | None = None,
    batches: int = 20,
    start: ColoredWord | None = None,
) -> tuple[SimState, CrossingLedger]:
    """Run the chain from `start` (default: the reference basic state).

    Exactly one of `events` (at least 1 and at least `batches`) and a
    finite positive `time_horizon` sets the run length.  With a time
    horizon the batches are equal time slabs; with an event horizon they
    are equal event counts and the recorded slab durations feed the
    batch-means errors.
    """
    if (events is None) == (time_horizon is None):
        raise ValueError("specify exactly one of events= or time_horizon=")
    if rates.n != n:
        raise ValueError("rate point has wrong number of rows")
    if batches < 1:
        raise ValueError("need at least one batch")
    if events is not None and events < 1:
        raise ValueError(f"need at least one event, got {events}")
    if events is not None and batches > events:
        raise ValueError(f"more batches ({batches}) than events ({events})")
    if time_horizon is not None and not (math.isfinite(time_horizon) and time_horizon > 0):
        raise ValueError(f"time horizon must be finite and positive, got {time_horizon}")
    p, q = rates.as_floats()
    word = (start or tau_zero(L, n)).letters
    rng = np.random.Generator(np.random.PCG64(seed))
    ledger = CrossingLedger.empty(L, n, batches)
    occupancy = np.zeros((batches, 2, n, L), dtype=np.float64)
    state_time: dict[tuple[int, ...], float] = {}
    arrays = (ledger.bullet_edge, ledger.box_edge, ledger.box_jump, ledger.row_up, ledger.row_down)
    cache: dict[tuple[int, ...], _CompiledState] = {}

    t = 0.0
    ev = 0
    slab_len = (time_horizon / batches) if time_horizon is not None else None

    while True:
        comp = cache.get(word)
        if comp is None:
            comp = _compile_state(word, n, p, q)
            cache[word] = comp
        if comp.total <= 0.0:
            break
        dt = rng.exponential(1.0 / comp.total)
        u = rng.random() * comp.total
        idx = min(int(np.searchsorted(comp.cum, u, side="right")), len(comp.targets) - 1)

        if events is not None:
            b = ev * batches // events
            occupancy[b, comp.occ_species, comp.occ_rows, comp.occ_cols] += dt
            ledger.batch_time[b] += dt
            state_time[word] = state_time.get(word, 0.0) + dt
            t += dt
            for channel, row, col, sign in comp.crossings[idx]:
                if channel == CH_BOX_JUMP:
                    arrays[channel][b, col] += sign
                elif channel >= CH_ROW_UP:
                    arrays[channel][b, row] += sign
                else:
                    arrays[channel][b, row, col] += sign
            word = comp.targets[idx]
            ev += 1
            if ev == events:
                break
        else:
            t_new = t + dt
            t_stop = min(t_new, time_horizon)
            state_time[word] = state_time.get(word, 0.0) + (t_stop - t)
            t0 = t
            while t0 < t_stop:
                b = min(int(t0 / slab_len), batches - 1)
                edge = (b + 1) * slab_len if b < batches - 1 else time_horizon
                if edge <= t0:
                    # float round-off put t0 on or past its slab edge
                    b = min(b + 1, batches - 1)
                    edge = (b + 1) * slab_len if b < batches - 1 else time_horizon
                seg_end = min(t_stop, edge)
                occupancy[b, comp.occ_species, comp.occ_rows, comp.occ_cols] += seg_end - t0
                ledger.batch_time[b] += seg_end - t0
                t0 = seg_end
            if t_new >= time_horizon:
                t = time_horizon
                break
            b = min(int(t_new / slab_len), batches - 1)
            for channel, row, col, sign in comp.crossings[idx]:
                if channel == CH_BOX_JUMP:
                    arrays[channel][b, col] += sign
                elif channel >= CH_ROW_UP:
                    arrays[channel][b, row] += sign
                else:
                    arrays[channel][b, row, col] += sign
            word = comp.targets[idx]
            ev += 1
            t = t_new

    state = SimState(
        word=ColoredWord(n, word),
        elapsed=t,
        events=ev,
        occupancy=occupancy,
        state_time=state_time,
        seed=seed,
        rates=rates,
        batches=batches,
    )
    return state, ledger


def run_manifest(state: SimState, ledger: CrossingLedger) -> dict:
    """Deterministic run summary (model time, not wall-clock time)."""
    return {
        "L": ledger.L,
        "n": ledger.n,
        "rates": state.rates.to_json_dict(),
        "seed": state.seed,
        "events": state.events,
        "elapsed_model_time": state.elapsed,
        "batches": state.batches,
    }


# -- estimators -----------------------------------------------------------------------


@dataclass
class EstimatedValue:
    value: float
    stderr: float
    low_batches: bool = False

    def within(self, reference: float, sigmas: float = 3.0) -> bool:
        return abs(self.value - reference) <= sigmas * max(self.stderr, 1e-300)


@dataclass
class EstimateReport:
    L: int
    n: int
    elapsed: float
    batches: int
    currents: dict[tuple[str, tuple[int, ...]], EstimatedValue]
    densities: dict[tuple[str, tuple[int, ...]], EstimatedValue]

    def current(self, name: str, *index: int) -> EstimatedValue:
        return self.currents[(name, tuple(index))]

    def density(self, name: str, *index: int) -> EstimatedValue:
        return self.densities[(name, tuple(index))]

    def to_json_rows(self) -> list[dict]:
        rows = []
        for group, table in (("current", self.currents), ("density", self.densities)):
            for (name, index), est in sorted(table.items()):
                rows.append(
                    {
                        "kind": group,
                        "observable": name,
                        "index": list(index),
                        "estimate": est.value,
                        "stderr": est.stderr,
                    }
                )
        return rows


def _batch_estimate(counts: np.ndarray, batch_time: np.ndarray, elapsed: float) -> EstimatedValue:
    """Point estimate total/elapsed with a batch-means standard error."""
    batches = len(batch_time)
    valid = batch_time > 0
    rates = np.zeros(batches, dtype=np.float64)
    rates[valid] = counts[valid] / batch_time[valid]
    value = float(counts.sum() / elapsed) if elapsed > 0 else 0.0
    if valid.sum() >= 2:
        stderr = float(np.std(rates[valid], ddof=1) / math.sqrt(valid.sum()))
    else:
        stderr = float("inf")
    low = valid.sum() < 20
    if low and math.isfinite(stderr):
        stderr *= 2.0
    return EstimatedValue(value, stderr, low)


def estimate_observables(ledger: CrossingLedger, state: SimState) -> EstimateReport:
    """Densities from time-weighted occupancy, currents from crossing rates.

    Per-row horizontal box currents average the label-preserving crossings
    over the L boundaries; column currents include the jumper crossings.
    Standard errors come from batch means over the run's slabs.
    """
    if state.elapsed <= 0:
        raise ValueError("simulation has zero elapsed time")
    L, n = ledger.L, ledger.n
    T = state.elapsed
    bt = ledger.batch_time
    currents: dict[tuple[str, tuple[int, ...]], EstimatedValue] = {}
    densities: dict[tuple[str, tuple[int, ...]], EstimatedValue] = {}

    for i in range(n):
        for j in range(L):
            currents[("bullet_edge_current", (i + 1, j + 1))] = _batch_estimate(
                ledger.bullet_edge[:, i, j], bt, T
            )
        currents[("bullet_row_current", (i + 1,))] = _batch_estimate(
            ledger.bullet_edge[:, i, :].sum(axis=1), bt, T
        )
        currents[("box_vertical_up", (i + 1,))] = _batch_estimate(ledger.row_up[:, i], bt, T)
        currents[("box_vertical_down", (i + 1,))] = _batch_estimate(ledger.row_down[:, i], bt, T)
        currents[("box_vertical_net", (i + 1,))] = _batch_estimate(
            ledger.row_up[:, i] - ledger.row_down[:, i], bt, T
        )
        currents[("box_row_current", (i + 1,))] = _batch_estimate(
            ledger.box_edge[:, i, :].sum(axis=1) / L, bt, T
        )
    for j in range(L):
        currents[("box_column_current", (j + 1,))] = _batch_estimate(
            ledger.box_edge[:, :, j].sum(axis=1) + ledger.box_jump[:, j], bt, T
        )

    for species, name in ((0, "bullet_density"), (1, "box_density")):
        for i in range(n):
            for j in range(L):
                densities[(name, (i + 1, j + 1))] = _batch_estimate(
                    state.occupancy[:, species, i, j], bt, T
                )

    return EstimateReport(L, n, T, state.batches, currents, densities)


def tv_distance(state: SimState, exact_probabilities: dict[tuple[int, ...], Fraction]) -> float:
    """Total-variation distance between the time-averaged empirical law and
    an exact distribution keyed by letter tuples."""
    empirical = state.empirical_distribution()
    keys = set(empirical) | set(exact_probabilities)
    return 0.5 * sum(
        abs(empirical.get(k, 0.0) - float(exact_probabilities.get(k, 0))) for k in keys
    )
