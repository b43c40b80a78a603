"""Continuous-time Monte Carlo over the exact dynamics, with crossing ledgers.

The event loop is Gillespie sampling in the n-fold-way form (Bortz, Kalos
and Lebowitz 1975; Gillespie 1977).  The state lives in place: a mutable
letter list, the bullet column of each label, and the n gap lengths (the
boxes between bullet j and bullet j + 1).  Bullet j's forward move and
bullet j + 1's backward move are enabled exactly when gap j is not empty,
so the bitmask of enabled moves (per bullet, forward then backward, by
label) changes only in the two gaps next to the bullet that moved.  The
moves, total rate (numpy's sum) and cumulative rates of a mask form its
menu, built on the first event that meets the mask and kept in a table
that is cleared once it holds `_MENU_LIMIT` menus.  The event draws an
exponential holding time at the total rate, picks a move in proportion to
its rate, and rewrites only the cells that move touches: two cells for a
swap (F1, B1), the shifted gap block plus the bullet and the relabelled
jumper for a nonlocal move (F2, B2).  The crossings are written straight
from that geometry into a ledger of signed column-boundary crossings:

* bullet crossings, per (row, boundary);
* label-preserving box crossings, per (row, boundary) - these are the swap
  moves and the shifting blocks, whose row is well defined;
* label-changing box crossings (the relabelled jumper), per boundary only,
  since the jumper changes row mid-transition: one range add on a doubled
  difference row per batch, folded at the end of the run;
* per-row counts of the nonlocal forward moves (box row k -> k-1, "up") and
  backward moves (box row k -> k+1, "down").

The occupancy is logged: each holding-time segment with its batch, and
each letter as it leaves its column.  Every `_FLUSH_SEGMENTS` segments one
`np.add.at` adds each segment to the cell of each column in time order,
the same float adds as one add per event.  An event costs O(1) interpreted
steps plus the shifted block, and O(L) array work per segment at a flush;
no per-state object is built or cached, so a run's memory does not grow
with its length.  A ledger of more cells than `dynamics.state_cap()` is
refused before it is allocated.  Only a run made with `record_states=True`
keeps the time spent in each visited state (`state_time`, read by
`empirical_distribution` and `tv_distance`); that record grows with the
number of distinct states visited.  Column currents use all box crossings;
per-row horizontal currents use only the label-preserving ones, matching
the exact-observable conventions.  Runs are reproducible: a fixed (seed,
parameters) pair yields an identical event sequence, ledger, and occupancy
record.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .dynamics import ResourceCapError, block_move, state_cap, tau_zero
from .model import ColoredWord, _check_dims, gap_lengths
from .symbolic import RatePoint


_MENU_LIMIT = 4096  # menus kept per run; the table is cleared when it is full
_FLUSH_SEGMENTS = 256  # holding-time segments logged between occupancy flushes


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

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["channel", "row", "boundary", "count"]]
        for name, array in (("bullet_edge", self.bullet_edge), ("box_edge", self.box_edge)):
            totals = array.sum(axis=0)
            for i in range(self.n):
                for j in range(self.L):
                    rows.append([name, str(i + 1), str(j + 1), str(int(totals[i, j]))])
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
    state_time: dict[tuple[int, ...], float] | None  # None unless record_states
    seed: int
    rates: RatePoint
    batches: int

    def empirical_distribution(self) -> dict[tuple[int, ...], float]:
        if self.state_time is None:
            raise ValueError("the run kept no per-state times; simulate it with record_states=True")
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
    record_states: bool = False,
) -> tuple[SimState, CrossingLedger]:
    """Run the chain from the reference basic state `tau_zero(L, n)`.

    Exactly one of `events` (at least 1 and at least `batches`) and a
    finite positive `time_horizon` sets the run length.  With a time
    horizon the batches are equal time slabs; with an event horizon they
    are equal event counts and the recorded slab durations feed the
    batch-means errors.  With `record_states` the run also keeps the time
    spent in each visited state as `SimState.state_time`, which grows with
    the number of distinct states visited; otherwise `state_time` is None.
    The setting changes no other output.
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
    _check_dims(L, n)
    cells, cap = batches * ((4 * n + 1) * L + 2 * n + 1), state_cap()
    if cells > cap:  # checked before anything of that size is allocated
        raise ResourceCapError(cells, cap, "the run's ledger has {} cells")
    p, q = rates.as_floats()
    # The candidate moves in transition order: per bullet, forward then backward.
    candidates = [(k, d, r) for k in range(n) for d, r in ((1, p[k]), (-1, q[k])) if r > 0.0]
    # Gap j gates bullet j's forward move and bullet j + 1's backward move.
    gate = [0] * n
    for i, (k, d, _) in enumerate(candidates):
        gate[k if d > 0 else k - 1] |= 1 << i
    keep = [~(gate[k] | gate[k - 1]) for k in range(n)]
    menus: dict[int, tuple[list, float, list[float]]] = {}  # enabled mask -> menu
    letters = list(tau_zero(L, n).letters)
    pos = list(range(n))  # tau_zero's bullets fill columns 0 .. n - 1
    gaps = gap_lengths(pos, L)
    mask = sum(g for g, gap in zip(gate, gaps) if gap)  # no two gates share a bit
    nL = n * L
    # Cell of letter c in column x, flat over one batch of `occupancy`, is
    # base[c] + x: bullets c > 0 first, then boxes, which index from the end.
    base = [0] * (2 * n + 1)
    for c in range(1, n + 1):
        base[c] = (c - 1) * L
        base[-c] = nL + (c - 1) * L
    rng = np.random.Generator(np.random.PCG64(seed))
    occupancy = np.zeros((batches, 2, n, L), dtype=np.float64)
    bullet_edge = [0] * (batches * nL)
    box_edge = [0] * (batches * nL)
    jump = [0] * (batches * 2 * L)  # differences of the jumper crossings, two laps per batch
    row_up = [0] * (batches * n)
    row_down = [0] * (batches * n)
    batch_time = [0.0] * batches
    state_time: dict[tuple[int, ...], float] | None = {} if record_states else None
    # The occupancy log since the last flush: each holding-time segment's
    # duration and batch offset, and one entry per letter that has left its
    # column, e * stride + cell for its cell and the segment e it left at.
    # A column's letters follow one another, so each entry's run of
    # segments starts where the column's previous entry ended.
    stride = 2 * nL
    seg_dt: list[float] = []
    seg_at: list[int] = []
    runs: list[int] = []

    def flush() -> None:
        """Add every logged segment to the occupancy of each cell it held,
        column by column in time order, as one add per segment and column."""
        segments = len(seg_dt)
        runs.extend(segments * stride + base[c] + x for x, c in enumerate(letters))
        end, cell = np.divmod(np.array(runs, dtype=np.int64), stride)
        order = np.argsort(cell % L, kind="stable")
        cell = cell[order]
        # Each column's runs tile its segments: a run's length is its end
        # less the previous end in the column, or 0 at the column's start.
        spans = np.diff(cell % L * segments + end[order], prepend=0)
        np.add.at(
            occupancy.reshape(-1),
            np.repeat(cell, spans) + np.tile(np.array(seg_at, dtype=np.int64), L),
            np.tile(np.array(seg_dt), L),
        )
        seg_dt.clear()
        seg_at.clear()
        runs.clear()

    t = 0.0
    ev = 0
    slab_len = (time_horizon / batches) if time_horizon is not None else None

    exponential, uniform = rng.exponential, rng.random
    full = _FLUSH_SEGMENTS * stride
    while mask:
        menu = menus.get(mask)
        if menu is None:
            moves = [m for i, m in enumerate(candidates) if mask >> i & 1]
            move_rates = [m[2] for m in moves]
            # The last move repeats: a draw at or past the last cumulative
            # rate, which float round-off allows, picks it.
            menu = (moves + moves[-1:], float(np.sum(move_rates)), list(accumulate(move_rates)))
            if len(menus) >= _MENU_LIMIT:
                menus.clear()
            menus[mask] = menu
        moves, total, cumulative = menu
        dt = exponential(1.0 / total)
        u = uniform() * total
        k, d, _ = moves[bisect_right(cumulative, u)]

        if events is not None:
            b = ev * batches // events
            seg_dt.append(dt)
            seg_at.append(b * stride)
            batch_time[b] += dt
            if state_time is not None:
                word = tuple(letters)
                state_time[word] = state_time.get(word, 0.0) + dt
            t += dt
        else:
            t_new = t + dt
            t_stop = min(t_new, time_horizon)
            if state_time is not None:
                word = tuple(letters)
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
                seg_dt.append(seg_end - t0)
                seg_at.append(b * stride)
                batch_time[b] += seg_end - t0
                t0 = seg_end
            if t_new >= time_horizon:
                t = time_horizon
                break
            b = min(int(t_new / slab_len), batches - 1)
            t = t_new

        # Bullet k moves by d = +1 (F1/F2) or -1 (B1/B2); its crossings go
        # to batch b, and each column whose letter changes logs that letter.
        now = len(seg_dt) * stride
        x0 = pos[k]
        x1 = (x0 + d) % L
        edge = x0 if d > 0 else x1  # the boundary the bullet crosses
        bullet_edge[b * nL + k * L + edge] += d
        c = letters[x1]
        runs.append(now + base[c] + x1)
        if c != -k - 1:  # F1/B1: the box swaps back across the same boundary
            runs.append(now + base[k + 1] + x0)
            letters[x0] = c
            box_edge[b * nL + (-c - 1) * L + edge] -= d
        else:  # F2/B2
            first, length, landing, label = block_move(pos, k + 1, d, L)
            at = b * nL - nL  # at + base[c] + x: box c's crossing of boundary x
            # Each block box crosses one boundary in its own row; walk the
            # block from its leading end so no cell is overwritten unread.
            for i in range(length - 1, -1, -1) if d > 0 else range(length):
                x = (first + i) % L
                y = (x + d) % L
                c = letters[x]
                if letters[y] != c:
                    runs.append(now + base[letters[y]] + y)
                    letters[y] = c
                box_edge[at + base[c] + (x if d > 0 else y)] += d
            if letters[landing] != -label:
                runs.append(now + base[letters[landing]] + landing)
                letters[landing] = -label
            # The jumper walks against d from x1 to its landing cell, across
            # the boundaries from the lower end of its walk on.
            lower = b * 2 * L + (landing if d > 0 else x1)
            jump[lower] -= d
            jump[lower + (x1 - landing) * d % L] += d
            (row_up if d > 0 else row_down)[b * n + k] += 1
        letters[x1] = k + 1
        pos[k] = x1
        gaps[k] -= d
        gaps[k - 1] += d
        mask = mask & keep[k] | (gaps[k] and gate[k]) | (gaps[k - 1] and gate[k - 1])
        ev += 1
        if ev == events:
            break
        if now >= full:
            flush()
    flush()
    laps = np.array(jump, dtype=np.int64).reshape(batches, 2 * L).cumsum(axis=1)

    ledger = CrossingLedger(
        L=L,
        n=n,
        batches=batches,
        bullet_edge=np.array(bullet_edge, dtype=np.int64).reshape(batches, n, L),
        box_edge=np.array(box_edge, dtype=np.int64).reshape(batches, n, L),
        box_jump=laps[:, :L] + laps[:, L:],
        row_up=np.array(row_up, dtype=np.int64).reshape(batches, n),
        row_down=np.array(row_down, dtype=np.int64).reshape(batches, n),
        batch_time=np.array(batch_time, dtype=np.float64),
    )
    state = SimState(
        word=ColoredWord(n, tuple(letters)),
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


def estimate_observables(ledger: CrossingLedger, state: SimState) -> EstimateReport:
    """Densities from time-weighted occupancy, currents from crossing rates.

    Per-row horizontal box currents average the label-preserving crossings
    over the L boundaries; column currents include the jumper crossings.
    Each point estimate is total/elapsed; its standard error comes from
    batch means over the run's slabs, doubled when fewer than 20 slabs
    have positive duration.  Every entry is computed from one (entries x
    batches) array, stacked from whole blocks of the ledger.
    """
    if state.elapsed <= 0:
        raise ValueError("simulation has zero elapsed time")
    L, n = ledger.L, ledger.n
    T = state.elapsed
    bt = ledger.batch_time
    up, down = ledger.row_up.T, ledger.row_down.T
    edge = ledger.bullet_edge.transpose(1, 2, 0)  # (row, boundary, batch)
    # Per row: its L edge currents, its row total, the three vertical
    # currents and its box row current.
    per_row = [edge, np.stack([edge.sum(axis=1), up, down, up - down, ledger.box_edge.sum(axis=2).T / L], axis=1)]
    # (entries x batches) in report order: the rows, the box columns, the
    # densities.  In C order, as if stacked row by row, so that the row sums
    # below add the same floats in the same order.
    columns = (ledger.box_edge.sum(axis=1) + ledger.box_jump).T
    blocks = [np.concatenate(per_row, axis=1), columns, state.occupancy.transpose(1, 2, 3, 0)]
    counts = np.ascontiguousarray(np.concatenate([b.reshape(-1, len(bt)) for b in blocks]), dtype=np.float64)
    row_names = ("bullet_row_current", "box_vertical_up", "box_vertical_down", "box_vertical_net", "box_row_current")
    keys = []  # (group, name, index) of each row of `counts`
    for i in range(1, n + 1):
        keys += [("current", "bullet_edge_current", (i, j)) for j in range(1, L + 1)]
        keys += [("current", name, (i,)) for name in row_names]
    keys += [("current", "box_column_current", (j,)) for j in range(1, L + 1)]
    sites = [(i, j) for i in range(1, n + 1) for j in range(1, L + 1)]
    keys += [("density", name, site) for name in ("bullet_density", "box_density") for site in sites]
    values = counts.sum(axis=1) / T
    valid = bt > 0
    num_valid = int(valid.sum())
    if num_valid >= 2:
        # Row sums of a C-contiguous array match numpy's 1-D sums bit for
        # bit; a boolean column selection returns Fortran order.
        batch_rates = np.ascontiguousarray(counts[:, valid]) / bt[valid]
        stderrs = np.std(batch_rates, axis=1, ddof=1) / math.sqrt(num_valid)
    else:
        stderrs = np.full(len(keys), np.inf)
    low = num_valid < 20
    if low:
        stderrs[np.isfinite(stderrs)] *= 2.0
    currents: dict[tuple[str, tuple[int, ...]], EstimatedValue] = {}
    densities: dict[tuple[str, tuple[int, ...]], EstimatedValue] = {}
    for (group, name, index), value, stderr in zip(keys, values.tolist(), stderrs.tolist()):
        table = currents if group == "current" else densities
        table[(name, index)] = EstimatedValue(value, stderr, low)
    return EstimateReport(L, n, T, state.batches, currents, densities)


def tv_distance(state: SimState, exact_probabilities: dict[tuple[int, ...], Fraction]) -> float:
    """Total-variation distance between the time-averaged empirical law and
    an exact distribution keyed by letter tuples; the run must have been
    made with `record_states=True`."""
    empirical = state.empirical_distribution()
    keys = set(empirical) | set(exact_probabilities)
    return 0.5 * sum(
        abs(empirical.get(k, 0.0) - float(exact_probabilities.get(k, 0))) for k in keys
    )
