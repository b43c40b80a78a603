"""Continuous-time Monte Carlo over the exact dynamics, with crossing ledgers.

The run is Gillespie sampling in the n-fold-way form (Bortz, Kalos and
Lebowitz 1975; Gillespie 1977), made in two parts: an interpreted kernel
that only draws and moves, and one vectorised pass per chunk of
`_FLUSH_SEGMENTS` moves that writes what the moves did.

The kernel holds the state as its n gap words: gap k lists the box labels
between bullet k and bullet k + 1 in column order.  The bullets' rates
depend only on which gaps are empty (bullet j's forward move and bullet
j + 1's backward move are enabled exactly when gap j is not), which is
why the bullets alone make Evans' disordered ring ASEP (Europhys. Lett.
1996).  The bitmask of enabled moves (per bullet, forward then backward,
by label) changes only in the two gaps next to the bullet that moved.  The
moves, total rate (numpy's sum) and cumulative rates of a mask form its
menu, built on the first event that meets the mask and kept in a table
that is cleared once it holds `_MENU_LIMIT` menus.  An event takes an
exponential holding time at the total rate and a uniform that picks a
move in proportion to its rate, and makes the move on the gap words.
Bullet k steps by d onto the near letter of the gap ahead (gap k forward,
gap k - 1 backward), a box of row i, and rotates one run of cells
(`dynamics`): the box goes to the gap behind, to its near end as itself
(F1, B1: i != k) or, past the m boxes of that gap, to its far end
relabelled k - d (F2, B2: i = k, the jumper).  The kernel logs only the
holding time, the move with the letter it popped and, for F2 and B2, the
shifted gap's letters before the move.  Under a time horizon it also
sums the holding times, to stop the run.

The columns are a function of that move sequence.  The pass takes the
holdings from a running sum of their times, cut at the slab edges under a
time horizon (`_cut`), the bullet columns from a running sum of the
moves, and writes a ledger of signed column-boundary crossings:

* bullet crossings, per (row, boundary);
* label-preserving box crossings, per (row, boundary) - these are the swap
  moves and the shifting blocks, whose row is well defined;
* label-changing box crossings (the relabelled jumper), per boundary only,
  since the jumper changes row mid-transition: one range add on a doubled
  difference row per batch, folded at the end of the run;
* per-row counts of the nonlocal forward moves (box row k -> k-1, "up") and
  backward moves (box row k -> k+1, "down").

It then rebuilds each column's letters over the chunk as runs, from the
letters each move changes, and one `np.add.at` adds each holding-time
segment to the cell of each column in time order.  The batch times are
added in time order too, so every float is the one an add per event
gives.  An event costs O(1) interpreted steps plus a copy of the shifted
gap, and O(L) array work in the pass, as does each slab edge a holding
passes; no per-state object is built or cached, so a run's memory does
not grow with its length.  A ledger of more cells than
`dynamics.state_cap()` is refused before it is allocated.  Only a run
made with `record_states=True` keeps the time spent in each visited
state (`state_time`, read by `empirical_distribution` and `tv_distance`);
that record grows with the number of distinct states visited.  Column
currents use all box crossings; per-row horizontal currents use only the
label-preserving ones, matching the exact-observable conventions.  Runs
are reproducible: a fixed (seed, parameters) pair yields an identical
event sequence, ledger, and occupancy record.  Event i takes element
i mod `_DRAWS` of block i div `_DRAWS` that `PCG64(seed)` draws whole:
`_DRAWS` standard exponentials (over the total rate, its holding time),
then `_DRAWS` uniforms.  So the variates depend on the seed alone; runs
made with the earlier rule, two draws per event, do not reproduce.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count

import numpy as np

from .dynamics import ResourceCapError, boxes_shifted, state_cap
from .model import ColoredWord, _check_dims
from .symbolic import RatePoint


_MENU_LIMIT = 4096  # menus kept per run; the table is cleared when it is full
_FLUSH_SEGMENTS = 256  # moves logged between passes of the ledger and occupancy writer
_DRAWS = 256  # events per block of variates drawn from the run's generator


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
    horizon the batches are equal time slabs, each time_horizon / batches
    long, which must be positive; with an event horizon they are equal
    event counts and the recorded slab durations feed the batch-means errors.
    With `record_states` the run also keeps the time spent in each visited
    state as `SimState.state_time`, which grows with the number of distinct
    states visited; otherwise `state_time` is None.  The setting changes no
    other output.
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
    if time_horizon is not None and not time_horizon / batches > 0:
        raise ValueError(f"time horizon {time_horizon} over {batches} batches leaves slabs of length 0")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_dims(L, n)
    cells, cap = batches * ((4 * n + 2) * L + 2 * n + 1), state_cap()
    if cells > cap:  # checked before anything of that size is allocated
        raise ResourceCapError(cells, cap, "the run's ledger has {} cells")
    p, q = rates.as_floats()
    # The gap words: gap k holds, in column order, the codes n + i of the
    # boxes of row i + 1 between bullet k and bullet k + 1 (0-based labels;
    # bullet k's code is k).  tau_zero's boxes all sit in the last gap.
    words = [deque() for _ in range(n)]
    words[-1].extend([2 * n - 1] * (L - n))
    # Gap j gates bullet j's forward move and bullet j + 1's backward move,
    # on bits numbered by the candidate moves in transition order.
    candidates = [(k, d, r) for k in range(n) for d, r in ((1, p[k]), (-1, q[k])) if r > 0.0]
    gate = [0] * n
    for i, (k, d, _) in enumerate(candidates):
        gate[k - (d < 0)] |= 1 << i
    # Per candidate, what the kernel needs to make it: its log tag, the
    # jumper's code, the pop, the swap's push, the gap a nonlocal move
    # shifts, its landing push and letter, and the mask update.  Bullet k
    # steps by d into gap g and pops the near end; the gap behind it, h,
    # takes a swapped box at its near end or a landing at its far end.  The
    # popped gap may empty; the other one then holds a box.
    actions = []
    for k, d, rate in candidates:
        back = d < 0
        g, h = k - back, k - 1 + back
        near, far = (words[h].append, words[h].appendleft)[::d]
        # A move logs (2k + 1 if backward) * n + the popped letter's row.
        act = ((2 * k + back) * n - n, n + k, words[g].pop if back else words[g].popleft, near, words[h], far,
               n + (k - d) % n, words[g], ~(gate[k] | gate[k - 1]), gate[h], gate[g])
        actions.append((rate, act))
    mask = sum(g for g, word in zip(gate, words) if word)  # no two gates share a bit
    menus: dict[int, tuple[list, float, float, list[float]]] = {}  # enabled mask -> menu
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = (zip(rng.standard_exponential(_DRAWS).tolist(), rng.random(_DRAWS).tolist()) for _ in count())
    draws = chain.from_iterable(blocks)  # (exponential, uniform) per event
    occupancy = np.zeros((batches, 2, n, L), dtype=np.float64)
    # Per batch, the signed crossings of bullets and of label-preserving
    # boxes per (row, boundary), the jumpers' crossings as differences over
    # two laps, and the nonlocal moves per (row, up or down).
    nL, width = n * L, 2 * n * L + 2 * L + 2 * n
    counts = np.zeros((batches, width), dtype=np.int64)
    batch_time = np.zeros(batches, dtype=np.float64)
    state_time: dict[tuple[int, ...], float] | None = {} if record_states else None
    stride = 2 * nL  # occupancy cells per batch; code c in column x is cell c * L + x
    columns = np.arange(L)
    letter_of = np.array([*range(1, n + 1), *range(-1, -n - 1, -1)])  # code -> letter
    pos = np.arange(n)  # tau_zero's bullets fill columns 0 .. n - 1
    # The log since the last pass: per event, its holding time; per move,
    # its tag plus the popped letter; per nonlocal move, the letters of the
    # gap it shifts, as they stood before it.
    timed = events is None
    held: list[float] = []
    moved: list[int] = []
    shifts: list[int] = []

    def settle() -> None:
        """Write the logged moves into the ledger and the occupancy, then
        clear the log.  Every float is added in time order."""
        nonlocal pos, t
        H, E = len(held), len(moved)
        if not H:
            return
        dts = np.array(held)
        times = np.cumsum(np.concatenate(([t], dts)))  # the holdings' starts, then the last one's end
        t = float(times[-1])
        spent = dts  # each holding's time in its state
        if timed:  # per segment, its holding, batch and duration
            spent, seg_h, seg_b, dts, move_b = _cut(times, time_horizon, batches)
        else:  # move e of the run is in batch e * batches // events
            seg_b = move_b = np.arange(ev - E, ev) * batches // events
        np.add.at(batch_time, seg_b, dts)
        move, row = np.divmod(np.array(moved, dtype=np.int64), n)
        k, back = np.divmod(move, 2)
        d, against = 1 - 2 * back, 2 * back - 1  # the bullet's step and its opposite
        # The bullet columns before each move, from the running sum of the moves.
        steps = np.zeros((E, n), dtype=np.int64)
        steps[np.arange(E), k] = d
        before = pos + np.cumsum(steps, axis=0) - steps
        if E:
            pos = (before[-1] + steps[-1]) % L
        x0 = before[np.arange(E), k] % L
        # A nonlocal move shifts by d the m boxes between its bullet and
        # bullet k - d; a swap shifts none.
        jumps = ~(row - k).astype(bool)  # the popped letter is the jumper
        m = boxes_shifted(x0, before[np.arange(E), (k - d) % n], d, jumps, n, L)
        # A move rewrites the m + 2 columns from `first` on.  Forward they
        # held (gap, bullet, c) and hold (landing, gap, bullet); backward
        # (c, bullet, gap) becomes (bullet, gap, landing).  The popped
        # letter c lands as itself after a swap and with its row moved by
        # -d after a nonlocal move.  So in the move's sequence of m + 3
        # letters, (landing, gap, bullet, c) or (c, bullet, gap, landing),
        # column first + i has its old and new letters at places i and i + 1.
        first = x0 - back - m * (1 - back)
        size = m + 3
        start = np.cumsum(size) - size
        owner = np.repeat(np.arange(E), size)
        col = (first[owner] + np.arange(len(owner)) - start[owner]) % L
        bullet_at = start + 1 + m * (1 - back)
        popped_at, landing_at = start + (1 - back) * (m + 2), start + back * (m + 2)
        gap = np.ones(len(owner), dtype=bool)
        gap[bullet_at] = gap[popped_at] = gap[landing_at] = False
        sequence = np.empty(len(owner), dtype=np.int64)
        sequence[gap] = shifts
        sequence[bullet_at] = k
        sequence[popped_at] = row + n
        sequence[landing_at] = n + (row - d * jumps) % n
        # The crossings, as (cell of `counts`, sign) records.  Each move has
        # five: its bullet's, the swapped box's, the two ends of the
        # jumper's walk (against d from the bullet's new column to its
        # landing cell, across the m + 1 boundaries from `first` on) and its
        # row move.  Those a move does not make have sign 0: numpy keeps
        # freed buffers under 1 KB by size, and arrays of the swaps or the
        # jumps alone, whose lengths change from chunk to chunk, would pile
        # up there.  Each shifted box crosses one boundary in its row: a gap
        # letter at the place of column x crosses boundary x - 1.
        base = move_b * width
        edge = (x0 - back) % L
        lower = base + 2 * nL + first % L
        index = [
            base + k * L + edge,
            base + nL + row * L + edge,
            lower,
            lower + m + 1,
            base + 2 * nL + 2 * L + 2 * k + back,
            base[owner[gap]] + nL + (sequence[gap] - n) * L + (col[gap] - 1) % L,
        ]
        sign = [d, against * ~jumps, against * jumps, d * jumps, jumps, d[owner[gap]]]
        np.add.at(counts.reshape(-1), np.concatenate(index), np.concatenate(sign))
        # Each letter that leaves its column, in time order with the move it
        # leaves at, then the letters standing at the end, as cells c * L + x.
        window = np.ones(len(owner), dtype=bool)  # a move's last place is no column's old letter
        window[start + size - 1] = False
        at = np.flatnonzero(window[:-1] & np.diff(sequence).astype(bool))
        col = np.concatenate([col[at], columns])
        cell = np.concatenate([sequence[at + 1 - back[owner[at]]], _word(words, pos)]) * L + col
        # A column's letters tile its holdings: the one that leaves at move
        # e held the column up to holding e, from where the one before it
        # left; the letter standing at the end holds it to the last holding.
        until = col * H + np.concatenate([owner[at] + 1, np.full(L, H)])
        # Grouped by column in time order, a letter standing at the end
        # after one that leaves at the last holding; the smallest key type
        # makes numpy's stable sort a radix sort.
        order = np.argsort(until.astype(np.min_scalar_type(L * H)), kind="stable")
        states = np.repeat(cell[order], np.diff(until[order], prepend=0)).reshape(L, H)
        if state_time is not None:
            for w, h in zip(map(tuple, letter_of[states.T // L].tolist()), spent.tolist()):
                state_time[w] = state_time.get(w, 0.0) + h
        if timed:
            states = states[:, seg_h]
        np.add.at(occupancy.reshape(-1), (states + seg_b * stride).reshape(-1), np.tile(dts, L))
        for log in (held, moved, shifts):
            log.clear()

    t = clock = 0.0
    ev = 0
    log_held, log_move, log_shift = held.append, moved.append, shifts.extend
    limit = math.inf if timed else events
    stop = min(_FLUSH_SEGMENTS, limit)
    while mask:
        menu = menus.get(mask)
        if menu is None:
            enabled = [a for i, a in enumerate(actions) if mask >> i & 1]
            move_rates = [a[0] for a in enabled]
            total = float(np.sum(move_rates))
            # The last move repeats: a draw at or past the last cumulative
            # rate, which float round-off allows, picks it.
            menu = ([a[1] for a in enabled + enabled[-1:]], 1.0 / total, total, list(accumulate(move_rates)))
            if len(menus) >= _MENU_LIMIT:
                menus.clear()
            menus[mask] = menu
        moves, scale, total, cumulative = menu
        e, u = next(draws)
        dt = e * scale
        tag, jumper, pop, push, block, land, relabel, source, keep, gained, kept = moves[
            bisect_right(cumulative, u * total)
        ]
        log_held(dt)
        if timed:
            clock += dt
            if clock >= time_horizon:
                break
        c = pop()
        if c != jumper:
            push(c)
        else:
            log_shift(block)
            land(relabel)
        log_move(tag + c)
        mask = mask & keep | gained | (kept if source else 0)
        ev += 1
        if ev == stop:
            if ev == limit:
                break
            settle()
            stop = min(ev + _FLUSH_SEGMENTS, limit)
    settle()
    bullet_edge, box_edge, jump, row_moves = np.split(counts, [nL, 2 * nL, 2 * nL + 2 * L], axis=1)
    laps = jump.cumsum(axis=1)
    ledger = CrossingLedger(
        L=L,
        n=n,
        batches=batches,
        bullet_edge=bullet_edge.reshape(batches, n, L).copy(),
        box_edge=box_edge.reshape(batches, n, L).copy(),
        box_jump=laps[:, :L] + laps[:, L:],
        row_up=row_moves[:, 0::2].copy(),
        row_down=row_moves[:, 1::2].copy(),
        batch_time=batch_time,
    )
    state = SimState(
        word=ColoredWord(n, tuple(letter_of[_word(words, pos)].tolist())),
        elapsed=min(t, time_horizon) if timed else t,
        events=ev,
        occupancy=occupancy,
        state_time=state_time,
        seed=seed,
        rates=rates,
        batches=batches,
    )
    return state, ledger


def _cut(times: np.ndarray, time_horizon: float, batches: int) -> tuple[np.ndarray, ...]:
    """Cut the holdings from times[i] to times[i + 1], stopped at the horizon
    T, at the ends of the B equal slabs, float for float as a loop over the
    pieces: a piece from t0 is in slab b = min(int(t0 / (T/B)), B - 1), or
    in b + 1 when round-off puts slab b's end on or before t0.  Returns each
    holding's time in its state; per piece, its holding, slab and length;
    per move (a holding that ends before T), the slab of its end."""
    width = time_horizon / batches
    edge = np.append(np.arange(1, batches) * width, time_horizon)  # slab b ends at edge[b]
    starts, stops = times[:-1], np.minimum(times[1:], time_horizon)
    first = np.minimum((starts / width).astype(np.int64), batches - 1)
    first += edge[first] <= starts  # a start is below T, so the last slab has no next
    # The last piece is in the first slab from `first` on that ends at or after the stop.
    pieces = np.where(starts < stops, np.maximum(first, np.searchsorted(edge[:-1], stops)) - first + 1, 0)
    owner = np.repeat(np.arange(len(starts)), pieces)
    slab = np.arange(len(owner)) + (first - np.cumsum(pieces) + pieces)[owner]
    lengths = np.minimum(stops[owner], edge[slab]) - np.where(slab == first[owner], starts[owner], edge[slab - 1])
    moves = stops[stops < time_horizon]
    return stops - starts, owner, slab, lengths, np.minimum((moves / width).astype(np.int64), batches - 1)


def _word(words: list[deque], pos: np.ndarray) -> np.ndarray:
    """The codes of the word whose gap words are `words` and whose bullet 1
    stands in column pos[0]."""
    return np.roll(np.array([*chain.from_iterable((j, *w) for j, w in enumerate(words))]), pos[0])


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
