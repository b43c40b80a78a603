"""Transition rules, generator assembly, and reachability machinery.

Transitions are always initiated by a bullet.  Bullet k, in column b
(0-based) on the ring, steps by d = +1 (F1/F2, rate p_k) or d = -1 (B1/B2,
rate q_k) onto the box of row i in cell b + d, if that cell holds a box.
The move rotates by d one run of cells: the bullet, the m boxes it shifts
and that box.  The bullet and the m boxes each move one cell by d; the box
walks against d to the far end of the run, cell b - d m.

* F1, B1 (i != k): m = 0, a swap, and the box keeps its label.
* F2, B2 (i = k): the m boxes are those between bullet k and bullet k - d
  (cyclically), and the box lands next to bullet k - d, relabelled k - d.

`boxes_shifted` gives m, and it is the one place where n = 1 is special:
bullet k - d is then bullet k itself, and m = L - 2, every other box.
Every transition carries per-particle displacement records; the signed step
of each record determines exactly which column boundaries the particle
crossed, which feeds the current estimators.

`build_generator` hands out the package's one transition graph of a lattice,
one state per rotation orbit: the move rule commutes with rotation and the
weights are rotation invariant, so it keeps the restricted states (B1 at
column 0), int arrays of their arcs (source, target, rate index, shift) and
the table of the arcs' boundary crossings, written in one pass over the move
rule with no per-arc object built.  The exact solver and the checks read the
arrays; the outputs that list full states expand the rotations when they
are written.  The package's one graph search, `breadth_first`, walks arc
arrays a frontier at a time; the reachability certificate and the exact
solver's closed-class search both run it.
The rule of the generator M, an arc's two signed ends, is written once in
`generator_ends`, and every table of M reads it.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .model import ColoredWord, box_gap_labels, ensure_valid, iter_restricted, restricted_count
from .symbolic import Domain, Monomial, SumTable, _frozen

DEFAULT_STATE_CAP = 2_000_000

F1, F2, B1, B2 = "F1", "F2", "B1", "B2"


class ResourceCapError(RuntimeError):
    """Raised when a requested state space, or a simulator run's ledger,
    exceeds the configured cap."""

    def __init__(self, count: int, cap: int, counted: str = "state space has {} states"):
        super().__init__(f"{counted.format(count)}, above the cap {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class Displacement:
    """One particle's move inside a transition.

    ``step`` is the signed number of ring steps actually walked, so
    ``pos_to == (pos_from + step) mod L``; its sign disambiguates the
    direction when the walk wraps around the seam.  ``jump`` marks the
    relabelled box of a nonlocal move, which changes row mid-flight (for a
    single row the relabelling is invisible, so the flag is authoritative).
    """

    species: str  # "bullet" | "box"
    label_from: int
    label_to: int
    pos_from: int
    pos_to: int
    step: int
    jump: bool = False


@dataclass(frozen=True)
class Transition:
    source: ColoredWord
    target: ColoredWord
    kind: str
    row: int
    rate_symbol: tuple[str, int]
    displacements: tuple[Displacement, ...]


def boxes_shifted(b, other, d, jump, n: int, L: int):
    """The number m of boxes that bullet k, in column b, shifts when it steps
    by d onto a box, `other` being the column of bullet k - d: the boxes
    between the two bullets when `jump` (the box is of row k), else none.
    For n = 1 bullet k - d is bullet k itself, and the box it steps onto is
    not among them.  Works alike on ints and elementwise on numpy arrays."""
    return ((d * (b - other) - 1) % L - (n == 1)) * jump


def _rotation(letters: tuple[int, ...], k: int, d: int, pos: tuple[int, ...]) -> tuple[list[int], int, list[int], int] | None:
    """The move of bullet k by d, or None if the cell it steps into holds a
    bullet: the new letters, the row i of the box it steps onto, the cells,
    in column order, of the m = `boxes_shifted` boxes, and the box's
    landing cell.  The move rotates by d the run of cells b - d m, ..., b,
    b + d, with b the bullet's column: the bullet and the shifted boxes
    each move one cell by d, and the box walks against d to the landing
    cell b - d m, relabelled k - d when i = k."""
    L, n = len(letters), len(pos)
    b = pos[k - 1]
    i = -letters[(b + d) % L]
    if i < 0:
        return None
    m = boxes_shifted(b, pos[(k - d - 1) % n], d, i == k, n, L)
    first = b - m if d > 0 else b + 1
    shifted = [x % L for x in range(first, first + m)]
    new = list(letters)
    new[(b + d) % L] = k
    for x in shifted:
        new[(x + d) % L] = letters[x]
    landing = (b - d * m) % L
    new[landing] = -((k - d - 1) % n + 1) if i == k else -i
    return new, i, shifted, landing


def _move(w: ColoredWord, k: int, d: int, pos: tuple[int, ...]) -> Transition | None:
    """The move of bullet k by d = +1 (F1/F2, rate p_k) or d = -1 (B1/B2,
    rate q_k) as a `Transition`, or None if the cell it steps into holds a
    bullet."""
    moved = _rotation(w.letters, k, d, pos)
    if moved is None:
        return None
    new, i, shifted, landing = moved
    L, b, m = w.length, pos[k - 1], len(shifted)
    x1 = (b + d) % L
    moves = [Displacement("bullet", k, k, b, x1, d)]
    moves += [Displacement("box", -w.letters[x], -w.letters[x], x, (x + d) % L, d) for x in shifted]
    moves.append(Displacement("box", i, -new[landing], x1, landing, -d * (m + 1), jump=i == k))
    kind = ((B1, B2), (F1, F2))[d > 0][i == k]
    return Transition(w, ColoredWord(w.n, tuple(new)), kind, k, ("p" if d > 0 else "q", k), tuple(moves))


def outgoing_transitions(w: ColoredWord) -> list[Transition]:
    """All transitions leaving w: per bullet label, forward then backward."""
    ensure_valid(w)
    return _transitions(w)


def _transitions(w: ColoredWord) -> list[Transition]:
    """`outgoing_transitions` of a word already known to be valid."""
    pos = w.bullet_positions()
    return [t for k in range(1, w.n + 1) for d in (1, -1) if (t := _move(w, k, d, pos)) is not None]


# -- generator -----------------------------------------------------------------


def state_cap() -> int:
    """The most states a graph may have: `TORUS_ASEP_STATE_CAP`, read on
    every call, or `DEFAULT_STATE_CAP` when it is unset or empty."""
    raw = os.environ.get("TORUS_ASEP_STATE_CAP")
    if not raw:
        return DEFAULT_STATE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TORUS_ASEP_STATE_CAP must be an integer, got {raw!r}") from None


def check_state_cap(L: int, n: int) -> None:
    """Raise ResourceCapError if the full (L, n) state space exceeds `state_cap()`."""
    count, cap = L * restricted_count(L, n), state_cap()
    if count > cap:
        raise ResourceCapError(count, cap)


def first_seen(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows of a 2-d array numbered in order of first appearance: the
    number of each row, and the index of the first row of each number."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse.ravel()], first[order]


class Arcs(NamedTuple):
    """Every arc of a graph, by source and then in move-rule order, as
    read-only int64 arrays: its source and target state, the index of its
    rate symbol (its position in an exponent tuple) and its shift, the
    steps B1 moves mod L."""

    source: np.ndarray
    target: np.ndarray
    rate: np.ndarray
    shift: np.ndarray


def rotated_pairs(arcs: Arcs, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The tail and head of each arc of `arcs` from every rotation s of its
    source, arc by arc, each state numbered r L + s: representative r
    rotated by s."""
    s = np.arange(L)
    return (arcs.source[:, None] * L + s).ravel(), (arcs.target[:, None] * L + (s + arcs.shift[:, None]) % L).ravel()


def generator_ends(tail: np.ndarray, head: np.ndarray, rate: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rule of the generator M = inflow - outflow: an arc tail -> head
    of rate r adds r at (head, tail) and takes r at (tail, tail).  Returns
    the two ends of each arc as (row, column, rate, sign) arrays, the added
    ends first; an arc whose head is its tail adds and takes at one place,
    and is dropped."""
    moves = tail != head
    tail, head, rate = tail[moves], head[moves], rate[moves]
    return np.concatenate([head, tail]), np.concatenate([tail, tail]), np.concatenate([rate, rate]), np.repeat([1, -1], len(tail))


def generator_entries(num: int, tail: np.ndarray, head: np.ndarray, rate: np.ndarray) -> tuple[np.ndarray, np.ndarray, SumTable]:
    """The entries of M over states 0 .. num - 1 that some arc reaches, by
    row and then column: their rows, their columns, and a `SumTable` with
    one slot per entry over one state of weight 1."""
    row, column, rate, sign = generator_ends(tail, head, rate)
    keys, entry = np.unique(row * num + column, return_inverse=True)
    return keys // num, keys % num, SumTable.build(len(keys), entry.ravel(), np.zeros(len(row)), rate, sign)


@dataclass(frozen=True)
class SparseGenerator:
    """The transition graph of (L, n), one state per rotation orbit.

    Each state is one of the `representatives`, the restricted states in
    letter order, rotated by a shift s; B1 is unique, so each orbit has L
    states.  `arcs` holds the arcs of the representatives: a move's target
    is its arc's target representative rotated by its shift.

    `crossings` totals the signed boundary crossings of every arc's
    displacement records over all boundaries, which by rotation equals the
    full-space sum at every boundary.  A record of signed step s crosses
    |s| boundaries on each of its channels with the sign of s, each
    crossing adding the arc's flow, its source's weight times its rate, so
    the table holds one row per record and channel, arc by arc and in
    record order, counted by s.  A bullet of row i crosses on channel
    i - 1.  A box crosses on channel n, the box column total; unless it is
    the relabelled jumper, also on channel n + i for its row i, and, if the
    arc is a swap (F1 or B1), on channel 2n + i.

    No rate point is attached.  The graph is immutable, since
    `build_generator` shares one per lattice; so are the tables derived
    from it on first read, each in one pass over the representatives: their
    `letters` and weight `exponents`, and one `SumTable` per oracle, which
    holds its combinatorics and no rate point (`balance_rows`, and, one
    total over all columns that by rotation equals the full-space sum at
    every column, `density_rows` and `occupation_rows`; and
    `fiber_rows`).  The full state space is a lazy view for the outputs
    that list it: `orbit` maps full states, in letter order, to
    (representative, shift), `letter_rank` maps back, and `states`,
    `weights` and `transitions` expand the rotations.  Its arcs are not
    stored: reachability, the restriction and the export walk
    `rotated_pairs(arcs, L)`.  No state-to-index map is kept: a caller
    that needs one builds it from `states`.  The one memo filled in from
    outside is `solver_structure`, the exact solver's structure per
    pattern of positive rates, which depends on the arcs and that pattern
    only.
    """

    L: int
    n: int
    representatives: tuple[ColoredWord, ...]
    arcs: Arcs
    crossings: SumTable

    @property
    def num_states(self) -> int:
        return self.L * len(self.representatives)

    @cached_property
    def orbit(self) -> tuple[np.ndarray, np.ndarray]:
        """The representative and shift of each full state, in letter order
        (B1 < ... < Bn < b1 < ... < bn)."""
        L, code = self.L, np.where(self.letters > 0, self.letters - 1, self.n - 1 - self.letters)
        rotated = code.astype(np.min_scalar_type(2 * self.n))[:, (np.arange(L) - np.arange(L)[:, None]) % L]
        pair = np.lexsort(rotated.reshape(-1, L).T[::-1])  # row r L + s: representative r rotated by s
        return _frozen(pair // L), _frozen(pair % L)

    @cached_property
    def states(self) -> tuple[ColoredWord, ...]:
        return tuple(self.representatives[r].rotate(s) for r, s in zip(*(a.tolist() for a in self.orbit)))

    @cached_property
    def transitions(self) -> tuple[tuple[Transition, ...], ...]:
        """Per state, its arcs as `Transition`s in arc order, rebuilt by the
        move rule on first read; nothing in the package reads this view."""
        return tuple(tuple(_transitions(w)) for w in self.states)

    @cached_property
    def weights(self) -> tuple[Monomial, ...]:
        """The stationary weight monomial of each state; the exact solver never reads it."""
        monomials = [Monomial(self.n, tuple(e)) for e in self.exponents.tolist()]
        return tuple(monomials[r] for r in self.orbit[0].tolist())

    @cached_property
    def letter_rank(self) -> np.ndarray:
        """The index in `states`, by letter order, of each full state r L + s:
        representative r rotated by s; `orbit` inverted."""
        return _frozen(np.argsort(self.orbit[0] * self.L + self.orbit[1]))

    @cached_property
    def exponents(self) -> np.ndarray:
        """The exponent tuple of each representative's weight, one row per representative."""
        from .stationary import weight_exponents

        return _frozen(weight_exponents(self.letters, self.n))

    @cached_property
    def balance_rows(self) -> SumTable:
        """Inflow minus outflow per representative, which each of its
        rotations shares: M's rule, an end at (row, column) adding the
        weight of state column times its rate to slot row."""
        source, target, rate, _ = self.arcs
        return SumTable.build(len(self.representatives), *generator_ends(source, target, rate))

    @cached_property
    def solver_structure(self) -> dict:
        """The exact solver's structure per pattern of positive rates (a
        tuple of 2n bools), filled in by `exact_stationary` on its first
        solve of each pattern and dropped with the graph: the closed class,
        the index arrays of the quotient system, and the pivot order of its
        last full-rank elimination, which later solves of the pattern
        replay and verify, and which a fresh elimination replaces when the
        replay fails.  It holds no rate value.  At most 2^(n+1) - 1 patterns
        occur, since no rate point has both a zero p_k and a zero q_k."""
        return {}

    @cached_property
    def letters(self) -> np.ndarray:
        """The letters of each representative, one row per representative."""
        return _frozen(np.array([w.letters for w in self.representatives], dtype=np.int64).reshape(-1, self.L))

    @cached_property
    def density_rows(self) -> SumTable:
        """Occupation totals over all columns: per representative and cell,
        its weight added to slot k - 1 for bullet k, and n + i - 1 for a box
        of row i."""
        letters = self.letters
        slot = np.where(letters > 0, letters - 1, self.n - 1 - letters)
        return SumTable.build(2 * self.n, slot.ravel(), np.repeat(np.arange(len(letters)), self.L))

    @cached_property
    def occupation_rows(self) -> SumTable:
        """Rate-weighted occupation totals of the bullet moves over all
        columns.  Slot i is the bullet edge current of row i + 1: bullet
        i + 1 with a box on its right, at rate p_{i+1}, minus bullet i + 1
        with a box on its left, at rate q_{i+1}.  Slots n + i and 2n + i hold
        the same-row patterns that trigger the nonlocal moves of row i + 1:
        the box on the right (up) and on the left (down)."""
        n = self.n
        letters = self.letters
        state = np.broadcast_to(np.arange(len(letters))[:, None], letters.shape)
        row = letters - 1
        groups = []  # (mask, slot, rate index, sign)
        for step, rate, vertical in ((1, row, n + row), (-1, row + n, 2 * n + row)):
            beside = np.roll(letters, -step, axis=1)
            bullet_box = (letters > 0) & (beside < 0)
            groups.append((bullet_box, row, rate, step))
            groups.append((bullet_box & (beside == -letters), vertical, rate, 1))
        return SumTable.build(
            3 * n,
            np.concatenate([slot[mask] for mask, slot, _, _ in groups]),
            np.concatenate([state[mask] for mask, _, _, _ in groups]),
            np.concatenate([rate[mask] for mask, _, rate, _ in groups]),
            np.concatenate([np.full(np.count_nonzero(mask), sign) for mask, _, _, sign in groups]),
        )

    @cached_property
    def fiber_rows(self) -> SumTable:
        """Weight sums over the fibers of the label-erasing projection with
        B1 at column 0, one row per representative, so slot[j] is the fiber
        of representative j; fibers are numbered in order of their first
        representative."""
        fiber, first = first_seen(np.maximum(self.letters, 0))
        return SumTable.build(len(first), fiber, np.arange(len(self.representatives)))

    def triplet_rows(self) -> list[tuple[int, int, str]]:
        """Sparse symbolic export: (source index, target index, rate string)
        over the full state space, M's off-diagonal entries by (source,
        target), then its diagonal, "0" at a state without arcs.  M's
        entries are rendered once per orbit, in the representatives'
        columns, and read at each rotation s: rotating a state by s rotates
        its arcs' targets by s."""
        L, s = self.L, np.arange(self.L)
        tail, head = self.arcs.source * L, self.arcs.target * L + self.arcs.shift
        row, column, table = generator_entries(self.num_states, tail, head, self.arcs.rate)
        texts = [str(v) for v in Domain(self.n).totals(np.zeros((1, 2 * self.n), dtype=np.int64), table)] + ["0"]
        source = self.letter_rank[column[:, None] + s]
        target = self.letter_rank[row[:, None] - row[:, None] % L + (row[:, None] + s) % L]
        off = row != column
        entry = np.full(self.num_states, -1)  # the diagonal's text, "0" where no arc leaves
        entry[source[~off].ravel()] = np.repeat(np.flatnonzero(~off), L)
        tail, head, text = source[off].ravel(), target[off].ravel(), np.repeat(np.flatnonzero(off), L)
        order = np.lexsort((head, tail))
        rows = zip(tail[order].tolist(), head[order].tolist(), (texts[e] for e in text[order].tolist()))
        return [*rows, *((j, j, texts[e]) for j, e in enumerate(entry.tolist()))]

    def state_manifest(self) -> list[tuple[int, str]]:
        return [(j, w.to_text()) for j, w in enumerate(self.states)]


def build_generator(L: int, n: int) -> SparseGenerator:
    """The transition graph of (L, n), one state per rotation orbit.

    The cap, `state_cap()`, counts the full state space, L times the
    representatives built, since the outputs that list full states expand
    them; it is checked on every call.  The graph is built once per lattice
    and shared: the two most recent lattices are kept, since a check runs
    on one lattice at a time and the graph grows like the state space.
    """
    check_state_cap(L, n)
    return _graph(L, n)


@lru_cache(maxsize=2)
def _graph(L: int, n: int) -> SparseGenerator:
    """`build_generator` without the cap; the enumerated states are valid by
    construction, and their arcs come from the move rule, each target
    rotated back to its representative by the column of its B1."""
    representatives = tuple(iter_restricted(L, n))
    index = {w.letters: j for j, w in enumerate(representatives)}
    arcs, crossed = array("q"), array("i")  # (source, target, rate, shift) per arc; (channel, source, rate, step) rows
    for j, w in enumerate(representatives):
        letters, pos = w.letters, w.bullet_positions()
        for k in range(1, n + 1):
            for d, rate in ((1, k - 1), (-1, n + k - 1)):
                moved = _rotation(letters, k, d, pos)
                if moved is None:
                    continue
                new, i, shifted, _ = moved
                shift = new.index(1)
                arcs.extend((j, index[tuple(new[shift:] + new[:shift])], rate, shift))
                # The rows of `_move`'s records in order, on the channels that
                # `SparseGenerator` lists: the bullet's, the shifted boxes', the box's.
                crossed.extend((k - 1, j, rate, d))
                for x in shifted:
                    crossed.extend((n, j, rate, d, n - letters[x], j, rate, d))
                if i == k:
                    crossed.extend((n, j, rate, -d * (len(shifted) + 1)))
                else:
                    crossed.extend((n, j, rate, -d, n + i, j, rate, -d, 2 * n + i, j, rate, -d))
    columns = np.frombuffer(arcs, dtype=np.int64).reshape(-1, 4).T
    return SparseGenerator(
        L, n, representatives, Arcs(*(_frozen(c.copy()) for c in columns)),
        SumTable.build(3 * n + 1, *(c.copy() for c in np.frombuffer(crossed, dtype=np.int32).reshape(-1, 4).T)),
    )


# -- excess and reachability -----------------------------------------------------


def excess(w: ColoredWord) -> int:
    """Sum over boxes of the cyclic label offset to the nearest bullet on the left.

    A box with label i whose gap label is g contributes (g - i) mod n; the
    total vanishes exactly on basic states.
    """
    ensure_valid(w)
    n = w.n
    return sum((g - i) % n for _, i, g in box_gap_labels(w))


def tau_zero(L: int, n: int) -> ColoredWord:
    """The reference state: bullets 1..n in a block, then boxes all labelled n."""
    letters = tuple(range(1, n + 1)) + (-n,) * (L - n)
    return ColoredWord(n, letters)


@dataclass
class ReachabilityReport:
    ok: bool
    direction: str
    num_states: int
    num_reached: int
    witness_start: ColoredWord
    witness_path: list[Transition]


def breadth_first(num: int, tail: np.ndarray, head: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from root over the arcs (tail, head) of nodes
    0 .. num - 1, each node's arcs taken in arc order.  Returns the reached
    nodes in visiting order, so the last is a deepest one, and per node the
    arc that first reached it, -1 for root and for the nodes not reached."""
    by_tail = np.argsort(tail, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=num))])
    via = np.full(num, -1, dtype=np.int64)
    seen = np.zeros(num, dtype=bool)
    seen[root] = True
    levels = [frontier := np.array([root])]
    while frontier.size:
        # the frontier's arcs, node by node and each node's in arc order
        count = start[frontier + 1] - start[frontier]
        arcs = by_tail[np.arange(count.sum()) + np.repeat(start[frontier] - np.cumsum(count) + count, count)]
        arcs = arcs[~seen[head[arcs]]]
        _, first = np.unique(head[arcs], return_index=True)
        arcs = arcs[np.sort(first)]
        frontier = head[arcs]
        seen[frontier] = True
        via[frontier] = arcs
        levels.append(frontier)
    return np.concatenate(levels), via


def _arc_transition(w: ColoredWord, r: int) -> Transition:
    """The arc of rate index r from w, rebuilt by the move rule: bullet
    r mod n + 1, forward for a p rate."""
    return _move(w, r % w.n + 1, 1 if r < w.n else -1, w.bullet_positions())


def reachability_tau0(L: int, n: int, direction: str = "from") -> ReachabilityReport:
    """BFS certificate that tau0 reaches (direction 'from') or is reached by
    (direction 'to') every full state, walking every rotation of the
    representatives' arcs (`rotated_pairs`); the witness path realizes the
    deepest state.  Each state's arcs are taken in the object graph's order:
    out of it in move-rule order, into it by source in letter order."""
    if direction not in ("from", "to"):
        raise ValueError("direction must be 'from' or 'to'")
    gen = build_generator(L, n)
    source, target = rotated_pairs(gen.arcs, L)  # pair a is arc a // L from rotation a % L
    pair = np.arange(len(source)) if direction == "from" else np.argsort(gen.letter_rank[source], kind="stable")
    tail, head = (source, target) if direction == "from" else (target[pair], source[pair])
    root = gen.representatives.index(tau_zero(L, n)) * L
    order, via = breadth_first(gen.num_states, tail, head, root)

    def state(j: int) -> ColoredWord:
        return gen.representatives[j // L].rotate(j % L)

    path: list[Transition] = []
    node = order[-1]
    while (a := via[node]) >= 0:
        node, a = tail[a], pair[a]
        path.append(_arc_transition(state(source[a]), int(gen.arcs.rate[a // L])))
    if direction == "from":
        path.reverse()
    return ReachabilityReport(
        ok=len(order) == gen.num_states,
        direction=direction,
        num_states=gen.num_states,
        num_reached=len(order),
        witness_start=state(root if direction == "from" else order[-1]),
        witness_path=path,
    )


# -- totally asymmetric restriction ---------------------------------------------


@dataclass
class ClosureCertificate:
    ok: bool
    zero_q: frozenset[int]
    states_checked: int
    transitions_checked: int
    violations: list[tuple[ColoredWord, Transition]]


def restrict_ta(L: int, n: int, zero_q) -> tuple[list[ColoredWord], ClosureCertificate]:
    """States with nonvanishing weight when q_m = 0 for m in zero_q, plus a
    certificate that the surviving dynamics never leaves the set."""
    zero_q = frozenset(zero_q)
    if not all(isinstance(m, int) and 1 <= m <= n for m in zero_q):
        raise ValueError(f"zeroed labels must lie in 1..{n}")
    gen = build_generator(L, n)
    zeroed = [n + m - 1 for m in zero_q]
    member = ~gen.exponents[:, zeroed].any(axis=1)  # per representative, shared by its rotations
    source, target, rate, _ = gen.arcs
    # The arcs that survive the zeroed q's from a member state: none may leave
    # the set.  Both commute with rotation, so the representatives' arcs decide.
    checked = member[source] & ~np.isin(rate, zeroed)
    leaving = np.flatnonzero(checked & ~member[target])
    # each leaving arc from every rotation of its source, listed by source in letter order, then in move order
    rank = gen.letter_rank[source[leaving][:, None] * L + np.arange(L)].ravel()
    moves = (_arc_transition(gen.states[rank[i]], int(rate[leaving[i // L]])) for i in np.argsort(rank, kind="stable"))
    violations = [(t.source, t) for t in moves]
    states = [w for w, keep in zip(gen.states, member[gen.orbit[0]]) if keep]
    certificate = ClosureCertificate(
        ok=not violations,
        zero_q=zero_q,
        states_checked=len(states),
        transitions_checked=L * int(np.count_nonzero(checked)),
        violations=violations,
    )
    return states, certificate
