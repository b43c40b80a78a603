"""Transition rules, generator assembly, and reachability machinery.

Transitions are always initiated by a bullet.  With bullet k at position b
(0-based) on the ring:

* F1 (rate p_k): the letter at b+1 is a box with label i != k; bullet and box
  swap.
* F2 (rate p_k): the letter at b+1 is a box with label k; the bullet steps
  right, the block of boxes between bullet k-1 and bullet k shifts right by
  one, and the displaced box is relabelled k-1 and lands immediately right of
  bullet k-1.
* B1, B2 (rate q_k): the mirrored rules acting on the letter at b-1, with the
  displaced box of B2 relabelled k+1 and landing immediately left of bullet
  k+1.

For n = 1 the "previous bullet" of F2 (and "next bullet" of B2) is the moving
bullet itself, read after its own step; the net effect is a plain swap with
the adjacent box plus a relabelling-free rotation of the gap contents.
Every transition carries per-particle displacement records; the signed step
of each record determines exactly which column boundaries the particle
crossed, which feeds the current estimators.

`build_generator` hands out the package's one transition graph of a lattice:
the states, their index, and per state its arcs with their target indices.
The exact solver, the balance and lumping checks, the observable oracles,
the reachability certificate and the totally asymmetric restriction all
read it; the rate matrix itself is derived from the arcs only when it is
exported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .model import ColoredWord, box_gap_labels, enumerate_full, ensure_valid, restricted_count
from .symbolic import Domain, Monomial, RatePoint

DEFAULT_STATE_CAP = 2_000_000

F1, F2, B1, B2 = "F1", "F2", "B1", "B2"


class ResourceCapError(RuntimeError):
    """Raised when a requested state space exceeds the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"state space has {count} states, above the cap {cap}")
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


def displacement_crossings(d: Displacement, L: int) -> list[tuple[int, int]]:
    """Signed boundary crossings: boundary j sits between columns j and j+1 mod L."""
    out = []
    if d.step > 0:
        for t in range(d.step):
            out.append(((d.pos_from + t) % L, 1))
    else:
        for t in range(-d.step):
            out.append(((d.pos_from - 1 - t) % L, -1))
    return out


def block_move(pos: Sequence[int], k: int, step: int, L: int) -> tuple[int, int, int, int]:
    """Geometry of the nonlocal move of bullet k: F2 for step = +1, B2 for -1.

    Returns (start, length, landing, label): the boxes in cells start, ...,
    start + length - 1 (mod L) each shift one cell by `step`, and the
    jumper, the box labelled k next to bullet k, is relabelled `label` and
    lands in cell `landing`.  `pos` holds the 0-based bullet columns by
    label, read before the move.
    """
    n = len(pos)
    b = pos[k - 1]
    if step > 0:
        label = k - 1 if k > 1 else n
        if n == 1:
            return (b + 2) % L, L - 2, (b + 2) % L, label
        a = pos[label - 1]
        return (a + 1) % L, (b - a - 1) % L, (a + 1) % L, label
    label = k + 1 if k < n else 1
    if n == 1:
        return (b + 1) % L, L - 2, (b - 2) % L, label
    c = pos[label - 1]
    return (b + 1) % L, (c - b - 1) % L, (c - 1) % L, label


def _move(w: ColoredWord, k: int, d: int, pos: tuple[int, ...]) -> Transition | None:
    """The move of bullet k by d = +1 (F1/F2, rate p_k) or d = -1 (B1/B2,
    rate q_k), or None if the cell it steps into holds a bullet."""
    n, L = w.n, w.length
    letters = w.letters
    b = pos[k - 1]
    x1 = (b + d) % L
    i = -letters[x1]
    if i < 0:
        return None
    new = list(letters)
    new[x1] = k
    moves = [Displacement("bullet", k, k, b, x1, d)]
    if i != k:
        new[b] = -i
        moves.append(Displacement("box", i, i, x1, b, -d))
        kind = F1 if d > 0 else B1
    else:
        start, length, landing, label = block_move(pos, k, d, L)
        for t in range(length):
            x = (start + t) % L
            new[(x + d) % L] = letters[x]
            moves.append(Displacement("box", -letters[x], -letters[x], x, (x + d) % L, d))
        new[landing] = -label
        # The jumper walks against d from x1 to its landing cell.
        moves.append(Displacement("box", k, label, x1, landing, -d * ((x1 - landing) * d % L), jump=True))
        kind = F2 if d > 0 else B2
    return Transition(w, ColoredWord(n, tuple(new)), kind, k, ("p" if d > 0 else "q", k), tuple(moves))


def outgoing_transitions(w: ColoredWord) -> list[Transition]:
    """All transitions leaving w: per bullet label, forward then backward."""
    ensure_valid(w)
    return _transitions(w)


def _transitions(w: ColoredWord) -> list[Transition]:
    """`outgoing_transitions` of a word already known to be valid."""
    pos = w.bullet_positions()
    return [t for k in range(1, w.n + 1) for d in (1, -1) if (t := _move(w, k, d, pos)) is not None]


def replay_displacements(t: Transition) -> ColoredWord:
    """Rebuild the target from the source plus the displacement records."""
    L = t.source.length
    new: list[int | None] = list(t.source.letters)
    for d in t.displacements:
        assert (d.pos_from + d.step) % L == d.pos_to, "step does not reach the target position"
        new[d.pos_from] = None
    for d in t.displacements:
        sign = 1 if d.species == "bullet" else -1
        assert new[d.pos_to] is None, "two particles land on one cell"
        new[d.pos_to] = sign * d.label_to
    assert all(c is not None for c in new), "a vacated cell was never refilled"
    return ColoredWord(t.source.n, tuple(new))  # type: ignore[arg-type]


# -- generator -----------------------------------------------------------------


def check_state_cap(L: int, n: int, cap: int = DEFAULT_STATE_CAP) -> None:
    """Raise ResourceCapError if the full (L, n) state space exceeds `cap`."""
    count = L * restricted_count(L, n)
    if count > cap:
        raise ResourceCapError(count, cap)


@dataclass(frozen=True)
class SparseGenerator:
    """The transition graph of the chain over the full state space of (L, n).

    transitions[j] lists every arc leaving state j, and targets[j] holds the
    index of each arc's target, in the same order.  No rate point is
    attached: a check that is given one reads the arcs at it.  The rate
    matrix (column j holds the outflows of state j, its diagonal entry minus
    the column's off-diagonal sum) is not stored: `triplet_rows` derives it
    from the arcs when it is exported.  The graph is immutable, since
    `build_generator` shares one per lattice; so are the tables derived from
    it on first read, `weights` and `crossings`.
    """

    L: int
    n: int
    states: tuple[ColoredWord, ...]
    index: Mapping[ColoredWord, int]
    transitions: tuple[tuple[Transition, ...], ...]
    targets: tuple[tuple[int, ...], ...]

    @property
    def num_states(self) -> int:
        return len(self.states)

    @cached_property
    def weights(self) -> tuple[Monomial, ...]:
        """The stationary weight monomial of each state, computed on first
        read; the exact solver never reads it."""
        from .stationary import _enumerated_weight

        return tuple(_enumerated_weight(w) for w in self.states)

    @cached_property
    def crossings(self) -> tuple[tuple[tuple[tuple[str, int], tuple[tuple[int, int, int], ...]], ...], ...]:
        """Per state, per arc in `transitions` order: the arc's rate symbol
        and the (channel, boundary, sign) entries of the signed boundary
        crossings of its displacements, in record order, computed on first
        read.

        A bullet of row i crosses on channel i - 1.  A box crosses on
        channel n, the box column total; unless it is the relabelled jumper,
        also on channel n + i for its row i, and, if the arc is a swap (F1
        or B1), on channel 2n + i.
        """
        L, n = self.L, self.n

        def entries(t: Transition) -> tuple[tuple[int, int, int], ...]:
            out = []
            for d in t.displacements:
                if d.species == "bullet":
                    channels: tuple[int, ...] = (d.label_from - 1,)
                elif d.jump:
                    channels = (n,)
                elif t.kind in (F1, B1):
                    channels = (n, n + d.label_from, 2 * n + d.label_from)
                else:
                    channels = (n, n + d.label_from)
                out += [(c, boundary, sign) for boundary, sign in displacement_crossings(d, L) for c in channels]
            return tuple(out)

        return tuple(tuple((t.rate_symbol, entries(t)) for t in outs) for outs in self.transitions)

    def triplet_rows(self, rates: RatePoint | None = None) -> list[tuple[int, int, str]]:
        """Sparse export at `rates` (None = symbolic): (source index, target
        index, rate string), the summed off-diagonal entries by (source,
        target), then the diagonal.  An arc whose rate vanishes at `rates`
        is left out."""
        dom = Domain(self.n, rates)
        unit = dom.weight(Monomial.unit(self.n))
        arcs = [
            (j, k, t.rate_symbol)
            for j, (outs, targets) in enumerate(zip(self.transitions, self.targets))
            for t, k in zip(outs, targets)
            if rates is None or rates.rate(t.rate_symbol)
        ]
        slot = {pair: i for i, pair in enumerate(sorted({(j, k) for j, k, _ in arcs}))}
        entries, diagonal = dom.sums(len(slot), terms=True), dom.sums(self.num_states, terms=True)
        for j, k, symbol in arcs:
            rate = dom.term(unit, symbol)
            entries.add(slot[j, k], rate)
            diagonal.add(j, rate, -1)
        rows = [(src, tgt, str(value)) for (src, tgt), value in zip(slot, entries.freeze())]
        rows.extend((j, j, str(value)) for j, value in enumerate(diagonal.freeze()))
        return rows

    def state_manifest(self) -> list[tuple[int, str]]:
        return [(j, w.to_text()) for j, w in enumerate(self.states)]


def build_generator(L: int, n: int, cap: int = DEFAULT_STATE_CAP) -> SparseGenerator:
    """The transition graph over the full state space of (L, n), every arc
    included.

    The cap is checked on every call.  The graph is built once per lattice
    and shared: the two most recent lattices are kept, since a check runs
    on one lattice at a time and the graph grows like the state space.
    """
    check_state_cap(L, n, cap)
    return _graph(L, n)


@lru_cache(maxsize=2)
def _graph(L: int, n: int) -> SparseGenerator:
    """`build_generator` without the cap; the enumerated states are valid by
    construction."""
    states = tuple(enumerate_full(L, n))
    index = {w: j for j, w in enumerate(states)}
    transitions = tuple(tuple(_transitions(w)) for w in states)
    targets = tuple(tuple(index[t.target] for t in outs) for outs in transitions)
    return SparseGenerator(L, n, states, MappingProxyType(index), transitions, targets)


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


def breadth_first(adjacency: list[list[int]], root: int) -> dict[int, int | None]:
    """Breadth-first search tree from root: the parent of each reached node
    (None for root), inserted in visiting order, so the last key is a
    deepest node."""
    parent: dict[int, int | None] = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    return parent


def reachability_tau0(
    L: int, n: int, direction: str = "from", cap: int = DEFAULT_STATE_CAP
) -> ReachabilityReport:
    """BFS certificate that tau0 reaches (direction 'from') or is reached by
    (direction 'to') every state; the witness path realizes the deepest state."""
    if direction not in ("from", "to"):
        raise ValueError("direction must be 'from' or 'to'")
    gen = build_generator(L, n, cap=cap)
    adjacency = gen.targets
    if direction == "to":
        adjacency = [[] for _ in gen.states]
        for j, targets in enumerate(gen.targets):
            for k in targets:
                adjacency[k].append(j)
    root = gen.index[tau_zero(L, n)]
    parent = breadth_first(adjacency, root)
    deepest = next(reversed(parent))
    path: list[Transition] = []
    node = deepest
    while parent[node] is not None:
        prev = parent[node]
        # the first arc realizing the tree edge, the one the search took
        src, dst = (prev, node) if direction == "from" else (node, prev)
        path.append(next(t for t, k in zip(gen.transitions[src], gen.targets[src]) if k == dst))
        node = prev
    if direction == "from":
        path.reverse()
        start = gen.states[root]
    else:
        start = gen.states[deepest]
    return ReachabilityReport(
        ok=len(parent) == gen.num_states,
        direction=direction,
        num_states=gen.num_states,
        num_reached=len(parent),
        witness_start=start,
        witness_path=path,
    )


# -- totally asymmetric restriction ---------------------------------------------


@lru_cache(maxsize=None)
def _vanishing_boxes(n: int, zero_q: frozenset[int]) -> frozenset[tuple[int, int]]:
    """The (row, gap) pairs whose box weight has a factor q_m, m in zero_q."""
    from .stationary import box_weight

    pairs = ((i, g) for i in range(1, n + 1) for g in range(1, n + 1))
    return frozenset((i, g) for i, g in pairs if box_weight(i, g, n).uses_q_label(zero_q))


def ta_membership(w: ColoredWord, zero_q: frozenset[int]) -> bool:
    """True if the stationary weight of w survives setting q_m = 0 for m in
    the set, that is, if no box weight of w has a factor q_m."""
    vanishing = _vanishing_boxes(w.n, frozenset(zero_q))
    return not any((i, g) in vanishing for _, i, g in box_gap_labels(w))


@dataclass
class ClosureCertificate:
    ok: bool
    zero_q: frozenset[int]
    states_checked: int
    transitions_checked: int
    violations: list[tuple[ColoredWord, Transition]]


def restrict_ta(
    L: int, n: int, zero_q, cap: int = DEFAULT_STATE_CAP
) -> tuple[list[ColoredWord], ClosureCertificate]:
    """States with nonvanishing weight when q_m = 0 for m in zero_q, plus a
    certificate that the surviving dynamics never leaves the set."""
    zero_q = frozenset(zero_q)
    if not all(isinstance(m, int) and 1 <= m <= n for m in zero_q):
        raise ValueError(f"zeroed labels must lie in 1..{n}")
    gen = build_generator(L, n, cap)
    member = [ta_membership(w, zero_q) for w in gen.states]
    vanishing = {("q", m) for m in zero_q}
    violations, checked = [], 0
    for w, keep, outs, targets in zip(gen.states, member, gen.transitions, gen.targets):
        if keep:
            arcs = [(t, k) for t, k in zip(outs, targets) if t.rate_symbol not in vanishing]
            checked += len(arcs)
            violations += [(w, t) for t, k in arcs if not member[k]]
    states = [w for w, keep in zip(gen.states, member) if keep]
    certificate = ClosureCertificate(
        ok=not violations,
        zero_q=zero_q,
        states_checked=len(states),
        transitions_checked=checked,
        violations=violations,
    )
    return states, certificate
