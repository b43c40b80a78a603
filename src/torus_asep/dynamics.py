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

`build_generator` assembles the package's one transition graph: the states,
their index, and per state its arcs with their target indices.  The exact
solver, the balance and lumping checks, the observable oracles and the
reachability certificate all read it; the rate matrix itself is derived
from the arcs only when it is exported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import ColoredWord, box_gap_labels, enumerate_full, ensure_valid, restricted_count
from .symbolic import Domain, Monomial, RatePoint, rate_symbols

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


def _forward_transition(w: ColoredWord, k: int, pos: tuple[int, ...]) -> Transition | None:
    n, L = w.n, w.length
    letters = w.letters
    b = pos[k - 1]
    right = letters[(b + 1) % L]
    if right > 0:
        return None
    i = -right
    new = list(letters)
    moves = [Displacement("bullet", k, k, b, (b + 1) % L, 1)]
    if i != k:
        new[(b + 1) % L] = k
        new[b] = right
        moves.append(Displacement("box", i, i, (b + 1) % L, b, -1))
        kind = F1
    else:
        c_start, c_len, landing, k_prev = block_move(pos, k, 1, L)
        new[(b + 1) % L] = k
        for t in range(c_len):
            x = (c_start + t) % L
            new[(x + 1) % L] = letters[x]
            moves.append(Displacement("box", -letters[x], -letters[x], x, (x + 1) % L, 1))
        new[landing] = -k_prev
        back = ((b + 1) - landing) % L
        moves.append(Displacement("box", k, k_prev, (b + 1) % L, landing, -back, jump=True))
        kind = F2
    return Transition(w, ColoredWord(n, tuple(new)), kind, k, ("p", k), tuple(moves))


def _backward_transition(w: ColoredWord, k: int, pos: tuple[int, ...]) -> Transition | None:
    n, L = w.n, w.length
    letters = w.letters
    b = pos[k - 1]
    left = letters[(b - 1) % L]
    if left > 0:
        return None
    i = -left
    new = list(letters)
    moves = [Displacement("bullet", k, k, b, (b - 1) % L, -1)]
    if i != k:
        new[(b - 1) % L] = k
        new[b] = left
        moves.append(Displacement("box", i, i, (b - 1) % L, b, 1))
        kind = B1
    else:
        c_start, c_len, landing, k_next = block_move(pos, k, -1, L)
        new[(b - 1) % L] = k
        for t in range(c_len):
            x = (c_start + t) % L
            new[(x - 1) % L] = letters[x]
            moves.append(Displacement("box", -letters[x], -letters[x], x, (x - 1) % L, -1))
        new[landing] = -k_next
        fwd = (landing - (b - 1)) % L
        moves.append(Displacement("box", k, k_next, (b - 1) % L, landing, fwd, jump=True))
        kind = B2
    return Transition(w, ColoredWord(n, tuple(new)), kind, k, ("q", k), tuple(moves))


def outgoing_transitions(w: ColoredWord) -> list[Transition]:
    """All transitions leaving w: per bullet label, forward then backward."""
    ensure_valid(w)
    pos = w.bullet_positions()
    out = []
    for k in range(1, w.n + 1):
        t = _forward_transition(w, k, pos)
        if t is not None:
            out.append(t)
        t = _backward_transition(w, k, pos)
        if t is not None:
            out.append(t)
    return out


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


@dataclass
class SparseGenerator:
    """The transition graph of the chain over an enumerated state space.

    transitions[j] lists the arcs leaving state j, and targets[j] holds the
    index of each arc's target, in the same order.  An arc whose rate
    vanishes at `rates` is left out; rates None keeps every arc.  The rate
    matrix (column j holds the outflows of state j, its diagonal entry minus
    the column's off-diagonal sum) is not stored: `triplet_rows` derives it
    from the arcs when it is exported.
    """

    L: int
    n: int
    states: list[ColoredWord]
    index: dict[ColoredWord, int]
    transitions: list[list[Transition]]
    targets: list[list[int]]
    rates: RatePoint | None  # None = symbolic

    @property
    def num_states(self) -> int:
        return len(self.states)

    def triplet_rows(self) -> list[tuple[int, int, str]]:
        """Sparse export: (source index, target index, rate string), the
        summed off-diagonal entries by (source, target), then the diagonal."""
        dom = Domain(self.n, self.rates)
        unit = dom.weight(Monomial.unit(self.n))
        pairs = sorted({(j, k) for j, targets in enumerate(self.targets) for k in targets})
        slot = {pair: i for i, pair in enumerate(pairs)}
        entries, diagonal = dom.sums(len(pairs), terms=True), dom.sums(self.num_states, terms=True)
        for j, (outs, targets) in enumerate(zip(self.transitions, self.targets)):
            for t, k in zip(outs, targets):
                rate = dom.term(unit, t.rate_symbol)
                entries.add(slot[j, k], rate)
                diagonal.add(j, rate, -1)
        rows = [(src, tgt, str(value)) for (src, tgt), value in zip(pairs, entries.freeze())]
        rows.extend((j, j, str(value)) for j, value in enumerate(diagonal.freeze()))
        return rows

    def state_manifest(self) -> list[tuple[int, str]]:
        return [(j, w.to_text()) for j, w in enumerate(self.states)]


def build_generator(
    L: int,
    n: int,
    rates: RatePoint | None = None,
    cap: int = DEFAULT_STATE_CAP,
    states: list[ColoredWord] | None = None,
) -> SparseGenerator:
    """The transition graph over the full state space (or a given subset)."""
    subset_mode = states is not None
    if states is None:
        check_state_cap(L, n, cap)
        states = enumerate_full(L, n)
    index = {w: j for j, w in enumerate(states)}
    vanishing = set() if rates is None else {s for s in rate_symbols(n) if rates.rate(s) == 0}
    all_transitions: list[list[Transition]] = []
    all_targets: list[list[int]] = []
    for w in states:
        outs, targets = [], []
        for t in outgoing_transitions(w):
            k = index.get(t.target)
            if k is None:
                # A transition may leave an explicit state subset only if its
                # rate vanishes (e.g. a zeroed backward rate).
                if not subset_mode or t.rate_symbol not in vanishing:
                    raise ValueError(
                        "state set is not closed under the positive-rate dynamics: "
                        f"{w.to_text()} -> {t.target.to_text()}"
                    )
                continue
            if t.rate_symbol in vanishing:
                continue
            outs.append(t)
            targets.append(k)
        all_transitions.append(outs)
        all_targets.append(targets)
    return SparseGenerator(L, n, states, index, all_transitions, all_targets, rates)


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


def reachability_tau0(
    L: int, n: int, direction: str = "from", cap: int = DEFAULT_STATE_CAP
) -> ReachabilityReport:
    """BFS certificate that tau0 reaches (direction 'from') or is reached by
    (direction 'to') every state; the witness path realizes the deepest state."""
    if direction not in ("from", "to"):
        raise ValueError("direction must be 'from' or 'to'")
    gen = build_generator(L, n, cap=cap)
    adjacency: list[list[tuple[int, Transition]]] = [[] for _ in gen.states]
    for j, (outs, targets) in enumerate(zip(gen.transitions, gen.targets)):
        for t, k in zip(outs, targets):
            if direction == "from":
                adjacency[j].append((k, t))
            else:
                adjacency[k].append((j, t))
    root = gen.index[tau_zero(L, n)]
    parent: dict[int, tuple[int, Transition] | None] = {root: None}
    frontier = [root]
    order = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v, t in adjacency[u]:
                if v not in parent:
                    parent[v] = (u, t)
                    nxt.append(v)
                    order.append(v)
        frontier = nxt
    deepest = order[-1]
    path: list[Transition] = []
    node = deepest
    while parent[node] is not None:
        prev, t = parent[node]  # type: ignore[misc]
        path.append(t)
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


def _cyclic_open_closed(i: int, k: int, n: int) -> frozenset[int]:
    """Labels strictly after i up to and including k, walking forward mod n."""
    out = set()
    j = i
    while j != k:
        j = j % n + 1
        out.add(j)
    return frozenset(out)


def ta_membership(w: ColoredWord, zero_q: frozenset[int]) -> bool:
    """True if the stationary weight of w survives setting q_m = 0 for m in the set.

    A box with label i in gap g carries the factor q_m exactly when m lies in
    the cyclic label interval (i, g]; membership requires that interval to
    avoid every zeroed label, for every box.
    """
    for _, i, g in box_gap_labels(w):
        if _cyclic_open_closed(i, g, w.n) & zero_q:
            return False
    return True


@dataclass
class ClosureCertificate:
    ok: bool
    zero_q: frozenset[int]
    states_checked: int
    transitions_checked: int
    violations: list[tuple[ColoredWord, Transition]]


def allowed_transitions_ta(w: ColoredWord, zero_q: frozenset[int]) -> list[Transition]:
    """Outgoing transitions once the backward moves of the zeroed rows are removed."""
    return [
        t
        for t in outgoing_transitions(w)
        if not (t.rate_symbol[0] == "q" and t.rate_symbol[1] in zero_q)
    ]


def restrict_ta(
    L: int, n: int, zero_q, cap: int = DEFAULT_STATE_CAP
) -> tuple[list[ColoredWord], ClosureCertificate]:
    """States with nonvanishing weight when q_m = 0 for m in zero_q, plus a
    certificate that the surviving dynamics never leaves the set."""
    zero_q = frozenset(zero_q)
    if not all(isinstance(m, int) and 1 <= m <= n for m in zero_q):
        raise ValueError(f"zeroed labels must lie in 1..{n}")
    check_state_cap(L, n, cap)
    states = [w for w in enumerate_full(L, n) if ta_membership(w, zero_q)]
    members = set(states)
    violations = []
    checked = 0
    for w in states:
        for t in allowed_transitions_ta(w, zero_q):
            checked += 1
            if t.target not in members:
                violations.append((w, t))
    certificate = ClosureCertificate(
        ok=not violations,
        zero_q=zero_q,
        states_checked=len(states),
        transitions_checked=checked,
        violations=violations,
    )
    return states, certificate
