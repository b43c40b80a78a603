"""The transition graph as it stood while it stored its arcs as objects:
per state, a tuple of `Transition`s from the move rule and a tuple of
their target indices, with the reachability certificate and the totally
asymmetric restriction walking those tuples.  Also the rules the package
once stated a second time: the full state space as every rotation of every
restricted word, sorted; the rotation orbits numbered by a dict loop; the
gap labels of a word's boxes found by a cyclic walk from its first bullet,
then sorted by column; membership in the totally asymmetric restriction
read box by box from the (row, gap) pairs whose box weight has a zeroed q
factor; and the graph search as it stood before the package searched arc
arrays a frontier at a time: per node a list of the heads of its arcs
(`adjacency`) and a dict breadth-first search over those lists
(`breadth_first`), with the exact solver's search for the one closed class
by such walks; and the full arcs as the graph once stored them, every
rotation's arcs renumbered in letter order and sorted by source
(`full_arcs`).  Kept as the reference that the differential tests check
the package against; nothing in the package imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from torus_asep.dynamics import (
    Arcs,
    ClosureCertificate,
    ReachabilityReport,
    Transition,
    _transitions,
    rotated_pairs,
    tau_zero,
)
from torus_asep.model import ColoredWord, box_gap_labels, iter_restricted
from torus_asep.stationary import StationaryError, box_weight
from torus_asep.symbolic import _frozen


def adjacency(num: int, tail: np.ndarray, head: np.ndarray) -> list[list[int]]:
    """Per node 0 .. num - 1, the heads of the arcs (tail, head) leaving it,
    in arc order."""
    heads = head[np.argsort(tail, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(tail, minlength=num)).tolist()
    return [heads[a:b] for a, b in zip([0, *ends], ends)]


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


def full_arcs(gen) -> Arcs:
    """The arcs of the full state space, each arc of `arcs` from every
    rotation of its source, by source and then in move-rule order."""
    L, rank = gen.L, np.empty(gen.num_states, dtype=np.int64)
    rank[gen.orbit[0] * L + gen.orbit[1]] = np.arange(gen.num_states)  # of representative r rotated by s: r L + s
    full = [rank[pairs] for pairs in rotated_pairs(gen.arcs, L)]
    order = np.argsort(full[0], kind="stable")
    return Arcs(*(_frozen(c[order]) for c in (*full, np.repeat(gen.arcs.rate, L), np.repeat(gen.arcs.shift, L))))


def letter_sort_key(letter: int) -> tuple[int, int]:
    # Bullet(k) sorts before Box(k'), each family ordered by label.
    return (0, letter) if letter > 0 else (1, -letter)


def enumerate_full(L: int, n: int) -> list[ColoredWord]:
    """All states (every rotation of every restricted state), lex sorted."""
    words = [w.rotate(s) for w in iter_restricted(L, n) for s in range(L)]
    words.sort(key=lambda w: tuple(letter_sort_key(c) for c in w.letters))
    return words


def rotation_orbits(states: tuple[ColoredWord, ...], members: list[int]) -> tuple[list[int], list[int]]:
    """Orbit number under rotation of each of the given state indices (-1
    for any other state), and the first member of each orbit."""
    orbit_of: dict[tuple[int, ...], int] = {}
    orbit = [-1] * len(states)
    for j in members:
        letters = states[j].letters
        x = letters.index(1)
        orbit[j] = orbit_of.setdefault(letters[x:] + letters[:x], len(orbit_of))
    first = [-1] * len(orbit_of)
    for j in reversed(members):
        first[orbit[j]] = j
    return orbit, first


def box_gap_labels_walk_and_sort(w: ColoredWord) -> tuple[tuple[int, int, int], ...]:
    """(column, box label, gap label) of every box: walked cyclically from
    the first bullet, then sorted by column."""
    L = w.length
    letters = w.letters
    start = next(x for x, c in enumerate(letters) if c > 0)
    out = []
    current = letters[start]
    for step in range(1, L + 1):
        x = (start + step) % L
        c = letters[x]
        if c > 0:
            current = c
        else:
            out.append((x, -c, current))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _vanishing_boxes(n: int, zero_q: frozenset[int]) -> frozenset[tuple[int, int]]:
    """The (row, gap) pairs whose box weight has a factor q_m, m in zero_q."""
    pairs = ((i, g) for i in range(1, n + 1) for g in range(1, n + 1))
    return frozenset((i, g) for i, g in pairs if any(box_weight(i, g, n).exponents[n + m - 1] for m in zero_q))


def ta_membership(w: ColoredWord, zero_q: frozenset[int]) -> bool:
    """True if no box weight of w has a factor q_m, m in the set."""
    vanishing = _vanishing_boxes(w.n, frozenset(zero_q))
    return not any((i, g) in vanishing for _, i, g in box_gap_labels(w))


@dataclass(frozen=True)
class ObjectGraph:
    L: int
    n: int
    states: tuple[ColoredWord, ...]
    index: dict[ColoredWord, int]
    transitions: tuple[tuple[Transition, ...], ...]
    targets: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=2)
def object_graph(L: int, n: int) -> ObjectGraph:
    states = tuple(enumerate_full(L, n))
    index = {w: j for j, w in enumerate(states)}
    transitions = tuple(tuple(_transitions(w)) for w in states)
    targets = tuple(tuple(index[t.target] for t in outs) for outs in transitions)
    return ObjectGraph(L, n, states, index, transitions, targets)


def reachability_tau0(L: int, n: int, direction: str = "from") -> ReachabilityReport:
    gen = object_graph(L, n)
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
        src, dst = (prev, node) if direction == "from" else (node, prev)
        path.append(next(t for t, k in zip(gen.transitions[src], gen.targets[src]) if k == dst))
        node = prev
    if direction == "from":
        path.reverse()
        start = gen.states[root]
    else:
        start = gen.states[deepest]
    return ReachabilityReport(
        ok=len(parent) == len(gen.states),
        direction=direction,
        num_states=len(gen.states),
        num_reached=len(parent),
        witness_start=start,
        witness_path=path,
    )


def restrict_ta(L: int, n: int, zero_q) -> tuple[list[ColoredWord], ClosureCertificate]:
    zero_q = frozenset(zero_q)
    gen = object_graph(L, n)
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


def closed_class(num: int, tail, head) -> list[int]:
    """The one closed class of the arcs (tail, head), in index order: from
    node c, step to the deepest node that c reaches but that does not reach
    c, until there is none; StationaryError unless every node reaches it."""
    fwd, bwd = adjacency(num, tail, head), adjacency(num, head, tail)
    c = 0
    while c is not None:
        reach, back = breadth_first(fwd, c), breadth_first(bwd, c)
        c = next((v for v in reversed(reach) if v not in back), None)
    if len(back) != num:
        raise StationaryError("chain has more than one closed class: its stationary law is not unique")
    return sorted(reach)
