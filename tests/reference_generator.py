"""Generator assembly as it stood while `build_generator` still took a rate
point and an explicit state subset: arcs whose rate vanishes at the point
are left out, and an arc may leave the subset only if its rate vanishes.
Kept as the reference that the differential tests of the full-space solve
check against; nothing in the package imports it.  The subset graph is
only solved, so its crossing table is empty.  The subset is closed
under rotation, so its graph is kept, as the package's, on the restricted
states.  `triplet_rows` keeps the generator export as it rendered every
full column, the reference of the per-orbit rendering.
"""

from __future__ import annotations

import numpy as np

from rate_symbols import rate_symbols, rate_value
from torus_asep import dynamics
from torus_asep.dynamics import Arcs, SparseGenerator, Transition, _transitions, check_state_cap
from torus_asep.model import ColoredWord, enumerate_full, ensure_valid
from torus_asep.symbolic import Domain, RatePoint, SumTable


def build_generator(
    L: int,
    n: int,
    rates: RatePoint | None = None,
    states: list[ColoredWord] | None = None,
) -> SparseGenerator:
    """The transition graph at `rates` over the full state space or a given
    subset, which must be closed under the positive-rate dynamics and under
    rotation, and given in letter order.  As the package's graph, it keeps
    one state per rotation orbit: the arcs of the subset's restricted
    states, each target rotated back to its representative."""
    subset_mode = states is not None
    if states is None:
        check_state_cap(L, n)
        states = enumerate_full(L, n)
    else:
        for w in states:
            ensure_valid(w)
    member = set(states)
    vanishing = set() if rates is None else {s for s in rate_symbols(n) if rate_value(rates, s) == 0}
    all_transitions: list[list[Transition]] = []
    for w in states:
        outs = []
        for t in _transitions(w):
            if t.target not in member:
                if not subset_mode or t.rate_symbol not in vanishing:
                    raise ValueError(
                        "state set is not closed under the positive-rate dynamics: "
                        f"{w.to_text()} -> {t.target.to_text()}"
                    )
                continue
            if t.rate_symbol not in vanishing:
                outs.append(t)
        all_transitions.append(outs)
    representatives = tuple(w for w in states if w.is_restricted())
    index = {w: j for j, w in enumerate(representatives)}
    rate = {s: r for r, s in enumerate(rate_symbols(n))}
    arcs = [
        (index[t.source], index[t.target.rotate(-t.target.letters.index(1))], rate[t.rate_symbol], t.target.letters.index(1))
        for outs in all_transitions
        for t in outs
        if t.source.is_restricted()
    ]
    columns = np.array(arcs, dtype=np.int64).reshape(-1, 4).T
    gen = SparseGenerator(L, n, representatives, Arcs(*columns), SumTable.build(3 * n + 1, [], [], [], []))
    assert gen.states == tuple(states), "the subset is not closed under rotation"
    # The subset's own arcs, not the view of every arc of its states that
    # the move rule would rebuild: the reference solver reads these.
    gen.__dict__["transitions"] = tuple(map(tuple, all_transitions))
    return gen


def triplet_rows(gen: SparseGenerator) -> list[tuple[int, int, str]]:
    """`SparseGenerator.triplet_rows` as it stood while it rendered M's
    entries over every full column, L times the entries of one orbit."""
    tail, head = (gen.letter_rank[pairs] for pairs in dynamics.rotated_pairs(gen.arcs, gen.L))
    row, column, table = dynamics.generator_entries(gen.num_states, tail, head, np.repeat(gen.arcs.rate, gen.L))
    values = Domain(gen.n).totals(np.zeros((1, 2 * gen.n), dtype=np.int64), table)
    rows, diagonal = [], ["0"] * gen.num_states
    for i, j, v in zip(row.tolist(), column.tolist(), values):
        if i == j:
            diagonal[j] = str(v)
        else:
            rows.append((j, i, str(v)))
    return sorted(rows) + [(j, j, v) for j, v in enumerate(diagonal)]


def generator_entries(num: int, tail, head, rate, values) -> dict[tuple[int, int], object]:
    """The nonzero entries {(row, column): value} of M = inflow - outflow
    over states 0 .. num - 1, accumulated arc by arc as the dict loop of
    `generator_rank_deficiency` did before it read `generator_entries`: an
    arc tail -> head of rate index r adds values[r] at (head, tail) and
    takes it at (tail, tail)."""
    rows: list[dict[int, object]] = [{} for _ in range(num)]
    for s, t, r in zip(tail.tolist(), head.tolist(), rate.tolist()):
        rows[t][s] = rows[t].get(s, 0) + values[r]
        rows[s][s] = rows[s].get(s, 0) - values[r]
    return {(i, j): v for i, row in enumerate(rows) for j, v in row.items() if v}
