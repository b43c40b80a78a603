"""The oracle sums as they stood before they became the generator's integer
tables: one Python loop per oracle over the full states or arcs that the
graph expands to, adding one summand at a time to the running sums of a
`SummandDomain`.  Each function returns the frozen sums as one flat list,
slot for slot in the full-space layout of the generator table it is the
reference of (per state, per column or per boundary), so the differential
tests compare `Domain.totals`, expanded over the rotations, with it.
Nothing in the package imports this module.
"""

from __future__ import annotations

from torus_asep.dynamics import F1, B1, Transition
from torus_asep.symbolic import RatePoint

from reference_graph import full_arcs
from reference_sums import SummandDomain
from reference_transitions import displacement_crossings


def _flat(groups) -> list:
    return [value for sums in groups for value in sums.freeze()]


def reference_balance(gen, rates: RatePoint | None = None) -> list:
    """Inflow minus outflow per state (`balance_rows`)."""
    dom = SummandDomain(gen.n, rates)
    net = dom.sums(gen.num_states, terms=True)
    targets = iter(full_arcs(gen).target.tolist())
    for j, (m, outs) in enumerate(zip(gen.weights, gen.transitions)):
        wv = dom.weight(m)
        for t, k in zip(outs, targets):
            flow = dom.term(wv, t.rate_symbol)
            net.add(k, flow)
            net.add(j, flow, -1)
    return net.freeze()


def reference_densities(gen, rates: RatePoint | None = None) -> list:
    """Occupation sums per bullet row and column, then per box row and
    column (`density_rows`)."""
    L, n = gen.L, gen.n
    dom = SummandDomain(n, rates)
    bullet_sums = [dom.sums(L) for _ in range(n)]
    box_sums = [dom.sums(L) for _ in range(n)]
    for w, m in zip(gen.states, gen.weights):
        wv = dom.weight(m)
        for x, letter in enumerate(w.letters):
            if letter > 0:
                bullet_sums[letter - 1].add(x, wv)
            else:
                box_sums[-letter - 1].add(x, wv)
    return _flat(bullet_sums + box_sums)


def reference_occupation_currents(gen, rates: RatePoint | None = None) -> list:
    """The bullet edge current per (row, boundary), then per row the up and
    the down patterns of the nonlocal moves (`occupation_rows`)."""
    L, n = gen.L, gen.n
    dom = SummandDomain(n, rates)
    edge = [dom.sums(L, terms=True) for _ in range(n)]
    up = dom.sums(n, terms=True)
    down = dom.sums(n, terms=True)
    for w, m in zip(gen.states, gen.weights):
        wv = dom.weight(m)
        letters = w.letters
        for x, letter in enumerate(letters):
            if letter <= 0:
                continue
            i = letter - 1
            right = letters[(x + 1) % L]
            left = letters[(x - 1) % L]
            if right < 0:
                term = dom.term(wv, ("p", letter))
                edge[i].add(x, term)
                if right == -letter:
                    up.add(i, term)
            if left < 0:
                term = dom.term(wv, ("q", letter))
                edge[i].add((x - 1) % L, term, -1)
                if left == -letter:
                    down.add(i, term)
    return _flat(edge + [up, down])


def reference_crossing_entries(t: Transition, L: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """The (channel, boundary, sign) entries of an arc's signed boundary
    crossings, in record order, as the tuple table held them."""
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


def reference_crossing_sums(gen, rates: RatePoint | None = None) -> list:
    """The crossing sums per channel and boundary (`crossings`)."""
    L, n = gen.L, gen.n
    dom = SummandDomain(n, rates)
    crossed = [dom.sums(L, terms=True) for _ in range(3 * n + 1)]
    for outs, m in zip(gen.transitions, gen.weights):
        wv = dom.weight(m)
        for t in outs:
            term = dom.term(wv, t.rate_symbol)
            for channel, boundary, sign in reference_crossing_entries(t, L, n):
                crossed[channel].add(boundary, term, sign)
    return _flat(crossed)


def reference_fiber_marginals(gen, rates: RatePoint | None = None) -> list:
    """The weight sum of each fiber of the label-erasing projection, fibers
    numbered in order of their first state (`fiber_rows`)."""
    ids: dict[tuple[int, ...], int] = {}
    fiber = [ids.setdefault(tuple(c if c > 0 else 0 for c in w.letters), len(ids)) for w in gen.states]
    dom = SummandDomain(gen.n, rates)
    sums = dom.sums(len(ids))
    for f, m in zip(fiber, gen.weights):
        sums.add(f, dom.weight(m))
    return sums.freeze()


REFERENCES = {
    "balance_rows": reference_balance,
    "density_rows": reference_densities,
    "occupation_rows": reference_occupation_currents,
    "crossings": reference_crossing_sums,
    "fiber_rows": reference_fiber_marginals,
}
