"""Generator assembly as it stood while `build_generator` still took a rate
point and an explicit state subset: arcs whose rate vanishes at the point
are left out, and an arc may leave the subset only if its rate vanishes.
Kept as the reference that the differential tests of the full-space solve
check against; nothing in the package imports it.  The subset graph is
only solved, so it carries no displacement records.
"""

from __future__ import annotations

import numpy as np

from rate_symbols import rate_symbols, rate_value
from torus_asep.dynamics import Arcs, SparseGenerator, Transition, _transitions, check_state_cap
from torus_asep.model import ColoredWord, enumerate_full, ensure_valid
from torus_asep.symbolic import RatePoint


def build_generator(
    L: int,
    n: int,
    rates: RatePoint | None = None,
    states: list[ColoredWord] | None = None,
) -> SparseGenerator:
    """The transition graph at `rates` over the full state space or a given
    subset, which must be closed under the positive-rate dynamics."""
    subset_mode = states is not None
    if states is None:
        check_state_cap(L, n)
        states = enumerate_full(L, n)
    else:
        for w in states:
            ensure_valid(w)
    index = {w: j for j, w in enumerate(states)}
    vanishing = set() if rates is None else {s for s in rate_symbols(n) if rate_value(rates, s) == 0}
    all_transitions: list[list[Transition]] = []
    all_targets: list[list[int]] = []
    for w in states:
        outs, targets = [], []
        for t in _transitions(w):
            k = index.get(t.target)
            if k is None:
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
    rate = {s: r for r, s in enumerate(rate_symbols(n))}
    arcs = Arcs(
        np.array([j for j, targets in enumerate(all_targets) for _ in targets], dtype=np.int64),
        np.array([k for targets in all_targets for k in targets], dtype=np.int64),
        np.array([rate[t.rate_symbol] for outs in all_transitions for t in outs], dtype=np.int64),
    )
    gen = SparseGenerator(L, n, tuple(states), index, arcs, np.zeros((0, 6), dtype=np.int32))
    # The subset's own arcs, not the view of every arc of its states that
    # the move rule would rebuild: the reference solver reads these.
    gen.__dict__["transitions"] = tuple(map(tuple, all_transitions))
    return gen
