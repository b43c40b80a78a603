"""The lumping certificate as it stood before fibers were keyed by int ids,
over the full state space that the graph expands to: each state lumped to a `OneDimConfig`, each state's arcs compared as a
`Counter` of (target fiber, rate symbol), each fiber's weights summed as a
`Polynomial` and its product form rebuilt per fiber.  Kept as the slow
reference that test_stationary.py checks `lumping_report` against; nothing
in the package imports it.
"""

from __future__ import annotations

from collections import Counter

from rate_symbols import rate_symbols
from reference_graph import full_arcs
from torus_asep.stationary import LumpingReport, OneDimConfig, lump, total_box_weight
from torus_asep.symbolic import Polynomial


def reference_evans_product(gaps: tuple[int, ...], n: int) -> Polynomial:
    total = Polynomial.one(n)
    for k, c in enumerate(gaps, start=1):
        if c:
            total = total * total_box_weight(k, n) ** c
    return total


def reference_lumping_report(gen) -> LumpingReport:
    L, n = gen.L, gen.n
    lumped = [lump(w) for w in gen.states]
    fibers: dict[OneDimConfig, list[int]] = {}
    for j, psi in enumerate(lumped):
        fibers.setdefault(psi, []).append(j)

    arcs: list[list[tuple[int, int]]] = [[] for _ in gen.states]
    for j, k, r, _ in zip(*(column.tolist() for column in full_arcs(gen))):
        arcs[j].append((k, r))
    symbols = rate_symbols(n)

    rate_failures = []
    for psi, members in fibers.items():
        reference = None
        for j in members:
            into = Counter((lumped[k], symbols[r]) for k, r in arcs[j])
            if reference is None:
                reference = into
            elif into != reference:
                rate_failures.append((psi, gen.states[j]))

    marginal_failures = [
        psi
        for psi, members in fibers.items()
        if Polynomial(n, Counter(gen.weights[j].exponents for j in members))
        != reference_evans_product(psi.gap_vector(), n)
    ]

    return LumpingReport(
        L=L,
        n=n,
        num_fibers=len(fibers),
        lumpable=not rate_failures,
        fiber_rate_failures=rate_failures,
        marginal_ok=not marginal_failures,
        marginal_failures=marginal_failures,
    )
