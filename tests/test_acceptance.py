"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact except the seed-fixed Monte Carlo checks
of criterion 11, whose tolerances are stated inline.
"""

import math
import random
from fractions import Fraction

from conftest import random_rate_point
from rate_symbols import p_var, q_var
from reference_closed_forms import brute_force_partition_function
from torus_asep.dynamics import build_generator, outgoing_transitions, restrict_ta
from torus_asep.mcmc import estimate_observables, simulate, tv_distance
from torus_asep.model import ColoredWord, enumerate_restricted, validate
from torus_asep.observables import (
    closed_currents,
    closed_forms,
    currents_exact,
    densities,
    partition_function,
    partition_function_special,
    scott_russell_check,
)
from torus_asep.stationary import (
    config_weight,
    drift,
    evans_product,
    exact_stationary,
    lump,
    lumped_distribution,
    lumping_report,
    total_box_weight,
    verify_balance,
    weight_identities,
)
from torus_asep.symbolic import Monomial, Polynomial, RatePoint


def test_c01_state_counts():
    """|restricted states| = binom(L-1, n-1) n^(L-n) for 1 <= n <= L <= 8."""
    for L in range(1, 9):
        for n in range(1, L + 1):
            words = enumerate_restricted(L, n)
            expected = math.comb(L - 1, n - 1) * n ** (L - n)
            assert len(words) == len(set(words)) == expected, (L, n)
            assert all(validate(w) == [] for w in words)
    assert len(enumerate_restricted(4, 2)) == 12
    print("CRITERION 1: PASS - state counts match the closed formula up to L = 8")


def test_c02_stationarity_oracle_equivalence():
    """The exact null vector of the generator is proportional to the weight
    monomials, at 20 random positive rational rate points per (L, n).

    n < L only: with n = L there are no transitions and no unique
    stationary law."""
    rng = random.Random(4242)
    points = 0
    for L in range(2, 7):
        for n in range(1, L):
            gen = build_generator(L, n)
            for _ in range(20):
                rp = random_rate_point(n, rng)
                table = exact_stationary(gen, rp)
                weights = [config_weight(w).evaluate(rp) for w in gen.states]
                total = sum(weights)
                assert sum(table.probabilities) == 1
                assert all(
                    prob * total == wv
                    for prob, wv in zip(table.probabilities, weights)
                ), (L, n, rp)
                points += 1
    print(f"CRITERION 2: PASS - null vector equals weights at {points} rate points (L <= 6)")


def test_c03_symbolic_balance():
    """Polynomial inflow equals outflow at every state for L <= 5."""
    states = 0
    for L in range(1, 6):
        for n in range(1, L + 1):
            report = verify_balance(L, n)
            assert report.ok, ((L, n), report.failures[:2])
            states += report.num_states
    print(f"CRITERION 3: PASS - symbolic balance at all {states} states with L <= 5")


def test_c04_partition_function():
    """Composition-sum partition function equals the brute-force weight sum
    for L <= 7, and the small displays match verbatim."""
    for L in range(1, 8):
        for n in range(1, L + 1):
            assert partition_function(L, n) == brute_force_partition_function(L, n), (L, n)
    w1 = p_var(2, 2) + q_var(2, 1)
    w2 = p_var(2, 1) + q_var(2, 2)
    assert partition_function(4, 2) == w1**2 + w1 * w2 + w2**2
    assert partition_function(3, 2) == p_var(2, 1) + p_var(2, 2) + q_var(2, 1) + q_var(2, 2)
    assert partition_function(2, 2) == Polynomial.one(2)
    print("CRITERION 4: PASS - partition function matches brute force for L <= 7")


def test_c05_special_cases():
    """Identical-rate, symmetric, and totally asymmetric substitutions match
    their closed forms (and the rectangular Schur form) for every n <= L <= 9."""
    cases = 0
    for L in range(1, 10):
        for n in range(1, L + 1):
            for case in ("identical", "symmetric", "totally_asymmetric"):
                cert = partition_function_special(L, n, case)
                assert cert.equal, (L, n, case)
                cases += 1
    print(f"CRITERION 5: PASS - {cases} special-case certificates (n <= L <= 9)")


def test_c06_weight_identities():
    """Determinant and telescoping weight identities hold for n <= 5."""
    for n in range(1, 6):
        report = weight_identities(n)
        assert report.ok, (n, report.failures)
    print("CRITERION 6: PASS - weight identities hold symbolically for n <= 5")


def test_c07_lumping():
    """Fiber-rate constancy and product-form marginals for L <= 5, plus the
    worked (3,1,2,0) gap-vector example."""
    for L in range(1, 6):
        for n in range(1, L + 1):
            report = lumping_report(L, n)
            assert report.ok, (L, n)
            assert report.num_fibers == L * math.comb(L - 1, n - 1)
    word = ColoredWord.from_text("B1 b1 b2 b3 B2 b4 B3 b1 b2 B4")
    psi = lump(word)
    assert psi.gap_vector() == (3, 1, 2, 0)
    assert evans_product(psi.gap_vector(), 4) == (
        total_box_weight(1, 4) ** 3 * total_box_weight(2, 4) * total_box_weight(3, 4) ** 2
    )
    # lumped marginals of an exact stationary table follow the product form
    gen = build_generator(4, 2)
    rp = RatePoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    table = exact_stationary(gen, rp)
    denom = 4 * partition_function(4, 2).evaluate(rp)
    for fiber, prob in lumped_distribution(table).items():
        assert prob == evans_product(fiber.gap_vector(), 2).evaluate(rp) / denom
    print("CRITERION 7: PASS - lumping certified exhaustively for L <= 5")


def test_c08_densities_and_currents():
    """Densities and all five current families equal their expectation
    oracles: symbolically for L <= 5, at exact rational points for L <= 6;
    the (4,2) worked displays and the identical-rates current reduce
    correctly."""
    for L in range(2, 6):
        for n in range(1, L + 1):
            assert densities(L, n).ok, (L, n)
            assert currents_exact(L, n).ok, (L, n)
    rng = random.Random(808)
    for L in range(2, 7):
        for n in range(1, L):
            rp = random_rate_point(n, rng)
            assert densities(L, n, rp).ok, (L, n)
            assert currents_exact(L, n, rp).ok, (L, n)

    # worked displays at (4, 2)
    report = currents_exact(4, 2)
    entry = report.entry("bullet_edge_current", 1, 1)
    z32 = p_var(2, 1) + p_var(2, 2) + q_var(2, 1) + q_var(2, 2)
    assert entry.closed.num == drift(2) * z32

    def mono(**kw):
        exps = [0] * 4
        for key, val in kw.items():
            exps[int(key[1]) - 1 + (0 if key[0] == "p" else 2)] = val
        return Monomial(2, tuple(exps)).as_polynomial()

    assert closed_forms(4, 2)["box_density"][0] == (
        2 * mono(p2=2) + 2 * mono(p1=1, q2=1) + 2 * mono(p2=1, q1=1)
        + 2 * mono(p2=1, q2=1) + 2 * mono(q2=2) + mono(p1=1, p2=1) + mono(q1=1, q2=1)
    )

    # identical rates: edge current reduces to (p - q)(L - n) / (L (L - 1))
    for L, n in [(4, 2), (5, 3), (6, 4), (6, 2)]:
        p, q = Fraction(8, 5), Fraction(2, 7)
        values = closed_currents(L, n, RatePoint((p,) * n, (q,) * n))
        assert values["bullet_edge_current"] == (p - q) * (L - n) / (L * (L - 1))
    print("CRITERION 8: PASS - densities and currents match oracles (symbolic L <= 5, numeric L <= 6)")


def test_c09_scott_russell():
    """Vertical box current equals horizontal bullet current, row by row,
    from the defining expectations."""
    for L, n in [(4, 2), (5, 2), (5, 3)]:
        cert = scott_russell_check(L, n)
        assert cert.ok, (L, n)
    print("CRITERION 9: PASS - vertical box current equals bullet current at (4,2), (5,2), (5,3)")


def _strongly_connected_ta(states, zero_q):
    index = {w: j for j, w in enumerate(states)}
    fwd = [[] for _ in states]
    bwd = [[] for _ in states]
    for j, w in enumerate(states):
        for t in outgoing_transitions(w):
            if t.rate_symbol[0] == "q" and t.rate_symbol[1] in zero_q:
                continue
            fwd[j].append(index[t.target])
            bwd[index[t.target]].append(j)

    def full_reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(states)

    return full_reach(fwd) and full_reach(bwd)


def test_c10_totally_asymmetric_restriction():
    """With q_1 = 0: the surviving set is closed and strongly connected for
    L <= 5, its restricted size is the Stirling partition number at the
    listed sizes, and the full-space stationary law lives on it and still
    follows the weights."""
    zero_q = frozenset({1})
    for L in range(2, 6):
        for n in range(1, L):
            states, cert = restrict_ta(L, n, zero_q)
            assert cert.ok, (L, n)
            assert _strongly_connected_ta(states, zero_q), (L, n)

    def stirling2(a, b):
        table = [[0] * (b + 1) for _ in range(a + 1)]
        table[0][0] = 1
        for i in range(1, a + 1):
            for j in range(1, min(i, b) + 1):
                table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
        return table[a][b]

    for L, n in [(5, 2), (5, 3), (6, 3)]:
        states, cert = restrict_ta(L, n, zero_q)
        assert cert.ok
        assert sum(1 for w in states if w.is_restricted()) == stirling2(L, n), (L, n)

    for L, n in [(5, 2), (5, 3), (6, 3)]:
        rp = RatePoint(
            tuple(Fraction(k + 2, 2) for k in range(n)),
            (Fraction(0),) + tuple(Fraction(1) for _ in range(n - 1)),
        )
        states, _ = restrict_ta(L, n, zero_q)
        table = exact_stationary(build_generator(L, n), rp)
        assert [w for w, p in zip(table.states, table.probabilities) if p] == states, (L, n)
        weights = [config_weight(w).evaluate(rp) for w in table.states]
        total = sum(weights)
        assert all(p * total == wv for p, wv in zip(table.probabilities, weights))
    print("CRITERION 10: PASS - q_1 = 0 restriction closed, connected, Stirling-counted, weight-stationary")


def test_c11_simulation():
    """Seed-fixed Monte Carlo: (4,2) at p=(1,2), q=(3,5) for 10^6 events has
    total-variation distance < 0.01 from the exact stationary law; on (8,3)
    every estimated current sits within 3 batch-means standard errors of its
    closed form."""
    rp42 = RatePoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    gen = build_generator(4, 2)
    table = exact_stationary(gen, rp42)
    exact = {w.letters: p for w, p in zip(table.states, table.probabilities)}
    state, _ = simulate(4, 2, rp42, seed=20260809, events=1_000_000, record_states=True)
    tv = tv_distance(state, exact)
    assert tv < 0.01, tv

    rp83 = RatePoint(
        (Fraction(9, 10), Fraction(11, 10), Fraction(13, 10)),
        (Fraction(1, 5), Fraction(2, 5), Fraction(3, 10)),
    )
    state83, ledger83 = simulate(8, 3, rp83, seed=8301, time_horizon=2.0e5, batches=20)
    report = estimate_observables(ledger83, state83)
    closed = closed_currents(8, 3, rp83)
    checked = 0
    for i in range(1, 4):
        for j in range(1, 9):
            est = report.current("bullet_edge_current", i, j)
            assert est.within(float(closed["bullet_edge_current"]), 3.0), (i, j)
            checked += 1
        for name in ("bullet_row_current", "box_vertical_up", "box_vertical_down", "box_vertical_net"):
            est = report.current(name, i)
            assert est.within(float(closed[name]), 3.0), (name, i)
            checked += 1
        est = report.current("box_row_current", i)
        assert est.within(float(closed["box_row_current"][i - 1]), 3.0), i
        checked += 1
    for j in range(1, 9):
        est = report.current("box_column_current", j)
        assert est.within(float(closed["box_column_current"]), 3.0), j
        checked += 1

    # paired empirical check: per row, the estimated net vertical box current
    # agrees with the estimated horizontal bullet current within joint bars
    for i in range(1, 4):
        vertical = report.current("box_vertical_net", i)
        horizontal = report.current("bullet_row_current", i)
        joint = math.hypot(vertical.stderr, horizontal.stderr)
        assert abs(vertical.value - horizontal.value) <= 3.0 * joint, i
    print(
        f"CRITERION 11: PASS - TV(10^6 events) = {tv:.4f} < 0.01; "
        f"{checked} current estimates within 3 SE on (8,3); "
        f"paired vertical/horizontal agreement per row"
    )
