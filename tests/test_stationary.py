import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_generator
import reference_weights
from reference_lumping import reference_evans_product, reference_lumping_report
from conftest import arc_targets, random_rate_point, state_index, with_swapped_targets
from rate_symbols import p_var, q_var, rate_value
from reference_graph import breadth_first, full_arcs
from torus_asep.dynamics import Arcs, build_generator, generator_entries, restrict_ta
from torus_asep.model import ColoredWord, ValidationError, enumerate_full, iter_restricted, validate_word
from torus_asep import stationary
from torus_asep.stationary import (
    StationaryError,
    box_exponents,
    box_weight,
    config_weight,
    evans_product,
    exact_stationary,
    lump,
    lumped_distribution,
    lumping_report,
    total_box_weight,
    verify_balance,
    weight_exponents,
    weight_identities,
)
from torus_asep.symbolic import Domain, Monomial, Polynomial, RatePoint, integer_totals

TAU = ColoredWord.from_text("B1 b3 b3 b4 B2 b2 B3 b3 B4 b1")


def _mono4(**kw):
    exps = [0] * 8
    for key, value in kw.items():
        exps[int(key[1]) - 1 + (0 if key[0] == "p" else 4)] = value
    return Monomial(4, tuple(exps))


def test_box_weight_displays():
    # n = 4, gap 1, summed over rows
    assert total_box_weight(1, 4) == (
        _mono4(p2=1, p3=1, p4=1).as_polynomial()
        + _mono4(q1=1, p2=1, p3=1).as_polynomial()
        + _mono4(q4=1, q1=1, p2=1).as_polynomial()
        + _mono4(q3=1, q4=1, q1=1).as_polynomial()
    )
    assert box_weight(1, 1, 1) == Monomial.unit(1)
    # row n in gap n keeps every forward rate but its own
    assert box_weight(3, 3, 3) == Monomial(3, (1, 1, 0, 0, 0, 0))
    assert total_box_weight(1, 2) == p_var(2, 2) + q_var(2, 1)
    assert total_box_weight(2, 2) == p_var(2, 1) + q_var(2, 2)


def test_box_weight_degree_and_shift():
    for n in (2, 3, 4, 5):
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                assert box_weight(i, k, n).degree() == n - 1
        for k in range(1, n):
            assert total_box_weight(k, n).shift_rows(1) == total_box_weight(k + 1, n)


def test_box_weight_range_errors():
    with pytest.raises(ValueError):
        box_weight(0, 1, 2)
    with pytest.raises(ValueError):
        box_weight(1, 3, 2)


def test_config_weight_worked_example():
    assert config_weight(TAU) == _mono4(p1=2, p2=4, p3=2, p4=2, q1=3, q2=1, q3=1, q4=3)


def test_config_weight_still_validates_its_word():
    # Two bullets labelled 1 and no bullet 2: not a state.
    with pytest.raises(ValidationError):
        config_weight(ColoredWord(2, (1, -1, -2, 1)))


def test_config_weight_degenerate_and_rotation_invariant():
    assert config_weight(ColoredWord(2, (1, 2))) == Monomial.unit(2)
    for w in iter_restricted(4, 2):
        weight = config_weight(w)
        for s in range(4):
            assert config_weight(w.rotate(s)) == weight


def test_weight_identities():
    for n in (1, 2, 3, 4):
        report = weight_identities(n)
        assert report.ok, (n, report.failures)


def test_determinant_identity_n2_display():
    from torus_asep.symbolic import poly_det, rate_product

    matrix = [[box_weight(i, k, 2).as_polynomial() for k in (1, 2)] for i in (1, 2)]
    drift = rate_product(2, "p").as_polynomial() - rate_product(2, "q").as_polynomial()
    assert poly_det(matrix) == drift


def test_exact_stationary_two_state():
    gen = build_generator(2, 1)
    table = exact_stationary(gen, RatePoint((Fraction(5),), (Fraction(2, 3),)))
    assert table.probabilities == [Fraction(1, 2), Fraction(1, 2)]


def test_exact_stationary_matches_weights_4_2():
    gen = build_generator(4, 2)
    rp = RatePoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    table = exact_stationary(gen, rp)
    weights = [config_weight(w).evaluate(rp) for w in gen.states]
    total = sum(weights)
    assert sum(table.probabilities) == 1
    assert all(p * total == wv for p, wv in zip(table.probabilities, weights))
    assert generator_rank_deficiency(gen, rp) == 1


def test_exact_stationary_matches_weights_random(rng):
    gen = build_generator(5, 2)
    for _ in range(5):
        rp = random_rate_point(2, rng)
        table = exact_stationary(gen, rp)
        weights = [config_weight(w).evaluate(rp) for w in gen.states]
        total = sum(weights)
        assert all(p * total == wv for p, wv in zip(table.probabilities, weights))


def _gth_stationary(gen, rp):
    """Independent exact solver: state-censoring elimination on the jump
    rates (no subtraction on the diagonal, so no cancellation), then back
    substitution.  Dense Fractions; only usable for small chains."""
    size = gen.num_states
    rate = [[Fraction(0)] * size for _ in range(size)]
    index = state_index(gen)
    for j, outs in enumerate(gen.transitions):
        for t in outs:
            rate[j][index[t.target]] += rate_value(rp, t.rate_symbol)
    for s in range(size - 1, 0, -1):
        out_total = sum(rate[s][:s])
        for i in range(s):
            if rate[i][s]:
                scale = rate[i][s] / out_total
                for j in range(s):
                    if i != j and rate[s][j]:
                        rate[i][j] += scale * rate[s][j]
    x = [Fraction(0)] * size
    x[0] = Fraction(1)
    for s in range(1, size):
        out_total = sum(rate[s][:s])
        x[s] = sum(x[i] * rate[i][s] for i in range(s)) / out_total
    total = sum(x)
    return [v / total for v in x]


def test_exact_stationary_cross_checked_by_censoring(rng):
    for L, n in [(4, 2), (4, 3), (5, 2)]:
        gen = build_generator(L, n)
        rp = random_rate_point(n, rng)
        table = exact_stationary(gen, rp)
        assert table.probabilities == _gth_stationary(gen, rp)


def test_exact_stationary_requires_some_dynamics():
    gen = build_generator(3, 3)
    with pytest.raises(StationaryError):
        exact_stationary(gen, RatePoint((Fraction(1),) * 3, (Fraction(1),) * 3))


def test_exact_stationary_solves_reducible_full_space():
    """With q_1 = 0 the full space is reducible; the solver finds its one
    closed class and puts the law there, zero elsewhere."""
    gen = build_generator(4, 2)
    rp = RatePoint((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    table = exact_stationary(gen, rp)
    weights = [m.evaluate(rp) for m in gen.weights]
    total = sum(weights)
    assert all(p * total == wv for p, wv in zip(table.probabilities, weights))
    support = [j for j, p in enumerate(table.probabilities) if p]
    assert 0 < len(support) < gen.num_states
    # the class is closed under rotation: each of its representatives stands for L of its states
    assert len(set(gen.orbit[0][support].tolist())) == len(support) // gen.L


def test_exact_stationary_on_ta_restriction():
    rp = RatePoint((Fraction(2), Fraction(3)), (Fraction(0), Fraction(1)))
    states, cert = restrict_ta(4, 2, {1})
    assert cert.ok
    table = exact_stationary(build_generator(4, 2), rp)
    assert [w for w, p in zip(table.states, table.probabilities) if p] == states
    weights = [config_weight(w).evaluate(rp) for w in states]
    total = sum(weights)
    assert all(table.probabilities[table.states.index(w)] * total == wv for w, wv in zip(states, weights))


def test_exact_stationary_rejects_two_closed_classes(rng):
    """A graph edited so that states 0 and 1 keep no arc has two closed
    classes, and so no unique law; so has n = L, where nothing moves."""
    gen = build_generator(4, 2)
    keep = gen.arcs.source >= 2
    cut = dataclasses.replace(gen, arcs=Arcs(*(column[keep] for column in gen.arcs)))
    with pytest.raises(StationaryError, match="more than one closed class"):
        exact_stationary(cut, random_rate_point(2, rng))
    with pytest.raises(StationaryError, match="more than one closed class"):
        exact_stationary(build_generator(3, 3), random_rate_point(3, rng))


def test_symbolic_balance_small():
    for L, n in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        report = verify_balance(L, n)
        assert report.ok, ((L, n), report.failures[:3])


def test_symbolic_balance_L6():
    for n in range(1, 7):
        report = verify_balance(6, n)
        assert report.ok, (6, n, report.failures[:3])


def test_numeric_balance(rng):
    rp = random_rate_point(3, rng)
    report = verify_balance(5, 3, rates=rp)
    assert report.ok and report.mode == "numeric"


def test_balance_and_lumping_reject_a_generator_of_another_lattice():
    gen = build_generator(5, 2)
    for L, n in [(4, 2), (5, 3)]:
        with pytest.raises(ValueError, match="lattice"):
            verify_balance(L, n, gen=gen)
        with pytest.raises(ValueError, match="lattice"):
            lumping_report(L, n, gen=gen)


def test_balance_trivial_no_boxes():
    report = verify_balance(3, 3)
    assert report.ok and report.num_states == 3


def test_balance_structure_of_adjacent_bullet_states():
    """Every (4,2) state with both bullets adjacent has exactly two incoming
    transitions, and their weighted inflow balances the (q1 + p2) outflow."""
    gen = build_generator(4, 2)
    incoming = {j: [] for j in range(gen.num_states)}
    index = state_index(gen)
    for j, outs in enumerate(gen.transitions):
        for t in outs:
            incoming[index[t.target]].append(t)
    weights = {w: config_weight(w).as_polynomial() for w in gen.states}
    checked = 0
    for j, w in enumerate(gen.states):
        if not w.is_restricted() or w.letters[1] != 2:
            continue
        checked += 1
        outs = gen.transitions[j]
        assert sorted(t.rate_symbol for t in outs) == [("p", 2), ("q", 1)]
        ins = incoming[j]
        assert len(ins) == 2
        inflow = Polynomial.zero(2)
        for t in ins:
            family, k = t.rate_symbol
            inflow = inflow + weights[t.source] * (p_var if family == "p" else q_var)(2, k)
        outflow = weights[w] * (q_var(2, 1) + p_var(2, 2))
        assert inflow == outflow
    assert checked == 4


def test_exact_stationary_never_reads_the_weights(monkeypatch):
    from torus_asep.dynamics import SparseGenerator

    def forbidden(gen):
        raise AssertionError("the solver read the weights it is there to test")

    monkeypatch.setattr(SparseGenerator, "weights", property(forbidden))
    table = exact_stationary(build_generator(4, 2), RatePoint.parse("1,2;3,5"))
    assert sum(table.probabilities) == 1


def test_weights_are_computed_once_per_generator(monkeypatch, fresh_graphs):
    calls = []
    original = stationary.config_weight

    def counting(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(stationary, "config_weight", counting)
    gen = build_generator(5, 3)
    assert verify_balance(5, 3, gen=gen).ok
    assert verify_balance(5, 3, rates=RatePoint.parse("1,2,3;4,5,6"), gen=gen).ok
    assert lumping_report(5, 3, gen=gen).ok
    # the checks read the exponents, one array pass over the representatives
    assert "weights" not in vars(gen) and calls == []
    exponents = gen.exponents
    assert len(gen.weights) == gen.num_states
    assert gen.exponents is exponents and calls == []


@pytest.mark.parametrize("L", range(1, 8))
def test_weight_exponents_match_the_box_gap_labels_path(L):
    """On every state with L <= 7, the array pass, which reads each box's
    gap label as the running last bullet along the row with the wrap, gives
    the weight that `box_gap_labels` gives box by box; the graph's
    `exponents` and `weights` are read from it."""
    for n in range(1, L + 1):
        words = enumerate_full(L, n)
        expected = [reference_weights.config_weight(w) for w in words]
        letters = np.array([w.letters for w in words], dtype=np.int64)
        assert weight_exponents(letters, n).tolist() == [list(m.exponents) for m in expected]
        gen = build_generator(L, n)
        assert gen.weights == tuple(expected)
        assert gen.exponents.tolist() == [list(config_weight(w).exponents) for w in gen.representatives]


@pytest.mark.parametrize("L", range(1, 7))
def test_config_weight_matches_the_box_gap_labels_reference(L):
    """The one-pass walk from bullet 1 weighs every word of every n <= L as
    the box-by-box reference does."""
    for n in range(1, L + 1):
        for w in enumerate_full(L, n):
            assert config_weight(w) == reference_weights.config_weight(w), w.to_text()


@st.composite
def _words(draw):
    """A valid word, or one broken in one of the ways a word can be: a
    letter 0 or past n, a bullet missing, repeated or out of cyclic order,
    n below 1, or the word emptied or cut short; or any list of letters."""
    n = draw(st.integers(1, 5))
    L = draw(st.integers(n, 8))
    labels = draw(st.integers(0, n - 1))
    positions = sorted(draw(st.lists(st.integers(0, L - 1), min_size=n, max_size=n, unique=True)))
    letters = [-draw(st.integers(1, n)) for _ in range(L)]
    for x, label in zip(positions, range(n)):
        letters[x] = (label + labels) % n + 1
    flaw = draw(st.sampled_from(("none", "zero", "past_n", "missing", "repeated", "order", "rows", "empty", "short", "any")))
    x = draw(st.integers(0, L - 1))
    if flaw == "zero":
        letters[x] = 0
    elif flaw == "past_n":
        letters[x] = draw(st.sampled_from((1, -1))) * draw(st.integers(n + 1, n + 3))
    elif flaw == "missing":
        letters[positions[x % n]] = -draw(st.integers(1, n))
    elif flaw == "repeated":
        letters[x] = draw(st.integers(1, n))
    elif flaw == "order" and n >= 2:
        a, b = draw(st.lists(st.sampled_from(positions), min_size=2, max_size=2, unique=True))
        letters[a], letters[b] = letters[b], letters[a]
    elif flaw == "rows":
        n = draw(st.integers(-2, 0))
    elif flaw == "empty":
        letters = []
    elif flaw == "short":
        letters = letters[: draw(st.integers(0, n - 1))]
    elif flaw == "any":
        letters = draw(st.lists(st.integers(-n - 2, n + 2), max_size=8))
    return ColoredWord(n, tuple(letters))


@settings(max_examples=400, deadline=None)
@given(_words())
def test_config_weight_raises_the_violations_of_ensure_valid(w):
    """A malformed word gets the same `ValidationError` from the one-pass
    walk as from `ensure_valid`; a valid one gets the reference weight."""
    violations = validate_word(w)
    if not violations:
        assert config_weight(w) == reference_weights.config_weight(w)
        return
    with pytest.raises(ValidationError) as raised:
        config_weight(w)
    assert raised.value.violations == violations


def test_weight_identities_match_the_monomial_reference(monkeypatch):
    """The table-read identities give the reference's report on every
    n <= 6, and, on a table with two box weights swapped, the same failures."""
    for n in range(1, 7):
        assert weight_identities(n) == reference_weights.weight_identities(n)
    n = 3
    table = [list(row) for row in box_exponents(n)]
    table[0][1], table[1][0] = table[1][0], table[0][1]
    monkeypatch.setattr(stationary, "box_exponents", lambda _: table)
    broken = weight_identities(n)
    assert not broken.ok and not broken.determinant_ok
    assert broken == reference_weights.weight_identities(n, lambda i, k, _: Monomial(n, table[i - 1][k - 1]))


def test_stationary_table_export_and_lookup():
    gen = build_generator(3, 2)
    rp = RatePoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    table = exact_stationary(gen, rp)
    rows = table.to_json_rows()
    assert len(rows) == 12
    assert sum(Fraction(row["probability"]) for row in rows) == 1
    word = ColoredWord.from_text("B1 B2 b1")
    # q2 / (L * Z) at these rates: 5 / (3 * 11)
    assert table.probabilities[table.states.index(word)] == Fraction(5, 33)


def test_lump_gap_vector_example():
    # the ring configuration with gaps (3, 1, 2, 0) between consecutive bullets
    word = ColoredWord.from_text("B1 b1 b2 b3 B2 b4 B3 b1 b2 B4")
    psi = lump(word)
    assert psi.gap_vector() == (3, 1, 2, 0)
    assert psi.to_text() == "B1 . . . B2 . B3 . . B4"
    expected = (
        total_box_weight(1, 4) ** 3
        * total_box_weight(2, 4)
        * total_box_weight(3, 4) ** 2
    )
    assert evans_product(psi.gap_vector(), 4) == expected


def test_fiber_weight_sum_matches_product_form():
    """Summing state weights over one lumping fiber of the (10,4) system
    reproduces the product form for the gaps (3, 1, 2, 0)."""
    import itertools

    base = ColoredWord.from_text("B1 b1 b1 b1 B2 b1 B3 b1 b1 B4")
    box_positions = [x for x, c in enumerate(base.letters) if c < 0]
    total = Polynomial.zero(4)
    for labels in itertools.product((1, 2, 3, 4), repeat=len(box_positions)):
        letters = list(base.letters)
        for x, lab in zip(box_positions, labels):
            letters[x] = -lab
        total = total + config_weight(ColoredWord(4, tuple(letters))).as_polynomial()
    assert total == evans_product((3, 1, 2, 0), 4)


@pytest.mark.parametrize("L,n", [(4, 2), (5, 2), (4, 3)])
def test_lumping_report(L, n):
    import math

    report = lumping_report(L, n)
    assert report.ok
    assert report.num_fibers == L * math.comb(L - 1, n - 1)


def test_lumping_report_reads_the_arc_targets():
    # Swap the targets of two arcs that lead into different fibers: the
    # state's (target fiber, rate symbol) multiset no longer matches its fiber.
    gen = build_generator(4, 2)
    words = [[gen.representatives[t].rotate(s) for t, s in targets] for targets in arc_targets(gen)]
    j = next(j for j, targets in enumerate(words) if len(targets) > 1 and lump(targets[0]) != lump(targets[1]))
    report = lumping_report(4, 2, gen=with_swapped_targets(gen, j))
    assert not report.lumpable and report.marginal_ok


def _on_representatives(report):
    """A full-space lumping report with its failures cut to the states and
    fibers with B1 at column 0, the ones the package's report names."""
    return dataclasses.replace(
        report,
        fiber_rate_failures=[(psi, w) for psi, w in report.fiber_rate_failures if w.is_restricted()],
        marginal_failures=[psi for psi in report.marginal_failures if psi.letters[0] == 1],
    )


@pytest.mark.parametrize("L,n", [(L, n) for L in range(1, 7) for n in range(1, L + 1)])
def test_lumping_report_matches_reference(L, n):
    gen = build_generator(L, n)
    assert lumping_report(L, n, gen=gen) == _on_representatives(reference_lumping_report(gen))


def test_lumping_report_failures_match_reference():
    # Swap the arcs of two representatives of different fibers: they no
    # longer lead where the fibers' other members' arcs lead.  Swap their
    # weights too, so the fiber sums break as well.  The reference walks
    # the full space that the broken graph expands to.
    gen = build_generator(5, 2)
    states = gen.representatives
    j = next(j for j, w in enumerate(states) if lump(w) != lump(states[0]))
    source = np.choose((gen.arcs.source == 0) + 2 * (gen.arcs.source == j), [gen.arcs.source, j, 0])
    order = np.argsort(source, kind="stable")
    broken = dataclasses.replace(gen, arcs=Arcs(*(column[order] for column in (source, *gen.arcs[1:]))))
    exponents = gen.exponents.copy()
    exponents[[0, j]] = exponents[[j, 0]]
    broken.__dict__["exponents"] = exponents  # the table read on first access
    report = lumping_report(5, 2, gen=broken)
    assert not report.lumpable and not report.marginal_ok
    assert report == _on_representatives(reference_lumping_report(broken))


def test_evans_product_is_memoised_and_matches_reference():
    for gaps, n in [((3, 1, 2, 0), 4), ((0, 2), 2), ((1, 0, 1), 3)]:
        assert evans_product(gaps, n) is evans_product(gaps, n)
        assert evans_product(gaps, n) == reference_evans_product(gaps, n)


def test_lumped_marginals_match_product_form():
    gen = build_generator(4, 2)
    rp = RatePoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    table = exact_stationary(gen, rp)
    marginals = lumped_distribution(table)
    from torus_asep.observables import partition_function

    denom = 4 * partition_function(4, 2).evaluate(rp)
    for psi, prob in marginals.items():
        assert prob == evans_product(psi.gap_vector(), 2).evaluate(rp) / denom


def test_single_lumped_state_when_no_boxes():
    fibers = {lump(w) for w in build_generator(3, 3).states}
    assert len(fibers) == 3  # one per rotation; each fiber is a singleton
    report = lumping_report(3, 3)
    assert report.ok


# -- reference solvers ---------------------------------------------------------------
# The full-space solver (dense Fractions up to 64 states, float LU with exact
# refinement above) and the dense rank computation that the rotation-quotient
# modular path replaced, kept here to test that path against.


def _reference_solve_fraction_dense(size, triplets, b):
    A = [[Fraction(0)] * size for _ in range(size)]
    for i, j, v in triplets:
        A[i][j] += v
    y = list(b)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if A[r][col]), None)
        if pivot_row is None:
            raise StationaryError("singular system: chain has no unique stationary law")
        if pivot_row != col:
            A[col], A[pivot_row] = A[pivot_row], A[col]
            y[col], y[pivot_row] = y[pivot_row], y[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        y[col] *= inv
        for r in range(size):
            if r != col and A[r][col]:
                factor = A[r][col]
                A[r] = [x - factor * piv for x, piv in zip(A[r], A[col])]
                y[r] -= factor * y[col]
    return y


def _reference_solve_refined(size, triplets, b, target_bits):
    agg = {}
    for i, j, v in triplets:
        agg[(i, j)] = agg.get((i, j), Fraction(0)) + v
    items = [(i, j, v) for (i, j), v in agg.items() if v]
    rows = np.array([i for i, _, _ in items], dtype=np.int64)
    cols = np.array([j for _, j, _ in items], dtype=np.int64)
    vals = np.array([float(v) for _, _, v in items], dtype=np.float64)
    matrix = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(size, size))
    try:
        lu = scipy.sparse.linalg.splu(matrix)
    except RuntimeError:
        # With rates about 10^10 apart, float64 rounds the small ones away
        # and the factor comes out exactly singular: solve exactly instead.
        return _reference_solve_fraction_dense(size, triplets, b)
    y = [Fraction(x) for x in lu.solve(np.array([float(x) for x in b], dtype=np.float64))]
    bound = Fraction(1, 2**target_bits)
    for _ in range(80):
        residual = list(b)
        for i, j, v in items:
            residual[i] -= v * y[j]
        if all(abs(r) <= bound for r in residual):
            return y
        top = max(abs(r) for r in residual)
        mag = top.numerator.bit_length() - top.denominator.bit_length()
        scale = 2 ** max(0, -mag)
        correction = lu.solve(np.array([float(r * scale) for r in residual], dtype=np.float64))
        y = [yi + Fraction(ci) / scale for yi, ci in zip(y, correction)]
    raise StationaryError("iterative refinement failed to converge")


def _reference_is_null_vector(num, arcs, x):
    acc = [Fraction(0)] * num
    for s, t, v in arcs:
        flow = v * x[s]
        acc[t] += flow
        acc[s] -= flow
    return all(a == 0 for a in acc)


def _strongly_connected(num, edges):
    """Forward and backward reachability of node 0 over the whole graph."""
    fwd = [[] for _ in range(num)]
    bwd = [[] for _ in range(num)]
    for u, v in edges:
        fwd[u].append(v)
        bwd[v].append(u)
    return len(breadth_first(fwd, 0)) == num and len(breadth_first(bwd, 0)) == num


def _reference_exact_stationary(gen, rates):
    values = rates.integer_scaling()[1]
    scaled = RatePoint(values[: rates.n], values[rates.n :])
    num = gen.num_states
    arcs = []
    index = state_index(gen)
    for j, outs in enumerate(gen.transitions):
        for t in outs:
            value = rate_value(scaled, t.rate_symbol)
            if value:
                arcs.append((j, index[t.target], value))
    if not arcs:
        raise StationaryError("chain has no transitions")
    if not _strongly_connected(num, [(u, v) for u, v, _ in arcs]):
        raise StationaryError("chain is reducible at these rates; restrict")
    size = num - 1
    if size == 0:
        return [Fraction(1)]
    triplets = []
    b = [Fraction(0)] * size
    for s, t, v in arcs:
        if t != s:
            if s == 0:
                if t != 0:
                    b[t - 1] -= v
            elif t != 0:
                triplets.append((t - 1, s - 1, v))
            if s != 0:
                triplets.append((s - 1, s - 1, -v))
    degree = (gen.L - gen.n) * (gen.n - 1)
    max_rate = max(scaled.p + scaled.q)
    bound = max(int(max_rate) ** max(degree, 1), 2)
    target_bits = 2 * bound.bit_length() + 40
    if size <= 64:
        y = _reference_solve_fraction_dense(size, triplets, b)
    else:
        for attempt in range(3):
            raw = _reference_solve_refined(size, triplets, b, target_bits << attempt)
            y = [x.limit_denominator(bound << (attempt * 8)) for x in raw]
            if _reference_is_null_vector(num, arcs, [Fraction(1)] + y):
                break
        else:
            raise StationaryError("failed to reconstruct an exact null vector")
    x = [Fraction(1)] + list(y)
    if not _reference_is_null_vector(num, arcs, x):
        raise StationaryError("candidate vector fails the exact balance equations")
    if any(v <= 0 for v in x):
        raise StationaryError("null vector is not strictly positive")
    total = sum(x)
    return [v / total for v in x]


def generator_rank_deficiency(gen, rates):
    """num_states - rank(M) computed modulo the solver's first prime, by its
    sparse elimination on the full, singular M.

    The rank modulo a prime never exceeds the rational rank, so a deficiency
    of 1 here, together with one exhibited null vector, proves the rational
    null space is exactly one-dimensional.
    """
    prime, num = stationary.PRIMES[0], gen.num_states
    source, target, rate, _ = full_arcs(gen)
    row, col, entries = generator_entries(num, source, target, rate)
    values = integer_totals(entries, [1], rates.integer_scaling()[1])
    return num - len(stationary._eliminate(stationary._rows(num, row.tolist(), col.tolist(), values, prime), prime))


def _reference_rank_deficiency(gen, rates, prime=2_147_483_647):
    values = rates.integer_scaling()[1]
    scaled = RatePoint(values[: rates.n], values[rates.n :])
    num = gen.num_states
    M = np.zeros((num, num), dtype=np.int64)
    index = state_index(gen)
    for j, outs in enumerate(gen.transitions):
        for t in outs:
            v = rate_value(scaled, t.rate_symbol)
            M[index[t.target], j] = (M[index[t.target], j] + v.numerator) % prime
            M[j, j] = (M[j, j] - v.numerator) % prime
    rank = 0
    row = 0
    for col in range(num):
        pivots = np.nonzero(M[row:, col])[0]
        if pivots.size == 0:
            continue
        pivot_row = row + int(pivots[0])
        if pivot_row != row:
            M[[row, pivot_row]] = M[[pivot_row, row]]
        inv = pow(int(M[row, col]), prime - 2, prime)
        M[row] = (M[row] * inv) % prime
        below = M[row + 1 :, col].copy()
        if below.size:
            M[row + 1 :] = (M[row + 1 :] - np.outer(below, M[row])) % prime
        rank += 1
        row += 1
        if row == num:
            break
    return num - rank


def _solve_both(gen, rates):
    """Both solvers' probabilities, or the StationaryError each raised."""
    out = []
    for solve in (lambda: exact_stationary(gen, rates).probabilities, lambda: _reference_exact_stationary(gen, rates)):
        try:
            out.append(solve())
        except StationaryError as err:
            out.append(err)
    return out


def _assert_same_as_subset_reference(gen, rates):
    """At a point with a zero rate: the full-space law is the reference
    subset assembly's solve on the law's support, which must be closed
    under the positive-rate dynamics, and zero elsewhere; with q's zeroed
    that support is the restrict_ta set."""
    probabilities = exact_stationary(gen, rates).probabilities
    support = [w for w, p in zip(gen.states, probabilities) if p]
    zero_q = {k + 1 for k, x in enumerate(rates.q) if x == 0}
    if zero_q:
        states, cert = restrict_ta(gen.L, gen.n, zero_q)
        assert cert.ok and support == states
    subset = reference_generator.build_generator(gen.L, gen.n, rates=rates, states=support)
    expected = dict(zip(support, _assert_solves_like_reference(subset, rates)))
    assert probabilities == [expected.get(w, 0) for w in gen.states], rates
    return probabilities


def _assert_same_as_reference(gen, rates):
    """The full-space law against the reference, directly when every rate
    is positive, else through the subset reference."""
    if 0 in rates.p + rates.q:
        return _assert_same_as_subset_reference(gen, rates)
    return _assert_solves_like_reference(gen, rates)


def _assert_solves_like_reference(gen, rates):
    new, ref = _solve_both(gen, rates)
    if isinstance(ref, StationaryError) and "refinement" in str(ref):
        # The float LU of the reference does not converge on some badly
        # conditioned rate points (e.g. p = (5762, 5762, 1), q = (1, 1, 1) at
        # (5,3)).  There the chain must be irreducible and the new table its
        # exact positive null vector, which is unique.
        index = state_index(gen)
        arcs = [(j, index[t.target], rate_value(rates, t.rate_symbol)) for j, outs in enumerate(gen.transitions) for t in outs]
        assert _strongly_connected(gen.num_states, [(s, t) for s, t, v in arcs if v])
        assert _reference_is_null_vector(gen.num_states, arcs, new) and min(new) > 0 and sum(new) == 1
    elif isinstance(ref, StationaryError):
        assert isinstance(new, StationaryError), (rates, ref)
    else:
        assert new == ref, rates
    return new


@functools.lru_cache(maxsize=None)
def _generator(L, n):
    return build_generator(L, n)


_BIG = 10**12


@st.composite
def _solver_cases(draw):
    L = draw(st.integers(2, 5))
    n = draw(st.integers(1, L - 1))
    rate = st.builds(Fraction, st.integers(1, _BIG), st.integers(1, _BIG))
    p = [draw(rate) for _ in range(n)]
    q = [draw(rate) for _ in range(n)]
    # Zero some p_k or some q_k (RatePoint rejects zeros on both sides).
    side = draw(st.sampled_from(("none", "p", "q")))
    if side != "none":
        for k in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            (p if side == "p" else q)[k] = Fraction(0)
    return L, n, RatePoint(tuple(p), tuple(q))


@settings(max_examples=60, deadline=None)
@given(_solver_cases())
# one state and no arc to scatter, with a scaled rate just past int64
@example((2, 1, RatePoint((Fraction(1, 3036988439),), (Fraction(3037012561),))))
# a float64 factor of the reference that is exactly singular
@example((5, 2, RatePoint((Fraction(1), Fraction(39065512606)), (Fraction(0), Fraction(1)))))
def test_exact_stationary_matches_full_space_reference(case):
    L, n, rates = case
    _assert_same_as_reference(_generator(L, n), rates)


@pytest.mark.parametrize("L,n", [(6, 2), (6, 3), (6, 4)])
def test_exact_stationary_matches_reference_on_L6(L, n, rng):
    rates = random_rate_point(n, rng, denominator=997)
    probabilities = _assert_same_as_reference(_generator(L, n), rates)
    assert sum(probabilities) == 1


@pytest.mark.parametrize("zero_q", [{1}, {1, 2}])
def test_exact_stationary_matches_reference_on_ta_restriction(zero_q):
    p = (Fraction(2), Fraction(3, 7), Fraction(5))
    q = tuple(Fraction(0) if k in zero_q else Fraction(k + 10, 3) for k in (1, 2, 3))
    rates = RatePoint(p, q)
    gen = _generator(5, 3)
    probabilities = _assert_same_as_reference(gen, rates)
    assert 0 < sum(1 for prob in probabilities if prob) < 270
    weights = [m.evaluate(rates) for m in gen.weights]
    total = sum(weights)
    assert all(prob * total == wv for prob, wv in zip(probabilities, weights))


def _zero_rate_points(n):
    """A rate point for every nonempty set of zeroed q's and of zeroed p's."""
    for side in ("p", "q"):
        for mask in range(1, 2**n):
            zeroed = tuple(Fraction(0) if mask >> k & 1 else Fraction(k + 2, 3) for k in range(n))
            others = tuple(Fraction(2 * k + 5, 4) for k in range(n))
            yield RatePoint(zeroed, others) if side == "p" else RatePoint(others, zeroed)


@pytest.mark.parametrize("L,n", [(L, n) for L in range(2, 6) for n in range(1, L)])
def test_full_space_solve_matches_subset_reference_at_every_zero_set(L, n):
    gen = _generator(L, n)
    for rates in _zero_rate_points(n):
        _assert_same_as_subset_reference(gen, rates)


def test_solver_structure_is_kept_per_positive_rate_pattern():
    """One generator solves at points whose zero patterns interleave: all
    positive, a zero p_k, a zero q_k, all positive again.  Each table is a
    fresh generator's and the full-space reference's; the structure is
    built once per pattern, and equals the one a fresh generator builds at
    another point of the pattern, the pivot order of the elimination
    included."""
    gen = dataclasses.replace(_generator(5, 3))
    points = [
        RatePoint.parse("1,3/2,2;1/2,1/3,1/5"),
        RatePoint.parse("1,0,2;1/2,1/3,1/5"),
        RatePoint.parse("1,3/2,2;1/2,1/3,0"),
        RatePoint.parse("7/3,1/2,5;2,9,1/7"),
    ]
    kept = []
    for rates in points:
        table = exact_stationary(gen, rates).probabilities
        assert table == exact_stationary(dataclasses.replace(gen), rates).probabilities
        assert table == _assert_same_as_reference(gen, rates)
        kept.append(gen.solver_structure[tuple(x > 0 for x in rates.p + rates.q)])
    assert len(gen.solver_structure) == 3 and kept[3] is kept[0]
    fresh = dataclasses.replace(gen)
    exact_stationary(fresh, points[3])
    (structure,) = fresh.solver_structure.values()

    def fields(structure):
        return [*structure[:-2], *dataclasses.astuple(structure.entries)]

    assert all(np.array_equal(a, b) for a, b in zip(fields(structure), fields(kept[0]), strict=True))
    assert structure.skeleton is not None and structure.skeleton == kept[0].skeleton


def _pattern_points(n):
    """Two rate points of each kind: all rates positive, p_1 = 0, q_n = 0."""
    first = RatePoint(tuple(Fraction(k + 2, 3) for k in range(n)), tuple(Fraction(5, k + 4) for k in range(n)))
    second = RatePoint(tuple(Fraction(7, 2 * k + 3) for k in range(n)), tuple(Fraction(k + 9, 4) for k in range(n)))
    yield first, second
    yield (RatePoint((Fraction(0),) + r.p[1:], r.q) for r in (first, second))
    yield (RatePoint(r.p, r.q[:-1] + (Fraction(0),)) for r in (first, second))


def _quotient_values(gen, rates):
    """The kept structure of the pattern of `rates`, and the entries of
    its quotient matrix A at `rates`, as the solver works them out."""
    scaled = rates.integer_scaling()[1]
    quotient = gen.solver_structure[tuple(x > 0 for x in scaled)]
    totals = stationary.integer_totals(quotient.entries, [1], scaled)
    return quotient, [totals[e] for e in quotient.entry[: len(quotient.row)]]


def _quotient_rows(quotient, values, p):
    return stationary._rows(quotient.size, quotient.row, quotient.col, values, p)


@pytest.mark.parametrize("L,n", [(L, n) for L in range(2, 7) for n in range(1, L)])
def test_replayed_elimination_matches_a_fresh_one(L, n):
    """The pivot order kept at one point of a pattern, replayed at the
    same point, gives a fresh `_eliminate`'s steps; replayed at another
    point of the pattern, steps that solve A y = rhs modulo p as a fresh
    elimination's do.  The table at the other point is the reference's."""
    gen = dataclasses.replace(_generator(L, n))
    p = stationary.PRIMES[0]
    for first, second in _pattern_points(n):
        exact_stationary(gen, first)
        for rates in (first, second):
            quotient, values = _quotient_values(gen, rates)
            replayed = stationary._replay(quotient.skeleton, _quotient_rows(quotient, values, p), p)
            fresh = stationary._eliminate(_quotient_rows(quotient, values, p), p)
            assert replayed is not None and len(fresh) == quotient.size, rates
            if rates is first:
                assert replayed == fresh
            for rhs in ([1] * quotient.size, list(range(quotient.size))):
                assert stationary._solve_mod(replayed, rhs, p) == stationary._solve_mod(fresh, rhs, p), rates
        table = exact_stationary(gen, second).probabilities
        assert gen.solver_structure[tuple(x > 0 for x in second.p + second.q)] is quotient  # replayed, not replaced
        assert table == _assert_same_as_reference(gen, second)


def _spy_factors(monkeypatch):
    """Record each `_replay` (prime, whether it gave steps) and each
    `_eliminate` (prime, rank) of the solver."""
    calls = []
    replay, eliminate = stationary._replay, stationary._eliminate

    def spy_replay(skeleton, rows, p):
        steps = replay(skeleton, rows, p)
        calls.append(("replay", p, steps is not None))
        return steps

    def spy_eliminate(rows, p):
        steps = eliminate(rows, p)
        calls.append(("eliminate", p, len(steps)))
        return steps

    monkeypatch.setattr(stationary, "_replay", spy_replay)
    monkeypatch.setattr(stationary, "_eliminate", spy_eliminate)
    return calls


def test_a_vanishing_pivot_falls_back_to_a_fresh_elimination(monkeypatch):
    """With a prime that divides the kept order's first pivot put first,
    the replay stops at that pivot, and the prime is redone afresh; the
    table stays exact."""
    gen = dataclasses.replace(_generator(5, 3))
    first, second = next(_pattern_points(3))
    exact_stationary(gen, first)
    quotient, values = _quotient_values(gen, second)
    r, c, _, _ = quotient.skeleton.sparse[0]
    pivot = abs(next(v for i, j, v in zip(quotient.row, quotient.col, values) if (i, j) == (r, c)))
    prime = next(q for q in range(2, pivot + 1) if pivot % q == 0)
    monkeypatch.setattr(stationary, "PRIMES", (prime,) + stationary.PRIMES)
    calls = _spy_factors(monkeypatch)
    table = exact_stationary(gen, second).probabilities
    assert calls[:2] == [("replay", prime, False), ("eliminate", prime, calls[1][2])]
    assert table == _assert_same_as_reference(gen, second)


def _drop_a_column(skeleton):
    """The first pivot row that updates other rows loses its last column."""
    k = next(k for k, (_, _, cols, targets) in enumerate(skeleton.sparse) if cols and targets)
    r, c, cols, targets = skeleton.sparse[k]
    return skeleton._replace(sparse=skeleton.sparse[:k] + [(r, c, cols[:-1], targets)] + skeleton.sparse[k + 1 :])


def _drop_a_dense_row(skeleton):
    """The first step that updates a row of the dense tail leaves it out."""
    dense = set(skeleton.dense)
    k, i = next((k, i) for k, (_, _, _, targets) in enumerate(skeleton.sparse) for i in targets if i in dense)
    r, c, cols, targets = skeleton.sparse[k]
    return skeleton._replace(sparse=skeleton.sparse[:k] + [(r, c, cols, [t for t in targets if t != i])] + skeleton.sparse[k + 1 :])


@pytest.mark.parametrize("L,n,drop", [(5, 3, _drop_a_column), (6, 3, _drop_a_dense_row)])
def test_an_entry_left_out_of_the_kept_order_falls_back(monkeypatch, L, n, drop):
    """A kept order that leaves out an entry the elimination needs, a
    column of a pivot row, or a row of the dense tail that a step must
    update, leaves that entry nonzero in a pivot row or in the dense tail at
    a column already eliminated: the replay refuses, a fresh elimination
    gives the exact table, and its order is kept in place."""
    gen = dataclasses.replace(_generator(L, n))
    first, second = next(_pattern_points(n))
    exact_stationary(gen, first)
    live = (True,) * 2 * n
    quotient = gen.solver_structure[live]
    gen.solver_structure[live] = quotient._replace(skeleton=drop(quotient.skeleton))
    calls = _spy_factors(monkeypatch)
    table = exact_stationary(gen, second).probabilities
    p = stationary.PRIMES[0]
    assert calls == [("replay", p, False), ("eliminate", p, quotient.size)]
    assert gen.solver_structure[live].skeleton == quotient.skeleton
    assert table == _assert_same_as_reference(gen, second)


def test_a_wrong_multiplier_fails_the_lifting_check(monkeypatch):
    """Replayed steps with one multiplier off by one factor A wrongly; the
    first lift's solve modulo p fails its check, the prime is redone with a
    fresh elimination, and the table stays exact."""
    gen = dataclasses.replace(_generator(5, 3))
    first, second = next(_pattern_points(3))
    exact_stationary(gen, first)
    replay, p = stationary._replay, stationary.PRIMES[0]

    def corrupt(skeleton, rows, p):
        steps = replay(skeleton, rows, p)
        k = next(k for k, step in enumerate(steps) if step[3])
        r, c, inv, ((i, f), *others), rest = steps[k]
        steps[k] = (r, c, inv, [(i, (f + 1) % p), *others], rest)
        return steps

    monkeypatch.setattr(stationary, "_replay", corrupt)
    calls = _spy_factors(monkeypatch)
    lifts = []
    dixon = stationary._dixon
    monkeypatch.setattr(stationary, "_dixon", lambda steps, cols, b, p: lifts.append(p) or dixon(steps, cols, b, p))
    table = exact_stationary(gen, second).probabilities
    assert calls == [("replay", p, True), ("eliminate", p, 53)] and lifts == [p, p]
    assert table == _assert_same_as_reference(gen, second)


def test_small_primes_still_give_the_exact_table(monkeypatch, rng):
    """Starting from the primes 5, 7, 11 the quotient matrix is often
    singular (unlucky primes) and reconstruction at low precision often
    proposes a wrong vector; the certificate must reject both."""
    monkeypatch.setattr(stationary, "PRIMES", (5, 7, 11) + stationary.PRIMES)
    eliminations, candidates = [], []
    eliminate, reconstruct = stationary._eliminate, stationary._reconstruct

    def spy_eliminate(rows, p):
        steps = eliminate(rows, p)
        eliminations.append((p, len(rows) - len(steps)))
        return steps

    def spy_reconstruct(x, modulus):
        values = reconstruct(x, modulus)
        candidates.append(values)
        return values

    monkeypatch.setattr(stationary, "_eliminate", spy_eliminate)
    monkeypatch.setattr(stationary, "_reconstruct", spy_reconstruct)
    solves = 0
    for L, n in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 3)]:
        for _ in range(4):
            _assert_same_as_reference(_generator(L, n), random_rate_point(n, rng))
            solves += 1
    unlucky = {p for p, deficiency in eliminations if deficiency}
    assert unlucky == {5, 7, 11}
    # more proposals than solves: some failed the certificate
    assert sum(values is not None for values in candidates) > solves


def test_no_certified_vector_raises_past_the_hadamard_bound(monkeypatch, rng):
    """If every proposal fails the certificate, lifting stops once the
    modulus passes the Hadamard bound instead of running forever."""
    reconstruct = stationary._reconstruct
    moduli = []

    def off_by_one(x, modulus):
        moduli.append(modulus)
        values = reconstruct(x, modulus)
        return None if values is None else [values[0] + 1] + values[1:]

    monkeypatch.setattr(stationary, "_reconstruct", off_by_one)
    with pytest.raises(StationaryError, match="Hadamard"):
        exact_stationary(_generator(4, 2), random_rate_point(2, rng))
    assert len(moduli) > 3 and moduli[-1] > moduli[-2] ** 1.5


@pytest.mark.parametrize("L,n", [(L, n) for L in range(2, 6) for n in range(1, L)])
def test_rank_deficiency_matches_dense_reference(L, n, rng, monkeypatch):
    """The rank is taken modulo the solver's first prime; with 7 put first,
    modulo 7."""
    gen = _generator(L, n)
    rates = random_rate_point(n, rng)
    for prime in (2_147_483_647, 7):
        with monkeypatch.context() as patch:
            patch.setattr(stationary, "PRIMES", (prime,))
            assert generator_rank_deficiency(gen, rates) == _reference_rank_deficiency(gen, rates, prime)
    assert generator_rank_deficiency(gen, rates) == 1


@pytest.mark.parametrize("L,n", [(L, n) for L in range(1, 7) for n in range(1, L + 1)])
def test_rotation_orbits_match_the_dict_reference(L, n):
    """Each full state is its representative rotated by its shift.  On the full space, and on the full
    chain's closed class at a positive point and at a point with q_1 = 0
    (with n = L nothing moves, and there is no one closed class), the
    dict loop numbers the orbits by the representatives in order, first
    met at the representative itself; on a closed class, those are the
    orbit numbers that the solver's `_quotient` gives the representatives."""
    import reference_graph

    gen = _generator(L, n)
    rep, shift = (a.tolist() for a in gen.orbit)
    assert [gen.representatives[r].rotate(s) for r, s in zip(rep, shift)] == list(gen.states)
    index = state_index(gen)
    assert [index[gen.representatives[r].rotate(s)] for r, s in zip(rep, shift)] == list(range(gen.num_states))
    positive = RatePoint(tuple(Fraction(k) for k in range(1, n + 1)), (Fraction(1, 2),) * n)
    zero_q = RatePoint(positive.p, (Fraction(0),) + positive.q[1:])
    classes = [(list(range(gen.num_states)), list(range(len(gen.representatives))))]
    for rates in (positive, zero_q) if n < L else ():
        live = tuple(x > 0 for x in rates.p + rates.q)
        arcs = full_arcs(gen)
        keep = np.array(live)[arcs.rate]
        members = stationary._closed_class(gen.num_states, arcs.source[keep], arcs.target[keep])
        classes.append((members, stationary._quotient(gen, live).orbit))
    for members, numbers in classes:
        orbit, first = reference_graph.rotation_orbits(gen.states, members)
        assert [orbit[j] for j in members] == [numbers[rep[j]] for j in members]
        representatives = [r for r, o in enumerate(numbers) if o >= 0]
        assert first == representatives == [index[gen.representatives[r]] for r in representatives]


def _closed_class_or_error(search, num, tail, head):
    try:
        return search(num, tail, head)
    except StationaryError as err:
        return str(err)


@pytest.mark.parametrize("L,n", [(L, n) for L in range(2, 7) for n in range(1, L)])
def test_closed_class_matches_the_breadth_first_reference(L, n):
    """The level-by-level search finds the reference's class on the full
    chain of (representative, shift) pairs at three patterns (all rates
    positive, p_1 = 0, q_n = 0), and on seeded random digraphs, some with
    several closed classes, where both raise."""
    import random

    import reference_graph
    from torus_asep.dynamics import rotated_pairs

    gen = _generator(L, n)
    for live in ((True,) * 2 * n, (False,) + (True,) * (2 * n - 1), (True,) * (2 * n - 1) + (False,)):
        arcs = stationary._live_arcs(gen.arcs, live)
        pairs = rotated_pairs(arcs, L)
        num = len(gen.representatives) * L
        assert stationary._closed_class(num, *pairs) == reference_graph.closed_class(num, *pairs), live
    draw = random.Random(1000 * L + n)
    outcomes = set()
    for _ in range(20):
        num = draw.randint(1, 12)
        tail, head = (np.array([draw.randrange(num) for _ in range(2 * num)], dtype=np.int64) for _ in range(2))
        found = _closed_class_or_error(stationary._closed_class, num, tail, head)
        assert found == _closed_class_or_error(reference_graph.closed_class, num, tail, head)
        outcomes.add(type(found))
    assert outcomes == {list, str}


@pytest.mark.parametrize("L,n", [(L, n) for L in range(1, 7) for n in range(1, L + 1)])
def test_generator_entries_match_the_per_arc_reference(L, n):
    """M's entries, grouped from the one arc rule, equal the per-arc dict
    loop, symbolically and at three points (all rates positive, p_1 = 0,
    q_n = 0): on the full space, and on the orbit chain of the solver's
    closed class, whose quotient system A y = b is that chain's M without
    row 0, with column 0 negated as b."""
    gen = _generator(L, n)
    positive = RatePoint(tuple(Fraction(k + 1, 2) for k in range(n)), tuple(Fraction(3, k + 2) for k in range(n)))
    points = (None, positive, RatePoint((Fraction(0),) + positive.p[1:], positive.q), RatePoint(positive.p, positive.q[:-1] + (Fraction(0),)))
    zeros = np.zeros((1, 2 * n), dtype=np.int64)
    for rates in points:
        dom = Domain(n, rates)
        values = [p_var(n, k) for k in range(1, n + 1)] + [q_var(n, k) for k in range(1, n + 1)] if rates is None else rates.p + rates.q

        def assert_entries(num, source, target, rate):
            row, col, table = generator_entries(num, source, target, rate)
            expected = reference_generator.generator_entries(num, source, target, rate, values)
            got = zip(row.tolist(), col.tolist(), dom.totals(zeros, table))
            assert {(i, j): v for i, j, v in got if v} == expected, rates
            return expected

        assert_entries(gen.num_states, *full_arcs(gen)[:3])
        if n == L:
            continue  # nothing moves: there is no one closed class
        live = tuple(bool(x) for x in values)
        quotient = stationary._quotient(gen, live)
        orbit = np.array(quotient.orbit)
        source, target, rate, _ = (column[np.array(live)[gen.arcs.rate]] for column in gen.arcs)
        inside = orbit[source] >= 0
        expected = assert_entries(quotient.size + 1, orbit[source[inside]], orbit[target[inside]], rate[inside])
        totals = dom.totals(zeros, quotient.entries)
        picked = [totals[e] for e in quotient.entry]
        nnz = len(quotient.row)
        system = {(i + 1, j + 1): v for i, j, v in zip(quotient.row, quotient.col, picked)}
        system |= {(i + 1, 0): v for i, v in zip(quotient.b_row, picked[nnz:])}
        assert system == {(i, j): v for (i, j), v in expected.items() if i > 0}, rates


def test_rank_deficiency_of_reducible_full_space():
    """With q_1 = 0 the full space is reducible but keeps one closed class
    (the restrict_ta states), so the deficiency stays 1 and the solver puts
    the law on that class; with n = L nothing moves and every state is its
    own class."""
    for L, n in [(4, 2), (5, 2), (5, 3)]:
        gen = _generator(L, n)
        p = tuple(Fraction(k + 1) for k in range(n))
        rates = RatePoint(p, (Fraction(0),) + tuple(Fraction(3, k + 1) for k in range(1, n)))
        assert generator_rank_deficiency(gen, rates) == _reference_rank_deficiency(gen, rates) == 1
        probabilities = _assert_same_as_subset_reference(gen, rates)
        weights = [m.evaluate(rates) for m in gen.weights]
        total = sum(weights)
        assert all(prob * total == wv for prob, wv in zip(probabilities, weights))
    for L in (3, 4, 5):
        gen = _generator(L, L)
        rates = RatePoint((Fraction(1),) * L, (Fraction(2),) * L)
        assert generator_rank_deficiency(gen, rates) == _reference_rank_deficiency(gen, rates) == L
