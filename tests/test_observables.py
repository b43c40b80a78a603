from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_closed_forms
import reference_currents
from conftest import closed_box_densities, random_rate_point
from rate_symbols import p_var, q_var
from reference_closed_forms import brute_force_partition_function
from torus_asep.observables import (
    closed_currents,
    closed_forms,
    closed_numerators,
    currents_exact,
    densities,
    partition_function,
    partition_function_special,
    scott_russell_check,
)
from torus_asep.stationary import drift
from torus_asep.symbolic import (
    Domain,
    Monomial,
    Polynomial,
    RatePoint,
    pq_integer,
    rect_schur,
)


def _w(k):
    return [p_var(2, 2) + q_var(2, 1), p_var(2, 1) + q_var(2, 2)][k - 1]


def test_partition_function_displays():
    assert partition_function(4, 2) == _w(1) ** 2 + _w(1) * _w(2) + _w(2) ** 2
    assert partition_function(3, 2) == p_var(2, 1) + p_var(2, 2) + q_var(2, 1) + q_var(2, 2)
    assert partition_function(2, 2) == Polynomial.one(2)
    for n in (1, 2, 3):
        assert partition_function(n, n) == Polynomial.one(n)


def test_partition_function_degree_and_generating_series():
    z = partition_function(6, 3)
    assert {sum(e) for e, _ in z.sorted_terms()} == {3 * 2}
    # at unit rates every total box weight is n, and there are C(5, 2) = 10
    # gap compositions of L - n = 3 into n = 3 parts
    ones = RatePoint((Fraction(1),) * 3, (Fraction(1),) * 3)
    assert z.evaluate(ones) == 3**3 * 10


@pytest.mark.parametrize("L,n", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 4)])
def test_partition_function_matches_brute_force(L, n):
    assert partition_function(L, n) == brute_force_partition_function(L, n)


def test_special_case_identical_4_2():
    cert = partition_function_special(4, 2, "identical")
    assert cert.substituted == 3 * pq_integer(2) ** 2
    value = cert.substituted.evaluate(RatePoint((Fraction(2),), (Fraction(1),)))
    assert value == 27  # 3 (p + q)^2 at p=2, q=1


def test_special_case_symmetric_4_2():
    cert = partition_function_special(4, 2, "symmetric")
    assert cert.substituted == 3 * (p_var(2, 1) + p_var(2, 2)) ** 2


def test_special_case_no_boxes():
    for case in ("identical", "symmetric", "totally_asymmetric"):
        cert = partition_function_special(3, 3, case)
        assert cert.equal
        assert cert.substituted.degree() == 0


def test_special_case_totally_asymmetric_schur():
    cert = partition_function_special(5, 3, "totally_asymmetric")
    assert cert.extra["schur_form"]
    assert cert.closed_form == rect_schur(5, 3)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_special_cases_small(L):
    for n in range(1, min(L, 4) + 1):
        for case in ("identical", "symmetric", "totally_asymmetric"):
            assert partition_function_special(L, n, case).equal


def test_box_density_numerator_display_4_2():
    def mono(**kw):
        exps = [0] * 4
        for key, val in kw.items():
            exps[int(key[1]) - 1 + (0 if key[0] == "p" else 2)] = val
        return Monomial(2, tuple(exps)).as_polynomial()

    expected = (
        2 * mono(p2=2)
        + 2 * mono(p1=1, q2=1)
        + 2 * mono(p2=1, q1=1)
        + 2 * mono(p2=1, q2=1)
        + 2 * mono(q2=2)
        + mono(p1=1, p2=1)
        + mono(q1=1, q2=1)
    )
    assert closed_forms(4, 2)["box_density"][0] == expected
    # and the same value from the recursion the closed form uses
    z32 = partition_function(3, 2)
    direct = (p_var(2, 2) + q_var(2, 2)) * z32 + (
        p_var(2, 2) * _w(1) + q_var(2, 2) * _w(2)
    )
    assert expected == direct


@pytest.mark.parametrize("L,n", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_densities_symbolic(L, n):
    report = densities(L, n)
    assert report.ok


def test_density_normalization_per_column(rng):
    rp = random_rate_point(3, rng)
    report = densities(5, 3, rp)
    for j in range(1, 6):
        total = Fraction(0)
        for i in range(1, 4):
            total += report.entry("bullet_density", i, j).oracle
            total += report.entry("box_density", i, j).oracle
        assert total == 1


def test_density_normalization_per_column_symbolic():
    report = densities(4, 2)
    for j in range(1, 5):
        total = Polynomial.zero(2)
        den = report.entry("bullet_density", 1, j).oracle.den
        for i in (1, 2):
            total = total + report.entry("bullet_density", i, j).oracle.num
            total = total + report.entry("box_density", i, j).oracle.num
        assert total == den


def test_density_row_shift_covariance():
    # pushing every rate label down one row moves the density one row up
    box_density = closed_forms(5, 3)["box_density"]
    for i in (0, 1):
        assert box_density[i].shift_rows(1) == box_density[i + 1]


def test_density_numeric_matches_formula(rng):
    rp = random_rate_point(3, rng)
    report = densities(5, 3, rp)
    assert report.ok
    assert report.entry("bullet_density", 2, 3).closed == Fraction(1, 5)
    assert report.entry("box_density", 1, 1).closed == closed_box_densities(5, 3, rp)[0]


@pytest.mark.parametrize("L,n", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (3, 3)])
def test_currents_symbolic(L, n):
    report = currents_exact(L, n)
    assert report.ok


def test_worked_current_numerator_4_2():
    report = currents_exact(4, 2)
    entry = report.entry("bullet_edge_current", 1, 1)
    z32 = p_var(2, 1) + p_var(2, 2) + q_var(2, 1) + q_var(2, 2)
    assert entry.closed.num == drift(2) * z32
    assert entry.closed.den == 4 * partition_function(4, 2)


def test_identical_rates_current_value():
    for L, n in [(4, 2), (5, 2), (5, 3), (6, 3)]:
        p, q = Fraction(7, 5), Fraction(1, 3)
        rp = RatePoint((p,) * n, (q,) * n)
        values = closed_currents(L, n, rp)
        assert values["bullet_edge_current"] == (p - q) * (L - n) / (L * (L - 1))


def test_identical_rates_current_symbolically():
    import math

    # cross-multiplied form of the constant-rate reduction of the edge current
    for L, n in [(4, 2), (5, 3), (6, 4)]:
        lhs = (
            math.comb(L - 2, n - 1)
            * (pq_integer(n) ** (L - n - 1))
            * (Polynomial(1, {(1, 0): Fraction(1)}) - Polynomial(1, {(0, 1): Fraction(1)}))
            * pq_integer(n)
            * L
            * (L - 1)
        )
        rhs = (
            (L - n)
            * L
            * math.comb(L - 1, n - 1)
            * (Polynomial(1, {(1, 0): Fraction(1)}) - Polynomial(1, {(0, 1): Fraction(1)}))
            * (pq_integer(n) ** (L - n))
        )
        assert lhs == rhs


def test_symmetric_rates_kill_currents(rng):
    rp3 = random_rate_point(3, rng)
    rp = RatePoint(rp3.p, rp3.p)
    values = closed_currents(5, 3, rp)
    assert values["bullet_edge_current"] == 0
    assert values["box_vertical_net"] == 0
    assert all(v == 0 for v in values["box_row_current"])
    assert values["box_vertical_up"] == values["box_vertical_down"] != 0


def test_currents_numeric_matches_closed(rng):
    rp = random_rate_point(3, rng)
    report = currents_exact(5, 3, rp)
    values = closed_currents(5, 3, rp)
    assert report.entry("bullet_edge_current", 2, 4).closed == values["bullet_edge_current"]
    assert report.entry("bullet_row_current", 1).closed == values["bullet_row_current"]
    assert report.entry("box_column_current", 3).closed == values["box_column_current"]
    assert report.entry("box_vertical_up", 2).closed == values["box_vertical_up"]
    assert report.entry("box_row_current", 2, 1).closed == values["box_row_current"][1]


@pytest.mark.parametrize("L", range(1, 8))
def test_closed_values_match_the_separately_written_formulas(L):
    import random

    for n in range(1, L + 1):
        rng = random.Random(100 * L + n)
        for _ in range(3):
            rp = random_rate_point(n, rng)
            reference = reference_closed_forms.closed_values(L, n, rp)
            assert closed_currents(L, n, rp) == {k: v for k, v in reference.items() if not k.endswith("density")}
            assert closed_box_densities(L, n, rp) == reference["box_density"]


@pytest.mark.parametrize("L,n", [(L, n) for L in range(1, 8) for n in range(1, L + 1)])
def test_symbolic_table_matches_the_polynomial_reference(L, n):
    assert dict(closed_forms(L, n)) == reference_closed_forms.closed_forms(L, n)


@st.composite
def _lattice_and_rates(draw):
    """A lattice with L <= 7 and a rate point of positive rationals, with
    p_1 or q_1 set to zero in a third of the draws each."""
    L = draw(st.integers(1, 7))
    n = draw(st.integers(1, L))
    rate = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))
    p = [draw(rate) for _ in range(n)]
    q = [draw(rate) for _ in range(n)]
    zeroed = draw(st.sampled_from([None, p, q]))
    if zeroed is not None:
        zeroed[0] = Fraction(0)
    return L, n, RatePoint(tuple(p), tuple(q))


@settings(max_examples=150, deadline=None)
@given(_lattice_and_rates())
def test_value_table_matches_the_polynomial_reference_at_a_rate_point(case):
    L, n, rates = case
    assert dict(closed_numerators(L, n, Domain(n, rates))) == reference_closed_forms.closed_numerators(L, n, rates)


# (40, 5) at the rates of the simulator benchmark: beyond every oracle and
# every polynomial table, so only the exact identities among the values check it.
RATES_40_5 = RatePoint(
    (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 4), Fraction(1)),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 5), Fraction(1, 2)),
)


def test_box_densities_at_40_5_fill_the_free_sites():
    assert sum(closed_box_densities(40, 5, RATES_40_5)) == Fraction(40 - 5, 40)


def test_column_and_vertical_currents_at_40_5():
    values = closed_currents(40, 5, RATES_40_5)
    assert values["bullet_edge_current"] > 0
    assert values["box_column_current"] == -5 * values["bullet_edge_current"]
    # Scott Russell: the net vertical box current is the row's bullet current
    assert values["bullet_row_current"] == values["box_vertical_net"]
    assert values["box_vertical_net"] == values["box_vertical_up"] - values["box_vertical_down"]


def test_rate_point_of_another_width_is_refused():
    with pytest.raises(ValueError, match="wrong number of rows"):
        closed_currents(40, 5, RatePoint(RATES_40_5.p[:4], RATES_40_5.q[:4]))
    with pytest.raises(ValueError, match="wrong number of rows"):
        closed_currents(5, 3, RATES_40_5)


def test_currents_no_boxes_all_zero():
    report = currents_exact(3, 3)
    for entry in report.entries:
        assert entry.oracle.num == Polynomial.zero(3)


@pytest.mark.parametrize("L,n", [(4, 2), (5, 2), (5, 3)])
def test_scott_russell(L, n):
    cert = scott_russell_check(L, n)
    assert cert.ok


def test_scott_russell_trivial():
    assert scott_russell_check(3, 3).ok


def test_report_serialization():
    report = currents_exact(3, 2)
    rows = report.to_json_rows()
    assert all(row["equal"] for row in rows)
    csv_rows = report.to_csv_rows()
    assert csv_rows[0] == ["observable", "index", "closed_form", "oracle", "equal"]
    dens = densities(3, 2)
    assert all(row["equal"] for row in dens.to_json_rows())


def test_vertical_current_contributions_4_2():
    """The restricted states feeding the upward (bullet-then-box, same row)
    and downward patterns of row 1 carry the displayed weight sums; each
    rotation contributes equally, giving the closed forms."""
    from torus_asep.model import iter_restricted
    from torus_asep.stationary import config_weight

    up = Polynomial.zero(2)
    down = Polynomial.zero(2)
    for w in iter_restricted(4, 2):
        letters = w.letters
        wt = config_weight(w).as_polynomial()
        for x, letter in enumerate(letters):
            if letter == 1:
                if letters[(x + 1) % 4] == -1:
                    up = up + wt
                if letters[(x - 1) % 4] == -1:
                    down = down + wt
    p1, p2, q1, q2 = p_var(2, 1), p_var(2, 2), q_var(2, 1), q_var(2, 2)
    assert p1 * up == p2 * (p1 * q2 + p1 * p1 + p1 * p2 + p1 * q1)
    assert q1 * down == q1 * (q2 * q2 + p1 * q2 + p2 * q2 + q1 * q2)
    z3 = partition_function(3, 2)
    assert p1 * up == p1 * p2 * z3
    assert q1 * down == q1 * q2 * z3
    # all four rotations contribute the same, recovering the closed totals
    report = currents_exact(4, 2)
    assert report.entry("box_vertical_up", 1).oracle.num == 4 * (p1 * up)
    assert report.entry("box_vertical_down", 1).oracle.num == 4 * (q1 * down)


def _cross_multiplied(closed, oracle) -> bool:
    """The reference comparison the common-denominator shortcut replaced."""
    if isinstance(closed, Fraction):
        return closed.numerator * oracle.denominator == oracle.numerator * closed.denominator
    return closed.num * oracle.den == oracle.num * closed.den


SMALL_LATTICES = [(L, n) for L in range(1, 5) for n in range(1, L + 1)]


@pytest.mark.parametrize("L,n", SMALL_LATTICES)
@pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
def test_equal_flag_matches_cross_multiplication(L, n, numeric):
    import random

    rp = random_rate_point(n, random.Random(1000 * L + n)) if numeric else None
    for report in (densities(L, n, rp), currents_exact(L, n, rp)):
        assert report.mode == ("numeric" if numeric else "symbolic")
        for e in report.entries:
            assert e.equal == _cross_multiplied(e.closed, e.oracle), (e.name, e.index)


@pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
def test_whole_row_closed_form_needs_the_factor_L(numeric, rng):
    from torus_asep.observables import _CommonDenominator
    from torus_asep.symbolic import Domain

    rp = random_rate_point(2, rng) if numeric else None
    over = _CommonDenominator(4, 2, Domain(2, rp))
    e = currents_exact(4, 2, rp).entry("box_vertical_up", 1)
    # the full-space numerator over L * Z, L times the total over the representatives
    oracle_num = e.oracle * over.lz if numeric else e.oracle.num
    if not numeric:
        assert e.closed.den == partition_function(4, 2)
    assert over.check("box_vertical_up", (1,), oracle_num * Fraction(1, 4)).equal
    assert not over.check("box_vertical_up", (1,), oracle_num).equal


def test_an_equal_oracle_is_shown_through_the_closed_form_objects():
    """Each distinct value is then rendered once; an unequal oracle keeps its own."""
    from torus_asep.observables import _CommonDenominator
    from torus_asep.symbolic import Domain

    over = _CommonDenominator(4, 2, Domain(2))
    form, whole = closed_forms(4, 2)["box_density"][0], closed_forms(4, 2)["box_vertical_up"]
    same = over.check("box_density", (1,), form * 1)
    assert same.equal and same.oracle.num is same.closed.num is form
    first, second = (over.check("box_vertical_up", (i,), whole * 1) for i in (1, 2))
    assert first.oracle.num is second.oracle.num and first.oracle.num == 4 * whole
    wrong = over.check("box_density", (1,), form + 1)
    assert not wrong.equal and wrong.oracle.num == form + 1
    wrong = over.check("box_vertical_up", (1,), whole + 1)
    assert not wrong.equal and wrong.oracle.num == 4 * whole + 4


@pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
def test_wrong_box_density_closed_form_raises(numeric, monkeypatch, rng):
    from torus_asep import observables
    from torus_asep.observables import ObservableMismatch

    original = observables.closed_numerators

    def wrong(L, n, dom):
        table = dict(original(L, n, dom))
        table["box_density"] = tuple(num + dom.one for num in table["box_density"])
        return table

    monkeypatch.setattr(observables, "closed_numerators", wrong)
    rp = random_rate_point(2, rng) if numeric else None
    # The symbolic table is memoised per lattice: a table cached before the
    # patch would hide it, and one cached under it must not outlive the test.
    observables.closed_forms.cache_clear()
    try:
        with pytest.raises(ObservableMismatch, match="box_density"):
            densities(4, 2, rp)
    finally:
        observables.closed_forms.cache_clear()


@pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
def test_normalization_is_proved_before_comparing(numeric, monkeypatch, rng):
    from torus_asep import observables

    calls = []
    original = observables.full_normalization

    def recording(L, n):
        calls.append((L, n))
        return original(L, n)

    monkeypatch.setattr(observables, "full_normalization", recording)
    rp = random_rate_point(2, rng) if numeric else None
    densities(4, 2, rp)
    currents_exact(4, 2, rp)
    assert calls == [(4, 2), (4, 2)]


def test_polynomial_caches_keep_two_lattices():
    """The per-lattice polynomial tables are kept for the two most recent
    lattices, as the graph is, so a run over many lattices stays bounded."""
    from torus_asep.observables import closed_forms, full_normalization

    for L, n in ((4, 2), (5, 2), (5, 3)):
        full_normalization(L, n)
    assert closed_forms.cache_info().currsize <= 2
    assert full_normalization.cache_info().currsize <= 2


def test_full_normalization_caches_only_a_passing_result(monkeypatch):
    from torus_asep import observables
    from torus_asep.observables import ObservableMismatch, full_normalization

    full_normalization.cache_clear()
    first = full_normalization(4, 2)
    assert full_normalization(4, 2) is first
    assert full_normalization.cache_info().hits == 1
    monkeypatch.setattr(observables, "partition_function", lambda L, n: Polynomial.zero(n))
    for _ in range(2):
        with pytest.raises(ObservableMismatch, match="L\\*Z"):
            full_normalization(5, 2)
    assert full_normalization.cache_info().currsize == 1


@pytest.mark.parametrize("L,n", [(L, n) for L in range(1, 6) for n in range(1, L + 1)])
def test_currents_match_the_displacement_record_reference(L, n, rng):
    """The crossing-table oracle against the former per-record loop, in
    both modes, at random rate points and at one with a vanishing q_k."""
    zeroed = random_rate_point(n, rng)
    k = rng.randrange(n)
    zeroed = RatePoint(zeroed.p, zeroed.q[:k] + (Fraction(0),) + zeroed.q[k + 1 :])
    for rates in (None, random_rate_point(n, rng), random_rate_point(n, rng), zeroed):
        report, reference = currents_exact(L, n, rates), reference_currents.currents_exact(L, n, rates)
        assert report.entries == reference.entries
        assert report.to_json_rows() == reference.to_json_rows()


@pytest.mark.parametrize(
    "channel,message",
    [
        (2 * 2 + 1, "swap-only box crossings do not cancel at row 1, boundary 1"),
        (0, r"bullet crossing rate differs from occupation oracle at \(1,1\)"),
    ],
)
def test_a_broken_crossing_total_raises_once_for_every_boundary(channel, message, fresh_graphs):
    """One more crossing on the swap channel, or on the bullet channel, of
    row 1 breaks a check that every boundary shares; it is reported at
    boundary 1, where the full-space loop met it first."""
    import numpy as np

    from torus_asep.dynamics import build_generator
    from torus_asep.observables import ObservableMismatch
    from torus_asep.symbolic import SumTable

    gen = build_generator(4, 2)
    table = gen.crossings
    columns = (table.slot, table.state, table.rate, table.sign)
    gen.__dict__["crossings"] = SumTable.build(table.size, *(np.append(c, v) for c, v in zip(columns, (channel, 0, 0, 1))))
    for rates in (None, RatePoint.parse("1,2;3,5")):
        with pytest.raises(ObservableMismatch, match=message):
            currents_exact(4, 2, rates)


def test_currents_and_scott_russell_make_one_symbolic_occupation_pass(monkeypatch):
    """The symbolic occupation totals are made once per lattice: after
    `currents_exact`, `scott_russell_check` makes no `Domain.totals` call
    on the occupation table, and a numeric call still makes its own."""
    from torus_asep import observables
    from torus_asep.dynamics import build_generator
    from torus_asep.symbolic import Domain

    gen = build_generator(5, 3)
    passes = []
    original = Domain.totals

    def spy(self, exponents, table):
        if table is gen.occupation_rows:
            passes.append(self.mode)
        return original(self, exponents, table)

    monkeypatch.setattr(Domain, "totals", spy)
    observables._occupation_forms.cache_clear()
    assert currents_exact(5, 3).ok and scott_russell_check(5, 3).ok
    assert passes == ["symbolic"]
    currents_exact(5, 3, RatePoint.parse("1,2,3;5,7,11"))
    assert passes == ["symbolic", "numeric"]
