"""Differential tests of the numeric domain's integer arithmetic.

A numeric `Domain` evaluates a `SumTable` by summing exact ints at the
integer-scaled rate point D * r, in int64 or in Python ints, and builds each
reduced Fraction once; `Monomial.evaluate` and `Polynomial.evaluate` sum in
ints over one common denominator.  Each is checked here against the
references it replaced (`reference_sums`), at rate points with mixed
denominators, zero rates and large denominators.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_polynomial import Polynomial as ReferencePolynomial
from reference_sums import FractionSums, SummandDomain
from rate_symbols import rate_symbols, rate_value
from torus_asep.symbolic import Domain, Monomial, Polynomial, RatePoint, SumTable, integer_totals

# Zero, small fractions with mixed denominators, and huge or tiny values.
rates = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(0, 40), st.integers(1, 12)),
    st.builds(lambda a, k: Fraction(a, 10**k), st.integers(1, 9), st.integers(10, 60)),
    st.builds(lambda a, k: Fraction(a * 7**k, 3), st.integers(1, 9), st.integers(5, 30)),
)


@st.composite
def rate_points(draw, n):
    p = tuple(draw(rates) for _ in range(n))
    q = tuple(draw(rates) for _ in range(n))
    assume(not (0 in p and 0 in q))  # RatePoint rejects that pair as reducible
    return RatePoint(p, q)


def exponents(n, degree):
    """Exponent tuples over the 2n rates with the given total degree."""
    return st.lists(st.integers(0, 2 * n - 1), min_size=degree, max_size=degree).map(
        lambda pos: tuple(pos.count(j) for j in range(2 * n))
    )


@st.composite
def accumulations(draw):
    """A lattice width n, a rate point, one weight degree, and signed adds
    into weight slots (symbol None) or into slots of weight times a rate.
    Each add is repeated with the opposite sign when `cancel` is set."""
    n = draw(st.integers(1, 3))
    point = draw(rate_points(n))
    degree = draw(st.integers(0, 4))
    symbols = st.one_of(st.none(), st.tuples(st.sampled_from("pq"), st.integers(1, n)))
    adds = draw(
        st.lists(
            st.tuples(st.integers(0, 2), exponents(n, degree), symbols, st.sampled_from([1, -1]), st.booleans()),
            max_size=16,
        )
    )
    return n, point, adds


def _tables(n, adds):
    """One weight state per add, and a table of the weight adds and one of
    the weight-times-rate adds, each signed add once more with the opposite
    sign when `cancel` is set."""
    exponents = np.array([exps for _, exps, _, _, _ in adds], dtype=np.int64).reshape(len(adds), 2 * n)
    rows = {False: [], True: []}
    for state, (slot, _, symbol, sign, cancel) in enumerate(adds):
        rate = None if symbol is None else rate_symbols(n).index(symbol)
        for s in (sign, -sign) if cancel else (sign,):
            rows[symbol is not None].append((slot, state, rate, s))
    tables = []
    for terms, group in rows.items():
        slot, state, rate, sign = zip(*group) if group else ((), (), (), ())
        tables.append(SumTable.build(3, slot, state, rate if terms else None, sign))
    return exponents, tables


@settings(max_examples=200, deadline=None)
@given(accumulations())
def test_integer_sums_match_reference_fraction_sums(case):
    """The numeric kernel against per-summand Fraction sums and against the
    int running sums it replaced."""
    n, point, adds = case
    dom, old = Domain(n, point), SummandDomain(n, point)
    ref_weights, ref_terms = FractionSums(3), FractionSums(3)
    old_weights, old_terms = old.sums(3), old.sums(3, terms=True)
    for slot, exps, symbol, sign, cancel in adds:
        value = ReferencePolynomial(n, {exps: 1}).evaluate(point)
        summand = old.weight(Monomial(n, exps))
        if symbol is not None:
            value *= rate_value(point, symbol)
            summand = old.term(summand, symbol)
        ref, sums = (ref_weights, old_weights) if symbol is None else (ref_terms, old_terms)
        for s in (sign, -sign) if cancel else (sign,):
            ref.add(slot, value, s)
            sums.add(slot, summand, s)
    exponents, tables = _tables(n, adds)
    for table, ref, sums in zip(tables, (ref_weights, ref_terms), (old_weights, old_terms)):
        got = dom.totals(exponents, table)
        assert all(type(x) is Fraction for x in got)
        assert got == ref.freeze() == sums.freeze()


def test_zero_weights_with_a_rate_past_int64_sum_exactly():
    """A rate that does not fit int64 takes the Python-int path even when
    every weight is 0, and the bound on their product would read 0."""
    table = SumTable.build(1, [0], [0], [0], [1])
    assert integer_totals(table, [0], [2**70]) == [0]
    assert integer_totals(table, [2**70], [0]) == [0]
    assert integer_totals(table, [3], [2**62]) == [3 * 2**62]


def test_weights_of_unequal_degree_in_one_sum_raise():
    rates = RatePoint.parse("1/2,3;5/7,2")
    exponents = np.array([(1, 0, 0, 1), (1, 0, 1, 1)], dtype=np.int64)
    message = "weights of degrees 2 and 3 cannot share one denominator"
    with pytest.raises(ValueError, match=f"^{message}$"):
        Domain(2, rates).totals(exponents, SumTable.build(1, [0, 0], [0, 1]))
    old = SummandDomain(2, rates)
    sums = old.sums(1)
    sums.add(0, old.weight(Monomial(2, (1, 0, 0, 1))))
    with pytest.raises(ValueError, match=f"^{message}$"):
        sums.add(0, old.weight(Monomial(2, (1, 0, 1, 1))))


coefficients = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)),
)


@st.composite
def evaluations(draw):
    """A rate point and a polynomial of mixed degrees with int and Fraction
    coefficients."""
    n = draw(st.integers(1, 3))
    point = draw(rate_points(n))
    mixed_degree = st.integers(0, 5).flatmap(lambda d: exponents(n, d))
    terms = draw(st.dictionaries(mixed_degree, coefficients, max_size=6))
    return n, point, terms


@settings(max_examples=200, deadline=None)
@given(evaluations())
def test_evaluate_matches_reference(case):
    n, point, terms = case
    value = Polynomial(n, terms).evaluate(point)
    assert type(value) is Fraction and value == ReferencePolynomial(n, terms).evaluate(point)
    for exps in terms:
        value = Monomial(n, exps).evaluate(point)
        assert type(value) is Fraction and value == ReferencePolynomial(n, {exps: 1}).evaluate(point)


class FractionDomain(Domain):
    """The numeric ring of the closed forms as it stood before their int
    path: every element an exact Fraction at the rate point, every
    operation a reduced Fraction operation."""

    def __init__(self, n, rates):
        super().__init__(n, rates)
        self.zero, self.one = Fraction(0), Fraction(1)

    def monomial(self, m):
        return m.evaluate(self.rates)

    def unscaled(self, x, degree):
        return x


@st.composite
def closed_form_points(draw):
    L = draw(st.integers(1, 9))
    n = draw(st.integers(1, min(L, 5)))
    return L, n, draw(rate_points(n))


@settings(max_examples=150, deadline=None)
@given(closed_form_points())
def test_closed_numerators_in_ints_equal_the_fraction_path(case):
    """The numeric closed forms, summed in ints at D * r with one Fraction
    made per entry, equal the same recurrence run in Fractions."""
    from torus_asep.observables import closed_numerators

    L, n, point = case
    table = closed_numerators(L, n, Domain(n, point))
    assert table == closed_numerators(L, n, FractionDomain(n, point))
    values = [v for x in table.values() for v in (x if isinstance(x, tuple) else (x,))]
    assert all(type(v) is Fraction for v in values)
