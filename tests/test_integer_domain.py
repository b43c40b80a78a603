"""Differential tests of the numeric domain's integer arithmetic.

A numeric `Domain` sums Python ints at the integer-scaled rate point D * r
and builds each reduced Fraction once, at `freeze`; `Monomial.evaluate` and
`Polynomial.evaluate` sum in ints over one common denominator.  Each is
checked here against the Fraction-by-Fraction reference it replaced, at
rate points with mixed denominators, zero rates and large denominators.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_polynomial import Polynomial as ReferencePolynomial
from reference_sums import FractionSums
from torus_asep.symbolic import Domain, Monomial, Polynomial, RatePoint

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


@settings(max_examples=200, deadline=None)
@given(accumulations())
def test_integer_sums_match_reference_fraction_sums(case):
    n, point, adds = case
    dom = Domain(n, point)
    weights, terms = dom.sums(3), dom.sums(3, terms=True)
    ref_weights, ref_terms = FractionSums(3), FractionSums(3)
    for slot, exps, symbol, sign, cancel in adds:
        value = ReferencePolynomial(n, {exps: 1}).evaluate(point)
        summand = dom.weight(Monomial(n, exps))
        if symbol is not None:
            value *= point.rate(symbol)
            summand = dom.term(summand, symbol)
        sums, ref = (weights, ref_weights) if symbol is None else (terms, ref_terms)
        for s in (sign, -sign) if cancel else (sign,):
            sums.add(slot, summand, s)
            ref.add(slot, value, s)
    for sums, ref in ((weights, ref_weights), (terms, ref_terms)):
        for got, expected in zip(sums.freeze(), ref.freeze()):
            assert type(got) is Fraction and got == expected


def test_weights_of_unequal_degree_in_one_sum_raise():
    dom = Domain(2, RatePoint.parse("1/2,3;5/7,2"))
    sums = dom.sums(1)
    sums.add(0, dom.weight(Monomial(2, (1, 0, 0, 1))))
    with pytest.raises(ValueError, match="one denominator"):
        sums.add(0, dom.weight(Monomial(2, (1, 0, 1, 1))))


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
