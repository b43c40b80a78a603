import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_polynomial import Polynomial as ReferencePolynomial
from reference_sums import IntegerSums, MonomialSums, SummandDomain
from rate_symbols import p_var, q_var, rate_symbols
from torus_asep import symbolic
from torus_asep.stationary import box_exponents
from torus_asep.symbolic import (
    Domain,
    Monomial,
    Polynomial,
    RatePoint,
    SumTable,
    elementary_symmetric,
    homogeneous_symmetric,
    parse_fraction,
    poly_det,
    pq_integer,
    rate_product,
    rect_schur,
    reflected_homogeneous,
)

ONES = RatePoint((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))


def test_product_evaluates():
    poly = (p_var(2, 1) + q_var(2, 2)) * (p_var(2, 2) + q_var(2, 1))
    assert poly.evaluate(ONES) == 4


def test_partition_display_evaluates_to_37():
    w1 = p_var(2, 2) + q_var(2, 1)
    w2 = p_var(2, 1) + q_var(2, 2)
    display = w1**2 + w1 * w2 + w2**2
    point = RatePoint((Fraction(2), Fraction(3)), (Fraction(1), Fraction(1)))
    assert display.evaluate(point) == 37


def test_zero_power_is_one():
    poly = p_var(3, 1) + 5 * q_var(3, 2)
    assert poly**0 == Polynomial.one(3)
    assert Polynomial.zero(3) ** 0 == Polynomial.one(3)


small_coeff = st.integers(-4, 4).map(Fraction)
small_exps = st.tuples(*(st.integers(0, 2) for _ in range(4)))
small_poly = st.dictionaries(small_exps, small_coeff, max_size=4).map(
    lambda terms: Polynomial(2, terms)
)
rate_points = st.tuples(*(st.integers(1, 7) for _ in range(4))).map(
    lambda v: RatePoint((Fraction(v[0]), Fraction(v[1])), (Fraction(v[2]), Fraction(v[3])))
)


@settings(max_examples=120, deadline=None)
@given(small_poly, small_poly, small_poly)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Polynomial.zero(2)


@settings(max_examples=120, deadline=None)
@given(small_poly, small_poly, rate_points)
def test_evaluate_is_a_homomorphism(a, b, point):
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_newton_style_elementary_homogeneous(n):
    def e(i):
        if i == 0:
            return Polynomial.one(n)
        if i > n:
            return Polynomial.zero(n)
        return elementary_symmetric(n, i)

    for k in range(1, 2 * n + 1):
        total = Polynomial.zero(n)
        for i in range(k + 1):
            term = e(i) * homogeneous_symmetric(n, k - i)
            total = total + term if i % 2 == 0 else total - term
        assert total == Polynomial.zero(n), (n, k)


def test_elementary_basics():
    assert elementary_symmetric(2, 1) == p_var(2, 1) + p_var(2, 2)
    with pytest.raises(ValueError):
        elementary_symmetric(2, 3)
    with pytest.raises(ValueError):
        homogeneous_symmetric(2, -1)


def test_pq_integer():
    assert pq_integer(2) == Polynomial(1, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    assert pq_integer(1) == Polynomial.one(1)
    assert len(pq_integer(5)) == 5


@pytest.mark.parametrize(
    "L,n", [(L, n) for L in range(1, 11) for n in range(1, L + 1)] + [(14, 4), (16, 3), (17, 4), (20, 4), (24, 2)]
)
def test_rect_schur_matches_reciprocal_homogeneous(L, n):
    assert rect_schur(L, n) == reflected_homogeneous(n, L - n)


def _jacobi_trudi(basis, top: int, size: int) -> Polynomial:
    return poly_det([[basis(top - i + j) for j in range(size)] for i in range(size)])


@pytest.mark.parametrize("L", range(2, 9))
def test_both_jacobi_trudi_determinants_agree(L):
    """The h-band of size n - 1, the other Jacobi-Trudi form, is the slow
    reference for the dual e-band of size L - n that `rect_schur`
    computes."""
    for n in range(2, L):
        m = L - n
        zero, one = Polynomial.zero(n), Polynomial.one(n)

        def h(k):
            return homogeneous_symmetric(n, k) if k >= 0 else zero

        def e(k):
            return one if k == 0 else elementary_symmetric(n, k) if 0 < k <= n else zero

        h_band = _jacobi_trudi(h, m, n - 1)
        assert h_band == _jacobi_trudi(e, n - 1, m) == rect_schur(L, n), (L, n)


def test_rect_schur_trivial_cases():
    assert rect_schur(5, 1) == Polynomial.one(1)
    assert rect_schur(3, 3) == Polynomial.one(3)


def test_poly_det_small():
    a, b = p_var(2, 1), p_var(2, 2)
    c, d = q_var(2, 1), q_var(2, 2)
    assert poly_det([[a, b], [c, d]]) == a * d - b * c


def test_poly_det_expands_each_minor_once(monkeypatch):
    """The 8 x 8 box-weight matrix has no zero entry; with each minor
    expanded once, its determinant forms at most 8 * 2^7 products, where
    expanding every minor afresh forms 69,280, and it multiplies by no
    zero minor."""
    n = 8
    matrix = [[Polynomial(n, {e: 1}) for e in row] for row in box_exponents(n)]
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: products.append((a, b)) or mul(a, b))
    det = poly_det(matrix)
    assert len(products) <= n * 2 ** (n - 1)
    assert all(a and b for a, b in products)
    monkeypatch.undo()
    assert det == (rate_product(n, "p").as_polynomial() - rate_product(n, "q")) ** (n - 1)


def test_rate_product():
    mono = rate_product(2, "p")
    assert mono.evaluate(RatePoint((Fraction(3), Fraction(5)), (Fraction(1), Fraction(1)))) == 15


def test_shift_rows():
    poly = p_var(3, 1) * q_var(3, 3)
    assert poly.shift_rows(1) == p_var(3, 2) * q_var(3, 1)
    assert poly.shift_rows(3) == poly


def test_substitutions():
    poly = p_var(2, 1) * q_var(2, 2) + q_var(2, 1)
    ident = poly.subs_identical()
    assert ident == Polynomial(1, {(1, 1): Fraction(1), (0, 1): Fraction(1)})
    sym = poly.subs_symmetric()
    assert sym == p_var(2, 1) * p_var(2, 2) + p_var(2, 1)
    assert poly.subs_zero_q() == Polynomial.zero(2)
    assert (poly + p_var(2, 1)).subs_zero_q() == p_var(2, 1)


def test_mismatched_variable_sets_rejected():
    with pytest.raises(ValueError):
        p_var(2, 1) + p_var(3, 1)
    with pytest.raises(ValueError):
        Monomial.p(2, 1) * Monomial.p(3, 1)
    with pytest.raises(ValueError):
        Monomial(2, (1, 0, 0))
    with pytest.raises(ValueError):
        Monomial.p(2, 3)


def test_canonical_term_order():
    poly = 2 * p_var(2, 1) ** 2 + q_var(2, 2) - 3 * p_var(2, 2) * q_var(2, 1)
    assert poly.sorted_terms() == [((0, 0, 0, 1), 1), ((0, 1, 1, 0), -3), ((2, 0, 0, 0), 2)]
    assert str(poly) == "q2 - 3*p2*q1 + 2*p1^2"


def test_a_polynomial_is_rendered_once(monkeypatch):
    """The text is rendered on the first `str` and kept; a new polynomial
    built from it is rendered anew."""
    from torus_asep import symbolic

    rendered = []
    render = symbolic._render_term
    monkeypatch.setattr(symbolic, "_render_term", lambda *args, **kw: rendered.append(args) or render(*args, **kw))
    poly = 2 * p_var(2, 1) ** 2 + q_var(2, 2) - 3 * p_var(2, 2) * q_var(2, 1)
    assert str(poly) == str(poly) == "q2 - 3*p2*q1 + 2*p1^2"
    assert len(rendered) == 3
    assert str(poly + 1) == "1 + q2 - 3*p2*q1 + 2*p1^2"
    assert len(rendered) == 7


def test_rate_point_parsing_and_validation():
    rp = RatePoint.parse("1/2,2;3,5/7")
    assert rp.p == (Fraction(1, 2), Fraction(2)) and rp.q == (Fraction(3), Fraction(5, 7))
    assert RatePoint.parse("0.5,1;1,1").p[0] == Fraction(1, 2)
    with pytest.raises(ValueError):
        RatePoint.parse("1,2;3")
    with pytest.raises(ValueError):
        RatePoint((Fraction(-1),), (Fraction(1),))
    with pytest.raises(ValueError):
        RatePoint((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_rate_point_scaling_and_labels():
    rp = RatePoint((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(5, 4)))
    scale, values = rp.integer_scaling()
    assert scale == 4 and values == (2, 12, 0, 5)
    assert all(v == scale * x for v, x in zip(values, rp.p + rp.q))
    assert RatePoint.from_json_dict(rp.to_json_dict()) == rp


def test_parse_fraction_forms():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("7") == 7
    assert parse_fraction("0.25") == Fraction(1, 4)


def test_monomial_rendering():
    mono = Monomial(2, (2, 0, 1, 0))
    assert str(mono) == "p1^2*q1"
    assert str(Polynomial.zero(2)) == "0"


# -- differential tests against the reference Polynomial -------------------------

# Integral and fractional coefficients, some of them cancelling in a sum.
exact_coeff = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
term_dicts = st.dictionaries(small_exps, exact_coeff, max_size=4)
scalars = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def _same(new: Polynomial, ref: ReferencePolynomial) -> None:
    assert new.n == ref.n
    assert new._terms == ref._terms
    assert str(new) == str(ref)
    # storage rule: no zero term, an int for every integral coefficient
    for coef in new._terms.values():
        assert coef and (type(coef) is int or coef.denominator != 1)


@settings(max_examples=150, deadline=None)
@given(term_dicts, term_dicts, st.integers(0, 3), scalars, rate_points, st.integers(-2, 3))
def test_polynomial_matches_reference(ta, tb, k, c, point, shift):
    a, b = Polynomial(2, ta), Polynomial(2, tb)
    ra, rb = ReferencePolynomial(2, ta), ReferencePolynomial(2, tb)
    _same(a, ra)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(-a, -ra)
    _same(a * b, ra * rb)
    _same(a**k, ra**k)
    _same(a + c, ra + c)
    _same(c - a, c - ra)
    _same(c * a, c * ra)
    assert (a == b) == (ra == rb)
    assert (a == c) == (ra == c)
    assert a - a == 0
    value = a.evaluate(point)
    assert type(value) is Fraction and value == ra.evaluate(point)
    _same(a.shift_rows(shift), ra.shift_rows(shift))
    _same(a.subs_identical(), ra.subs_identical())
    _same(a.subs_symmetric(), ra.subs_symmetric())
    _same(a.subs_zero_q(), ra.subs_zero_q())


# The operands the ring operations take without building a polynomial.
edge_scalars = st.sampled_from([0, 1, -1, Fraction(0), Fraction(4, 2), Fraction(-3, 3), Fraction(1, 2), Fraction(-5, 3)])
nonzero_coeff = exact_coeff.filter(bool)
ring_operands = st.one_of(
    st.one_of(edge_scalars, scalars).map(lambda c: (c, c)),
    nonzero_coeff.map(lambda c: (Polynomial(2, {(0,) * 4: c}), ReferencePolynomial(2, {(0,) * 4: c}))),
    small_exps.map(lambda e: (Monomial(2, e), Monomial(2, e))),
    st.tuples(small_exps, nonzero_coeff).map(lambda t: (Polynomial(2, {t[0]: t[1]}), ReferencePolynomial(2, {t[0]: t[1]}))),
)


@settings(max_examples=300, deadline=None)
@given(term_dicts, ring_operands)
def test_scalar_and_one_term_operations_match_reference(ta, operand):
    """`*`, `+`, `-` and `==` with a scalar, a constant, a Monomial or a
    one-term polynomial on either side give the reference's terms, stored
    by the rule: no zero term, an int for every integral coefficient."""
    x, rx = operand
    a, ra = Polynomial(2, ta), ReferencePolynomial(2, ta)
    _same(a * x, ra * rx)
    _same(a + x, ra + rx)
    _same(x + a, rx + ra)
    _same(a - x, ra - rx)
    _same(x - a, rx - ra)
    if not isinstance(x, Monomial):
        _same(x * a, rx * ra)
    assert (a == x) == (ra == rx)
    assert (a + x) - x == a


def test_scalar_operations_keep_the_storage_rule():
    p = Polynomial(2, {(1, 0, 0, 0): 3, (0, 0, 0, 0): Fraction(1, 2)})
    doubled = p * Fraction(4, 2)
    assert doubled._terms == {(1, 0, 0, 0): 6, (0, 0, 0, 0): 1}
    assert all(type(c) is int for c in doubled._terms.values())
    assert not p * 0 and not p * Fraction(0) and (p * 0) == 0
    assert (p + Fraction(-1, 2))._terms == {(1, 0, 0, 0): 3}
    assert p * 1 == p and p * -1 == -p and p * Fraction(2, 3) == Fraction(2, 3) * p
    assert p * Monomial.q(2, 1) == Polynomial(2, {(1, 0, 1, 0): 3, (0, 0, 1, 0): Fraction(1, 2)})
    assert Polynomial(2, {(0, 0, 0, 0): Fraction(6, 3)}) == 2 == Polynomial.one(2) * 2
    assert p != p * 2 and (p == Monomial.p(3, 1)) is False


band_entries = st.dictionaries(small_exps, exact_coeff, max_size=2)


def _leibniz(matrix: list[list[ReferencePolynomial]]) -> ReferencePolynomial:
    """The determinant as the full sum over permutations, zero products included."""
    size = len(matrix)
    total = ReferencePolynomial.zero(matrix[0][0].n)
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = ReferencePolynomial.one(total.n)
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total - term if inversions % 2 else total + term
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 4), st.lists(band_entries, min_size=25, max_size=25))
def test_poly_det_of_a_banded_matrix_matches_full_expansion(size, below, above, entries):
    """Entries outside the band i - below <= j <= i + above are zero, and
    some inside it are too; skipping them leaves the determinant unchanged."""

    def entry(i, j):
        return entries[i * 5 + j] if -below <= j - i <= above else {}

    matrix = [[Polynomial(2, entry(i, j)) for j in range(size)] for i in range(size)]
    reference = [[ReferencePolynomial(2, entry(i, j)) for j in range(size)] for i in range(size)]
    _same(poly_det(matrix), _leibniz(reference))


def _summands(exps):
    """(slot, exponents, sign) summands; each drawn summand is also added once
    more with the opposite sign when `cancel` is set, so some sums vanish."""
    return st.lists(
        st.tuples(st.integers(0, 2), exps, st.sampled_from([1, -1]), st.booleans()),
        max_size=12,
    )


# A numeric domain's weights share one degree; these all have degree 2.
degree_two_exps = st.lists(st.integers(0, 3), min_size=2, max_size=2).map(
    lambda pos: tuple(pos.count(j) for j in range(4))
)


def _accumulate(dom, items):
    """The kernel's sums of the drawn weights, one state per item, and the
    reference polynomials."""
    exponents = np.array([exps for _, exps, _, _ in items], dtype=np.int64).reshape(len(items), 4)
    rows = []
    expected = [ReferencePolynomial.zero(2) for _ in range(3)]
    for state, (slot, exps, sign, cancel) in enumerate(items):
        mono = ReferencePolynomial(2, {exps: 1})
        for s in (sign, -sign) if cancel else (sign,):
            rows.append((slot, state, s))
            expected[slot] = expected[slot] + mono if s > 0 else expected[slot] - mono
    slot, state, sign = zip(*rows) if rows else ((), (), ())
    return zip(dom.totals(exponents, SumTable.build(3, slot, state, sign=sign)), expected)


@settings(max_examples=100, deadline=None)
@given(_summands(small_exps), _summands(degree_two_exps), rate_points)
def test_accumulated_sums_match_repeated_reference_adds(items, numeric_items, point):
    for new, ref in _accumulate(Domain(2), items):
        _same(new, ref)
    for value, ref in _accumulate(Domain(2, point), numeric_items):
        assert type(value) is Fraction and value == ref.evaluate(point)


@settings(max_examples=60, deadline=None)
@given(small_exps, st.sampled_from([("p", 1), ("p", 2), ("q", 1), ("q", 2)]), rate_points)
def test_domain_term_is_weight_times_rate(exps, symbol, point):
    var = (Monomial.p if symbol[0] == "p" else Monomial.q)(2, symbol[1])
    expected = ReferencePolynomial(2, {exps: 1}) * ReferencePolynomial(2, {var.exponents: 1})
    table = SumTable.build(1, [0], [0], [rate_symbols(2).index(symbol)])
    exponents = np.array([exps], dtype=np.int64)
    _same(Domain(2).totals(exponents, table)[0], expected)
    assert Domain(2, point).totals(exponents, table)[0] == expected.evaluate(point)


@pytest.mark.parametrize("rates", [None, ONES], ids=["symbolic", "numeric"])
def test_sums_slots_are_distinct_and_freeze_once(rates):
    """Each slot is its own value, every call evaluates the table afresh,
    the values equal the running sums the kernel replaced, and a table is
    frozen: it takes no more rows."""
    dom = Domain(2, rates)
    table = SumTable.build(2, [0], [0])
    exponents = np.array([Monomial.p(2, 1).exponents], dtype=np.int64)
    first, second = dom.totals(exponents, table)
    assert first is not second
    assert first == dom.monomial(Monomial.p(2, 1)) and second == dom.zero
    again = dom.totals(exponents, table)
    assert again == [first, second] and again[0] is not first
    old = SummandDomain(2, rates)
    sums = old.sums(2)
    assert isinstance(sums, MonomialSums if rates is None else IntegerSums)
    sums.add(0, old.weight(Monomial.p(2, 1)))
    assert sums.freeze() == again
    with pytest.raises(ValueError, match="read-only"):
        table.slot[0] = 1
    with pytest.raises(TypeError):
        sums.add(0, old.weight(Monomial.p(2, 1)))


