"""Differential tests of the oracle tables and the `Domain.totals` kernel.

Each table of the shared graph (`balance_rows`, `density_rows`,
`occupation_rows`, `crossings`, `fiber_rows`) evaluated by the kernel over
the representatives, and laid out over the full state space by rotation,
must equal, slot for slot, the per-state or per-arc loop over the full
space that it replaced (`reference_tables`), symbolically and at exact rate
points, zero rates included; on both sides of the int64 bound of the numeric kernel; and where
the symbolic sort keys need more than one int64 column.
"""

import copy
import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import arc_targets, state_index, with_swapped_targets
from rate_symbols import rate_value
from reference_tables import REFERENCES
from torus_asep import stationary, symbolic
from torus_asep.dynamics import build_generator, outgoing_transitions
from torus_asep.observables import currents_exact, densities, scott_russell_check
from torus_asep.stationary import exact_stationary, lumping_report, verify_balance
from torus_asep.symbolic import Domain, Polynomial, RatePoint

LATTICES = [(L, n) for L in range(1, 7) for n in range(1, L + 1)]


def _full_space(gen, name: str, totals: list) -> list:
    """The totals of table `name` over the representatives, laid out as its
    full-space reference: a state's entry is its representative's, every
    column's or boundary's entry is the all-column total, a whole-row
    total is L times it, and a fiber's entry is that of its rotation with
    B1 at column 0."""
    L, n = gen.L, gen.n
    if name == "balance_rows":
        return [totals[r] for r in gen.orbit[0].tolist()]
    if name == "occupation_rows":
        return [x for x in totals[:n] for _ in range(L)] + [L * x for x in totals[n:]]
    if name == "fiber_rows":
        keys = [tuple(max(c, 0) for c in w.letters) for w in gen.states]
        restricted = {key: f for f, key in enumerate(dict.fromkeys(k for k in keys if k[0] == 1))}
        full = dict.fromkeys(keys)
        return [totals[restricted[key[key.index(1) :] + key[: key.index(1)]]] for key in full]
    return [x for x in totals for _ in range(L)]  # density_rows, crossings: per column or boundary


def _assert_tables_match(gen, rates):
    dom = Domain(gen.n, rates)
    for name, reference in REFERENCES.items():
        assert _full_space(gen, name, dom.totals(gen.exponents, getattr(gen, name))) == reference(gen, rates), name


@pytest.mark.parametrize("L,n", LATTICES)
def test_symbolic_tables_match_the_reference_loops(L, n):
    _assert_tables_match(build_generator(L, n), None)


rates = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(0, 40), st.integers(1, 12)))


@st.composite
def lattice_points(draw):
    """A lattice with L <= 6 and a rate point, some p_k or q_k possibly zero."""
    L, n = draw(st.sampled_from(LATTICES))
    p = tuple(draw(rates) for _ in range(n))
    q = tuple(draw(rates) for _ in range(n))
    assume(not (0 in p and 0 in q))  # RatePoint rejects that pair as reducible
    return L, n, RatePoint(p, q)


@settings(max_examples=60, deadline=None)
@given(lattice_points())
def test_numeric_tables_match_the_reference_loops(case):
    L, n, point = case
    _assert_tables_match(build_generator(L, n), point)


@pytest.fixture
def scatter_dtypes(monkeypatch):
    """The dtype of every numeric kernel pass made while the fixture is live."""
    seen = []
    scatter = symbolic._scatter

    def spy(table, weights, rates):
        seen.append(weights.dtype)
        return scatter(table, weights, rates)

    monkeypatch.setattr(symbolic, "_scatter", spy)
    return seen


def test_large_rates_take_the_object_path(scatter_dtypes):
    """Numerators near 10^12 push the bound past 2^63: the kernel sums
    Python ints and still equals the reference."""
    gen = build_generator(5, 3)
    big = RatePoint.parse(f"{10**12 - 1},{10**12 - 7}/3,{10**12 + 9};{10**12 - 3}/7,0,{10**12 - 11}/5")
    _assert_tables_match(gen, big)
    assert scatter_dtypes and all(dtype == object for dtype in scatter_dtypes)
    scatter_dtypes.clear()
    _assert_tables_match(gen, RatePoint.parse("1,3/2,2;1/2,1/3,1/5"))
    assert scatter_dtypes and all(dtype == np.int64 for dtype in scatter_dtypes)


def test_symbolic_keys_of_12_11_need_two_columns():
    gen = build_generator(12, 11)
    base = int(gen.exponents.sum(axis=1).max()) + 2
    for name in REFERENCES:
        table = getattr(gen, name)
        keys = symbolic._sort_keys(table, gen.exponents, base)
        assert len(keys) == 2, name
    _assert_tables_match(gen, None)
    assert verify_balance(12, 11, gen=gen).ok


def _numpy_free(value) -> bool:
    """True if no numpy scalar or array sits anywhere in `value`."""
    if isinstance(value, (np.generic, np.ndarray)):
        return False
    if isinstance(value, Fraction):
        return type(value.numerator) is int and type(value.denominator) is int
    if isinstance(value, Polynomial):
        return _numpy_free(value._terms)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return all(_numpy_free(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(_numpy_free(k) and _numpy_free(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(map(_numpy_free, value))
    return True


@pytest.mark.parametrize("point", [None, "1,3/2,2;1/2,1/3,1/5", f"{10**12},1,2;3,{10**12 - 1}/3,0"])
def test_no_report_value_is_a_numpy_scalar(point, monkeypatch):
    rates = None if point is None else RatePoint.parse(point)
    # The solver's integer arithmetic: the rows handed to the elimination or
    # to the replay of a kept pivot order, and the columns and right-hand
    # side handed to the lifting.
    solver_inputs = []
    eliminate, replay, dixon = stationary._eliminate, stationary._replay, stationary._dixon
    record = lambda value, result: solver_inputs.append(value) or result
    monkeypatch.setattr(stationary, "_eliminate", lambda rows, p: record(copy.deepcopy(rows), eliminate)(rows, p))
    monkeypatch.setattr(stationary, "_replay", lambda skeleton, rows, p: record(copy.deepcopy(rows), replay)(skeleton, rows, p))
    monkeypatch.setattr(stationary, "_dixon", lambda steps, cols, b, p: record((cols, b), dixon)(steps, cols, b, p))
    gen = build_generator(4, 3)
    # Swapping the targets of two arcs of unequal flows breaks balance, so
    # the report carries residuals.
    value = (lambda s: s) if rates is None else (lambda s: rate_value(rates, s))
    outgoing = [outgoing_transitions(w) for w in gen.representatives]
    index = state_index(gen)
    weights = [gen.weights[index[w]] for w in gen.representatives]
    j = next(
        j
        for j, (outs, t, m) in enumerate(zip(outgoing, arc_targets(gen), weights))
        if len(t) > 1
        and t[0] != t[1]
        and value(outs[0].rate_symbol) != value(outs[1].rate_symbol)
        and (rates is None or m.evaluate(rates))
    )
    broken = with_swapped_targets(gen, j)
    reports = [
        verify_balance(4, 3, rates, gen=gen),
        verify_balance(4, 3, rates, gen=broken),
        densities(4, 3, rates),
        currents_exact(4, 3, rates),
        gen.triplet_rows(),
    ]
    assert reports[1].failures
    if rates is None:
        reports += [lumping_report(4, 3, gen=gen), lumping_report(4, 3, gen=broken), scott_russell_check(4, 3)]
    else:
        reports += [rates.integer_scaling()[1], exact_stationary(gen, rates)]
        assert len(solver_inputs) >= 2
        reports += solver_inputs
    for name in REFERENCES:
        reports.append(Domain(3, rates).totals(gen.exponents, getattr(gen, name)))
    for report in reports:
        assert _numpy_free(report), report
