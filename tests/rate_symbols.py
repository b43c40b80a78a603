"""The rate symbols ('p', k) and ('q', k) and the rate variables as
polynomials, as the tests name them."""

from __future__ import annotations

from fractions import Fraction

from torus_asep.symbolic import Monomial, Polynomial, RatePoint


def rate_symbols(n: int) -> list[tuple[str, int]]:
    """The rate symbols ('p', 1)..('p', n), ('q', 1)..('q', n), in exponent order."""
    return [(family, k) for family in "pq" for k in range(1, n + 1)]


def rate_value(rates: RatePoint, symbol: tuple[str, int]) -> Fraction:
    """Value of a rate symbol ('p', k) or ('q', k), k 1-based."""
    family, k = symbol
    return (rates.p if family == "p" else rates.q)[k - 1]


def p_var(n: int, k: int) -> Polynomial:
    return Monomial.p(n, k).as_polynomial()


def q_var(n: int, k: int) -> Polynomial:
    return Monomial.q(n, k).as_polynomial()
