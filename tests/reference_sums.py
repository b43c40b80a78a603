"""The running sums the package's oracles used before they became integer
tables evaluated by `Domain.totals`, kept as slow references; nothing in the
package imports them.

`SummandDomain` is the per-summand interface of the old `Domain`: a weight
is an exponent tuple (symbolic) or an int at the integer-scaled rate point
D * r (numeric), `term` multiplies it by one rate symbol, and `sums` opens
k running sums, a `MonomialSums` or an `IntegerSums`, added to one summand
at a time and frozen once.  `FractionSums` is older still: every summand an
exact value at the rate point, every add a reduced `Fraction` add.
"""

from __future__ import annotations

from fractions import Fraction

from rate_symbols import rate_symbols
from torus_asep.symbolic import Monomial, Polynomial, RatePoint, _monomial_value


class SummandDomain:
    """The old `Domain`: symbolic when rates is None, else numeric at the
    integer-scaled rate point, where every weight must share one degree."""

    def __init__(self, n: int, rates: RatePoint | None = None):
        self.n = n
        self.rates = rates
        self.zero = Polynomial.zero(n) if rates is None else Fraction(0)
        if rates is None:
            self._rate = {s: j for j, s in enumerate(rate_symbols(n))}
        else:
            self._scale, self._values = rates.integer_scaling()
            self._rate = dict(zip(rate_symbols(n), self._values))
            self._degree: int | None = None  # shared by every weight

    def weight(self, mono: Monomial):
        if self.rates is None:
            return mono.exponents
        d = mono.degree()
        if d != self._degree:
            if self._degree is not None:
                raise ValueError(f"weights of degrees {self._degree} and {d} cannot share one denominator")
            self._degree = d
        return _monomial_value(self._values, mono.exponents, 1)

    def term(self, weight, symbol: tuple[str, int]):
        """A weight summand times the rate `symbol`."""
        if self.rates is None:
            j = self._rate[symbol]
            return weight[:j] + (weight[j] + 1,) + weight[j + 1 :]
        return weight * self._rate[symbol]

    def sums(self, k: int, terms: bool = False) -> "MonomialSums | IntegerSums":
        """k independent running sums, all zero, of weights, or of `term`s
        when `terms` is set."""
        return MonomialSums(self.n, k) if self.rates is None else IntegerSums(self, k, terms)


class MonomialSums:
    """k sums of monomials, each a dict from exponent tuple to an int count;
    `freeze` hands them over as polynomials once, and they take no more."""

    __slots__ = ("n", "slots")

    def __init__(self, n: int, k: int):
        self.n = n
        self.slots: list[dict[tuple[int, ...], int]] | None = [{} for _ in range(k)]

    def add(self, i: int, exps: tuple[int, ...], sign: int = 1) -> None:
        slot = self.slots[i]
        count = slot.get(exps, 0) + sign
        if count:
            slot[exps] = count
        else:
            del slot[exps]

    def freeze(self) -> list[Polynomial]:
        slots, self.slots = self.slots, None
        return [Polynomial._trusted(self.n, slot) for slot in slots]


class IntegerSums:
    """k sums of a numeric domain's int summands, with the interface of
    `MonomialSums`; `freeze` puts each over the domain's denominator D^d
    (D^(d+1) for sums of terms) as one reduced Fraction."""

    __slots__ = ("dom", "terms", "slots")

    def __init__(self, dom: SummandDomain, k: int, terms: bool):
        self.dom = dom
        self.terms = terms
        self.slots: list[int] | None = [0] * k

    def add(self, i: int, value: int, sign: int = 1) -> None:
        self.slots[i] += value if sign > 0 else -value

    def freeze(self) -> list[Fraction]:
        slots, self.slots = self.slots, None
        den = self.dom._scale ** ((self.dom._degree or 0) + self.terms)
        return [Fraction(total, den) for total in slots]


class FractionSums:
    """k sums of exact values at one rate point, with the interface of
    `MonomialSums`."""

    __slots__ = ("slots",)

    def __init__(self, k: int):
        self.slots: list[Fraction] | None = [Fraction(0)] * k

    def add(self, i: int, value: Fraction, sign: int = 1) -> None:
        self.slots[i] += value if sign > 0 else -value

    def freeze(self) -> list[Fraction]:
        slots, self.slots = self.slots, None
        return slots
