"""The polynomial class as it stood before coefficients were stored as ints
and sums were built in place: every coefficient a `Fraction`, every sum a
fresh, re-validated term dict.  Kept as the slow reference that the
differential tests in test_symbolic.py check the package's `Polynomial`
against; nothing in the package imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from torus_asep.symbolic import Monomial, RatePoint


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact scalar (int or Fraction), got {type(x).__name__}")


class Polynomial:
    """Multivariate polynomial in p_1..p_n, q_1..q_n with Fraction coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.n = n
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in (terms or {}).items():
            coef = _as_fraction(coef)
            if coef:
                if len(exps) != 2 * n:
                    raise ValueError("exponent tuple has wrong length")
                clean[tuple(exps)] = coef
        self._terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {(0,) * (2 * n): _as_fraction(c)})

    @classmethod
    def from_monomial(cls, mono: Monomial, coef=1) -> "Polynomial":
        return cls(mono.n, {mono.exponents: _as_fraction(coef)})

    # -- inspection -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded lexicographic order on (p_1..p_n, q_1..q_n)."""
        return sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def monomials(self) -> Iterator[tuple[Monomial, Fraction]]:
        for exps, coef in self.sorted_terms():
            yield Monomial(self.n, exps), coef

    def degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {sum(e) for e in self._terms}
        if not degs:
            return True
        if d is None:
            return len(degs) == 1
        return degs == {d}

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("polynomials over different variable sets")
            return other
        if isinstance(other, Monomial):
            return Polynomial.from_monomial(other)
        return Polynomial.constant(self.n, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self._terms)
        for exps, coef in other._terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coef
        return Polynomial(self.n, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Monomial)):
            try:
                other = self._coerce(other)
            except ValueError:
                return False
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, rates: RatePoint) -> Fraction:
        if rates.n != self.n:
            raise ValueError("rate point has wrong number of rows")
        values = rates.p + rates.q
        total = Fraction(0)
        for exps, coef in self._terms.items():
            term = coef
            for x, e in zip(values, exps):
                if e:
                    term *= x**e
            total += term
        return total

    def shift_rows(self, s: int) -> "Polynomial":
        """Substitute p_j -> p_{j+s}, q_j -> q_{j+s} (labels cyclic mod n)."""
        n = self.n
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in self._terms.items():
            e = [0] * (2 * n)
            for j in range(n):
                e[(j + s) % n] = exps[j]
                e[n + (j + s) % n] = exps[n + j]
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + coef
        return Polynomial(n, terms)

    def subs_identical(self) -> "Polynomial":
        """Set every p_i = p and q_i = q; the result is a polynomial in (p, q)."""
        terms: dict[tuple[int, ...], Fraction] = {}
        n = self.n
        for exps, coef in self._terms.items():
            e = (sum(exps[:n]), sum(exps[n:]))
            terms[e] = terms.get(e, Fraction(0)) + coef
        return Polynomial(1, terms)

    def subs_symmetric(self) -> "Polynomial":
        """Set q_i = p_i for every row."""
        terms: dict[tuple[int, ...], Fraction] = {}
        n = self.n
        for exps, coef in self._terms.items():
            e = tuple(exps[j] + exps[n + j] for j in range(n)) + (0,) * n
            terms[e] = terms.get(e, Fraction(0)) + coef
        return Polynomial(n, terms)

    def subs_zero_q(self) -> "Polynomial":
        """Set q_i = 0 for every row (terms containing any q drop out)."""
        n = self.n
        terms = {e: c for e, c in self._terms.items() if not any(e[n:])}
        return Polynomial(n, terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (exps, coef) in enumerate(self.sorted_terms()):
            parts.append(_render_term(self.n, exps, coef, lead=(i == 0)))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _render_term(n: int, exps: tuple[int, ...], coef: Fraction, lead: bool) -> str:
    factors = []
    for j, e in enumerate(exps):
        if not e:
            continue
        name = f"p{j + 1}" if j < n else f"q{j - n + 1}"
        factors.append(name if e == 1 else f"{name}^{e}")
    body = "*".join(factors)
    mag = abs(coef)
    if not factors:
        core = str(mag)
    elif mag == 1:
        core = body
    else:
        core = f"{mag}*{body}"
    if lead:
        return core if coef >= 0 else f"-{core}"
    return f"+ {core}" if coef >= 0 else f"- {core}"
