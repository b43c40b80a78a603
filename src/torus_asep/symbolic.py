"""Exact arithmetic in the 2n hopping rates p_1..p_n, q_1..q_n.

A polynomial stores an integral coefficient as an `int` and any other as a
`fractions.Fraction`, and is kept in canonical form (no zero terms, one entry
per monomial), so `==` is mathematical equality; `evaluate` returns a
`Fraction`.  Sums over a state ensemble are `SumTable`s of integer rows,
evaluated by a `Domain` in one array pass: into polynomials in symbolic
mode, and in numeric mode into Fractions over a power of D, the lcm of the
rate denominators, after summing exact ints at the integer-scaled rate
point D * r.  No floating point enters any identity computed here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add

import numpy as np


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact scalar (int or Fraction), got {type(x).__name__}")


def _exact(c):
    """The stored form of an exact scalar: an int when integral, else a Fraction."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _clean(terms: dict) -> dict:
    """Drop zero coefficients and store the rest in `_exact` form."""
    return {e: _exact(c) for e, c in terms.items() if c}


def parse_fraction(text: str) -> Fraction:
    """Parse 'a/b', an integer, or a decimal string into an exact Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    if "." in text or "e" in text.lower():
        return Fraction(text)
    return Fraction(int(text))


@dataclass(frozen=True)
class RatePoint:
    """Exact nonnegative rates per row: forward p_k and backward q_k, k = 1..n."""

    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(_as_fraction(x) for x in self.p))
        object.__setattr__(self, "q", tuple(_as_fraction(x) for x in self.q))
        if len(self.p) != len(self.q) or not self.p:
            raise ValueError("p and q must be nonempty vectors of equal length")
        if any(x < 0 for x in self.p + self.q):
            raise ValueError("rates must be nonnegative")
        # A vanishing forward rate together with a vanishing backward rate
        # makes even the lumped ring chain reducible; reject outright.
        if any(x == 0 for x in self.p) and any(x == 0 for x in self.q):
            raise ValueError("some p_i and some q_j are both zero; chain is reducible")

    @property
    def n(self) -> int:
        return len(self.p)

    def integer_scaling(self) -> tuple[int, tuple[int, ...]]:
        """D, the lcm of the rate denominators, and the 2n integers
        D*p_1..D*p_n, D*q_1..D*q_n; worked out once per rate point."""
        return self._integer_scaling

    @cached_property
    def _integer_scaling(self) -> tuple[int, tuple[int, ...]]:
        rates = self.p + self.q
        scale = math.lcm(*(x.denominator for x in rates))
        return scale, tuple(x.numerator * (scale // x.denominator) for x in rates)

    def as_floats(self) -> tuple[list[float], list[float]]:
        """The rates as floats; raises ValueError for a rate that overflows
        a float or a positive rate that rounds to zero."""

        def to_float(family: str, k: int, x: Fraction) -> float:
            try:
                value = float(x)
            except OverflowError:
                value = math.inf
            if math.isinf(value) or (x and not value):
                raise ValueError(f"rate {family}{k} does not fit in a float")
            return value

        return (
            [to_float("p", k, x) for k, x in enumerate(self.p, 1)],
            [to_float("q", k, x) for k, x in enumerate(self.q, 1)],
        )

    @classmethod
    def parse(cls, text: str) -> "RatePoint":
        """Parse 'p1,..,pn;q1,..,qn' with entries 'a/b', integers, or decimals."""
        try:
            p_text, q_text = text.split(";")
            p = tuple(parse_fraction(t) for t in p_text.split(","))
            q = tuple(parse_fraction(t) for t in q_text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse rate point {text!r}: {exc}") from exc
        return cls(p, q)

    def to_json_dict(self) -> dict:
        return {
            "p": [str(x) for x in self.p],
            "q": [str(x) for x in self.q],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RatePoint":
        if not (isinstance(data, dict) and all(isinstance(data.get(f), list) for f in "pq")):
            raise ValueError("a rate point must be a JSON object with lists p and q")
        return cls(
            tuple(parse_fraction(str(x)) for x in data["p"]),
            tuple(parse_fraction(str(x)) for x in data["q"]),
        )


@dataclass(frozen=True)
class Monomial:
    """A product of rate variables: exponents of p_1..p_n followed by q_1..q_n."""

    n: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != 2 * self.n:
            raise ValueError(f"need 2n = {2 * self.n} exponents, got {len(self.exponents)}")
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be nonnegative")

    @classmethod
    def unit(cls, n: int) -> "Monomial":
        return cls(n, (0,) * (2 * n))

    @classmethod
    def p(cls, n: int, k: int) -> "Monomial":
        _check_label(k, n)
        return cls(n, _counts(2 * n, [k - 1]))

    @classmethod
    def q(cls, n: int, k: int) -> "Monomial":
        _check_label(k, n)
        return cls(n, _counts(2 * n, [n + k - 1]))

    def degree(self) -> int:
        return sum(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.n != other.n:
            raise ValueError("monomials over different variable sets")
        return Monomial(self.n, tuple(map(add, self.exponents, other.exponents)))

    def evaluate(self, rates: RatePoint) -> Fraction:
        """The value at a rate point: the monomial at the integer-scaled
        point D * r over D^degree."""
        if rates.n != self.n:
            raise ValueError("rate point has wrong number of rows")
        scale, values = rates.integer_scaling()
        return Fraction(_monomial_value(values, self.exponents, 1), scale ** sum(self.exponents))

    def as_polynomial(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {self.exponents: 1})

    def __str__(self) -> str:
        return _render_term(self.n, self.exponents, 1, lead=True)


def _check_label(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"label {k} out of range 1..{n}")


def _counts(size: int, positions) -> tuple[int, ...]:
    """The exponent tuple of length `size` counting each listed position."""
    e = [0] * size
    for j in positions:
        e[j] += 1
    return tuple(e)


def _monomial_value(values: tuple[int, ...], exps: tuple[int, ...], coef: int) -> int:
    for x, e in zip(values, exps):
        if e:
            coef *= x**e
    return coef


class Polynomial:
    """Multivariate polynomial in p_1..p_n, q_1..q_n with exact coefficients.

    A polynomial is never changed once built, so its text is rendered once,
    on the first `str`, and kept.
    """

    __slots__ = ("n", "_terms", "_text")

    def __init__(self, n: int, terms: dict[tuple[int, ...], int | Fraction] | None = None):
        self.n = n
        self._terms = _clean({tuple(e): _as_fraction(c) for e, c in (terms or {}).items()})
        self._text = None
        if any(len(e) != 2 * n for e in self._terms):
            raise ValueError("exponent tuple has wrong length")

    @classmethod
    def _trusted(cls, n: int, terms: dict[tuple[int, ...], int | Fraction]) -> "Polynomial":
        """Wrap terms that are already clean: 2n-tuples, no zero coefficient,
        each coefficient in `_exact` form.  The dict is taken, not copied."""
        poly = object.__new__(cls)
        poly.n = n
        poly._terms = terms
        poly._text = None
        return poly

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._trusted(n, {})

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls._trusted(n, {(0,) * (2 * n): 1})

    # -- inspection -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        """Terms in graded lexicographic order on (p_1..p_n, q_1..q_n)."""
        return sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    # -- ring operations --------------------------------------------------
    # A scalar, a Monomial or a one-term polynomial operand is read as its
    # terms, never built into a polynomial: a sum merges the shorter term
    # list into a copy of the longer, and a product with one term maps the
    # keys, since adding a fixed exponent tuple is injective.

    def _items(self, other):
        """The (exponent tuple, coefficient) terms of `other`, an int, a
        Fraction, a Monomial or a Polynomial over the same variables."""
        if isinstance(other, (Polynomial, Monomial)):
            if other.n != self.n:
                raise ValueError("polynomials over different variable sets")
            return other._terms.items() if isinstance(other, Polynomial) else ((other.exponents, 1),)
        c = other if type(other) is int else _exact(_as_fraction(other))
        return (((0,) * (2 * self.n), c),) if c else ()

    def _plus(self, items) -> "Polynomial":
        """self plus clean terms: a coefficient that cancels is dropped, an
        integral one stored as an int."""
        a = self._terms.items()
        if len(a) < len(items):
            a, items = items, a
        terms = dict(a)
        for e, c in items:
            c += terms.get(e, 0)
            if c:
                terms[e] = _exact(c)
            else:
                del terms[e]
        return Polynomial._trusted(self.n, terms)

    def __add__(self, other) -> "Polynomial":
        return self._plus(self._items(other))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self._plus([(e, -c) for e, c in self._items(other)])

    def __rsub__(self, other) -> "Polynomial":
        return -self + other

    def __mul__(self, other) -> "Polynomial":
        a, b = self._terms.items(), self._items(other)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            ((shift, c),) = b
            if any(shift):
                a = ((tuple(map(add, e, shift)), v) for e, v in a)
            return Polynomial._trusted(self.n, dict(a) if c == 1 else {e: _exact(v * c) for e, v in a})
        terms: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial._trusted(self.n, _clean(terms))

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
        if isinstance(other, Polynomial):
            return self.n == other.n and self._terms == other._terms
        if not isinstance(other, (int, Fraction, Monomial)):
            return NotImplemented
        try:
            items = self._items(other)
        except ValueError:
            return False
        return len(items) == len(self._terms) and all(self._terms.get(e) == c for e, c in items)

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, rates: RatePoint) -> Fraction:
        """The value at a rate point, summed in ints over the common
        denominator lcm(coefficient denominators) * D^degree."""
        if rates.n != self.n:
            raise ValueError("rate point has wrong number of rows")
        scale, values = rates.integer_scaling()
        top = self.degree()
        den = math.lcm(*(c.denominator for c in self._terms.values()))
        total = sum(
            _monomial_value(values, e, c.numerator * (den // c.denominator) * scale ** (top - sum(e)))
            for e, c in self._terms.items()
        )
        return Fraction(total, den * scale**top)

    def _map_exponents(self, n: int, rewrite) -> "Polynomial":
        """Sum the terms after rewriting each exponent tuple (a substitution)."""
        terms: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coef in self._terms.items():
            e = rewrite(exps)
            terms[e] = terms.get(e, 0) + coef
        return Polynomial._trusted(n, _clean(terms))

    def shift_rows(self, s: int) -> "Polynomial":
        """Substitute p_j -> p_{j+s}, q_j -> q_{j+s} (labels cyclic mod n)."""
        n = self.n
        # Output position (j + s) mod n reads input position j, in both halves.
        order = [(j - s) % n for j in range(n)]
        order += [n + j for j in order]
        return self._map_exponents(n, lambda e: tuple(e[j] for j in order))

    def subs_identical(self) -> "Polynomial":
        """Set every p_i = p and q_i = q; the result is a polynomial in (p, q)."""
        n = self.n
        return self._map_exponents(1, lambda e: (sum(e[:n]), sum(e[n:])))

    def subs_symmetric(self) -> "Polynomial":
        """Set q_i = p_i for every row."""
        n = self.n
        return self._map_exponents(n, lambda e: tuple(map(add, e[:n], e[n:])) + (0,) * n)

    def subs_zero_q(self) -> "Polynomial":
        """Set q_i = 0 for every row (terms containing any q drop out)."""
        n = self.n
        return Polynomial._trusted(n, {e: c for e, c in self._terms.items() if not any(e[n:])})

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if self._text is None:
            parts = [_render_term(self.n, exps, coef, lead=(i == 0)) for i, (exps, coef) in enumerate(self.sorted_terms())]
            self._text = " ".join(parts) if parts else "0"
        return self._text

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


def rate_product(n: int, family: str) -> Monomial:
    """The monomial p_1..p_n (family 'p') or q_1..q_n (family 'q')."""
    off = 0 if family == "p" else n
    return Monomial(n, _counts(2 * n, range(off, off + n)))


@dataclass(frozen=True)
class RationalValue:
    """A symbolic ratio of polynomials, kept for display."""

    num: Polynomial
    den: Polynomial

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


# Magnitudes below this fit an int64.
_INT64_LIMIT = 2**63

# Rows per numeric pass, which bounds the pass's temporary arrays.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SumTable:
    """The combinatorics of `size` sums over a state ensemble, as rows.

    Row r adds sign[r], a signed count, times the weight of state[r] to
    slot[r], times the rate symbol of index rate[r] (its position in an
    exponent tuple) when the table has rates, which it has for every row or
    for none.  A table holds structure only, no rate point and no value:
    `Domain.totals` evaluates it.  Its arrays are read-only int32; `depth`
    is the largest sum of |sign| over the rows of any one slot.
    """

    size: int
    slot: np.ndarray
    state: np.ndarray
    rate: np.ndarray | None
    sign: np.ndarray
    depth: int

    @classmethod
    def build(cls, size: int, slot, state, rate=None, sign=None) -> "SumTable":
        if size > np.iinfo(np.int32).max:
            raise ValueError(f"a table of {size} slots does not fit int32 rows")
        slot, state = _frozen(slot, np.int32), _frozen(state, np.int32)
        sign = _frozen(np.ones(len(slot)) if sign is None else sign, np.int32)
        depth = int(np.bincount(slot, np.abs(sign), minlength=1).max()) if len(slot) else 0
        return cls(size, slot, state, None if rate is None else _frozen(rate, np.int32), sign, depth)


def _frozen(values, dtype=np.int64) -> np.ndarray:
    """`values` as a read-only array of `dtype`, not copied if it is one."""
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


def integer_totals(table: SumTable, weights, rates) -> list[int]:
    """The exact slot totals of `table` as Python ints, given the int
    weight of each state and the int value of each rate symbol.  The sums
    run in int64 when a bound proves that no weight, rate or partial sum
    can overflow it, and over Python ints otherwise."""
    terms = table.rate is not None
    bound = max(table.depth, 1)
    for values in (weights, rates) if terms else (weights,):
        values = np.asarray(values)
        bound *= max(int(values.max(initial=1)), -int(values.min(initial=0)))
    dtype = np.int64 if bound < _INT64_LIMIT else object
    return _scatter(table, np.asarray(weights, dtype=dtype), np.asarray(rates, dtype=dtype) if terms else None)


def _scatter(table: SumTable, weights: np.ndarray, rates: np.ndarray | None) -> list[int]:
    """`integer_totals` of weights and rates (None for a table without
    rates) already in one dtype."""
    totals = np.zeros(table.size, dtype=weights.dtype)
    for lo in range(0, len(table.slot), _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        values = weights[table.state[rows]] * table.sign[rows]
        if rates is not None:
            values *= rates[table.rate[rows]]
        np.add.at(totals, table.slot[rows], values)
    return totals.tolist()


def _sort_keys(table: SumTable, exponents: np.ndarray, base: int) -> list[np.ndarray]:
    """int64 key columns whose lexicographic order is that of the rows'
    (slot, exponent tuple), each exponent a digit below `base`, the tuple of
    a row its state's weight with its rate's exponent raised by one.  Every
    column packs as many digits as fit below 2^63, the slot leading the
    first; a state's digits are packed once, and each row adds its rate's
    digit to its state's key."""
    width = exponents.shape[1]
    bounds, span = [0], table.size
    for j in range(width):
        if span * base >= _INT64_LIMIT:
            bounds.append(j)
            span = 1
        span *= base
    bounds.append(width)
    # place[j]: the value of a unit in digit j within its column
    place = np.concatenate([base ** np.arange(hi - lo - 1, -1, -1) for lo, hi in zip(bounds, bounds[1:])])
    column_of = np.searchsorted(bounds, np.arange(width), side="right") - 1
    columns = []
    for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        key = (exponents[:, lo:hi] @ place[lo:hi])[table.state]
        if table.rate is not None:
            key += np.where(column_of[table.rate] == c, place[table.rate], 0)
        if c == 0:
            key += table.slot.astype(np.int64) * base ** (hi - lo)
        columns.append(key)
    return columns


class Domain:
    """The exact arithmetic one check runs in, so each check is written once.

    A check is a `SumTable` over the weights of a state ensemble, given as
    their exponent matrix (one row of 2n exponents per state), and
    `totals` evaluates it in one array pass.
    Symbolic (rates None): polynomials in all 2n rates, so an identity is
    proved for every rate point; each row is its weight's exponent tuple
    (with its rate's exponent raised by one), and equal tuples of a slot are
    counted by sorting packed int keys.
    Numeric: each weight is its int value at the integer-scaled rate point
    D * r, D the lcm of the rate denominators, which stands for that value
    over D^d.  The weights must share one degree d (a ValueError
    otherwise), so each total is one reduced Fraction over D^d, or over
    D^(d+1) for a table with rates.  The ints are summed by
    `integer_totals`, which picks int64 or Python ints.
    `zero`, `one` and `monomial` are the domain's ring elements, so a
    recurrence is written once for both: polynomials, or ints at D * r,
    where an element of degree e stands for its value over D^e, and
    `unscaled` gives that value.
    """

    def __init__(self, n: int, rates: RatePoint | None = None):
        if rates is not None and rates.n != n:
            raise ValueError("rate point has wrong number of rows")
        self.n = n
        self.rates = rates
        self.mode = "symbolic" if rates is None else "numeric"
        self.zero = Polynomial.zero(n) if rates is None else 0
        self.one = Polynomial.one(n) if rates is None else 1
        if rates is not None:
            self._scale, self._values = rates.integer_scaling()

    def totals(self, exponents: np.ndarray, table: SumTable) -> list:
        """The `table.size` slot values of `table` over states whose
        weights have the given exponent rows; computed afresh on every call."""
        if self.rates is None:
            return self._polynomial_totals(exponents, table)
        degrees = exponents.sum(axis=1)
        d = int(degrees[0]) if len(degrees) else 0
        other = np.flatnonzero(degrees != d)
        if len(other):
            raise ValueError(f"weights of degrees {d} and {int(degrees[other[0]])} cannot share one denominator")
        dtype = np.int64 if max(self._values) ** d < _INT64_LIMIT else object
        # weight values as products of rate powers, read from a power table
        powers = np.array([[x**e for e in range(d + 1)] for x in self._values], dtype=dtype)
        weights = np.ones(len(exponents), dtype=dtype)
        for row, column in zip(powers, exponents.T):
            if column.any():
                weights = weights * row[column]
        den = self._scale ** (d + (table.rate is not None))
        return [Fraction(total, den) for total in integer_totals(table, weights, self._values)]

    def _polynomial_totals(self, exponents: np.ndarray, table: SumTable) -> list[Polynomial]:
        if not len(table.slot):
            return [Polynomial.zero(self.n) for _ in range(table.size)]
        keys = _sort_keys(table, exponents, int(exponents.sum(axis=1).max()) + 2)
        order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
        start = np.zeros(len(order), dtype=bool)
        start[0] = True
        for key in keys:
            ordered = key[order]
            start[1:] |= ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(start)
        counts = np.add.reduceat(table.sign[order], starts, dtype=np.int64)
        live = counts != 0
        first = order[starts[live]]
        exps = exponents[table.state[first]]
        if table.rate is not None:
            exps[np.arange(len(first)), table.rate[first]] += 1
        # the runs are sorted by slot first, so each slot's terms are contiguous
        slots = table.slot[first]
        heads = np.flatnonzero(np.diff(slots, prepend=-1))
        monomials = list(zip(*exps.T.tolist()))
        counts = counts[live].tolist()
        terms: list[dict] = [{} for _ in range(table.size)]
        cuts = heads.tolist() + [len(first)]
        for slot, a, b in zip(slots[heads].tolist(), cuts, cuts[1:]):
            terms[slot] = dict(zip(monomials[a:b], counts[a:b]))
        return [Polynomial._trusted(self.n, t) for t in terms]

    def monomial(self, m: Monomial):
        """A monomial in the domain's ring: a polynomial, or its int value at D * r."""
        return m.as_polynomial() if self.rates is None else _monomial_value(self._values, m.exponents, 1)

    def unscaled(self, x, degree: int):
        """The value of a ring element homogeneous of the given degree: the
        polynomial itself, or the reduced Fraction x / D^degree."""
        return x if self.rates is None else Fraction(x, self._scale**degree)

    def ratio(self, num, den):
        """num / den for display: a RationalValue, or a reduced Fraction."""
        return RationalValue(num, den) if self.rates is None else num / den


# -- symmetric function bases --------------------------------------------


def elementary_symmetric(n: int, k: int) -> Polynomial:
    """e_k(p_1,..,p_n), 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"elementary symmetric degree {k} out of range 1..{n}")
    return Polynomial._trusted(n, {_counts(2 * n, c): 1 for c in itertools.combinations(range(n), k)})


def homogeneous_symmetric(n: int, k: int) -> Polynomial:
    """h_k(p_1,..,p_n), k >= 0 (h_0 = 1)."""
    if k < 0:
        raise ValueError("homogeneous symmetric degree must be >= 0")
    combos = itertools.combinations_with_replacement(range(n), k)
    return Polynomial._trusted(n, {_counts(2 * n, c): 1 for c in combos})


def pq_integer(n: int) -> Polynomial:
    """The two-variable quantum integer p^{n-1} + p^{n-2} q + .. + q^{n-1}."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Polynomial._trusted(1, {(n - 1 - i, i): 1 for i in range(n)})


def reflected_homogeneous(n: int, m: int) -> Polynomial:
    """(p_1..p_n)^m times h_m(1/p_1,..,1/p_n), with denominators cleared.

    Equals the sum over compositions (c_1,..,c_n) of m of the monomial
    prod_k p_k^{m - c_k}.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    return homogeneous_symmetric(n, m)._map_exponents(n, lambda e: tuple(m - x for x in e[:n]) + (0,) * n)


def poly_det(matrix: list[list[Polynomial]]) -> Polynomial:
    """Determinant of a square matrix of polynomials, by Laplace expansion
    along the first row.  A minor is named by its columns, its rows being
    the last ones, and is expanded once, so the expansion forms at most
    size * 2^(size - 1) products.  A zero entry is skipped with its minor,
    so a banded matrix, such as the Jacobi-Trudi band of `rect_schur`,
    reaches only the minors of its nonzero entries; a zero minor is
    skipped too, without a product."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    n = matrix[0][0].n
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")

    @lru_cache(maxsize=None)
    def expand(cols: tuple[int, ...]) -> Polynomial:
        r = size - len(cols)
        if len(cols) == 1:
            return matrix[r][cols[0]]
        total = Polynomial.zero(n)
        for idx, c in enumerate(cols):
            if matrix[r][c] and (minor := expand(cols[:idx] + cols[idx + 1 :])):
                term = matrix[r][c] * minor
                total = total + term if idx % 2 == 0 else total - term
        return total

    det = expand(tuple(range(size)))
    expand.cache_clear()  # the recursive closure is a reference cycle: free its minors now
    return det


def rect_schur(L: int, n: int) -> Polynomial:
    """Schur polynomial for the rectangle with n-1 rows of length L-n, in p_1..p_n.

    Computed as the dual Jacobi-Trudi determinant (Macdonald, Symmetric
    Functions and Hall Polynomials, I.3): the (L-n) x (L-n) band of
    elementary symmetric polynomials e_{(n-1) - i + j} of the conjugate
    rectangle.  e_k vanishes below 0 and above n, so the band is lower
    Hessenberg with n + 1 nonzero diagonals, and `poly_det` reaches only
    O((L-n) n) of its minors.
    """
    if not 1 <= n <= L:
        raise ValueError("need 1 <= n <= L")
    m = L - n
    if n == 1 or m == 0:
        return Polynomial.one(n)
    e = {k: elementary_symmetric(n, k) if k else Polynomial.one(n) for k in range(n + 1)}
    zero = Polynomial.zero(n)
    return poly_det([[e.get(n - 1 - i + j, zero) for j in range(m)] for i in range(m)])
