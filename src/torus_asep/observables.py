"""Closed-form partition functions, densities, and currents, with oracles.

Every closed form here is paired with an independent oracle computed from
the stationary ensemble: densities from occupation sums, currents from the
defining rate-weighted expectation (including, for box currents, the
crossing bookkeeping of the nonlocal moves via the displacement records).
Each oracle is one integer table of the lattice's transition graph from
`build_generator`, evaluated by one `Domain.totals` call over the
representatives' exponent matrix: symbolic mode proves the check as a
polynomial identity in the 2n rates, numeric mode at one exact rate point.
The tables are `density_rows` (occupation), `occupation_rows` (the
rate-weighted bullet moves) and `crossings` (the signed boundary
crossings of each arc's displacement records), each one total over all
columns, which by rotation is every column's full-space sum.

Every oracle and closed-form numerator lives over the common denominator
L * Z(L, n), which `full_normalization` proves equal to the sum of the
weights, so an entry is decided by comparing bare numerators, with no
cross-multiplication.  Whole-row closed forms are reported over Z(L, n),
their oracles as L times the total.  Every closed form comes from one
function, `closed_numerators`, which runs the recurrences of the partition
function, the box densities and the currents in a `Domain`'s ring: as
polynomials in `closed_forms`, kept for the two most recent lattices
for the symbolic checks, and as exact values at a rate point, computed
afresh by the numeric checks and `closed_currents`.  Densities and
currents share one report type, `ObservableReport`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .dynamics import build_generator
from .model import _check_dims
from .stationary import box_weight
from .symbolic import (
    Domain,
    Monomial,
    Polynomial,
    RatePoint,
    RationalValue,
    elementary_symmetric,
    pq_integer,
    rate_product,
    rect_schur,
    reflected_homogeneous,
)


class ObservableMismatch(AssertionError):
    """A closed form disagrees with its brute-force oracle."""


def partition_function(L: int, n: int) -> Polynomial:
    """Restricted partition function: sum over gap compositions (c_1..c_n)
    of L - n of the product of total_box_weight(k)^{c_k}, homogeneous of
    degree (L-n)(n-1).

    That sum is the complete homogeneous symmetric polynomial h_{L-n} in the
    n total box weights, read from the recurrence of `closed_numerators`.
    """
    return closed_forms(L, n)["bullet_density"]


# -- special-case partition functions ------------------------------------------


@dataclass
class SpecialCaseCertificate:
    L: int
    n: int
    case: str
    substituted: Polynomial
    closed_form: Polynomial
    extra: dict = field(default_factory=dict)

    @property
    def equal(self) -> bool:
        return self.substituted == self.closed_form and all(self.extra.values())


def partition_function_special(L: int, n: int, case: str) -> SpecialCaseCertificate:
    """Certify the substituted partition function against its closed form.

    Cases: 'identical' (all rows share p, q), 'symmetric' (q_i = p_i),
    'totally_asymmetric' (q_i = 0, with the rectangular Schur form as an
    extra certificate).
    """
    _check_dims(L, n)
    z = partition_function(L, n)
    m = L - n
    binom = math.comb(L - 1, n - 1)
    extra: dict = {}
    if case == "identical":
        substituted = z.subs_identical()
        closed = binom * pq_integer(n) ** m
    elif case == "symmetric":
        substituted = z.subs_symmetric()
        e = elementary_symmetric(n, n - 1) if n >= 2 else Polynomial.one(n)
        closed = binom * e**m
    elif case == "totally_asymmetric":
        substituted = z.subs_zero_q()
        closed = reflected_homogeneous(n, m)
        extra["schur_form"] = rect_schur(L, n) == closed
    else:
        raise ValueError(f"unknown special case {case!r}")
    cert = SpecialCaseCertificate(L, n, case, substituted, closed, extra)
    if not cert.equal:
        offending = _first_difference(substituted, closed)
        raise ObservableMismatch(
            f"special case {case} fails at ({L},{n}); first differing monomial: {offending}"
        )
    return cert


def _first_difference(a: Polynomial, b: Polynomial) -> str:
    diff = a - b
    for exps, coef in diff.sorted_terms():
        return f"{Monomial(diff.n, exps)} (coefficient {coef})"
    return "<none>"


# -- stationary ensemble ---------------------------------------------------------


@lru_cache(maxsize=2)
def full_normalization(L: int, n: int) -> Polynomial:
    """L times the restricted partition function, verified against the brute
    sum of the weights, L times their sum over the representatives.

    Cached per (L, n) once it passes, for the two most recent lattices, as
    the graph is; a mismatch raises, so it is never cached.
    """
    gen = build_generator(L, n)
    total = L * Polynomial(n, Counter(map(tuple, gen.exponents.tolist())))
    expected = L * partition_function(L, n)
    if total != expected:
        raise ObservableMismatch(f"sum of weights differs from L*Z at ({L},{n})")
    return total


# -- reports ----------------------------------------------------------------------------


@dataclass
class ObservableEntry:
    name: str
    index: tuple[int, ...]
    closed: RationalValue | Fraction
    oracle: RationalValue | Fraction
    equal: bool

    def to_json_dict(self) -> dict:
        return {
            "observable": self.name,
            "index": list(self.index),
            "closed_form": str(self.closed),
            "oracle": str(self.oracle),
            "equal": self.equal,
        }


@dataclass
class ObservableReport:
    """Closed forms against their oracles for one family of observables."""

    L: int
    n: int
    mode: str
    entries: list[ObservableEntry]

    def entry(self, name: str, *index: int) -> ObservableEntry:
        for e in self.entries:
            if e.name == name and e.index == tuple(index):
                return e
        raise KeyError((name, index))

    @property
    def ok(self) -> bool:
        return all(e.equal for e in self.entries)

    def require_ok(self, family: str) -> "ObservableReport":
        bad = next((e for e in self.entries if not e.equal), None)
        if bad is not None:
            raise ObservableMismatch(f"{family} mismatch at ({self.L},{self.n}): {bad.name}{bad.index}")
        return self

    def to_json_rows(self) -> list[dict]:
        return [e.to_json_dict() for e in self.entries]

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["observable", "index", "closed_form", "oracle", "equal"]]
        for e in self.entries:
            rows.append(
                [e.name, ":".join(map(str, e.index)), str(e.closed), str(e.oracle), str(e.equal)]
            )
        return rows


class _CommonDenominator:
    """Entries whose numerators all sit over L * Z(L, n).

    An oracle is a total over the representatives, and every column's
    full-space numerator over L * Z equals it, by rotation.  A whole-row
    total's full-space numerator is L times it, and its closed form sits
    over Z.  Comparing bare numerators is sound because full_normalization
    proves the weights sum to L * Z first.
    """

    def __init__(self, L: int, n: int, dom: Domain):
        lz = full_normalization(L, n)
        self.L = L
        self.dom = dom
        self.forms = closed_forms(L, n) if dom.rates is None else closed_numerators(L, n, dom)
        self.z = self.forms["bullet_density"]
        if self.z == 0:
            raise ValueError("all weights vanish at this rate point")
        self.lz = lz if dom.rates is None else L * self.z
        self._scaled = {}

    def check(self, name: str, index: tuple[int, ...], oracle) -> ObservableEntry:
        """The entry of an oracle total against its closed form, which for a
        family with rows is the one of row index[0]."""
        form = self.forms[name]
        if isinstance(form, tuple):
            form = form[index[0] - 1]
        whole, ratio, equal = name in WHOLE_ROW, self.dom.ratio, form == oracle
        if equal:
            # shown through the closed form's objects, so each value renders once
            oracle = self._whole(form) if whole else form
        elif whole:
            oracle = self.L * oracle
        return ObservableEntry(name, index, ratio(form, self.z if whole else self.lz), ratio(oracle, self.lz), equal)

    def _whole(self, form):
        """L * form, made once per closed form: whole-row families share them."""
        if id(form) not in self._scaled:
            self._scaled[id(form)] = self.L * form
        return self._scaled[id(form)]

    def columns(self, name: str, index: tuple[int, ...], oracle) -> list[ObservableEntry]:
        """The entry of every column 1..L, each appended to `index`: one
        comparison, since every column's numerator is the oracle total."""
        e = self.check(name, index, oracle)
        return [ObservableEntry(name, index + (j,), e.closed, e.oracle, e.equal) for j in range(1, self.L + 1)]


# -- closed forms -------------------------------------------------------------------

# The closed forms of whole-row totals sit over Z(L, n), every other one over L * Z(L, n).
WHOLE_ROW = frozenset({"bullet_row_current", "box_vertical_up", "box_vertical_down", "box_vertical_net"})


def closed_numerators(L: int, n: int, dom: Domain) -> MappingProxyType:
    """Every closed-form numerator of (L, n), by observable name, in the
    ring of `dom`: polynomials in the 2n rates when symbolic, Fractions at
    the rate point when numeric, each made once from the int value at the
    integer-scaled rate point, since every numerator is homogeneous.

    A family that depends on the row maps to its tuple by row.  Each comes
    from the box weights w(i, k) and their column sums, the total box
    weights W_k.  The complete homogeneous sums h_c of the W_k give
    Z(n + c, n) for every c <= L - n; the bullet density 1/L is Z(L, n) over
    L * Z.  The box density of row i is the renewal sum over the distance j
    to the nearest bullet on the left, sum_a w(i, a) S_a, with S_a =
    sum_{j=1}^{L-n} W_a^{j-1} Z(L - j, n) per gap label a.  Every current
    carries the drift times a quantity of the torus one column smaller, and
    vanishes for L = n, where there is none; the families equal to
    d * Z(L - 1, n) share one value.
    """
    _check_dims(L, n)
    m = L - n
    zero = dom.zero
    w = [[dom.monomial(box_weight(i, k, n)) for k in range(1, n + 1)] for i in range(1, n + 1)]
    totals = [sum((row[k] for row in w), zero) for k in range(n)]
    # h_c(W_1..W_k) = h_c(W_1..W_{k-1}) + W_k h_{c-1}(W_1..W_k)
    h = [dom.one] + [zero] * m
    for wk in totals:
        for c in range(1, m + 1):
            h[c] = h[c] + wk * h[c - 1]
    # S_a by Horner's rule; its last step is S_a(L) = Z(L - 1, n) + W_a S_a(L - 1)
    here, smaller = [], []
    for wa in totals:
        before, s = zero, zero
        for c in range(m):
            before, s = s, h[c] + wa * s
        here.append(s)
        smaller.append(before)

    def rows(sums: list) -> tuple:
        return tuple(sum((wi[a] * sums[a] for a in range(n)), zero) for wi in w)

    z_prev = h[m - 1] if m else zero
    p_all, q_all = (dom.monomial(rate_product(n, family)) for family in "pq")
    d = p_all - q_all
    # the degrees of Z(L, n), and of d * Z(L - 1, n) and every current
    density, current = (lambda x: dom.unscaled(x, m * (n - 1))), (lambda x: dom.unscaled(x, n + (m - 1) * (n - 1)))
    net = current(d * z_prev)
    return MappingProxyType({
        "bullet_density": density(h[m]),
        "box_density": tuple(map(density, rows(here))),
        "bullet_edge_current": net,
        "bullet_row_current": net,
        "box_column_current": -n * net,
        "box_vertical_up": current(p_all * z_prev),
        "box_vertical_down": current(q_all * z_prev),
        "box_vertical_net": net,
        "box_row_current": tuple(current(d * r) for r in rows(smaller)),
    })


@lru_cache(maxsize=2)
def closed_forms(L: int, n: int) -> MappingProxyType:
    """`closed_numerators` as polynomials, built once per lattice and kept
    for the two most recent lattices, as the graph is."""
    return closed_numerators(L, n, Domain(n))


# -- densities ----------------------------------------------------------------------


def densities(L: int, n: int, rates: RatePoint | None = None) -> ObservableReport:
    """Bullet and box densities, closed form against occupation oracle.

    Bullet density is 1/L at every site; box densities are column
    independent and follow the renewal formula per row.  Raises
    ObservableMismatch if any entry disagrees.
    """
    _check_dims(L, n)
    dom = Domain(n, rates)
    over = _CommonDenominator(L, n, dom)
    gen = build_generator(L, n)
    totals = dom.totals(gen.exponents, gen.density_rows)
    entries = []
    for i in range(n):
        bullet = over.columns("bullet_density", (i + 1,), totals[i])
        box = over.columns("box_density", (i + 1,), totals[n + i])
        entries += [e for pair in zip(bullet, box) for e in pair]
    return ObservableReport(L, n, dom.mode, entries).require_ok("density")


# -- currents -------------------------------------------------------------------------


def _occupation_currents(L: int, n: int, dom: Domain):
    """Rate-weighted occupation totals over all columns, per row: the bullet
    edge current numerator, and the same-row bullet-box patterns that
    trigger the nonlocal moves, up (box to the right) and down (to the
    left)."""
    gen = build_generator(L, n)  # the cap is checked on every call
    totals = _occupation_forms(L, n) if dom.rates is None else dom.totals(gen.exponents, gen.occupation_rows)
    return totals[:n], totals[n : 2 * n], totals[2 * n :]


@lru_cache(maxsize=2)
def _occupation_forms(L: int, n: int) -> tuple[Polynomial, ...]:
    """The symbolic occupation totals, made once per lattice for
    `currents_exact` and `scott_russell_check` and kept for the two most
    recent lattices, as the graph is."""
    gen = build_generator(L, n)
    return tuple(Domain(n).totals(gen.exponents, gen.occupation_rows))


def currents_exact(L: int, n: int, rates: RatePoint | None = None) -> ObservableReport:
    """All five current families, closed form against expectation oracle.

    Oracles: the bullet edge current from its rate-weighted occupation sum,
    the vertical box currents from the adjacency patterns that trigger the
    nonlocal moves, and both horizontal box currents from the signed
    boundary crossings of the displacement records (the per-row version
    counts only label-preserving crossings, whose row is well defined).
    Each is one total over all columns, equal to the sum at every single
    boundary, so each identity below is checked once for every boundary.
    Raises ObservableMismatch on any disagreement.
    """
    _check_dims(L, n)
    dom = Domain(n, rates)
    zero = dom.zero
    over = _CommonDenominator(L, n, dom)
    gen = build_generator(L, n)
    edge, up, down = _occupation_currents(L, n, dom)

    # Crossing-sum oracles from the displacement records, by crossing channel.
    crossed = dom.totals(gen.exponents, gen.crossings)
    bullet_cross, box_col, box_row, box_swap = crossed[:n], crossed[n], crossed[n + 1 : 2 * n + 1], crossed[2 * n + 1 :]

    # The label-preserving swap part alone carries no net current; the whole
    # per-row horizontal box current comes from the shifting blocks.
    for i in range(n):
        if box_swap[i] != zero:
            raise ObservableMismatch(f"swap-only box crossings do not cancel at row {i + 1}, boundary 1")
        if bullet_cross[i] != edge[i]:
            raise ObservableMismatch(f"bullet crossing rate differs from occupation oracle at ({i + 1},1)")

    entries = [e for i in range(n) for e in over.columns("bullet_edge_current", (i + 1,), edge[i])]
    entries += [over.check("bullet_row_current", (i + 1,), edge[i]) for i in range(n)]
    entries += over.columns("box_column_current", (), box_col)
    vertical = [(("up", up[i]), ("down", down[i]), ("net", up[i] - down[i])) for i in range(n)]
    entries += [over.check(f"box_vertical_{k}", (i + 1,), v) for i in range(n) for k, v in vertical[i]]
    entries += [e for i in range(n) for e in over.columns("box_row_current", (i + 1,), box_row[i])]
    report = ObservableReport(L, n, dom.mode, entries).require_ok("current")

    # Particle conservation across each column boundary: bullets and boxes
    # carry opposite net horizontal transport.
    if box_col + sum(edge, zero) != zero:
        raise ObservableMismatch("flux balance fails across boundary 1")
    return report


def closed_currents(L: int, n: int, rates: RatePoint) -> dict[str, Fraction | list[Fraction]]:
    """Closed-form current values at a rate point, no ensemble enumeration.

    The numerators of `closed_numerators` at the rate point, divided by
    L * Z(L, n), or by Z(L, n) for a whole-row total.  No polynomial is
    built, so lattices far beyond exact-oracle reach are cheap: (40, 5)
    takes milliseconds.  Per-row horizontal box currents come back as a
    list indexed by row.
    """
    table = closed_numerators(L, n, Domain(n, rates))
    z = table["bullet_density"]

    def value(name, num):
        return num / (z if name in WHOLE_ROW else L * z)

    return {
        name: [value(name, x) for x in num] if isinstance(num, tuple) else value(name, num)
        for name, num in table.items()
        if not name.endswith("density")
    }


@dataclass
class ScottRussellCertificate:
    L: int
    n: int
    rows: list[tuple[int, bool]]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.rows)


def scott_russell_check(L: int, n: int) -> ScottRussellCertificate:
    """Exact identity: the net vertical box current between adjacent rows
    equals the total horizontal bullet current of the row, both computed
    from their defining expectations (not from the closed forms)."""
    _check_dims(L, n)
    edge, up, down = _occupation_currents(L, n, Domain(n))
    rows = [(i + 1, up[i] - down[i] == edge[i]) for i in range(n)]
    return ScottRussellCertificate(L, n, rows)
