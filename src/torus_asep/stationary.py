"""Stationary weights, exact stationary distributions, balance checks, lumping.

The stationary weight of a state is a single monomial in the rates: each box
in gap k at row i contributes the degree-(n-1) factor

    w(i, k) = p_1..p_{i-1} q_{i+1}..q_k p_{k+1}..p_n   for i <= k,
    w(i, k) = q_1..q_k p_{k+1}..p_{i-1} q_{i+1}..q_n   for k < i <= n,

and the weight of the state is the product over its boxes.  The exact solver
below recovers the stationary distribution from the generator alone, so the
weight formula can be tested against it as an independent oracle.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import NamedTuple

import numpy as np

from .dynamics import Arcs, SparseGenerator, breadth_first, build_generator, generator_entries, rotated_pairs
from .model import ColoredWord, ensure_valid, gap_lengths
from .symbolic import Domain, Monomial, Polynomial, RatePoint, SumTable, integer_totals, poly_det, rate_product


class StationaryError(RuntimeError):
    pass


# -- stationary weights ---------------------------------------------------------


@lru_cache(maxsize=None)
def box_exponents(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The exponent tuple of every box weight w(i, k), at [i - 1][k - 1]."""
    if n < 1:
        raise ValueError("need n >= 1")

    def row(i: int, k: int) -> tuple[int, ...]:
        rows = range(1, n + 1)
        if i <= k:
            return tuple(int(not i <= j <= k) for j in rows) + tuple(int(i < j <= k) for j in rows)
        return tuple(int(k < j < i) for j in rows) + tuple(int(not k < j <= i) for j in rows)

    return tuple(tuple(row(i, k) for k in range(1, n + 1)) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def box_weight(i: int, k: int, n: int) -> Monomial:
    """Weight of a box at row i sitting in gap k; total degree n - 1."""
    if not (1 <= i <= n and 1 <= k <= n):
        raise ValueError(f"row {i} or gap {k} out of range 1..{n}")
    return Monomial(n, box_exponents(n)[i - 1][k - 1])


@lru_cache(maxsize=None)
def total_box_weight(k: int, n: int) -> Polynomial:
    """Sum of box_weight(i, k) over all rows i; n terms of degree n - 1."""
    return Polynomial(n, Counter(row[k - 1] for row in box_exponents(n)))


def config_weight(w: ColoredWord) -> Monomial:
    """Product of box weights over all boxes of the state.

    One walk validates the word and sums its boxes' exponent rows.  It
    starts at bullet 1, so that each box follows the bullet of its gap,
    and reads the bullets 1, 2, ..., n in turn; a word whose bullets are
    not a rotation of 1..n, or with a letter outside +-1..n, goes to
    `ensure_valid`, which raises its `ValidationError`.
    """
    n, letters = w.n, w.letters
    if n >= 1 and 1 in letters:
        table = box_exponents(n)
        start = letters.index(1)
        total = (0,) * (2 * n)
        bullet = 0
        for c in letters[start:] + letters[:start]:
            if c == bullet + 1 <= n:
                bullet = c
            elif -n <= c < 0:
                total = tuple(map(add, total, table[-c - 1][bullet - 1]))
            else:
                break
        else:
            if bullet == n:
                return Monomial(n, total)
    ensure_valid(w)
    raise AssertionError(f"{w} is valid but was not weighed")


def weight_exponents(letters: np.ndarray, n: int) -> np.ndarray:
    """The weight's exponent row of each valid word, given as the rows of a
    letter matrix, in one array pass: each box adds `box_weight` at its row
    and its gap label, the last bullet at or before it along the row, read
    cyclically (before the row's first bullet, its last one)."""
    size, L = letters.shape
    last = np.maximum.accumulate(np.where(letters > 0, np.arange(L), -1), axis=1)
    gap = np.take_along_axis(letters, np.where(last < 0, last[:, -1:], last), axis=1)
    box = letters < 0
    pairs = np.bincount(np.flatnonzero(box) // L * n * n + (-letters[box] - 1) * n + gap[box] - 1, minlength=size * n * n)
    return pairs.reshape(size, n * n) @ np.array(box_exponents(n), dtype=np.int64).reshape(n * n, 2 * n)


def drift(n: int) -> Polynomial:
    """p_1..p_n - q_1..q_n: the weight determinant's factor, carried by every current."""
    return Polynomial._trusted(n, {rate_product(n, "p").exponents: 1, rate_product(n, "q").exponents: -1})


@dataclass
class WeightIdentityReport:
    n: int
    determinant_ok: bool
    pair_ok: bool
    failures: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return self.determinant_ok and self.pair_ok


def weight_identities(n: int) -> WeightIdentityReport:
    """Check det(w(i,k)) = (p_1..p_n - q_1..q_n)^(n-1) and the telescoping
    relation p_k w(i,k) - q_k w(i,k-1) = [i=k] (p_1..p_n - q_1..q_n).

    Both sides of the relation are a difference of two monomials, each a
    row of `box_exponents` with one exponent raised, so it holds exactly
    when the two are equal, or for i = k, when they are p_1..p_n and
    q_1..q_n."""
    table = box_exponents(n)
    matrix = [[Polynomial._trusted(n, {e: 1}) for e in row] for row in table]
    determinant_ok = poly_det(matrix) == drift(n) ** (n - 1)
    top, bottom = rate_product(n, "p").exponents, rate_product(n, "q").exponents
    failures = []
    for i, row in enumerate(table, start=1):
        for k in range(1, n + 1):
            up = _raised(row[k - 1], k - 1)  # p_k w(i, k)
            down = _raised(row[k - 2], n + k - 1)  # q_k w(i, k - 1); row[-1] is gap n
            if (up, down) != (top, bottom) if i == k else up != down:
                failures.append((i, k))
    return WeightIdentityReport(n, determinant_ok, not failures, failures)


def _raised(exponents: tuple[int, ...], j: int) -> tuple[int, ...]:
    """`exponents` with its entry j raised by one."""
    return exponents[:j] + (exponents[j] + 1,) + exponents[j + 1 :]


# -- stationary tables ------------------------------------------------------------


@dataclass
class StationaryTable:
    """Stationary data over an enumerated state list: the exact
    probabilities, summing to one, that `exact_stationary` gives, the weight
    monomials, or both; `to_json_rows` writes one row per state."""

    states: list[ColoredWord]
    probabilities: list[Fraction] | None = None
    weights: list[Monomial] | None = None

    def to_json_rows(self, rates: RatePoint | None = None) -> list[dict]:
        rows = []
        for j, w in enumerate(self.states):
            row: dict = {"state": w.to_text()}
            if self.weights is not None:
                row["weight"] = str(self.weights[j])
                if rates is not None:
                    row["weight_value"] = str(self.weights[j].evaluate(rates))
            if self.probabilities is not None:
                row["probability"] = str(self.probabilities[j])
            rows.append(row)
        return rows


# -- exact stationary solve --------------------------------------------------------


def _closed_class(num: int, tail: np.ndarray, head: np.ndarray) -> list[int]:
    """The one closed class of the arcs (tail, head), in index order.

    From node c, step to a deepest node that c reaches but that does not
    reach c, until there is none: every step shrinks the set c reaches, and
    at the end that set is a closed class.  It is the only one if every state
    reaches c; otherwise StationaryError.  On an irreducible chain this is
    one forward and one backward search from node 0.
    """
    c = 0
    while True:
        reach = breadth_first(num, tail, head, c)[0]
        back = np.zeros(num, dtype=bool)
        back[breadth_first(num, head, tail, c)[0]] = True
        away = reach[~back[reach]]  # in visiting order, so the last is a deepest one
        if not away.size:
            break
        c = int(away[-1])
    if not back.all():
        raise StationaryError("chain has more than one closed class: its stationary law is not unique")
    return np.sort(reach).tolist()


# 31-bit primes, largest first.  The solver factors the quotient matrix
# modulo the first one at which it is invertible.
PRIMES = (2_147_483_647, 2_147_483_629, 2_147_483_587, 2_147_483_579, 2_147_483_563, 2_147_483_549)

# The elimination goes dense once the shortest remaining row is this long
# and fills a quarter of the remaining rows.
_DENSE_FROM = 32


def _live_arcs(arcs: Arcs, live: tuple[bool, ...]) -> Arcs:
    """The arcs among `arcs` whose rate symbol is marked in `live`."""
    keep = np.flatnonzero(np.array(live)[arcs.rate])
    return Arcs(*(column[keep] for column in arcs))


def _rows(size: int, row: list[int], col: list[int], values: list[int], p: int) -> list[dict[int, int]]:
    """`_eliminate`'s rows (column -> value) of the size-row matrix whose
    entry at (row[e], col[e]) is values[e], reduced modulo p, zeros left out."""
    rows: list[dict[int, int]] = [{} for _ in range(size)]
    for i, j, v in zip(row, col, values):
        if x := v % p:
            rows[i][j] = x
    return rows


class _Steps(list):
    """`_eliminate`'s steps; the first `sparse` of them are the sparse
    phase's, the rest the dense tail's."""

    sparse: int


def _eliminate(rows: list[dict[int, int]], p: int) -> _Steps:
    """Gaussian elimination modulo p; consumes `rows` (column -> value).

    Each step pivots on the shortest remaining row, at its column with the
    fewest remaining entries, and eliminates that column from every other
    row.  Once even the shortest row fills a quarter of the remaining rows'
    width, the rest is finished densely.  Returns the steps (pivot row,
    pivot column, inverse pivot, the (row, multiplier) updates, the rest of
    the pivot row); their number is the rank modulo p, and `_solve_mod`
    replays them on a right-hand side.
    """
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    live = len(heap)
    done = bytearray(len(rows))
    steps, dense = _Steps(), []
    while heap:
        length, r = heapq.heappop(heap)
        row = rows[r]
        if done[r] or length != len(row):
            continue
        if length >= _DENSE_FROM and 4 * length >= live:
            dense = [i for i in range(len(rows)) if not done[i] and rows[i]]
            break
        done[r] = 1
        live -= 1
        if not row:
            continue
        c = min(row, key=lambda j: len(cols[j]))
        inv = pow(row.pop(c), -1, p)
        for j in row:
            cols[j].discard(r)
        rest = list(row.items())
        updates = []
        for i in cols.pop(c) - {r}:
            target = rows[i]
            f = target.pop(c) * inv % p
            updates.append((i, f))
            for j, v in rest:
                x = (target.get(j, 0) - f * v) % p
                if x:
                    if j not in target:
                        cols[j].add(i)
                    target[j] = x
                elif j in target:
                    del target[j]
                    cols[j].discard(i)
            heapq.heappush(heap, (len(target), i))
        steps.append((r, c, inv, updates, rest))
    steps.sparse = len(steps)
    if dense:
        steps += _eliminate_dense(dense, rows, p)
    return steps


class _Skeleton(NamedTuple):
    """The pivot order of a full-rank `_eliminate`, with no value: per
    sparse step, its pivot row and column, the other columns of the pivot
    row and the rows it updates; and the rows handed to the dense tail."""

    sparse: list[tuple[int, int, list[int], list[int]]]
    dense: list[int]


def _skeleton(steps: _Steps) -> _Skeleton:
    """The `_Skeleton` of full-rank elimination steps."""
    sparse = [(r, c, [j for j, _ in rest], [i for i, _ in updates]) for r, c, _, updates, rest in steps[: steps.sparse]]
    return _Skeleton(sparse, sorted(step[0] for step in steps[steps.sparse :]))


def _replay(skeleton: _Skeleton, rows: list[dict[int, int]], p: int) -> list[tuple] | None:
    """The elimination steps of `rows` (column -> value, consumed) modulo
    p in the pivot order of `skeleton`, with no search: each sparse step
    updates only the rows and columns the skeleton lists, and the dense tail
    is `_eliminate_dense`'s.  An updated entry is reduced modulo p only when
    it is read.

    Verified as it goes: an entry off the skeleton that is not zero here,
    left in a pivot row or in a dense row at a column already eliminated,
    or a zero pivot, or a singular dense tail gives None.  Otherwise every
    update a fresh elimination in this order would make was made, so the
    steps are an exact full-rank elimination of `rows`.
    """
    steps = []
    for r, c, rest_cols, targets in skeleton.sparse:
        row = rows[r]
        pivot = row.pop(c, 0) % p
        rest = [(j, v) for j in rest_cols if (v := row.pop(j, 0) % p)]
        if not pivot or row and any(v % p for v in row.values()):
            return None
        inv = pow(pivot, -1, p)
        updates = []
        for i in targets:
            target = rows[i]
            f = target.pop(c, 0) * inv % p
            updates.append((i, f))
            for j, v in rest:
                target[j] = target.get(j, 0) - f * v
        steps.append((r, c, inv, updates, rest))
    pivoted = {c for _, c, _, _ in skeleton.sparse}
    for i in skeleton.dense:
        rows[i] = {j: x for j, v in rows[i].items() if (x := v % p)}
        if not pivoted.isdisjoint(rows[i]):
            return None
    if skeleton.dense:
        steps += _eliminate_dense(skeleton.dense, rows, p)
    return steps if len(steps) == len(rows) else None


def _eliminate_dense(live: list[int], rows: list[dict[int, int]], p: int) -> list[tuple]:
    """The elimination steps of the given rows, as an in-place dense LU.

    Entries stay below p < 2^31, so every product fits in an int64.
    """
    names = sorted({j for i in live for j in rows[i]})
    at = {j: k for k, j in enumerate(names)}
    block = np.zeros((len(live), len(names)), dtype=np.int64)
    for a, i in enumerate(live):
        for j, v in rows[i].items():
            block[a, at[j]] = v
    order = list(live)
    steps = []
    r = 0
    for c in range(len(names)):
        nz = np.flatnonzero(block[r:, c])
        if not nz.size:
            continue
        k = r + int(nz[0])
        if k != r:
            block[[r, k]] = block[[k, r]]
            order[r], order[k] = order[k], order[r]
        inv = pow(int(block[r, c]), -1, p)
        factors = block[r + 1 :, c] * inv % p
        pivot = block[r, c + 1 :]
        trailing = block[r + 1 :, c + 1 :]
        trailing -= np.outer(factors, pivot)
        trailing %= p
        below, rest = np.flatnonzero(factors), np.flatnonzero(pivot)
        steps.append(
            (
                order[r],
                names[c],
                inv,
                [(order[r + 1 + i], f) for i, f in zip(below.tolist(), factors[below].tolist())],
                [(names[c + 1 + j], v) for j, v in zip(rest.tolist(), pivot[rest].tolist())],
            )
        )
        r += 1
    return steps


def _solve_mod(steps: list[tuple], rhs: list[int], p: int) -> list[int]:
    """Solve A y = rhs modulo p from the full-rank elimination steps of A;
    an updated entry of the right-hand side is reduced when it is read."""
    b = list(rhs)
    for r, _, _, updates, _ in steps:
        br = b[r] = b[r] % p
        if br:
            for i, f in updates:
                b[i] -= f * br
    y = [0] * len(rhs)
    for r, c, inv, _, rest in reversed(steps):
        acc = b[r]
        for j, v in rest:
            acc -= v * y[j]
        y[c] = acc * inv % p
    return y


def _wang(a: int, modulus: int, num_bound: int, den_bound: int) -> tuple[int, int] | None:
    """The fraction u/v = a mod modulus with |u| <= num_bound, 0 < v <= den_bound
    (Wang's rational reconstruction), or None if there is none."""
    r0, r1, s0, s1 = modulus, a, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if 0 < s1 <= den_bound and math.gcd(r1, s1) == 1:
        return r1, s1
    return None


def _reconstruct(x: list[int], modulus: int) -> list[int] | None:
    """Integers proportional to (1, y), where y is the vector of rationals of
    numerator and denominator below sqrt(modulus / 2) congruent to x, or None.

    Each entry is reconstructed after multiplying by the denominator found
    so far, so a shared denominator is paid for once.
    """
    bound = math.isqrt(modulus // 2)
    den = 1
    parts = []
    for xi in x:
        frac = _wang(xi * den % modulus, modulus, bound, bound // den)
        if frac is None:
            return None
        den *= frac[1]
        parts.append((frac[0], den))
    return [den] + [u * (den // d) for u, d in parts]


class _Quotient(NamedTuple):
    """What `exact_stationary` needs of a generator at one pattern of
    positive rates, none of it a rate value: the closed class, and the
    quotient system A y = b of its orbit chain as index arrays.

    `orbit` numbers each representative's orbit in the class, -1 off it.
    `entries` is the orbit chain's `generator_entries` table; `entry`
    names its slots that are A's entries, listed by row and then column at
    `row` and `col` of the `size` x `size` matrix A, and then those of
    column 0, which b negates, at rows `b_row`.  `skeleton` is the pivot
    order of the last full-rank elimination of A, None before the first.
    """

    orbit: list[int]
    size: int
    row: list[int]
    col: list[int]
    b_row: list[int]
    entry: list[int]
    entries: SumTable
    skeleton: _Skeleton | None = None


def _quotient(gen: SparseGenerator, live: tuple[bool, ...]) -> _Quotient:
    """The `_Quotient` of `gen` when exactly the rates marked in `live` are
    positive; StationaryError if the chain has more than one closed class."""
    arcs = _live_arcs(gen.arcs, live)
    num, L = len(gen.representatives), gen.L
    # The full chain's class, of states r L + s, is a union of orbits, so
    # every L-th member is a representative's r L.
    representatives = np.array(_closed_class(num * L, *rotated_pairs(arcs, L))[::L]) // L
    m = len(representatives)
    orbit = np.full(num, -1)
    orbit[representatives] = np.arange(m)
    inside = orbit[arcs.source] >= 0
    row, col, entries = generator_entries(m, orbit[arcs.source[inside]], orbit[arcs.target[inside]], arcs.rate[inside])
    # Deleting the redundant row 0 and the anchored column 0 leaves A y = b,
    # with b = -(column 0).
    a, rhs = (row > 0) & (col > 0), (row > 0) & (col == 0)
    return _Quotient(
        orbit.tolist(), m - 1, (row[a] - 1).tolist(), (col[a] - 1).tolist(), (row[rhs] - 1).tolist(),
        np.concatenate([np.flatnonzero(a), np.flatnonzero(rhs)]).tolist(), entries,
    )


def exact_stationary(gen: SparseGenerator, rates: RatePoint) -> StationaryTable:
    """Exact stationary distribution of the generator at the given rates.

    The positive-rate full chain must have one closed class, found over the
    (representative, shift) pairs; the law is zero off it and unique (a
    finite chain with one closed class has a one-dimensional null space).
    Rotation commutes with the dynamics, so it maps that class to a closed
    class, itself: the class is a union of orbits, and the law, constant
    on orbits, solves the orbit chain on them.  The class and the index
    arrays of its quotient system depend only on which rates are positive,
    so they are kept on the generator per such pattern
    (`SparseGenerator.solver_structure`).  The orbit chain, anchored at
    x = 1 on the class's first representative, is factored by sparse
    elimination modulo a prime, lifted p-adically (Dixon) and rationally
    reconstructed (Wang) at doubling precision.  The first full-rank
    elimination of a pattern keeps its pivot order, with no value, next to
    the structure; a later solve of the pattern replays that order with no
    pivot search (`_replay`), which checks that no entry it leaves out is
    nonzero and that no pivot vanishes, and every lift checks its solve
    modulo p exactly.  A failed replay or check redoes the prime with a
    fresh elimination, whose pivot order is kept instead.  A candidate is
    accepted only if it is strictly positive on the class and, extended by
    zero, balances every representative exactly in integers; past the
    Hadamard bound of the quotient matrix there is none.
    """
    if rates.n != gen.n:
        raise ValueError("rate point has wrong number of rows")
    scaled = rates.integer_scaling()[1]
    live = tuple(x > 0 for x in scaled)
    quotient = gen.solver_structure.get(live)
    if quotient is None:
        quotient = gen.solver_structure[live] = _quotient(gen, live)

    totals = integer_totals(quotient.entries, [1], scaled)
    values = [totals[e] for e in quotient.entry]
    size, nnz = quotient.size, len(quotient.row)
    b = [0] * size
    for i, v in zip(quotient.b_row, values[nnz:]):
        b[i] = -v
    # A by column, for the lifting, and its squared column norms
    cols: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    norms = [0] * size
    for i, j, v in zip(quotient.row, quotient.col, values):
        cols[j].append((i, v))
        norms[j] += v * v
    # Hadamard: every Cramer determinant of A y = b is at most the product
    # of the column norms of [A | b], so past 2 H^2 the reconstruction is
    # unique and a failing candidate means there is no exact solution.
    h2 = math.prod(max(x, 1) for x in norms) * max(sum(v * v for v in b), 1)
    past_bound = 2 * h2

    orbit, L = quotient.orbit, gen.L
    for p in PRIMES:
        for steps in _factors(gen, live, values[:nnz], p):
            for x, modulus in _dixon(steps, cols, b, p):
                y = _reconstruct(x, modulus)
                if y is not None and min(y) > 0:
                    # orbit -1 reads the appended 0: the law vanishes off the class
                    y.append(0)
                    per_representative = [y[o] for o in orbit]
                    # inflow equals outflow at every representative, exactly, at the integer-scaled rates
                    if not any(integer_totals(gen.balance_rows, per_representative, scaled)):
                        total = L * sum(y)
                        probs = [Fraction(v, total) for v in per_representative]
                        return StationaryTable(states=list(gen.states), probabilities=[probs[r] for r in gen.orbit[0].tolist()])
                if modulus > past_bound:
                    raise StationaryError("no exact positive null vector within the Hadamard bound")
    raise StationaryError("quotient matrix is singular modulo every prime tried")


def _factors(gen: SparseGenerator, live: tuple[bool, ...], values: list[int], p: int):
    """Full-rank elimination steps modulo p of the quotient matrix A kept
    for the pattern `live`, whose entries are `values`, to lift from: the
    replay of the kept skeleton if it verifies, then a fresh elimination if
    A is invertible modulo p, whose skeleton is kept in place of the old."""
    quotient = gen.solver_structure[live]
    size, row, col = quotient.size, quotient.row, quotient.col
    if quotient.skeleton is not None:
        steps = _replay(quotient.skeleton, _rows(size, row, col, values, p), p)
        if steps is not None:
            yield steps
    steps = _eliminate(_rows(size, row, col, values, p), p)
    if len(steps) == size:
        gen.solver_structure[live] = quotient._replace(skeleton=_skeleton(steps))
        yield steps


def _dixon(steps: list[tuple], cols: list[list[tuple[int, int]]], b: list[int], p: int):
    """p-adic lifting for A y = b (Dixon), A given by its columns and by its
    elimination steps modulo p: yields (x, p^k) with A x = b mod p^k, at
    k = 1, 2, 4, ... lifts.  Each lift is one solve modulo p and one exact
    integer update of the residual, which p must then divide: A is
    invertible modulo p, so that holds for the true solve alone, and the
    lifting stops at the first solve that fails it."""
    x = [0] * len(b)
    residual = list(b)
    modulus, lifts, target = 1, 0, 1
    while True:
        for _ in range(target - lifts):
            z = _solve_mod(steps, residual, p)
            for c, zc in enumerate(z):
                if zc:
                    x[c] += modulus * zc
                    for i, v in cols[c]:
                        residual[i] -= v * zc
            if any(r % p for r in residual):
                return
            residual = [r // p for r in residual]
            modulus *= p
        lifts = target
        yield x, modulus
        target *= 2


# -- balance equations --------------------------------------------------------------


@dataclass
class BalanceReport:
    """`num_states` counts full states; a failure names a representative."""

    L: int
    n: int
    mode: str
    num_states: int
    failures: list[tuple[ColoredWord, object]]

    @property
    def ok(self) -> bool:
        return not self.failures


def _lattice_generator(L: int, n: int, gen: SparseGenerator | None) -> SparseGenerator:
    """`gen`, built for (L, n) when None; a ValueError if it is of another lattice."""
    if gen is None:
        return build_generator(L, n)
    if (gen.L, gen.n) != (L, n):
        raise ValueError(f"generator is of lattice (L, n) = ({gen.L}, {gen.n}), not ({L}, {n})")
    return gen


def verify_balance(L: int, n: int, rates: RatePoint | None = None, gen: SparseGenerator | None = None) -> BalanceReport:
    """Weighted inflow equals weighted outflow at every state, exactly,
    checked at the representatives, whose rotations share their balance.

    Symbolic mode (rates None) proves the identity as polynomials in all
    2n rates; numeric mode checks it at one exact rate point.
    """
    gen = _lattice_generator(L, n, gen)
    dom = Domain(n, rates)
    net = dom.totals(gen.exponents, gen.balance_rows)  # inflow minus outflow per representative
    failures = [(w, residual) for w, residual in zip(gen.representatives, net) if residual]
    return BalanceReport(L, n, dom.mode, gen.num_states, failures)


# -- lumping to the ring chain --------------------------------------------------------


@dataclass(frozen=True)
class OneDimConfig:
    """Ring configuration after erasing box labels: 0 is a vacancy."""

    n: int
    letters: tuple[int, ...]

    def gap_vector(self) -> tuple[int, ...]:
        """Vacancy counts between consecutive bullets, c_k after bullet k."""
        pos = [0] * self.n
        for x, c in enumerate(self.letters):
            if c:
                pos[c - 1] = x
        return tuple(gap_lengths(pos, len(self.letters)))

    def to_text(self) -> str:
        return " ".join(f"B{c}" if c else "." for c in self.letters)


def lump(w: ColoredWord) -> OneDimConfig:
    """Erase box labels, keeping bullets."""
    return OneDimConfig(w.n, tuple(c if c > 0 else 0 for c in w.letters))


@lru_cache(maxsize=None)
def evans_product(gaps: tuple[int, ...], n: int) -> Polynomial:
    """Product over gaps k of total_box_weight(k)^{c_k}."""
    total = Polynomial.one(n)
    for k, c in enumerate(gaps, start=1):
        if c:
            total = total * total_box_weight(k, n) ** c
    return total


@dataclass
class LumpingReport:
    L: int
    n: int
    num_fibers: int
    lumpable: bool
    fiber_rate_failures: list[tuple[OneDimConfig, ColoredWord]]
    marginal_ok: bool
    marginal_failures: list[OneDimConfig]

    @property
    def ok(self) -> bool:
        return self.lumpable and self.marginal_ok


def lumping_report(L: int, n: int, gen: SparseGenerator | None = None) -> LumpingReport:
    """Certify the projection onto the ring chain.

    Checks, exactly and exhaustively: (1) the total rate from any fiber
    state into each target fiber depends only on the fiber (strong
    lumpability), and (2) the sum of weights over a fiber equals the product
    over gaps of total_box_weight(k)^{c_k}.  Every rate is a distinct
    variable, so (1) holds exactly when every member of a fiber has the same
    multiset of (target fiber, rate symbol) over its arcs.  Both commute
    with rotation, so they are checked on the fibers with B1 at column 0,
    whose members are the representatives; a target fiber is one of those
    rotated by its arc's shift.  Fibers are numbered in order of their
    first representative, a multiset is compared as a sorted row of codes,
    and the sums of (2) are the generator's `fiber_rows`.  `num_fibers`
    counts every rotation; each failure names a fiber with B1 at column 0.
    """
    gen = _lattice_generator(L, n, gen)
    table = gen.fiber_rows
    fiber = table.slot
    first = np.unique(fiber, return_index=True)[1]
    fibers = [lump(gen.representatives[j]) for j in first.tolist()]

    # Per representative, its (target fiber, shift, rate symbol) triples as
    # sorted codes, padded to the 2n moves a state can have, against its
    # fiber's first member.
    source, target, rate, shift = gen.arcs
    num, width = len(gen.representatives), 2 * n
    move = np.arange(len(source)) - np.searchsorted(source, source)  # arcs are in source order
    into = np.full((num, width), -1, dtype=np.int64)
    into[source, move] = (fiber[target] * L + shift) * width + rate
    into.sort(axis=1)
    differs = np.flatnonzero((into != into[first[fiber]]).any(axis=1))
    differs = differs[np.argsort(fiber[differs], kind="stable")]
    rate_failures = [(fibers[f], gen.representatives[j]) for f, j in zip(fiber[differs].tolist(), differs.tolist())]

    marginal_failures = [
        psi
        for psi, total in zip(fibers, Domain(n).totals(gen.exponents, table))
        if total != evans_product(psi.gap_vector(), n)
    ]

    return LumpingReport(
        L=L,
        n=n,
        num_fibers=L * len(fibers),
        lumpable=not rate_failures,
        fiber_rate_failures=rate_failures,
        marginal_ok=not marginal_failures,
        marginal_failures=marginal_failures,
    )


def lumped_distribution(table: StationaryTable) -> dict[OneDimConfig, Fraction]:
    """Push a numeric stationary table through the label-erasing projection."""
    if table.probabilities is None:
        raise StationaryError("need a numeric stationary table")
    out: dict[OneDimConfig, Fraction] = {}
    for w, prob in zip(table.states, table.probabilities):
        psi = lump(w)
        out[psi] = out.get(psi, Fraction(0)) + prob
    return out
