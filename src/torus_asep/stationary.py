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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .dynamics import SparseGenerator
from .model import ColoredWord, box_gap_labels, ensure_valid
from .symbolic import Domain, Monomial, Polynomial, RatePoint, poly_det, rate_product


class StationaryError(RuntimeError):
    pass


# -- stationary weights ---------------------------------------------------------


def box_weight(i: int, k: int, n: int) -> Monomial:
    """Weight of a box at row i sitting in gap k; total degree n - 1."""
    if not (1 <= i <= n and 1 <= k <= n):
        raise ValueError(f"row {i} or gap {k} out of range 1..{n}")
    e = [0] * (2 * n)

    def take_p(lo: int, hi: int) -> None:
        for j in range(lo, hi + 1):
            e[j - 1] += 1

    def take_q(lo: int, hi: int) -> None:
        for j in range(lo, hi + 1):
            e[n + j - 1] += 1

    if i <= k:
        take_p(1, i - 1)
        take_q(i + 1, k)
        take_p(k + 1, n)
    else:
        take_q(1, k)
        take_p(k + 1, i - 1)
        take_q(i + 1, n)
    return Monomial(n, tuple(e))


def total_box_weight(k: int, n: int) -> Polynomial:
    """Sum of box_weight(i, k) over all rows i; n terms of degree n - 1."""
    total = Polynomial.zero(n)
    for i in range(1, n + 1):
        total = total + box_weight(i, k, n).as_polynomial()
    return total


def config_weight(w: ColoredWord) -> Monomial:
    """Product of box weights over all boxes of the state."""
    ensure_valid(w)
    total = Monomial.unit(w.n)
    for _, i, g in box_gap_labels(w):
        total = total * box_weight(i, g, w.n)
    return total


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
    relation p_k w(i,k) - q_k w(i,k-1) = [i=k] (p_1..p_n - q_1..q_n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    drift = rate_product(n, "p").as_polynomial() - rate_product(n, "q").as_polynomial()
    matrix = [
        [box_weight(i, k, n).as_polynomial() for k in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    determinant_ok = poly_det(matrix) == drift ** (n - 1)
    failures = []
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            k_prev = k - 1 if k > 1 else n
            lhs = (
                Monomial.p(n, k) * box_weight(i, k, n)
            ).as_polynomial() - (Monomial.q(n, k) * box_weight(i, k_prev, n)).as_polynomial()
            expected = drift if i == k else Polynomial.zero(n)
            if lhs != expected:
                failures.append((i, k))
    return WeightIdentityReport(n, determinant_ok, not failures, failures)


# -- stationary tables ------------------------------------------------------------


@dataclass
class StationaryTable:
    """Stationary data over an enumerated state list.

    Numeric mode carries exact probabilities summing to one; symbolic mode
    carries the monomial weights together with their polynomial sum (the
    normalization, equal to L times the restricted partition function when
    the list is the full state space).
    """

    states: list[ColoredWord]
    probabilities: list[Fraction] | None = None
    weights: list[Monomial] | None = None
    normalization: Polynomial | None = None

    def probability_of(self, w: ColoredWord) -> Fraction:
        if self.probabilities is None:
            raise StationaryError("table is symbolic; no numeric probabilities")
        return self.probabilities[self.states.index(w)]

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


def weight_table(L: int, n: int, states: list[ColoredWord] | None = None) -> StationaryTable:
    """Symbolic stationary table: per-state weights plus their sum."""
    from .model import enumerate_full

    if states is None:
        states = enumerate_full(L, n)
    weights = [config_weight(w) for w in states]
    total = Polynomial.zero(n)
    for m in weights:
        total = total + m.as_polynomial()
    return StationaryTable(states=states, weights=weights, normalization=total)


# -- exact stationary solve --------------------------------------------------------


def _strongly_connected(num: int, edges: list[tuple[int, int]]) -> bool:
    """Forward and backward reachability of node 0 over the whole graph."""
    fwd: list[list[int]] = [[] for _ in range(num)]
    bwd: list[list[int]] = [[] for _ in range(num)]
    for u, v in edges:
        fwd[u].append(v)
        bwd[v].append(u)

    def reached(adj: list[list[int]]) -> int:
        seen = bytearray(num)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count

    return reached(fwd) == num and reached(bwd) == num


def _solve_fraction_dense(size: int, triplets: list[tuple[int, int, Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination for small systems A y = b."""
    A = [[Fraction(0)] * size for _ in range(size)]
    for i, j, v in triplets:
        A[i][j] += v
    y = list(b)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if A[r][col]), None)
        if pivot_row is None:
            raise StationaryError("singular system: chain has no unique stationary law")
        if pivot_row != col:
            A[col], A[pivot_row] = A[pivot_row], A[col]
            y[col], y[pivot_row] = y[pivot_row], y[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        y[col] *= inv
        for r in range(size):
            if r != col and A[r][col]:
                factor = A[r][col]
                A[r] = [x - factor * piv for x, piv in zip(A[r], A[col])]
                y[r] -= factor * y[col]
    return y


def _solve_refined(
    size: int,
    triplets: list[tuple[int, int, Fraction]],
    b: list[Fraction],
    target_bits: int,
) -> list[Fraction]:
    """Sparse float LU plus exact-residual iterative refinement.

    The float solves only propose corrections; the returned vector is an
    exact Fraction vector whose residual is below 2^-target_bits, and every
    caller re-verifies the final answer exactly.
    """
    agg: dict[tuple[int, int], Fraction] = {}
    for i, j, v in triplets:
        agg[(i, j)] = agg.get((i, j), Fraction(0)) + v
    items = [(i, j, v) for (i, j), v in agg.items() if v]
    rows = np.array([i for i, _, _ in items], dtype=np.int64)
    cols = np.array([j for _, j, _ in items], dtype=np.int64)
    vals = np.array([float(v) for _, _, v in items], dtype=np.float64)
    matrix = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(size, size))
    lu = scipy.sparse.linalg.splu(matrix)
    y = [Fraction(x) for x in lu.solve(np.array([float(x) for x in b], dtype=np.float64))]
    bound = Fraction(1, 2**target_bits)
    for _ in range(80):
        residual = list(b)
        for i, j, v in items:
            residual[i] -= v * y[j]
        if all(abs(r) <= bound for r in residual):
            return y
        # Scale the residual to magnitude ~1 so the float correction solve
        # never underflows, then undo the scaling exactly.
        top = max(abs(r) for r in residual)
        mag = top.numerator.bit_length() - top.denominator.bit_length()
        scale = 2 ** max(0, -mag)
        correction = lu.solve(np.array([float(r * scale) for r in residual], dtype=np.float64))
        y = [yi + Fraction(ci) / scale for yi, ci in zip(y, correction)]
    raise StationaryError("iterative refinement failed to converge")


def exact_stationary(gen: SparseGenerator, rates: RatePoint) -> StationaryTable:
    """Exact stationary distribution of the generator at the given rates.

    The chain must have a unique stationary law, certified here by strong
    connectivity of the positive-rate transition graph (an irreducible
    finite chain has a one-dimensional null space).  The null vector is
    found by sparse LU with exact-residual refinement and then certified by
    an exact residual check, so no floating-point error can leak into the
    result.
    """
    if rates.n != gen.n:
        raise ValueError("rate point has wrong number of rows")
    scaled = rates.scaled_to_integers()
    num = gen.num_states
    arcs: list[tuple[int, int, Fraction]] = []
    for j, outs in enumerate(gen.transitions):
        for t in outs:
            value = scaled.rate(t.rate_symbol)
            if value:
                arcs.append((j, gen.index[t.target], value))
    if not arcs:
        raise StationaryError(
            "chain has no transitions (n = L): every state is absorbing and the "
            "stationary distribution is not unique"
        )
    if not _strongly_connected(num, [(u, v) for u, v, _ in arcs]):
        raise StationaryError(
            "chain is reducible at these rates; restrict to the surviving states "
            "(restrict_ta) and solve there"
        )

    # Anchor x[0] = 1 and solve the remaining (num-1)-dimensional system
    # A y = b obtained from M x = 0 by deleting the redundant row/column 0,
    # where column s of M holds the outflows of state s.
    size = num - 1
    if size == 0:
        return StationaryTable(states=list(gen.states), probabilities=[Fraction(1)])
    triplets: list[tuple[int, int, Fraction]] = []
    b = [Fraction(0)] * size
    for s, t, v in arcs:
        if t != s:
            if s == 0:
                if t != 0:
                    b[t - 1] -= v
            elif t != 0:
                triplets.append((t - 1, s - 1, v))
            if s != 0:
                triplets.append((s - 1, s - 1, -v))

    # Degree of the weight monomials bounds the denominators of the anchored
    # ratios, which sizes both the refinement target and the reconstruction.
    degree = (gen.L - gen.n) * (gen.n - 1)
    max_rate = max(scaled.p + scaled.q)
    bound = max(int(max_rate) ** max(degree, 1), 2)
    target_bits = 2 * bound.bit_length() + 40

    if size <= 64:
        y = _solve_fraction_dense(size, triplets, b)
    else:
        for attempt in range(3):
            raw = _solve_refined(size, triplets, b, target_bits << attempt)
            y = [x.limit_denominator(bound << (attempt * 8)) for x in raw]
            if _is_null_vector(num, arcs, [Fraction(1)] + y):
                break
        else:
            raise StationaryError("failed to reconstruct an exact null vector")

    x = [Fraction(1)] + list(y)
    if not _is_null_vector(num, arcs, x):
        raise StationaryError("candidate vector fails the exact balance equations")
    if any(v <= 0 for v in x):
        raise StationaryError("null vector is not strictly positive")
    total = sum(x)
    return StationaryTable(states=list(gen.states), probabilities=[v / total for v in x])


def _is_null_vector(num: int, arcs: list[tuple[int, int, Fraction]], x: list[Fraction]) -> bool:
    acc = [Fraction(0)] * num
    for s, t, v in arcs:
        flow = v * x[s]
        acc[t] += flow
        acc[s] -= flow
    return all(a == 0 for a in acc)


def generator_rank_deficiency(gen: SparseGenerator, rates: RatePoint, prime: int = 2_147_483_647) -> int:
    """num_states - rank(M) computed modulo a prime.

    The rank modulo a prime never exceeds the rational rank, so a deficiency
    of 1 here, together with one exhibited null vector, proves the rational
    null space is exactly one-dimensional.
    """
    scaled = rates.scaled_to_integers()
    num = gen.num_states
    M = np.zeros((num, num), dtype=np.int64)
    for j, outs in enumerate(gen.transitions):
        for t in outs:
            v = scaled.rate(t.rate_symbol)
            assert v.denominator == 1
            M[gen.index[t.target], j] = (M[gen.index[t.target], j] + v.numerator) % prime
            M[j, j] = (M[j, j] - v.numerator) % prime
    rank = 0
    row = 0
    for col in range(num):
        pivots = np.nonzero(M[row:, col])[0]
        if pivots.size == 0:
            continue
        pivot_row = row + int(pivots[0])
        if pivot_row != row:
            M[[row, pivot_row]] = M[[pivot_row, row]]
        inv = pow(int(M[row, col]), prime - 2, prime)
        M[row] = (M[row] * inv) % prime
        below = M[row + 1 :, col].copy()
        if below.size:
            M[row + 1 :] = (M[row + 1 :] - np.outer(below, M[row])) % prime
        rank += 1
        row += 1
        if row == num:
            break
    return num - rank


# -- balance equations --------------------------------------------------------------


@dataclass
class BalanceReport:
    L: int
    n: int
    mode: str
    num_states: int
    failures: list[tuple[ColoredWord, object]]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_balance(L: int, n: int, rates: RatePoint | None = None, gen: SparseGenerator | None = None) -> BalanceReport:
    """Weighted inflow equals weighted outflow at every state, exactly.

    Symbolic mode (rates None) proves the identity as polynomials in all
    2n rates; numeric mode checks it at one exact rate point.
    """
    from .dynamics import build_generator

    if gen is None:
        gen = build_generator(L, n)
    dom = Domain(n, rates)
    wvals = [dom.weight(config_weight(w)) for w in gen.states]
    inflow = [dom.zero] * gen.num_states
    outflow = [dom.zero] * gen.num_states
    for j, outs in enumerate(gen.transitions):
        for t in outs:
            flow = wvals[j] * dom.rate(t.rate_symbol)
            outflow[j] += flow
            inflow[gen.index[t.target]] += flow
    failures = []
    for j in range(gen.num_states):
        residual = inflow[j] - outflow[j]
        if residual != dom.zero:
            failures.append((gen.states[j], residual))
    return BalanceReport(L, n, dom.mode, gen.num_states, failures)


# -- lumping to the ring chain --------------------------------------------------------


@dataclass(frozen=True)
class OneDimConfig:
    """Ring configuration after erasing box labels: 0 is a vacancy."""

    n: int
    letters: tuple[int, ...]

    def gap_vector(self) -> tuple[int, ...]:
        """Vacancy counts between consecutive bullets, c_k after bullet k."""
        L = len(self.letters)
        pos = [0] * self.n
        for x, c in enumerate(self.letters):
            if c:
                pos[c - 1] = x
        gaps = []
        for k in range(self.n):
            nxt = pos[(k + 1) % self.n]
            gaps.append((nxt - pos[k] - 1) % L)
        return tuple(gaps)

    def to_text(self) -> str:
        return " ".join(f"B{c}" if c else "." for c in self.letters)


def lump(w: ColoredWord) -> OneDimConfig:
    """Erase box labels, keeping bullets."""
    return OneDimConfig(w.n, tuple(c if c > 0 else 0 for c in w.letters))


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
    over gaps of total_box_weight(k)^{c_k}.
    """
    from .dynamics import build_generator
    from .symbolic import rate_symbol_poly

    if gen is None:
        gen = build_generator(L, n)
    fibers: dict[OneDimConfig, list[int]] = {}
    for j, w in enumerate(gen.states):
        fibers.setdefault(lump(w), []).append(j)

    rate_failures = []
    for psi, members in fibers.items():
        reference: dict[OneDimConfig, Polynomial] | None = None
        for j in members:
            into: dict[OneDimConfig, Polynomial] = {}
            for t in gen.transitions[j]:
                target = lump(t.target)
                poly = rate_symbol_poly(n, t.rate_symbol)
                into[target] = into.get(target, Polynomial.zero(n)) + poly
            if reference is None:
                reference = into
            elif into != reference:
                rate_failures.append((psi, gen.states[j]))

    marginal_failures = []
    weights = [config_weight(w) for w in gen.states]
    for psi, members in fibers.items():
        total = Polynomial.zero(n)
        for j in members:
            total = total + weights[j].as_polynomial()
        if total != evans_product(psi.gap_vector(), n):
            marginal_failures.append(psi)

    return LumpingReport(
        L=L,
        n=n,
        num_fibers=len(fibers),
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
