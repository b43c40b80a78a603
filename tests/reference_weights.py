"""The stationary weights as the package computed them before it read one
exponent table: each box weight built as a `Monomial` from its two rate
ranges, a word weighed box by box along `box_gap_labels` after
`ensure_valid`, and the weight identities formed from `Monomial` products.
Kept as the reference that the differential tests check the package
against; nothing in the package imports it.
"""

from __future__ import annotations

from torus_asep.model import ColoredWord, box_gap_labels, ensure_valid
from torus_asep.stationary import WeightIdentityReport
from torus_asep.symbolic import Monomial, Polynomial, poly_det, rate_product


def box_weight(i: int, k: int, n: int) -> Monomial:
    """w(i, k) = p_1..p_{i-1} q_{i+1}..q_k p_{k+1}..p_n for i <= k, and
    q_1..q_k p_{k+1}..p_{i-1} q_{i+1}..q_n for k < i."""
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


def config_weight(w: ColoredWord) -> Monomial:
    """The product of the box weights of a valid word, one box at a time."""
    ensure_valid(w)
    n = w.n
    total = [0] * (2 * n)
    for _, i, g in box_gap_labels(w):
        for j, e in enumerate(box_weight(i, g, n).exponents):
            total[j] += e
    return Monomial(n, tuple(total))


def weight_identities(n: int, weight=box_weight) -> WeightIdentityReport:
    """The determinant and telescoping identities of the box weights
    `weight(i, k, n)`, as polynomials built from `Monomial` products."""
    if n < 1:
        raise ValueError("need n >= 1")
    d = rate_product(n, "p").as_polynomial() - rate_product(n, "q").as_polynomial()
    matrix = [[weight(i, k, n).as_polynomial() for k in range(1, n + 1)] for i in range(1, n + 1)]
    determinant_ok = poly_det(matrix) == d ** (n - 1)
    failures = []
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            k_prev = k - 1 if k > 1 else n
            lhs = (Monomial.p(n, k) * weight(i, k, n)).as_polynomial() - (
                Monomial.q(n, k) * weight(i, k_prev, n)
            ).as_polynomial()
            expected = d if i == k else Polynomial.zero(n)
            if lhs != expected:
                failures.append((i, k))
    return WeightIdentityReport(n, determinant_ok, not failures, failures)
