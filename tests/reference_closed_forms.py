"""The closed forms as polynomials, built the slow way: the partition
function's recurrence on polynomials, and the box density by its Horner
sum for row 1 and the cyclic rate relabelling (`shift_rows`) for the
deeper rows.  Values at a rate point are these polynomials evaluated.
Also the partition function by brute force, the sum of the weights of the
restricted states (`brute_force_partition_function`).  Kept as the
reference that test_observables.py checks `closed_numerators` against in
both domains, and that the tests check the package's `partition_function`
against; nothing in the package imports it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from torus_asep.model import iter_restricted
from torus_asep.stationary import box_weight, config_weight, drift, total_box_weight
from torus_asep.symbolic import Polynomial, RatePoint, rate_product

# The closed forms of whole-row totals sit over Z(L, n), every other one over L * Z(L, n).
WHOLE_ROW = frozenset({"bullet_row_current", "box_vertical_up", "box_vertical_down", "box_vertical_net"})


def brute_force_partition_function(L: int, n: int) -> Polynomial:
    """Independent oracle: sum of config weights over the restricted states."""
    return Polynomial(n, Counter(config_weight(w).exponents for w in iter_restricted(L, n)))


@lru_cache(maxsize=None)
def partition_function(L: int, n: int) -> Polynomial:
    m = L - n
    h = [Polynomial.one(n)] + [Polynomial.zero(n)] * m
    for k in range(1, n + 1):
        w = total_box_weight(k, n)
        for c in range(1, m + 1):
            h[c] = h[c] + w * h[c - 1]
    return h[m]


@lru_cache(maxsize=None)
def box_density_numerator(L: int, n: int, i: int) -> Polynomial:
    if i > 1:
        return box_density_numerator(L, n, 1).shift_rows(i - 1)
    total = Polynomial.zero(n)
    for a in range(1, n + 1):
        # sum over j = 1..L-n of W_a^{j-1} Z(L-j, n), by Horner's rule
        wa = total_box_weight(a, n)
        inner = Polynomial.zero(n)
        for j in range(L - n, 0, -1):
            inner = partition_function(L - j, n) + wa * inner
        total = total + inner * box_weight(1, a, n)
    return total


@lru_cache(maxsize=None)
def closed_forms(L: int, n: int) -> dict:
    if L > n:
        z_prev = partition_function(L - 1, n)
        row = [box_density_numerator(L - 1, n, i) for i in range(1, n + 1)]
    else:
        z_prev, row = Polynomial.zero(n), [Polynomial.zero(n)] * n
    p_all, q_all = (rate_product(n, family).as_polynomial() for family in "pq")
    d = drift(n)
    return {
        "bullet_density": partition_function(L, n),
        "box_density": tuple(box_density_numerator(L, n, i) for i in range(1, n + 1)),
        "bullet_edge_current": d * z_prev,
        "bullet_row_current": d * z_prev,
        "box_column_current": -n * d * z_prev,
        "box_vertical_up": p_all * z_prev,
        "box_vertical_down": q_all * z_prev,
        "box_vertical_net": d * z_prev,
        "box_row_current": tuple(d * r for r in row),
    }


def closed_numerators(L: int, n: int, rates: RatePoint) -> dict:
    """`closed_forms` evaluated at a rate point, family by family."""
    return {
        name: tuple(x.evaluate(rates) for x in num) if isinstance(num, tuple) else num.evaluate(rates)
        for name, num in closed_forms(L, n).items()
    }


def closed_values(L: int, n: int, rates: RatePoint) -> dict[str, Fraction | list[Fraction]]:
    """Every closed form divided out at a rate point."""
    table = closed_numerators(L, n, rates)
    z = table["bullet_density"]

    def value(name, num):
        return num / (z if name in WHOLE_ROW else L * z)

    return {
        name: [value(name, x) for x in num] if isinstance(num, tuple) else value(name, num)
        for name, num in table.items()
    }
