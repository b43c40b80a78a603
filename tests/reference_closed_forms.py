"""The closed-form currents and box density at a rate point as they stood
before every closed form was read from one table (`closed_forms`): each
formula written out here a second time.  Kept as the reference that the
differential test in test_observables.py checks `closed_currents` and
`closed_box_density` against; nothing in the package imports it.
"""

from __future__ import annotations

from fractions import Fraction

from torus_asep.observables import box_density_numerator, partition_function
from torus_asep.symbolic import RatePoint, rate_product


def closed_currents(L: int, n: int, rates: RatePoint) -> dict[str, Fraction | list[Fraction]]:
    if L == n:
        zero = Fraction(0)
        return {
            "bullet_edge_current": zero,
            "bullet_row_current": zero,
            "box_column_current": zero,
            "box_vertical_up": zero,
            "box_vertical_down": zero,
            "box_vertical_net": zero,
            "box_row_current": [zero] * n,
        }
    z = partition_function(L, n).evaluate(rates)
    z_prev = partition_function(L - 1, n).evaluate(rates)
    p_all = rate_product(n, "p").evaluate(rates)
    q_all = rate_product(n, "q").evaluate(rates)
    d = p_all - q_all
    edge = d * z_prev / (L * z)
    row_currents = [
        d * box_density_numerator(L - 1, n, i).evaluate(rates) / (L * z)
        for i in range(1, n + 1)
    ]
    return {
        "bullet_edge_current": edge,
        "bullet_row_current": L * edge,
        "box_column_current": -n * edge,
        "box_vertical_up": p_all * z_prev / z,
        "box_vertical_down": q_all * z_prev / z,
        "box_vertical_net": d * z_prev / z,
        "box_row_current": row_currents,
    }


def closed_box_density(L: int, n: int, i: int, rates: RatePoint) -> Fraction:
    z = partition_function(L, n).evaluate(rates)
    return box_density_numerator(L, n, i).evaluate(rates) / (L * z)
