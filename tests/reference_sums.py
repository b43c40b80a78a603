"""The numeric accumulator as it stood before numeric sums were kept in ints
at the integer-scaled rate point: every summand an exact value at the rate
point, every add a reduced `Fraction` add.  Kept as the slow reference that
the differential tests in test_integer_domain.py check the package's
`IntegerSums` against; nothing in the package imports it.
"""

from __future__ import annotations

from fractions import Fraction


class FractionSums:
    """k sums of exact values at one rate point, with the interface of
    `torus_asep.symbolic.MonomialSums`."""

    __slots__ = ("slots",)

    def __init__(self, k: int):
        self.slots: list[Fraction] | None = [Fraction(0)] * k

    def add(self, i: int, value: Fraction, sign: int = 1) -> None:
        self.slots[i] += value if sign > 0 else -value

    def freeze(self) -> list[Fraction]:
        slots, self.slots = self.slots, None
        return slots
