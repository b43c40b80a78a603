import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from torus_asep import ColoredWord, RatePoint, dynamics
from torus_asep.observables import closed_numerators
from torus_asep.symbolic import Domain


def random_rate_point(n: int, rng: random.Random, denominator: int = 10) -> RatePoint:
    """Random strictly positive rationals with a shared small denominator."""
    draw = lambda: Fraction(rng.randint(1, 9 * denominator), denominator)
    return RatePoint(tuple(draw() for _ in range(n)), tuple(draw() for _ in range(n)))


def closed_box_densities(L: int, n: int, rates: RatePoint) -> list[Fraction]:
    """The closed-form box density of each row at a rate point: its
    numerator over L * Z(L, n)."""
    table = closed_numerators(L, n, Domain(n, rates))
    return [num / (L * table["bullet_density"]) for num in table["box_density"]]


def random_word(L: int, n: int, rng: random.Random) -> ColoredWord:
    """A uniformly chosen valid state: bullet positions, a cyclic label
    rotation, and independent box labels."""
    positions = sorted(rng.sample(range(L), n))
    shift = rng.randrange(n)
    letters = [0] * L
    for idx, pos in enumerate(positions):
        letters[pos] = (idx + shift) % n + 1
    for pos in range(L):
        if letters[pos] == 0:
            letters[pos] = -rng.randint(1, n)
    return ColoredWord(n, tuple(letters))


@pytest.fixture
def rng():
    return random.Random(20260809)


@pytest.fixture
def fresh_graphs():
    """Empty `build_generator`'s per-process memo before and after the test,
    so that a test counting work inside a build sees a build, and a graph
    built under the test's patches is not handed to later tests."""
    dynamics._graph.cache_clear()
    yield
    dynamics._graph.cache_clear()


def state_index(gen) -> dict:
    """The number of each full state of `gen`, its position in `states`;
    build it once per test, not once per lookup."""
    return {w: j for j, w in enumerate(gen.states)}


def arc_targets(gen) -> list[list[tuple[int, int]]]:
    """Per representative, the (target representative, shift) of each of
    its arcs, in arc order."""
    source, target, _, shift = gen.arcs
    pairs = list(zip(target.tolist(), shift.tolist()))
    cuts = np.searchsorted(source, np.arange(len(gen.representatives) + 1)).tolist()
    return [pairs[a:b] for a, b in zip(cuts, cuts[1:])]


def with_swapped_targets(gen, j: int):
    """`gen` with the targets, and their shifts, of the first two arcs of
    representative j swapped."""
    a = int(np.searchsorted(gen.arcs.source, j))
    target, shift = gen.arcs.target.copy(), gen.arcs.shift.copy()
    target[[a, a + 1]] = target[[a + 1, a]]
    shift[[a, a + 1]] = shift[[a + 1, a]]
    return dataclasses.replace(gen, arcs=gen.arcs._replace(target=target, shift=shift))
