import random
from fractions import Fraction

import pytest

from torus_asep import ColoredWord, RatePoint, dynamics


def random_rate_point(n: int, rng: random.Random, denominator: int = 10) -> RatePoint:
    """Random strictly positive rationals with a shared small denominator."""
    draw = lambda: Fraction(rng.randint(1, 9 * denominator), denominator)
    return RatePoint(tuple(draw() for _ in range(n)), tuple(draw() for _ in range(n)))


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
