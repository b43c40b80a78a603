import math

import pytest

import reference_graph
from conftest import random_word
from reference_graph import letter_sort_key
from torus_asep.model import (
    CellState,
    ColoredWord,
    MarkedPartition,
    TorusConfig,
    ValidationError,
    box_gap_labels,
    enumerate_full,
    enumerate_restricted,
    ensure_valid,
    iter_restricted,
    partition_to_word,
    restricted_count,
    torus_to_word,
    validate,
    word_to_partition,
    word_to_torus,
)

TAU = ColoredWord.from_text("B1 b3 b3 b4 B2 b2 B3 b3 B4 b1")

PAPER_42 = [
    "B1 B2 b1 b1", "B1 B2 b1 b2", "B1 B2 b2 b1", "B1 B2 b2 b2",
    "B1 b1 B2 b1", "B1 b1 B2 b2", "B1 b2 B2 b1", "B1 b2 B2 b2",
    "B1 b1 b1 B2", "B1 b1 b2 B2", "B1 b2 b1 B2", "B1 b2 b2 B2",
]


def test_restricted_counts_match_formula():
    for L in range(1, 9):
        for n in range(1, L + 1):
            words = enumerate_restricted(L, n)
            assert len(words) == restricted_count(L, n) == math.comb(L - 1, n - 1) * n ** (L - n)
            assert len(set(words)) == len(words)
            for w in words:
                assert validate(w) == []
                assert w.is_restricted()


def test_twelve_restricted_states_of_4_2():
    assert {w.to_text() for w in enumerate_restricted(4, 2)} == set(PAPER_42)


def test_count_10_4():
    assert sum(1 for _ in iter_restricted(10, 4)) == 344064 == math.comb(9, 3) * 4**6


def test_enumeration_is_lexicographic():
    for L, n in [(4, 2), (5, 3), (6, 2)]:
        for words in (enumerate_restricted(L, n), enumerate_full(L, n)):
            keys = [tuple(letter_sort_key(c) for c in w.letters) for w in words]
            assert keys == sorted(keys)


@pytest.mark.parametrize("L,n", [(L, n) for L in range(1, 8) for n in range(1, L + 1)])
def test_full_enumeration_matches_rotate_and_sort(L, n):
    """The one recursion yields every rotation of every restricted word in
    sorted order, and the restricted words are its first block."""
    words = enumerate_full(L, n)
    assert words == reference_graph.enumerate_full(L, n)
    assert words[: restricted_count(L, n)] == enumerate_restricted(L, n)


def test_word_hashes_tell_box_rows_apart():
    words = enumerate_full(7, 3)
    assert len({hash(w) for w in words}) == len(words) == 8505


def test_degenerate_dimensions():
    assert len(enumerate_restricted(5, 1)) == 1
    assert enumerate_restricted(3, 3) == [ColoredWord(3, (1, 2, 3))]
    with pytest.raises(ValueError):
        enumerate_restricted(2, 3)


def test_worked_example_torus_iso():
    torus = word_to_torus(TAU)
    bullets = [
        (i + 1, j + 1)
        for i in range(4)
        for j in range(10)
        if torus.cells[i][j] == CellState.BULLET
    ]
    assert bullets == [(1, 1), (2, 5), (3, 7), (4, 9)]
    assert torus_to_word(torus) == TAU


def test_worked_example_partition_iso():
    part = word_to_partition(TAU)
    assert [sorted(b) for b in part.blocks] == [[1, 10], [5, 6], [2, 3, 7, 8], [4, 9]]
    assert part.marks == (1, 5, 7, 9)
    assert partition_to_word(part) == TAU


def test_single_row_isos():
    w = ColoredWord.from_text("B1 b1")
    torus = word_to_torus(w)
    assert torus.cells == ((CellState.BULLET, CellState.BOX),)
    part = word_to_partition(w)
    assert part.blocks == (frozenset({1, 2}),) and part.marks == (1,)


def test_round_trips_exhaustive_small():
    for L in range(1, 7):
        for n in range(1, L + 1):
            for w in iter_restricted(L, n):
                assert torus_to_word(word_to_torus(w)) == w
                assert partition_to_word(word_to_partition(w)) == w


def test_rotate_examples():
    w = ColoredWord.from_text("B1 B2 b2 b2")
    assert w.rotate(1).to_text() == "b2 B1 B2 b2"
    assert w.rotate(4) == w
    for s in range(4):
        assert validate(w.rotate(s)) == []


def test_vertical_shift_order_and_bijection():
    full = enumerate_full(4, 2)
    shifted = [w.vertical_shift() for w in full]
    assert all(validate(w) == [] for w in shifted)
    assert set(shifted) == set(full)
    w = TAU
    for _ in range(4):
        w = w.vertical_shift()
    assert w == TAU


def test_validate_duplicate_bullet():
    w = ColoredWord(2, (1, 1, -2, 2))
    msgs = validate(w)
    assert any("one particle of each type" in m for m in msgs)


def test_validate_cyclic_order():
    w = ColoredWord(3, (1, 3, 2))
    msgs = validate(w)
    assert any("cyclically increasing" in m for m in msgs)
    assert validate(ColoredWord(3, (2, 3, 1))) == []


def test_validate_torus_violations():
    good = word_to_torus(ColoredWord.from_text("B1 b1"))
    bad = TorusConfig(1, 2, ((CellState.BULLET, CellState.EMPTY),))
    assert any("column 2" in m for m in validate(bad))
    assert validate(good) == []


def test_validate_partition_violations():
    bad = MarkedPartition(3, (frozenset({1, 2}), frozenset({2, 3})), (1, 2))
    assert any("overlaps" in m for m in validate(bad))
    bad_mark = MarkedPartition(3, (frozenset({1, 2}), frozenset({3})), (3, 3))
    assert any("not inside" in m for m in validate(bad_mark))


def test_ensure_valid_raises_with_clause():
    with pytest.raises(ValidationError) as err:
        ensure_valid(ColoredWord(2, (1, -1, -2, 1)))
    assert "one particle of each type" in str(err.value)


def test_text_round_trip():
    assert ColoredWord.from_text(TAU.to_text()) == TAU
    assert TAU.to_text() == "B1 b3 b3 b4 B2 b2 B3 b3 B4 b1"


def test_box_gap_labels_worked_example():
    gaps = {(pos, label): gap for pos, label, gap in box_gap_labels(TAU)}
    assert gaps == {
        (1, 3): 1, (2, 3): 1, (3, 4): 1,  # boxes after bullet 1
        (5, 2): 2,
        (7, 3): 3,
        (9, 1): 4,  # wrap-around box belongs to the last gap
    }


@pytest.mark.parametrize("L", range(1, 8))
def test_box_gap_labels_match_the_walk_and_sort_reference(L):
    """On every word with L <= 7, the one pass in column order gives the
    cyclic walk from the first bullet, sorted by column."""
    for n in range(1, L + 1):
        for w in enumerate_full(L, n):
            assert box_gap_labels(w) == reference_graph.box_gap_labels_walk_and_sort(w), w.to_text()


def test_enumerate_full_counts():
    for L, n in [(4, 2), (5, 3), (3, 1)]:
        full = enumerate_full(L, n)
        assert len(full) == L * restricted_count(L, n)
        assert len(set(full)) == len(full)


def test_random_large_words_structural(rng):
    # beyond the exhaustively enumerated sizes
    for _ in range(50):
        L = rng.randint(8, 14)
        n = rng.randint(2, min(6, L))
        w = random_word(L, n, rng)
        assert validate(w) == []
        assert torus_to_word(word_to_torus(w)) == w
        assert partition_to_word(word_to_partition(w)) == w
        s = rng.randrange(L)
        assert validate(w.rotate(s)) == []
        assert w.rotate(s).rotate(L - s) == w
        assert validate(w.vertical_shift()) == []
