"""State representations for the two-species exclusion process on an L x n torus.

Three isomorphic encodings are supported:

* ``ColoredWord``, the canonical one: a length-L word over 2n symbols, one
  bullet per label 1..n (in cyclic label order) and boxes carrying arbitrary
  labels.  Letters are stored as ints, +k for bullet k and -k for box k.
* ``TorusConfig``: an n-row, L-column grid with one bullet per row and one
  particle per column.
* ``MarkedPartition``: an ordered set partition of the columns 1..L with one
  marked element per block, the marks cyclically increasing.

One recursion enumerates the words in lexicographic letter order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import Iterator, Sequence


class ValidationError(ValueError):
    """Raised when a state fails its structural invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class CellState:
    EMPTY = "."
    BULLET = "*"
    BOX = "#"


def letter_text(letter: int) -> str:
    return f"B{letter}" if letter > 0 else f"b{-letter}"


def parse_letter(token: str) -> int:
    kind, label = token[0], token[1:]
    if kind not in "Bb" or not label.isdigit() or int(label) < 1:
        raise ValueError(f"cannot parse letter token {token!r}")
    return int(label) if kind == "B" else -int(label)


def cyclically_increasing(seq: tuple[int, ...]) -> bool:
    """True if some cyclic rotation of seq is strictly increasing."""
    m = len(seq)
    if m <= 1:
        return True
    if len(set(seq)) != m:
        return False
    descents = sum(1 for i in range(m) if seq[i] > seq[(i + 1) % m])
    return descents == 1


@dataclass(frozen=True)
class ColoredWord:
    """Length-L word with one bullet per label in cyclic order; boxes free."""

    n: int
    letters: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.letters)

    def bullet_positions(self) -> tuple[int, ...]:
        """Position (0-based) of bullet k at index k-1. Assumes validity."""
        pos = [-1] * self.n
        for x, letter in enumerate(self.letters):
            if letter > 0:
                pos[letter - 1] = x
        return tuple(pos)

    def rotate(self, s: int) -> "ColoredWord":
        """Cyclic shift of positions by s (letter at x moves to x+s)."""
        L = self.length
        s %= L
        if s == 0:
            return self
        return ColoredWord(self.n, self.letters[-s:] + self.letters[:-s])

    def vertical_shift(self) -> "ColoredWord":
        """Relabel every row k -> k-1 (cyclically, so 1 -> n)."""

        def down(k: int) -> int:
            return k - 1 if k > 1 else self.n

        return ColoredWord(
            self.n,
            tuple(down(c) if c > 0 else -down(-c) for c in self.letters),
        )

    def is_restricted(self) -> bool:
        return bool(self.letters) and self.letters[0] == 1

    def to_text(self) -> str:
        return " ".join(letter_text(c) for c in self.letters)

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "ColoredWord":
        letters = tuple(parse_letter(tok) for tok in text.split())
        if n is None:
            n = max((abs(c) for c in letters), default=0)
        return cls(n, letters)

    def __str__(self) -> str:
        return self.to_text()

    def __hash__(self) -> int:
        # Doubled letters, since hash(-1) == hash(-2) would confuse box rows 1 and 2.
        return hash(tuple([c + c for c in self.letters]))


@dataclass(frozen=True)
class TorusConfig:
    """Grid view: rows 1..n (one bullet each), columns 1..L (one particle each)."""

    n_rows: int
    n_cols: int
    cells: tuple[tuple[str, ...], ...]

    def cell(self, row: int, col: int) -> str:
        """1-based accessor."""
        return self.cells[row - 1][col - 1]


@dataclass(frozen=True)
class MarkedPartition:
    """Ordered set partition of columns 1..L with one mark per block."""

    n_cols: int
    blocks: tuple[frozenset[int], ...]
    marks: tuple[int, ...]


# -- validation -------------------------------------------------------------


def validate_word(w: ColoredWord) -> list[str]:
    violations: list[str] = []
    n, letters = w.n, w.letters
    if n < 1:
        return ["row count n must be at least 1"]
    if len(letters) < n:
        violations.append(f"word length {len(letters)} is below the bullet count {n}")
    counts = [0] * n
    for c in letters:
        if c == 0 or abs(c) > n:
            violations.append(f"letter {c} has no label in 1..{n}")
            return violations
        if c > 0:
            counts[c - 1] += 1
    for k, cnt in enumerate(counts, start=1):
        if cnt != 1:
            violations.append(f"expected one particle of each type: bullet {k} occurs {cnt} times")
    if not violations:
        labels = tuple(c for c in letters if c > 0)
        if not cyclically_increasing(labels):
            violations.append("bullet labels are not cyclically increasing")
    return violations


def validate_torus(t: TorusConfig) -> list[str]:
    violations: list[str] = []
    n, L = t.n_rows, t.n_cols
    if n < 1 or L < 1:
        return ["grid dimensions must be positive"]
    if len(t.cells) != n or any(len(row) != L for row in t.cells):
        return [f"cell grid is not {n} x {L}"]
    valid = {CellState.EMPTY, CellState.BULLET, CellState.BOX}
    for i, row in enumerate(t.cells, start=1):
        for j, cell in enumerate(row, start=1):
            if cell not in valid:
                violations.append(f"cell ({i},{j}) holds unknown state {cell!r}")
    if violations:
        return violations
    bullet_cols = []
    for i, row in enumerate(t.cells, start=1):
        bullets = [j for j, cell in enumerate(row, start=1) if cell == CellState.BULLET]
        if len(bullets) != 1:
            violations.append(f"row {i} must contain exactly one bullet, found {len(bullets)}")
        else:
            bullet_cols.append(bullets[0])
    for j in range(1, L + 1):
        occupied = [i for i in range(1, n + 1) if t.cells[i - 1][j - 1] != CellState.EMPTY]
        if len(occupied) != 1:
            violations.append(f"column {j} must contain exactly one particle, found {len(occupied)}")
    if not violations and not cyclically_increasing(tuple(bullet_cols)):
        violations.append("bullet columns are not cyclically increasing")
    return violations


def validate_partition(p: MarkedPartition) -> list[str]:
    violations: list[str] = []
    L = p.n_cols
    if len(p.blocks) != len(p.marks):
        return ["mark count differs from block count"]
    seen: set[int] = set()
    for i, block in enumerate(p.blocks, start=1):
        if not block:
            violations.append(f"block {i} is empty")
            continue
        if not all(isinstance(x, int) and 1 <= x <= L for x in block):
            violations.append(f"block {i} has elements outside 1..{L}")
        if block & seen:
            violations.append(f"block {i} overlaps an earlier block")
        seen |= block
    if seen != set(range(1, L + 1)) and not violations:
        violations.append(f"blocks do not cover 1..{L}")
    for i, (block, mark) in enumerate(zip(p.blocks, p.marks), start=1):
        if mark not in block:
            violations.append(f"mark {mark} of block {i} is not inside the block")
    if not violations and not cyclically_increasing(tuple(p.marks)):
        violations.append("marks are not cyclically increasing")
    return violations


def validate(x) -> list[str]:
    """Total validator for any of the three representations."""
    if isinstance(x, ColoredWord):
        return validate_word(x)
    if isinstance(x, TorusConfig):
        return validate_torus(x)
    if isinstance(x, MarkedPartition):
        return validate_partition(x)
    return [f"unsupported representation {type(x).__name__}"]


def ensure_valid(x) -> None:
    violations = validate(x)
    if violations:
        raise ValidationError(violations)


# -- bijections ---------------------------------------------------------------


def word_to_torus(w: ColoredWord) -> TorusConfig:
    ensure_valid(w)
    n, L = w.n, w.length
    grid = [[CellState.EMPTY] * L for _ in range(n)]
    for x, letter in enumerate(w.letters):
        row = abs(letter) - 1
        grid[row][x] = CellState.BULLET if letter > 0 else CellState.BOX
    return TorusConfig(n, L, tuple(tuple(row) for row in grid))


def torus_to_word(t: TorusConfig) -> ColoredWord:
    ensure_valid(t)
    letters = []
    for j in range(t.n_cols):
        for i in range(t.n_rows):
            cell = t.cells[i][j]
            if cell != CellState.EMPTY:
                letters.append(i + 1 if cell == CellState.BULLET else -(i + 1))
                break
    return ColoredWord(t.n_rows, tuple(letters))


def word_to_partition(w: ColoredWord) -> MarkedPartition:
    ensure_valid(w)
    blocks: list[set[int]] = [set() for _ in range(w.n)]
    marks = [0] * w.n
    for x, letter in enumerate(w.letters, start=1):
        blocks[abs(letter) - 1].add(x)
        if letter > 0:
            marks[letter - 1] = x
    return MarkedPartition(w.length, tuple(frozenset(b) for b in blocks), tuple(marks))


def partition_to_word(p: MarkedPartition) -> ColoredWord:
    ensure_valid(p)
    letters = [0] * p.n_cols
    for label, (block, mark) in enumerate(zip(p.blocks, p.marks), start=1):
        for x in block:
            letters[x - 1] = -label
        letters[mark - 1] = label
    return ColoredWord(len(p.blocks), tuple(letters))


# -- enumeration ---------------------------------------------------------------


def restricted_count(L: int, n: int) -> int:
    """Number of restricted states: binom(L-1, n-1) * n^(L-n)."""
    _check_dims(L, n)
    return math.comb(L - 1, n - 1) * n ** (L - n)


def _check_dims(L: int, n: int) -> None:
    if n < 1 or L < n:
        raise ValueError(f"need 1 <= n <= L, got n={n}, L={L}")


def _lex_words(L: int, n: int) -> Iterator[ColoredWord]:
    """Every state of (L, n) in lexicographic letter order, B1 < ... < Bn < b1
    < ... < bn.  The first bullet's label fixes the others' cyclically; a box
    fits while room remains for the bullets still to place."""
    _check_dims(L, n)
    word = [0] * L

    def rec(pos: int, placed: int, label: int) -> Iterator[ColoredWord]:
        if pos == L:
            yield ColoredWord(n, tuple(word))
            return
        if placed < n:
            for k in range(1, n + 1) if placed == 0 else (label,):
                word[pos] = k
                yield from rec(pos + 1, placed + 1, k % n + 1)
        if L - pos > n - placed:
            for i in range(1, n + 1):
                word[pos] = -i
                yield from rec(pos + 1, placed, label)

    yield from rec(0, 0, 0)


def iter_restricted(L: int, n: int) -> Iterator[ColoredWord]:
    """Restricted states, those opening with B1: the first block of `_lex_words`."""
    return takewhile(ColoredWord.is_restricted, _lex_words(L, n))


def enumerate_restricted(L: int, n: int) -> list[ColoredWord]:
    return list(iter_restricted(L, n))


def enumerate_full(L: int, n: int) -> list[ColoredWord]:
    """All states, every rotation of every restricted state, in letter order."""
    return list(_lex_words(L, n))


def gap_lengths(pos: Sequence[int], L: int) -> list[int]:
    """Boxes between bullet k and bullet k + 1 (cyclically), by 0-based k,
    given the 0-based bullet columns by label."""
    n = len(pos)
    return [(pos[(k + 1) % n] - pos[k] - 1) % L for k in range(n)]


def box_gap_labels(w: ColoredWord) -> tuple[tuple[int, int, int], ...]:
    """For every box: (position 0-based, box label, gap label).

    The gap label of a box is the label of the nearest bullet to its left,
    cyclically; a box immediately right of bullet k belongs to gap k even
    across the wrap-around seam.  One walk in column order gives them, the
    boxes before the first bullet taking the last bullet's label.
    """
    letters = w.letters
    current = next(c for c in reversed(letters) if c > 0)
    out = []
    for x, c in enumerate(letters):
        if c > 0:
            current = c
        else:
            out.append((x, -c, current))
    return tuple(out)
