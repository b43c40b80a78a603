"""The transition rules as they stood before one function of the direction
d = +1/-1 replaced them: a forward rule (F1, F2) and its mirror image, the
backward rule (B1, B2), written out separately, together with the geometry
of the nonlocal move they share.  Kept as the reference that the
differential test in test_dynamics.py checks `outgoing_transitions`
against; nothing in the package imports it.

Also the two readings of a transition's displacement records that only the
tests use: the signed boundary crossings of one record, and the target
word rebuilt from the source and the records.
"""

from __future__ import annotations

from torus_asep.dynamics import B1, B2, F1, F2, Displacement, Transition
from torus_asep.model import ColoredWord


def block_move(pos, k: int, step: int, L: int) -> tuple[int, int, int, int]:
    n = len(pos)
    b = pos[k - 1]
    if step > 0:
        label = k - 1 if k > 1 else n
        if n == 1:
            return (b + 2) % L, L - 2, (b + 2) % L, label
        a = pos[label - 1]
        return (a + 1) % L, (b - a - 1) % L, (a + 1) % L, label
    label = k + 1 if k < n else 1
    if n == 1:
        return (b + 1) % L, L - 2, (b - 2) % L, label
    c = pos[label - 1]
    return (b + 1) % L, (c - b - 1) % L, (c - 1) % L, label


def forward_transition(w: ColoredWord, k: int, pos: tuple[int, ...]) -> Transition | None:
    n, L = w.n, w.length
    letters = w.letters
    b = pos[k - 1]
    right = letters[(b + 1) % L]
    if right > 0:
        return None
    i = -right
    new = list(letters)
    moves = [Displacement("bullet", k, k, b, (b + 1) % L, 1)]
    if i != k:
        new[(b + 1) % L] = k
        new[b] = right
        moves.append(Displacement("box", i, i, (b + 1) % L, b, -1))
        kind = F1
    else:
        c_start, c_len, landing, k_prev = block_move(pos, k, 1, L)
        new[(b + 1) % L] = k
        for t in range(c_len):
            x = (c_start + t) % L
            new[(x + 1) % L] = letters[x]
            moves.append(Displacement("box", -letters[x], -letters[x], x, (x + 1) % L, 1))
        new[landing] = -k_prev
        back = ((b + 1) - landing) % L
        moves.append(Displacement("box", k, k_prev, (b + 1) % L, landing, -back, jump=True))
        kind = F2
    return Transition(w, ColoredWord(n, tuple(new)), kind, k, ("p", k), tuple(moves))


def backward_transition(w: ColoredWord, k: int, pos: tuple[int, ...]) -> Transition | None:
    n, L = w.n, w.length
    letters = w.letters
    b = pos[k - 1]
    left = letters[(b - 1) % L]
    if left > 0:
        return None
    i = -left
    new = list(letters)
    moves = [Displacement("bullet", k, k, b, (b - 1) % L, -1)]
    if i != k:
        new[(b - 1) % L] = k
        new[b] = left
        moves.append(Displacement("box", i, i, (b - 1) % L, b, 1))
        kind = B1
    else:
        c_start, c_len, landing, k_next = block_move(pos, k, -1, L)
        new[(b - 1) % L] = k
        for t in range(c_len):
            x = (c_start + t) % L
            new[(x - 1) % L] = letters[x]
            moves.append(Displacement("box", -letters[x], -letters[x], x, (x - 1) % L, -1))
        new[landing] = -k_next
        fwd = (landing - (b - 1)) % L
        moves.append(Displacement("box", k, k_next, (b - 1) % L, landing, fwd, jump=True))
        kind = B2
    return Transition(w, ColoredWord(n, tuple(new)), kind, k, ("q", k), tuple(moves))


def reference_transitions(w: ColoredWord) -> list[Transition]:
    """All transitions leaving w: per bullet label, forward then backward."""
    pos = w.bullet_positions()
    out = []
    for k in range(1, w.n + 1):
        for rule in (forward_transition, backward_transition):
            t = rule(w, k, pos)
            if t is not None:
                out.append(t)
    return out


def displacement_crossings(d: Displacement, L: int) -> list[tuple[int, int]]:
    """Signed boundary crossings: boundary j sits between columns j and j+1 mod L."""
    out = []
    if d.step > 0:
        for t in range(d.step):
            out.append(((d.pos_from + t) % L, 1))
    else:
        for t in range(-d.step):
            out.append(((d.pos_from - 1 - t) % L, -1))
    return out


def replay_displacements(t: Transition) -> ColoredWord:
    """Rebuild the target from the source plus the displacement records."""
    L = t.source.length
    new: list[int | None] = list(t.source.letters)
    for d in t.displacements:
        assert (d.pos_from + d.step) % L == d.pos_to, "step does not reach the target position"
        new[d.pos_from] = None
    for d in t.displacements:
        sign = 1 if d.species == "bullet" else -1
        assert new[d.pos_to] is None, "two particles land on one cell"
        new[d.pos_to] = sign * d.label_to
    assert all(c is not None for c in new), "a vacated cell was never refilled"
    return ColoredWord(t.source.n, tuple(new))  # type: ignore[arg-type]
