import dataclasses
import re
from fractions import Fraction

import pytest

from rate_symbols import p_var, q_var, rate_symbols, rate_value
from torus_asep import currents_exact, densities, dynamics, lumping_report, scott_russell_check, verify_balance
from torus_asep.cli import main
from torus_asep.dynamics import (
    ResourceCapError,
    build_generator,
    excess,
    outgoing_transitions,
    reachability_tau0,
    restrict_ta,
    tau_zero,
)
from torus_asep.model import ColoredWord, ValidationError, enumerate_full, iter_restricted, restricted_count, validate
from torus_asep.symbolic import Polynomial, RatePoint

import reference_generator
from conftest import state_index
from reference_transitions import displacement_crossings, replay_displacements

TAU = ColoredWord.from_text("B1 b3 b3 b4 B2 b2 B3 b3 B4 b1")

TAU_TRANSITIONS = {
    ("p", 1): ("F1", "b3 B1 b3 b4 B2 b2 B3 b3 B4 b1"),
    ("p", 2): ("F2", "B1 b1 b3 b3 b4 B2 B3 b3 B4 b1"),
    ("p", 3): ("F2", "B1 b3 b3 b4 B2 b2 b2 B3 B4 b1"),
    ("p", 4): ("F1", "B1 b3 b3 b4 B2 b2 B3 b3 b1 B4"),
    ("q", 1): ("B2", "b3 b3 b4 b2 B2 b2 B3 b3 B4 B1"),
    ("q", 2): ("B1", "B1 b3 b3 B2 b4 b2 B3 b3 B4 b1"),
    ("q", 3): ("B1", "B1 b3 b3 b4 B2 B3 b2 b3 B4 b1"),
    ("q", 4): ("B1", "B1 b3 b3 b4 B2 b2 B3 B4 b3 b1"),
}


def test_worked_example_transitions():
    trans = outgoing_transitions(TAU)
    assert len(trans) == 8
    got = {t.rate_symbol: (t.kind, t.target.to_text()) for t in trans}
    assert got == TAU_TRANSITIONS
    for t in trans:
        assert validate(t.target) == []
        assert t.row == t.rate_symbol[1]


@pytest.mark.parametrize("L", range(1, 8))
def test_move_rule_matches_the_separate_forward_and_backward_rules(L):
    from reference_transitions import reference_transitions

    for n in range(1, L + 1):
        for w in enumerate_full(L, n):
            assert outgoing_transitions(w) == reference_transitions(w), w.to_text()


def test_the_shifted_box_count_is_one_rule_on_ints_and_arrays():
    """The graph reads `boxes_shifted` on ints and the simulator's pass on
    arrays: both give the same count on every input, n = 1 included."""
    import numpy as np

    for L in range(2, 8):
        for n in range(1, L):
            grid = np.meshgrid(np.arange(L), np.arange(L), [1, -1], [False, True], indexing="ij")
            b, other, d, jump = (a.ravel() for a in grid)
            expected = [dynamics.boxes_shifted(*args, n, L) for args in zip(b.tolist(), other.tolist(), d.tolist(), jump.tolist())]
            assert dynamics.boxes_shifted(b, other, d, jump, n, L).tolist() == expected
            assert not any(np.array(expected)[~jump])
            if n == 1:  # every other box, bullet k - d being bullet k
                assert {m for m, same, j in zip(expected, b == other, jump) if same and j} == {L - 2}


def test_the_graph_is_built_without_per_arc_objects(fresh_graphs, monkeypatch):
    """The arcs and crossing rows come straight from the move rule: a build
    makes no `Transition`, `Displacement` or rotated word."""
    expected = sum(len(outgoing_transitions(w)) for w in iter_restricted(6, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("the build made a per-arc object")

    for name in ("Transition", "Displacement", "ColoredWord"):
        monkeypatch.setattr(dynamics, name, refuse)
    monkeypatch.setattr(ColoredWord, "rotate", refuse)
    gen = build_generator(6, 3)
    assert len(gen.arcs.source) == expected and gen.crossings.size == 10


def test_words_from_outside_the_package_are_still_validated():
    bad = ColoredWord(2, (1, -1, -2, 1))  # bullet 1 twice, no bullet 2
    with pytest.raises(ValidationError):
        outgoing_transitions(bad)


def test_build_generator_does_not_revalidate_enumerated_states(monkeypatch, fresh_graphs):
    calls = []
    monkeypatch.setattr(dynamics, "ensure_valid", calls.append)
    build_generator(4, 2)
    assert calls == []


def test_no_transitions_when_full_of_bullets():
    assert outgoing_transitions(tau_zero(3, 3)) == []


def test_two_site_single_row():
    trans = outgoing_transitions(tau_zero(2, 1))
    assert {t.rate_symbol for t in trans} == {("p", 1), ("q", 1)}
    assert all(t.target.to_text() == "b1 B1" for t in trans)
    assert {t.kind for t in trans} == {"F2", "B2"}


def test_hand_checked_4_2_state():
    w = ColoredWord.from_text("B1 B2 b2 b2")
    got = {(t.rate_symbol, t.kind): t.target.to_text() for t in outgoing_transitions(w)}
    assert got == {
        (("q", 1), "B1"): "b2 B2 b2 B1",
        (("p", 2), "F2"): "B1 b1 B2 b2",
    }


def test_displacements_replay_exhaustively():
    for L, n in [(5, 2), (4, 3), (5, 1), (6, 3)]:
        for w in iter_restricted(L, n):
            for t in outgoing_transitions(w):
                assert replay_displacements(t) == t.target


def test_displacement_crossings_wrap():
    t = next(t for t in outgoing_transitions(TAU) if t.rate_symbol == ("q", 1))
    jumper = next(d for d in t.displacements if d.jump)
    # box at position 10 rides around the seam to position 4
    assert jumper.pos_from == 9 and jumper.pos_to == 3 and jumper.step == 4
    assert displacement_crossings(jumper, 10) == [(9, 1), (0, 1), (1, 1), (2, 1)]


def test_excess_worked_example():
    assert excess(TAU) == 8
    assert excess(tau_zero(10, 4)) == 0


def test_excess_zero_iff_basic():
    from torus_asep.model import box_gap_labels

    for w in iter_restricted(5, 2):
        # basic: between bullet k and bullet k+1 only boxes labelled k
        basic = all(label == gap for _, label, gap in box_gap_labels(w))
        assert (excess(w) == 0) == basic


def test_move_effects_on_excess():
    for w in iter_restricted(5, 2):
        e = excess(w)
        for t in outgoing_transitions(w):
            delta = excess(t.target) - e
            if t.kind == "F1":
                assert delta == -1
            elif t.kind == "B1":
                assert delta == 1
            else:
                assert delta == 0


def _witness(w):
    """A bullet k followed by t >= 0 boxes labelled k and then a box with a
    different label; exists whenever the excess is positive."""
    pos = w.bullet_positions()
    L = w.length
    for k in range(1, w.n + 1):
        x = pos[k - 1]
        t = 0
        while w.letters[(x + 1 + t) % L] == -k:
            t += 1
        nxt = w.letters[(x + 1 + t) % L]
        if nxt < 0 and nxt != -k:
            return k, t
    return None


def test_monotone_strategy_reaches_basic():
    for start in iter_restricted(5, 2):
        w = start
        for _ in range(200):
            e = excess(w)
            if e == 0:
                break
            witness = _witness(w)
            assert witness is not None, w.to_text()
            k, t = witness
            for _ in range(t):
                step = next(
                    tr for tr in outgoing_transitions(w) if tr.rate_symbol == ("p", k)
                )
                assert step.kind == "F2"
                w = step.target
            step = next(tr for tr in outgoing_transitions(w) if tr.rate_symbol == ("p", k))
            assert step.kind == "F1"
            w = step.target
            assert excess(w) == e - 1
        assert excess(w) == 0


def _reference_triplets(L, n, rates=None, states=None):
    """Reference assembly of the generator dump, one rate value per arc:
    Polynomials (symbolic) or Fractions summed into the (source, target)
    entries, and each diagonal entry built by subtracting every outflow
    from zero."""
    subset_mode = states is not None
    if states is None:
        states = enumerate_full(L, n)
    index = {w: j for j, w in enumerate(states)}
    zero = Polynomial.zero(n) if rates is None else Fraction(0)
    entries = {}
    diagonal = [zero] * len(states)
    for j, w in enumerate(states):
        for t in outgoing_transitions(w):
            family, k = t.rate_symbol
            value = (p_var if family == "p" else q_var)(n, k) if rates is None else rate_value(rates, t.rate_symbol)
            if t.target not in index:
                assert subset_mode and value == zero
                continue
            if value == zero:
                continue
            key = (j, index[t.target])
            entries[key] = entries.get(key, zero) + value
            diagonal[j] = diagonal[j] - value
    rows = [(src, tgt, str(value)) for (src, tgt), value in sorted(entries.items())]
    rows.extend((j, j, str(diagonal[j])) for j in range(len(states)))
    return rows


_LINEAR_TERM = re.compile(r"(-|\+ |- )?(?:(\d+)\*)?([pq])(\d+)")


def _read_rate(text, n):
    """A dumped rate read back as a Polynomial of degree at most one,
    checked to render back to the same text."""
    value = Polynomial.zero(n)
    for sign, coef, family, k in _LINEAR_TERM.findall(text):
        term = int(coef or 1) * (p_var if family == "p" else q_var)(n, int(k))
        value = value - term if sign.strip() == "-" else value + term
    assert str(value) == text
    return value


def _exported_matrix(gen):
    """The exported triplets as {(source, target): Polynomial}."""
    matrix = {}
    for src, tgt, text in gen.triplet_rows():
        assert (src, tgt) not in matrix
        matrix[src, tgt] = _read_rate(text, gen.n)
    return matrix


def _columns_sum_to_zero(gen, rates=None):
    """Whether the exported columns sum to zero, symbolically or read at `rates`."""
    sums = [Polynomial.zero(gen.n) if rates is None else Fraction(0)] * gen.num_states
    for (src, _), value in _exported_matrix(gen).items():
        sums[src] = sums[src] + (value if rates is None else value.evaluate(rates))
    return not any(sums)


def test_generator_column_sums_symbolic():
    gen = build_generator(4, 2)
    assert gen.num_states == 48
    assert _columns_sum_to_zero(gen)


def test_generator_column_sums_numeric():
    gen = build_generator(4, 2)
    assert gen.num_states == 48
    for point in ("1,2;3,5", "1,2;0,5"):
        assert _columns_sum_to_zero(gen, RatePoint.parse(point))
    gen21 = build_generator(2, 1)
    assert gen21.num_states == 2
    assert _columns_sum_to_zero(gen21, RatePoint((Fraction(2),), (Fraction(7),)))


def test_total_outgoing_rate_both_gaps_occupied():
    gen = build_generator(4, 2)
    matrix = _exported_matrix(gen)
    expected = (p_var(2, 1) + q_var(2, 2)) + (p_var(2, 2) + q_var(2, 1))
    for j, w in enumerate(gen.states):
        pos = w.bullet_positions()
        gap_sizes = [(pos[1] - pos[0] - 1) % 4, (pos[0] - pos[1] - 1) % 4]
        if all(g > 0 for g in gap_sizes):
            assert -matrix[j, j] == expected


@pytest.mark.parametrize("L,n", [(L, n) for L in range(1, 6) for n in range(1, L + 1)])
def test_triplet_rows_match_per_arc_assembly(L, n):
    gen = build_generator(L, n)
    assert gen.triplet_rows() == _reference_triplets(L, n)


@pytest.mark.parametrize("L,n", [(L, n) for L in range(1, 8) for n in range(1, L + 1)] + [(8, 4)])
def test_triplet_rows_rendered_once_per_orbit_match_the_full_column_rendering(L, n):
    gen = build_generator(L, n)
    assert gen.triplet_rows() == reference_generator.triplet_rows(gen)


@pytest.mark.parametrize("zero_q", [{1}, {1, 2}])
def test_triplet_rows_match_per_arc_assembly_on_ta_subset(zero_q):
    """The full-space export, read at a rate point with the q_m of
    `zero_q` at zero and restricted to the rows of the closed restrict_ta
    set, renumbered, is that set's own assembly at the point: every
    off-diagonal entry that stays nonzero there stays inside the set."""
    states, cert = restrict_ta(5, 3, zero_q)
    assert cert.ok and len(states) < 270
    q = tuple(Fraction(0) if k in zero_q else Fraction(k + 4, 3) for k in (1, 2, 3))
    rates = RatePoint((Fraction(1), Fraction(7, 2), Fraction(2)), q)
    gen = build_generator(5, 3)
    index = state_index(gen)
    renumber = {index[w]: i for i, w in enumerate(states)}
    rows = []
    for a, b, text in gen.triplet_rows():
        value = _read_rate(text, 3).evaluate(rates)
        if a in renumber and (value or a == b):
            rows.append((renumber[a], renumber[b], str(value)))
    assert rows == _reference_triplets(5, 3, rates, states)


def test_generator_cap(monkeypatch):
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "100")
    with pytest.raises(ResourceCapError) as err:
        build_generator(6, 3)
    assert err.value.count == 1620


# -- the per-process graph memo --------------------------------------------------


def test_a_repeat_build_returns_the_same_graph(fresh_graphs, monkeypatch):
    gen = build_generator(4, 2)
    assert build_generator(4, 2) is gen
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", str(gen.num_states))
    assert build_generator(4, 2) is gen
    assert gen.weights is build_generator(4, 2).weights


def test_the_cap_is_checked_on_a_cached_lattice(fresh_graphs, monkeypatch):
    gen = build_generator(5, 3)
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", str(gen.num_states - 1))
    with pytest.raises(ResourceCapError) as err:
        build_generator(5, 3)
    assert err.value.count == 270


def test_the_cap_counts_full_states_not_representatives(fresh_graphs, monkeypatch):
    """The cap counts the full state space, L times the representatives
    that are built, since the outputs that list full states expand them: a
    cap at the representatives' count refuses the lattice, one at the full
    count admits it."""
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", str(restricted_count(5, 3)))
    with pytest.raises(ResourceCapError, match="state space has 270 states, above the cap 54") as err:
        build_generator(5, 3)
    assert err.value.count == 270
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "270")
    gen = build_generator(5, 3)
    assert len(gen.representatives) == 54 and gen.num_states == 270


LIBRARY_CHECKS = {
    "build_generator": build_generator,
    "densities": densities,
    "currents_exact": currents_exact,
    "scott_russell_check": scott_russell_check,
    "verify_balance": verify_balance,
    "lumping_report": lumping_report,
    "reachability_tau0": reachability_tau0,
    "restrict_ta": lambda L, n: restrict_ta(L, n, {1}),
}


@pytest.mark.parametrize("name", LIBRARY_CHECKS)
def test_every_library_check_obeys_the_cap(name, monkeypatch):
    """The cap set in the environment holds for the library as well as the
    command line, on a cached lattice too."""
    build_generator(5, 3)
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "100")
    with pytest.raises(ResourceCapError) as err:
        LIBRARY_CHECKS[name](5, 3)
    assert err.value.count == 270


@pytest.mark.parametrize("command", ["observables", "stationary", "verify", "ta"])
def test_the_cli_cap_holds_after_an_in_process_build(command, fresh_graphs, monkeypatch, capsys):
    build_generator(5, 3)
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "10")
    args = [command, "--L", "5", "--n", "3"] + (["--rates", "1,2,3;4,5,6"] if command == "stationary" else [])
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 3 and "270 states" in err and out == ""


def test_a_third_lattice_evicts_the_oldest(fresh_graphs):
    first, second, third = build_generator(2, 1), build_generator(3, 1), build_generator(3, 2)
    assert dynamics._graph.cache_info().currsize == 2
    assert build_generator(3, 2) is third and build_generator(3, 1) is second
    assert build_generator(2, 1) is not first


def test_the_shared_graph_is_immutable(fresh_graphs):
    gen = build_generator(4, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen.states = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen.arcs = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen.transitions = ()
    for table in (gen.states, gen.transitions, gen.weights):
        assert isinstance(table, tuple)
    assert all(isinstance(row, tuple) for row in gen.transitions)
    tables = (gen.balance_rows, gen.density_rows, gen.occupation_rows, gen.crossings, gen.fiber_rows)
    arrays = [gen.exponents, *gen.arcs]
    arrays += [a for t in tables for a in (t.slot, t.state, t.rate, t.sign) if a is not None]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen.crossings.slot = None


@pytest.mark.parametrize("L", range(1, 7))
def test_crossing_table_matches_the_displacement_records(L):
    """Arc for arc and in record order, the crossing rows hold one row per
    displacement record and channel: the arc's source representative, its
    rate symbol, and the summed signs of the record's
    `displacement_crossings`, the boundaries totalled."""
    for n in range(1, L + 1):
        gen = build_generator(L, n)
        table = gen.crossings
        assert table.size == 3 * n + 1
        rows = iter(zip(table.slot.tolist(), table.state.tolist(), table.rate.tolist(), table.sign.tolist()))
        for j, w in enumerate(gen.representatives):
            for t in outgoing_transitions(w):
                for d in t.displacements:
                    if d.species == "bullet":
                        channels = [d.label_from - 1]
                    elif d.jump:
                        channels = [n]
                    else:
                        channels = [n, n + d.label_from] + ([2 * n + d.label_from] if t.kind in ("F1", "B1") else [])
                    count = sum(sign for _, sign in displacement_crossings(d, L))
                    for channel in channels:
                        slot, state, rate, row_count = next(rows)
                        assert (slot, state, rate_symbols(n)[rate], row_count) == (channel, j, t.rate_symbol, count)
        assert next(rows, None) is None


LATTICES = [(L, n) for L in range(1, 7) for n in range(1, L + 1)]


@pytest.mark.parametrize("L,n", LATTICES)
def test_arcs_are_the_per_word_transitions(L, n):
    """Arc for arc and in order, the arc arrays hold, per representative,
    the rate symbol of the separate forward and backward rules and their
    target: the target representative rotated by the arc's shift."""
    from reference_transitions import reference_transitions

    gen = build_generator(L, n)
    expected = [(j, t.target, t.rate_symbol) for j, w in enumerate(gen.representatives) for t in reference_transitions(w)]
    source, target, rate, shift = (column.tolist() for column in gen.arcs)
    targets = [gen.representatives[k].rotate(s) for k, s in zip(target, shift)]
    assert list(zip(source, targets, [rate_symbols(n)[r] for r in rate])) == expected
    assert all(w.is_restricted() for w in gen.representatives) and len(gen.representatives) == restricted_count(L, n)


@pytest.mark.parametrize("L,n", [(L, n) for L in range(1, 8) for n in range(1, L + 1)])
def test_expanded_arcs_are_the_object_graph(L, n):
    """Expanded over the L rotations, the graph is the full-space object
    graph, state for state and arc for arc in order."""
    import reference_graph

    gen, full = build_generator(L, n), reference_graph.object_graph(L, n)
    assert gen.states == full.states and gen.num_states == len(full.states)
    assert state_index(gen) == full.index
    source, target, rate, shift = (column.tolist() for column in reference_graph.full_arcs(gen))
    symbols = rate_symbols(n)
    expected = [(j, k, t.rate_symbol) for j, (outs, targets) in enumerate(zip(full.transitions, full.targets)) for t, k in zip(outs, targets)]
    assert list(zip(source, target, [symbols[r] for r in rate])) == expected
    assert shift == [(full.states[k].letters.index(1) - full.states[j].letters.index(1)) % L for j, k, _ in expected]


@pytest.mark.parametrize("L", range(1, 8))
def test_the_move_rule_commutes_with_rotation(L):
    """On every state with L <= 7, each a restricted word rotated by some s,
    the moves are the restricted word's moves rotated by s, arc for arc:
    the same kind, rate and displacement records, each column moved by s."""

    def rotated(d, s):
        return dataclasses.replace(d, pos_from=(d.pos_from + s) % L, pos_to=(d.pos_to + s) % L)

    for n in range(1, L + 1):
        for w in iter_restricted(L, n):
            moves = outgoing_transitions(w)
            for s in range(L):
                for t, u in zip(moves, outgoing_transitions(w.rotate(s)), strict=True):
                    assert (u.kind, u.rate_symbol, u.target) == (t.kind, t.rate_symbol, t.target.rotate(s))
                    assert u.displacements == tuple(rotated(d, s) for d in t.displacements)


@pytest.mark.parametrize("L,n", LATTICES + [(7, 3), (7, 4)])
def test_graph_walks_match_the_object_graph(L, n):
    """Reachability in both directions and the restriction for every zero
    set equal, field for field, the walks over the stored `Transition`s."""
    from itertools import combinations

    import reference_graph

    for direction in ("from", "to"):
        assert reachability_tau0(L, n, direction) == reference_graph.reachability_tau0(L, n, direction)
    for size in range(n + 1):
        for zero_q in combinations(range(1, n + 1), size):
            assert restrict_ta(L, n, zero_q) == reference_graph.restrict_ta(L, n, zero_q), zero_q


def test_a_closure_violation_rebuilds_its_transition(monkeypatch):
    """With membership wrongly granted to one non-member state, its arcs that
    leave the set are reported, each with the `Transition` of its arc."""
    import reference_graph

    # Membership is read from the weights' exponents: erasing the q_1
    # factor of the first representative that has one grants it, and so
    # every rotation of it, membership.
    gen = build_generator(5, 3)
    j = next(j for j, row in enumerate(gen.exponents.tolist()) if row[gen.n])
    outsiders = {gen.representatives[j].rotate(s) for s in range(5)}
    exponents = gen.exponents.copy()
    exponents[j, gen.n] = 0
    forged = dataclasses.replace(gen)
    forged.__dict__["exponents"] = exponents
    monkeypatch.setattr(dynamics, "build_generator", lambda L, n: forged)
    real = reference_graph.ta_membership
    monkeypatch.setattr(reference_graph, "ta_membership", lambda w, zero_q: w in outsiders or real(w, zero_q))
    states, cert = restrict_ta(5, 3, {1})
    assert not cert.ok and {w for w, _ in cert.violations} == outsiders
    assert all(t in outgoing_transitions(w) for w, t in cert.violations)
    assert (states, cert) == reference_graph.restrict_ta(5, 3, {1})


@pytest.mark.parametrize("seed", range(10))
def test_breadth_first_matches_the_dict_reference(seed):
    """On seeded random digraphs, with self-loops, repeated arcs, unreached
    nodes, one node and no arcs, the array search visits the nodes in the
    dict search's order, and each reached node's arc comes from its dict
    parent: the first arc from the parent to it, in arc order."""
    import random

    import numpy as np

    import reference_graph
    from torus_asep.dynamics import breadth_first

    draw = random.Random(seed)
    graphs = [(1, [], []), (1, [0], [0]), (3, [], [])]
    for _ in range(20):
        num = draw.randint(1, 15)
        pairs = [(draw.randrange(num), draw.randrange(num)) for _ in range(draw.randint(0, 2 * num))]
        pairs += [(u, u) for u in draw.sample(range(num), min(2, num))] + pairs[: draw.randint(0, len(pairs))]
        draw.shuffle(pairs)
        graphs.append((num, [u for u, _ in pairs], [v for _, v in pairs]))
    unreached = 0
    for num, tail, head in graphs:
        tail, head = np.array(tail, dtype=np.int64), np.array(head, dtype=np.int64)
        root = draw.randrange(num)
        order, via = breadth_first(num, tail, head, root)
        parent = reference_graph.breadth_first(reference_graph.adjacency(num, tail, head), root)
        assert order.tolist() == list(parent)
        for node in range(num):
            if parent.get(node) is None:
                assert via[node] == -1
            else:
                assert tail[via[node]] == parent[node]
                assert via[node] == np.flatnonzero((tail == parent[node]) & (head == node))[0]
        unreached += len(parent) < num
    assert unreached


def test_reachability_expands_only_its_witness(fresh_graphs):
    """The certificate numbers tau0 as its representative at shift 0 and
    rotates only the witness states out of the representatives: the full
    state list is never built, and a "from" search, which takes each
    state's arcs in move-rule order, never builds the letter-order map."""
    gen = build_generator(5, 3)
    assert reachability_tau0(5, 3, "from").ok
    assert not {"states", "orbit"} & vars(gen).keys()
    assert reachability_tau0(5, 3, "to").ok
    assert "states" not in vars(gen)


def test_no_check_reads_the_transition_view(fresh_graphs):
    """The checks read the arc arrays; the `Transition` view is never built."""
    from torus_asep.observables import currents_exact, densities, scott_russell_check
    from torus_asep.stationary import exact_stationary, lumping_report, verify_balance

    gen = build_generator(4, 2)
    rates = RatePoint.parse("1,2;0,5")
    for point in (None, rates):
        verify_balance(4, 2, point)
        densities(4, 2, point)
        currents_exact(4, 2, point)
    gen.triplet_rows()
    lumping_report(4, 2)
    scott_russell_check(4, 2)
    exact_stationary(gen, rates)
    restrict_ta(4, 2, {1})
    reachability_tau0(4, 2, "from")
    reachability_tau0(4, 2, "to")
    assert build_generator(4, 2) is gen
    assert "transitions" not in vars(gen)
    assert not {"transitions", "targets"} & {field.name for field in dataclasses.fields(gen)}


def test_generator_triplet_export():
    gen = build_generator(2, 1)
    rows = gen.triplet_rows()
    assert ((0, 1, "q1 + p1") in rows) and ((1, 0, "q1 + p1") in rows)
    assert (0, 0, "-q1 - p1") in rows
    assert gen.state_manifest()[0] == (0, "B1 b1")


@pytest.mark.parametrize("L,n", [(2, 1), (4, 2), (5, 3)])
def test_reachability_both_directions(L, n):
    for direction in ("from", "to"):
        rep = reachability_tau0(L, n, direction)
        assert rep.ok
        assert rep.num_reached == rep.num_states
        cur = rep.witness_start
        for t in rep.witness_path:
            assert t.source == cur
            cur = t.target
        if direction == "from":
            assert rep.witness_start == tau_zero(L, n)
        elif rep.witness_path:
            assert cur == tau_zero(L, n)


def _mirror(w: ColoredWord) -> ColoredWord:
    # Rotation by pi: reverse the positions and reflect the labels
    # (k -> n+1-k keeps the reversed bullets cyclically increasing).
    n = w.n
    letters = tuple(
        (n + 1 - c) if c > 0 else -(n + 1 + c) for c in reversed(w.letters)
    )
    return ColoredWord(n, letters)


def test_forward_backward_mirror_isomorphism():
    # Rotating the torus by pi and swapping p with q maps each forward rule
    # onto the matching backward rule; check as a graph isomorphism.
    n = 2
    for w in enumerate_full(4, 2):
        mirrored = _mirror(w)
        assert validate(mirrored) == []
        fwd = {
            (t.kind, t.rate_symbol): t.target for t in outgoing_transitions(w)
        }
        mir = {
            (t.kind, t.rate_symbol): t.target for t in outgoing_transitions(mirrored)
        }
        swap_kind = {"F1": "B1", "F2": "B2", "B1": "F1", "B2": "F2"}
        for (kind, (family, k)), target in fwd.items():
            mk = n + 1 - k
            mfamily = "q" if family == "p" else "p"
            key = (swap_kind[kind], (mfamily, mk))
            assert key in mir, (w.to_text(), kind, family, k)
            assert mir[key] == _mirror(target)


def test_restrict_ta_stirling_counts():
    def stirling2(a, b):
        table = [[0] * (b + 1) for _ in range(a + 1)]
        table[0][0] = 1
        for i in range(1, a + 1):
            for j in range(1, min(i, b) + 1):
                table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
        return table[a][b]

    for L, n in [(5, 2), (5, 3), (6, 3)]:
        states, cert = restrict_ta(L, n, {1})
        assert cert.ok
        assert sum(1 for w in states if w.is_restricted()) == stirling2(L, n)


def test_restrict_ta_all_rows():
    import math

    for L, n in [(5, 2), (6, 3)]:
        states, cert = restrict_ta(L, n, set(range(1, n + 1)))
        assert cert.ok
        restricted = [w for w in states if w.is_restricted()]
        assert len(restricted) == math.comb(L - 1, n - 1)
        # a surviving state is pinned down by its bullet positions
        assert len({w.bullet_positions() for w in restricted}) == len(restricted)


def test_restrict_ta_empty_set_is_everything():
    states, cert = restrict_ta(4, 2, set())
    assert cert.ok and len(states) == 48


def test_restrict_ta_intersection():
    s12, _ = restrict_ta(5, 3, {1, 2})
    s1, _ = restrict_ta(5, 3, {1})
    s2, _ = restrict_ta(5, 3, {2})
    assert set(s12) == set(s1) & set(s2)


def test_restrict_ta_rejects_bad_labels():
    with pytest.raises(ValueError):
        restrict_ta(4, 2, {0})
    with pytest.raises(ValueError):
        restrict_ta(4, 2, {3})


def test_ta_membership_matches_weight_support():
    """A state survives the restriction exactly when its weight has no
    factor q_m, m in the zero set."""
    from torus_asep.stationary import config_weight

    for labels in ({1}, {2}, {1, 3}):
        members = set(restrict_ta(5, 3, labels)[0])
        for w in enumerate_full(5, 3):
            exponents = config_weight(w).exponents
            assert (w in members) == (not any(exponents[3 + m - 1] for m in labels))


@pytest.mark.parametrize("L,n", LATTICES)
def test_ta_membership_matches_the_box_by_box_reference(L, n):
    """For every zero set, the restriction's states equal the membership
    read box by box from the vanishing box weights."""
    from itertools import combinations

    import reference_graph

    words = enumerate_full(L, n)
    for size in range(n + 1):
        for zero_q in map(frozenset, combinations(range(1, n + 1), size)):
            expected = [w for w in words if reference_graph.ta_membership(w, zero_q)]
            assert restrict_ta(L, n, zero_q)[0] == expected, zero_q


def test_random_large_words_dynamics(rng):
    from conftest import random_word

    for _ in range(40):
        L = rng.randint(8, 13)
        n = rng.randint(2, min(5, L - 1))
        w = random_word(L, n, rng)
        e = excess(w)
        for t in outgoing_transitions(w):
            assert validate(t.target) == []
            assert replay_displacements(t) == t.target
            delta = excess(t.target) - e
            assert delta == {"F1": -1, "B1": 1, "F2": 0, "B2": 0}[t.kind]
            bullet_step = 0
            per_boundary = [0] * L
            bullet_boundary = None
            for d in t.displacements:
                crossings = displacement_crossings(d, L)
                assert sum(sign for _, sign in crossings) == d.step
                if d.species == "bullet":
                    bullet_step += d.step
                    bullet_boundary = crossings[0][0]
                else:
                    for boundary, sign in crossings:
                        per_boundary[boundary] += sign
            assert per_boundary[bullet_boundary] == -bullet_step
            assert all(v == 0 for j, v in enumerate(per_boundary) if j != bullet_boundary)


def test_vertical_shift_conjugates_dynamics():
    """Relabelling every row k -> k-1 maps the transition graph onto itself
    with the rate index shifted the same way."""
    for L, n in [(4, 2), (5, 3)]:
        for w in enumerate_full(L, n):
            shifted = w.vertical_shift()
            direct = {
                (t.kind, t.rate_symbol): t.target for t in outgoing_transitions(shifted)
            }
            for t in outgoing_transitions(w):
                family, k = t.rate_symbol
                down = k - 1 if k > 1 else n
                key = (t.kind, (family, down))
                assert key in direct
                assert direct[key] == t.target.vertical_shift()
