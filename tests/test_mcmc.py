import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_asep import mcmc
from torus_asep.dynamics import build_generator, outgoing_transitions, tau_zero
from torus_asep.mcmc import (
    estimate_observables,
    run_manifest,
    simulate,
    tv_distance,
)
from torus_asep.model import ColoredWord, enumerate_full, gap_lengths, iter_restricted
from torus_asep.observables import closed_currents
from torus_asep.stationary import exact_stationary
from torus_asep.symbolic import RatePoint

from conftest import closed_box_densities
from reference_transitions import displacement_crossings

RP42 = RatePoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))


def test_determinism():
    s1, l1 = simulate(4, 2, RP42, seed=42, events=4000, record_states=True)
    s2, l2 = simulate(4, 2, RP42, seed=42, events=4000, record_states=True)
    assert s1.word == s2.word and s1.elapsed == s2.elapsed and s1.events == s2.events
    for a, b in ((l1.bullet_edge, l2.bullet_edge), (l1.box_edge, l2.box_edge),
                 (l1.box_jump, l2.box_jump), (l1.row_up, l2.row_up)):
        assert (a == b).all()
    s3, _ = simulate(4, 2, RP42, seed=43, events=4000, record_states=True)
    assert s3.state_time != s1.state_time


def test_horizon_arguments():
    with pytest.raises(ValueError):
        simulate(4, 2, RP42, seed=1)
    with pytest.raises(ValueError):
        simulate(4, 2, RP42, seed=1, events=10, time_horizon=1.0)


def test_no_dynamics_terminates_immediately():
    state, ledger = simulate(3, 3, RatePoint((Fraction(1),) * 3, (Fraction(1),) * 3),
                             seed=0, events=100)
    assert state.events == 0 and state.elapsed == 0.0
    assert ledger.bullet_edge.sum() == 0


def test_two_state_symmetric_occupancy():
    state, _ = simulate(2, 1, RatePoint((Fraction(1),), (Fraction(1),)), seed=7, events=20000,
                        record_states=True)
    emp = state.empirical_distribution()
    assert len(emp) == 2
    for value in emp.values():
        assert abs(value - 0.5) < 0.05


def test_ledger_conservation_per_transition():
    """Per transition: every box's crossings telescope to its signed step,
    and the net box transport across all boundaries cancels the bullet's."""
    for L, n in [(5, 3), (5, 2), (4, 2), (6, 1)]:
        for w in iter_restricted(L, n):
            for t in outgoing_transitions(w):
                bullet_step = 0
                box_net = 0
                per_boundary = [0] * L
                for d in t.displacements:
                    crossings = displacement_crossings(d, L)
                    assert sum(sign for _, sign in crossings) == d.step
                    if d.species == "bullet":
                        bullet_step += d.step
                        bullet_boundary = crossings[0][0]
                    else:
                        box_net += d.step
                        for boundary, sign in crossings:
                            per_boundary[boundary] += sign
                assert box_net == -bullet_step
                # the entire net box transport concentrates at the boundary
                # the bullet crossed, in the opposite direction
                assert per_boundary[bullet_boundary] == -bullet_step
                assert all(v == 0 for j, v in enumerate(per_boundary) if j != bullet_boundary)


def test_event_mode_batches_cover_run():
    state, ledger = simulate(4, 2, RP42, seed=5, events=2000, batches=20)
    assert state.events == 2000
    assert ledger.batch_time.sum() == pytest.approx(state.elapsed)
    assert (ledger.batch_time > 0).all()


def test_time_mode_batches_are_equal_slabs():
    state, ledger = simulate(4, 2, RP42, seed=5, time_horizon=50.0, batches=10)
    assert state.elapsed == 50.0
    assert ledger.batch_time == pytest.approx(np.full(10, 5.0))
    assert state.occupancy.sum() == pytest.approx(4 * 50.0)  # one particle per column


def test_ledger_cells_obey_the_state_cap(monkeypatch):
    """(4,2) in 10 batches keeps 10 * (10 * 4 + 5) = 450 ledger cells."""
    from torus_asep.dynamics import ResourceCapError

    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "450")
    simulate(4, 2, RP42, seed=1, events=100, batches=10)
    monkeypatch.setenv("TORUS_ASEP_STATE_CAP", "449")
    with pytest.raises(ResourceCapError, match="the run's ledger has 450 cells, above the cap 449"):
        simulate(4, 2, RP42, seed=1, events=100, batches=10)


def test_tv_distance_decreases_with_run_length():
    gen = build_generator(4, 2)
    table = exact_stationary(gen, RP42)
    exact = {w.letters: p for w, p in zip(table.states, table.probabilities)}
    small, _ = simulate(4, 2, RP42, seed=11, events=10_000, record_states=True)
    large, _ = simulate(4, 2, RP42, seed=11, events=100_000, record_states=True)
    tv_small = tv_distance(small, exact)
    tv_large = tv_distance(large, exact)
    assert tv_large < tv_small < 0.2


def test_unrecorded_run_has_no_state_times():
    state, _ = simulate(4, 2, RP42, seed=11, events=1000)
    assert state.state_time is None
    with pytest.raises(ValueError, match="record_states=True"):
        state.empirical_distribution()
    exact = {tau_zero(4, 2).letters: Fraction(1)}
    with pytest.raises(ValueError, match="record_states=True"):
        tv_distance(state, exact)


def test_estimates_match_closed_forms_4_2():
    state, ledger = simulate(4, 2, RP42, seed=3, time_horizon=2.0e4)
    report = estimate_observables(ledger, state)
    closed = closed_currents(4, 2, RP42)
    for i in (1, 2):
        for j in range(1, 5):
            est = report.current("bullet_edge_current", i, j)
            assert est.within(float(closed["bullet_edge_current"]), 4.0)
    assert report.current("box_vertical_net", 1).within(float(closed["box_vertical_net"]), 4.0)
    assert report.current("box_column_current", 2).within(float(closed["box_column_current"]), 4.0)
    assert report.current("box_row_current", 1).within(float(closed["box_row_current"][0]), 4.0)
    for i, density in enumerate(closed_box_densities(4, 2, RP42), 1):
        ref = float(density)
        for k in (1, 2, 3, 4):
            assert report.density("box_density", i, k).within(ref, 3.0)
    bullet = report.density("bullet_density", 2, 3)
    assert bullet.within(0.25, 4.0)


def test_symmetric_rates_currents_vanish():
    rp = RatePoint((Fraction(1), Fraction(3, 2)), (Fraction(1), Fraction(3, 2)))
    state, ledger = simulate(4, 2, rp, seed=9, time_horizon=1.0e4)
    report = estimate_observables(ledger, state)
    for i in (1, 2):
        assert report.current("bullet_row_current", i).within(0.0, 4.0)
        assert report.current("box_vertical_net", i).within(0.0, 4.0)


def test_manifest_is_deterministic():
    state, ledger = simulate(4, 2, RP42, seed=1, events=500)
    manifest = run_manifest(state, ledger)
    assert manifest["seed"] == 1 and manifest["events"] == 500
    assert manifest["rates"] == {"p": ["1", "2"], "q": ["3", "5"]}
    state2, ledger2 = simulate(4, 2, RP42, seed=1, events=500)
    assert run_manifest(state2, ledger2) == manifest


def test_ledger_csv_and_box_column():
    state, ledger = simulate(4, 2, RP42, seed=2, events=1000)
    rows = ledger.to_csv_rows()
    assert rows[0] == ["channel", "row", "boundary", "count"]
    # the box column total of boundary 1|2: every row's label-preserving
    # crossings plus the relabelled boxes' jumps
    total = sum(
        int(count) for channel, _, boundary, count in rows[1:] if channel in ("box_edge", "box_jump") and boundary == "1"
    )
    assert total == ledger.box_edge[:, :, 0].sum() + ledger.box_jump[:, 0].sum()


def test_low_batch_flagging():
    state, ledger = simulate(4, 2, RP42, seed=2, events=1000, batches=5)
    report = estimate_observables(ledger, state)
    est = report.current("bullet_row_current", 1)
    assert est.low_batches


def test_simulation_with_vanishing_backward_rates():
    """With q_1 = 0 the run stays inside the surviving states and its
    occupancy converges to the restricted stationary law."""
    from torus_asep.dynamics import restrict_ta

    rp = RatePoint((Fraction(2), Fraction(3)), (Fraction(0), Fraction(1)))
    states, cert = restrict_ta(4, 2, {1})
    assert cert.ok
    table = exact_stationary(build_generator(4, 2), rp)
    exact = {w.letters: p for w, p in zip(table.states, table.probabilities)}
    state, _ = simulate(4, 2, rp, seed=77, events=200_000, record_states=True)
    assert set(state.state_time) <= {w.letters for w in states}
    assert tv_distance(state, exact) < 0.02


@pytest.mark.parametrize(
    "kwargs,cli_args",
    [
        ({"events": 0}, ["--events", "0"]),
        ({"events": -3}, ["--events", "-3"]),
        ({"events": 5, "batches": 6}, ["--events", "5", "--batches", "6"]),
        ({"time_horizon": -1.0}, ["--time", "-1"]),
        ({"time_horizon": 0.0}, ["--time", "0"]),
        ({"time_horizon": float("nan")}, ["--time", "nan"]),
        # rejected before the event loop starts, which would never end
        ({"time_horizon": float("inf")}, ["--time", "inf"]),
        # the slab length time_horizon / batches underflows to 0
        ({"time_horizon": 5e-324, "batches": 2, "match": "5e-324 over 2 batches"},
         ["--time", "5e-324", "--batches", "2"]),
        ({"events": 10, "rates": "1e400,2;3,5"}, ["--events", "10", "--rates", "1e400,2;3,5"]),
        ({"events": 10, "rates": "1,2;3,1e-400"}, ["--events", "10", "--rates", "1,2;3,1e-400"]),
        # each total rate fits, but the holding times 1 / (2e-308) times an
        # exponential, and their running sum, leave the float range
        ({"events": 10, "batches": 2, "rates": "1e-308,1e-308;1e-308,1e-308",
          "match": "1e-308;1e-308,1e-308: .*float range"},
         ["--events", "10", "--batches", "2", "--rates", "1e-308,1e-308;1e-308,1e-308"]),
        # each rate fits, but a menu's total rate does not
        ({"events": 10, "batches": 2, "rates": "1e308,1e308;1e308,1e308",
          "match": "1e\\+308;1e\\+308,1e\\+308: .*float range"},
         ["--events", "10", "--batches", "2", "--rates", "1e308,1e308;1e308,1e308"]),
        # rejected before numpy's generator would refuse it
        ({"events": 100, "seed": -1, "match": "seed"}, ["--events", "100", "--seed", "-1"]),
    ],
    ids=["events0", "events-neg", "batches>events", "horizon-neg", "horizon0", "horizon-nan",
         "horizon-inf", "slab-underflow", "rate-overflow", "rate-underflow", "holding-overflow", "total-overflow",
         "seed-neg"],
)
def test_bad_run_length_or_rates_rejected(kwargs, cli_args, capsys):
    from torus_asep.cli import main

    kwargs = dict(kwargs)
    rates = RatePoint.parse(kwargs.pop("rates", "1,2;3,5"))
    seed, match = kwargs.pop("seed", 1), kwargs.pop("match", None)
    with pytest.raises(ValueError, match=match):
        simulate(4, 2, rates, seed=seed, **kwargs)
    if "--rates" not in cli_args:
        cli_args = cli_args + ["--rates", "1,2;3,5"]
    if "--seed" not in cli_args:
        cli_args = cli_args + ["--seed", "1"]
    assert main(["simulate", "--L", "4", "--n", "2", *cli_args]) == 2
    assert "error" in capsys.readouterr().err


def _block_draws(seed):
    """The run's (exponential, uniform) pairs, event by event: PCG64(seed)
    draws 256 standard exponentials and then 256 uniforms per 256 events."""
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        yield from zip(rng.standard_exponential(256).tolist(), rng.random(256).tolist())


@pytest.mark.parametrize("events", [1, 255, 256, 257, 700])
def test_variates_come_in_blocks_of_256_events(events):
    """At (3,1) both moves of the bullet are always enabled, so event i
    holds for exponential i over p1 + q1 and moves forward when uniform i
    times p1 + q1 falls below p1."""
    rates = RatePoint((Fraction(2),), (Fraction(1, 2),))
    state, _ = simulate(3, 1, rates, seed=5, events=events, batches=1)
    total = 2.0 + 0.5
    elapsed, column = 0.0, 0
    for _, (e, u) in zip(range(events), _block_draws(5)):
        elapsed += e * (1.0 / total)
        column += 1 if u * total < 2.0 else -1
    assert state.events == events
    assert state.elapsed == elapsed
    assert state.word.letters.index(1) == column % 3


# -- the local-update kernel against the per-state reference kernel ---------------------


def _reference_pieces(t, t_stop, time_horizon, batches):
    """The scalar loop that cut a holding from t to t_stop at the edges of
    the run's equal time slabs: its pieces, as (slab, length), in time order."""
    slab_len = time_horizon / batches
    t0 = t
    while t0 < t_stop:
        b = min(int(t0 / slab_len), batches - 1)
        edge = (b + 1) * slab_len if b < batches - 1 else time_horizon
        if edge <= t0:
            # float round-off put t0 on or past its slab edge
            b = min(b + 1, batches - 1)
            edge = (b + 1) * slab_len if b < batches - 1 else time_horizon
        seg_end = min(t_stop, edge)
        yield b, seg_end - t0
        t0 = seg_end


def _reference_simulate(L, n, rates, seed, events=None, time_horizon=None, batches=20):
    """The compile-per-state kernel the local-update one replaced.

    Every event builds its state's moves through `outgoing_transitions` and
    `displacement_crossings` and picks one with numpy's cumsum, sum and
    searchsorted, with its variates from `_block_draws`.  Returns the run's
    outputs and the set of distinct enabled-move sets seen, each as the
    tuple of its rate symbols.
    """
    p, q = rates.as_floats()
    word = tau_zero(L, n).letters
    draws = _block_draws(seed)
    bullet_edge = np.zeros((batches, n, L), dtype=np.int64)
    box_edge = np.zeros((batches, n, L), dtype=np.int64)
    box_jump = np.zeros((batches, L), dtype=np.int64)
    row_up = np.zeros((batches, n), dtype=np.int64)
    row_down = np.zeros((batches, n), dtype=np.int64)
    batch_time = np.zeros(batches, dtype=np.float64)
    occupancy = np.zeros((batches, 2, n, L), dtype=np.float64)
    state_time = {}
    slab_len = time_horizon / batches if time_horizon is not None else None
    t, ev, menus = 0.0, 0, set()
    while True:
        targets, move_rates, crossings, symbols = [], [], [], []
        for tr in outgoing_transitions(ColoredWord(n, word)):
            family, k = tr.rate_symbol
            rate = (p if family == "p" else q)[k - 1]
            if rate <= 0.0:
                continue
            symbols.append(tr.rate_symbol)
            targets.append(tr.target.letters)
            move_rates.append(rate)
            ops = []  # (array, index without the batch, sign)
            for d in tr.displacements:
                for boundary, sign in displacement_crossings(d, L):
                    if d.species == "bullet":
                        ops.append((bullet_edge, (d.label_from - 1, boundary), sign))
                    elif not d.jump:
                        ops.append((box_edge, (d.label_from - 1, boundary), sign))
                    else:
                        ops.append((box_jump, (boundary,), sign))
            if tr.kind in ("F2", "B2"):
                ops.append((row_up if tr.kind == "F2" else row_down, (tr.row - 1,), 1))
            crossings.append(ops)
        rate_arr = np.array(move_rates, dtype=np.float64)
        total = float(rate_arr.sum())
        if total <= 0.0:
            break
        menus.add(tuple(symbols))
        e, u = next(draws)
        dt = e * (1.0 / total)
        u = u * total
        idx = min(int(np.searchsorted(np.cumsum(rate_arr), u, side="right")), len(targets) - 1)
        cells = ([0 if c > 0 else 1 for c in word], [abs(c) - 1 for c in word], list(range(L)))

        def record(b):
            for array, index, sign in crossings[idx]:
                array[(b,) + index] += sign

        if events is not None:
            b = ev * batches // events
            occupancy[(b,) + cells] += dt
            batch_time[b] += dt
            state_time[word] = state_time.get(word, 0.0) + dt
            t += dt
            record(b)
            word = targets[idx]
            ev += 1
            if ev == events:
                break
        else:
            t_new = t + dt
            t_stop = min(t_new, time_horizon)
            state_time[word] = state_time.get(word, 0.0) + (t_stop - t)
            for b, piece in _reference_pieces(t, t_stop, time_horizon, batches):
                occupancy[(b,) + cells] += piece
                batch_time[b] += piece
            if t_new >= time_horizon:
                t = time_horizon
                break
            record(min(int(t_new / slab_len), batches - 1))
            word = targets[idx]
            ev += 1
            t = t_new
    arrays = {
        "bullet_edge": bullet_edge,
        "box_edge": box_edge,
        "box_jump": box_jump,
        "row_up": row_up,
        "row_down": row_down,
        "batch_time": batch_time,
        "occupancy": occupancy,
    }
    return arrays, t, ev, word, state_time, menus


# With T = 7 and 10 slabs of 0.7, slab 3 starts at 3 * 0.7 = 2.0999999999999996,
# whose quotient by 0.7 rounds down to 2.9999999999999996: a holding that
# starts there takes the round-off branch of the scalar loop.
_EDGE3 = 3 * 0.7


@pytest.mark.parametrize(
    "times",
    [
        [_EDGE3, _EDGE3 + 0.1, 2.5],
        [0.05, 2.5, 2.8, 5 * 0.7],  # the first holding spans slabs 0 to 3; the last ends on slab 5's start
        [5.9, 6.5, 9.0],  # the last holding ends past the horizon
        [6.3, 7.0],  # the last slab ends at the horizon
        [1.0, 1.0, 1.0, 1.5, 1.5, _EDGE3],  # zero-length holdings among others
        [_EDGE3, _EDGE3, _EDGE3],  # a chunk of zero-length holdings alone
        [0.0, 0.0, 6.9999, 7.0],  # one holding crosses every inner edge; the last ends on the horizon
    ],
    ids=["round-off-edge", "three-slabs", "past-horizon", "last-slab", "zero-lengths", "zero-only", "whole-run"],
)
def test_the_array_cut_matches_the_scalar_loop(times):
    """mcmc's array cut of a chunk's holdings at the slab edges gives the
    scalar loop's pieces, float for float, and counts each move in the slab
    of its holding's end."""
    horizon, batches = 7.0, 10
    assert int(_EDGE3 / (horizon / batches)) == 2
    spent, pieces, moves = [], [], []
    for h, (t, end) in enumerate(zip(times, times[1:])):
        t_stop = min(end, horizon)
        spent.append(t_stop - t)
        pieces += [(h, b, piece) for b, piece in _reference_pieces(t, t_stop, horizon, batches)]
        if end < horizon:
            moves.append(min(int(end / (horizon / batches)), batches - 1))
    held, seg_h, seg_b, lengths, move_b = mcmc._cut(np.array(times), horizon, batches)
    assert held.tolist() == spent
    assert list(zip(seg_h.tolist(), seg_b.tolist(), lengths.tolist())) == pieces
    assert move_b.tolist() == moves
    assert seg_h.dtype == seg_b.dtype == np.int64 and lengths.dtype == np.float64


def _reference_estimate(counts, batch_time, elapsed):
    """One entry's estimate as it was computed entry by entry."""
    valid = batch_time > 0
    rates = counts[valid] / batch_time[valid]
    stderr = float(np.std(rates, ddof=1) / math.sqrt(valid.sum())) if valid.sum() >= 2 else math.inf
    if valid.sum() < 20 and math.isfinite(stderr):
        stderr *= 2.0
    return float(counts.sum() / elapsed), stderr


def _assert_matches_reference(L, n, rates, seed, **horizon):
    state, ledger = simulate(L, n, rates, seed, **horizon, record_states=True)
    arrays, elapsed, events, word, state_time, menus = _reference_simulate(
        L, n, rates, seed, **horizon
    )
    for name, expected in arrays.items():
        actual = state.occupancy if name == "occupancy" else getattr(ledger, name)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape, name
        assert actual.tobytes() == expected.tobytes(), name
    assert state.elapsed == elapsed and state.events == events
    assert state.word.letters == word
    assert state.state_time == state_time
    if state.elapsed > 0:
        report = estimate_observables(ledger, state)
        box_row = ledger.box_edge.sum(axis=2) / L
        for i in range(n):
            est = report.current("box_row_current", i + 1)
            assert (est.value, est.stderr) == _reference_estimate(box_row[:, i], ledger.batch_time, elapsed)
            for j in range(L):
                est = report.density("box_density", i + 1, j + 1)
                counts = state.occupancy[:, 1, i, j]
                assert (est.value, est.stderr) == _reference_estimate(counts, ledger.batch_time, elapsed)
                est = report.current("bullet_edge_current", i + 1, j + 1)
                counts = ledger.bullet_edge[:, i, j]
                assert (est.value, est.stderr) == _reference_estimate(counts, ledger.batch_time, elapsed)
    return menus


_RATE_VALUES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3))


@st.composite
def _kernel_cases(draw):
    L = draw(st.integers(1, 6))
    n = draw(st.integers(1, L))
    p = [draw(st.sampled_from(_RATE_VALUES)) for _ in range(n)]
    q = [draw(st.sampled_from(_RATE_VALUES)) for _ in range(n)]
    # Zero some p_k or some q_k (never both kinds: that chain is reducible).
    side = draw(st.sampled_from(("none", "p", "q")))
    if side != "none":
        zeroed = draw(st.sets(st.integers(0, n - 1), min_size=1))
        for k in zeroed:
            (p if side == "p" else q)[k] = Fraction(0)
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        events = draw(st.integers(1, 300))
        horizon = {"events": events, "batches": draw(st.integers(1, min(events, 25)))}
    else:
        horizon = {
            "time_horizon": draw(st.floats(0.01, 40.0)),
            "batches": draw(st.integers(1, 25)),
        }
    return L, n, RatePoint(tuple(p), tuple(q)), seed, horizon


@settings(max_examples=200, deadline=None)
@given(_kernel_cases())
def test_kernel_matches_reference_small_lattices(case):
    L, n, rates, seed, horizon = case
    _assert_matches_reference(L, n, rates, seed, **horizon)


@pytest.mark.parametrize("L,n", [(8, 4), (10, 5), (40, 5)])
@pytest.mark.parametrize("horizon", [{"events": 400, "batches": 20}, {"time_horizon": 40.0, "batches": 9}])
def test_kernel_matches_reference_with_eight_or_more_moves(L, n, horizon):
    p = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 4), Fraction(1))
    q = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 5), Fraction(1, 2))
    menus = _assert_matches_reference(L, n, RatePoint(p[:n], q[:n]), 11, **horizon)
    most_moves = max(map(len, menus))
    # 8 or more moves is where numpy's sum stops adding in sequence
    assert most_moves >= 8


@settings(max_examples=100, deadline=None)
@given(_kernel_cases())
def test_recording_states_changes_no_other_output(case):
    L, n, rates, seed, horizon = case
    recorded, recorded_ledger = simulate(L, n, rates, seed, **horizon, record_states=True)
    plain, plain_ledger = simulate(L, n, rates, seed, **horizon)
    assert plain.state_time is None and recorded.state_time is not None
    for name in ("bullet_edge", "box_edge", "box_jump", "row_up", "row_down", "batch_time"):
        a, b = getattr(plain_ledger, name), getattr(recorded_ledger, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert plain.occupancy.tobytes() == recorded.occupancy.tobytes()
    assert (plain.elapsed, plain.events, plain.word) == (recorded.elapsed, recorded.events, recorded.word)


@pytest.mark.parametrize("horizon", [{"events": 600, "batches": 20}, {"time_horizon": 30.0, "batches": 7}])
def test_kernel_matches_reference_past_the_menu_limit(monkeypatch, horizon):
    """A run that meets more enabled-move sets than the menu table holds
    clears the table and rebuilds its menus, and matches the reference."""
    limit = 8
    monkeypatch.setattr(mcmc, "_MENU_LIMIT", limit)
    p = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 4), Fraction(1), Fraction(7, 3))
    q = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 5), Fraction(1, 2), Fraction(2))
    menus = _assert_matches_reference(12, 6, RatePoint(p, q), 5, **horizon)
    assert len(menus) > 2 * limit


_P6 = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 4), Fraction(1), Fraction(7, 3))
_Q6 = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 5), Fraction(1, 2), Fraction(2))


@pytest.mark.parametrize(
    "L,n,horizon",
    [
        (6, 3, {"events": 500, "batches": 20}),
        # slabs shorter than a holding time: one event logs several segments
        (6, 3, {"time_horizon": 30.0, "batches": 200}),
        (9, 4, {"time_horizon": 25.0, "batches": 7}),
        (6, 1, {"events": 400, "batches": 9}),
        (6, 1, {"time_horizon": 60.0, "batches": 40}),
        (2, 1, {"events": 50, "batches": 3}),
    ],
    ids=["events", "time-split-slabs", "time", "n1-events", "n1-time", "L2-n1"],
)
@pytest.mark.parametrize("chunk", [1, 3, 17])
def test_kernel_matches_reference_past_the_flush_chunk(monkeypatch, L, n, horizon, chunk):
    """Runs far longer than the occupancy log's flush chunk, with slab
    splits and letter runs spanning flushes, match the reference byte for
    byte."""
    monkeypatch.setattr(mcmc, "_FLUSH_SEGMENTS", chunk)
    _assert_matches_reference(L, n, RatePoint(_P6[:n], _Q6[:n]), 23, **horizon)


def test_the_split_slab_case_has_more_slabs_than_events():
    """The "time-split-slabs" case above has fewer events than slabs, so
    most slab edges fall inside a holding time: its segments, one per slab,
    are logged by one event before any flush."""
    state, _ = simulate(6, 3, RatePoint(_P6[:3], _Q6[:3]), 23, time_horizon=30.0, batches=200)
    assert 0 < state.events < 200


def test_kernel_matches_reference_at_40_5_over_many_flushes():
    """10000 events at (40,5), about twenty flushes of the default chunk."""
    assert 10000 > 10 * mcmc._FLUSH_SEGMENTS
    _assert_matches_reference(40, 5, RatePoint(_P6[:5], _Q6[:5]), 2026, events=10000, batches=20)


def _reference_decode(tags, n, L):
    """What the pass read of each logged move tag before `mcmc._move_table`:
    the divmods and arithmetic it made per chunk, named by table column."""
    nL = n * L
    move, row = np.divmod(tags, n)
    k, back = np.divmod(move, 2)
    d, against = 1 - 2 * back, 2 * back - 1
    jumps = ~(row - k).astype(bool)
    return {
        "k": k,
        "back": back,
        "d": d,
        "bullet k - d": (k - d) % n,
        "jumper": jumps,
        "popped code": row + n,
        "landing code": n + (row - d * jumps) % n,
        "bullet cell": k * L,
        "swapped box cell": nL + row * L,
        "row move cell": 2 * nL + 2 * L + 2 * k + back,
        "bullet sign": d,
        "swapped box sign": against * ~jumps,
        "jumper start sign": against * jumps,
        "jumper end sign": d * jumps,
        "row move sign": jumps,
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_the_move_table_matches_the_tag_arithmetic(n):
    """Every column of every tag (2k + back) n + row, on lattices from L = n
    up, equals the divmod arithmetic the table replaces."""
    for L in (n, n + 1, 2 * n + 3, 40):
        table = mcmc._move_table(n, L)
        assert table.dtype == np.int64 and table.shape == (15, 2 * n * n)
        reference = _reference_decode(np.arange(2 * n * n), n, L)
        for column, (name, values) in zip(table, reference.items()):
            assert column.tolist() == values.astype(np.int64).tolist(), (n, L, name)


# -- the kernel and its pass at the chunk boundaries ---------------------------------


def _moves(chunks, extra=0):
    """A run length in moves: whole chunks of the default pass, plus `extra`."""
    return chunks * mcmc._FLUSH_SEGMENTS + extra


@pytest.mark.parametrize("chunks,extra", [(1, 0), (1, 1), (3, 7)], ids=["one-chunk", "chunk+1", "3chunks+7"])
def test_kernel_matches_reference_at_chunk_boundaries(chunks, extra):
    """(40,5) runs that end on a pass, one move after one, and mid-chunk
    after three."""
    _assert_matches_reference(40, 5, RatePoint(_P6[:5], _Q6[:5]), 31, events=_moves(chunks, extra), batches=20)


def test_kernel_matches_reference_over_chunks_of_a_time_horizon():
    """A time horizon whose moves fill more than three passes, with 40
    slabs: every slab edge is crossed, most of them inside a chunk."""
    rates = RatePoint(_P6[:5], _Q6[:5])
    state, ledger = simulate(40, 5, rates, 3, time_horizon=300.0, batches=40)
    assert state.events > _moves(3)
    assert (ledger.batch_time > 0).all()
    _assert_matches_reference(40, 5, rates, 3, time_horizon=300.0, batches=40)


@pytest.mark.parametrize("L", [2, 6])
@pytest.mark.parametrize("horizon", ["events", "time"])
def test_kernel_matches_reference_with_one_bullet(L, horizon):
    """n = 1: the one gap word is the block every nonlocal move shifts."""
    rates = RatePoint((Fraction(2),), (Fraction(1),))
    if horizon == "events":
        _assert_matches_reference(L, 1, rates, 13, events=_moves(3, 7), batches=9)
    else:
        state, _ = simulate(L, 1, rates, 13, time_horizon=600.0, batches=7)
        assert state.events > _moves(3)
        _assert_matches_reference(L, 1, rates, 13, time_horizon=600.0, batches=7)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("horizon", [{"events": 50, "batches": 5}, {"time_horizon": 3.0, "batches": 4}])
def test_kernel_matches_reference_without_boxes(n, horizon):
    """L = n: no move is ever enabled, and the run makes no event."""
    state, _ = simulate(n, n, RatePoint(_P6[:n], _Q6[:n]), 5, **horizon)
    assert state.events == 0 and state.elapsed == 0.0
    _assert_matches_reference(n, n, RatePoint(_P6[:n], _Q6[:n]), 5, **horizon)


@pytest.mark.parametrize("zero", ["p1", "qn"])
@pytest.mark.parametrize("horizon", [{"events": _moves(3, 7), "batches": 20}, {"time_horizon": 60.0, "batches": 11}])
def test_kernel_matches_reference_with_a_zero_rate(zero, horizon):
    """p_1 = 0 or q_n = 0: the moves of one kind of one bullet are never
    on any menu."""
    p, q = list(_P6[:5]), list(_Q6[:5])
    if zero == "p1":
        p[0] = Fraction(0)
    else:
        q[-1] = Fraction(0)
    menus = _assert_matches_reference(12, 5, RatePoint(tuple(p), tuple(q)), 17, **horizon)
    absent = ("p", 1) if zero == "p1" else ("q", 5)
    assert menus and all(absent not in menu for menu in menus)


@pytest.mark.parametrize("horizon", [{"events": _moves(3, 7), "batches": 20}, {"time_horizon": 500.0, "batches": 50}])
def test_recorded_state_times_match_the_reference_over_several_chunks(horizon):
    """`record_states=True` over more than three passes: the same time per
    state, added in the same order, with the states first met in the same
    order."""
    rates = RatePoint(_P6[:4], _Q6[:4])
    state, _ = simulate(9, 4, rates, 8, **horizon, record_states=True)
    assert state.events > _moves(3)
    _assert_matches_reference(9, 4, rates, 8, **horizon)
    _, _, _, _, state_time, _ = _reference_simulate(9, 4, rates, 8, **horizon)
    assert list(state.state_time.items()) == list(state_time.items())


def test_gap_counts_give_the_enabled_moves_of_every_small_word():
    """Bullet k's forward move is enabled exactly when the gap after it
    holds a box, and its backward move when the gap before it does; n = 1
    included, on every word with L <= 7."""
    for L in range(1, 8):
        for n in range(1, L + 1):
            for w in enumerate_full(L, n):
                gaps = gap_lengths(w.bullet_positions(), L)
                expected = {("p", k + 1) for k in range(n) if gaps[k]} | {
                    ("q", k + 1) for k in range(n) if gaps[k - 1]
                }
                assert {t.rate_symbol for t in outgoing_transitions(w)} == expected, w.to_text()
                assert sum(gaps) == L - n


def test_the_lattice_must_hold_its_bullets():
    """A run starts at tau_zero(L, n), which needs 1 <= n <= L."""
    with pytest.raises(ValueError, match="1 <= n <= L"):
        simulate(1, 2, RP42, seed=1, events=50)


def _reference_estimates(ledger, state):
    """`estimate_observables` as it stood while it built its (entries x
    batches) array one ledger slice at a time."""
    L, n, bt = ledger.L, ledger.n, ledger.batch_time
    rows = []
    for i in range(n):
        for j in range(L):
            rows.append(("current", "bullet_edge_current", (i + 1, j + 1), ledger.bullet_edge[:, i, j]))
        rows.append(("current", "bullet_row_current", (i + 1,), ledger.bullet_edge[:, i, :].sum(axis=1)))
        rows.append(("current", "box_vertical_up", (i + 1,), ledger.row_up[:, i]))
        rows.append(("current", "box_vertical_down", (i + 1,), ledger.row_down[:, i]))
        rows.append(("current", "box_vertical_net", (i + 1,), ledger.row_up[:, i] - ledger.row_down[:, i]))
        rows.append(("current", "box_row_current", (i + 1,), ledger.box_edge[:, i, :].sum(axis=1) / L))
    for j in range(L):
        rows.append(("current", "box_column_current", (j + 1,), ledger.box_edge[:, :, j].sum(axis=1) + ledger.box_jump[:, j]))
    for species, name in ((0, "bullet_density"), (1, "box_density")):
        for i in range(n):
            for j in range(L):
                rows.append(("density", name, (i + 1, j + 1), state.occupancy[:, species, i, j]))
    counts = np.array([row[3] for row in rows], dtype=np.float64)
    values = counts.sum(axis=1) / state.elapsed
    valid = bt > 0
    num_valid = int(valid.sum())
    if num_valid >= 2:
        stderrs = np.std(np.ascontiguousarray(counts[:, valid]) / bt[valid], axis=1, ddof=1) / math.sqrt(num_valid)
    else:
        stderrs = np.full(len(rows), np.inf)
    low = num_valid < 20
    if low:
        stderrs[np.isfinite(stderrs)] *= 2.0
    tables = {"current": {}, "density": {}}
    for (group, name, index, _), value, stderr in zip(rows, values.tolist(), stderrs.tolist()):
        tables[group][(name, index)] = mcmc.EstimatedValue(value, stderr, low)
    return mcmc.EstimateReport(L, n, state.elapsed, state.batches, tables["current"], tables["density"])


@pytest.mark.parametrize(
    "L,n,rates,horizon,batches",
    [
        (40, 5, "1,3/2,2,5/4,1;1/2,1/4,1/3,1/5,1/2", {"events": 2000}, 20),
        (6, 3, "1,3/2,2;1/2,1/3,1/5", {"events": 3000}, 7),
        (5, 1, "2;1", {"time_horizon": 5.0}, 3),
        (9, 4, "1,2,3,4;4,3,2,1", {"time_horizon": 3.0}, 40),
        (4, 2, "1,2;0,3", {"events": 50}, 50),
        (7, 3, "1,1,1;1,1,1", {"events": 100}, 1),
    ],
)
def test_estimates_from_ledger_blocks_equal_the_slice_by_slice_build(L, n, rates, horizon, batches):
    """Float for float, in value, error and flag, on runs with fewer than
    two, fewer than 20 and at least 20 slabs."""
    for seed in range(3):
        state, ledger = simulate(L, n, RatePoint.parse(rates), seed=seed, batches=batches, **horizon)
        assert estimate_observables(ledger, state) == _reference_estimates(ledger, state)
