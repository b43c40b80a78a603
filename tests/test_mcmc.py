from fractions import Fraction

import numpy as np
import pytest

from torus_asep.dynamics import build_generator, displacement_crossings, outgoing_transitions
from torus_asep.mcmc import (
    estimate_observables,
    run_manifest,
    simulate,
    tv_distance,
)
from torus_asep.model import iter_restricted
from torus_asep.observables import closed_box_density, closed_currents
from torus_asep.stationary import exact_stationary
from torus_asep.symbolic import RatePoint

RP42 = RatePoint((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))


def test_determinism():
    s1, l1 = simulate(4, 2, RP42, seed=42, events=4000)
    s2, l2 = simulate(4, 2, RP42, seed=42, events=4000)
    assert s1.word == s2.word and s1.elapsed == s2.elapsed and s1.events == s2.events
    for a, b in ((l1.bullet_edge, l2.bullet_edge), (l1.box_edge, l2.box_edge),
                 (l1.box_jump, l2.box_jump), (l1.row_up, l2.row_up)):
        assert (a == b).all()
    s3, _ = simulate(4, 2, RP42, seed=43, events=4000)
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
    state, _ = simulate(2, 1, RatePoint((Fraction(1),), (Fraction(1),)), seed=7, events=20000)
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


def test_tv_distance_decreases_with_run_length():
    gen = build_generator(4, 2)
    table = exact_stationary(gen, RP42)
    exact = {w.letters: p for w, p in zip(table.states, table.probabilities)}
    small, _ = simulate(4, 2, RP42, seed=11, events=10_000)
    large, _ = simulate(4, 2, RP42, seed=11, events=100_000)
    tv_small = tv_distance(small, exact)
    tv_large = tv_distance(large, exact)
    assert tv_large < tv_small < 0.2


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
    for i in (1, 2):
        ref = float(closed_box_density(4, 2, i, RP42))
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
    total = ledger.box_column(1)
    assert isinstance(total, int)


def test_low_batch_flagging():
    state, ledger = simulate(4, 2, RP42, seed=2, events=1000, batches=5)
    report = estimate_observables(ledger, state)
    est = report.current("bullet_row_current", 1)
    assert est.low_batches


def test_simulation_with_vanishing_backward_rates():
    """With q_1 = 0 the run stays inside the surviving states and its
    occupancy converges to the restricted stationary law."""
    from torus_asep.dynamics import restrict_ta, ta_membership
    from torus_asep.model import ColoredWord

    rp = RatePoint((Fraction(2), Fraction(3)), (Fraction(0), Fraction(1)))
    states, cert = restrict_ta(4, 2, {1})
    assert cert.ok
    gen = build_generator(4, 2, rates=rp, states=states)
    table = exact_stationary(gen, rp)
    exact = {w.letters: p for w, p in zip(table.states, table.probabilities)}
    state, _ = simulate(4, 2, rp, seed=77, events=200_000)
    for visited in state.state_time:
        assert ta_membership(ColoredWord(2, visited), frozenset({1}))
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
        ({"events": 10, "rates": "1e400,2;3,5"}, ["--events", "10", "--rates", "1e400,2;3,5"]),
        ({"events": 10, "rates": "1,2;3,1e-400"}, ["--events", "10", "--rates", "1,2;3,1e-400"]),
    ],
    ids=["events0", "events-neg", "batches>events", "horizon-neg", "horizon0", "horizon-nan",
         "horizon-inf", "rate-overflow", "rate-underflow"],
)
def test_bad_run_length_or_rates_rejected(kwargs, cli_args, capsys):
    from torus_asep.cli import main

    kwargs = dict(kwargs)
    rates = RatePoint.parse(kwargs.pop("rates", "1,2;3,5"))
    with pytest.raises(ValueError):
        simulate(4, 2, rates, seed=1, **kwargs)
    if "--rates" not in cli_args:
        cli_args = cli_args + ["--rates", "1,2;3,5"]
    assert main(["simulate", "--L", "4", "--n", "2", "--seed", "1", *cli_args]) == 2
    assert "error" in capsys.readouterr().err
