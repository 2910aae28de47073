"""Conflict rules of the simulator: figure-eight yields, merge collisions and
merge yields on hand-built states, and the simulator against the scalar
scans in `scalar_sim` (exact equality) on drawn and driven states."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_sim as scalar
from cavlab import sim
from cavlab.errors import InvalidSpec
from cavlab.idm import IdmParams, accel_from_speed
from cavlab.networks import FigureEightSpec, MergeSpec, RingSpec
from cavlab.sim import (HUMAN_DECEL_LIMIT, VehicleKind, VehicleState,
                        _figure_eight_yield_accel, _merge_yield_accel, _zone_summary,
                        build_network, detect_collision, step)

QUIET = IdmParams(noise_mag=0.0)


def hand_state(spec, placements, kinds=None):
    """A noise-free state holding one vehicle per (route_id, route_pos, speed)."""
    state = build_network(spec, 0 if isinstance(spec, MergeSpec) else 1, 0, seed=0,
                          idm=QUIET)
    kinds = kinds or [VehicleKind.HUMAN] * len(placements)
    state.vehicles = [VehicleState(id=i, kind=kind, route_id=r, route_pos=p, speed=s)
                      for i, ((r, p, s), kind) in enumerate(zip(placements, kinds))]
    state.next_id = len(placements)  # merge spawns take fresh ids
    return state


def yield_accel(state, vid):
    return _figure_eight_yield_accel(state, state.find(vid), _zone_summary(state))


# ---------------------------------------------------------------------------
# figure-eight yield (zone [0, 10) on both loops, window 20)

EIGHT = FigureEightSpec()
L8 = EIGHT.loop_length(0)


def test_yield_to_vehicle_inside_other_zone():
    state = hand_state(EIGHT, [(0, L8 - 15.0, 5.0), (1, 5.0, 5.0)])
    dz = (0.0 - (L8 - 15.0)) % L8
    expected = accel_from_speed(5.0, dz, 0.0, QUIET)
    assert yield_accel(state, 0) == expected < 0.0
    assert yield_accel(state, 1) is None  # a vehicle inside the zone never yields
    # the step applies the yield: the lone vehicle's free-road IDM is positive
    free = accel_from_speed(5.0, 1e9, 5.0, QUIET)
    _, info = step(state, {}, 0.1)
    assert info.accels[0] == max(min(free, expected), -HUMAN_DECEL_LIMIT)


def test_yield_to_closer_approaching_vehicle():
    state = hand_state(EIGHT, [(0, L8 - 15.0, 5.0), (1, L8 - 10.0, 5.0)])
    assert yield_accel(state, 0) is not None
    assert yield_accel(state, 1) is None


def test_exact_distance_tie_goes_to_loop_zero():
    state = hand_state(EIGHT, [(0, L8 - 15.0, 5.0), (1, L8 - 15.0, 5.0)])
    assert yield_accel(state, 0) is None
    assert yield_accel(state, 1) is not None


def test_no_yield_beyond_window():
    state = hand_state(EIGHT, [(0, L8 - 25.0, 5.0), (1, 5.0, 5.0)])
    assert yield_accel(state, 0) is None
    state = hand_state(FigureEightSpec(yield_window=30.0),
                       [(0, L8 - 25.0, 5.0), (1, 5.0, 5.0)])
    assert yield_accel(state, 0) is not None


# ---------------------------------------------------------------------------
# merge collisions and yields (ramp 100 m, merge point 400 m)

MERGE = MergeSpec()


@pytest.mark.parametrize("placements, collided", [
    ([(0, 100.0, 10.0), (0, 103.0, 10.0)], True),     # main-lane overlap
    ([(0, 100.0, 10.0), (0, 106.0, 10.0)], False),
    ([(1, 20.0, 10.0), (1, 23.0, 10.0)], True),       # ramp-lane overlap
    ([(1, 20.0, 10.0), (1, 26.0, 10.0)], False),
    ([(0, 350.0, 10.0), (1, 50.0, 10.0)], False),     # ramp beside main
    ([(0, 401.0, 10.0), (1, 102.0, 10.0)], True),     # cross-origin, past the merge
    ([(0, 396.0, 10.0), (1, 102.0, 10.0)], False),
])
def test_merge_collisions(placements, collided):
    state = hand_state(MERGE, placements)
    assert detect_collision(state) is collided
    assert scalar.detect_collision(state) is collided


def test_spawns_take_ids_above_hand_placed_vehicles():
    # next_id is left at 0 while vehicles 0 and 1 are on the road; both lanes
    # have an arrival due at the first step and a free entry
    state = hand_state(MERGE, [(0, 100.0, 10.0), (1, 60.0, 10.0)])
    state.next_id = 0
    state, info = step(state, {}, 0.1)
    assert sorted(info.spawned) == [2, 3]
    ids = [v.id for v in state.vehicles]
    assert len(set(ids)) == len(ids) == 4


def test_duplicate_vehicle_ids_rejected():
    state = hand_state(MERGE, [(0, 100.0, 10.0), (0, 200.0, 10.0)])
    state.vehicles[1].id = 0
    with pytest.raises(InvalidSpec, match="duplicate vehicle ids"):
        step(state, {}, 0.1)


def test_ramp_vehicle_brakes_for_short_follower_headway():
    # 10 m before the ramp end; the main-lane follower is level with it
    state = hand_state(MERGE, [(1, 90.0, 5.0), (0, 385.0, 20.0)])
    ya = _merge_yield_accel(state, state.vehicles[0])
    assert ya == accel_from_speed(5.0, 10.0, 0.0, QUIET) < 0.0
    _, info = step(state, {}, 0.1)
    assert info.accels[0] == max(ya, -HUMAN_DECEL_LIMIT)
    # a follower far enough back grants the slot: free-road acceleration
    state = hand_state(MERGE, [(1, 90.0, 5.0), (0, 200.0, 20.0)])
    assert _merge_yield_accel(state, state.vehicles[0]) is None
    _, info = step(state, {}, 0.1)
    assert info.accels[0] > 0.0


# ---------------------------------------------------------------------------
# one leader pass per post-step state


@pytest.mark.parametrize("spec, n_human, n_cav", [
    (RingSpec(), 6, 4), (FigureEightSpec(), 6, 4), (MergeSpec(cav_fraction=0.5), 0, 0)])
def test_step_orders_each_state_once(monkeypatch, spec, n_human, n_cav):
    state = build_network(spec, n_human, n_cav, seed=0)
    for _ in range(50):  # merge traffic spawns
        state, _ = step(state, {v.id: 0.0 for v in state.cavs()}, 0.1)
    calls = []
    leaders = sim.compute_leaders

    def counted(s):
        calls.append(1)
        return leaders(s)

    def forbidden(s):
        raise AssertionError("step must not call detect_collision")

    monkeypatch.setattr(sim, "compute_leaders", counted)
    monkeypatch.setattr(sim, "detect_collision", forbidden)
    for k in range(1, 11):
        state, _ = step(state, {v.id: 0.0 for v in state.cavs()}, 0.1)
        assert len(calls) == 2 * k
    assert state.vehicles


# ---------------------------------------------------------------------------
# against the scalar scans

KINDS = st.sampled_from(list(VehicleKind))


def grid_positions(length, marks):
    """Route positions in [0, length), often on marks that tie or touch."""
    return st.one_of(st.floats(0.0, length, exclude_max=True),
                     st.sampled_from([m for m in marks if 0.0 <= m < length]))


def assert_step_matches(state, data):
    actions = {v.id: data.draw(st.floats(-3.0, 3.0)) for v in state.cavs()}
    state, info = step(state, actions, 0.1)
    assert info.collided is scalar.detect_collision(state)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ring_matches_scalar(data):
    length = data.draw(st.sampled_from([230.0, 100.0, 1e3 / 3.0]))
    marks = [0.0, 5.0, 5.0 + 1e-9, 10.0, 50.0, length - 5.0, length - 2.5]
    n = data.draw(st.integers(1, 8))
    state = hand_state(RingSpec(length=length),
                       [(0, data.draw(grid_positions(length, marks)), data.draw(st.floats(0, 15)))
                        for _ in range(n)],
                       data.draw(st.lists(KINDS, min_size=n, max_size=n)))
    assert detect_collision(state) is scalar.detect_collision(state)
    assert_step_matches(state, data)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_figure_eight_matches_scalar(data):
    radii = data.draw(st.sampled_from([EIGHT.loop_radius, (20.0, 25.0)]))
    spec = FigureEightSpec(loop_radius=radii, yield_window=data.draw(
        st.sampled_from([0.0, 20.0, 60.0])))
    lengths = [spec.loop_length(r) for r in (0, 1)]
    n = data.draw(st.integers(1, 8))
    placements = []
    for _ in range(n):
        r = data.draw(st.integers(0, 1))
        L = lengths[r]
        marks = [0.0, 5.0, 10.0 - 1e-9, 10.0, L - 10.0, L - 15.0, L - 20.0, L - 60.0]
        placements.append((r, data.draw(grid_positions(L, marks)), data.draw(st.floats(0, 15))))
    state = hand_state(spec, placements, data.draw(st.lists(KINDS, min_size=n, max_size=n)))
    assert detect_collision(state) is scalar.detect_collision(state)
    zones = _zone_summary(state)
    for v in state.vehicles:
        assert (_figure_eight_yield_accel(state, v, zones)
                == scalar.figure_eight_yield_accel(state, v))
    assert_step_matches(state, data)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_merge_matches_scalar(data):
    n = data.draw(st.integers(0, 8))
    placements = []
    for _ in range(n):
        r = data.draw(st.integers(0, 1))
        if r == 0:
            marks = [0.0, 100.0, 105.0, 350.0, 395.0, 400.0, 402.0, 405.0, 499.0]
        else:  # ramp positions: on the ramp, at its end, past the merge point
            marks = [20.0, 25.0, 50.0, 95.0, 100.0, 102.0, 105.0, 150.0]
        L = sim.route_length(hand_state(MERGE, []), r)
        placements.append((r, data.draw(grid_positions(L, marks)), data.draw(st.floats(0, 15))))
    state = hand_state(MERGE, placements, data.draw(st.lists(KINDS, min_size=n, max_size=n)))
    assert detect_collision(state) is scalar.detect_collision(state)
    assert_step_matches(state, data)


@pytest.mark.parametrize("spec, n_human, n_cav", [
    (FigureEightSpec(), 10, 4), (MergeSpec(cav_fraction=0.3, inflow_ramp=600.0), 0, 0)])
def test_driven_episode_matches_scalar(spec, n_human, n_cav):
    state = build_network(spec, n_human, n_cav, seed=5, idm=IdmParams(noise_mag=0.3))
    rng = np.random.default_rng(1)
    yielded = 0
    for _ in range(600):
        if isinstance(spec, FigureEightSpec):
            zones = _zone_summary(state)
            for v in state.vehicles:
                expected = scalar.figure_eight_yield_accel(state, v)
                assert _figure_eight_yield_accel(state, v, zones) == expected
                yielded += expected is not None
        state, info = step(state, {v.id: float(rng.uniform(-3.0, 3.0))
                                   for v in state.cavs()}, 0.1)
        assert info.collided is scalar.detect_collision(state)
        if state.collided:
            break
    assert yielded > 0 or isinstance(spec, MergeSpec)
