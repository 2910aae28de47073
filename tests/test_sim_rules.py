"""Conflict rules of the simulator: figure-eight yields, merge collisions and
merge yields on hand-built states, and the array step against the
per-vehicle step and scans in `scalar_sim` (bit for bit) on drawn and
driven states."""
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_sim as scalar
from cavlab import sim
from cavlab.errors import InvalidSpec
from cavlab.idm import IdmParams, accel_from_speed
from cavlab.networks import FigureEightSpec, MergeSpec, RingSpec
from cavlab.sim import (HUMAN_DECEL_LIMIT, SimOptions, VehicleKind, VehicleState,
                        build_network, detect_collision, step)

# the step's numpy arithmetic must not warn where Python's float arithmetic is silent
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
    """The scalar rule's yield demand on vehicle `vid` (None: it does not
    yield); the step applies the scalar rules to it."""
    v = state.find(vid)
    _, info = step(copy.deepcopy(state), {c.id: 0.0 for c in state.cavs()}, 0.1)
    applied = info.accels[info.vehicle_ids.index(vid)]
    assert applied == scalar.human_accel(state, v, scalar.compute_leaders(state)[vid])
    return scalar.figure_eight_yield_accel(state, v)


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
    ya = scalar.merge_yield_accel(state, state.vehicles[0])
    assert ya == accel_from_speed(5.0, 10.0, 0.0, QUIET) < 0.0
    _, info = step(state, {}, 0.1)
    assert info.accels[0] == max(ya, -HUMAN_DECEL_LIMIT)
    # a follower far enough back grants the slot: free-road acceleration
    state = hand_state(MERGE, [(1, 90.0, 5.0), (0, 200.0, 20.0)])
    assert scalar.merge_yield_accel(state, state.vehicles[0]) is None
    _, info = step(state, {}, 0.1)
    assert info.accels[0] > 0.0


def test_merge_follower_among_level_vehicles_is_the_first_listed():
    # two main-lane vehicles level 15 m behind a ramp human's bumper: at 5 m/s
    # the slot is safe (15 >= 2 + 2 * 5), at 10 m/s it is not
    slow, fast = (0, 370.0, 5.0), (0, 370.0, 10.0)
    decisions = []
    for mains in ((slow, fast), (fast, slow)):
        state = hand_state(MERGE, [(1, 90.0, 5.0), *mains])
        decisions.append(scalar.merge_yield_accel(state, state.vehicles[0]) is not None)
        oracle = copy.deepcopy(state)
        state, info = step(state, {}, 0.1)
        oracle, expected = scalar.step(oracle, {}, 0.1)
        assert_same_step(state, oracle, info, expected)
    assert decisions == [False, True]


@pytest.mark.parametrize("clamp, speed, leader_pos, command, field, value", [
    # the leader's bumper exactly s0 ahead: the clamp's braking bound is
    # +0.0, and Python's min and max keep their first operand on a tie
    (False, -0.0, 7.0, -0.0, "accels", -0.0),
    (True, -0.0, 7.0, -0.0, "accels", -0.0),
    # a NaN command passes both clamps, and Python's max(0.0, nan) is 0.0
    (False, 5.0, 50.0, math.nan, "speeds", 0.0),
    (True, 5.0, 50.0, math.nan, "speeds", 0.0),
    # the gap over a subnormal speed overflows to +inf (capped), and to -inf
    # behind an overlapping leader; a numpy warning fails the module
    (False, 1e-310, 50.0, 0.0, "cav_time_headways", sim.HEADWAY_CAP),
    (False, 1e-310, 3.0, 0.0, "cav_time_headways", -math.inf),
], ids=["signed-zeros", "signed-zeros-clamp", "nan-command", "nan-command-clamp",
        "subnormal-speed", "subnormal-speed-overlap"])
def test_edge_values_follow_the_scalar_rules(clamp, speed, leader_pos, command, field, value):
    """A CAV at `speed` commanding `command` behind a human at `leader_pos`
    steps as the per-vehicle step does; `field`'s first entry is `value`."""
    state = hand_state(RingSpec(), [(0, 0.0, speed), (0, leader_pos, 0.0)],
                       [VehicleKind.CAV, VehicleKind.HUMAN])
    state.options = SimOptions(safety_clamp=clamp)
    oracle = copy.deepcopy(state)
    state, info = step(state, {0: command}, 0.1)
    oracle, expected = scalar.step(oracle, {0: command}, 0.1)
    assert_same_step(state, oracle, info, expected)
    assert bits(getattr(info, field)[:1]) == bits([value])


# ---------------------------------------------------------------------------
# one leader pass per state


@pytest.mark.parametrize("spec, n_human, n_cav", [
    (RingSpec(), 6, 4), (FigureEightSpec(), 6, 4), (MergeSpec(cav_fraction=0.5), 0, 0)])
def test_step_orders_each_state_once(monkeypatch, spec, n_human, n_cav):
    state = build_network(spec, n_human, n_cav, seed=0)
    for _ in range(50):  # merge traffic spawns
        state, _ = step(state, {v.id: 0.0 for v in state.cavs()}, 0.1)
    calls = []
    leader_pass = sim._leader_pass

    def counted(*args):
        calls.append(1)
        return leader_pass(*args)

    def forbidden(s):
        raise AssertionError("step must not call compute_leaders or detect_collision")

    monkeypatch.setattr(sim, "_leader_pass", counted)
    monkeypatch.setattr(sim, "compute_leaders", forbidden)
    monkeypatch.setattr(sim, "detect_collision", forbidden)
    for k in range(1, 11):
        state, _ = step(state, {v.id: 0.0 for v in state.cavs()}, 0.1)
        assert len(calls) == 2 * k
    assert state.vehicles


# ---------------------------------------------------------------------------
# against the per-vehicle step

KINDS = st.sampled_from(list(VehicleKind))


def grid_positions(length, marks):
    """Route positions in [0, length), often on marks that tie or touch."""
    return st.one_of(st.floats(0.0, length, exclude_max=True),
                     st.sampled_from([m for m in marks if 0.0 <= m < length]))


def speeds():
    """Any speed in [0, 15] m/s, subnormals included, and -0.0."""
    return st.one_of(st.floats(0.0, 15.0), st.just(-0.0))


def commands():
    """Any command in [-4, 4] m/s^2 (past the actuation bounds), subnormals
    included, and -0.0."""
    return st.one_of(st.floats(-4.0, 4.0), st.just(-0.0))


def bits(values):
    return [float(x).hex() for x in values]


def records(state):
    return [(v.id, v.kind, v.route_id, bits((v.route_pos, v.speed, v.last_accel)))
            for v in state.vehicles]


def assert_same_step(state, oracle, info, expected):
    """Snapshots, records, spawn bookkeeping and the generator state are equal, bit for bit."""
    for name in ("time_step", "vehicle_ids", "kinds", "route_ids", "cav_ids", "collided",
                 "spawned", "exited"):
        assert getattr(info, name) == getattr(expected, name), name
    for name in ("positions", "speeds", "accels", "cav_time_headways", "cav_accels"):
        assert bits(getattr(info, name)) == bits(getattr(expected, name)), name
    assert records(state) == records(oracle)
    for name in ("time_step", "sim_time", "collided", "next_id", "next_due_main",
                 "next_due_ramp", "pending_main", "pending_ramp"):
        assert getattr(state, name) == getattr(oracle, name), name
    assert state.rng.bit_generator.state == oracle.rng.bit_generator.state


def assert_leaders_match(state):
    leaders, expected = sim.compute_leaders(state), scalar.compute_leaders(state)
    assert leaders.keys() == expected.keys()
    for vid, (lead, gap) in expected.items():
        assert leaders[vid][0] is lead and bits([leaders[vid][1]]) == bits([gap])


def assert_step_matches(state, data, steps=3):
    """From a drawn state, under drawn options, noise and actions, the step
    equals the per-vehicle step for a few steps, bit for bit."""
    state.options = SimOptions(safety_clamp=data.draw(st.booleans()),
                               noise_dist=data.draw(st.sampled_from(["uniform", "gaussian"])))
    state.idm = IdmParams(noise_mag=data.draw(st.sampled_from([0.0, 0.2, 2.0])))
    oracle = copy.deepcopy(state)
    for _ in range(steps):
        assert_leaders_match(state)
        actions = {v.id: data.draw(commands()) for v in state.cavs()}
        state, info = step(state, actions, 0.1)
        oracle, expected = scalar.step(oracle, actions, 0.1)
        assert_same_step(state, oracle, info, expected)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ring_matches_scalar(data):
    length = data.draw(st.sampled_from([230.0, 100.0, 1e3 / 3.0]))
    marks = [0.0, 5.0, 5.0 + 1e-9, 10.0, 50.0, length - 5.0, length - 2.5]
    n = data.draw(st.integers(1, 8))
    state = hand_state(RingSpec(length=length),
                       [(0, data.draw(grid_positions(length, marks)), data.draw(speeds()))
                        for _ in range(n)],
                       data.draw(st.lists(KINDS, min_size=n, max_size=n)))
    assert detect_collision(state) is scalar.detect_collision(state)
    assert_step_matches(state, data)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_figure_eight_matches_scalar(data):
    radii = data.draw(st.sampled_from([EIGHT.loop_radius, (20.0, 25.0)]))
    zones = data.draw(st.sampled_from([EIGHT.conflict_zone, ((0.0, 10.0), (5.0, 12.0))]))
    spec = FigureEightSpec(loop_radius=radii, conflict_zone=zones, yield_window=data.draw(
        st.sampled_from([0.0, 20.0, 60.0])))
    lengths = [spec.loop_length(r) for r in (0, 1)]
    n = data.draw(st.integers(1, 8))
    placements = []
    for _ in range(n):
        r = data.draw(st.integers(0, 1))
        L = lengths[r]
        marks = [0.0, 5.0, 10.0 - 1e-9, 10.0, 12.0, L - 10.0, L - 15.0, L - 20.0, L - 60.0]
        placements.append((r, data.draw(grid_positions(L, marks)), data.draw(speeds())))
    state = hand_state(spec, placements, data.draw(st.lists(KINDS, min_size=n, max_size=n)))
    assert detect_collision(state) is scalar.detect_collision(state)
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
            marks = [20.0, 25.0, 50.0, 70.0, 95.0, 100.0, 102.0, 105.0, 150.0, 199.0]
        L = sim.route_length(hand_state(MERGE, []), r)
        placements.append((r, data.draw(grid_positions(L, marks)), data.draw(speeds())))
    state = hand_state(MERGE, placements, data.draw(st.lists(KINDS, min_size=n, max_size=n)))
    assert detect_collision(state) is scalar.detect_collision(state)
    assert_step_matches(state, data, steps=5)


def assert_episode_matches(state, steps=600):
    """A driven episode of the step equals the per-vehicle step's, bit for
    bit; returns the yield decisions (figure-eight) and the exits seen."""
    oracle = copy.deepcopy(state)
    rng = np.random.default_rng(1)
    yielded = exited = 0
    for _ in range(steps):
        if isinstance(state.network, FigureEightSpec):
            yielded += sum(scalar.figure_eight_yield_accel(state, v) is not None
                           for v in state.vehicles)
        actions = {v.id: float(rng.uniform(-3.0, 3.0)) for v in state.cavs()}
        state, info = step(state, actions, 0.1)
        oracle, expected = scalar.step(oracle, actions, 0.1)
        assert_same_step(state, oracle, info, expected)
        exited += len(info.exited)
        if state.collided:
            break
    return yielded, exited


@pytest.mark.parametrize("spec, n_human, n_cav", [
    (FigureEightSpec(), 10, 4), (MergeSpec(cav_fraction=0.3, inflow_ramp=600.0), 0, 0)])
def test_driven_episode_matches_scalar(spec, n_human, n_cav):
    state = build_network(spec, n_human, n_cav, seed=5, idm=IdmParams(noise_mag=0.3))
    yielded, exited = assert_episode_matches(state)
    assert yielded > 0 if isinstance(spec, FigureEightSpec) else exited > 0


def test_driven_ring_with_clamp_and_gaussian_noise_matches_scalar():
    state = build_network(RingSpec(length=500.0), 20, 28, seed=5, idm=IdmParams(noise_mag=0.3),
                          options=SimOptions(safety_clamp=True, noise_dist="gaussian"))
    assert_episode_matches(state)
