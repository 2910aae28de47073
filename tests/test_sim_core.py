import math
import subprocess
import sys

import numpy as np
import pytest

from cavlab.errors import CapacityExceeded, InvalidSpec, UnknownVehicle
from cavlab.idm import IdmParams, accel_from_speed, equilibrium_speed
from cavlab.networks import FigureEightSpec, MergeSpec, RingSpec
from cavlab.sim import (
    VehicleKind, build_network, cav_pairs, detect_collision, local_observation,
    step, trajectory_rows,
)


def quiet_idm(v0=30.0 / 3.6, noise=0.0):
    return IdmParams(v0=v0, noise_mag=noise)


def drive(state, steps, dt=0.1, accel=0.0):
    infos = []
    for _ in range(steps):
        actions = {v.id: accel for v in state.cavs()}
        state, info = step(state, actions, dt)
        infos.append(info)
        if state.collided:
            break
    return state, infos


# ---------------------------------------------------------------------------
# build_network


def test_ring_build_uniform_spacing():
    state = build_network(RingSpec(length=230.0), n_human=6, n_cav=16, seed=0)
    assert len(state.vehicles) == 22
    assert sum(v.kind is VehicleKind.CAV for v in state.vehicles) == 16
    spacing = 230.0 / 22.0
    for i, v in enumerate(state.vehicles):
        assert v.route_pos == pytest.approx(i * spacing)
        assert v.speed == 0.0


def test_empty_network_rejected():
    with pytest.raises(InvalidSpec):
        build_network(RingSpec(length=230.0), 0, 0, seed=0)


def test_ring_capacity_exceeded():
    # 22 vehicles * 2 m jam gap alone exceeds a 10 m ring
    with pytest.raises(CapacityExceeded):
        build_network(RingSpec(length=10.0), 22, 0, seed=0)


def test_cav_slots_deterministic_in_seed():
    a = build_network(RingSpec(), 10, 6, seed=3)
    b = build_network(RingSpec(), 10, 6, seed=3)
    c = build_network(RingSpec(), 10, 6, seed=4)
    kinds_a = [v.kind for v in a.vehicles]
    assert kinds_a == [v.kind for v in b.vehicles]
    assert any(kinds_a != [v.kind for v in c.vehicles] for _ in [0])


def test_merge_starts_empty():
    state = build_network(MergeSpec(), 0, 0, seed=0)
    assert state.vehicles == []
    with pytest.raises(InvalidSpec):
        build_network(MergeSpec(), 1, 0, seed=0)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        build_network(RingSpec(length=-5.0), 1, 0, seed=0)
    with pytest.raises(InvalidSpec):
        MergeSpec(merge_point=600.0).validate()


# ---------------------------------------------------------------------------
# step


def test_all_zero_fixed_point():
    # zero speeds and zero commanded accels: humans at huge gaps still get
    # IDM accel, so use an all-CAV ring to isolate the Euler fixed point
    state = build_network(RingSpec(), 0, 4, seed=0, idm=quiet_idm())
    positions = [v.route_pos for v in state.vehicles]
    state, _ = drive(state, 5, accel=0.0)
    assert [v.route_pos for v in state.vehicles] == positions
    assert all(v.speed == 0.0 for v in state.vehicles)


def test_cav_command_clamped():
    state = build_network(RingSpec(), 0, 2, seed=0, idm=quiet_idm())
    state, info = step(state, {v.id: 10.0 for v in state.cavs()}, 0.1)
    assert np.all(info.accels == 3.0)
    state, info = step(state, {v.id: -50.0 for v in state.cavs()}, 0.1)
    assert np.all(info.accels == -3.0)
    cavs = state.cavs()
    for command, applied in ((np.inf, 3.0), (-np.inf, -3.0), (3.0, 3.0), (-3.0, -3.0),
                             (np.float64(2.5), 2.5)):
        state, info = step(state, {v.id: command for v in cavs}, 0.1)
        assert np.all(info.accels == applied)
        assert all(type(v.last_accel) is float for v in cavs)
    state, info = step(state, {cavs[0].id: np.nan, cavs[1].id: 0.0}, 0.1)
    assert np.isnan(info.accels[0]) and info.accels[1] == 0.0


def test_speed_never_negative():
    state = build_network(RingSpec(), 0, 3, seed=1, idm=quiet_idm())
    for _ in range(50):
        state, info = step(state, {v.id: -3.0 for v in state.cavs()}, 0.1)
        assert np.all(info.speeds >= 0.0)


def test_equilibrium_persistence():
    # noise-free uniform ring at the analytic equilibrium speed stays uniform
    idm = quiet_idm()
    state = build_network(RingSpec(length=230.0), 22, 0, seed=0, idm=idm)
    gap = 230.0 / 22.0 - state.options.vehicle_length
    v_e = equilibrium_speed(gap, idm)
    for v in state.vehicles:
        v.speed = v_e
    worst = 0.0
    for _ in range(1000):
        state, info = step(state, {}, 0.1)
        worst = max(worst, float(np.max(np.abs(info.speeds - v_e))))
    assert worst < 1e-9


def test_equilibrium_speed_is_next_to_the_root():
    # the bisection runs until no double lies between its bracket's ends: the
    # residual changes sign between the result and one of its neighbours
    idm = quiet_idm()
    for gap in (230.0 / 22.0 - 5.0, 2.0 + 1e-9, 3.0, 40.0, 400.0):
        v = equilibrium_speed(gap, idm)
        assert 0.0 < v < idm.v0
        residual = [accel_from_speed(u, gap, u, idm)
                    for u in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]
        assert residual[0] > 0.0 >= residual[2]
        assert (residual[0] > 0.0 >= residual[1]) or (residual[1] > 0.0 >= residual[2])


def test_import_leaves_scipy_out():
    out = subprocess.run([sys.executable, "-c",
                          "import sys, cavlab; print('scipy' in sys.modules)"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_no_passing_on_ring():
    state = build_network(RingSpec(), 8, 4, seed=7, idm=quiet_idm(noise=0.2))
    order0 = _cyclic_order(state)
    rng = np.random.default_rng(0)
    for _ in range(300):
        actions = {v.id: float(rng.uniform(-3, 3)) for v in state.cavs()}
        state, _ = step(state, actions, 0.1)
        if state.collided:
            break
        assert _cyclic_order(state) == order0


def _cyclic_order(state):
    order = sorted(state.vehicles, key=lambda v: v.route_pos)
    ids = [v.id for v in order]
    k = ids.index(min(ids))
    return ids[k:] + ids[:k]


def test_vehicle_count_conserved_on_ring():
    state = build_network(RingSpec(), 10, 2, seed=0)
    state, infos = drive(state, 200)
    assert all(len(i.vehicle_ids) == 12 for i in infos)


# ---------------------------------------------------------------------------
# collisions


def _two_vehicle_state(pos_a, pos_b, length=230.0):
    state = build_network(RingSpec(length=length), 2, 0, seed=0)
    state.vehicles[0].route_pos = pos_a
    state.vehicles[1].route_pos = pos_b
    return state


def test_identical_positions_collide():
    assert detect_collision(_two_vehicle_state(50.0, 50.0))


def test_uniform_ring_no_collision():
    state = build_network(RingSpec(), 11, 11, seed=0)
    assert not detect_collision(state)


def test_figure_eight_conflict_zone_collision():
    spec = FigureEightSpec()
    state = build_network(spec, 4, 0, seed=0)
    # hand-place one vehicle from each loop inside its conflict zone
    a = next(v for v in state.vehicles if v.route_id == 0)
    b = next(v for v in state.vehicles if v.route_id == 1)
    a.route_pos = 5.0
    b.route_pos = 5.0
    assert detect_collision(state)
    # a single occupied zone is not a collision
    b.route_pos = 60.0
    a_clear = detect_collision(state)
    assert not a_clear


# ---------------------------------------------------------------------------
# observations


def test_symmetric_ring_observations_identical():
    state = build_network(RingSpec(length=240.0), 0, 6, seed=0, idm=quiet_idm())
    for v in state.vehicles:
        v.speed = 4.0
    target = 8.0
    # a scan over the whole ring: every CAV sees its neighbours 40 m away
    obs = local_observation(state, [v.id for v in state.vehicles], target, 240.0)
    assert obs.shape == (6, 6)
    spacing = 240.0 / 6.0
    for o, v in zip(obs, state.vehicles):
        assert o[0] == pytest.approx(4.0 / 8.0)
        assert o[1] == pytest.approx(v.route_pos / 240.0)
        assert o[2] == 0.0 and o[4] == 0.0
        assert o[3] == pytest.approx(spacing / 240.0)
        assert o[5] == pytest.approx(spacing / 240.0)


def test_three_cav_ring_hand_computed():
    state = build_network(RingSpec(length=100.0), 0, 3, seed=0, idm=quiet_idm())
    va, vb, vc = state.vehicles
    va.route_pos, vb.route_pos, vc.route_pos = 10.0, 30.0, 75.0
    va.speed, vb.speed, vc.speed = 2.0, 5.0, 1.0
    target = 10.0
    o = local_observation(state, [va.id], target, 100.0)[0]   # the whole ring in range
    # leader of a is b: dist 20, rel speed +3; follower is c: dist 35, rel -1
    assert o.tolist() == pytest.approx([0.2, 0.1, 0.3, 0.2, -0.1, 0.35])


def test_single_cav_gets_sentinels():
    state = build_network(RingSpec(), 5, 1, seed=0)
    cav = state.cavs()[0]
    o = local_observation(state, [cav.id], 8.0, 60.0)[0]
    assert o[2] == 0.0 and o[3] == 1.0 and o[4] == 0.0 and o[5] == 1.0


def test_unknown_vehicle_raises():
    state = build_network(RingSpec(), 2, 1, seed=0)
    with pytest.raises(UnknownVehicle, match="not in network"):
        local_observation(state, [999], 8.0, 60.0)
    human = next(v for v in state.vehicles if v.kind is VehicleKind.HUMAN)
    with pytest.raises(UnknownVehicle, match="not a CAV"):
        local_observation(state, [state.cavs()[0].id, human.id], 8.0, 60.0)


# ---------------------------------------------------------------------------
# route distances


def test_ring_distance_wraps():
    state = build_network(RingSpec(length=100.0), 0, 2, seed=0)
    a, b = state.vehicles
    a.route_pos, b.route_pos = 5.0, 95.0
    pairs = cav_pairs(state, 30.0)
    assert pairs.i.tolist() == [0] and pairs.j.tolist() == [1]
    assert pairs.dist[0] == pytest.approx(10.0)
    assert pairs.signed[0, 0] == pytest.approx(10.0)
    assert pairs.signed[1, 0] == pytest.approx(-10.0)
    assert not len(cav_pairs(state, 9.0).i)


def test_figure_eight_cross_loop_distance():
    spec = FigureEightSpec()
    state = build_network(spec, 0, 2, seed=0)
    a = next(v for v in state.vehicles if v.route_id == 0)
    b = next(v for v in state.vehicles if v.route_id == 1)
    a.route_pos, b.route_pos = 15.0, 25.0
    pairs = cav_pairs(state, 40.0)
    assert sorted([pairs.i[0], pairs.j[0]]) == sorted(pairs.ids.index(v.id) for v in (a, b))
    # zone mid = 5.0 on both loops: distances 10 and 20 through the zone
    assert pairs.dist.tolist() == pytest.approx([30.0])
    # a is closer to the zone, so it counts as ahead of b
    a_first = pairs.ids[pairs.i[0]] == a.id
    assert pairs.signed[0 if a_first else 1, 0] == pytest.approx(10.0)
    assert pairs.signed[0, 0] == pytest.approx(-pairs.signed[1, 0])
    assert not len(cav_pairs(state, 29.0).i)


# ---------------------------------------------------------------------------
# merge dynamics


def test_merge_spawns_and_exits():
    idm = quiet_idm(v0=30.0 / 3.6, noise=0.2)
    state = build_network(MergeSpec(), 0, 0, seed=5, idm=idm)
    state, infos = drive(state, 600)
    assert not state.collided
    assert any(i.exited for i in infos)
    assert any(len(i.vehicle_ids) > 0 for i in infos)


def test_merge_determinism():
    runs = []
    for _ in range(2):
        state = build_network(MergeSpec(cav_fraction=0.25), 0, 0, seed=9,
                              idm=quiet_idm(noise=0.2))
        rng = np.random.default_rng(1)
        speeds = []
        for _ in range(300):
            actions = {v.id: float(rng.uniform(-1, 1)) for v in state.cavs()}
            state, info = step(state, actions, 0.1)
            speeds.append(info.speeds.tolist())
            if state.collided:
                break
        runs.append(speeds)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# export


def test_trajectory_rows_shape():
    state = build_network(RingSpec(), 4, 2, seed=0)
    state, infos = drive(state, 10)
    rows = trajectory_rows(infos)
    assert rows[0] == "step,vehicle_id,kind,route_pos,speed,accel"
    assert len(rows) == 1 + 10 * 6


def test_trajectory_roundtrip_exact():
    state = build_network(RingSpec(), 4, 2, seed=0, idm=quiet_idm(noise=0.2))
    state, infos = drive(state, 20)
    rows = trajectory_rows(infos)
    by_step = {}
    for line in rows[1:]:
        s, vid, kind, pos, speed, acc = line.split(",")
        by_step.setdefault(int(s), []).append((int(vid), float(pos), float(speed), float(acc)))
    for info in infos:
        got = by_step[info.time_step]
        for i, (vid, pos, speed, acc) in enumerate(got):
            assert vid == info.vehicle_ids[i]
            assert pos == info.positions[i]
            assert speed == info.speeds[i]
            assert acc == info.accels[i]
