"""Scalar reference implementations of the simulator step and its rules.

`step` here is the per-vehicle step `cavlab` ran before `sim.step` became
array code: a dict of leaders from sorted records, the IDM, the yield rules
and the safety clamp evaluated vehicle by vehicle, one noise draw per human.
The collision check scans each route again, and each figure-eight yield
decision rescans the other loop. Tests compare the simulator against these
exactly. Nothing in `src/` imports this module.
"""
from __future__ import annotations

import math

import numpy as np

from cavlab.errors import InvalidSpec, UnknownVehicle
from cavlab.idm import accel_from_speed
from cavlab.networks import FigureEightSpec, MergeSpec, RingSpec
from cavlab.sim import (_MIN_VIRTUAL_GAP, HEADWAY_CAP, HUMAN_DECEL_LIMIT, MERGE_YIELD_HEADWAY,
                        MERGE_YIELD_WINDOW, SimState, StepInfo, VehicleKind, VehicleState,
                        _maybe_spawn, merge_effective_pos, route_length)

Leader = tuple[VehicleState | None, float]


def merge_lane(net: MergeSpec, v: VehicleState) -> str:
    if v.route_id == 1 and v.route_pos < net.ramp_length:
        return "ramp"
    return "main"


def compute_leaders(state: SimState) -> dict[int, Leader]:
    """Physical leader and bumper-to-bumper gap for every vehicle."""
    net = state.network
    length = state.options.vehicle_length
    out: dict[int, Leader] = {}

    if isinstance(net, MergeSpec):
        order = sorted(state.vehicles, key=lambda v: (merge_effective_pos(net, v), v.id))
        effs = [merge_effective_pos(net, v) for v in order]
        lanes = [merge_lane(net, v) for v in order]
        n = len(order)
        for i, v in enumerate(order):
            for j in range(i + 1, n):
                # main traffic has priority and ignores the on-ramp lane;
                # ramp traffic yields, following the projection of any lane
                if lanes[i] != "main" or lanes[j] == "main":
                    out[v.id] = (order[j], effs[j] - effs[i] - length)
                    break
            else:
                out[v.id] = (None, math.inf)
        return out

    routes = {0} if isinstance(net, RingSpec) else {0, 1}
    for rid in routes:
        cars = sorted((v for v in state.vehicles if v.route_id == rid),
                      key=lambda v: (v.route_pos, v.id))
        n = len(cars)
        if n == 1:
            out[cars[0].id] = (None, math.inf)
            continue
        L = route_length(state, rid)
        for i, v in enumerate(cars):
            lead = cars[(i + 1) % n]
            gap = (lead.route_pos - v.route_pos) % L - length
            out[v.id] = (lead, gap)
    return out


def detect_collision(state: SimState) -> bool:
    """True iff any bumper gap is non-positive or a conflict zone is double-occupied."""
    net = state.network
    length = state.options.vehicle_length

    if isinstance(net, MergeSpec):
        for lane in ("main", "ramp"):
            effs = sorted(merge_effective_pos(net, v) for v in state.vehicles
                          if merge_lane(net, v) == lane)
            for a, b in zip(effs, effs[1:]):
                if b - a - length <= 0:
                    return True
        return False

    for rid in ({0} if isinstance(net, RingSpec) else {0, 1}):
        cars = sorted((v for v in state.vehicles if v.route_id == rid),
                      key=lambda v: (v.route_pos, v.id))
        n = len(cars)
        if n < 2:
            continue
        L = route_length(state, rid)
        for i in range(n):
            lead = cars[(i + 1) % n]
            if (lead.route_pos - cars[i].route_pos) % L - length <= 0:
                return True

    if isinstance(net, FigureEightSpec):
        occupied = [False, False]
        for v in state.vehicles:
            lo, hi = net.conflict_zone[v.route_id]
            if lo <= v.route_pos < hi:
                occupied[v.route_id] = True
        if occupied[0] and occupied[1]:
            return True
    return False


def figure_eight_yield_accel(state: SimState, v: VehicleState) -> float | None:
    """IDM braking demand against crossing traffic, one scan of the other loop."""
    net = state.network
    lo, hi = net.conflict_zone[v.route_id]
    if lo <= v.route_pos < hi:
        return None
    L = route_length(state, v.route_id)
    dz = (lo - v.route_pos) % L
    if dz > net.yield_window:
        return None
    other_route = 1 - v.route_id
    olo, ohi = net.conflict_zone[other_route]
    oL = route_length(state, other_route)
    must_yield = False
    for w in state.vehicles:
        if w.route_id != other_route:
            continue
        if olo <= w.route_pos < ohi:
            must_yield = True
            break
        odz = (olo - w.route_pos) % oL
        if odz <= net.yield_window and (odz < dz or (odz == dz and other_route < v.route_id)):
            must_yield = True
            break
    if not must_yield:
        return None
    return accel_from_speed(v.speed, max(dz, _MIN_VIRTUAL_GAP), 0.0, state.idm)


def merge_yield_accel(state: SimState, v: VehicleState) -> float | None:
    """Gap acceptance at the ramp end: stop at the merge if the slot is unsafe."""
    net = state.network
    if merge_lane(net, v) != "ramp":
        return None
    dist_to_end = net.ramp_length - v.route_pos
    if dist_to_end > MERGE_YIELD_WINDOW:
        return None
    eff = merge_effective_pos(net, v)
    idm = state.idm
    follower: VehicleState | None = None
    follower_eff = -math.inf
    for w in state.vehicles:
        if w.id == v.id or merge_lane(net, w) != "main":
            continue
        w_eff = merge_effective_pos(net, w)
        if w_eff <= eff and w_eff > follower_eff:
            follower, follower_eff = w, w_eff
    if follower is None:
        return None
    rear_gap = eff - follower_eff - state.options.vehicle_length
    if rear_gap >= idm.s0 + follower.speed * MERGE_YIELD_HEADWAY:
        return None
    return accel_from_speed(v.speed, max(dist_to_end, _MIN_VIRTUAL_GAP), 0.0, idm)


def human_accel(state: SimState, v: VehicleState, leader: Leader) -> float:
    """Deterministic IDM acceleration for a human driver, incl. yield rules."""
    lead, gap = leader
    if lead is None:
        a = accel_from_speed(v.speed, 1e9, v.speed, state.idm)
    else:
        a = accel_from_speed(v.speed, max(gap, _MIN_VIRTUAL_GAP), lead.speed, state.idm)
    net = state.network
    ya = None
    if isinstance(net, FigureEightSpec):
        ya = figure_eight_yield_accel(state, v)
    elif isinstance(net, MergeSpec):
        ya = merge_yield_accel(state, v)
    if ya is not None:
        a = min(a, ya)
    return max(a, -HUMAN_DECEL_LIMIT)


def interaction_brake(state: SimState, v: VehicleState, leader: Leader) -> float:
    """IDM braking bound w.r.t. the physical leader, with no free-road term."""
    lead, gap = leader
    if lead is None:
        return math.inf
    p = state.idm
    dv = v.speed - lead.speed
    s_star = p.s0 + max(0.0, v.speed * p.T + v.speed * dv / (2.0 * math.sqrt(p.a_max * p.b)))
    return p.a_max * (1.0 - (s_star / max(gap, _MIN_VIRTUAL_GAP)) ** 2)


def draw_noise(state: SimState) -> float:
    mag = state.idm.noise_mag
    if mag == 0.0:
        return 0.0
    if state.options.noise_dist == "uniform":
        return float(state.rng.uniform(-mag, mag))
    return float(state.rng.normal(0.0, mag))


def step(state: SimState, cav_actions: dict[int, float], dt: float) -> tuple[SimState, StepInfo]:
    """Advance one time step in place, vehicle by vehicle."""
    if dt <= 0:
        raise InvalidSpec("dt must be positive")
    opts = state.options
    live_cavs = {v.id for v in state.vehicles if v.kind is VehicleKind.CAV}
    missing = live_cavs - set(cav_actions)
    if missing:
        raise InvalidSpec(f"missing actions for CAVs {sorted(missing)}")
    unknown = set(cav_actions) - live_cavs
    if unknown:
        raise UnknownVehicle(f"actions for non-CAV ids {sorted(unknown)}")
    ids = [v.id for v in state.vehicles]
    if len(set(ids)) != len(ids):
        raise InvalidSpec(f"duplicate vehicle ids in {ids}")
    state.next_id = max(state.next_id, max(ids, default=-1) + 1)

    closed = not isinstance(state.network, MergeSpec)
    lengths = (route_length(state, 0), route_length(state, 1))
    leaders = compute_leaders(state)
    accels: dict[int, float] = {}
    for v in state.vehicles:  # fixed order keeps the noise stream deterministic
        if v.kind is VehicleKind.CAV:
            a = min(max(float(cav_actions[v.id]), opts.cav_accel_min), opts.cav_accel_max)
            if opts.safety_clamp:
                a = min(a, interaction_brake(state, v, leaders[v.id]))
                a = max(a, -HUMAN_DECEL_LIMIT)
        else:
            a = human_accel(state, v, leaders[v.id]) + draw_noise(state)
            a = max(a, -HUMAN_DECEL_LIMIT)
        accels[v.id] = a

    for v in state.vehicles:
        a = accels[v.id]
        v.speed = max(0.0, v.speed + a * dt)
        v.route_pos += v.speed * dt
        v.last_accel = a
        if closed:
            v.route_pos %= lengths[v.route_id]

    state.time_step += 1
    state.sim_time += dt

    spawned: list[int] = []
    exited: list[int] = []
    if not closed:
        exited = [v.id for v in state.vehicles if v.route_pos >= lengths[v.route_id]]
        state.vehicles = [v for v in state.vehicles if v.id not in exited]
        _maybe_spawn(state, spawned)

    if detect_collision(state):
        state.collided = True
    leaders = compute_leaders(state)
    cavs = [v for v in state.vehicles if v.kind is VehicleKind.CAV]
    gaps = [leaders[v.id][1] for v in cavs]
    headways = [HEADWAY_CAP if math.isinf(gap) or v.speed <= 0.0
                else min(gap / v.speed, HEADWAY_CAP) for v, gap in zip(cavs, gaps)]
    vids = [v.id for v in state.vehicles]
    return state, StepInfo(
        time_step=state.time_step,
        vehicle_ids=vids,
        kinds=[v.kind for v in state.vehicles],
        route_ids=[v.route_id for v in state.vehicles],
        positions=np.array([v.route_pos for v in state.vehicles]),
        speeds=np.array([v.speed for v in state.vehicles]),
        accels=np.array([v.last_accel for v in state.vehicles]),
        cav_ids=[v.id for v in cavs],
        cav_time_headways=np.array(headways),
        cav_rows=np.array([vids.index(v.id) for v in cavs], np.intp),
        collided=state.collided,
        spawned=spawned,
        exited=exited,
    )
