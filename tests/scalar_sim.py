"""Scalar reference implementations of the simulator's conflict rules.

These are the scans `cavlab` ran before `sim.step` took its collision check
from the post-step leader pass and its figure-eight yields from one zone
summary per state: each route sorted again for the collision check, and
every vehicle of the other loop rescanned for each yield decision. Tests
compare the simulator against them exactly. Nothing in `src/` imports this
module.
"""
from __future__ import annotations

from cavlab.idm import accel_from_speed
from cavlab.networks import FigureEightSpec, MergeSpec, RingSpec
from cavlab.sim import (_MIN_VIRTUAL_GAP, SimState, VehicleState, merge_effective_pos,
                        merge_lane, route_length)


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
