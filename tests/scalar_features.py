"""Scalar reference implementations of the CAV features.

These are the per-pair and per-agent loops that `cavlab` computed its CAV
features with before it derived them from one array pass per step
(`sim.cav_pairs`). Tests compare the array code against them bit for
bit. Nothing in `src/` imports this module.
"""
from __future__ import annotations

import math

import numpy as np

from cavlab.errors import NoAgents, UnknownVehicle
from cavlab.graph import Adjacency, GaussianSpeedField, PositionOnly
from cavlab.networks import FigureEightSpec, MergeSpec
from cavlab.sim import (OBS_DIM, SimState, VehicleKind, VehicleState, merge_effective_pos,
                        route_length)


def _wrap_signed(delta: float, length: float) -> float:
    """Wrap a position difference to (-length/2, length/2].

    A difference already in that interval is returned as it is.
    """
    if -length / 2.0 < delta <= length / 2.0:
        return delta
    d = delta % length
    if d > length / 2.0:
        d -= length
    return d


def _dist_to_zone_mid(net: FigureEightSpec, v: VehicleState) -> float:
    lo, hi = net.conflict_zone[v.route_id]
    mid = 0.5 * (lo + hi)
    return abs(_wrap_signed(mid - v.route_pos, net.loop_length(v.route_id)))


def signed_route_distance(state: SimState, va: VehicleState, vb: VehicleState) -> float:
    """Signed shortest route distance x_a - x_b."""
    net = state.network
    if isinstance(net, MergeSpec):
        return merge_effective_pos(net, va) - merge_effective_pos(net, vb)
    if va.route_id == vb.route_id:
        return _wrap_signed(va.route_pos - vb.route_pos, route_length(state, va.route_id))
    return _dist_to_zone_mid(net, vb) - _dist_to_zone_mid(net, va)


def route_distance(state: SimState, va: VehicleState, vb: VehicleState) -> float:
    net = state.network
    if isinstance(net, FigureEightSpec) and va.route_id != vb.route_id:
        return _dist_to_zone_mid(net, va) + _dist_to_zone_mid(net, vb)
    return abs(signed_route_distance(state, va, vb))


def cav_neighbors(state: SimState, ego: VehicleState, scan_scale: float | None = None):
    """Nearest CAV ahead and behind the ego along its driving path."""
    limit = math.inf if scan_scale is None else scan_scale
    net = state.network
    if isinstance(net, MergeSpec):
        eff = merge_effective_pos(net, ego)
        others = [(merge_effective_pos(net, w), w) for w in state.vehicles
                  if w.kind is VehicleKind.CAV and w.id != ego.id]
        ahead = [(e - eff, w) for e, w in others if e > eff and e - eff <= limit]
        behind = [(eff - e, w) for e, w in others if e <= eff and eff - e <= limit]
        leader = min(ahead, key=lambda t: t[0])[1] if ahead else None
        follower = min(behind, key=lambda t: t[0])[1] if behind else None
        return leader, follower

    mates = [w for w in state.vehicles
             if w.kind is VehicleKind.CAV and w.route_id == ego.route_id and w.id != ego.id]
    if not mates:
        return None, None
    L = route_length(state, ego.route_id)
    ahead_d = {w.id: (w.route_pos - ego.route_pos) % L for w in mates}
    behind_d = {w.id: (ego.route_pos - w.route_pos) % L for w in mates}
    leader = min(mates, key=lambda w: ahead_d[w.id])
    follower = min(mates, key=lambda w: behind_d[w.id])
    if ahead_d[leader.id] > limit:
        leader = None
    if behind_d[follower.id] > limit:
        follower = None
    return leader, follower


def local_observation(state: SimState, cav_id: int, target_speed: float,
                      scan_scale: float) -> np.ndarray:
    """One agent's feature vector (see `cavlab.sim.local_observation`)."""
    ego = state.find(cav_id)
    if ego.kind is not VehicleKind.CAV:
        raise UnknownVehicle(f"vehicle {cav_id} is not a CAV")
    L = route_length(state, ego.route_id)
    obs = np.empty(OBS_DIM)
    obs[0] = ego.speed / target_speed
    obs[1] = ego.route_pos / L

    leader, follower = cav_neighbors(state, ego, scan_scale)
    for slot, nb, ahead in ((2, leader, True), (4, follower, False)):
        if nb is None:
            obs[slot] = 0.0
            obs[slot + 1] = 1.0
        else:
            if isinstance(state.network, MergeSpec):
                dist = abs(merge_effective_pos(state.network, nb)
                           - merge_effective_pos(state.network, ego))
            elif ahead:
                dist = (nb.route_pos - ego.route_pos) % L
            else:
                dist = (ego.route_pos - nb.route_pos) % L
            obs[slot] = (nb.speed - ego.speed) / target_speed
            obs[slot + 1] = dist / L
    return obs


def _entry(state: SimState, scheme, vi, vj, dist: float) -> float:
    if isinstance(scheme, GaussianSpeedField):
        k = math.exp(-(dist * dist) / (2.0 * scheme.kernel.length_scale ** 2))
        return k * (vj.speed - vi.speed)
    if isinstance(scheme, PositionOnly):
        return signed_route_distance(state, vi, vj)
    return scheme.target_speed / (vi.speed * abs(vj.speed - vi.speed) + scheme.epsilon)


def adjacency_of(agent_ids: list[int], weights: np.ndarray, mask: np.ndarray) -> Adjacency:
    """The record of a graph given as its dense (N, N) weights and mask."""
    index = np.flatnonzero(mask)
    return Adjacency(agent_ids=agent_ids, index=index, values=weights.ravel()[index])


def build_adjacency(state: SimState, scheme, scan_scale: float) -> Adjacency:
    """Adjacency over the live CAVs, one pair at a time."""
    cavs = [v for v in state.vehicles if v.kind is VehicleKind.CAV]
    if not cavs:
        raise NoAgents("no CAVs in the network")
    n = len(cavs)
    weights = np.eye(n)
    mask = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            dist = route_distance(state, cavs[i], cavs[j])
            if dist > scan_scale:
                continue
            mask[i, j] = mask[j, i] = True
            weights[i, j] = _entry(state, scheme, cavs[i], cavs[j], dist)
            weights[j, i] = _entry(state, scheme, cavs[j], cavs[i], dist)
    return adjacency_of([v.id for v in cavs], weights, mask)


def receptive_closure(state: SimState, agent_id: int, scan_scale: float,
                      hops: int = 2) -> set[int]:
    """CAV ids that can influence the agent's action, by graph search."""
    cavs = [v for v in state.vehicles if v.kind is VehicleKind.CAV]
    by_id = {v.id: v for v in cavs}
    frontier = {agent_id}
    closure = {agent_id}
    for _ in range(hops):
        new = set()
        for a in frontier:
            va = by_id[a]
            for w in cavs:
                if w.id not in closure and route_distance(state, va, w) <= scan_scale:
                    new.add(w.id)
        closure |= new
        frontier = new
    for a in list(closure):
        leader, follower = cav_neighbors(state, by_id[a], scan_scale)
        for nb in (leader, follower):
            if nb is not None:
                closure.add(nb.id)
    return closure
