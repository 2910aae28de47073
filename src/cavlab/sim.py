"""Microscopic mixed-autonomy traffic simulator.

Human drivers follow the IDM with additive acceleration noise; CAVs apply
externally commanded accelerations clamped to their actuation bounds.
Kinematics are forward-Euler with a speed floor at zero. All randomness
flows through the per-state numpy Generator, so identical (spec, seed,
action sequence) produce bit-identical trajectories.

`step` orders the state twice with `compute_leaders`: before the update
for the IDM, and after it for the collision check and the CAV headways.
A figure-eight step summarizes each loop's conflict zone once per state
(`_zone_summary`: is it occupied, how near is the nearest approach), and
every yield decision and the zone-collision rule read that summary.

CAV features come from one pass per step over the CAVs sorted along their
route: `cav_pairs` lists the pairs within the scan scale, with their signed
route distances, and each CAV's nearest leader and follower, in
O(N log N + E) for E pairs and without an N x N matrix. The adjacency
(`graph`), the observations of all CAVs (`local_observation`) and the
receptive closure (`evaluate`) derive from it. Its arithmetic reproduces
the scalar per-pair rules bit for bit (tests/scalar_features.py keeps them).

`SimOptions` holds what a run config sets; the braking limit, the merge
gap acceptance and the spawn check's reach are module constants.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import CapacityExceeded, InvalidSpec, UnknownVehicle
from .idm import IdmParams, accel_from_speed
from .networks import FigureEightSpec, MergeSpec, RingSpec, RoadNetwork

# Gap fed to the IDM when a (virtual) leader sits numerically on top of the
# ego vehicle; keeps the braking demand finite.
_MIN_VIRTUAL_GAP = 1e-2

HEADWAY_CAP = 100.0
HUMAN_DECEL_LIMIT = 8.0     # also bounds a CAV under the safety clamp
# a ramp vehicle this near the ramp end yields unless the main-lane
# follower keeps s0 plus this time headway behind it
MERGE_YIELD_WINDOW = 30.0
MERGE_YIELD_HEADWAY = 2.0
SPAWN_LOOKAHEAD = 50.0      # how far a merge spawn looks for its leader


class VehicleKind(str, enum.Enum):
    HUMAN = "human"
    CAV = "cav"


@dataclass
class VehicleState:
    id: int
    kind: VehicleKind
    route_pos: float
    speed: float
    last_accel: float = 0.0
    route_id: int = 0


@dataclass(frozen=True)
class SimOptions:
    """Actuation and behavioral constants not owned by the IDM."""

    cav_accel_min: float = -3.0
    cav_accel_max: float = 3.0
    vehicle_length: float = 5.0
    noise_dist: str = "uniform"  # "uniform" or "gaussian"
    # Optional training aid: cap CAV acceleration at the IDM interaction
    # (braking) term w.r.t. the physical leader. Off by default.
    safety_clamp: bool = False

    def validate(self) -> None:
        if self.cav_accel_min >= 0 or self.cav_accel_max <= 0:
            raise InvalidSpec("CAV accel bounds must straddle zero")
        if self.vehicle_length <= 0:
            raise InvalidSpec("vehicle_length must be positive")
        if self.noise_dist not in ("uniform", "gaussian"):
            raise InvalidSpec(f"unknown noise_dist {self.noise_dist!r}")


@dataclass
class StepInfo:
    """Post-step snapshot: kinematics after the Euler update, accels as applied.

    `accels` are the accelerations handed to the integrator (post actuation
    clamp); when the speed floor at 0 engages, the realized dv/dt is smaller
    in magnitude than the recorded value.
    """

    time_step: int
    vehicle_ids: list[int]
    kinds: list[VehicleKind]
    route_ids: list[int]
    positions: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray
    cav_ids: list[int]
    cav_time_headways: np.ndarray  # aligned to cav_ids, capped at HEADWAY_CAP
    collided: bool
    spawned: list[int] = field(default_factory=list)
    exited: list[int] = field(default_factory=list)

    @property
    def cav_accels(self) -> np.ndarray:
        index = {vid: i for i, vid in enumerate(self.vehicle_ids)}
        return self.accels[[index[c] for c in self.cav_ids]]


@dataclass
class SimState:
    network: RoadNetwork
    idm: IdmParams
    options: SimOptions
    time_step: int
    sim_time: float
    vehicles: list[VehicleState]
    rng: np.random.Generator
    collided: bool = False
    # merge spawn bookkeeping
    next_id: int = 0
    next_due_main: float = 0.0
    next_due_ramp: float = 0.0
    pending_main: int = 0
    pending_ramp: int = 0

    def cavs(self) -> list[VehicleState]:
        return [v for v in self.vehicles if v.kind is VehicleKind.CAV]

    def find(self, vehicle_id: int) -> VehicleState:
        for v in self.vehicles:
            if v.id == vehicle_id:
                return v
        raise UnknownVehicle(f"vehicle id {vehicle_id} not in network")


# ---------------------------------------------------------------------------
# Geometry


def route_length(state: SimState, route_id: int) -> float:
    net = state.network
    if isinstance(net, RingSpec):
        return net.length
    if isinstance(net, FigureEightSpec):
        return net.loop_length(route_id)
    if route_id == 0:
        return net.highway_length
    return net.ramp_route_length()


def merge_effective_pos(net: MergeSpec, v: VehicleState) -> float:
    """Project a merge vehicle onto the common highway axis.

    The ramp maps onto a virtual lane running parallel to the highway and
    coinciding with it from the merge point on.
    """
    if v.route_id == 0:
        return v.route_pos
    return net.merge_point - net.ramp_length + v.route_pos


def merge_lane(net: MergeSpec, v: VehicleState) -> str:
    if v.route_id == 1 and v.route_pos < net.ramp_length:
        return "ramp"
    return "main"


@dataclass
class CavPairs:
    """The live CAVs of one step, their in-range pairs and nearest neighbours.

    All CAV features (adjacency, observations, receptive closure) derive
    from this one pass per step, CAVs in vehicle-list order. It lists the
    pairs (i[e], j[e]), i < j, whose route distance `dist[e]` is at most
    `scan_scale`, and no other. `apart[0, e]` is how far j is ahead of i
    and `apart[1, e]` how far behind, inf where it is not on that side;
    `signed` follows from them: the signed shortest route distances
    x_i - x_j and x_j - x_i.
    - same closed route: both ways round the loop; the shorter one is the
      distance, and a half-loop apart counts as behind both ways;
    - figure-eight cross-loop: the path runs through the shared conflict
      zone, so proximity to the zone stands in for position (the CAV closer
      to the zone counts as ahead), and `dist` is the sum of both distances
      to the zone;
    - merge: the difference of effective positions.
    On a closed route a difference that is already the shorter way around
    is used as it is, so `dist` is exactly |x_i - x_j| there, and a pair at
    exactly the scan scale is listed.

    `neighbors[0, i]` is the nearest CAV ahead of CAV i on its driving path
    (its own loop on closed networks) and `neighbors[1, i]` the nearest
    behind it; `gaps` holds their center-to-center distances, inf (and
    column 0) where there is none. Ties go to the first CAV in vehicle-list
    order; on merge a CAV level with i counts as behind it.
    """

    ids: list[int]
    pos: np.ndarray          # (N,) route positions
    speed: np.ndarray        # (N,)
    route_len: np.ndarray    # (N,) length of each CAV's route
    scan_scale: float
    i: np.ndarray            # (E,) columns of the in-range pairs, i < j
    j: np.ndarray            # (E,)
    dist: np.ndarray         # (E,)
    apart: np.ndarray        # (2, E)
    neighbors: np.ndarray    # (2, N) columns of the leader and the follower
    gaps: np.ndarray         # (2, N)

    @property
    def signed(self) -> np.ndarray:
        """(2, E): x_i - x_j and x_j - x_i. Each is +(how far the other CAV
        is behind) when that is the shorter way, else -(how far ahead)."""
        return np.where(self.apart[::-1] <= self.apart, self.apart[::-1], -self.apart)

    @property
    def degree(self) -> np.ndarray:
        """1 + the in-range count of each CAV: the row sums of its neighbour mask."""
        return np.bincount(np.concatenate((self.i, self.j)), minlength=len(self.ids)) + 1


def _line_apart(d: np.ndarray) -> np.ndarray:
    """`CavPairs.apart` of signed differences d = x_i - x_j along a line:
    j is -d ahead, or d behind; level, it is 0 both ways."""
    return np.where(np.stack((d <= 0.0, d >= 0.0)), np.stack((-d, d)), np.inf)


def _wrap(d: np.ndarray, length) -> np.ndarray:
    """Differences `d` moved to (-length/2, length/2]: Python's float
    `d % length` (`np.remainder` gives its bits), less one length when past
    half of it.

    A `d` already inside is kept, so |result| == |d| exactly: reducing it
    could move it by ulps past a scan scale it sits on.
    """
    half = length / 2.0
    reduced = np.remainder(d, length)
    return np.where(np.abs(d) < half, d, reduced - (reduced > half) * length)


# Candidate windows reach this share of the scan scale plus the route's
# length further than they need, which covers every rounding of the
# distance expressions.
_WINDOW_MARGIN = 1e-9
_NO_INDEX = np.iinfo(np.intp).max
_AHEAD_BEHIND = np.array([1.0, -1.0])[:, None, None]


def _route_pass(x: np.ndarray, members: np.ndarray | None, length: float | None,
                scan_scale: float, margin: float):
    """Nearest neighbours and in-range pairs of the CAVs of one route.

    `x` are the positions of the CAVs `members` (all CAVs when None): route
    positions on a loop of `length`, merge effective positions when
    `length` is None. Sorted along the route, each CAV is compared with the
    CAVs within K sorted places either way, in one (2K + 1, m) block whose
    columns are the CAVs in their own order. K covers, for every CAV, the
    CAVs within the scan scale (plus `margin`) ahead of it, and one place
    more on a loop; on the merge, whose leader is the first CAV strictly
    ahead, twice that. Any CAV in range behind a CAV, or any candidate for
    its leader or follower beyond the scan scale, then lies within K places
    too: its own window, or that of the CAV next to it, reaches them.

    On a loop, positions lie in [0, length) (`build_network` and `step` keep
    them there; they are reduced to it first), so a difference
    d = x_j - x_a lies in (-length, length) and d mod length is d, or
    d + length when d < 0: how far j is ahead of a. The route distance is
    the smaller of that and (-d) mod length, and its sign says which way
    round is shorter; these are the values of `np.remainder` and `_wrap`,
    bit for bit. Returns the (2, m) neighbours and gaps and the pairs' i, j, dist
    and apart, all indices into the CAVs of the step.
    """
    m = len(x)
    if length is not None:
        x = np.remainder(x, length)
    order = x.argsort()          # any order of level CAVs does
    xs = x[order]
    rows = np.arange(m)
    rank = order.copy()
    rank[order] = rows
    ext = xs if length is None else np.concatenate((xs, xs + length))
    # one more than the most CAVs any CAV has within the scan scale ahead
    k = max((ext.searchsorted(xs + (scan_scale + margin)) - rows).tolist())
    if length is not None:
        k = min(k, m // 2)
        low = -k + (2 * k == m)        # a half-loop offset once, not twice
        j = order.take(np.arange(low, k + 1)[:, None] + rank, mode="wrap")
        near = _AHEAD_BEHIND * (x[j] - x)     # x_j - x_a, x_a - x_j
        near += (near < 0.0) * length         # np.remainder's bits, faster here
        dist = np.minimum(near[0], near[1])
    else:
        k = min(2 * k, m - 1)
        low = -k
        cols = np.arange(2 * k + 1)[:, None] + rank
        pad, none = np.full(k, np.inf), np.zeros(k, np.intp)
        j = np.concatenate((none, order, none))[cols]
        diff = x - np.concatenate((-pad, xs, pad))[cols]    # x_a - x_j
        dist = np.abs(diff)
        # a candidate is ahead by -diff, or behind by diff (level included)
        near = np.where(np.stack((diff < 0.0, diff >= 0.0)), np.stack((-diff, diff)), np.inf)
    if members is not None:
        j, rows = members[j], members
    # near[0]: how far each candidate is ahead of the CAV, near[1]: behind it.
    # The CAV itself is no candidate; with no candidate at all, column 0.
    near[:, -low] = np.inf
    j[-low] = 0
    gaps = near.min(axis=1)
    neighbors = np.where(near == gaps[:, None], j, _NO_INDEX).min(axis=1)
    o, a = ((rows < j) & (dist <= scan_scale)).nonzero()
    apart = _line_apart(diff[o, a]) if length is None else near[:, o, a]
    return neighbors, gaps, (a if members is None else rows[a], j[o, a], dist[o, a], apart)


def cav_pairs(state: SimState, scan_scale: float) -> CavPairs:
    """In-range CAV pairs and nearest CAV neighbours, from sorted positions.

    The CAVs are sorted along their route (each figure-eight loop on its
    own, the merge by effective position), and each is compared with a
    window of sorted places around it: the CAVs within the scan scale, and
    the nearest ones ahead and behind at any range. The windows reach a
    margin further, which covers rounding, and the distances and the
    scan-scale test are evaluated exactly, so the pairs and neighbours are
    those of an all-pairs comparison, bit for bit. Cross-loop figure-eight
    pairs come from each loop's CAVs sorted by their distance to the zone.
    Costs O(N log N + N K) for a widest window of K places: no N x N matrix.
    """
    net = state.network
    cav = VehicleKind.CAV
    cavs = [v for v in state.vehicles if v.kind is cav]
    n = len(cavs)
    pos = np.fromiter(map(attrgetter("route_pos"), cavs), float, n)
    speed = np.fromiter(map(attrgetter("speed"), cavs), float, n)
    if isinstance(net, RingSpec):
        route_len = np.empty(n)
        route_len.fill(net.length)
        lengths = (net.length,)
    else:
        on_loop1 = np.fromiter(map(attrgetter("route_id"), cavs), np.intp, n) == 1
        lengths = ((net.highway_length, net.ramp_route_length())
                   if isinstance(net, MergeSpec)
                   else (net.loop_length(0), net.loop_length(1)))
        route_len = np.where(on_loop1, lengths[1], lengths[0])
    margin = _WINDOW_MARGIN * (scan_scale + max(lengths))
    if not n:
        neighbors, gaps = np.zeros((2, 0), np.intp), np.zeros((2, 0))
        pairs = (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0), np.zeros((2, 0)))
    elif isinstance(net, RingSpec):
        neighbors, gaps, pairs = _route_pass(pos, None, net.length, scan_scale, margin)
    elif isinstance(net, MergeSpec):
        eff = np.where(on_loop1, (net.merge_point - net.ramp_length) + pos, pos)
        neighbors, gaps, pairs = _route_pass(eff, None, None, scan_scale, margin)
    else:
        neighbors, gaps = np.empty((2, n), np.intp), np.empty((2, n))  # one loop each
        found = [_cross_loop_pairs(net, pos, route_len, on_loop1, scan_scale, margin)]
        for loop, length in enumerate(lengths):
            members = np.flatnonzero(on_loop1 == bool(loop))
            if len(members):
                neighbors[:, members], gaps[:, members], part = _route_pass(
                    pos[members], members, length, scan_scale, margin)
                found.append(part)
        pairs = [np.concatenate(part, axis=-1) for part in zip(*found)]
    i, j, dist, apart = pairs
    return CavPairs(ids=list(map(attrgetter("id"), cavs)), pos=pos, speed=speed,
                    route_len=route_len, scan_scale=scan_scale, i=i, j=j, dist=dist,
                    apart=apart, neighbors=neighbors, gaps=gaps)


def _cross_loop_pairs(net: FigureEightSpec, pos, route_len, on_loop1, scan_scale, margin):
    """In-range figure-eight pairs across the loops: the sum of both distances
    to the zone is at most the scan scale. Loop 1's CAVs are sorted by that
    distance, so each loop-0 CAV's candidates are a prefix of them."""
    mids = [0.5 * (lo + hi) for lo, hi in net.conflict_zone]
    to_mid = np.where(on_loop1, mids[1], mids[0]) - pos
    to_zone = np.abs(_wrap(to_mid, route_len))
    loop0, loop1 = np.flatnonzero(~on_loop1), np.flatnonzero(on_loop1)
    loop1 = loop1[np.argsort(to_zone[loop1], kind="stable")]
    reach = np.searchsorted(to_zone[loop1], (scan_scale + margin) - to_zone[loop0], "right")
    loop1 = loop1[:reach.max(initial=0)]
    dist = to_zone[loop0][:, None] + to_zone[loop1]    # fl(z_i + z_j) is symmetric
    pair = dist <= scan_scale
    a, b = np.nonzero(pair)
    i, j = np.minimum(loop0[a], loop1[b]), np.maximum(loop0[a], loop1[b])
    # the CAV closer to the zone is ahead: x_i - x_j = z_j - z_i
    return i, j, dist[pair], _line_apart(to_zone[j] - to_zone[i])


# ---------------------------------------------------------------------------
# Leader lookup

Leader = tuple[VehicleState | None, float]


def compute_leaders(state: SimState) -> dict[int, Leader]:
    """Physical leader and bumper-to-bumper gap for every vehicle, one pass."""
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


# Per figure-eight loop: (some vehicle is inside the conflict zone, the
# smallest distance (lo - pos) % L from a vehicle of the loop to the zone)
ZoneSummary = tuple[tuple[bool, float], tuple[bool, float]]


def _zone_summary(state: SimState) -> ZoneSummary:
    net = state.network
    inside, nearest = [False, False], [math.inf, math.inf]
    lengths = (net.loop_length(0), net.loop_length(1))
    for v in state.vehicles:
        rid = v.route_id
        lo, hi = net.conflict_zone[rid]
        if lo <= v.route_pos < hi:
            inside[rid] = True
        nearest[rid] = min(nearest[rid], (lo - v.route_pos) % lengths[rid])
    return (inside[0], nearest[0]), (inside[1], nearest[1])


def _figure_eight_yield_accel(state: SimState, v: VehicleState,
                              zones: ZoneSummary) -> float | None:
    """IDM braking demand against crossing traffic at the conflict zone.

    A vehicle approaching within the yield window gives way to any crossing
    vehicle that is inside the zone, or approaching and closer to it (ties
    go to loop 0). Vehicles already inside the zone never yield. `zones`
    is `_zone_summary(state)`: a crossing vehicle that makes v yield exists
    iff the nearest one on the other loop does.
    """
    net = state.network
    lo, hi = net.conflict_zone[v.route_id]
    if lo <= v.route_pos < hi:
        return None
    dz = (lo - v.route_pos) % net.loop_length(v.route_id)
    if dz > net.yield_window:
        return None
    other_route = 1 - v.route_id
    inside, nearest = zones[other_route]
    if not (inside or (nearest <= net.yield_window
                       and (nearest < dz or (nearest == dz and other_route < v.route_id)))):
        return None
    return accel_from_speed(v.speed, max(dz, _MIN_VIRTUAL_GAP), 0.0, state.idm)


def _merge_yield_accel(state: SimState, v: VehicleState) -> float | None:
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


def human_accel(state: SimState, v: VehicleState, leader: Leader,
                zones: ZoneSummary | None) -> float:
    """Deterministic IDM acceleration for a human driver, incl. yield rules.

    `leader` is the vehicle's entry of `compute_leaders(state)`; `zones` is
    `_zone_summary(state)` on a figure-eight and None elsewhere.
    """
    lead, gap = leader
    if lead is None:
        a = accel_from_speed(v.speed, 1e9, v.speed, state.idm)
    else:
        a = accel_from_speed(v.speed, max(gap, _MIN_VIRTUAL_GAP), lead.speed, state.idm)
    net = state.network
    ya = None
    if isinstance(net, FigureEightSpec):
        ya = _figure_eight_yield_accel(state, v, zones)
    elif isinstance(net, MergeSpec):
        ya = _merge_yield_accel(state, v)
    if ya is not None:
        a = min(a, ya)
    return max(a, -HUMAN_DECEL_LIMIT)


def _interaction_brake(state: SimState, v: VehicleState, leader: Leader) -> float:
    """IDM braking bound w.r.t. the physical leader, with no free-road term.

    Used by the optional safety clamp: the CAV may accelerate freely but not
    harder than an IDM driver that ignores its desired-speed preference.
    """
    lead, gap = leader
    if lead is None:
        return math.inf
    p = state.idm
    dv = v.speed - lead.speed
    s_star = p.s0 + max(0.0, v.speed * p.T + v.speed * dv / (2.0 * math.sqrt(p.a_max * p.b)))
    return p.a_max * (1.0 - (s_star / max(gap, _MIN_VIRTUAL_GAP)) ** 2)


# ---------------------------------------------------------------------------
# Construction


def build_network(spec: RoadNetwork, n_human: int, n_cav: int, seed: int,
                  idm: IdmParams | None = None,
                  options: SimOptions | None = None) -> SimState:
    """Initial SimState for a scenario.

    Closed networks place n_human + n_cav vehicles at uniform spacing with
    zero speed; CAV slots are drawn without replacement from the seeded
    generator. Merge networks start empty and spawn from the inflow schedule
    (vehicle counts must be zero).
    """
    spec.validate()
    idm = idm if idm is not None else IdmParams()
    options = options if options is not None else SimOptions()
    idm.validate()
    options.validate()
    if n_human < 0 or n_cav < 0:
        raise InvalidSpec("vehicle counts must be >= 0")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seed)
    state = SimState(network=spec, idm=idm, options=options, time_step=0,
                     sim_time=0.0, vehicles=[], rng=rng)

    if isinstance(spec, MergeSpec):
        if n_human or n_cav:
            raise InvalidSpec("merge networks start empty; set vehicle counts to 0")
        return state

    total = n_human + n_cav
    if total < 1:
        raise InvalidSpec("closed networks need at least one vehicle")
    cav_slots = set(rng.choice(total, size=n_cav, replace=False).tolist()) if n_cav else set()
    min_spacing = options.vehicle_length + idm.s0

    if isinstance(spec, RingSpec):
        spacing = spec.length / total
        if spacing <= min_spacing:
            raise CapacityExceeded(
                f"{total} vehicles at spacing {spacing:.2f} m cannot keep "
                f"positive gaps above the jam distance on a {spec.length} m ring")
        for i in range(total):
            kind = VehicleKind.CAV if i in cav_slots else VehicleKind.HUMAN
            state.vehicles.append(VehicleState(
                id=i, kind=kind, route_pos=i * spacing, speed=0.0, route_id=0))
    else:  # figure eight: alternate loops by index, uniform per loop
        counts = [0, 0]
        for i in range(total):
            counts[i % 2] += 1
        for rid in (0, 1):
            if counts[rid] and spec.loop_length(rid) / counts[rid] <= min_spacing:
                raise CapacityExceeded(
                    f"loop {rid}: spacing below the jam distance for {counts[rid]} vehicles")
        placed = [0, 0]
        for i in range(total):
            rid = i % 2
            L = spec.loop_length(rid)
            spacing = L / counts[rid]
            zone_end = spec.conflict_zone[rid][1]
            pos = (zone_end + (placed[rid] + 0.5 * rid) * spacing) % L
            placed[rid] += 1
            kind = VehicleKind.CAV if i in cav_slots else VehicleKind.HUMAN
            state.vehicles.append(VehicleState(
                id=i, kind=kind, route_pos=pos, speed=0.0, route_id=rid))
        if detect_collision(state):
            raise InvalidSpec("initial figure-eight placement conflicts in the zone")

    state.next_id = total
    return state


# ---------------------------------------------------------------------------
# Collision detection


def _conflicts(state: SimState, leaders: dict[int, Leader]) -> bool:
    """True iff any bumper gap is non-positive or a figure-eight conflict zone
    is double-occupied.

    `leaders` is `compute_leaders(state)`. Its gaps are the bumper gaps on
    closed routes, and on merge a main-lane vehicle's leader is the next
    main-lane vehicle, so neither needs an ordering of its own here.
    """
    net = state.network
    length = state.options.vehicle_length

    if isinstance(net, MergeSpec):
        if any(leaders[v.id][1] <= 0 for v in state.vehicles if merge_lane(net, v) == "main"):
            return True
        # a ramp vehicle's leader may sit on the main lane: order the ramp here
        effs = sorted(merge_effective_pos(net, v) for v in state.vehicles
                      if merge_lane(net, v) == "ramp")
        return any(b - a - length <= 0 for a, b in zip(effs, effs[1:]))

    if any(gap <= 0 for _, gap in leaders.values()):
        return True
    if isinstance(net, FigureEightSpec):
        (inside0, _), (inside1, _) = _zone_summary(state)
        return inside0 and inside1
    return False


def detect_collision(state: SimState) -> bool:
    """True iff any bumper gap is non-positive or a conflict zone is double-occupied."""
    return _conflicts(state, compute_leaders(state))


# ---------------------------------------------------------------------------
# Stepping


def _draw_noise(state: SimState) -> float:
    mag = state.idm.noise_mag
    if mag == 0.0:
        return 0.0
    if state.options.noise_dist == "uniform":
        return float(state.rng.uniform(-mag, mag))
    return float(state.rng.normal(0.0, mag))


def _maybe_spawn(state: SimState, spawned: list[int]) -> None:
    """Queue the arrivals now due on each lane and release one per lane if its entry is free."""
    net = state.network
    opts = state.options
    for route_id, lane, inflow in ((0, "main", net.inflow_main), (1, "ramp", net.inflow_ramp)):
        if inflow <= 0:
            continue
        interval = 3600.0 / inflow
        due, queue = f"next_due_{lane}", f"pending_{lane}"   # SimState fields
        while state.sim_time >= getattr(state, due):
            setattr(state, queue, getattr(state, queue) + 1)
            setattr(state, due, getattr(state, due) + interval)
        if getattr(state, queue) == 0:
            continue
        near_entry = [v for v in state.vehicles
                      if v.route_id == route_id and v.route_pos < SPAWN_LOOKAHEAD]
        leader = min(near_entry, key=lambda v: v.route_pos) if near_entry else None
        if leader is not None and leader.route_pos - opts.vehicle_length <= state.idm.s0:
            continue  # entry blocked, keep the arrival queued
        speed = state.idm.v0 if leader is None else min(state.idm.v0, leader.speed)
        kind = VehicleKind.CAV if state.rng.random() < net.cav_fraction else VehicleKind.HUMAN
        state.vehicles.append(VehicleState(id=state.next_id, kind=kind, route_pos=0.0,
                                           speed=speed, route_id=route_id))
        spawned.append(state.next_id)
        state.next_id += 1
        setattr(state, queue, getattr(state, queue) - 1)


def step(state: SimState, cav_actions: dict[int, float], dt: float) -> tuple[SimState, StepInfo]:
    """Advance one time step in place; returns the state and a snapshot.

    Humans receive IDM + noise; CAVs their commanded acceleration clamped to
    the actuation bounds (plus the optional safety clamp).
    """
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
    state.next_id = max(state.next_id, max(ids, default=-1) + 1)  # spawns take fresh ids

    net = state.network
    closed = not isinstance(net, MergeSpec)
    lengths = (route_length(state, 0), route_length(state, 1))
    leaders = compute_leaders(state)
    zones = _zone_summary(state) if isinstance(net, FigureEightSpec) else None
    accels: dict[int, float] = {}
    for v in state.vehicles:  # fixed order keeps the noise stream deterministic
        if v.kind is VehicleKind.CAV:
            a = min(max(float(cav_actions[v.id]), opts.cav_accel_min), opts.cav_accel_max)
            if opts.safety_clamp:
                a = min(a, _interaction_brake(state, v, leaders[v.id]))
                a = max(a, -HUMAN_DECEL_LIMIT)
        else:
            a = human_accel(state, v, leaders[v.id], zones) + _draw_noise(state)
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

    # the post-step state is ordered once: collisions and headways share it
    leaders = compute_leaders(state)
    if _conflicts(state, leaders):
        state.collided = True

    return state, _snapshot(state, leaders, spawned, exited)


def _snapshot(state: SimState, leaders: dict[int, Leader], spawned: list[int],
              exited: list[int]) -> StepInfo:
    cavs = [v for v in state.vehicles if v.kind is VehicleKind.CAV]
    gaps = [leaders[v.id][1] for v in cavs]
    headways = [HEADWAY_CAP if math.isinf(gap) or v.speed <= 0.0
                else min(gap / v.speed, HEADWAY_CAP) for v, gap in zip(cavs, gaps)]
    return StepInfo(
        time_step=state.time_step,
        vehicle_ids=[v.id for v in state.vehicles],
        kinds=[v.kind for v in state.vehicles],
        route_ids=[v.route_id for v in state.vehicles],
        positions=np.array([v.route_pos for v in state.vehicles]),
        speeds=np.array([v.speed for v in state.vehicles]),
        accels=np.array([v.last_accel for v in state.vehicles]),
        cav_ids=[v.id for v in cavs],
        cav_time_headways=np.array(headways),
        collided=state.collided,
        spawned=spawned,
        exited=exited,
    )


# ---------------------------------------------------------------------------
# Observations


OBS_DIM = 6
_SENTINEL_REL_SPEED = 0.0
_SENTINEL_GAP = 1.0


def local_observation(state: SimState, agent_ids: list[int], target_speed: float,
                      scan_scale: float | None = None,
                      pairs: CavPairs | None = None) -> np.ndarray:
    """Feature rows of the listed CAVs, shape (len(agent_ids), OBS_DIM).

    Row: [own speed, own position, leader-CAV rel speed, leader-CAV distance,
    follower-CAV rel speed, follower-CAV distance]; speeds are normalized
    by the target speed, distances (center-to-center along the route) by
    the ego route length. The scan scale is the sensing range: CAV
    neighbors beyond it (or missing entirely) take the sentinel (0, 1.0).
    Leaders and followers come from `pairs` (computed here when omitted),
    so observing every CAV of a step costs one call.
    """
    if pairs is None:   # the observations read only the nearest neighbours
        pairs = cav_pairs(state, 0.0 if scan_scale is None else scan_scale)
    rows = slice(None)
    if agent_ids != pairs.ids:
        index = {vid: i for i, vid in enumerate(pairs.ids)}
        rows = []
        for vid in agent_ids:
            if vid not in index:
                state.find(vid)  # raises for an id that is not in the network
                raise UnknownVehicle(f"vehicle {vid} is not a CAV")
            rows.append(index[vid])
    speed, gaps = pairs.speed, pairs.gaps
    obs = np.empty((len(speed), OBS_DIM))
    obs[:, 0] = speed / target_speed
    obs[:, 1] = pairs.pos / pairs.route_len
    seen = gaps <= scan_scale if scan_scale is not None else gaps < math.inf
    # columns 2, 4: leader, follower rel speed; 3, 5: their distances
    obs[:, 2::2] = np.where(seen, (speed[pairs.neighbors] - speed) / target_speed,
                            _SENTINEL_REL_SPEED).T
    obs[:, 3::2] = np.where(seen, gaps / pairs.route_len, _SENTINEL_GAP).T
    return obs[rows]


# ---------------------------------------------------------------------------
# Trajectory export

TRAJECTORY_HEADER = "step,vehicle_id,kind,route_pos,speed,accel"
VEHICLE_TABLE_HEADER = "vehicle_id,kind,route_id"


def trajectory_rows(infos: list[StepInfo]) -> list[str]:
    rows = [TRAJECTORY_HEADER]
    for info in infos:
        for i, vid in enumerate(info.vehicle_ids):
            rows.append(f"{info.time_step},{vid},{info.kinds[i].value},"
                        f"{float(info.positions[i])!r},{float(info.speeds[i])!r},"
                        f"{float(info.accels[i])!r}")
    return rows


def export_trajectory_csv(infos: list[StepInfo], path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(trajectory_rows(infos)) + "\n")


def vehicle_table_rows(infos: list[StepInfo]) -> list[str]:
    """Auxiliary id -> (kind, route) table; open networks need it for replay."""
    seen: dict[int, tuple[str, int]] = {}
    for info in infos:
        for i, vid in enumerate(info.vehicle_ids):
            seen.setdefault(vid, (info.kinds[i].value, info.route_ids[i]))
    rows = [VEHICLE_TABLE_HEADER]
    rows.extend(f"{vid},{kind},{rid}" for vid, (kind, rid) in sorted(seen.items()))
    return rows
