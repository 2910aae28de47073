"""Microscopic mixed-autonomy traffic simulator.

Human drivers follow the IDM with additive acceleration noise; CAVs apply
externally commanded accelerations clamped to their actuation bounds.
Kinematics are forward-Euler with a speed floor at zero. All randomness
flows through the per-state numpy Generator, so identical (spec, seed,
action sequence) produce bit-identical trajectories.

The `VehicleState` records are the state. `step` gathers them into arrays
once and orders each state with one sort (`_leader_pass`): before the
update for the IDM, and after it for the collision check and the CAV
headways; `compute_leaders` and `detect_collision` use the same pass. The
IDM, the yield rules (a figure-eight reads one summary of each loop's
conflict zone: is it occupied, how near is the nearest approach), the
safety clamp and the kinematics are array expressions that keep the
per-vehicle rules' operations and their order, so a step reproduces the
per-vehicle step bit for bit (tests/scalar_sim.py keeps it); the results
are written back to the records.

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
from typing import NamedTuple

import numpy as np

from .errors import CapacityExceeded, InvalidSpec, UnknownVehicle
from .idm import IdmParams, idm_terms
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
    cav_rows: np.ndarray           # the CAVs' rows in the vehicle arrays, cav_ids order
    collided: bool
    spawned: list[int] = field(default_factory=list)
    exited: list[int] = field(default_factory=list)

    @property
    def cav_accels(self) -> np.ndarray:
        return self.accels[self.cav_rows]


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
#
# numpy's maximum and minimum return their second operand when the two are
# equal (as +0.0 and -0.0 are), Python's max and min their first; so the
# array code writes Python's max(a, b) as np.maximum(b, a), min likewise.

Leader = tuple[VehicleState | None, float]


def _gather(vehicles: list[VehicleState]) -> np.ndarray:
    """(4, n): route position, speed, route id and id of each record (ids
    order ties in the leader pass; as floats they are exact below 2**53)."""
    return np.array([[v.route_pos for v in vehicles], [v.speed for v in vehicles],
                     [v.route_id for v in vehicles], [v.id for v in vehicles]], float)


class _LeaderPass(NamedTuple):
    """One state's vehicles ordered along their driving paths.

    `lead[i]` is the row of vehicle i's physical leader, and `gap[i]` the
    bumper-to-bumper gap to it; the rows listed in `alone` have no leader,
    and lead themselves at gap inf. `on1` marks route 1 (None on a ring),
    `length` is each vehicle's route length (one float when both routes
    have one), `x` the position along the sort axis (the route position, or
    the merge effective position), and `ramp` marks the merge vehicles on
    the ramp lane (None on closed networks).
    """

    lead: np.ndarray
    gap: np.ndarray
    alone: list[int]
    on1: np.ndarray | None
    length: np.ndarray | float
    x: np.ndarray
    ramp: np.ndarray | None


def _leader_pass(state: SimState, pos: np.ndarray, route: np.ndarray,
                 ids: np.ndarray) -> _LeaderPass:
    """Physical leader and bumper gap of every vehicle, from one sort.

    Closed networks sort by (route, position, id), and each vehicle follows
    the next one on its route, the last the first. The merge sorts by
    (effective position, id): a main-lane vehicle follows the next main-lane
    vehicle (main traffic has priority and ignores the on-ramp lane), a
    ramp-lane vehicle the next vehicle of either lane (it yields, following
    the projection of any lane). Gaps are evaluated as the per-vehicle rules
    state them, so they are those rules' bits.
    """
    net = state.network
    n = len(pos)
    if isinstance(net, RingSpec):   # one route
        on1, length = None, net.length
    else:
        on1 = route == 1.0
        l0, l1 = route_length(state, 0), route_length(state, 1)
        length = l0 if l0 == l1 else np.where(on1, l1, l0)
    lead = np.empty(n, np.intp)
    if isinstance(net, MergeSpec):
        ramp = on1 & (pos < net.ramp_length)
        x = np.where(on1, (net.merge_point - net.ramp_length) + pos, pos)
        order = np.lexsort((ids, x))
        nxt = np.arange(1, n + 1)   # the leader's place in the sorted order
        main = np.flatnonzero(~ramp[order])
        nxt[main[:-1]] = main[1:]
        # the last of all and the last main-lane vehicle have no leader
        alone = list({n - 1, *main[-1:].tolist()}) if n else []
        nxt[alone] = alone
        lead[order] = order[nxt]
    else:
        ramp, x = None, pos
        order = np.lexsort((ids, pos) if on1 is None else (ids, pos, route))
        n0 = n if on1 is None else n - np.count_nonzero(on1)    # on route 0, sorted first
        if n:   # each follows the next on its route, the last the first (a lone one itself)
            lead[order[:-1]] = order[1:]
            lead[order[n0 - 1]] = order[0]
            if n0 < n:
                lead[order[-1]] = order[n0]
        alone = [k for k, size in ((0, n0), (n0, n - n0)) if size == 1]
    alone = order[alone].tolist() if alone else alone
    gap = x[lead] - x
    if ramp is None:
        gap = np.remainder(gap, length)
    gap -= state.options.vehicle_length
    if alone:
        gap[alone] = math.inf
    return _LeaderPass(lead, gap, alone, on1, length, x, ramp)


def compute_leaders(state: SimState) -> dict[int, Leader]:
    """Physical leader and bumper-to-bumper gap for every vehicle, one pass."""
    vehicles = state.vehicles
    pos, _, route, ids = _gather(vehicles)
    p = _leader_pass(state, pos, route, ids)
    return {v.id: (None if j == i else vehicles[j], g)
            for i, (v, j, g) in enumerate(zip(vehicles, p.lead.tolist(), p.gap.tolist()))}


def _zones(net: FigureEightSpec, pos: np.ndarray, p: _LeaderPass):
    """Figure-eight conflict zones: each zone's start on the vehicles' loops,
    whether each vehicle is inside its loop's zone, and whether some vehicle
    is inside each loop's zone."""
    (lo0, hi0), (lo1, hi1) = net.conflict_zone
    lo = lo0 if lo0 == lo1 else np.where(p.on1, lo1, lo0)
    hi = hi0 if hi0 == hi1 else np.where(p.on1, hi1, hi0)
    inside = (lo <= pos) & (pos < hi)
    on_loop1 = np.count_nonzero(inside & p.on1)
    return lo, inside, (np.count_nonzero(inside) > on_loop1, on_loop1 > 0)


def _yields(state: SimState, pos, speed, p: _LeaderPass, human: np.ndarray):
    """Which humans yield this step, and each vehicle's distance to where it would stop.

    Figure-eight: a human approaching within the yield window gives way to
    any crossing vehicle that is inside the zone, or approaching and closer
    to it (ties go to loop 0); one inside the zone never yields. Within the
    window, such a vehicle exists iff the other loop's zone is occupied or
    its nearest approach is closer. Merge: a ramp-lane human within
    MERGE_YIELD_WINDOW of the ramp end stops there unless the nearest
    main-lane vehicle level with or behind it (the first in list order
    among level ones) keeps s0 plus MERGE_YIELD_HEADWAY of its speed behind.
    """
    net = state.network
    if isinstance(net, FigureEightSpec):
        lo, inside, occupied = _zones(net, pos, p)
        to_zone = np.remainder(lo - pos, p.length)
        near0 = np.minimum.reduce(to_zone, where=~p.on1, initial=math.inf)
        near1 = np.minimum.reduce(to_zone, where=p.on1, initial=math.inf)
        # crossing traffic goes first if inside its zone, or nearer to it
        # than the human (a tie goes to loop 0)
        first_on0 = True if occupied[0] else near0 <= to_zone    # for loop-1 humans
        first_on1 = True if occupied[1] else near1 < to_zone     # for loop-0 humans
        crossing = np.where(p.on1, first_on0, first_on1)
        return human & ~inside & (to_zone <= net.yield_window) & crossing, to_zone
    to_end = net.ramp_length - pos
    rows = np.flatnonzero(human & p.ramp & (to_end <= MERGE_YIELD_WINDOW))
    mains = np.flatnonzero(~p.ramp)
    yielding = np.zeros(len(pos), bool)
    if len(rows) and len(mains):
        mains = mains[np.lexsort((-mains, p.x[mains]))]   # level ones: the first row last
        k = p.x[mains].searchsorted(p.x[rows], "right") - 1
        follower = mains[k]
        rear_gap = p.x[rows] - p.x[follower] - state.options.vehicle_length
        yielding[rows] = (k >= 0) & ~(rear_gap >= state.idm.s0
                                      + speed[follower] * MERGE_YIELD_HEADWAY)
    return yielding, to_end


def _collided(state: SimState, pos: np.ndarray, p: _LeaderPass) -> bool:
    """True iff any bumper gap is non-positive or a figure-eight conflict zone
    is double-occupied.

    The leader gaps are the bumper gaps on closed routes, and on the merge a
    main-lane vehicle's leader is the next main-lane vehicle; a ramp-lane
    vehicle's leader may sit on the main lane, so the ramp lane is ordered
    here.
    """
    net = state.network
    if p.ramp is not None:
        ramp_x = np.sort(p.x[p.ramp])
        return bool(np.count_nonzero(p.gap[~p.ramp] <= 0) or np.count_nonzero(
            ramp_x[1:] - ramp_x[:-1] - state.options.vehicle_length <= 0))
    if np.count_nonzero(p.gap <= 0):
        return True
    return isinstance(net, FigureEightSpec) and all(_zones(net, pos, p)[2])


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


def detect_collision(state: SimState) -> bool:
    """True iff any bumper gap is non-positive or a conflict zone is double-occupied."""
    pos, _, route, ids = _gather(state.vehicles)
    return _collided(state, pos, _leader_pass(state, pos, route, ids))


# ---------------------------------------------------------------------------
# Stepping


def _draw_noise(state: SimState, n: int):
    """The acceleration noise of n humans, in list order: one vector draw,
    whose values equal n scalar draws; 0.0, and no draw, at magnitude 0."""
    mag = state.idm.noise_mag
    if mag == 0.0:
        return 0.0
    if state.options.noise_dist == "uniform":
        return state.rng.uniform(-mag, mag, n)
    return state.rng.normal(0.0, mag, n)


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


def _listing(vehicles: list[VehicleState]):
    """Kinds, ids, CAV rows and CAV ids of the vehicle list."""
    kinds = [v.kind for v in vehicles]
    ids = [v.id for v in vehicles]
    cav_rows = [i for i, kind in enumerate(kinds) if kind is VehicleKind.CAV]
    return kinds, ids, cav_rows, [ids[i] for i in cav_rows]


def step(state: SimState, cav_actions: dict[int, float], dt: float) -> tuple[SimState, StepInfo]:
    """Advance one time step in place; returns the state and a snapshot.

    Humans receive IDM + noise; CAVs their commanded acceleration clamped to
    the actuation bounds (plus the optional safety clamp). The records are
    gathered into arrays, each state is ordered once (`_leader_pass`: before
    the update for the IDM, after it for the collision check and the CAV
    headways), and the results are written back to the records. Every rule
    is evaluated as the per-vehicle rule states it, so the results are its
    bits (tests/scalar_sim.py keeps the per-vehicle step).
    """
    if dt <= 0:
        raise InvalidSpec("dt must be positive")
    vehicles = state.vehicles
    kinds, ids, cav_rows, cav_ids = _listing(vehicles)
    live_cavs = set(cav_ids)
    if live_cavs != cav_actions.keys():
        missing = live_cavs - cav_actions.keys()
        if missing:
            raise InvalidSpec(f"missing actions for CAVs {sorted(missing)}")
        raise UnknownVehicle(f"actions for non-CAV ids {sorted(cav_actions.keys() - live_cavs)}")
    if len(set(ids)) != len(ids):
        raise InvalidSpec(f"duplicate vehicle ids in {ids}")
    if ids and max(ids) >= state.next_id:   # spawns take fresh ids
        state.next_id = max(ids) + 1

    opts, idm, net = state.options, state.idm, state.network
    pos, speed, route, id_array = _gather(vehicles)
    p = _leader_pass(state, pos, route, id_array)
    cav = np.array(cav_rows, np.intp)
    human = np.empty(len(ids), bool)
    human.fill(True)
    human[cav] = False
    gap = np.maximum(_MIN_VIRTUAL_GAP, p.gap)
    if p.alone:             # no leader: a free road, "led" at the own speed
        gap[p.alone] = 1e9
    lead_speed = speed[p.lead]
    if isinstance(net, RingSpec):
        free, interaction = idm_terms(speed, gap, lead_speed, idm)
        accel = idm.a_max * (1.0 - free - interaction)
    else:   # row 1: the IDM against a standstill where a yielding human stops
        yielding, stop = _yields(state, pos, speed, p, human)
        free, interaction = idm_terms(
            speed, np.array((gap, np.maximum(_MIN_VIRTUAL_GAP, stop))),
            np.array((lead_speed, np.zeros(len(ids)))), idm)
        accel, stopping = idm.a_max * (1.0 - free - interaction)
        np.minimum(stopping, accel, out=accel, where=yielding)
        interaction = interaction[0]
    np.maximum(-HUMAN_DECEL_LIMIT, accel, out=accel)
    accel[human] += _draw_noise(state, len(ids) - len(cav_rows))
    np.maximum(-HUMAN_DECEL_LIMIT, accel, out=accel)
    if cav_rows:
        command = np.fromiter(map(cav_actions.__getitem__, cav_ids), float, len(cav_ids))
        command = np.minimum(opts.cav_accel_max, np.maximum(opts.cav_accel_min, command))
        if opts.safety_clamp:   # the IDM's braking term alone, w.r.t. the physical leader
            brake = idm.a_max * (1.0 - interaction)
            if p.alone:
                brake[p.alone] = math.inf
            command = np.maximum(-HUMAN_DECEL_LIMIT, np.minimum(brake[cav], command))
        accel[cav] = command

    speed = speed + accel * dt
    # Python's max(0.0, x): fmax takes NaN to 0.0, and adding 0.0 takes -0.0 to 0.0
    speed = np.fmax(speed, 0.0) + 0.0
    pos = pos + speed * dt
    closed = p.ramp is None
    if closed:
        pos = np.remainder(pos, p.length)
    for v, x, s, a in zip(vehicles, pos.tolist(), speed.tolist(), accel.tolist()):
        v.route_pos, v.speed, v.last_accel = x, s, a
    state.time_step += 1
    state.sim_time += dt

    spawned: list[int] = []
    exited: list[int] = []
    if not closed:
        gone = (pos >= p.length).tolist()
        exited = [vid for vid, out in zip(ids, gone) if out]
        state.vehicles = [v for v, out in zip(vehicles, gone) if not out]
        _maybe_spawn(state, spawned)
        if exited or spawned:
            vehicles = state.vehicles
            kinds, ids, cav_rows, cav_ids = _listing(vehicles)
            cav = np.array(cav_rows, np.intp)
            pos, speed, route, id_array = _gather(vehicles)
            accel = np.array([v.last_accel for v in vehicles], float)

    # the post-step state is ordered once: collisions and headways share it
    p = _leader_pass(state, pos, route, id_array)
    if _collided(state, pos, p):
        state.collided = True
    # no leader: the gap inf gives inf, which the cap takes to HEADWAY_CAP; at
    # a subnormal speed the quotient may overflow to +-inf, silently as in Python
    headway = np.empty(len(pos))
    headway.fill(HEADWAY_CAP)
    with np.errstate(over="ignore"):
        np.divide(p.gap, speed, out=headway, where=speed > 0.0)
    headway = np.minimum(HEADWAY_CAP, headway[cav])
    return state, StepInfo(
        time_step=state.time_step,
        vehicle_ids=ids,
        kinds=kinds,
        route_ids=[v.route_id for v in vehicles],
        positions=pos,
        speeds=speed,
        accels=accel,
        cav_ids=cav_ids,
        cav_time_headways=headway,
        cav_rows=cav,
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
                      scan_scale: float, pairs: CavPairs | None = None) -> np.ndarray:
    """Feature rows of the listed CAVs, shape (len(agent_ids), OBS_DIM).

    Row: [own speed, own position, leader-CAV rel speed, leader-CAV distance,
    follower-CAV rel speed, follower-CAV distance]; speeds are normalized
    by the target speed, distances (center-to-center along the route) by
    the ego route length. The scan scale is the sensing range: CAV
    neighbors beyond it (or missing entirely) take the sentinel (0, 1.0).
    Leaders and followers come from `pairs` (computed here when omitted),
    so observing every CAV of a step costs one call.
    """
    if pairs is None:
        pairs = cav_pairs(state, scan_scale)
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
    seen = gaps <= scan_scale
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
