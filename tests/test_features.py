"""The array CAV features equal the scalar reference loops bit for bit.

`sim.cav_pairs` finds a step's in-range CAV pairs and nearest neighbours
from sorted positions, and the adjacency, the observations and the
receptive closure derive from it.
`scalar_features` keeps the per-pair and per-agent loops they replaced;
every comparison here is exact (`np.array_equal`), not approximate.
"""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_features as scalar
from cavlab.errors import InvalidSpec, NoAgents, UnknownVehicle
from cavlab.evaluate import receptive_closure
from cavlab.graph import (GaussianSpeedField, KernelSpec, PositionOnly, VelocityOnly,
                          build_adjacency)
from cavlab.idm import IdmParams
from cavlab.networks import FigureEightSpec, MergeSpec, RingSpec
from cavlab.sim import (SimOptions, VehicleKind, VehicleState, build_network, cav_pairs,
                        local_observation, route_length, step)

SCHEMES = (GaussianSpeedField(), GaussianSpeedField(KernelSpec(1.0, 9.5)), PositionOnly(),
           VelocityOnly(), VelocityOnly(epsilon=0.3, target_speed=12.0))


def assert_pairs_match(state, scan_scale, pairs):
    """`pairs` lists a pair iff its oracle distance is within the scan scale,
    once, with the oracle's values; the neighbours are the oracle's."""
    cavs = state.cavs()
    assert pairs.ids == [v.id for v in cavs]
    listed = {(i, j): e for e, (i, j) in enumerate(zip(pairs.i.tolist(), pairs.j.tolist()))}
    assert len(listed) == len(pairs.i) == len(pairs.dist) == pairs.signed.shape[1]
    assert all(i < j for i, j in listed)
    for i, a in enumerate(cavs):
        for j in range(i + 1, len(cavs)):
            b = cavs[j]
            d = scalar.route_distance(state, a, b)
            assert ((i, j) in listed) == (d <= scan_scale)
            if (i, j) in listed:
                e = listed[i, j]
                assert pairs.dist[e] == d
                assert pairs.signed[0, e] == scalar.signed_route_distance(state, a, b)
                assert pairs.signed[1, e] == scalar.signed_route_distance(state, b, a)
    for i, a in enumerate(cavs):
        for side, nb in enumerate(scalar.cav_neighbors(state, a)):
            if nb is None:
                assert pairs.gaps[side, i] == np.inf and pairs.neighbors[side, i] == 0
            else:
                assert pairs.ids[pairs.neighbors[side, i]] == nb.id


def assert_features_match(state, scan_scale, target_speed=8.0):
    cavs = state.cavs()
    ids = [v.id for v in cavs]
    pairs = cav_pairs(state, scan_scale)
    assert_pairs_match(state, scan_scale, pairs)
    if not cavs:
        for scheme in SCHEMES:
            with pytest.raises(NoAgents):
                build_adjacency(state, scheme, scan_scale)
        assert local_observation(state, target_speed, scan_scale).shape == (0, 6)
        return
    for scheme in SCHEMES:
        new = build_adjacency(state, scheme, scan_scale)
        old = scalar.build_adjacency(state, scheme, scan_scale)
        assert new.agent_ids == old.agent_ids
        assert np.array_equal(new.weights, old.weights)
        assert np.array_equal(new.neighbor_mask, old.neighbor_mask)
        assert np.array_equal(build_adjacency(state, scheme, scan_scale, pairs).weights,
                              old.weights)
    new = local_observation(state, target_speed, scan_scale)
    old = np.array([scalar.local_observation(state, vid, target_speed, scan_scale)
                    for vid in ids])
    assert np.array_equal(new, old)
    # the step's own pairs, handed in, give the same rows
    assert np.array_equal(local_observation(state, target_speed, scan_scale, pairs), old)
    for vid in ids:
        assert (receptive_closure(state, vid, scan_scale, pairs=pairs)
                == scalar.receptive_closure(state, vid, scan_scale))
        assert (receptive_closure(state, vid, scan_scale, hops=1)
                == scalar.receptive_closure(state, vid, scan_scale, hops=1))


def scan_scale_for(data, state):
    """A drawn scan scale, often exactly one of the pairwise distances."""
    cavs = state.cavs()
    exact = [scalar.route_distance(state, a, b) for a in cavs for b in cavs if a is not b]
    options = [st.floats(0.0, 300.0)]
    if exact:
        options.append(st.sampled_from(exact))
    return data.draw(st.one_of(*options))


def ulps_from(x, steps, length):
    """`x` moved by `steps` ulps, kept in [0, length)."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, length if steps > 0 else -1.0)
    return float(min(max(x, 0.0), np.nextafter(length, 0.0)))


def positions(length):
    """Route positions in [0, length), often on a coarse grid so that they tie,
    a few ulps off it, or next to the seam at 0 = length."""
    grid = [0.0, 1.0, 7.5, length / 4.0, length / 2.0, length / 2.0 + 7.5, length - 1.0,
            float(np.nextafter(length, 0.0))]
    return st.one_of(st.floats(0.0, length, exclude_max=True), st.sampled_from(grid),
                     st.builds(ulps_from, st.sampled_from(grid), st.integers(-3, 3),
                               st.just(length)))


speeds = st.one_of(st.floats(0.0, 15.0), st.sampled_from([0.0, 3.0, 8.0]))


def fill_kinematics(data, state):
    for v in state.vehicles:
        v.route_pos = data.draw(positions(route_length(state, v.route_id)))
        v.speed = data.draw(speeds)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ring_features_match_scalar(data):
    n_cav = data.draw(st.integers(0, 8))
    n_human = data.draw(st.integers(0 if n_cav else 1, 4))
    length = data.draw(st.sampled_from([230.0, 100.0, 260.3, 1e3 / 3.0]))
    state = build_network(RingSpec(length=length), n_human, n_cav, seed=0,
                          idm=IdmParams(noise_mag=0.0))
    fill_kinematics(data, state)
    assert_features_match(state, scan_scale_for(data, state))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_figure_eight_features_match_scalar(data):
    n_cav = data.draw(st.integers(1, 8))
    n_human = data.draw(st.integers(0, 4))
    state = build_network(FigureEightSpec(), n_human, n_cav, seed=1,
                          idm=IdmParams(noise_mag=0.0))
    for v in state.vehicles:
        v.route_id = data.draw(st.integers(0, 1))
    fill_kinematics(data, state)
    assert_features_match(state, scan_scale_for(data, state))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_merge_features_match_scalar(data):
    net = MergeSpec()
    state = build_network(net, 0, 0, seed=2)
    kinds = data.draw(st.lists(st.sampled_from(list(VehicleKind)), max_size=10))
    for vid, kind in enumerate(kinds):
        route = data.draw(st.integers(0, 1))
        # ramp vehicles on the ramp, at the merge point, and past it
        state.vehicles.append(VehicleState(
            id=vid, kind=kind, route_id=route,
            route_pos=data.draw(positions(route_length(state, route))),
            speed=data.draw(speeds)))
    assert_features_match(state, scan_scale_for(data, state))


def test_driven_merge_with_exits_matches_scalar():
    state = build_network(MergeSpec(cav_fraction=0.5), 0, 0, seed=3,
                          idm=IdmParams(noise_mag=0.2), options=SimOptions(safety_clamp=True))
    rng = np.random.default_rng(0)
    checked = on_ramp = exited = 0
    for t in range(900):
        state, info = step(state, {v.id: float(rng.uniform(-1.0, 1.0)) for v in state.cavs()},
                           0.1)
        exited += len(info.exited)
        if t % 15 == 0 and state.cavs():
            assert_features_match(state, 30.0)
            checked += 1
            on_ramp += any(v.route_id == 1 for v in state.cavs())
    assert exited > 0 and checked > 40 and on_ramp > 0


def test_single_cav_and_tied_positions():
    state = build_network(RingSpec(length=100.0), 2, 1, seed=0)
    assert_features_match(state, 30.0)
    state = build_network(RingSpec(length=100.0), 0, 4, seed=0)
    for v, x in zip(state.vehicles, (10.0, 10.0, 60.0, 10.0)):
        v.route_pos, v.speed = x, 2.0 + v.id
    assert_features_match(state, 30.0)
    # CAV 0's leader and follower are its first tied mate in list order
    assert [v.id for v in state.cavs()] == [0, 1, 2, 3]
    obs = local_observation(state, 8.0, 30.0)[:2]   # the rows of CAVs 0 and 1
    assert obs[0, 3] == obs[0, 5] == 0.0 and obs[0, 2] == obs[0, 4] == 1.0 / 8.0
    assert obs[1, 2] == obs[1, 4] == -1.0 / 8.0


def test_merge_level_cav_counts_as_behind():
    net = MergeSpec()
    state = build_network(net, 0, 0, seed=0)
    ramp_pos = 350.0 + net.ramp_length - net.merge_point   # same effective position
    state.vehicles += [VehicleState(id=0, kind=VehicleKind.CAV, route_pos=350.0, speed=1.0),
                       VehicleState(id=1, kind=VehicleKind.CAV, route_pos=ramp_pos,
                                    speed=2.0, route_id=1)]
    assert_features_match(state, 30.0)
    obs = local_observation(state, 8.0, 30.0)   # the rows of CAVs 0 and 1
    # each is the other's follower at distance 0; neither has a leader
    assert obs[:, 3].tolist() == [1.0, 1.0] and obs[:, 5].tolist() == [0.0, 0.0]


def test_merge_leader_past_level_mates_and_beyond_the_scan_scale():
    # two CAVs level at 100 m, their leaders level at 140 m: each CAV's
    # leader lies past a level mate and beyond the 30 m scan scale, and
    # either leader ties with the other, so the lower index must win
    for slots in itertools.permutations([100.0, 100.0, 140.0, 140.0]):
        state = build_network(MergeSpec(), 0, 0, seed=0)
        state.vehicles = [VehicleState(id=vid, kind=VehicleKind.CAV, route_pos=x, speed=1.0)
                          for vid, x in enumerate(slots)]
        assert_features_match(state, 30.0)


def test_receptive_closure_rejects_non_cav():
    state = build_network(RingSpec(), 2, 1, seed=0)
    human = next(v for v in state.vehicles if v.kind is VehicleKind.HUMAN)
    with pytest.raises(UnknownVehicle):
        receptive_closure(state, human.id, 30.0)


def test_figure_eight_zone_distance_is_exact():
    # a CAV just past its zone midpoint: reducing 5.0 - 5.1 mod the loop
    # length and moving it back would shift it by a few ulps
    state = build_network(FigureEightSpec(), 0, 2, seed=0, idm=IdmParams(noise_mag=0.0))
    state.vehicles[0].route_pos, state.vehicles[1].route_pos = 5.1, 4.9  # zones (0, 10)
    d = abs(5.0 - 5.1) + abs(5.0 - 4.9)
    pairs = cav_pairs(state, d)
    assert [v.route_id for v in state.vehicles] == [0, 1]
    assert pairs.i.tolist() == [0] and pairs.j.tolist() == [1] and pairs.dist.tolist() == [d]
    assert_features_match(state, d)
    assert not len(cav_pairs(state, float(np.nextafter(d, 0.0))).i)


def large_ring(n_cav, seed=0):
    """configs/ring.json's density and CAV share (16 CAVs, 6 humans on 230 m)
    scaled to `n_cav` CAVs, as the benchmark's 256-CAV ring."""
    n_human = n_cav * 6 // 16
    return build_network(RingSpec(length=230.0 * (n_cav + n_human) / 22), n_human, n_cav,
                         seed=seed, idm=IdmParams(noise_mag=0.0))


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_256_cav_ring_pairs_match_scalar(data):
    state = large_ring(256, seed=data.draw(st.integers(0, 3)))
    length = state.network.length
    cavs = state.cavs()
    for v in state.vehicles:
        v.speed = data.draw(speeds)
    # some CAVs move onto another's position, a few ulps off it, or to the seam
    for _ in range(data.draw(st.integers(0, 12))):
        v = cavs[data.draw(st.integers(0, len(cavs) - 1))]
        to = data.draw(st.one_of(st.sampled_from(cavs).map(lambda w: w.route_pos),
                                 st.sampled_from([0.0, float(np.nextafter(length, 0.0))])))
        v.route_pos = ulps_from(to, data.draw(st.integers(-3, 3)), length)
    scan = data.draw(st.one_of(st.sampled_from([30.0, 60.0]), st.floats(0.0, 90.0)))
    a, b = data.draw(st.sampled_from(cavs)), data.draw(st.sampled_from(cavs))
    if data.draw(st.booleans()) and a is not b:
        scan = scalar.route_distance(state, a, b)         # a pair exactly at the scale
    pairs = cav_pairs(state, scan)
    assert_pairs_match(state, scan, pairs)
    adj = build_adjacency(state, GaussianSpeedField(), scan, pairs)
    ids = pairs.ids
    assert np.array_equal(adj.weights,
                          scalar.build_adjacency(state, GaussianSpeedField(), scan).weights)
    assert np.array_equal(pairs.degree, adj.neighbor_mask.sum(axis=1))
    assert np.array_equal(local_observation(state, 8.0, scan, pairs),
                          [scalar.local_observation(state, vid, 8.0, scan) for vid in ids])


def test_pair_pass_allocates_no_n_by_n_matrix():
    state = large_ring(2000)
    n = len(state.cavs())
    cav_pairs(state, 30.0)    # warm up
    tracemalloc.start()
    try:
        pairs = cav_pairs(state, 30.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 2000 and len(pairs.i) > n
    assert peak < 8 * n * n / 16     # one (N, N) float64 matrix is 32 MB


def test_pairs_of_another_scan_scale_are_rejected():
    state = build_network(RingSpec(), 2, 3, seed=0)
    pairs = cav_pairs(state, 30.0)
    with pytest.raises(InvalidSpec):
        build_adjacency(state, GaussianSpeedField(), 60.0, pairs)
    with pytest.raises(InvalidSpec):
        receptive_closure(state, pairs.ids[0], 60.0, pairs=pairs)
