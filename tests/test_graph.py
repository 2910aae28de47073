import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavlab.errors import InvalidSpec, NoAgents
from cavlab.graph import (
    GaussianSpeedField, KernelSpec, PositionOnly, VelocityOnly, adjacency_csv_rows,
    build_adjacency, degree_normalize,
)
from cavlab.idm import IdmParams
from cavlab.networks import RingSpec
from cavlab.sim import build_network, cav_pairs


def ring_state(positions, speeds, length=230.0):
    state = build_network(RingSpec(length=length), 0, len(positions), seed=0,
                          idm=IdmParams(noise_mag=0.0))
    for v, p, s in zip(state.vehicles, positions, speeds):
        v.route_pos, v.speed = p, s
    return state


# ---------------------------------------------------------------------------
# kernel


def kernel_entry(positions, length=230.0, sigma=4.0) -> float:
    """The default scheme's kernel of two CAVs' distance, read off
    `build_adjacency`: with speeds 0 and 1, entry (0, 1) is the kernel."""
    state = ring_state(positions, [0.0, 1.0], length=length)
    adj = build_adjacency(state, GaussianSpeedField(KernelSpec(1.0, sigma)), scan_scale=120.0)
    return adj.weights[0, 1]


def test_kernel_hand_value():
    assert kernel_entry([10.0, 6.0]) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert math.exp(-0.5) == pytest.approx(0.6065306597, abs=1e-9)


@settings(deadline=None)
@given(a=st.floats(0.0, 229.0), b=st.floats(0.0, 229.0))
def test_kernel_symmetry(a, b):
    assert kernel_entry([a, b]) == kernel_entry([b, a])


@pytest.mark.parametrize("amplitude, length_scale", [(1.0, 0.0), (1.0, -2.0)])
def test_kernel_spec_rejects_non_positive(amplitude, length_scale):
    with pytest.raises(InvalidSpec, match="positive"):
        KernelSpec(amplitude=amplitude, length_scale=length_scale)


@pytest.mark.parametrize("amplitude", [2.5, 0.0])
def test_kernel_amplitude_is_fixed_at_one(amplitude):
    with pytest.raises(InvalidSpec, match="amplitude"):
        KernelSpec(amplitude=amplitude, length_scale=4.0)


@pytest.mark.parametrize("epsilon", [0.0, -0.5])
def test_velocity_only_rejects_non_positive_epsilon(epsilon):
    with pytest.raises(InvalidSpec, match="epsilon"):
        VelocityOnly(epsilon=epsilon)


def test_kernel_wraps_on_closed_routes():
    # 2 m apart across the seam of a 100 m ring
    assert kernel_entry([99.0, 1.0], length=100.0) == pytest.approx(
        math.exp(-(2.0 ** 2) / 32.0), abs=1e-15)


# ---------------------------------------------------------------------------
# build_adjacency


def test_same_speed_gaussian_entries_zero():
    state = ring_state([0.0, 10.0, 20.0], [5.0, 5.0, 5.0])
    adj = build_adjacency(state, GaussianSpeedField(), scan_scale=30.0)
    off = adj.weights[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.0)
    assert np.all(np.diag(adj.weights) == 1.0)


def test_two_cav_hand_value():
    # 4 m apart, sigma 4, speeds 5 and 7: entry(i,j) = exp(-0.5) * 2
    state = ring_state([0.0, 4.0], [5.0, 7.0])
    adj = build_adjacency(state, GaussianSpeedField(), scan_scale=30.0)
    assert adj.weights[0, 1] == pytest.approx(math.exp(-0.5) * 2.0, abs=1e-14)
    assert adj.weights[1, 0] == pytest.approx(-math.exp(-0.5) * 2.0, abs=1e-14)
    assert math.exp(-0.5) * 2.0 == pytest.approx(1.2131, abs=1e-4)


def test_scan_scale_masks_far_pairs():
    state = ring_state([0.0, 50.0], [5.0, 7.0], length=230.0)
    adj = build_adjacency(state, GaussianSpeedField(), scan_scale=30.0)
    assert adj.weights[0, 1] == 0.0 and adj.weights[1, 0] == 0.0
    assert not adj.neighbor_mask[0, 1]
    assert adj.neighbor_mask.sum(axis=1).tolist() == [1, 1]


def test_position_only_signed_distances():
    state = ring_state([10.0, 18.0], [3.0, 9.0], length=100.0)
    adj = build_adjacency(state, PositionOnly(), scan_scale=30.0)
    assert adj.weights[0, 1] == pytest.approx(-8.0)
    assert adj.weights[1, 0] == pytest.approx(8.0)
    assert np.all(np.diag(adj.weights) == 1.0)


def test_velocity_only_entries():
    eps, v_t = 0.01, 8.0
    state = ring_state([0.0, 10.0], [2.0, 6.0], length=100.0)
    adj = build_adjacency(state, VelocityOnly(epsilon=eps, target_speed=v_t),
                          scan_scale=30.0)
    assert adj.weights[0, 1] == pytest.approx(v_t / (2.0 * 4.0 + eps), abs=1e-14)
    assert adj.weights[1, 0] == pytest.approx(v_t / (6.0 * 4.0 + eps), abs=1e-14)


def test_single_cav_matrix_is_one_for_all_schemes():
    for scheme in (GaussianSpeedField(), PositionOnly(), VelocityOnly()):
        state = ring_state([42.0], [3.0])
        adj = build_adjacency(state, scheme, scan_scale=30.0)
        assert adj.weights.shape == (1, 1)
        assert adj.weights[0, 0] == 1.0
        assert adj.neighbor_mask.tolist() == [[True]]


def test_no_agents_raises():
    state = build_network(RingSpec(), 3, 0, seed=0)
    with pytest.raises(NoAgents):
        build_adjacency(state, GaussianSpeedField(), scan_scale=30.0)


# ---------------------------------------------------------------------------
# randomized properties (acceptance 5 at package level)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_randomized_adjacency_properties(data):
    n = data.draw(st.integers(2, 6))
    length = 230.0
    positions = sorted(data.draw(st.lists(
        st.floats(0.0, length - 1e-6), min_size=n, max_size=n, unique=True)))
    speeds = data.draw(st.lists(st.floats(0.0, 15.0), min_size=n, max_size=n))
    sc = data.draw(st.floats(5.0, 120.0))
    sigma = 4.0
    state = ring_state(positions, speeds, length=length)
    adj = build_adjacency(state, GaussianSpeedField(KernelSpec(1.0, sigma)), sc)

    for i in range(n):
        for j in range(n):
            d = abs(positions[i] - positions[j])
            d = min(d, length - d)
            if i == j:
                assert adj.weights[i, j] == 1.0
                continue
            if d > sc:
                assert adj.weights[i, j] == 0.0
            else:
                expected = math.exp(-d * d / (2 * sigma * sigma)) * (speeds[j] - speeds[i])
                assert abs(adj.weights[i, j] - expected) < 1e-12
                # kernel symmetry and delta-v antisymmetry
                assert abs(adj.weights[i, j] + adj.weights[j, i]) < 1e-12


def test_pair_exactly_at_the_scan_scale_is_an_edge():
    # Reducing 0.0 - d mod 230 and moving it back gave -5.533410229158221:
    # a few ulps past the scan scale, which dropped the edge.
    d = 5.533410229158211
    sigma = 4.0
    state = ring_state([0.0, d], [1.0, 3.0])
    pairs = cav_pairs(state, d)
    assert pairs.i.tolist() == [0] and pairs.j.tolist() == [1] and pairs.dist.tolist() == [d]
    assert pairs.signed[:, 0].tolist() == [-d, d]
    adj = build_adjacency(state, GaussianSpeedField(KernelSpec(1.0, sigma)), d, pairs)
    assert adj.neighbor_mask[0, 1] and adj.neighbor_mask[1, 0]
    k = math.exp(-d * d / (2 * sigma * sigma))
    assert adj.weights[0, 1] == k * 2.0 and adj.weights[1, 0] == k * -2.0
    # the other way around the ring: L - |x_i - x_j|, exactly
    state = ring_state([1.0, 230.0 - d + 1.0], [1.0, 3.0])
    gap = 230.0 - (230.0 - d + 1.0 - 1.0)
    assert cav_pairs(state, gap).dist.tolist() == [gap]
    assert not len(cav_pairs(state, float(np.nextafter(gap, 0.0))).dist)


def test_locality_monotone_in_distance():
    # fixed speed difference, growing separation: |entry| non-increasing
    values = []
    for d in (2.0, 6.0, 12.0, 20.0, 28.0):
        state = ring_state([0.0, d], [2.0, 5.0])
        adj = build_adjacency(state, GaussianSpeedField(), scan_scale=30.0)
        values.append(abs(adj.weights[0, 1]))
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# degree normalization


def test_degree_normalize_identity():
    assert np.array_equal(degree_normalize(np.eye(3), np.ones(3, dtype=int)), np.eye(3))


def test_degree_normalize_row_scale():
    state = ring_state([0.0, 10.0, 20.0, 100.0], [2.0, 3.0, 4.0, 5.0])
    adj = build_adjacency(state, GaussianSpeedField(), scan_scale=30.0)
    mask = adj.neighbor_mask
    # agent 1 sees agents 0 and 2 plus itself: degree 3, counted from the pairs
    degree = cav_pairs(state, 30.0).degree
    assert degree.tolist() == mask.sum(axis=1).tolist() == [3, 3, 3, 1]
    out = degree_normalize(adj.weights, degree)
    assert np.array_equal(out, adj.weights / mask.sum(axis=1, keepdims=True))
    assert np.allclose(out[1], adj.weights[1] / 3.0, atol=1e-15)
    # binary indicator rows normalized by degree sum to 1
    assert np.allclose(degree_normalize(mask.astype(float), degree).sum(axis=1), 1.0)
    # a (B, N, N) stack normalizes each matrix as it would alone
    stacked = degree_normalize(np.stack([adj.weights, np.eye(4)]),
                               np.stack([degree, np.ones(4, dtype=int)]))
    assert np.array_equal(stacked, np.stack([out, np.eye(4)]))


def test_adjacency_csv_roundtrip():
    state = ring_state([0.0, 4.0, 9.0], [1.0, 2.0, 3.0])
    adj = build_adjacency(state, GaussianSpeedField(), scan_scale=30.0)
    rows = adjacency_csv_rows(adj)
    assert rows[0] == ",".join(str(i) for i in adj.agent_ids)
    parsed = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert np.array_equal(parsed, adj.weights)
