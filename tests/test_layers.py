import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_features as scalar
from cavlab import config
from cavlab import trainer as trainer_module
from cavlab.errors import InvalidSpec, NonFiniteValue, ShapeMismatch
from cavlab.graph import (
    GaussianSpeedField, PositionOnly, VelocityOnly, build_adjacency, degree_normalize,
)
from cavlab.layers import (
    EDGE_KERNEL_MAX_DENSITY, Adam, AttentionLayer, CriticNetwork, Dense, EdgeList,
    GaussianPolicyHead, GraphConvLayer, NetConfig, PolicyNetwork, orthogonal, sparse_enough,
)
from cavlab.selfcheck import fd_grad, rel_err
from cavlab.sim import cav_pairs, step
from cavlab.tensor import Tensor, no_grad
from cavlab.trainer import collect_rollout, graph_inputs, make_policy, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# graph convolution


def test_graph_conv_identity_propagation():
    # M = I, W = [I; 0] stacked: output = f(H)
    layer = GraphConvLayer(rng(), 3, 3, activation="tanh")
    layer.W.data = np.vstack([np.eye(3), np.zeros((3, 3))])
    H = np.array([[0.3, -1.0, 2.0], [0.0, 0.5, -0.2]])
    eye = Tensor(np.eye(2))
    out = layer(Tensor(H), eye, eye)
    assert np.allclose(out.data, np.tanh(H), atol=1e-15)


def test_graph_conv_hand_computed_two_agents():
    layer = GraphConvLayer(rng(), 2, 2, activation="tanh")
    W = np.array([[0.5, -0.2], [0.1, 0.4], [-0.3, 0.2], [0.6, -0.1]])
    layer.W.data = W.copy()
    H = np.array([[1.0, 2.0], [-1.0, 0.5]])
    M = np.array([[1.0, 0.3], [-0.3, 1.0]])
    Dinv = M / 2.0
    out = layer(Tensor(H), Tensor(M), Tensor(Dinv))
    # independent arithmetic oracle
    mixed = np.concatenate([M @ H, Dinv @ H], axis=-1)
    assert np.allclose(out.data, np.tanh(mixed @ W), atol=1e-14)


def test_graph_conv_zero_features():
    layer = GraphConvLayer(rng(), 3, 4, activation="tanh")
    eye = Tensor(np.eye(2))
    out = layer(Tensor(np.zeros((2, 3))), eye, eye)
    assert np.array_equal(out.data, np.zeros((2, 4)))


def test_graph_conv_shape_mismatch():
    layer = GraphConvLayer(rng(), 3, 3)
    with pytest.raises(ShapeMismatch):
        layer(Tensor(np.zeros((2, 5))), Tensor(np.eye(2)), Tensor(np.eye(2)))
    with pytest.raises(ShapeMismatch):
        layer(Tensor(np.zeros((3, 3))), Tensor(np.eye(2)), Tensor(np.eye(2)))


def test_unknown_activation_is_an_invalid_spec():
    with pytest.raises(InvalidSpec, match="sigmoid"):
        GraphConvLayer(rng(), 3, 3, activation="sigmoid")
    with pytest.raises(InvalidSpec, match="sigmoid"):
        Dense(rng(), 3, 3, activation="sigmoid")


# ---------------------------------------------------------------------------
# attention


def test_attention_without_heads_names_the_ablation():
    with pytest.raises(ShapeMismatch) as info:
        AttentionLayer(rng(), 8, heads=0)
    assert "heads=0" in str(info.value) and "None" not in str(info.value)


def test_single_agent_attention_is_projected_value():
    layer = AttentionLayer(rng(1), 4, heads=1)
    H = np.array([[0.2, -0.5, 1.0, 0.3]])
    out = layer(Tensor(H[None]), np.ones((1, 1, 1), dtype=bool)).data[0]
    v = H @ layer.Wv.data
    assert np.allclose(out, v @ layer.Wo.data, atol=1e-14)


def test_identical_features_give_uniform_attention():
    layer = AttentionLayer(rng(2), 4, heads=2)
    H = Tensor(np.tile(np.array([0.4, -0.2, 0.1, 0.9]), (3, 1)).reshape(1, 3, 4))
    mask = np.ones((1, 3, 3), dtype=bool)
    phi = layer.scores(H, mask)
    assert np.allclose(phi.data, 1.0 / 3.0, atol=1e-12)


def test_three_agent_one_head_hand_computed():
    d = 2
    layer = AttentionLayer(rng(3), d, heads=1)
    Wq, Wk, Wv, Wo = (layer.Wq.data, layer.Wk.data, layer.Wv.data, layer.Wo.data)
    H = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
    out = layer(Tensor(H[None]), np.ones((1, 3, 3), dtype=bool)).data[0]
    # scalar-arithmetic oracle
    q, k, v = H @ Wq, H @ Wk, H @ Wv
    scores = (q @ k.T) / math.sqrt(d)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    phi = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(out, (phi @ v) @ Wo, atol=1e-13)


def test_attention_mask_zero_and_rows_normalized():
    layer = AttentionLayer(rng(4), 8, heads=4)
    n = 5
    H = Tensor(rng(5).standard_normal((1, n, 8)))
    mask = rng(6).random((1, n, n)) > 0.5
    mask[0, np.arange(n), np.arange(n)] = True
    phi = layer.scores(H, mask)
    assert phi.data.shape == (1, 4, n, n)
    expanded = np.broadcast_to(mask[:, None, :, :], phi.data.shape)
    assert np.all(phi.data[~expanded] == 0.0)
    assert np.allclose(phi.data.sum(axis=-1), 1.0, atol=1e-9)


def test_masked_neighbour_cannot_change_an_attention_output():
    # agent 0 does not see agent 1; a huge agent 1 scores 1000 above agent
    # 0's own score, which must neither empty nor poison agent 0's weights
    layer = AttentionLayer(rng(7), 4, heads=1)
    layer.Wq.data, layer.Wk.data = np.eye(4), np.eye(4)
    mask = np.array([[[True, False], [True, True]]])
    outs = []
    for far in (1.0, 1000.0):
        H = np.stack([np.full(4, 0.5), np.full(4, far)])[None]
        outs.append(layer(Tensor(H), mask).data)
        assert np.isfinite(outs[-1]).all()
        assert layer.scores(Tensor(H), mask).data[0, 0, 0].tolist() == [1.0, 0.0]
    assert np.array_equal(outs[0][0, 0], outs[1][0, 0])


def test_permutation_consistency():
    cfg_rng = rng(8)
    gl = GraphConvLayer(cfg_rng, 4, 4)
    al = AttentionLayer(cfg_rng, 4, heads=2)
    n = 5
    H = rng(9).standard_normal((n, 4))
    M = rng(10).standard_normal((n, n))
    np.fill_diagonal(M, 1.0)
    mask = rng(11).random((n, n)) > 0.3
    mask |= mask.T
    np.fill_diagonal(mask, True)
    deg = mask.sum(axis=1).astype(float)
    Dinv = M / deg[:, None]

    g_out = gl(Tensor(H), Tensor(M), Tensor(Dinv)).data
    a_out = al(Tensor(H[None]), mask[None]).data[0]

    perm = np.random.default_rng(12).permutation(n)
    Hp, Mp = H[perm], M[np.ix_(perm, perm)]
    maskp = mask[np.ix_(perm, perm)]
    Dinvp = Mp / maskp.sum(axis=1).astype(float)[:, None]
    g_perm = gl(Tensor(Hp), Tensor(Mp), Tensor(Dinvp)).data
    a_perm = al(Tensor(Hp[None]), maskp[None]).data[0]
    assert np.allclose(g_perm, g_out[perm], atol=1e-12)
    assert np.allclose(a_perm, a_out[perm], atol=1e-12)


# ---------------------------------------------------------------------------
# gaussian head


def test_zero_trunk_zero_init_head_gives_midpoint():
    head = GaussianPolicyHead(rng(), 4, low=-3.0, high=3.0)
    head.mean_layer.W.data[:] = 0.0
    out = head.mean(Tensor(np.zeros((1, 2, 4))))
    assert np.array_equal(out.data, np.zeros((1, 2, 1)))


def test_zero_log_spread_gives_unit_spread():
    head = GaussianPolicyHead(rng(), 4, low=-3.0, high=3.0)
    assert head.spread().data[0] == 1.0


def test_log_prob_matches_closed_form():
    head = GaussianPolicyHead(rng(), 4, low=-3.0, high=3.0)
    head.log_spread.data[:] = math.log(0.7)
    mean = Tensor(np.array([[0.5, -1.0]]))
    actions = Tensor(np.array([[0.2, 0.3]]))
    lp = head.log_prob(actions, mean)
    sigma = 0.7
    expected = (-0.5 * ((np.array([[0.2, 0.3]]) - np.array([[0.5, -1.0]])) / sigma) ** 2
                - math.log(sigma) - 0.5 * math.log(2 * math.pi))
    assert np.allclose(lp.data, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# gradient checks through full layers


def _gradcheck_layer(build_loss, param, x0, tol=1e-5):
    param.grad = None  # backward accumulates; prior checks may have filled it
    got = build_loss(x0)
    got.backward()
    ad = param.grad.copy()

    def f(x):
        param.data = x
        return float(build_loss(x0).data)

    orig = param.data.copy()
    fd = fd_grad(lambda x: f(x), orig, h=1e-6)
    param.data = orig
    assert rel_err(ad, fd) < tol


@pytest.mark.parametrize("seed", range(3))
def test_graph_conv_gradcheck(seed):
    layer = GraphConvLayer(rng(seed), 3, 3)
    H = rng(seed + 50).standard_normal((4, 3))
    M = rng(seed + 60).standard_normal((4, 4))
    Dinv = M / 2.0

    def loss(_):
        return (layer(Tensor(H), Tensor(M), Tensor(Dinv)) ** 2).sum()

    _gradcheck_layer(loss, layer.W, None)


@pytest.mark.parametrize("seed", range(3))
def test_attention_gradcheck(seed):
    layer = AttentionLayer(rng(seed), 4, heads=2)
    H = rng(seed + 70).standard_normal((1, 3, 4))
    mask = np.ones((1, 3, 3), dtype=bool)

    def loss(_):
        return (layer(Tensor(H), mask) ** 2).sum()

    for p in (layer.Wq, layer.Wk, layer.Wv, layer.Wo):
        _gradcheck_layer(loss, p, None)


# ---------------------------------------------------------------------------
# networks and optimizer


def _toy_inputs(n=3, obs_dim=6, batch=2, seed=0):
    r = rng(seed + 100)
    obs = r.standard_normal((batch, n, obs_dim))
    M = r.standard_normal((batch, n, n)) * 0.2
    M[:, np.arange(n), np.arange(n)] = 1.0
    mask = np.ones((batch, n, n), dtype=bool)
    deg = mask.sum(axis=-1).astype(float)
    Dinv = M / deg[..., None]
    return obs, M, Dinv, mask


def test_policy_network_shapes_and_bounds():
    cfg = NetConfig(hidden=16, heads=4)
    net = PolicyNetwork(rng(1), cfg)
    obs, M, Dinv, mask = _toy_inputs()
    mean = net.action_mean(Tensor(obs), Tensor(M), Tensor(Dinv), mask)
    assert mean.shape == (2, 3)
    assert np.all(np.abs(mean.data) <= 3.0)


def test_heads_zero_is_attention_free():
    cfg = NetConfig(hidden=16, heads=0)
    net = PolicyNetwork(rng(1), cfg)
    assert net.trunk.attn is None
    obs, M, Dinv, mask = _toy_inputs()
    mean = net.action_mean(Tensor(obs), Tensor(M), Tensor(Dinv), mask)
    assert mean.shape == (2, 3)


@pytest.mark.parametrize("fields, message", [
    ({"hidden": 0, "heads": 0}, "hidden must be >= 1"),
    ({"hidden": -8}, "hidden must be >= 1"),
    ({"heads": -1}, "heads must be >= 0"),
    ({"hidden": 64, "heads": 7}, "divisible"),
    ({"activation": "sigmoid"}, "activation must be one of"),
    ({"obs_dim": 0}, "obs_dim must be >= 1"),
    ({"action_low": 3.0, "action_high": 3.0}, "action_low=3.0 must be below"),
    ({"action_low": 1.0, "action_high": -1.0}, "action_low=1.0 must be below"),
])
def test_net_config_rejects_degenerate_networks(fields, message):
    with pytest.raises(InvalidSpec, match=message):
        NetConfig(**fields)


def test_critic_network_shapes():
    net = CriticNetwork(rng(2), NetConfig(hidden=16, heads=2))
    obs, M, Dinv, mask = _toy_inputs()
    vals = net.values(Tensor(obs), Tensor(M), Tensor(Dinv), mask)
    assert vals.shape == (2, 3)


def test_orthogonal_init_is_orthogonal():
    W = orthogonal(rng(5), (8, 8), gain=1.0)
    assert np.allclose(W @ W.T, np.eye(8), atol=1e-10)
    W2 = orthogonal(rng(5), (8, 4))
    assert np.allclose(W2.T @ W2, np.eye(4), atol=1e-10)


def test_adam_descends_quadratic():
    p = Tensor(np.array([5.0]), requires_grad=True, name="p")
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    assert abs(p.data[0]) < 0.05


def test_adam_matches_textbook():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="a")
    b = Tensor(np.array([[3.0]]), requires_grad=True, name="b")
    opt = Adam({"a": a, "b": b}, lr=0.1)
    start = {"a": a.data.copy(), "b": b.data.copy()}
    g1 = {"a": np.array([0.5, -1.0]), "b": np.array([[2.0]])}
    g2 = {"a": np.array([1.0, 1.0]), "b": np.array([[-0.25]])}
    a.grad, b.grad = g1["a"], g1["b"]
    opt.step()
    state = opt.state_dict()
    a.grad, b.grad = g2["a"], g2["b"]
    opt.step(lr_scale=0.5)
    for k, p in (("a", a), ("b", b)):   # the moments of each parameter its own
        m1, v1 = 0.1 * g1[k], 0.001 * g1[k] ** 2
        p1 = start[k] - 0.1 * (m1 / 0.1) / (np.sqrt(v1 / 0.001) + 1e-8)
        m2, v2 = 0.9 * m1 + 0.1 * g2[k], 0.999 * v1 + 0.001 * g2[k] ** 2
        p2 = p1 - 0.05 * (m2 / (1 - 0.9 ** 2)) / (np.sqrt(v2 / (1 - 0.999 ** 2)) + 1e-8)
        assert np.allclose(p.data, p2, rtol=1e-12, atol=0.0), k
    opt.load_state_dict(state)   # back to the moments after one step
    assert opt.t == 1 and np.array_equal(opt.m["a"], state["m"]["a"])
    state["m"]["a"][:] = 7.0     # the optimizer holds copies, not the snapshot
    assert not np.any(opt.m["a"] == 7.0)


# ---------------------------------------------------------------------------
# fused nodes against numpy forwards of their formulas


def _numpy_act(x, activation):
    return {"tanh": np.tanh, "relu": lambda a: np.maximum(a, 0.0), None: lambda a: a}[activation](x)


def _numpy_dense(layer, x):
    return _numpy_act(x.data @ layer.W.data + layer.b.data, layer.activation)


def _numpy_gconv(layer, H, M, Dinv):
    h = H.data
    mixed = np.concatenate([M.data @ h, Dinv.data @ h], axis=-1)
    return _numpy_act(mixed @ layer.W.data, layer.activation)


def _numpy_attention(layer, H, mask):
    b, n, d = H.shape

    def split(x):
        return x.reshape(b, n, layer.heads, layer.d_head).swapaxes(1, 2)

    q, k, v = (split(H.data @ w.data) for w in (layer.Wq, layer.Wk, layer.Wv))
    s = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(layer.d_head))
    e = np.exp(s - s.max(axis=-1, keepdims=True)) * mask[:, None]
    phi = e / e.sum(axis=-1, keepdims=True)
    return (phi @ v).swapaxes(1, 2).reshape(b, n, d) @ layer.Wo.data


def _values_and_grads(forward, inputs, params, weights):
    """Forward value and the gradients of sum(weights * out) w.r.t. inputs + params."""
    for t in (*inputs, *params):
        t.grad = None
    out = forward()
    (out * Tensor(weights)).sum().backward()
    return out.data, [t.grad for t in (*inputs, *params)]


def _check_fused(fused, reference, inputs, params, out_shape, seed):
    """The fused node's value against the numpy `reference`, and its
    gradients against finite differences of the fused forward."""
    weights = rng(seed).standard_normal(out_shape)
    value, grads = _values_and_grads(fused, inputs, params, weights)
    assert np.allclose(value, reference(), rtol=1e-12, atol=1e-13)
    for t, g in zip((*inputs, *params), grads):
        assert g.shape == t.shape
        orig = t.data.copy()

        def f(x, t=t):
            t.data = x
            return float((fused().data * weights).sum())

        fd = fd_grad(f, orig)
        t.data = orig
        assert rel_err(g, fd) < 1e-6


@pytest.mark.parametrize("activation", [None, "tanh", "relu"])
@pytest.mark.parametrize("lead", [(5,), (2, 3)])
def test_fused_dense_matches_unfused(activation, lead):
    layer = Dense(rng(20), 4, 3, name="d", activation=activation)
    layer.b.data = rng(21).standard_normal(3)
    x = Tensor(rng(22).standard_normal(lead + (4,)), requires_grad=True)
    _check_fused(lambda: layer(x), lambda: _numpy_dense(layer, x), [x],
                 [layer.W, layer.b], lead + (3,), seed=23)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("batch", [None, 2])
def test_fused_graph_conv_matches_unfused(activation, batch):
    lead = () if batch is None else (batch,)
    layer = GraphConvLayer(rng(30), 3, 4, activation=activation)
    H = Tensor(rng(31).standard_normal(lead + (4, 3)), requires_grad=True)
    M = Tensor(rng(32).standard_normal(lead + (4, 4)))
    Dinv = Tensor(M.data / 3.0)
    _check_fused(lambda: layer(H, M, Dinv), lambda: _numpy_gconv(layer, H, M, Dinv),
                 [H], [layer.W], lead + (4, 4), seed=33)


@pytest.mark.parametrize("heads, n", [(1, 3), (2, 4), (4, 9)])
def test_fused_attention_matches_unfused(heads, n):
    layer = AttentionLayer(rng(40), 8, heads=heads)
    H = Tensor(rng(41).standard_normal((2, n, 8)), requires_grad=True)
    mask = rng(42).random((2, n, n)) > 0.4
    mask[:, np.arange(n), np.arange(n)] = True
    _check_fused(lambda: layer(H, mask), lambda: _numpy_attention(layer, H, mask), [H],
                 [layer.Wq, layer.Wk, layer.Wv, layer.Wo], (2, n, 8), seed=43)


def test_fused_attention_weights_are_the_scores():
    layer = AttentionLayer(rng(50), 8, heads=4)
    H = Tensor(rng(51).standard_normal((3, 5, 8)))
    mask = rng(52).random((3, 5, 5)) > 0.5
    mask[:, np.arange(5), np.arange(5)] = True
    phi = layer.scores(H, mask).data
    # heads mix phi @ v: with Wo = I and Wv = I the output is phi applied per head
    layer.Wv.data, layer.Wo.data = np.eye(8), np.eye(8)
    out = layer(H, mask).data.reshape(3, 5, 4, 2).swapaxes(1, 2)
    v = np.ascontiguousarray(H.data.reshape(3, 5, 4, 2).swapaxes(1, 2))
    assert np.array_equal(out, phi @ v)


def test_constant_inputs_get_no_gradient():
    layer = GraphConvLayer(rng(60), 3, 3)
    H = Tensor(rng(61).standard_normal((2, 4, 3)), requires_grad=True)
    M = Tensor(rng(62).standard_normal((2, 4, 4)))
    (layer(H, M, M) ** 2).sum().backward()
    assert H.grad is not None and layer.W.grad is not None
    assert M.grad is None


def test_graph_conv_rejects_an_adjacency_that_needs_a_gradient():
    layer = GraphConvLayer(rng(63), 3, 3)
    H = Tensor(rng(64).standard_normal((2, 4, 3)))
    M = Tensor(rng(65).standard_normal((2, 4, 4)))
    learned = Tensor(np.ones((2, 4, 4)), requires_grad=True)
    for m, dinv in ((learned, M), (M, learned), (M, M * learned)):
        with pytest.raises(InvalidSpec, match="constants"):
            layer(H, m, dinv)
    with no_grad():   # no tape, so nothing downstream of `learned`
        assert layer(H, M, M * learned).shape == (2, 4, 3)


# ---------------------------------------------------------------------------
# the edge-list kernel against the dense kernel


def _graphs(data):
    """Random graphs of 1 to 6 agents each, as (mask, M) pairs, and the
    generator they were drawn from. A sparse draw leaves agents isolated (a
    self-loop only)."""
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3), label="sizes")
    density = data.draw(st.floats(0.0, 1.0), label="density")
    r = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    graphs = []
    for n in sizes:
        mask = r.random((n, n)) < density
        np.fill_diagonal(mask, True)
        graphs.append((mask, r.standard_normal((n, n)) * mask))
    return graphs, r


def _edge_list(mask, weights):
    """The edge list a rollout step builds of the graph `mask` with M = `weights`."""
    index = np.flatnonzero(mask)
    return EdgeList.of_adjacency(len(mask), index, weights.ravel()[index])


def _agree(edge, dense):
    assert edge.shape == dense.shape
    assert np.abs(edge - dense).max() <= 1e-12 * np.abs(dense).max()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_edge_graph_conv_matches_dense(data):
    graphs, r = _graphs(data)
    layer = GraphConvLayer(r, 4, 3, activation=data.draw(st.sampled_from(["tanh", "relu"])))
    for mask, weights in graphs:
        H = Tensor(r.standard_normal((1, len(mask), 4)))
        M = Tensor(weights[None])
        Dinv = Tensor(degree_normalize(weights, mask.sum(-1))[None])
        with no_grad():
            _agree(layer(H, None, None, _edge_list(mask, weights)).data,
                   layer(H, M, Dinv).data)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_edge_attention_matches_dense(data):
    graphs, r = _graphs(data)
    heads = data.draw(st.sampled_from([1, 2, 4]))
    d_head = 8 // heads
    layer = AttentionLayer(r, 8, heads=heads)
    for g, (mask, weights) in enumerate(graphs):
        H = r.standard_normal((1, len(mask), 8))
        outside = np.argwhere(~mask)
        if g == 0 and len(outside):
            # agent j is out of agent i's range and scores 800 above i's row in every head
            i, j = outside[0]
            layer.Wq.data, layer.Wk.data = np.eye(8), np.eye(8)
            H[0, i] = 1.0
            # with h_i all ones, agent k scores sum(h_k over a head's dims) / sqrt(d_head)
            row = H[0, mask[i]].reshape(-1, heads, d_head).sum(-1) / math.sqrt(d_head)
            H[0, j] = (800.0 + row.max()) / math.sqrt(d_head)   # scores 800 + row.max()
        H = Tensor(H)
        with no_grad():
            value = layer(H, None, _edge_list(mask, weights)).data
            assert np.isfinite(value).all()
            _agree(value, layer(H, mask[None]).data)
        phi = layer.scores(H, mask[None]).data
        assert not phi[np.broadcast_to(~mask[None, None], phi.shape)].any()


def test_edge_list_forward_on_a_recording_tape_raises():
    # the edge kernel has no backward: asked to record, it refuses instead
    # of putting a node on the tape that it cannot differentiate
    r = rng(90)
    mask = np.eye(4, dtype=bool)
    mask[0, 1] = mask[1, 0] = True
    edges = _edge_list(mask, mask.astype(float))
    actor = PolicyNetwork(r, NetConfig(hidden=8, heads=2))
    obs = Tensor(r.standard_normal((1, 4, 6)))
    H = Tensor(r.standard_normal((1, 4, 8)))
    for forward in (lambda: actor.action_mean(obs, None, None, edges),
                    lambda: GraphConvLayer(r, 8, 8)(H, None, None, edges),
                    lambda: AttentionLayer(r, 8, heads=2)(H, None, edges)):
        with pytest.raises(InvalidSpec, match="forward only"):
            forward()
        with no_grad():
            assert np.isfinite(forward().data).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_slotwise_edge_products_are_the_whole_ones_bit_for_bit(data):
    # the forward's slot-at-a-time sums and scores against the same
    # expressions over (E, ...) gathers
    graphs, r = _graphs(data)
    for mask, weights in graphs:
        edges = _edge_list(mask, weights)
        w = r.standard_normal((edges.index.size, 2, 1))
        x, q, k = (r.standard_normal((len(mask), 2, 4)) for _ in range(3))
        assert (edges.weighted_sum_at_dst(w, x).tobytes()
                == edges.sum_at_dst(w * x[edges.src]).tobytes())
        assert (edges.dot(q, k).tobytes()
                == np.einsum("ehk,ehk->eh", q[edges.dst], k[edges.src]).tobytes())


def test_edge_list_needs_self_loops():
    # agent 1 of 3 has no neighbour, not even itself: it owns no edge
    mask = np.ones((3, 3), dtype=bool)
    mask[1] = False
    index = np.flatnonzero(mask)
    with pytest.raises(ShapeMismatch, match="own an edge"):
        EdgeList.of_adjacency(3, index, np.ones(index.size))


def _large_ring_config():
    """configs/ring.json scaled to 256 CAVs at the same density and CAV share."""
    raw = json.loads((CONFIGS / "ring.json").read_text())
    scen = raw["scenario"]
    n_human = 256 * scen["n_human"] // scen["n_cav"]
    scen.update(ring_length=scen["ring_length"] * (256 + n_human)
                / (scen["n_human"] + scen["n_cav"]), n_human=n_human, n_cav=256)
    return config.config_from_dict(raw)


@pytest.mark.parametrize("name", ["ring_smoke", "ring", "figure_eight", "merge"])
def test_shipped_configs_run_the_dense_kernel(monkeypatch, name):
    # every step's graph fails the pairs rule: its mask, N + 2E entries for
    # E in-range pairs, is too full for the edge kernel
    graphs = []

    def spy(*args):
        adj, inputs = graph_inputs(*args)
        graphs.append(inputs[2])
        return adj, inputs

    monkeypatch.setattr(trainer_module, "graph_inputs", spy)
    cfg = config.parse_config(CONFIGS / f"{name}.json")
    ppo = dataclasses.replace(cfg.ppo_config(), horizon=150)
    bundle = make_policy(cfg.net_config(), np.random.SeedSequence(0))
    trans = collect_rollout(bundle, cfg.env_spec(), ppo, np.random.SeedSequence(1),
                            np.random.default_rng(2)).transitions
    assert trans and len(graphs) == len(trans)
    for tr, graph in zip(trans, graphs):
        assert isinstance(graph, np.ndarray)
        assert not sparse_enough(np.count_nonzero(tr.mask), tr.mask.size)


@pytest.mark.parametrize("name", ["ring_smoke", "ring", "figure_eight", "merge"])
def test_training_the_shipped_configs_builds_no_edge_list(monkeypatch, name):
    built = []
    arrange = EdgeList._arrange

    def spy(self, *args):
        built.append(args)
        arrange(self, *args)

    monkeypatch.setattr(EdgeList, "_arrange", spy)
    cfg = config.parse_config(CONFIGS / f"{name}.json")
    # long enough for the merge's CAVs to arrive; one update round
    ppo = dataclasses.replace(cfg.ppo_config(), horizon=300 if name == "merge" else 60,
                              episodes=1, batch_size=1, epochs=1)
    result = train(cfg.env_spec(), ppo, cfg.net_config(), master_seed=0)
    assert len(result.critic_losses) == 1
    assert built == []


def test_large_ring_runs_the_edge_kernel():
    env = _large_ring_config().env_spec()
    state = env.build(np.random.SeedSequence(0))
    pairs = cav_pairs(state, env.scan_scale)
    mask = build_adjacency(state, env.scheme, env.scan_scale, pairs).neighbor_mask
    assert mask.mean() < EDGE_KERNEL_MAX_DENSITY
    _, (M, Dinv, edges) = graph_inputs(state, pairs, env)
    assert M is None and Dinv is None
    assert isinstance(edges, EdgeList) and edges.index.size == mask.sum()


@pytest.mark.parametrize("name", ["ring_smoke", "ring_256"])
def test_a_rollout_builds_one_graph_per_step(monkeypatch, name):
    # on either kernel, a step with CAVs builds its graph once, through the
    # one builder
    calls = []

    def spy(*args):
        calls.append(args)
        return build_adjacency(*args)

    monkeypatch.setattr(trainer_module, "build_adjacency", spy)
    large = name == "ring_256"
    cfg = _large_ring_config() if large else config.parse_config(CONFIGS / f"{name}.json")
    ppo = cfg.ppo_config()
    if large:
        ppo = dataclasses.replace(ppo, horizon=5)
    bundle = make_policy(cfg.net_config(), np.random.SeedSequence(0))
    trans = collect_rollout(bundle, cfg.env_spec(), ppo, np.random.SeedSequence(1),
                            np.random.default_rng(2)).transitions
    assert trans and len(calls) == len(trans)
    assert all(sparse_enough(np.count_nonzero(tr.mask), tr.mask.size) == large for tr in trans)


# ---------------------------------------------------------------------------
# the edge list of a step's adjacency held as its mask's entries


def _assert_edge_list_of(edges, mask, weights, degree):
    """`edges` is the graph `mask`: one edge per entry, from agent j to agent
    i at entry (i, j), grouped by agent for the sums at each agent, carrying
    M and D^-1 M bit for bit as the dense kernel's inputs hold them."""
    n = len(mask)
    assert edges.shape == (1, n, n)
    assert np.array_equal(np.sort(edges.index), np.flatnonzero(mask))
    assert np.array_equal(edges.dst, edges.index // n)
    assert np.array_equal(edges.src, edges.index % n)
    # integer-valued sums are exact in any order
    flat = np.arange(n * n, dtype=float).reshape(n, n)
    assert np.array_equal(edges.sum_at_dst(edges.index.astype(float)), (flat * mask).sum(1))
    assert edges.m.tobytes() == np.take(weights, edges.index).tobytes()
    assert (edges.dinv_m.tobytes()
            == np.take(degree_normalize(weights, degree), edges.index).tobytes())


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_edge_list_of_an_adjacency_is_the_edge_list_of_its_mask(data):
    n = data.draw(st.integers(1, 12), label="n")
    density = data.draw(st.floats(0.0, 1.0), label="density")
    r = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    mask = r.random((n, n)) < density
    np.fill_diagonal(mask, True)
    weights = r.standard_normal((n, n)) * mask
    _assert_edge_list_of(_edge_list(mask, weights), mask, weights, mask.sum(-1))


def _scenario_states(env, steps: int = 300, every: int = 50) -> list:
    """States with CAVs of a zero-command run of `env`, every `every` steps."""
    state, states = env.build(np.random.SeedSequence(0)), []
    for t in range(steps):
        if t % every == 0 and state.cavs():
            states.append(state)
        state, _ = step(state, {v.id: 0.0 for v in state.cavs()}, env.dt)
        if state.collided:
            break
    return states


def _scenario_envs() -> dict:
    """The four shipped scenarios, and the 256-CAV ring at its 30 m scan and
    at 60 m, where its mask is 3.2% full, just above the edge kernel's cut-off."""
    envs = {name: config.parse_config(CONFIGS / f"{name}.json").env_spec()
            for name in ("ring_smoke", "ring", "figure_eight", "merge")}
    large = _large_ring_config().env_spec()
    large = dataclasses.replace(
        large, options=dataclasses.replace(large.options, safety_clamp=True))
    envs["ring_256"] = large
    envs["ring_256_scan_60"] = dataclasses.replace(large, scan_scale=60.0)
    return envs


@pytest.mark.parametrize("name", ["ring_smoke", "ring", "figure_eight", "merge", "ring_256",
                                  "ring_256_scan_60"])
def test_kernel_choice_from_the_pairs_is_the_masks(name):
    # the rollout's rule on the pairs is the density rule on the mask they
    # stand for, whose N + 2E entries they count
    env = _scenario_envs()[name]
    large = name.startswith("ring_256")
    states = _scenario_states(env, steps=30 if large else 300, every=10 if large else 50)
    assert states
    for state in states:
        pairs = cav_pairs(state, env.scan_scale)
        dense = scalar.build_adjacency(state, env.scheme, env.scan_scale)
        adj, (M, Dinv, graph) = graph_inputs(state, pairs, env)
        n, nnz = len(pairs.ids), np.count_nonzero(dense.neighbor_mask)
        assert nnz == n + 2 * len(pairs.i)
        edge_step = sparse_enough(nnz, n * n)
        assert isinstance(graph, EdgeList) == edge_step == (name == "ring_256")
        assert adj.weights.tobytes() == dense.weights.tobytes()
        assert np.array_equal(adj.neighbor_mask, dense.neighbor_mask)
        if edge_step:   # the edge list, against the scalar loop's adjacency
            assert M is None and Dinv is None
            _assert_edge_list_of(graph, dense.neighbor_mask, dense.weights, pairs.degree)
        else:
            assert np.array_equal(graph, dense.neighbor_mask[None])


@pytest.mark.parametrize("scheme", ["gaussian", "position", "velocity"])
def test_adjacency_is_the_scalar_one_for_every_scheme(scheme):
    # the record's entries, N + 2E for E pairs, are the scalar loop's mask
    # entries and weights, and its dense reads the scalar loop's arrays
    env = _scenario_envs()["figure_eight"]
    schemes = {"gaussian": GaussianSpeedField(), "position": PositionOnly(),
               "velocity": VelocityOnly()}
    for state in _scenario_states(env):
        pairs = cav_pairs(state, env.scan_scale)
        adj = build_adjacency(state, schemes[scheme], env.scan_scale, pairs)
        dense = scalar.build_adjacency(state, schemes[scheme], env.scan_scale)
        assert len(np.unique(adj.index)) == len(adj.index) == len(pairs.ids) + 2 * len(pairs.i)
        assert np.array_equal(adj.index, dense.index)
        assert adj.values.tobytes() == dense.values.tobytes()
        assert adj.weights.tobytes() == dense.weights.tobytes()
        assert np.array_equal(adj.neighbor_mask, dense.neighbor_mask)


def test_non_finite_edge_values_raise():
    index = np.array([0, 1, 2, 3])
    with pytest.raises(NonFiniteValue, match="adjacency at the edges"):
        EdgeList.of_adjacency(2, index, np.array([1.0, np.nan, 0.5, 1.0]))
    with pytest.raises(NonFiniteValue, match="adjacency at the edges"):
        EdgeList.of_adjacency(2, index, np.array([1.0, 2.0, -np.inf, 1.0]))


def test_graph_conv_takes_m_from_tensors_or_from_the_edge_list():
    r = rng(95)
    mask = np.eye(4, dtype=bool)
    mask[0, 1] = mask[1, 0] = mask[2, 3] = True
    weights = r.standard_normal((4, 4)) * mask
    carried = _edge_list(mask, weights)
    layer = GraphConvLayer(r, 3, 2)
    H = Tensor(r.standard_normal((1, 4, 3)))
    M = Tensor(weights[None])
    Dinv = Tensor(degree_normalize(weights, mask.sum(-1))[None])
    with no_grad():
        _agree(layer(H, None, None, carried).data, layer(H, M, Dinv).data)
        for args in ((M, Dinv, carried), (None, None, None), (M, None, carried),
                     (M, None, None), (None, Dinv, None)):
            with pytest.raises(InvalidSpec, match="either"):
                layer(H, *args)
