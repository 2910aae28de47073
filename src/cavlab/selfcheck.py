"""Built-in invariant and gradient suites behind `cavlab check`.

A trimmed, dependency-free version of the test suite: meant as a fast
post-install gate, not a replacement for pytest.
"""
from __future__ import annotations

import math

import numpy as np

from .graph import GaussianSpeedField, KernelSpec, build_adjacency
from .idm import IdmParams, equilibrium_speed
from .layers import AttentionLayer, Dense, GraphConvLayer, NetConfig, PolicyNetwork
from .networks import RingSpec
from .sim import build_network, step
from .tensor import Tensor


def fd_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar function `fn` w.r.t. the array `x`.

    The one gradient checker of the package; the tests use it too.
    """
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (fn(xp) - fn(xm)) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-12)


def check_gradients() -> bool:
    rng = np.random.default_rng(0)
    ok = True
    for trial in range(5):
        dense = Dense(rng, 4, 3)
        x = rng.standard_normal((2, 4))

        def loss_fn(w):
            dense.W.data = w
            return float((dense(Tensor(x)) ** 2).sum().data)

        dense.W.grad = None
        (dense(Tensor(x)) ** 2).sum().backward()
        ok &= rel_err(dense.W.grad, fd_grad(loss_fn, dense.W.data.copy())) < 1e-4

        gconv = GraphConvLayer(rng, 3, 3)
        Hg = rng.standard_normal((4, 3))
        Mg = rng.standard_normal((4, 4)) * 0.5

        def gloss(w):
            gconv.W.data = w
            return float((gconv(Tensor(Hg), Tensor(Mg), Tensor(Mg / 2.0)) ** 2).sum().data)

        gconv.W.grad = None
        (gconv(Tensor(Hg), Tensor(Mg), Tensor(Mg / 2.0)) ** 2).sum().backward()
        ok &= rel_err(gconv.W.grad, fd_grad(gloss, gconv.W.data.copy())) < 1e-4

        attn = AttentionLayer(rng, 4, heads=2)
        H = rng.standard_normal((1, 3, 4))
        mask = np.ones((1, 3, 3), dtype=bool)

        def aloss(w):
            attn.Wq.data = w
            return float((attn(Tensor(H), mask) ** 2).sum().data)

        attn.Wq.grad = None
        (attn(Tensor(H), mask) ** 2).sum().backward()
        ok &= rel_err(attn.Wq.grad, fd_grad(aloss, attn.Wq.data.copy())) < 1e-4
    return bool(ok)


def check_attention_normalization() -> bool:
    rng = np.random.default_rng(1)
    layer = AttentionLayer(rng, 8, heads=4)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        H = Tensor(rng.standard_normal((1, n, 8)))
        mask = rng.random((1, n, n)) > 0.4
        mask[0, np.arange(n), np.arange(n)] = True
        phi = layer.scores(H, mask).data
        if not np.allclose(phi.sum(axis=-1), 1.0, atol=1e-9):
            return False
        expanded = np.broadcast_to(mask[:, None, :, :], phi.shape)
        if not np.all(phi[~expanded] == 0.0):
            return False
    return True


def check_adjacency() -> bool:
    rng = np.random.default_rng(2)
    sigma = 4.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        state = build_network(RingSpec(230.0), 0, n, seed=0,
                              idm=IdmParams(noise_mag=0.0))
        for v in state.vehicles:
            v.route_pos = float(rng.uniform(0, 230.0))
            v.speed = float(rng.uniform(0, 12.0))
        sc = float(rng.uniform(10, 100))
        adj = build_adjacency(state, GaussianSpeedField(KernelSpec(1.0, sigma)), sc)
        for i, vi in enumerate(state.vehicles):
            for j, vj in enumerate(state.vehicles):
                d = abs(vi.route_pos - vj.route_pos)
                d = min(d, 230.0 - d)
                if i == j:
                    if adj.weights[i, j] != 1.0:
                        return False
                elif d > sc:
                    if adj.weights[i, j] != 0.0:
                        return False
                else:
                    want = math.exp(-d * d / (2 * sigma ** 2)) * (vj.speed - vi.speed)
                    if abs(adj.weights[i, j] - want) > 1e-12:
                        return False
    return True


def check_idm_equilibrium() -> bool:
    idm = IdmParams(v0=30.0 / 3.6, noise_mag=0.0)
    state = build_network(RingSpec(230.0), 22, 0, seed=0, idm=idm)
    v_e = equilibrium_speed(230.0 / 22.0 - 5.0, idm)
    for v in state.vehicles:
        v.speed = v_e
    for _ in range(200):
        state, info = step(state, {}, 0.1)
        if np.max(np.abs(info.speeds - v_e)) > 1e-9:
            return False
    return True


def check_determinism() -> bool:
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        net = PolicyNetwork(rng, NetConfig(hidden=16, heads=2))
        obs = np.ones((1, 3, 6)) * 0.3
        M = np.eye(3)[None]
        mask = np.ones((1, 3, 3), dtype=bool)
        outs.append(net.action_mean(Tensor(obs), Tensor(M), Tensor(M), mask).data)
    return bool(np.array_equal(outs[0], outs[1]))


def run_all() -> int:
    suites = [
        ("gradient checks (dense, graph conv, attention)", check_gradients),
        ("attention normalization + mask", check_attention_normalization),
        ("adjacency kernel/mask/antisymmetry", check_adjacency),
        ("IDM ring equilibrium persistence", check_idm_equilibrium),
        ("forward determinism", check_determinism),
    ]
    failures = 0
    for name, fn in suites:
        try:
            passed = fn()
        except Exception as exc:  # noqa: BLE001 - report, keep checking
            passed = False
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        if passed:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}")
    return failures
