"""Built-in invariant and gradient suites behind `cavlab check`.

A trimmed, dependency-free version of the test suite: meant as a fast
post-install gate, not a replacement for pytest.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .graph import GaussianSpeedField, KernelSpec, build_adjacency
from .idm import IdmParams, equilibrium_speed
from .layers import AttentionLayer, Dense, GraphConvLayer, NetConfig, PolicyNetwork
from .networks import RingSpec
from .sim import build_network, step
from .tensor import Tensor
from .trainer import _clipped_surrogate, _td_loss


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


def _grad_agrees(loss_fn, leaf: Tensor) -> bool:
    """Whether the tape's gradient of the scalar `loss_fn()` w.r.t. `leaf`
    agrees with finite differences."""
    leaf.grad = None
    loss_fn().backward()
    orig = leaf.data.copy()

    def f(x):
        leaf.data = x
        return float(loss_fn().data)

    fd = fd_grad(f, orig)
    leaf.data = orig
    return rel_err(leaf.grad, fd) < 1e-4


def check_gradients() -> bool:
    """Every hand-written backward against finite differences: the layers,
    the Gaussian log-density, the TD loss and the clipped surrogate."""
    rng = np.random.default_rng(0)
    ok = True
    for trial in range(5):
        dense = Dense(rng, 4, 3)
        x = Tensor(rng.standard_normal((2, 4)))
        ok &= _grad_agrees(lambda: (dense(x) ** 2).sum(), dense.W)

        gconv = GraphConvLayer(rng, 3, 3)
        Hg = Tensor(rng.standard_normal((4, 3)))
        Mg = rng.standard_normal((4, 4)) * 0.5
        ok &= _grad_agrees(lambda: (gconv(Hg, Tensor(Mg), Tensor(Mg / 2.0)) ** 2).sum(),
                           gconv.W)

        attn = AttentionLayer(rng, 4, heads=2)
        H = Tensor(rng.standard_normal((1, 3, 4)))
        mask = np.ones((1, 3, 3), dtype=bool)
        ok &= _grad_agrees(lambda: (attn(H, mask) ** 2).sum(), attn.Wq)

        # the loss nodes on a (2, 3) layout whose last agent of step 1 is padding
        actor = PolicyNetwork(rng, NetConfig(hidden=4, heads=1))
        actor.head.log_spread.data[:] = rng.uniform(-0.5, 0.5)
        agents = np.array([[True, True, True], [True, True, False]])
        out = Tensor(rng.uniform(-2.0, 2.0, (2, 3)), requires_grad=True)  # means or values
        actions = Tensor(rng.uniform(-2.0, 2.0, (2, 3)) * agents)
        # the columns `_clipped_surrogate` reads; ratios spread over the clip band
        batch = SimpleNamespace(actions=actions.data, agents=agents,
                                logp_old=rng.normal(-1.5, 0.5, (2, 3)) * agents)
        adv = rng.standard_normal((2, 3)) * agents
        targets = rng.standard_normal((2, 3)) * agents
        for leaf in (out, actor.head.log_spread):
            ok &= _grad_agrees(lambda: (actor.log_prob(actions, out) ** 2).sum(), leaf)
            ok &= _grad_agrees(lambda: _clipped_surrogate(actor, out, batch, adv, 0.2), leaf)
        ok &= _grad_agrees(lambda: _td_loss(out, targets, agents), out)
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
        weights = build_adjacency(state, GaussianSpeedField(KernelSpec(1.0, sigma)), sc).weights
        for i, vi in enumerate(state.vehicles):
            for j, vj in enumerate(state.vehicles):
                d = abs(vi.route_pos - vj.route_pos)
                d = min(d, 230.0 - d)
                if i == j:
                    if weights[i, j] != 1.0:
                        return False
                elif d > sc:
                    if weights[i, j] != 0.0:
                        return False
                else:
                    want = math.exp(-d * d / (2 * sigma ** 2)) * (vj.speed - vi.speed)
                    if abs(weights[i, j] - want) > 1e-12:
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
        ("gradient checks (layers, log-density, TD loss, clipped surrogate)", check_gradients),
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
