"""The fused loss nodes: the Gaussian log-density (`GaussianPolicyHead.log_prob`),
the TD loss (`trainer._td_loss`) and the clipped PPO surrogate
(`trainer._clipped_surrogate`), each one tape node with a hand-written
backward, on padded (B, N_max) layouts of 1 to 4 agents per step."""
import dataclasses
import math

import numpy as np
import pytest
from scalar_features import adjacency_of

from cavlab.layers import LOG_2PI, NetConfig, PolicyNetwork
from cavlab.selfcheck import fd_grad, rel_err
from cavlab.tensor import Tensor
from cavlab.trainer import PaddedBatch, Transition, _clipped_surrogate, _td_loss

CLIP = 0.2
# PPO ratios drawn per real agent: below, inside and above [1 - CLIP, 1 + CLIP],
# each far enough from the band's edges that finite differences cross no kink
RATIOS = (0.5, 0.65, 0.9, 1.0, 1.1, 1.4, 1.7)


def _layout(seed: int, log_spread: float):
    """A padded layout of steps of 1 to 4 agents (each count at least twice,
    in random order), an actor whose head has `log_spread`, a network-output
    leaf `mean` (B, 4), and logp_old set so that each real agent's ratio at
    `mean` is one of RATIOS."""
    rng = np.random.default_rng(seed)
    counts = rng.permutation([1, 2, 3, 4] * 2 + list(rng.integers(1, 5, size=4)))
    trans = []
    for t, n in enumerate(counts.tolist()):
        ids = list(range(n))
        trans.append(Transition(
            step_index=t, agent_ids=ids, obs=np.zeros((n, 6)),
            adjacency=adjacency_of(ids, np.eye(n), np.eye(n, dtype=bool)),
            actions=rng.uniform(-3.0, 3.0, n), logp_old=np.zeros(n), reward=0.0,
            next_obs=np.zeros((n, 6)), terminal=np.zeros(n, dtype=bool)))
    batch = PaddedBatch.of(trans)
    actor = PolicyNetwork(rng, NetConfig(hidden=4, heads=1))
    actor.head.log_spread.data[:] = log_spread
    mean = Tensor(rng.uniform(-3.0, 3.0, batch.agents.shape), requires_grad=True)
    ratios = rng.choice(RATIOS, size=batch.agents.shape)
    logp_new = _log_density(batch.actions, mean.data, log_spread)
    logp_old = np.where(batch.agents, logp_new - np.log(ratios), 0.0)
    return dataclasses.replace(batch, logp_old=logp_old), actor, mean


def _log_density(actions, mean, log_spread):
    return -0.5 * ((actions - mean) / np.exp(log_spread)) ** 2 - log_spread - 0.5 * LOG_2PI


def _advantages(batch, seed):
    adv = np.random.default_rng(seed).standard_normal(batch.agents.shape)
    return np.where(batch.agents, adv, 0.0)


def _fd_check(loss, tensor, h=1e-6):
    """The gradient of the scalar `loss()` w.r.t. the leaf `tensor` against
    finite differences; returns the gradient."""
    tensor.grad = None
    loss().backward()
    grad = tensor.grad.copy()
    orig = tensor.data.copy()

    def f(x):
        tensor.data = x
        return float(loss().data)

    fd = fd_grad(f, orig, h=h)
    tensor.data = orig
    assert rel_err(grad, fd) < 1e-6
    return grad


@pytest.mark.parametrize("seed", range(4))
def test_log_prob_node_is_the_formula_and_its_composition_bit_for_bit(seed):
    batch, actor, mean = _layout(seed, log_spread=-0.4 + 0.3 * seed)
    head, log_spread = actor.head, actor.head.log_spread
    actions = Tensor(batch.actions, requires_grad=True)
    weights = Tensor(np.random.default_rng(seed).standard_normal(mean.shape))

    def fused():
        return head.log_prob(actions, mean)

    def composed():
        z = (actions - mean) / log_spread.exp()
        return -0.5 * z ** 2 - log_spread - 0.5 * LOG_2PI

    grads = []
    for fn in (fused, composed):
        for t in (actions, mean, log_spread):
            t.grad = None
        out = fn()
        (out * weights).sum().backward()
        grads.append([out.data] + [t.grad for t in (actions, mean, log_spread)])
    assert np.array_equal(grads[0][0], _log_density(batch.actions, mean.data,
                                                     log_spread.data))
    for got, want in zip(*grads):
        assert got.tobytes() == want.tobytes()
    for t in (actions, mean, log_spread):
        _fd_check(lambda: (head.log_prob(actions, mean) * weights).sum(), t)


@pytest.mark.parametrize("seed", range(4))
def test_td_loss_node_is_the_formula_and_its_composition_bit_for_bit(seed):
    batch, _, values = _layout(seed, log_spread=0.0)
    targets = np.where(batch.agents, np.random.default_rng(seed).standard_normal(
        values.shape), 0.0)
    loss = _td_loss(values, targets, batch.agents)
    assert loss.shape == ()
    assert loss.data.tobytes() == np.asarray(
        ((values.data - targets) ** 2 * batch.agents).sum()).tobytes()
    grad = _fd_check(lambda: _td_loss(values, targets, batch.agents), values)
    assert np.all(grad[~batch.agents] == 0.0)
    assert np.all(grad[batch.agents] != 0.0)
    values.grad = None
    ((values - Tensor(targets)) ** 2 * batch.agents).sum().backward()
    assert values.grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_clipped_surrogate_node_is_the_formula_and_its_gradients_agree_with_fd(seed):
    batch, actor, mean = _layout(seed, log_spread=0.35 - 0.2 * seed)
    adv = _advantages(batch, seed)
    real = batch.agents
    log_spread = actor.head.log_spread.data
    ratio = np.exp(_log_density(batch.actions, mean.data, log_spread) - batch.logp_old)
    below, above = ratio < 1.0 - CLIP, ratio > 1.0 + CLIP
    for rows in (below, ~below & ~above, above, adv > 0.0, adv < 0.0):
        assert (rows & real).any()

    def objective():
        return _clipped_surrogate(actor, mean, batch, adv, CLIP)

    want = (np.minimum(ratio * adv, np.clip(ratio, 1.0 - CLIP, 1.0 + CLIP) * adv)
            * real).sum()
    assert objective().data.tobytes() == np.asarray(want).tobytes()
    grad = _fd_check(objective, mean)
    _fd_check(objective, actor.head.log_spread)
    # the clipped term is the minimum, and flat, where A > 0 above the band
    # and where A < 0 below it: those rows and the padded ones get exactly 0
    flat = (adv > 0.0) & above | (adv < 0.0) & below
    assert np.all(grad[flat | ~real] == 0.0)
    assert np.all(grad[real & ~flat] != 0.0)
