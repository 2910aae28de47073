import math
import os
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cavlab.graph import GaussianSpeedField
from cavlab import trainer as trainer_module
from cavlab.errors import NanGradient, NonFiniteAction, NonFiniteValue, UpdateProcessLost
from cavlab.idm import IdmParams
from cavlab.layers import CriticNetwork, NetConfig
from cavlab.networks import RingSpec
from cavlab.rewards import RingEightReward, reward_ring_eight
from cavlab.selfcheck import fd_grad, rel_err
from cavlab.sim import SimOptions
from cavlab.tensor import Tensor
from cavlab.trainer import (
    EnvSpec, PaddedBatch, PpoConfig, collect_rollout, compute_advantages,
    critic_loss_given_targets, critic_update, critic_values, episode_streams, make_policy,
    init_stream, normalize_advantages, reward_to_go, surrogate_objective, td_targets, train,
)


TARGET = 20.0 / 3.6


def small_env(n_human=2, n_cav=4, safety_clamp=True):
    return EnvSpec(
        network=RingSpec(length=230.0),
        n_human=n_human, n_cav=n_cav,
        idm=IdmParams(v0=TARGET, noise_mag=0.2),
        options=SimOptions(safety_clamp=safety_clamp),
        target_speed=TARGET, dt=0.1,
        reward=RingEightReward(target_speed=TARGET),
        scheme=GaussianSpeedField(), scan_scale=60.0,
    )


def small_ppo(**kw):
    base = dict(gamma=0.99, clip=0.2, batch_size=400, epochs=2,
                actor_lr=3e-4, critic_lr=1e-3, horizon=25, episodes=4)
    base.update(kw)
    return PpoConfig(**base)


def small_bundle(seed=0, heads=2, hidden=16):
    return make_policy(NetConfig(hidden=hidden, heads=heads), init_stream(seed))


def force_overlap(monkeypatch, on: bool):
    """Make `train` run the actor update beside the critic's (BLAS pinned,
    2 CPUs) or after it (BLAS unpinned)."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1" if on else "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert trainer_module.updates_overlap() is on


def count_forks(monkeypatch) -> list[int]:
    """The pids of the children forked from now on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# reward-to-go and advantages


def test_reward_to_go_hand_computed():
    r = [1.0, 2.0, 3.0]
    rtg = reward_to_go(r, 0.9)
    assert rtg.tolist() == pytest.approx(
        [1.0 + 0.9 * 2.0 + 0.81 * 3.0, 2.0 + 0.9 * 3.0, 3.0])


def test_zero_rewards_zero_critic_zero_advantages():
    bundle = small_bundle()
    bundle.critic.vhead.W.data[:] = 0.0
    bundle.critic.vhead.b.data[:] = 0.0
    env = small_env()
    ppo = small_ppo(horizon=5)
    _, rng = episode_streams(0, 0)
    episode = collect_rollout(bundle, env, ppo, 0, rng)
    episode.rewards = [0.0] * len(episode.rewards)
    for tr in episode.transitions:
        tr.reward = 0.0
    advs = compute_advantages(episode, bundle.critic, ppo)
    assert all(np.allclose(a, 0.0, atol=1e-12) for a in advs)


def test_single_step_advantage():
    bundle = small_bundle()
    env = small_env()
    ppo = small_ppo(horizon=1)
    _, rng = episode_streams(0, 0)
    episode = collect_rollout(bundle, env, ppo, 0, rng)
    episode.rewards = [1.0]
    episode.transitions[0].reward = 1.0
    # force critic baseline to 0.3 for every agent
    bundle.critic.vhead.W.data[:] = 0.0
    bundle.critic.vhead.b.data[:] = 0.3
    advs = compute_advantages(episode, bundle.critic, ppo)
    assert np.allclose(advs[0], 0.7, atol=1e-12)


def test_advantage_telescoping_gamma_one():
    # gamma = 1, critic = 0: step-0 advantage equals the episode return
    bundle = small_bundle()
    bundle.critic.vhead.W.data[:] = 0.0
    bundle.critic.vhead.b.data[:] = 0.0
    env = small_env()
    ppo = PpoConfig(gamma=0.999999999, batch_size=400, epochs=1, horizon=10,
                    episodes=1)
    _, rng = episode_streams(3, 0)
    episode = collect_rollout(bundle, env, ppo, 3, rng)
    rtg = reward_to_go(episode.rewards, 1.0)
    advs = compute_advantages(episode, bundle.critic,
                              PpoConfig(gamma=0.9999999999999999, batch_size=1,
                                        horizon=10, episodes=1))
    # gamma numerically 1.0 is outside PpoConfig's domain; compare best-effort
    assert np.allclose(advs[0], rtg[0], rtol=1e-8)
    assert rtg[0] == pytest.approx(episode.episode_return, rel=1e-8)


# ---------------------------------------------------------------------------
# rollouts


def test_rollout_deterministic_given_seed():
    env = small_env()
    ppo = small_ppo(horizon=15)
    runs = []
    for _ in range(2):
        bundle = small_bundle(seed=1)
        _, rng = episode_streams(7, 0)
        episode = collect_rollout(bundle, env, ppo, 7, rng)
        runs.append([tr.actions.tolist() for tr in episode.transitions])
    assert runs[0] == runs[1]


def test_zero_spread_policy_rollout_matches_deterministic():
    env = small_env()
    ppo = small_ppo(horizon=10)
    bundle = small_bundle(seed=2)
    bundle.actor.head.log_spread.data[:] = -40.0  # spread ~ 4e-18
    _, rng = episode_streams(1, 0)
    sampled = collect_rollout(bundle, env, ppo, 1, rng)
    determin = collect_rollout(bundle, env, ppo, 1, None)
    for a, b in zip(sampled.transitions, determin.transitions):
        assert np.allclose(a.actions, b.actions, atol=1e-12)


def test_collision_breaks_episode():
    env = small_env(n_human=0, n_cav=6, safety_clamp=False)
    ppo = small_ppo(horizon=400, epochs=1)
    bundle = small_bundle(seed=3)
    # drive two agents into each other: constant max accel for one, brake rest
    bundle.actor.head.mean_layer.W.data[:] = 0.0
    bundle.actor.head.log_spread.data[:] = math.log(3.0)
    _, rng = episode_streams(2, 0)
    episode = collect_rollout(bundle, env, ppo, 2, rng)
    if episode.collided:
        assert episode.length < 400
        assert episode.transitions[-1].terminal.all()


def test_reward_replay_from_rollout():
    env = small_env()
    ppo = small_ppo(horizon=30)
    bundle = small_bundle(seed=4)
    _, rng = episode_streams(5, 0)
    episode = collect_rollout(bundle, env, ppo, 5, rng, keep_infos=True)
    for tr, info in zip(episode.transitions, episode.infos):
        again = reward_ring_eight(info.speeds, info.cav_accels, env.reward)
        assert tr.reward == again  # exact equality


# ---------------------------------------------------------------------------
# PPO objective semantics


def _one_transition_batch(adv_value):
    env = small_env()
    ppo = small_ppo(horizon=1)
    bundle = small_bundle(seed=5, heads=2, hidden=16)
    _, rng = episode_streams(11, 0)
    episode = collect_rollout(bundle, env, ppo, 11, rng)
    tr = episode.transitions[0]
    advs = [np.full(len(tr.agent_ids), adv_value)]
    return bundle, [tr], advs


def test_ratio_one_objective_equals_sum_of_advantages():
    bundle, trans, advs = _one_transition_batch(0.37)
    obj = surrogate_objective(bundle.actor, trans, advs, clip=0.2)
    assert float(obj.data) == pytest.approx(float(np.sum(advs[0])), rel=1e-9)


def test_update_log_density_at_theta_old_is_the_rollouts():
    # a ring_smoke episode: the update's log_prob of the stored actions is
    # logp_old bit for bit, so every PPO ratio at theta_old is exactly 1
    from pathlib import Path

    from cavlab.config import parse_config
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "ring_smoke.json")
    ppo = PpoConfig(horizon=60)
    bundle = make_policy(cfg.net_config(), init_stream(0))
    bundle.actor.head.log_spread.data[:] = -0.38620129544625814
    env_ss, rng = episode_streams(0, 0)
    trans = collect_rollout(bundle, cfg.env_spec(), ppo, env_ss, rng).transitions
    assert len(trans) == 60
    batch = PaddedBatch.of(trans)
    mean = bundle.actor.action_mean(*batch.inputs())
    logp = bundle.actor.log_prob(Tensor(batch.rows([tr.actions for tr in trans])), mean)
    assert np.array_equal(logp.data, batch.rows([tr.logp_old for tr in trans]))
    advs = [np.linspace(-1.0, 1.0, len(tr.agent_ids)) for tr in trans]
    obj = surrogate_objective(bundle.actor, trans, advs, clip=0.2)
    assert float(obj.data) == float((batch.rows(advs) * batch.agents).sum())


def test_merge_update_log_density_at_theta_old_is_the_rollouts_to_rounding():
    # a merge's agent count varies, and padding a transition to N_max can move
    # its action mean in the last bit: the ratio at theta_old is 1 to rounding
    from pathlib import Path

    from cavlab.config import parse_config
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "merge.json")
    ppo = PpoConfig(horizon=400)
    bundle = make_policy(cfg.net_config(), init_stream(0))
    bundle.actor.head.log_spread.data[:] = -0.38620129544625814
    for seed in range(3):
        env_ss, rng = episode_streams(seed, 0)
        trans = collect_rollout(bundle, cfg.env_spec(), ppo, env_ss, rng).transitions
        assert len({len(tr.agent_ids) for tr in trans}) > 1
        batch = PaddedBatch.of(trans)
        mean = bundle.actor.action_mean(*batch.inputs())
        logp = bundle.actor.log_prob(Tensor(batch.rows([tr.actions for tr in trans])), mean)
        gap = np.abs(logp.data - batch.rows([tr.logp_old for tr in trans]))[batch.agents]
        assert gap.max() <= 1e-12


def test_in_band_clip_equals_unclipped_hand_oracle():
    # scalar oracle: ratios inside [1-eps, 1+eps] leave min() at the raw term
    eps = 0.2
    ratios = np.array([0.85, 1.0, 1.15])
    adv = np.array([2.0, -1.0, 0.5])
    raw = ratios * adv
    clipped = np.clip(ratios, 1 - eps, 1 + eps) * adv
    assert np.array_equal(np.minimum(raw, clipped), raw)


def test_out_of_band_disadvantageous_sample_has_zero_gradient():
    bundle, trans, advs = _one_transition_batch(1.0)
    # shift logp_old so the new/old ratio is ~ 1 + 2*eps > 1 + eps
    trans[0].logp_old = trans[0].logp_old - math.log(1.4)
    params = bundle.actor.parameters()
    for p in params.values():
        p.grad = None
    obj = surrogate_objective(bundle.actor, trans, advs, clip=0.2)
    obj.backward()
    for name, p in params.items():
        if p.grad is not None:
            assert np.allclose(p.grad, 0.0, atol=1e-12), name

    # finite differences agree: objective locally flat in any parameter
    w = bundle.actor.head.mean_layer.W
    orig = w.data.copy()

    def f(x):
        w.data = x
        return float(surrogate_objective(bundle.actor, trans, advs, clip=0.2).data)

    fd = fd_grad(f, orig, h=1e-7)
    w.data = orig
    assert np.allclose(fd, 0.0, atol=1e-6)


def test_clip_saturation_flat_value():
    # when ratio = 1 + 2 eps and A > 0, objective equals (1 + eps) * A exactly
    bundle, trans, advs = _one_transition_batch(1.0)
    trans[0].logp_old = trans[0].logp_old - math.log(1.4)
    obj = surrogate_objective(bundle.actor, trans, advs, clip=0.2)
    n_agents = len(trans[0].agent_ids)
    assert float(obj.data) == pytest.approx(1.2 * n_agents, rel=1e-9)


# ---------------------------------------------------------------------------
# critic loss


def test_critic_loss_matches_replayed_td_errors():
    bundle = small_bundle(seed=6)
    env = small_env()
    ppo = small_ppo(horizon=8)
    _, rng = episode_streams(8, 0)
    episode = collect_rollout(bundle, env, ppo, 8, rng)
    trans = episode.transitions
    targets = td_targets(bundle.critic, trans, ppo.gamma)
    loss = float(critic_loss_given_targets(bundle.critic, trans, targets).data)

    from cavlab.trainer import critic_values
    v_now = critic_values(bundle.critic, trans)
    v_next = critic_values(bundle.critic, trans, PaddedBatch.of(trans).with_next_obs(trans))
    expected = 0.0
    for k, tr in enumerate(trans):
        target = tr.reward + ppo.gamma * v_next[k] * (~tr.terminal).astype(float)
        expected += float(((target - v_now[k]) ** 2).sum())
    assert loss == pytest.approx(expected, rel=1e-12)


class _FailingOnceGuard(trainer_module._GuardedOptimizer):
    """A guard whose first minibatch step updates, then reports a blowup."""
    failed = False

    def minibatch_step(self, loss_fn, scale):
        super().minibatch_step(loss_fn, scale)
        if not self.failed:
            self.failed = True
            raise NonFiniteValue("forced retry")


def test_train_counts_nan_guard_halvings(monkeypatch):
    env = small_env()
    ppo = small_ppo(horizon=20, episodes=2, batch_size=80, epochs=1)
    net = NetConfig(hidden=16, heads=2)
    guard = trainer_module._GuardedOptimizer
    for overlap in (False, True):   # the actor update in this process, then beside
        force_overlap(monkeypatch, overlap)
        monkeypatch.setattr(trainer_module, "_GuardedOptimizer", guard)
        assert train(env, ppo, net, master_seed=3).lr_halvings == {"actor": 0, "critic": 0}
        # each guard rejects its first batch once and retries at half the step
        monkeypatch.setattr(trainer_module, "_GuardedOptimizer", _FailingOnceGuard)
        result = train(env, ppo, net, master_seed=3)
        assert len(result.critic_losses) == 2
        assert result.lr_halvings == {"actor": 1, "critic": 1}


def _critic_update_with_fresh_targets(trans, critic, guard, ppo, rng):
    """critic_update as it was before epoch 0 reused the initial targets."""
    targets = td_targets(critic, trans, ppo.gamma)
    initial = float(critic_loss_given_targets(critic, trans, targets).data)

    def passes(scale):
        for _ in range(ppo.epochs):
            targets = td_targets(critic, trans, ppo.gamma)
            for chunk in trainer_module._minibatches(trans, ppo.minibatch_size, rng):
                subset = [trans[i] for i in chunk]
                sub_targets = [targets[i] for i in chunk]
                guard.minibatch_step(
                    lambda: critic_loss_given_targets(critic, subset, sub_targets), scale)

    guard.run(passes)
    return initial


@pytest.mark.parametrize("retry", [False, True])
def test_critic_update_reuses_initial_targets(retry):
    ppo = small_ppo(horizon=20, epochs=3, minibatch_size=30)
    _, rng = episode_streams(12, 0)
    trans = collect_rollout(small_bundle(seed=9), small_env(), ppo, 12, rng).transitions
    guard_cls = _FailingOnceGuard if retry else trainer_module._GuardedOptimizer
    results = []
    for update in (critic_update, _critic_update_with_fresh_targets):
        critic = small_bundle(seed=9).critic
        guard = guard_cls(critic.parameters(), ppo.critic_lr, ppo.max_lr_halvings)
        initial = update(trans, critic, guard, ppo, np.random.default_rng(4))
        results.append((initial, {k: p.data for k, p in critic.parameters().items()}))
        if retry:
            assert guard.failed
    (new_initial, new_params), (old_initial, old_params) = results
    assert new_initial == old_initial
    assert all(np.array_equal(new_params[k], old_params[k]) for k in old_params)


def _nan_loss_on_second_step(monkeypatch):
    """Make the loss of the second minibatch step NaN; record each step's
    scale, parameters and Adam step count as the step begins, and the
    messages of the errors the steps raise."""
    seen, errors = [], []
    original = trainer_module._GuardedOptimizer.minibatch_step

    def spied(self, loss_fn, scale):
        seen.append((scale, {k: p.data.copy() for k, p in self.params.items()},
                     self.opt.t))
        if len(seen) == 2:
            real = loss_fn
            loss_fn = lambda: real() * 0.0 / 0.0   # noqa: E731 - NaN, no per-op check
        try:
            return original(self, loss_fn, scale)
        except NonFiniteValue as exc:
            errors.append(str(exc))
            raise

    monkeypatch.setattr(trainer_module._GuardedOptimizer, "minibatch_step", spied)
    return seen, errors


@pytest.mark.parametrize("which", ["critic", "actor"])
def test_non_finite_loss_halves_the_step_and_restores(monkeypatch, which):
    ppo = small_ppo(horizon=20, epochs=2, minibatch_size=30)
    bundle = small_bundle(seed=11)
    _, rng = episode_streams(14, 0)
    episode = collect_rollout(bundle, small_env(), ppo, 14, rng)
    trans = episode.transitions
    net = bundle.critic if which == "critic" else bundle.actor
    start = {k: p.data.copy() for k, p in net.parameters().items()}
    guard = trainer_module._GuardedOptimizer(net.parameters(), 1e-2, ppo.max_lr_halvings)
    seen, errors = _nan_loss_on_second_step(monkeypatch)
    if which == "critic":
        critic_update(trans, net, guard, ppo, np.random.default_rng(0))
    else:
        advs = normalize_advantages(compute_advantages(episode, bundle.critic, ppo))
        trainer_module.actor_update(trans, advs, net, guard, ppo, np.random.default_rng(0))
    scales = [scale for scale, _, _ in seen]
    assert scales[:3] == [1.0, 1.0, 0.5] and set(scales[2:]) == {0.5}
    (_, first, t_first), (_, failing, _), (_, retry, t_retry) = seen[:3]
    assert any(not np.array_equal(failing[k], start[k]) for k in start)   # one step taken
    for k in start:   # the retry starts from the parameters before the update
        assert np.array_equal(first[k], start[k]) and np.array_equal(retry[k], start[k])
    assert t_first == t_retry == 0
    assert errors == ["non-finite values produced by the minibatch loss"]   # before backward


def test_non_finite_rollout_action_mean_raises():
    bundle = small_bundle(seed=3)
    bundle.actor.head.mean_layer.b.data[:] = np.nan
    _, rng = episode_streams(3, 0)
    with pytest.raises(NonFiniteValue, match="action mean"):
        collect_rollout(bundle, small_env(), small_ppo(), 3, rng)


def test_non_finite_rollout_action_in_train_names_seed_episode_and_step():
    bundle = small_bundle(seed=3)
    real = bundle.actor.action_mean
    calls = []

    def poisoned(*args):   # the fourth forward, at step 3, goes non-finite
        calls.append(1)
        mean = real(*args)
        if len(calls) == 4:
            mean.data[...] = np.nan
        return mean

    bundle.actor.action_mean = poisoned
    with pytest.raises(NonFiniteAction,
                       match=r"^master seed 3, episode 2: .*action mean at step 3$") as info:
        train(small_env(), small_ppo(), bundle.cfg, master_seed=3, bundle=bundle,
              start_episode=2)
    assert isinstance(info.value, NonFiniteValue)   # existing handlers still catch it


def test_one_full_batch_layout_per_update(monkeypatch):
    # two episodes of 25 steps and 4 CAVs fill one batch; minibatches hold 10 steps
    built = []
    of = PaddedBatch.of.__func__

    def counted(cls, trans):
        built.append(len(trans))
        return of(cls, trans)

    monkeypatch.setattr(PaddedBatch, "of", classmethod(counted))
    result = train(small_env(), small_ppo(episodes=2, batch_size=150, minibatch_size=40,
                                          epochs=3),
                   NetConfig(hidden=16, heads=2), master_seed=0)
    assert len(result.critic_losses) == 1
    lengths = [r.length for r in result.records]
    assert lengths == [25, 25]
    # one advantage pass per episode, one full-batch layout, and no minibatch
    # builds a layout of its own: each is a slice of the full batch
    assert built == lengths + [sum(lengths)]


def test_non_finite_critic_values_raise():
    bundle = small_bundle(seed=4)
    _, rng = episode_streams(4, 0)
    trans = collect_rollout(bundle, small_env(), small_ppo(horizon=3), 4, rng).transitions
    bundle.critic.vhead.b.data[:] = np.inf
    with pytest.raises(NonFiniteValue, match="critic values"):
        critic_values(bundle.critic, trans)


def test_critic_forwards_per_update(monkeypatch):
    """An update runs the critic 1 + 2 + epochs x (1 + minibatches) - 1 times:
    advantages, the initial loss's targets and values, per epoch the
    targets (epoch 0 reuses the initial ones) and one pass per minibatch."""
    ppo = small_ppo(horizon=20, epochs=3, minibatch_size=30)
    bundle = small_bundle(seed=10)
    _, rng = episode_streams(13, 0)
    episode = collect_rollout(bundle, small_env(), ppo, 13, rng)
    calls, chunks = [], []
    values, minibatches = CriticNetwork.values, trainer_module._minibatches

    def counted_values(self, *args):
        calls.append(1)
        return values(self, *args)

    def counted_minibatches(*args):
        chunks.append(minibatches(*args))
        return chunks[-1]

    monkeypatch.setattr(CriticNetwork, "values", counted_values)
    monkeypatch.setattr(trainer_module, "_minibatches", counted_minibatches)
    compute_advantages(episode, bundle.critic, ppo)
    guard = trainer_module._GuardedOptimizer(bundle.critic.parameters(), ppo.critic_lr,
                                             ppo.max_lr_halvings)
    critic_update(episode.transitions, bundle.critic, guard, ppo, np.random.default_rng(0))
    assert len(chunks) == ppo.epochs
    per_epoch = {len(c) for c in chunks}
    assert len(per_epoch) == 1 and per_epoch.pop() > 1
    assert len(calls) == 1 + 2 + ppo.epochs * (1 + len(chunks[0])) - 1


def test_terminal_rows_use_reward_only_target():
    bundle = small_bundle(seed=7)
    env = small_env()
    ppo = small_ppo(horizon=3)
    _, rng = episode_streams(9, 0)
    episode = collect_rollout(bundle, env, ppo, 9, rng)
    last = episode.transitions[-1]
    assert last.terminal.all()  # horizon end marks every agent terminal


def test_gradcheck_both_losses():
    bundle = small_bundle(seed=8, hidden=16, heads=2)
    env = small_env()
    ppo = small_ppo(horizon=4)
    _, rng = episode_streams(10, 0)
    episode = collect_rollout(bundle, env, ppo, 10, rng)
    trans = episode.transitions
    advs = compute_advantages(episode, bundle.critic, ppo)

    # TD targets are detached, so the differentiated function holds them fixed
    from cavlab.trainer import critic_loss_given_targets, td_targets
    targets = td_targets(bundle.critic, trans, ppo.gamma)
    param = bundle.critic.trunk.gconv.W
    param.grad = None
    loss = critic_loss_given_targets(bundle.critic, trans, targets)
    loss.backward()
    ad = param.grad.copy()
    orig = param.data.copy()

    def f_c(x):
        param.data = x
        return float(critic_loss_given_targets(bundle.critic, trans, targets).data)

    fd = fd_grad(f_c, orig, h=1e-6)
    param.data = orig
    assert rel_err(ad, fd) < 1e-5

    aparam = bundle.actor.trunk.encoder.W
    aparam.grad = None
    obj = surrogate_objective(bundle.actor, trans, advs, clip=0.2)
    obj.backward()
    ad_a = aparam.grad.copy()
    orig_a = aparam.data.copy()

    def f_a(x):
        aparam.data = x
        return float(surrogate_objective(bundle.actor, trans, advs, clip=0.2).data)

    fd_a = fd_grad(f_a, orig_a, h=1e-6)
    aparam.data = orig_a
    assert rel_err(ad_a, fd_a) < 1e-5


# ---------------------------------------------------------------------------
# one observation per agent-step, and the padded batch layout


def short_merge_env():
    """A 150 m merge whose agent count varies (2 to 5) and whose CAVs exit."""
    from cavlab.config import config_from_dict
    cfg = config_from_dict({"scenario": {
        "kind": "merge", "horizon": 400, "highway_length": 150.0,
        "merge_point": 90.0, "ramp_length": 60.0, "cav_fraction": 0.5}})
    return cfg.env_spec(), cfg.ppo_config()


@pytest.fixture(scope="module")
def merge_episode():
    env, ppo = short_merge_env()
    bundle = small_bundle(seed=3)
    return bundle, ppo, collect_rollout(bundle, env, ppo, 3, None)


def test_next_obs_is_next_step_observation(merge_episode):
    _, _, episode = merge_episode
    trans = episode.transitions
    assert len({len(tr.agent_ids) for tr in trans}) > 1
    exits = 0
    for tr, nxt in zip(trans, trans[1:]):
        # a step without CAVs leaves no transition: everyone before it exited
        row = ({aid: j for j, aid in enumerate(nxt.agent_ids)}
               if nxt.step_index == tr.step_index + 1 else {})
        for i, aid in enumerate(tr.agent_ids):
            if aid in row:
                assert np.array_equal(tr.next_obs[i], nxt.obs[row[aid]])
                assert not tr.terminal[i]
            else:
                exits += 1
                assert tr.terminal[i]
                assert not tr.next_obs[i].any()
    assert exits > 0
    assert trans[-1].terminal.all()


def test_ring_next_obs_is_the_next_observation_bit_for_bit():
    episode = collect_rollout(small_bundle(), small_env(), small_ppo(horizon=15), 2, None)
    trans = episode.transitions
    assert len(trans) == 15
    for tr, nxt in zip(trans, trans[1:]):
        assert tr.agent_ids == nxt.agent_ids
        assert np.array_equal(tr.next_obs, nxt.obs) and not tr.terminal.any()
    assert trans[-1].terminal.all() and trans[-1].next_obs.any()


def test_rollout_observes_each_agent_once_per_step(monkeypatch):
    import cavlab.trainer as trainer_mod
    rows = []
    original = trainer_mod.local_observation

    def counted(*args, **kwargs):
        obs = original(*args, **kwargs)
        rows.append(len(obs))
        return obs

    monkeypatch.setattr(trainer_mod, "local_observation", counted)
    env = small_env()
    episode = collect_rollout(small_bundle(), env, small_ppo(horizon=12), 0, None)
    assert episode.length == 12 and not episode.collided
    # one call per step for all agents, plus one over the final state for
    # the last next_obs
    assert rows == [env.n_cav] * (12 + 1)
    last = episode.transitions[-1]
    assert last.terminal.all() and last.next_obs.any()


def test_padded_batch_is_a_plain_stack_at_fixed_agent_count():
    episode = collect_rollout(small_bundle(), small_env(), small_ppo(horizon=10), 4, None)
    trans = episode.transitions
    batch = PaddedBatch.of(trans)
    assert batch.agents.all()
    obs, M, dinv, mask = batch.inputs()
    assert np.array_equal(obs.data, np.stack([tr.obs for tr in trans]))
    assert np.array_equal(M.data, np.stack([tr.weights for tr in trans]))
    assert np.array_equal(mask, np.stack([tr.mask for tr in trans]))
    # D^-1 M as the rollout's forward computed it (graph.degree_normalize)
    assert np.array_equal(dinv.data, np.stack(
        [tr.weights / tr.mask.sum(axis=1).astype(float)[:, None] for tr in trans]))


def test_padded_batch_matches_per_transition_passes(merge_episode):
    import copy
    bundle, ppo, episode = merge_episode
    # nonzero biases, so padded rows compute nonzero values that must be masked
    bundle = copy.deepcopy(bundle)
    rng = np.random.default_rng(0)
    for name, p in bundle.parameters().items():
        if name.endswith(".b"):
            p.data = 0.5 * rng.standard_normal(p.data.shape)
    trans = episode.transitions[::6]
    assert len({len(tr.agent_ids) for tr in trans}) > 1
    values = critic_values(bundle.critic, trans)
    for tr, v in zip(trans, values):
        assert v.shape == (len(tr.agent_ids),)
        np.testing.assert_allclose(v, critic_values(bundle.critic, [tr])[0],
                                   rtol=1e-12, atol=1e-12)

    targets = td_targets(bundle.critic, trans, ppo.gamma)
    advs = [np.linspace(-1.0, 1.0, len(tr.agent_ids)) for tr in trans]
    losses = {
        "critic": (bundle.critic, lambda sub, idx: critic_loss_given_targets(
            bundle.critic, sub, [targets[i] for i in idx])),
        "actor": (bundle.actor, lambda sub, idx: surrogate_objective(
            bundle.actor, sub, [advs[i] for i in idx], clip=0.2)),
    }
    for net, loss_fn in losses.values():
        params = net.parameters()
        for p in params.values():
            p.grad = None
        padded = loss_fn(trans, range(len(trans)))
        padded.backward()
        grads = {k: p.grad.copy() for k, p in params.items()}
        total = 0.0
        summed = {k: np.zeros_like(p.data) for k, p in params.items()}
        for i, tr in enumerate(trans):
            for p in params.values():
                p.grad = None
            part = loss_fn([tr], [i])
            part.backward()
            total += float(part.data)
            for k, p in params.items():
                summed[k] += p.grad
        assert float(padded.data) == pytest.approx(total, rel=1e-12, abs=1e-12)
        for k in params:
            np.testing.assert_allclose(grads[k], summed[k], rtol=1e-9, atol=1e-12)


def test_minibatch_slices_equal_their_own_layouts():
    # a configs/merge.json episode holds 1 to 4 agents per step: each
    # minibatch's slice of the update's layout, trimmed to its own N_max, is
    # the layout PaddedBatch.of builds for it, in shape, dtype and value
    from cavlab.config import parse_config
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "merge.json")
    ppo = cfg.ppo_config()
    bundle = make_policy(cfg.net_config(), init_stream(0))
    trans = collect_rollout(bundle, cfg.env_spec(), ppo, *episode_streams(0, 0)).transitions
    assert len({len(tr.agent_ids) for tr in trans}) > 2
    full = PaddedBatch.of(trans)
    full_next = full.with_next_obs(trans)
    advs = [np.linspace(-1.0, 1.0, len(tr.agent_ids)) for tr in trans]
    columns = (full.rows(advs), full.rows([tr.actions for tr in trans]))
    trimmed = 0
    for size in (16, ppo.minibatch_size):
        for chunk in trainer_module._minibatches(trans, size, np.random.default_rng(size)):
            subset = [trans[i] for i in chunk]
            sub, sub_advs, sub_actions = full.take(chunk, *columns)
            built = PaddedBatch.of(subset)
            pairs = [(sub, built), (full_next.take(chunk)[0], built.with_next_obs(subset))]
            for taken, own in pairs:
                for name in ("obs", "weights", "mask", "agents", "dinv_m"):
                    a, b = getattr(taken, name), getattr(own, name)
                    assert a.shape == b.shape and a.dtype == b.dtype, name
                    assert a.flags.c_contiguous and np.array_equal(a, b), name
            for taken, own in ((sub_advs, built.rows([advs[i] for i in chunk])),
                               (sub_actions, built.rows([tr.actions for tr in subset]))):
                assert taken.shape == own.shape and np.array_equal(taken, own)
            trimmed += sub.agents.shape[1] < full.agents.shape[1]
    assert trimmed > 0


# ---------------------------------------------------------------------------
# advantage normalization and the training loop


def test_normalize_advantages_zero_mean_unit_spread():
    advs = [np.array([1.0, 2.0]), np.array([5.0, -3.0, 0.5])]
    out = normalize_advantages(advs)
    flat = np.concatenate([a.ravel() for a in out])
    assert flat.mean() == pytest.approx(0.0, abs=1e-12)
    assert flat.std() == pytest.approx(1.0, abs=1e-12)


def test_train_smoke_and_buffer_hygiene():
    env = small_env()
    ppo = small_ppo(horizon=20, episodes=4, batch_size=80, epochs=1)
    result = train(env, ppo, NetConfig(hidden=16, heads=2), master_seed=123)
    assert len(result.records) == 4
    assert len(result.actor_objectives) >= 1
    rows = result.curve_rows()
    assert rows[0] == "episode,seed,return,mean_speed,mean_abs_accel,episode_len"
    assert len(rows) == 5


def test_train_reports_unused_trailing_transitions():
    # 4 CAVs x 20 steps = 80 agent-transitions per episode; a batch of 160
    # fills after episodes 2 and 4, so with 3 episodes the third is unused
    env = small_env()
    for episodes, updates, unused in ((3, 1, 80), (4, 2, 0)):
        ppo = small_ppo(horizon=20, episodes=episodes, batch_size=160, epochs=1)
        result = train(env, ppo, NetConfig(hidden=16, heads=2), master_seed=5)
        assert all(r.length == 20 for r in result.records)
        assert len(result.critic_losses) == updates
        assert result.unused_agent_transitions == unused


def test_train_deterministic():
    env = small_env()
    ppo = small_ppo(horizon=15, episodes=3, batch_size=60, epochs=1)
    r1 = train(env, ppo, NetConfig(hidden=16, heads=2), master_seed=9)
    r2 = train(env, ppo, NetConfig(hidden=16, heads=2), master_seed=9)
    assert r1.curve_rows() == r2.curve_rows()


def test_zero_step_size_keeps_returns_flat():
    env = small_env()
    ppo = small_ppo(horizon=15, episodes=3, batch_size=60, epochs=1,
                    actor_lr=1e-300, critic_lr=1e-300)
    r = train(env, ppo, NetConfig(hidden=16, heads=2), master_seed=10)
    # identical policy + per-episode streams differ, so returns vary only
    # through env noise; policy parameters must be unchanged
    bundle2 = make_policy(NetConfig(hidden=16, heads=2), init_stream(10))
    for name, p in r.bundle.actor.parameters().items():
        assert np.allclose(p.data, bundle2.actor.parameters()[name].data, atol=1e-250)


def test_checkpoint_resume_bit_identical_rollout(tmp_path):
    # mid-training checkpoint + counter-based streams: the resumed policy's
    # next-episode rollout matches the uninterrupted run exactly
    from cavlab.checkpoint import load_checkpoint, restore_params, save_checkpoint

    env = small_env()
    ppo = small_ppo(horizon=20, episodes=4, batch_size=80, epochs=1)
    net = NetConfig(hidden=16, heads=2)
    continuous = train(env, ppo, net, master_seed=77)

    # re-run the first half, checkpoint, then resume in a fresh process state
    first_half = train(env, small_ppo(horizon=20, episodes=2, batch_size=80, epochs=1),
                       net, master_seed=77)
    path = tmp_path / "mid.json"
    save_checkpoint(path, first_half.bundle.parameters(),
                    first_half.bundle.architecture(), extra={"episode": 1})
    params, _, extra = load_checkpoint(path)
    resumed_bundle = make_policy(net, init_stream(0))
    restore_params(resumed_bundle.parameters(), params)

    _, rng = episode_streams(77, extra["episode"] + 1)
    episode = collect_rollout(resumed_bundle, env,
                              small_ppo(horizon=20, episodes=1, batch_size=80,
                                        epochs=1), *episode_streams(77, 2))
    # compare against the continuous run's episode-2 record
    assert episode.episode_return == continuous.records[2].episode_return
    assert episode.mean_speed == continuous.records[2].mean_speed


# ---------------------------------------------------------------------------
# the actor update beside the critic update


def short_ring_smoke():
    """configs/ring_smoke.json, short: three updates of two epochs."""
    from cavlab.config import parse_config
    cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "ring_smoke.json")
    ppo = PpoConfig(gamma=cfg.ppo.gamma, horizon=60, episodes=3, batch_size=200, epochs=2,
                    minibatch_size=64)
    return cfg.env_spec(), ppo, cfg.net_config()


def short_merge():
    """The short merge, whose agent count varies: two updates of two epochs."""
    env, ppo = short_merge_env()
    ppo = PpoConfig(gamma=ppo.gamma, horizon=150, episodes=2, batch_size=100, epochs=2,
                    minibatch_size=48)
    return env, ppo, NetConfig(hidden=16, heads=2)


def _actor_fails_once(params, lr, max_halvings):
    """`train`'s guards, but the actor's rejects its first batch once."""
    actor = next(iter(params)).startswith("actor.")
    guard = _FailingOnceGuard if actor else _FailingOnceGuard.__base__
    return guard(params, lr, max_halvings)


@pytest.mark.parametrize("retry", [False, True], ids=["plain", "actor_retry"])
@pytest.mark.parametrize("scenario", [short_ring_smoke, short_merge],
                         ids=["ring_smoke", "merge"])
def test_overlapped_updates_are_bit_identical(monkeypatch, scenario, retry):
    env, ppo, net = scenario()
    if retry:
        guards = []

        def spied(*args):
            guards.append(_actor_fails_once(*args))
            return guards[-1]

        monkeypatch.setattr(trainer_module, "_GuardedOptimizer", spied)
    forks = count_forks(monkeypatch)
    outputs = []
    for overlap in (False, True):
        force_overlap(monkeypatch, overlap)
        result = train(env, ppo, net, master_seed=4)
        outputs.append((result.curve_rows(), result.critic_losses, result.actor_objectives,
                        result.lr_halvings,
                        {k: p.data for k, p in result.bundle.parameters().items()}))
        if retry:   # the child's `failed` came back with the rest of its guard
            assert guards[0].failed
            guards.clear()
    assert len(forks) == len(outputs[1][1]) >= 2   # one child per update, overlapped
    (rows, losses, objectives, halvings, params), overlapped = outputs
    assert overlapped[:4] == (rows, losses, objectives, halvings)
    assert halvings == ({"actor": 1, "critic": 0} if retry else {"actor": 0, "critic": 0})
    assert overlapped[4].keys() == params.keys()
    assert all(np.array_equal(overlapped[4][k], params[k]) for k in params)
    assert_no_child_left()


@contextmanager
def deadline(seconds: int):
    """Fail, rather than hang, if the block runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _train_overlapped(monkeypatch, **patches):
    force_overlap(monkeypatch, True)
    forks = count_forks(monkeypatch)
    for name, fn in patches.items():
        monkeypatch.setattr(trainer_module, name, fn)
    with deadline(60):
        try:
            train(small_env(), small_ppo(horizon=20, episodes=1, batch_size=80, epochs=1),
                  NetConfig(hidden=16, heads=2), master_seed=3)
        finally:
            assert len(forks) == 1


def test_child_error_reraises_with_its_type_and_message(monkeypatch):
    def failing(*args, **kwargs):
        raise NanGradient("update still non-finite after 8 step-size halvings")

    with pytest.raises(NanGradient, match="^update still non-finite after 8") as info:
        _train_overlapped(monkeypatch, actor_update=failing)
    assert "raised in the actor-update process" in info.value.__notes__[0]
    assert_no_child_left()


def test_child_without_result_names_seed_update_and_status(monkeypatch):
    with pytest.raises(UpdateProcessLost,
                       match=r"^master seed 3, update 0: .* exited with status 3 and no result$"):
        _train_overlapped(monkeypatch, actor_update=lambda *args, **kwargs: os._exit(3))
    assert_no_child_left()


def test_critic_error_leaves_no_child_blocked_on_its_result(monkeypatch):
    def large(*args, **kwargs):   # a result larger than the pipe's buffer
        return np.zeros(1 << 17)

    def failing(*args, **kwargs):
        time.sleep(0.5)   # the child is blocked writing by now
        raise NonFiniteValue("the initial critic loss")

    with pytest.raises(NonFiniteValue, match="^the initial critic loss$"):
        _train_overlapped(monkeypatch, actor_update=large, critic_update=failing)
    assert_no_child_left()


@pytest.mark.parametrize("blocker", ["blas_unpinned", "one_cpu", "second_thread"])
def test_updates_stay_in_this_process_unless_overlap_is_safe(monkeypatch, blocker):
    force_overlap(monkeypatch, True)
    if blocker == "blas_unpinned":
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    elif blocker == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forks = count_forks(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if blocker == "second_thread":
        other.start()
    try:
        assert not trainer_module.updates_overlap()
        result = train(small_env(), small_ppo(horizon=20, episodes=2, batch_size=80, epochs=1),
                       NetConfig(hidden=16, heads=2), master_seed=3)
    finally:
        stop.set()
        if blocker == "second_thread":
            other.join(timeout=10)
    assert not other.is_alive()
    assert len(result.critic_losses) == 2 and forks == []


@pytest.mark.parametrize("openblas, omp, pinned", [
    ("1", None, True), ("1", "4", True), (None, "1", True),
    (None, None, False), ("2", "1", False), (None, "2", False)])
def test_blas_is_pinned_by_openblas_or_else_omp(monkeypatch, openblas, omp, pinned):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    assert trainer_module.updates_overlap() is pinned
    assert trainer_module.blas_threads()["OMP_NUM_THREADS"] == omp
