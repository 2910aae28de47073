"""Shared-policy multi-agent PPO with a graph-convolutional critic.

One policy drives every CAV; rollouts record per-step observations together
with the adjacency used at decision time. `collect_rollout` is the only
episode loop: training, evaluation (also IDM-only, without a policy) and the
decentralization check all step the simulator through it.

A `Transition` holds one step at that step's agent count N: `policy_actions`
makes it, and `collect_rollout` adds the reward, `next_obs` and `terminal`.
Its graph is the step's one record (`graph.Adjacency`), the neighbour
mask's entries, built once whichever kernel the step's forward ran.
Updates stack transitions into one padded (B, N_max) batch (`PaddedBatch`):
agents first, zeros after, plus an agent mask, so a scenario whose agent
count changes every step (merge) still needs one forward per minibatch.
That batch is the one record of an update round: it holds every column the
updates read, the graphs scattered from their entries into (B, N_max,
N_max) weights and masks; D^-1 M is derived from them where it is read.

Updates run at episode boundaries once the buffer holds at least
`batch_size` agent-transitions (the advantage estimator needs complete
reward-to-go, so episodes are kept whole), then the buffer is cleared, so a
transition feeds at most one update round. Episodes collected after the last
update that do not fill a batch are never updated on;
`TrainResult.unused_agent_transitions` counts their agent-transitions.
An update round lays its transitions out once (`_update_round`), however
many episodes they come from; each minibatch is a slice of that record
(`PaddedBatch.take`), trimmed to the minibatch's own N_max, in the one
epoch/minibatch loop both updates run (`_minibatch_passes`).
The passes over the whole layout that need no gradient (the critic's
values at theta_old, TD targets, the initial surrogate) run off the tape
in blocks of at most `FORWARD_BLOCK_ROWS` agent rows (`PaddedBatch.forward`),
so their temporaries stay minibatch-sized however long the rollout; the
outputs are the same bits as one forward over the whole layout.

The critic and actor updates of a round are independent. One critic pass
at theta_old over the round's record gives both the advantages' baselines
and the critic update's initial loss; the advantages, a (B, N_max) column,
are normalised over the real agents before either update starts. Each
update has its own network, optimiser and minibatch stream. So the actor
update may run in a forked process beside the critic update, which stays
in this process (`updates_overlap` says when). The child hands back its
initial objective, the actor's parameters and the whole state of its NaN
guard, so the result is bit-identical to running the two in order, which
is what happens when they do not overlap.
"""
from __future__ import annotations

import math
import os
import pickle
import threading
import traceback
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (InvalidSpec, NanGradient, NonFiniteAction, NonFiniteValue,
                     UpdateProcessLost)
from .graph import Adjacency, AdjacencyScheme, build_adjacency, degree_normalize
from .idm import IdmParams
from .layers import Adam, CriticNetwork, EdgeList, NetConfig, PolicyNetwork, sparse_enough
from .networks import RoadNetwork
from .rewards import RewardSpec, step_reward
from .sim import (CavPairs, SimOptions, SimState, build_network, cav_pairs, local_observation,
                  step)
from .tensor import Tensor, check_finite, no_grad


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.99
    clip: float = 0.2
    batch_size: int = 2048
    epochs: int = 10
    minibatch_size: int = 256   # transitions per Adam step within an epoch
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    horizon: int = 500
    episodes: int = 50
    normalize_advantages: bool = True
    checkpoint_every: int = 10
    max_lr_halvings: int = 8

    def validate(self) -> None:
        if not (0.0 < self.gamma < 1.0):
            raise InvalidSpec("gamma must be in (0, 1)")
        if self.clip <= 0:
            raise InvalidSpec("clip radius must be positive")
        if self.batch_size < 1 or self.horizon < 1 or self.episodes < 1:
            raise InvalidSpec("batch_size, horizon and episodes must be >= 1")
        if self.epochs < 1 or self.minibatch_size < 1:
            raise InvalidSpec("epochs and minibatch_size must be >= 1")
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise InvalidSpec("step sizes must be positive")
        if self.checkpoint_every < 1:
            raise InvalidSpec("checkpoint_every must be >= 1")
        if self.max_lr_halvings < 0:
            raise InvalidSpec("max_lr_halvings must be >= 0")


@dataclass(frozen=True)
class EnvSpec:
    """Everything needed to build and reward one episode."""

    network: RoadNetwork
    n_human: int
    n_cav: int
    idm: IdmParams
    options: SimOptions
    target_speed: float
    dt: float
    reward: RewardSpec
    scheme: AdjacencyScheme
    scan_scale: float

    def build(self, seed) -> SimState:
        return build_network(self.network, self.n_human, self.n_cav, seed,
                             idm=self.idm, options=self.options)


@dataclass
class Transition:
    """One environment step for all live agents, in vehicle-list order.

    `next_obs` is the next step's observation of the same agent (zeros for
    an agent that exited). The adjacency is kept as its mask's entries
    (`Adjacency`, N + 2E numbers for E in-range pairs) whichever kernel
    the step ran. Training reads neither `weights` nor `mask`, so a rollout
    keeps no dense array. D^-1 M is not stored: batches derive it from the
    weights and the mask.
    """

    step_index: int
    agent_ids: list[int]
    obs: np.ndarray          # (N, OBS_DIM)
    adjacency: Adjacency     # M_t and its neighbour mask
    actions: np.ndarray      # (N,)
    logp_old: np.ndarray     # (N,)
    reward: float            # shared team scalar
    next_obs: np.ndarray     # (N, OBS_DIM)
    terminal: np.ndarray     # (N,) bool: agent exited or episode ended here

    @property
    def weights(self) -> np.ndarray:
        """The adjacency M_t, (N, N)."""
        return self._dense("_weights", "weights")

    @property
    def mask(self) -> np.ndarray:
        """The neighbour mask, (N, N) bool."""
        return self._dense("_mask", "neighbor_mask")

    def _dense(self, name: str, read: str) -> np.ndarray:
        """A dense read of the adjacency. A step that ran the edge kernel
        builds it on each read, read-only, and keeps no N x N array; any
        other keeps a writable copy from the first read, so an edit stays."""
        out = self.__dict__.get(name)
        if out is None:
            out = getattr(self.adjacency, read)
            if not sparse_enough(len(self.adjacency.index), out.size):
                out = self.__dict__[name] = out.copy()
        return out

    def commands(self) -> dict[int, float]:
        """The actions as `sim.step` takes them: {CAV id: acceleration}."""
        return dict(zip(self.agent_ids, self.actions.tolist()))


@dataclass
class EpisodeResult:
    transitions: list[Transition]
    rewards: list[float]     # full per-step reward sequence (incl. agentless steps)
    episode_return: float
    mean_speed: float
    mean_abs_accel: float
    length: int
    collided: bool
    infos: list = field(default_factory=list)


@dataclass
class PolicyBundle:
    actor: PolicyNetwork
    critic: CriticNetwork
    cfg: NetConfig

    def parameters(self) -> dict[str, Tensor]:
        out = self.actor.parameters()
        out.update(self.critic.parameters())
        return out

    def architecture(self) -> dict:
        """The checkpoint's record of `cfg`, one entry per NetConfig field."""
        return asdict(self.cfg)


def make_policy(net_cfg: NetConfig, seed_seq: np.random.SeedSequence) -> PolicyBundle:
    rng = np.random.default_rng(seed_seq)
    return PolicyBundle(actor=PolicyNetwork(rng, net_cfg),
                        critic=CriticNetwork(rng, net_cfg), cfg=net_cfg)


def policy_actions(bundle: PolicyBundle, state: SimState, env: EnvSpec,
                   action_rng: np.random.Generator | None) -> Transition | None:
    """The step's Transition, with sampled (or deterministic-mean) actions
    for the live CAVs (None without CAVs); `collect_rollout` fills in its
    reward, `next_obs` and `terminal`. The live agents are observed in one
    call that shares the step's pass over the CAVs (`sim.cav_pairs`) with
    the graph (`graph_inputs`).
    """
    pairs = cav_pairs(state, env.scan_scale)
    if not pairs.ids:
        return None
    adj, graph = graph_inputs(state, pairs, env)
    obs = local_observation(state, env.target_speed, env.scan_scale, pairs)
    actor = bundle.actor
    with no_grad():
        mean = actor.action_mean(Tensor(obs[None]), *graph).data[0]
        if not np.isfinite(mean).all():
            raise NonFiniteAction(f"non-finite values produced by the rollout's action "
                                  f"mean at step {state.time_step}")
        if action_rng is None:
            actions = mean.copy()
        else:
            spread = actor.head.spread().data[0]
            actions = mean + spread * action_rng.standard_normal(len(adj.agent_ids))
        # the density the update differentiates: the ratio at theta_old is 1,
        # exactly at a fixed agent count (padding can move a mean's last bit)
        logp = actor.log_prob(Tensor(actions), Tensor(mean)).data
    return Transition(step_index=state.time_step, agent_ids=adj.agent_ids, obs=obs,
                      adjacency=adj, actions=actions, logp_old=logp, reward=0.0,
                      next_obs=np.zeros_like(obs),
                      terminal=np.zeros(len(adj.agent_ids), dtype=bool))


def graph_inputs(state: SimState, pairs: CavPairs, env: EnvSpec) -> tuple:
    """(adjacency, (M, D^-1 M, mask)): a step's adjacency, built once, and
    the policy's graph inputs taken from it (`layers._Trunk`).

    This is where the edge kernel is chosen, and the only place: from the
    number of the mask's entries (`layers.sparse_enough`). Edge kernel: the
    edge list that carries M and D^-1 M in place of all three; no N x N
    array is built. Dense kernel: M and D^-1 M as (1, N, N) Tensors and the
    (1, N, N) mask.
    """
    adj = build_adjacency(state, env.scheme, env.scan_scale, pairs)
    n = len(adj.agent_ids)
    if sparse_enough(len(adj.index), n * n):
        return adj, (None, None, EdgeList.of_adjacency(n, adj.index, adj.values))
    weights = adj.weights
    return adj, (Tensor(weights[None]), Tensor(degree_normalize(weights, pairs.degree)[None]),
                 adj.neighbor_mask[None])


def _link_next(tr: Transition, ids: list[int], obs: np.ndarray | None) -> None:
    """Fill `tr.next_obs` from the next step's observations `obs` of its
    CAVs `ids` (none left: `[]`, None).

    An agent missing from the next step exited: its row stays zero and is
    terminal.
    """
    row = {aid: j for j, aid in enumerate(ids)}
    idx = np.array([row.get(aid, -1) for aid in tr.agent_ids], dtype=np.intp)
    tr.terminal[:] = idx < 0
    if row:
        tr.next_obs[idx >= 0] = obs[idx[idx >= 0]]


def collect_rollout(bundle: PolicyBundle | None, env: EnvSpec, ppo: PpoConfig,
                    env_seed, action_rng: np.random.Generator | None,
                    keep_infos: bool = False, on_step=None) -> EpisodeResult:
    """One episode of at most `horizon` steps; breaks on collision.

    `bundle=None` runs IDM-only traffic, which needs a scenario without
    CAVs. `on_step(t, state)` sees the state after each step and ends the
    episode early by returning True. A step's Transition
    (`policy_actions`) gets its reward here and its `next_obs` and
    `terminal` from the next step's; the last one's `next_obs` takes one
    more pass over the final state, and all its rows are terminal.
    """
    state = env.build(env_seed)
    transitions: list[Transition] = []
    rewards: list[float] = []
    infos = []
    speed_sum = 0.0
    speed_count = 0
    accel_sum = 0.0
    accel_count = 0
    pending: Transition | None = None   # previous step, awaiting next_obs
    for t in range(ppo.horizon):
        if bundle is None:
            if state.cavs():
                raise InvalidSpec("IDM-only rollout needs a scenario without CAVs")
            tr = None
        else:
            tr = policy_actions(bundle, state, env, action_rng)
        if pending is not None:
            _link_next(pending, tr.agent_ids if tr else [], tr.obs if tr else None)
        state, info = step(state, tr.commands() if tr else {}, env.dt)
        reward = step_reward(info, env.reward) if info.vehicle_ids else 0.0
        rewards.append(reward)
        if keep_infos:
            infos.append(info)
        speed_sum += float(info.speeds.sum())
        speed_count += len(info.vehicle_ids)
        cav_accels = info.cav_accels
        accel_sum += float(np.abs(cav_accels).sum())
        accel_count += len(cav_accels)
        pending = tr
        if tr is not None:
            tr.reward = reward
            transitions.append(tr)
        if (on_step is not None and on_step(t, state)) or state.collided:
            break
    if pending is not None:  # one more pass, over the final state
        pairs = cav_pairs(state, env.scan_scale)
        if pairs.ids:
            _link_next(pending, pairs.ids, local_observation(
                state, env.target_speed, env.scan_scale, pairs))
        pending.terminal[:] = True
    return EpisodeResult(
        transitions=transitions,
        rewards=rewards,
        episode_return=float(sum(rewards)),
        mean_speed=speed_sum / max(speed_count, 1),
        mean_abs_accel=accel_sum / max(accel_count, 1),
        length=len(rewards),
        collided=state.collided,
        infos=infos,
    )


# ---------------------------------------------------------------------------
# Advantages


def reward_to_go(rewards: list[float], gamma: float) -> np.ndarray:
    out = np.empty(len(rewards))
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


def _pad(arrays: list[np.ndarray], where: np.ndarray) -> np.ndarray:
    """Scatter per-transition arrays into zeros shaped like `where` (B, N_max).

    The True entries of `where`, in row-major order, are the entries of the
    arrays' leading axes, one transition after the other.
    """
    trailing = arrays[0].shape[where.ndim - 1:]
    flat = np.concatenate(arrays, axis=None)
    if where.all():   # nothing padded: a plain stack
        return flat.reshape(where.shape + trailing)
    out = np.zeros(where.shape + trailing, dtype=arrays[0].dtype)
    out[where] = flat.reshape((-1,) + trailing)
    return out


def _net_inputs(obs: np.ndarray, weights: np.ndarray, mask: np.ndarray) -> tuple:
    """Network inputs (obs, M, D^-1 M, mask) of padded columns, D^-1 M
    derived from the weights and the mask's row sums."""
    return Tensor(obs), Tensor(weights), Tensor(degree_normalize(weights, mask.sum(-1))), mask


# Agent rows per block of a full-batch forward (`PaddedBatch.forward`); the
# default minibatch holds as many. A critic pass over a configs/ring.json
# update (3,000 steps of 16 CAVs) allocates about 200 MB at once and 2 MB
# in blocks of 256 rows, which also run faster (BENCH_14.json).
FORWARD_BLOCK_ROWS = 256
# Blocks start on a multiple of this many agent rows. The networks' heads
# are one-column products, which numpy hands to BLAS's gemv; OpenBLAS's
# gemv sums a group of 4 rows in another order than the rows past the
# last group, so a block boundary inside a group moves last bits (16
# covers gemv kernels with groups of 8 or 16 as well). The wider products
# give every row the same bits at any row count of 2 or more; one row is
# a gemv too, so no block is a single row.
BLOCK_ROW_ALIGN = 16


@dataclass
class PaddedBatch:
    """Transitions stacked to (B, N_max): each step's agents first, zeros after.

    The record of an update round: every column the critic and actor
    updates read. Padded agents get a self-loop in `mask`, so every
    neighbour set is nonempty; real agents never see them (mask and weights
    are zero there). Losses multiply by `agents`, True on real rows only.
    At a fixed agent count nothing is padded and the batch equals a plain
    stack. The networks run the dense kernel on it, whatever the steps'
    kernel in the rollout: the update needs gradients, which the edge
    kernel does not give.
    """

    obs: np.ndarray        # (B, N_max, OBS_DIM)
    next_obs: np.ndarray   # (B, N_max, OBS_DIM)
    weights: np.ndarray    # (B, N_max, N_max)
    mask: np.ndarray       # (B, N_max, N_max) bool
    agents: np.ndarray     # (B, N_max) bool
    actions: np.ndarray    # (B, N_max)
    logp_old: np.ndarray   # (B, N_max)
    reward: np.ndarray     # (B, 1): the step's team reward
    live: np.ndarray       # (B, N_max): 1.0 where the agent's next state is not terminal

    @classmethod
    def of(cls, trans: list[Transition]) -> PaddedBatch:
        counts = np.array([len(tr.agent_ids) for tr in trans])
        b, n = len(trans), counts.max()
        diag = np.arange(n)
        agents = diag[None, :] < counts[:, None]
        # every step's mask entries at their flat positions in (B, N_max,
        # N_max): entry i*N_b + j of step b goes to b*N_max^2 + i*N_max + j
        sizes = [len(tr.adjacency.index) for tr in trans]
        index = np.concatenate([tr.adjacency.index for tr in trans])
        step_n = np.repeat(counts, sizes)
        at = index + index // step_n * (n - step_n) + np.repeat(np.arange(b) * n * n, sizes)
        weights = np.zeros((b, n, n))
        weights.reshape(-1)[at] = np.concatenate([tr.adjacency.values for tr in trans])
        mask = np.zeros((b, n, n), dtype=bool)
        mask.reshape(-1)[at] = True
        mask[:, diag, diag] = True
        return cls(obs=_pad([tr.obs for tr in trans], agents),
                   next_obs=_pad([tr.next_obs for tr in trans], agents),
                   weights=weights, mask=mask, agents=agents,
                   actions=_pad([tr.actions for tr in trans], agents),
                   logp_old=_pad([tr.logp_old for tr in trans], agents),
                   reward=np.array([[tr.reward] for tr in trans]),
                   live=_pad([(~tr.terminal).astype(float) for tr in trans], agents))

    def take(self, rows: list[int]) -> PaddedBatch:
        """The batch of transitions `rows`, every column trimmed to their own
        N_max: in shape, dtype and value `PaddedBatch.of` of those transitions,
        as past its own agent count a row holds padding either way."""
        rows = np.asarray(rows)   # converted once, not once per column
        n = int(self.agents[rows].sum(axis=1).max())
        return PaddedBatch(
            obs=self.obs[rows, :n], next_obs=self.next_obs[rows, :n],
            weights=self.weights[rows, :n, :n], mask=self.mask[rows, :n, :n],
            agents=self.agents[rows, :n],
            actions=self.actions[rows, :n], logp_old=self.logp_old[rows, :n],
            reward=self.reward[rows], live=self.live[rows, :n])

    def inputs(self) -> tuple:
        """Network inputs (obs, M, D^-1 M, mask)."""
        return _net_inputs(self.obs, self.weights, self.mask)

    def blocks(self) -> list[slice]:
        """Runs of consecutive transitions for `forward`: at most
        FORWARD_BLOCK_ROWS agent rows each (or the fewest transitions whose
        rows fill a multiple of BLOCK_ROW_ALIGN, if that is more), every
        block but the last a multiple of BLOCK_ROW_ALIGN rows, and no block
        a single row."""
        b, n = self.agents.shape
        unit = BLOCK_ROW_ALIGN // math.gcd(n, BLOCK_ROW_ALIGN)   # transitions
        step = max(unit, FORWARD_BLOCK_ROWS // n // unit * unit)
        starts = list(range(0, b, step))
        if len(starts) > 1 and n * (b - starts[-1]) == 1:
            starts.pop()
        return [slice(s, e) for s, e in zip(starts, starts[1:] + [b])]

    def forward(self, net_fn) -> Tensor:
        """`net_fn(obs, M, D^-1 M, mask)`, a network forward to (B, N_max),
        over the whole batch without a tape, one block (`blocks`) at a time:
        the same bits as one call on `inputs()`, with block-sized
        temporaries."""
        with no_grad():
            out = np.concatenate([
                net_fn(*_net_inputs(self.obs[span], self.weights[span], self.mask[span])).data
                for span in self.blocks()])
        return Tensor._make(out, (), None)

    def rows(self, per_agent: list[np.ndarray]) -> np.ndarray:
        """Per-transition (N_i,) vectors padded to (B, N_max)."""
        return _pad(per_agent, self.agents)

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """(B, N_max) back to per-transition (N_i,) vectors."""
        return [row[real] for row, real in zip(values, self.agents)]


def _values(critic: CriticNetwork, batch: PaddedBatch) -> np.ndarray:
    """The critic's (B, N_max) values of `batch`, block by block off the
    tape (`PaddedBatch.forward`), checked finite."""
    values = batch.forward(critic.values).data
    check_finite(values, "the critic values")
    return values


def _rtg_rows(episode: EpisodeResult, gamma: float) -> np.ndarray:
    """(B,): the discounted reward-to-go from each transition's step."""
    return reward_to_go(episode.rewards, gamma)[[tr.step_index for tr in episode.transitions]]


def _advantage_rows(rtg: np.ndarray, values: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """(B, N_max) advantages: each transition's reward-to-go `rtg` (B,) minus
    the critic's `values`, 0.0 on padding."""
    advantages = rtg[:, None] - values
    advantages[~agents] = 0.0
    return advantages


def normalize_advantages(advantages: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """(B, N_max) `advantages` shifted to mean 0 and scaled to spread 1 over
    the real agents (`agents`), only shifted if they do not spread; 0.0 on
    padding."""
    real = advantages[agents]
    sd = real.std()
    out = (advantages - real.mean()) / (1.0 if sd < 1e-12 else sd)
    out[~agents] = 0.0
    return out


def critic_values(critic: CriticNetwork, trans: list[Transition]) -> list[np.ndarray]:
    """Per-transition value vectors from a padded forward of `trans`. It
    needs no gradient, so it runs off the tape in minibatch-sized blocks
    (`PaddedBatch.forward`): the same bits as one pass over a whole rollout,
    without that pass's rollout-sized temporaries."""
    batch = PaddedBatch.of(trans)
    return batch.split(_values(critic, batch))


def compute_advantages(episode: EpisodeResult, critic: CriticNetwork,
                       ppo: PpoConfig) -> list[np.ndarray]:
    """Per-agent discounted reward-to-go minus the critic baseline, one
    vector per transition of `episode`.

    Raw (un-normalized) advantages, as an update round forms them on its
    own record (`_update_round`).
    """
    if not episode.transitions:
        return []
    batch = PaddedBatch.of(episode.transitions)
    return batch.split(_advantage_rows(_rtg_rows(episode, ppo.gamma),
                                       _values(critic, batch), batch.agents))


# ---------------------------------------------------------------------------
# Updates


def _td_rows(critic: CriticNetwork, batch: PaddedBatch, gamma: float) -> np.ndarray:
    """r + gamma * V(next) * live as one (B, N_max) array, 0.0 on padding;
    V(next) reads `next_obs` on the adjacency recorded at decision time."""
    next_values = _values(critic, replace(batch, obs=batch.next_obs))
    targets = batch.reward + gamma * next_values * batch.live
    targets[~batch.agents] = 0.0
    return targets


def td_targets(critic: CriticNetwork, trans: list[Transition],
               gamma: float) -> list[np.ndarray]:
    """r + gamma * V(next) with bootstrap 0 on terminal rows.

    Targets are treated as constants (semi-gradient TD).
    """
    batch = PaddedBatch.of(trans)
    return batch.split(_td_rows(critic, batch, gamma))


def _td_loss(values: Tensor, targets: np.ndarray, agents: np.ndarray) -> Tensor:
    """The sum over real agents of (values - targets)^2, one tape node with
    parent `values`."""
    keep = agents.astype(np.float64)
    with np.errstate(all="ignore"):   # the loss is checked finite where it is used
        err = values.data - targets
        data = np.asarray((err ** 2 * keep).sum())

    def backward(grad, needs):
        # factors in the order the general ops `*`, `**` and `sum` apply them,
        # so the gradient has the bits of that composition
        return (grad * keep * 2 * err,)

    return Tensor._make(data, (values,), backward)


def critic_loss_given_targets(critic: CriticNetwork, trans: list[Transition],
                              targets: list[np.ndarray]) -> Tensor:
    """Sum over agents of squared TD errors against detached targets."""
    batch = PaddedBatch.of(trans)
    return _td_loss(critic.values(*batch.inputs()), batch.rows(targets), batch.agents)


def _clipped_surrogate(actor: PolicyNetwork, mean: Tensor, batch: PaddedBatch,
                       advantages: np.ndarray, clip: float) -> Tensor:
    """The sum over real agents of min(r A, clip(r) A) for the ratio r of the
    new to the old density: one tape node over the log-density's node.
    `advantages` is (B, N_max), zero on padded rows."""
    logp_new = actor.log_prob(Tensor(batch.actions), mean)
    keep = batch.agents.astype(np.float64)
    with np.errstate(all="ignore"):   # the objective is checked finite where it is used
        ratio = np.exp(logp_new.data - batch.logp_old)
        unclipped = ratio * advantages
        clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * advantages
        data = np.asarray((np.minimum(unclipped, clipped) * keep).sum())

    def backward(grad, needs):
        # factors in the order general ops for min, clip, exp and `*` apply
        # them; the ratio's gradient is zero where the clipped term is the
        # minimum and r is outside the band
        g = grad * keep
        take = unclipped <= clipped
        in_band = (ratio >= 1.0 - clip) & (ratio <= 1.0 + clip)
        g_ratio = g * take * advantages + g * ~take * advantages * in_band
        return (g_ratio * ratio,)

    return Tensor._make(data, (logp_new,), backward)


def surrogate_objective(actor: PolicyNetwork, trans: list[Transition],
                        advantages: list[np.ndarray], clip: float) -> Tensor:
    """Clipped PPO objective: sum over agents of min(r*A, clip(r)*A)."""
    batch = PaddedBatch.of(trans)
    return _clipped_surrogate(actor, actor.action_mean(*batch.inputs()), batch,
                              batch.rows(advantages), clip)


def _params_finite(params: dict[str, Tensor]) -> bool:
    return all(np.isfinite(p.data).all() for p in params.values())


def _grads_finite(params: dict[str, Tensor]) -> bool:
    return all(np.isfinite(p.grad).all() for p in params.values())


class _GuardedOptimizer:
    """Runs a batch of passes, rejecting the batch and halving the step on NaN.

    `halvings` counts the step-size halvings over all its batches.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, max_halvings: int):
        self.params = params
        self.opt = Adam(params, lr)
        self.max_halvings = max_halvings
        self.halvings = 0

    def minibatch_step(self, loss_fn, scale: float) -> None:
        self.opt.zero_grad()
        loss = loss_fn()
        check_finite(loss.data, "the minibatch loss")
        loss.backward()
        if not _grads_finite(self.params):
            raise NonFiniteValue("non-finite gradient")
        self.opt.step(lr_scale=scale)
        if not _params_finite(self.params):
            raise NonFiniteValue("non-finite parameter after update")

    def run(self, pass_fn) -> None:
        snap = {k: p.data.copy() for k, p in self.params.items()}
        snap_opt = self.opt.state_dict()
        scale = 1.0
        for _ in range(self.max_halvings + 1):
            try:
                pass_fn(scale)
                return
            except NonFiniteValue:
                for k, p in self.params.items():
                    p.data = snap[k].copy()
                self.opt.load_state_dict(snap_opt)
                scale *= 0.5
                self.halvings += 1
        raise NanGradient(
            f"update still non-finite after {self.max_halvings} step-size halvings")

    def state(self) -> dict:
        """All that a batch of passes changes: the parameters' values and
        gradients, Adam's state, and the guard's own attributes (`halvings`,
        and any that a subclass sets)."""
        return {"params": {k: (p.data, p.grad) for k, p in self.params.items()},
                "adam": self.opt.state_dict(),
                "guard": {k: v for k, v in vars(self).items() if k not in ("params", "opt")}}

    def load(self, state: dict) -> None:
        """Take on a `state()`, as taken from a copy of this guard."""
        for k, (data, grad) in state["params"].items():
            self.params[k].data[...] = data
            self.params[k].grad = grad
        self.opt.load_state_dict(state["adam"])
        vars(self).update(state["guard"])


def _minibatches(batch: PaddedBatch, size: int,
                 rng: np.random.Generator) -> list[list[int]]:
    """Shuffled index chunks holding roughly `size` agent-transitions each."""
    counts = batch.agents.sum(axis=1).tolist()
    order = rng.permutation(len(counts))
    chunks: list[list[int]] = []
    current: list[int] = []
    count = 0
    for idx in order.tolist():
        current.append(idx)
        count += counts[idx]
        if count >= size:
            chunks.append(current)
            current, count = [], 0
    if current:
        chunks.append(current)
    return chunks


def _minibatch_passes(batch: PaddedBatch, guard: _GuardedOptimizer, ppo: PpoConfig,
                      rng: np.random.Generator, column_fn, loss_fn) -> None:
    """`ppo.epochs` epochs of minibatch steps on slices of `batch`, run by
    `guard`: a minibatch's loss is `loss_fn(sub, sub_column)` on its slice
    of `batch` and of the epoch's (B, N_max) column `column_fn(epoch)`."""

    def passes(scale: float) -> None:
        for epoch in range(ppo.epochs):
            column = column_fn(epoch)
            for chunk in _minibatches(batch, ppo.minibatch_size, rng):
                sub = batch.take(chunk)
                sub_column = column[chunk, :sub.agents.shape[1]]
                guard.minibatch_step(lambda: loss_fn(sub, sub_column), scale)

    guard.run(passes)


def critic_update(batch: PaddedBatch, start_values: np.ndarray, critic: CriticNetwork,
                  guard: _GuardedOptimizer, ppo: PpoConfig, rng: np.random.Generator) -> float:
    """Minibatched TD passes on the round's record `batch`, whose (B, N_max)
    values at the starting parameters are `start_values` (`_values`);
    returns the full-batch loss at the start.

    The TD targets are refreshed each epoch; the initial loss and epoch 0
    share one set: both see the starting parameters, which a NaN-guard
    retry restores. The targets' full-batch passes run off the tape in
    blocks (`PaddedBatch.forward`).
    """
    start_targets = _td_rows(critic, batch, ppo.gamma)
    initial = _td_loss(Tensor(start_values), start_targets, batch.agents).data
    check_finite(initial, "the initial critic loss")
    _minibatch_passes(
        batch, guard, ppo, rng,
        lambda epoch: start_targets if epoch == 0 else _td_rows(critic, batch, ppo.gamma),
        lambda sub, targets: _td_loss(critic.values(*sub.inputs()), targets, sub.agents))
    return float(initial)


def actor_update(batch: PaddedBatch, advantages: np.ndarray, actor: PolicyNetwork,
                 guard: _GuardedOptimizer, ppo: PpoConfig, rng: np.random.Generator) -> float:
    """Minibatched ascent on the clipped surrogate over the round's record
    `batch`, with (B, N_max) `advantages`, zero on padding; returns the
    initial objective, taken off the tape in blocks (`PaddedBatch.forward`)."""
    with no_grad():
        initial = _clipped_surrogate(actor, batch.forward(actor.action_mean), batch,
                                     advantages, ppo.clip).data
    check_finite(initial, "the initial surrogate objective")
    _minibatch_passes(
        batch, guard, ppo, rng, lambda epoch: advantages,
        lambda sub, adv: -_clipped_surrogate(actor, actor.action_mean(*sub.inputs()), sub,
                                             adv, ppo.clip))
    return float(initial)


# ---------------------------------------------------------------------------
# The actor update beside the critic update

# Read by OpenBLAS, OpenMP and MKL at load time; training time depends on them.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> dict[str, str | None]:
    """The BLAS thread variables as set in the environment (None: unset)."""
    return {var: os.environ.get(var) for var in BLAS_THREAD_VARIABLES}


def updates_overlap() -> bool:
    """Whether `train` runs the actor update in a forked child beside the
    critic update.

    Only when that can be safe and faster: `os.fork` exists; the process may
    run on at least 2 CPUs; no other Python thread is running (a fork copies
    only the calling thread, and a lock another thread holds would stay
    held in the child); and BLAS is pinned to one thread
    (`OPENBLAS_NUM_THREADS` is 1, or it is unset and `OMP_NUM_THREADS` is
    1). Two processes that each spin two BLAS threads on 2 cores run slower
    than one update after the other.
    """
    threads = blas_threads()
    openblas = threads["OPENBLAS_NUM_THREADS"]
    pinned = openblas == "1" or (openblas is None and threads["OMP_NUM_THREADS"] == "1")
    return (pinned and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _beside(child_fn, parent_fn, context: str) -> tuple:
    """(parent_fn(), child_fn()), with child_fn run in a forked process.

    The child pickles its result, or its exception, into a pipe and exits;
    the exception re-raises here with its type and message. A child that
    exits without a result raises UpdateProcessLost, prefixed by `context`.
    No child outlives the call.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, child_fn())
            except Exception as exc:
                exc.add_note(f"raised in the actor-update process:\n{traceback.format_exc()}")
                payload = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    reader = os.fdopen(read_fd, "rb")
    try:
        mine = parent_fn()
        data = reader.read()
    finally:
        reader.close()   # first: a child blocked writing its result then fails and exits
        _, wait_status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(wait_status)
    if code != 0:
        raise UpdateProcessLost(
            f"{context}: the actor-update process exited with status {code} and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return mine, value


def _update_round(trans: list[Transition], rtg: np.ndarray, bundle: PolicyBundle,
                  critic_guard: _GuardedOptimizer, actor_guard: _GuardedOptimizer,
                  ppo: PpoConfig, master_seed: int, update_idx: int) -> tuple[float, float]:
    """The critic update, then the actor update, on one record of `trans`,
    whose reward-to-go is the (B,) `rtg`: (initial critic loss, initial
    actor objective). One critic pass at theta_old over the record gives
    the advantages' baselines and the critic's initial loss. The actor
    update runs in a child process beside the critic's when
    `updates_overlap()`."""
    critic_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(3, update_idx)))
    actor_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(4, update_idx)))
    batch = PaddedBatch.of(trans)
    values = _values(bundle.critic, batch)
    advantages = _advantage_rows(rtg, values, batch.agents)
    if ppo.normalize_advantages:
        advantages = normalize_advantages(advantages, batch.agents)

    def critic() -> float:
        return critic_update(batch, values, bundle.critic, critic_guard, ppo, critic_rng)

    def actor() -> float:
        return actor_update(batch, advantages, bundle.actor, actor_guard, ppo, actor_rng)

    if not updates_overlap():
        return critic(), actor()
    loss, (objective, state) = _beside(lambda: (actor(), actor_guard.state()), critic,
                                       f"master seed {master_seed}, update {update_idx}")
    actor_guard.load(state)
    return loss, objective


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class EpisodeRecord:
    episode: int
    seed: int
    episode_return: float
    mean_speed: float
    mean_abs_accel: float
    length: int


@dataclass
class TrainResult:
    bundle: PolicyBundle
    records: list[EpisodeRecord]
    actor_objectives: list[float]
    critic_losses: list[float]
    # agent-transitions left in the buffer when the episode budget ran out
    unused_agent_transitions: int
    # NaN-guard step-size halvings per optimizer: {"actor": n, "critic": n}
    lr_halvings: dict[str, int]

    def curve_rows(self) -> list[str]:
        rows = ["episode,seed,return,mean_speed,mean_abs_accel,episode_len"]
        rows.extend(
            f"{r.episode},{r.seed},{r.episode_return!r},{r.mean_speed!r},"
            f"{r.mean_abs_accel!r},{r.length}" for r in self.records)
        return rows


def episode_streams(master_seed: int, episode: int):
    """Counter-based per-episode streams: (env seed sequence, action rng)."""
    env_ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(1, episode))
    action_ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(2, episode))
    return env_ss, np.random.default_rng(action_ss)


def init_stream(master_seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(0,))


def train(env: EnvSpec, ppo: PpoConfig, net_cfg: NetConfig, master_seed: int,
          bundle: PolicyBundle | None = None, start_episode: int = 0,
          on_checkpoint=None) -> TrainResult:
    """Alternate rollout collection and PPO updates.

    `on_checkpoint(episode, bundle)` is invoked every `checkpoint_every`
    episodes and at the end. Pass `bundle`/`start_episode` to resume.
    """
    ppo.validate()
    if bundle is None:
        bundle = make_policy(net_cfg, init_stream(master_seed))
    actor_params = bundle.actor.parameters()
    critic_params = bundle.critic.parameters()
    actor_guard = _GuardedOptimizer(actor_params, ppo.actor_lr, ppo.max_lr_halvings)
    critic_guard = _GuardedOptimizer(critic_params, ppo.critic_lr, ppo.max_lr_halvings)

    records: list[EpisodeRecord] = []
    actor_objectives: list[float] = []
    critic_losses: list[float] = []
    buffer: list[EpisodeResult] = []
    buffered = 0

    for ep in range(start_episode, start_episode + ppo.episodes):
        env_ss, action_rng = episode_streams(master_seed, ep)
        try:
            episode = collect_rollout(bundle, env, ppo, env_ss, action_rng)
        except NonFiniteAction as exc:
            raise NonFiniteAction(f"master seed {master_seed}, episode {ep}: {exc}") from exc
        records.append(EpisodeRecord(
            episode=ep, seed=master_seed, episode_return=episode.episode_return,
            mean_speed=episode.mean_speed, mean_abs_accel=episode.mean_abs_accel,
            length=episode.length))
        buffer.append(episode)
        buffered += sum(len(tr.agent_ids) for tr in episode.transitions)

        if buffered >= ppo.batch_size:
            # at least one agent-transition: the round is never empty
            trans = [tr for epi in buffer for tr in epi.transitions]
            rtg = np.concatenate([_rtg_rows(epi, ppo.gamma) for epi in buffer])
            loss, objective = _update_round(trans, rtg, bundle, critic_guard, actor_guard,
                                            ppo, master_seed, len(critic_losses))
            critic_losses.append(loss)
            actor_objectives.append(objective)
            buffer.clear()
            buffered = 0

        if on_checkpoint is not None and (
                (ep + 1 - start_episode) % ppo.checkpoint_every == 0
                or ep == start_episode + ppo.episodes - 1):
            on_checkpoint(ep, bundle)

    return TrainResult(bundle=bundle, records=records,
                       actor_objectives=actor_objectives, critic_losses=critic_losses,
                       unused_agent_transitions=buffered,
                       lr_halvings={"actor": actor_guard.halvings,
                                    "critic": critic_guard.halvings})
