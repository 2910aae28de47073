"""Output checks that do not trust the program's own results.

Each check recomputes a quantity independently (in numpy, from recorded
state) or tests a property the output must have, and raises CheckFailed
with the first violation it finds.
"""
from __future__ import annotations

import math

import numpy as np
from cavlab.tensor import Tensor, no_grad

# The initial clipped surrogate of an update sums ratio * advantage with a
# ratio of 1 and normalised advantages that sum to zero; measured |value| is
# at most 7e-13, so 1e-8 leaves room for rounding yet catches any real bias.
SURROGATE_TOL = 1e-8
# Recomputed features and rewards follow the same formulas in another
# summation order; they agree to a few ulps of values of order 1 to 100.
VALUE_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program violates a required property."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_training(result, *, episodes: int, horizon: int,
                   full_horizon: bool) -> None:
    """PPO outputs: finite curves, positive losses, unbiased first surrogate.

    With `full_horizon`, every episode must run the whole horizon and fill
    exactly one update.
    """
    records = result.records
    _require(len(records) == episodes,
             f"{len(records)} episode records for {episodes} episodes")
    for r in records:
        _require(math.isfinite(r.episode_return),
                 f"episode {r.episode}: non-finite return {r.episode_return}")
        _require(1 <= r.length <= horizon,
                 f"episode {r.episode}: length {r.length} outside [1, {horizon}]")
    losses, objectives = result.critic_losses, result.actor_objectives
    _require(len(losses) == len(objectives),
             f"{len(losses)} critic losses but {len(objectives)} actor objectives")
    for i, loss in enumerate(losses):
        _require(math.isfinite(loss) and loss > 0.0,
                 f"update {i}: critic loss {loss} is not finite and positive")
    for i, obj in enumerate(objectives):
        _require(abs(obj) <= SURROGATE_TOL,
                 f"update {i}: initial clipped surrogate {obj!r} is not about 0")
    if full_horizon:
        short = [r.episode for r in records if r.length != horizon]
        _require(not short, f"episodes {short} ended before the horizon {horizon}")
        _require(len(losses) == episodes,
                 f"{len(losses)} updates for {episodes} full-horizon episodes")


def check_reload(trained, reloaded, seed: int = 0) -> None:
    """The reloaded checkpoint must reproduce the trained forward bit for bit."""
    t_params, r_params = trained.parameters(), reloaded.parameters()
    _require(set(t_params) == set(r_params), "reloaded parameter names differ")
    for name, p in t_params.items():
        _require(np.array_equal(p.data, r_params[name].data),
                 f"reloaded parameter {name} differs")
    rng = np.random.default_rng(seed)
    b, n = 3, 5
    obs = rng.standard_normal((b, n, trained.cfg.obs_dim))
    weights = rng.standard_normal((b, n, n))
    mask = rng.random((b, n, n)) < 0.5
    mask |= np.eye(n, dtype=bool)[None]
    weights = np.where(mask, weights, 0.0)
    dinv = weights / mask.sum(-1, keepdims=True)
    with no_grad():
        outs = [(net.actor.action_mean(Tensor(obs), Tensor(weights), Tensor(dinv), mask).data,
                 net.critic.values(Tensor(obs), Tensor(weights), Tensor(dinv), mask).data)
                for net in (trained, reloaded)]
    _require(np.array_equal(outs[0][0], outs[1][0]),
             "reloaded policy forward is not bit-identical")
    _require(np.array_equal(outs[0][1], outs[1][1]),
             "reloaded critic forward is not bit-identical")


def _wrap(d: np.ndarray, length: float) -> np.ndarray:
    """Differences wrapped to (-length/2, length/2]."""
    d = np.mod(d, length)
    return np.where(d > length / 2.0, d - length, d)


def ring_features(pos: np.ndarray, speed: np.ndarray, is_cav: np.ndarray, *,
                  length: float, target_speed: float, scan_scale: float,
                  sigma: float):
    """Adjacency (weights, mask) and observations of the CAVs on a ring.

    Weights are exp(-d^2 / 2 sigma^2) * (v_j - v_i) within the scan scale,
    with a unit diagonal. Observations are [v / v_T, x / L, leader-CAV
    relative speed and gap, follower-CAV relative speed and gap], gaps
    centre to centre over L, and (0, 1) where no CAV is within the scan scale.
    """
    x, v = pos[is_cav], speed[is_cav]
    n = len(x)
    dist = np.abs(_wrap(x[:, None] - x[None, :], length))
    mask = dist <= scan_scale
    np.fill_diagonal(mask, True)
    weights = np.exp(-dist ** 2 / (2.0 * sigma ** 2)) * (v[None, :] - v[:, None])
    weights = np.where(mask, weights, 0.0)
    np.fill_diagonal(weights, 1.0)

    obs = np.empty((n, 6))
    obs[:, 0] = v / target_speed
    obs[:, 1] = x / length
    ahead = np.mod(x[None, :] - x[:, None], length)   # [i, j]: j ahead of i
    behind = np.mod(x[:, None] - x[None, :], length)
    np.fill_diagonal(ahead, np.inf)
    np.fill_diagonal(behind, np.inf)
    for slot, gaps in ((2, ahead), (4, behind)):
        j = np.argmin(gaps, axis=1)
        gap = gaps[np.arange(n), j]
        seen = gap <= scan_scale
        obs[:, slot] = np.where(seen, (v[j] - v) / target_speed, 0.0)
        obs[:, slot + 1] = np.where(seen, gap / length, 1.0)
    return weights, mask, obs


def ring_reward(speeds: np.ndarray, cav_accels: np.ndarray, reward) -> float:
    """-w_v (v_T - mean speed) + w_a (threshold - mean |CAV accel|)."""
    return (-reward.w_v * (reward.target_speed - speeds.mean())
            + reward.w_a * (reward.accel_threshold - np.abs(cav_accels).mean()))


def state_arrays(state):
    """(ids, positions, speeds, is_cav) of a SimState, in vehicle-list order."""
    vehicles = state.vehicles
    return (np.array([v.id for v in vehicles]),
            np.array([v.route_pos for v in vehicles]),
            np.array([v.speed for v in vehicles]),
            np.array([v.kind.value == "cav" for v in vehicles]))


def check_ring_rollout(episode, initial, *, length: float, dt: float,
                       vehicle_length: float, target_speed: float,
                       scan_scale: float, sigma: float, reward) -> None:
    """Kinematics, rewards and recorded features of a ring rollout.

    `initial` is `state_arrays` of the state before step 0.
    Every step's features are rebuilt from the state before it: the initial
    state for step 0, the previous StepInfo after that.
    """
    ids, pos, speed, is_cav = initial
    infos, trans = episode.infos, episode.transitions
    _require(not episode.collided, "rollout collided")
    _require(len(infos) == episode.length == len(episode.rewards),
             f"{len(infos)} infos, {len(episode.rewards)} rewards, length {episode.length}")
    _require(len(trans) == episode.length,
             f"{len(trans)} transitions for {episode.length} steps")
    for t, info in enumerate(infos):
        weights, mask, obs = ring_features(
            pos, speed, is_cav, length=length, target_speed=target_speed,
            scan_scale=scan_scale, sigma=sigma)
        tr = trans[t]
        _require(tr.step_index == t, f"transition {t} has step index {tr.step_index}")
        _require(np.array_equal(tr.mask, mask), f"step {t}: neighbour mask differs")
        _require(np.allclose(tr.weights, weights, rtol=0.0, atol=VALUE_TOL),
                 f"step {t}: adjacency weights differ")
        _require(np.allclose(tr.obs, obs, rtol=0.0, atol=VALUE_TOL),
                 f"step {t}: observations differ")

        x, v = np.asarray(info.positions), np.asarray(info.speeds)
        _require(list(info.vehicle_ids) == list(ids),
                 f"step {t}: vehicle set changed ({len(info.vehicle_ids)} of {len(ids)})")
        _require(bool(np.all((x >= 0.0) & (x < length))), f"step {t}: position outside [0, L)")
        _require(bool(np.all(v >= 0.0)), f"step {t}: negative speed")
        order = np.sort(x)
        gaps = np.diff(np.append(order, order[0] + length)) - vehicle_length
        _require(bool(np.all(gaps > 0.0)), f"step {t}: bumper gap {gaps.min()} <= 0")
        drift = _wrap(pos + v * dt - x, length)
        _require(bool(np.all(np.abs(drift) <= VALUE_TOL)),
                 f"step {t}: x(t+1) != x(t) + v(t+1) dt, off by {np.abs(drift).max()}")
        cav = np.array([k.value == "cav" for k in info.kinds])
        _require(bool(np.array_equal(cav, is_cav)), f"step {t}: vehicle kinds changed")
        expected = float(ring_reward(v, np.asarray(info.accels)[cav], reward))
        _require(abs(expected - episode.rewards[t]) <= VALUE_TOL,
                 f"step {t}: reward {episode.rewards[t]!r} != recomputed {expected!r}")
        pos, speed = x, v
