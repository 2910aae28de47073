"""The benchmark's workloads: set-up, one timed round, and its checks.

A round is the unit of work that is timed and repeated:
- train_ring_smoke: `trainer.train` for RING_SMOKE_EPISODES episodes of
  configs/ring_smoke.json, then save and reload the final checkpoint.
- train_merge: the same for MERGE_EPISODES episodes of configs/merge.json.
- rollout_ring_large: one `trainer.collect_rollout` of LARGE_RING_STEPS steps
  on a ring of 352 vehicles (256 CAVs) at fresh seeded policy weights.

Every input of round k of a run derives from (--seed, k) alone.
Functions of the package are looked up through their modules at call
time, so the tracer's rebinding reaches the calls made here. Import this
module only after `cavlab` is importable from the checkout (run.py).
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from cavlab import checkpoint, config, trainer

import checks
from spans import rebind

# Rounds are kept short (3 to 8 s) so that a run holds many of them and its
# medians ride out short slow bursts of a shared machine.
RING_SMOKE_EPISODES = 2
MERGE_EPISODES = 8
LARGE_RING_CAVS = 256
LARGE_RING_STEPS = 30


@dataclass
class Round:
    seconds: float          # timed work
    episodes: int
    env_steps: int
    agent_transitions: int


@dataclass
class Context:
    name: str
    seed: int
    cfg: object
    env: object
    ppo: object
    net: object
    bundle: object          # policy built at set-up; the checkpoint reload target


def large_ring_config(root: Path):
    """configs/ring.json scaled to 256 CAVs at the same density and CAV share."""
    raw = json.loads((root / "configs" / "ring.json").read_text())
    scen = raw["scenario"]
    total = scen["n_human"] + scen["n_cav"]
    n_human = LARGE_RING_CAVS * scen["n_human"] // scen["n_cav"]
    scen.update(ring_length=scen["ring_length"] * (LARGE_RING_CAVS + n_human) / total,
                n_human=n_human, n_cav=LARGE_RING_CAVS, safety_clamp=True,
                horizon=LARGE_RING_STEPS)
    return config.config_from_dict(raw)


def setup(name: str, root: Path, seed: int) -> Context:
    """Parse and validate the config (a dry build included), build the env
    spec and a policy: everything a run does before its first timed round."""
    if name == "train_ring_smoke":
        cfg = config.parse_config(root / "configs" / "ring_smoke.json")
        episodes = RING_SMOKE_EPISODES
    elif name == "train_merge":
        cfg = config.parse_config(root / "configs" / "merge.json")
        episodes = MERGE_EPISODES
    elif name == "rollout_ring_large":
        cfg = large_ring_config(root)
        episodes = 1
    else:
        raise ValueError(f"unknown workload {name!r}")
    net = cfg.net_config()
    ppo = dataclasses.replace(cfg.ppo_config(), episodes=episodes)
    bundle = trainer.make_policy(net, round_stream(seed, 0, 0))
    return Context(name=name, seed=seed, cfg=cfg, env=cfg.env_spec(),
                   ppo=ppo, net=net, bundle=bundle)


def round_stream(seed: int, k: int, purpose: int) -> np.random.SeedSequence:
    """Input stream `purpose` of round k of the run seeded `seed`."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(k, purpose))


class RolloutCounter:
    """Counts env steps and agent transitions of every collected episode.

    It wraps `collect_rollout` with one call per episode, so it costs
    nothing measurable and is installed in traced and untraced runs alike.
    """

    def __init__(self):
        self.episodes = self.env_steps = self.agent_transitions = 0

    def install(self) -> None:
        original = trainer.collect_rollout

        def counted(*args, **kwargs):
            episode = original(*args, **kwargs)
            self.episodes += 1
            self.env_steps += episode.length
            self.agent_transitions += sum(len(tr.agent_ids) for tr in episode.transitions)
            return episode

        rebind(original, counted)

    def snapshot(self) -> tuple[int, int, int]:
        return self.episodes, self.env_steps, self.agent_transitions


def run_round(ctx: Context, k: int, counter: RolloutCounter, out_dir: Path):
    """Run and check round k; returns (Round, bytes of checkpoint or 0).

    Raises checks.CheckFailed when an output is wrong; any other exception
    is the program's own failure.
    """
    before = counter.snapshot()
    if ctx.name == "rollout_ring_large":
        seconds, nbytes = _rollout_round(ctx, k), 0
    else:
        seconds, nbytes = _train_round(ctx, k, out_dir)
    after = counter.snapshot()
    episodes, steps, transitions = (a - b for a, b in zip(after, before))
    return Round(seconds, episodes, steps, transitions), nbytes


def _train_round(ctx: Context, k: int, out_dir: Path) -> tuple[float, int]:
    master_seed = int(round_stream(ctx.seed, k, 0).generate_state(1)[0])
    path = out_dir / f"{ctx.name}.final.json"
    start = time.perf_counter()
    result = trainer.train(ctx.env, ctx.ppo, ctx.net, master_seed=master_seed)
    checkpoint.save_checkpoint(
        path, result.bundle.parameters(), result.bundle.architecture(),
        extra={"episode": ctx.ppo.episodes - 1, "master_seed": master_seed})
    params, _, _ = checkpoint.load_checkpoint(path)
    checkpoint.restore_params(ctx.bundle.parameters(), params)
    seconds = time.perf_counter() - start

    checks.check_training(result, episodes=ctx.ppo.episodes, horizon=ctx.ppo.horizon,
                          full_horizon=ctx.name == "train_ring_smoke")
    checks.check_reload(result.bundle, ctx.bundle, seed=k)
    return seconds, path.stat().st_size


def _rollout_round(ctx: Context, k: int) -> float:
    bundle = trainer.make_policy(ctx.net, round_stream(ctx.seed, k, 0))
    env_seed = round_stream(ctx.seed, k, 1)
    action_rng = np.random.default_rng(round_stream(ctx.seed, k, 2))
    start = time.perf_counter()
    episode = trainer.collect_rollout(bundle, ctx.env, ctx.ppo, env_seed, action_rng,
                                      keep_infos=True)
    seconds = time.perf_counter() - start

    initial = checks.state_arrays(ctx.env.build(env_seed))
    scen, graph = ctx.cfg.scenario, ctx.cfg.graph
    if episode.length != ctx.ppo.horizon:
        raise checks.CheckFailed(
            f"rollout ended after {episode.length} of {ctx.ppo.horizon} steps")
    checks.check_ring_rollout(
        episode, initial, length=scen.ring_length, dt=scen.dt,
        vehicle_length=scen.vehicle_length, target_speed=scen.target_speed,
        scan_scale=graph.scan_scale, sigma=graph.sigma, reward=ctx.env.reward)
    return seconds
