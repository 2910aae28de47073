#!/usr/bin/env python3
"""Time the CAV feature layer and the simulator step at several scales.

    python3 scripts/bench_layers.py [--src path/to/checkout/src] [--reps 40]

Rings follow configs/ring.json (16 CAVs and 6 humans on 230 m) scaled to
the requested CAV count at the same density and CAV share. Per size it
reports the median and quartiles, in milliseconds, of
- `features`: the adjacency plus the observations of every CAV of one
  step, as a rollout step computes them, at 4, 16, 64 and 256 CAVs;
- `pairs`: the pass over the CAVs that the features share (`sim.cav_pairs`)
  alone, at the same sizes;
- `step`: one `sim.step` with zero CAV actions, at 22, 88 and 352 vehicles
  (the state advances from call to call), on the ring of
  configs/ring_smoke.json (4 CAVs and 2 humans on 230 m, safety clamp on:
  `ring_smoke`, the scale the benchmark's training workload steps), and on
  the IDM-only figure-eight and merge of configs/figure_eight.json and
  configs/merge.json, the scenarios `cavlab baseline` runs: 14 humans on
  the figure-eight, and the merge after a 600-step warm-up, so that its
  traffic has spawned (the entry records the vehicle count when timing
  starts).
- `network`: the networks of configs/ring_smoke.json (hidden 64, 8
  heads): the policy forward without a tape, on 64 steps of a ring_smoke
  rollout (`forward_B1_N4`, and `forward_B64_N4` stacking them) and on
  the rings above at 16, 64 and 256 CAVs (`forward_B1_N16`,
  `forward_B1_N64`, `forward_B1_N256`) with the graph of configs/ring.json
  (30 m scan, as in the benchmark's 256-CAV ring: 24%, 6% and 1.5% of
  the mask set), each ring's graph in the form `trainer.graph_inputs`
  hands it to the networks, so the 256-CAV row runs the edge kernel as
  its rollout does; one minibatch loss plus backward at B=64, N=4, on a
  layout built beforehand as an update's minibatches are, for the
  critic (`critic_minibatch_B64_N4`, TD loss against fixed targets) and
  the actor (`actor_minibatch_B64_N4`, clipped surrogate), and for the
  critic on one 256-CAV step on the dense kernel, the update's
  (`critic_minibatch_B1_N256_dense`); and one `Adam.step` over the
  actor's parameters (`adam_step`).
- `loss_terms`: each loss term and its backward on a leaf network output
  of that B=64, N=4 layout, taken apart from the networks: the Gaussian
  log-density of the actions (`log_prob`, summed) and the clipped
  surrogate (`clipped_surrogate`, through the log-density) on the action
  mean, and the TD loss (`td_loss`) on the values.
- `tape_nodes`: the nodes (`Tensor._make` calls) that one actor minibatch
  loss and one critic minibatch loss put on the tape at B=64, N=4
  (`actor_minibatch`, `critic_minibatch`), and that one configs/ring_smoke.json
  rollout step makes under `no_grad` (`rollout_step`, `trainer.policy_actions`).
- `kernels`: every one-step forward row above (B=1) timed on each kernel
  (`dense`, `edge`), its graph built by `trainer.graph_inputs` with the
  cut-off moved out of the way, with the mask's density: the crossover
  behind `layers.EDGE_KERNEL_MAX_DENSITY`.
- `full_batch`: one critic pass without a tape over the whole layout of an
  update, as the TD targets run it (on the next observations), on a
  rollout of configs/ring_smoke.json (500 steps of 4 CAVs) and of
  configs/ring.json (3,000 steps of 16 CAVs, safety clamp on so that the
  untrained policy does not crash): in one forward (`one_shot`) and, for a
  checkout with `PaddedBatch.forward`, in blocks of each size of
  FULL_BATCH_BLOCK_ROWS agent rows (`blocks_<rows>`, the sweep behind
  `trainer.FORWARD_BLOCK_ROWS`). Each entry adds the minor
  page faults per pass (`minflt_per_call`) and the pass's `tracemalloc`
  peak in MB, both taken apart from the timing.
- `batch_of`: one `trainer.PaddedBatch.of`, the layout an update round
  builds, over a rollout of configs/ring_smoke.json (500 steps of 4 CAVs)
  and of configs/merge.json (300 steps whose CAV count varies, safety
  clamp on), each entry with its transitions and their smallest and
  largest agent counts.
- `rollout_step`: one `trainer.collect_rollout` of ROLLOUT_STEPS steps on
  configs/ring.json scaled to 16, 64 and 256 CAVs (safety clamp on, fresh
  seeded policy weights, as the benchmark's large ring): milliseconds and
  minor page faults per step, and the bytes the episode's transitions
  keep per step (`tracemalloc`, taken apart from the timing). These rows
  run first, and `update_round` next: the larger rows leave the
  allocator keeping freed memory, after which neither faults, while
  alone each faults as a training or benchmark process does.
- `update_round`: one update round of configs/ring_smoke.json (the
  critic and actor updates on one 500-step episode, `trainer._update_round`)
  with the actor update after the critic's (`in_order`) and beside it in
  a forked child (`overlapped`), whatever `trainer.updates_overlap` would
  say: milliseconds per round, and minor page faults per round in this
  process and in the child (`RUSAGE_CHILDREN`). Every round starts from
  the same weights.
- `checkpoint`: `checkpoint.save_checkpoint` and `checkpoint.load_checkpoint`
  of freshly seeded networks at the default `NetConfig` (`default`, 50,179
  parameters, as a `ring_smoke` run saves) and at hidden 256 (`hidden_256`,
  790,531 parameters): milliseconds per call, each call's `tracemalloc`
  peak in MB (taken apart from the timing), and the file's bytes.
`--src` picks the checkout to import, so two commits compare under the
same script; the per-agent observation API of checkouts that predate
`sim.cav_pairs` is timed the way those rollouts called it (no `pairs`
row), a `cav_pairs` that takes no scan scale (the all-pairs matrices)
is timed as it is, and a `local_observation` that takes the agent ids is
handed those of every CAV. The loss rows need a checkout with `trainer._td_loss`
and `trainer._clipped_surrogate`, the network rows one with
`trainer.graph_inputs`. Prints one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

FEATURE_CAVS = (4, 16, 64, 256)
STEP_VEHICLES = (22, 88, 352)
BASE_CAVS, BASE_HUMANS, BASE_LENGTH = 16, 6, 230.0
SMOKE_CAVS, SMOKE_HUMANS, SMOKE_LENGTH = 4, 2, 230.0
TARGET_SPEED = 30.0 / 3.6
MERGE_WARM_STEPS = 600
FULL_BATCH_LAYOUTS = {"ring_smoke": 500, "ring": 3000}   # config: rollout steps
FULL_BATCH_BLOCK_ROWS = (64, 128, 256, 512, 1024, 4096)
BATCH_OF_LAYOUTS = {"ring_smoke": 500, "merge": 300}   # config: rollout steps
ROLLOUT_CAVS = (16, 64, 256)
ROLLOUT_STEPS = 30
CHECKPOINT_NETS = {"default": {}, "hidden_256": {"hidden": 256}}   # NetConfig keys


def ring_state(sim, networks, idm_mod, n_cav: int, seed: int = 0):
    """A ring at configs/ring.json density after a short warm-up."""
    n_human = n_cav * BASE_HUMANS // BASE_CAVS
    length = BASE_LENGTH * (n_cav + n_human) / (BASE_CAVS + BASE_HUMANS)
    return warm_ring(sim, networks, idm_mod, length, n_human, n_cav, seed)


def warm_ring(sim, networks, idm_mod, length: float, n_human: int, n_cav: int,
              seed: int = 0, warm_steps: int = 50):
    """A ring with the safety clamp on, after a short warm-up."""
    state = sim.build_network(networks.RingSpec(length=length), n_human, n_cav, seed,
                              idm=idm_mod.IdmParams(v0=TARGET_SPEED, noise_mag=0.2),
                              options=sim.SimOptions(safety_clamp=True))
    for _ in range(warm_steps):
        state, _ = sim.step(state, {v.id: 0.0 for v in state.cavs()}, 0.1)
    return state


def baseline_states(sim, networks, idm_mod, seed: int = 0) -> dict:
    """The figure-eight and the warmed-up merge that `cavlab baseline` runs
    for configs/figure_eight.json and configs/merge.json."""
    idm = idm_mod.IdmParams(v0=TARGET_SPEED, noise_mag=0.2)
    eight = sim.build_network(networks.FigureEightSpec(), 14, 0, seed, idm=idm)
    merge = sim.build_network(networks.MergeSpec(cav_fraction=0.0), 0, 0, seed, idm=idm)
    for _ in range(MERGE_WARM_STEPS):
        merge, _ = sim.step(merge, {}, 0.1)
    return {"figure_eight": eight, "merge": merge}


def network_rows(root: Path, sim, networks, idm_mod, reps: int) -> dict:
    """Per-layer rows of the policy and critic networks (see the module doc)."""
    import dataclasses

    import numpy as np
    from cavlab import config, layers, tensor, trainer

    cfg = config.parse_config(root / "configs" / "ring_smoke.json")
    env, net = cfg.env_spec(), cfg.net_config()
    ppo = dataclasses.replace(cfg.ppo_config(), horizon=64)
    bundle = trainer.make_policy(net, np.random.SeedSequence(0))
    episode = trainer.collect_rollout(bundle, env, ppo, np.random.SeedSequence(1),
                                      np.random.default_rng(2))
    trans = episode.transitions
    assert len(trans) == 64 and all(len(tr.agent_ids) == 4 for tr in trans)

    def inputs(obs, weights, mask):
        dinv = weights / mask.sum(-1, keepdims=True)
        return tensor.Tensor(obs), tensor.Tensor(weights), tensor.Tensor(dinv), mask

    def forward(args):
        with tensor.no_grad():
            bundle.actor.action_mean(*args)

    rows = {
        "forward_B1_N4": inputs(trans[0].obs[None], trans[0].weights[None],
                                trans[0].mask[None]),
        "forward_B64_N4": inputs(np.stack([tr.obs for tr in trans]),
                                 np.stack([tr.weights for tr in trans]),
                                 np.stack([tr.mask for tr in trans])),
    }
    ring_env = config.parse_config(root / "configs" / "ring.json").env_spec()
    states = {"forward_B1_N4": (env, env.build(np.random.SeedSequence(1)))}   # trans[0]'s
    for n_cav in (16, 64, 256):
        states[f"forward_B1_N{n_cav}"] = (ring_env, ring_state(sim, networks, idm_mod, n_cav))
        rows[f"forward_B1_N{n_cav}"] = step_inputs(sim, trainer, tensor,
                                                   *states[f"forward_B1_N{n_cav}"])
    out = {name: timed(lambda a=args: forward(a), reps) for name, args in rows.items()}
    out["kernels"] = kernel_rows(sim, trainer, tensor, states, forward, reps)

    advantages = trainer.normalize_advantages(
        trainer.compute_advantages(episode, bundle.critic, ppo))
    critic_loss, actor_loss = minibatch_losses(trainer, bundle, trans, advantages, ppo)
    out["loss_terms"] = loss_term_rows(trainer, bundle, trans, advantages, ppo, reps)
    state = env.build(np.random.SeedSequence(1))
    out["tape_nodes"] = {
        "actor_minibatch": tape_nodes(tensor, actor_loss),
        "critic_minibatch": tape_nodes(tensor, critic_loss),
        "rollout_step": tape_nodes(tensor, lambda: trainer.policy_actions(
            bundle, state, env, np.random.default_rng(2))),
    }
    large = large_ring_steps(root)[:1]
    losses = {
        "critic_minibatch_B64_N4": (bundle.critic, critic_loss),
        "actor_minibatch_B64_N4": (bundle.actor, actor_loss),
    }
    for name, (network, loss_fn) in losses.items():
        out[name] = timed(lambda n=network, f=loss_fn: loss_step(n, f), reps)
    # a checkout whose networks chose the kernel from the mask took the edge
    # kernel on this step; the cut-off at 0 keeps every checkout on the dense one
    with edge_kernel_cutoff(layers, 0.0):
        large_loss, _ = minibatch_losses(trainer, bundle, large,
                                         [np.zeros(len(large[0].agent_ids))], ppo)
        out["critic_minibatch_B1_N256_dense"] = timed(
            lambda: loss_step(bundle.critic, large_loss), reps)

    params = bundle.actor.parameters()
    rng = np.random.default_rng(3)
    for p in params.values():
        p.grad = 1e-3 * rng.standard_normal(p.data.shape)
    opt = layers.Adam(params, 1e-9)   # a tiny step keeps the weights in place
    out["adam_step"] = timed(opt.step, reps)
    return out


def step_inputs(sim, trainer, tensor, env, state) -> tuple:
    """The policy's inputs on `state`, the graph in the form a rollout step
    hands it to the networks (`trainer.graph_inputs`)."""
    pairs = sim.cav_pairs(state, env.scan_scale)
    _, graph = trainer.graph_inputs(state, pairs, env)
    obs = observations(sim)(state, pairs, env.target_speed, env.scan_scale)
    return (tensor.Tensor(obs[None]), *graph)


def observations(sim):
    """`f(state, pairs, target_speed, scan_scale)`: every CAV's observation
    row, by the checkout's `sim.local_observation`, which took the agent ids
    before it observed every CAV of the step."""
    if "agent_ids" in inspect.signature(sim.local_observation).parameters:
        return lambda state, pairs, target, scan: sim.local_observation(
            state, pairs.ids, target, scan, pairs)
    return lambda state, pairs, target, scan: sim.local_observation(
        state, target, scan, pairs)


def loss_step(network, loss_fn) -> None:
    """One minibatch loss and its backward, the gradients cleared first."""
    for p in network.parameters().values():
        p.grad = None
    loss_fn().backward()


def loss_inputs(trainer, bundle, trans: list, advantages, ppo) -> tuple:
    """(layout, TD targets, the surrogate's columns after the action mean) of
    `trans`, built up front as an update builds the round's layout."""
    batch = trainer.PaddedBatch.of(trans)
    targets = batch.rows(trainer.td_targets(bundle.critic, trans, ppo.gamma))
    if hasattr(batch, "actions"):   # the round's record holds every column
        columns = (batch, batch.rows(advantages))
    else:   # loose columns beside the layout
        columns = (batch.agents, batch.rows([tr.actions for tr in trans]),
                   batch.rows([tr.logp_old for tr in trans]), batch.rows(advantages))
    return batch, targets, columns


def minibatch_losses(trainer, bundle, trans: list, advantages, ppo) -> tuple:
    """(critic loss fn, actor loss fn): the TD loss and the negated clipped
    surrogate of `trans` as a minibatch step of an update computes them, on
    a layout built up front (an update slices its minibatches off the
    round's layout)."""
    batch, targets, columns = loss_inputs(trainer, bundle, trans, advantages, ppo)

    def critic_loss():
        return trainer._td_loss(bundle.critic.values(*batch.inputs()), targets, batch.agents)

    def actor_loss():
        mean = bundle.actor.action_mean(*batch.inputs())
        return -trainer._clipped_surrogate(bundle.actor, mean, *columns, ppo.clip)

    return critic_loss, actor_loss


def loss_term_rows(trainer, bundle, trans: list, advantages, ppo, reps: int) -> dict:
    """Each loss term with its backward on a leaf network output (see the
    module doc)."""
    from cavlab import tensor

    batch, targets, columns = loss_inputs(trainer, bundle, trans, advantages, ppo)
    actor, log_spread = bundle.actor, bundle.actor.head.log_spread
    with tensor.no_grad():
        mean = tensor.Tensor(actor.action_mean(*batch.inputs()).data, requires_grad=True)
        values = tensor.Tensor(bundle.critic.values(*batch.inputs()).data,
                               requires_grad=True)
    actions = tensor.Tensor(columns[0].actions if len(columns) == 2 else columns[1])
    terms = {
        "log_prob": lambda: actor.log_prob(actions, mean).sum(),
        "clipped_surrogate": lambda: trainer._clipped_surrogate(actor, mean, *columns,
                                                                ppo.clip),
        "td_loss": lambda: trainer._td_loss(values, targets, batch.agents),
    }

    def step(loss_fn):
        mean.grad = values.grad = log_spread.grad = None
        loss_fn().backward()

    return {name: timed(lambda fn=fn: step(fn), reps) for name, fn in terms.items()}


def tape_nodes(tensor, fn) -> int:
    """The tape nodes (`Tensor._make` calls) that one call of `fn` makes."""
    make = vars(tensor.Tensor)["_make"]
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return make.__func__(*args)

    tensor.Tensor._make = staticmethod(counting)
    try:
        fn()
    finally:
        tensor.Tensor._make = make
    return count


@contextlib.contextmanager
def edge_kernel_cutoff(layers, value: float):
    """`layers.EDGE_KERNEL_MAX_DENSITY` set to `value` for the block."""
    cutoff = layers.EDGE_KERNEL_MAX_DENSITY
    layers.EDGE_KERNEL_MAX_DENSITY = value
    try:
        yield
    finally:
        layers.EDGE_KERNEL_MAX_DENSITY = cutoff


def kernel_rows(sim, trainer, tensor, states: dict, forward, reps: int) -> dict:
    """Each one-step forward row on the dense and on the edge-list kernel,
    with its mask's density: the graph of each (env, state) in `states` as
    `trainer.graph_inputs` builds it with the cut-off moved out of the way."""
    from cavlab import layers

    out = {}
    for name, (env, state) in states.items():
        pairs = sim.cav_pairs(state, env.scan_scale)
        n = len(pairs.ids)
        out[name] = {"density": (n + 2 * len(pairs.i)) / n ** 2}
        for kernel, forced in (("dense", 0.0), ("edge", 2.0)):
            with edge_kernel_cutoff(layers, forced):   # a mask-choosing trunk too
                args = step_inputs(sim, trainer, tensor, env, state)
                out[name][kernel] = timed(lambda a=args: forward(a), reps)
    return out


def scaled_ring_config(root: Path, n_cav: int, horizon: int):
    """configs/ring.json scaled to `n_cav` CAVs at the same density and CAV
    share, safety clamp on (256 CAVs: the benchmark's large ring)."""
    from cavlab import config

    raw = json.loads((root / "configs" / "ring.json").read_text())
    scen = raw["scenario"]
    n_human = n_cav * scen["n_human"] // scen["n_cav"]
    scen.update(ring_length=scen["ring_length"] * (n_cav + n_human)
                / (scen["n_human"] + scen["n_cav"]),
                n_human=n_human, n_cav=n_cav, safety_clamp=True, horizon=horizon)
    return config.config_from_dict(raw)


def ring_rollout(root: Path, n_cav: int, horizon: int):
    """A function that collects one seeded rollout of `scaled_ring_config`."""
    import numpy as np
    from cavlab import trainer

    cfg = scaled_ring_config(root, n_cav, horizon)
    env, ppo = cfg.env_spec(), cfg.ppo_config()
    bundle = trainer.make_policy(cfg.net_config(), np.random.SeedSequence(4))
    return lambda: trainer.collect_rollout(bundle, env, ppo, np.random.SeedSequence(5),
                                           np.random.default_rng(6))


def large_ring_steps(root: Path) -> list:
    """Two rollout transitions of the benchmark's large ring."""
    return ring_rollout(root, 256, 2)().transitions


def rollout_rows(root: Path, reps: int) -> dict:
    """Per-step cost and kept bytes of a ring rollout (see the module doc)."""
    out = {}
    for n_cav in ROLLOUT_CAVS:
        rollout = ring_rollout(root, n_cav, ROLLOUT_STEPS)
        steps = rollout().length
        entry = measured(rollout, max(4, reps // 4))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            episode = rollout()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        out[str(n_cav)] = {
            "steps": steps,
            **{f"{q}_ms_per_step": entry[f"{q}_ms"] / steps for q in ("median", "q1", "q3")},
            "minflt_per_step": entry["minflt_per_call"] / steps,
            "kept_bytes_per_transition": kept / len(episode.transitions),
        }
    return out


def config_rollout(root: Path, name: str, steps: int):
    """The policy bundle and transitions of one seeded rollout of `steps`
    steps of configs/`name`.json, safety clamp on."""
    import numpy as np
    from cavlab import config, trainer

    raw = json.loads((root / "configs" / f"{name}.json").read_text())
    raw["scenario"].update(horizon=steps, safety_clamp=True)
    cfg = config.config_from_dict(raw)
    bundle = trainer.make_policy(cfg.net_config(), np.random.SeedSequence(7))
    return bundle, trainer.collect_rollout(bundle, cfg.env_spec(), cfg.ppo_config(),
                                           np.random.SeedSequence(8),
                                           np.random.default_rng(9)).transitions


def batch_of_rows(root: Path, reps: int) -> dict:
    """`trainer.PaddedBatch.of` of one rollout per layout (see the module doc)."""
    from cavlab import trainer

    out = {}
    for name, steps in BATCH_OF_LAYOUTS.items():
        trans = config_rollout(root, name, steps)[1]
        counts = [len(tr.agent_ids) for tr in trans]
        out[name] = {"transitions": len(trans), "agents_min": min(counts),
                     "agents_max": max(counts),
                     **timed(lambda: trainer.PaddedBatch.of(trans), reps)}
    return out


def full_batch_rows(root: Path, reps: int) -> dict:
    """One full-batch critic pass per layout, whole and in blocks (see the
    module doc)."""
    import dataclasses

    from cavlab import tensor, trainer

    out = {}
    for name, steps in FULL_BATCH_LAYOUTS.items():
        bundle, trans = config_rollout(root, name, steps)
        batch = trainer.PaddedBatch.of(trans)
        if hasattr(batch, "next_obs"):   # the TD targets' next-state layout
            batch = dataclasses.replace(batch, obs=batch.next_obs)
        elif hasattr(batch, "with_next_obs"):
            batch = batch.with_next_obs(trans)
        critic = bundle.critic

        def one_shot():
            with tensor.no_grad():
                critic.values(*batch.inputs())

        entry = {"transitions": len(trans), "agents": batch.agents.shape[1],
                 "one_shot": measured(one_shot, reps)}
        if hasattr(trainer.PaddedBatch, "forward"):
            default = trainer.FORWARD_BLOCK_ROWS
            try:
                for rows in FULL_BATCH_BLOCK_ROWS:
                    trainer.FORWARD_BLOCK_ROWS = rows
                    entry[f"blocks_{rows}"] = {
                        **measured(lambda: batch.forward(critic.values), reps),
                        "blocks": len(batch.blocks())}
            finally:
                trainer.FORWARD_BLOCK_ROWS = default
        out[name] = entry
    return out


def update_round_rows(root: Path, reps: int) -> dict:
    """One configs/ring_smoke.json update round, in order and overlapped
    (see the module doc)."""
    import numpy as np
    from cavlab import config, trainer

    cfg = config.parse_config(root / "configs" / "ring_smoke.json")
    env, ppo, net = cfg.env_spec(), cfg.ppo_config(), cfg.net_config()
    seed = 10
    bundle = trainer.make_policy(net, trainer.init_stream(seed))
    episode = trainer.collect_rollout(bundle, env, ppo, *trainer.episode_streams(seed, 0))
    advantages = trainer.compute_advantages(episode, bundle.critic, ppo)

    def fresh() -> tuple:
        bundle = trainer.make_policy(net, trainer.init_stream(seed))
        return bundle, *(trainer._GuardedOptimizer(network.parameters(), lr,
                                                   ppo.max_lr_halvings)
                         for network, lr in ((bundle.critic, ppo.critic_lr),
                                             (bundle.actor, ppo.actor_lr)))

    def faults() -> tuple[int, int]:
        return tuple(resource.getrusage(who).ru_minflt
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    out = {"agent_transitions": sum(len(tr.agent_ids) for tr in episode.transitions)}
    decide = trainer.updates_overlap
    try:
        for mode, overlap in (("in_order", False), ("overlapped", True)):
            trainer.updates_overlap = lambda overlap=overlap: overlap
            samples, own, child = [], [], []
            for k in range(max(4, reps // 8) + 1):   # the first round warms up
                args = fresh()
                before = faults()
                start = time.perf_counter()
                trainer._update_round(episode.transitions, advantages, *args, ppo, seed, 0)
                seconds = time.perf_counter() - start
                after = faults()
                if k:
                    samples.append(seconds)
                    own.append(after[0] - before[0])
                    child.append(after[1] - before[1])
            q1, med, q3 = statistics.quantiles(samples, n=4)
            out[mode] = {"median_ms": med * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3,
                         "rounds": len(samples),
                         "minflt_per_round": statistics.median(own),
                         "child_minflt_per_round": statistics.median(child)}
    finally:
        trainer.updates_overlap = decide
    return out


def checkpoint_rows(reps: int) -> dict:
    """Save and load of a checkpoint per network size (see the module doc)."""
    import tempfile

    import numpy as np
    from cavlab import checkpoint, layers, trainer

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        for name, keys in CHECKPOINT_NETS.items():
            bundle = trainer.make_policy(layers.NetConfig(**keys), np.random.SeedSequence(11))
            params, arch = bundle.parameters(), bundle.architecture()

            def save():
                checkpoint.save_checkpoint(path, params, arch, extra={"episode": 0})

            def load():
                checkpoint.load_checkpoint(path)

            save()
            out[name] = {"parameters": sum(p.data.size for p in params.values()),
                         "bytes": path.stat().st_size,
                         "save": {**timed(save, reps), "tracemalloc_peak_mb": traced_peak(save)},
                         "load": {**timed(load, reps), "tracemalloc_peak_mb": traced_peak(load)}}
    return out


def traced_peak(fn) -> float:
    """The `tracemalloc` peak of one call of `fn`, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measured(fn, reps: int, footprint_calls: int = 3) -> dict:
    """`timed`, plus the minor page faults per call and one call's
    `tracemalloc` peak in MB."""
    out = timed(fn, reps)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(footprint_calls):
        fn()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return {**out, "minflt_per_call": (after - before) / footprint_calls,
            "tracemalloc_peak_mb": traced_peak(fn)}


def timed(fn, reps: int, sample_s: float = 0.005) -> dict:
    """Median and quartiles, in ms per call, of `reps` samples of `fn`.

    A sample times enough back-to-back calls to last about `sample_s`, so
    the clock's resolution and one-off stalls weigh little at small sizes.
    """
    clock = time.perf_counter
    start = clock()
    fn()
    batch = max(1, int(sample_s / max(clock() - start, 1e-7)))
    samples = []
    for _ in range(reps):
        start = clock()
        for _ in range(batch):
            fn()
        samples.append((clock() - start) / batch)
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": med * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3,
            "calls_per_sample": batch}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--reps", type=int, default=40)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from cavlab import graph, idm, networks, sim

    scheme, scan, target = graph.GaussianSpeedField(), 30.0, 30.0 / 3.6
    if not hasattr(sim, "cav_pairs"):
        pair_pass = None

        def features(state):
            graph.build_adjacency(state, scheme, scan)
            for v in state.cavs():
                sim.local_observation(state, v.id, target, scan)
    else:
        if "scan_scale" in inspect.signature(sim.cav_pairs).parameters:
            def pair_pass(state):
                return sim.cav_pairs(state, scan)
        else:   # the all-pairs matrices, which take no scan scale
            pair_pass = sim.cav_pairs

        observe = observations(sim)

        def features(state):
            pairs = pair_pass(state)
            graph.build_adjacency(state, scheme, scan, pairs)
            observe(state, pairs, target, scan)

    out = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "src": str(Path(args.src).resolve()),
           "reps": args.reps, "features": {}, "pairs": {}, "step": {}}
    root = Path(args.src).resolve().parent
    out["rollout_step"] = rollout_rows(root, args.reps)
    out["update_round"] = update_round_rows(root, args.reps)
    for n_cav in FEATURE_CAVS:
        state = ring_state(sim, networks, idm, n_cav)
        out["features"][str(n_cav)] = timed(lambda: features(state), args.reps)
        if pair_pass is not None:
            out["pairs"][str(n_cav)] = timed(lambda: pair_pass(state), args.reps)
    for n_vehicles in STEP_VEHICLES:
        n_cav = n_vehicles * BASE_CAVS // (BASE_CAVS + BASE_HUMANS)
        state = ring_state(sim, networks, idm, n_cav)
        actions = {v.id: 0.0 for v in state.cavs()}   # a ring keeps its CAVs
        out["step"][str(n_vehicles)] = timed(lambda: sim.step(state, actions, 0.1),
                                             args.reps)
    state = warm_ring(sim, networks, idm, SMOKE_LENGTH, SMOKE_HUMANS, SMOKE_CAVS)
    actions = {v.id: 0.0 for v in state.cavs()}
    out["step"]["ring_smoke"] = {**timed(lambda: sim.step(state, actions, 0.1), args.reps),
                                 "vehicles": len(state.vehicles)}
    for name, state in baseline_states(sim, networks, idm).items():
        vehicles = len(state.vehicles)   # no CAVs: the actions stay empty
        out["step"][name] = {**timed(lambda: sim.step(state, {}, 0.1), args.reps),
                             "vehicles": vehicles}
    out["network"] = network_rows(root, sim, networks, idm, args.reps)
    out["full_batch"] = full_batch_rows(root, args.reps)
    out["batch_of"] = batch_of_rows(root, args.reps)
    # fewer samples: a checkout that writes decimal text takes about 0.6 s
    # per save at hidden 256
    out["checkpoint"] = checkpoint_rows(max(4, args.reps // 8))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
