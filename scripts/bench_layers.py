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
  the mask set); one minibatch loss plus backward at B=64, N=4 for the
  critic (`critic_minibatch_B64_N4`, TD loss against fixed targets) and
  the actor (`actor_minibatch_B64_N4`, clipped surrogate), and for the
  critic on one 256-CAV step (`critic_minibatch_B1_N256`); and one
  `Adam.step` over the actor's parameters (`adam_step`).
- `kernels`: for a checkout whose layers have the edge-list kernel, every
  forward row above timed on each kernel (`dense`, `edge`) with the mask's
  density: the crossover behind `layers.EDGE_KERNEL_MAX_DENSITY`.
`--src` picks the checkout to import, so two commits compare under the
same script; the per-agent observation API of checkouts that predate
`sim.cav_pairs` is timed the way those rollouts called it (no `pairs`
row), and a `cav_pairs` that takes no scan scale (the all-pairs matrices)
is timed as it is. Prints one JSON object.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

FEATURE_CAVS = (4, 16, 64, 256)
STEP_VEHICLES = (22, 88, 352)
BASE_CAVS, BASE_HUMANS, BASE_LENGTH = 16, 6, 230.0
SMOKE_CAVS, SMOKE_HUMANS, SMOKE_LENGTH = 4, 2, 230.0
TARGET_SPEED = 30.0 / 3.6
MERGE_WARM_STEPS = 600


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
    from cavlab import config, graph, layers, tensor, trainer

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
    for n_cav in (16, 64, 256):
        state = ring_state(sim, networks, idm_mod, n_cav)
        adj = graph.build_adjacency(state, ring_env.scheme, ring_env.scan_scale)
        obs = sim.local_observation(state, adj.agent_ids, ring_env.target_speed,
                                    ring_env.scan_scale)
        rows[f"forward_B1_N{n_cav}"] = inputs(obs[None], adj.weights[None],
                                              adj.neighbor_mask[None])
    out = {name: timed(lambda a=args: forward(a), reps) for name, args in rows.items()}
    if hasattr(layers, "EDGE_KERNEL_MAX_DENSITY"):
        out["kernels"] = kernel_rows(rows, forward, reps)

    targets = trainer.td_targets(bundle.critic, trans, ppo.gamma)
    advantages = trainer.normalize_advantages(
        trainer.compute_advantages(episode, bundle.critic, ppo))
    large = large_ring_steps(root)
    large_targets = trainer.td_targets(bundle.critic, large, ppo.gamma)
    losses = {
        "critic_minibatch_B64_N4": (
            bundle.critic, lambda: trainer.critic_loss_given_targets(bundle.critic, trans,
                                                                     targets)),
        "actor_minibatch_B64_N4": (
            bundle.actor, lambda: -trainer.surrogate_objective(bundle.actor, trans,
                                                               advantages, ppo.clip)),
        "critic_minibatch_B1_N256": (
            bundle.critic, lambda: trainer.critic_loss_given_targets(
                bundle.critic, large[:1], large_targets[:1])),
    }
    for name, (network, loss_fn) in losses.items():
        params = network.parameters()

        def step(params=params, loss_fn=loss_fn):
            for p in params.values():
                p.grad = None
            loss_fn().backward()

        out[name] = timed(step, reps)

    params = bundle.actor.parameters()
    rng = np.random.default_rng(3)
    for p in params.values():
        p.grad = 1e-3 * rng.standard_normal(p.data.shape)
    opt = layers.Adam(params, 1e-9)   # a tiny step keeps the weights in place
    out["adam_step"] = timed(opt.step, reps)
    return out


def kernel_rows(rows: dict, forward, reps: int) -> dict:
    """Each forward row on the dense and on the edge-list kernel, with its
    mask's density, by moving the selection's cut-off out of the way."""
    from cavlab import layers

    cutoff = layers.EDGE_KERNEL_MAX_DENSITY
    out = {}
    try:
        for name, args in rows.items():
            out[name] = {"density": float(args[3].mean())}
            for kernel, forced in (("dense", 0.0), ("edge", 2.0)):
                layers.EDGE_KERNEL_MAX_DENSITY = forced
                out[name][kernel] = timed(lambda a=args: forward(a), reps)
    finally:
        layers.EDGE_KERNEL_MAX_DENSITY = cutoff
    return out


def large_ring_steps(root: Path) -> list:
    """Two rollout transitions of configs/ring.json scaled to 256 CAVs at the
    same density and CAV share, the benchmark's large ring."""
    import numpy as np
    from cavlab import config, trainer

    raw = json.loads((root / "configs" / "ring.json").read_text())
    scen = raw["scenario"]
    n_human = 256 * scen["n_human"] // scen["n_cav"]
    scen.update(ring_length=scen["ring_length"] * (256 + n_human)
                / (scen["n_human"] + scen["n_cav"]),
                n_human=n_human, n_cav=256, safety_clamp=True, horizon=2)
    cfg = config.config_from_dict(raw)
    bundle = trainer.make_policy(cfg.net_config(), np.random.SeedSequence(4))
    return trainer.collect_rollout(bundle, cfg.env_spec(), cfg.ppo_config(),
                                   np.random.SeedSequence(5),
                                   np.random.default_rng(6)).transitions


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

        def features(state):
            pairs = pair_pass(state)
            graph.build_adjacency(state, scheme, scan, pairs)
            sim.local_observation(state, pairs.ids, target, scan, pairs)

    out = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "src": str(Path(args.src).resolve()),
           "reps": args.reps, "features": {}, "pairs": {}, "step": {}}
    root = Path(args.src).resolve().parent
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
    print(json.dumps(out))


if __name__ == "__main__":
    main()
