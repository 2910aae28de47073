#!/usr/bin/env python3
"""Desk-scale training demo on a 6-vehicle ring with 4 CAVs.

Equivalent to `cavlab train configs/ring_smoke.json` but shows the
library API directly: load the config, train, evaluate the mean policy,
and compare against the untrained network.
"""
import argparse
import dataclasses
from pathlib import Path

import numpy as np

from cavlab.config import parse_config
from cavlab.evaluate import evaluate
from cavlab.trainer import make_policy, init_stream, train

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ring_smoke.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--episodes", type=int, default=50)
    ap.add_argument("--heads", type=int, default=8)
    args = ap.parse_args()

    cfg = parse_config(CONFIG)
    cfg = dataclasses.replace(cfg, ppo=dataclasses.replace(cfg.ppo, episodes=args.episodes),
                              nn=dataclasses.replace(cfg.nn, heads=args.heads))
    cfg.validate()
    env, net, horizon = cfg.env_spec(), cfg.net_config(), cfg.scenario.horizon

    result = train(env, cfg.ppo_config(), net, master_seed=args.seed)
    rets = [r.episode_return for r in result.records]
    print(f"first-10 mean return : {np.mean(rets[:10]):9.1f}")
    print(f"final-10 mean return : {np.mean(rets[-10:]):9.1f}")

    trained = evaluate(result.bundle, env, horizon=horizon, episodes=1, seeds=[args.seed])
    fresh = evaluate(make_policy(net, init_stream(args.seed)), env,
                     horizon=horizon, episodes=1, seeds=[args.seed])
    print(f"trained mean speed   : {trained.mean_velocity:6.2f} m/s")
    print(f"untrained mean speed : {fresh.mean_velocity:6.2f} m/s")


if __name__ == "__main__":
    main()
