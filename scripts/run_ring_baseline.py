#!/usr/bin/env python3
"""All-human ring baseline: stop-and-go waves from IDM noise.

Runs configs/ring.json with every CAV replaced by an IDM driver (the
22-vehicle / 230 m ring) for 3000 steps and writes a space-time CSV plus
summary stats. Rendering (e.g. with matplotlib or any plotting tool) is
left to the reader.
"""
import argparse
from pathlib import Path

from cavlab.config import parse_config
from cavlab.evaluate import evaluate, space_time_export

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ring.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/ring_baseline")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=3000)
    args = ap.parse_args()

    env = parse_config(CONFIG).human_only().env_spec()
    report = evaluate(None, env, horizon=args.steps, episodes=1, seeds=[args.seed])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    space_time_export(report, out / "spacetime.csv")
    final = report.speed_matrix[-500:]
    print(f"mean velocity          : {report.mean_velocity:.3f} m/s")
    print(f"final-500 speed std    : {final.std(axis=1).mean():.3f} m/s")
    print(f"return (undiscounted)  : {report.episode_return:.1f}")
    print(f"space-time CSV         : {out / 'spacetime.csv'}")


if __name__ == "__main__":
    main()
