#!/usr/bin/env python3
"""Desk-scale ablation sweeps on configs/ring_smoke.json: attention heads
and adjacency scheme.

Trends (not magnitudes) are the point at this scale; expect the
kernel-weighted scheme and a moderate head count to come out ahead in
the median, with per-seed noise.
"""
import argparse
import dataclasses
from pathlib import Path

from cavlab.config import parse_config
from cavlab.evaluate import SweepSpec, run_sweep

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ring_smoke.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/ablations")
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--episodes", type=int, default=50)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    cfg = parse_config(CONFIG)
    cfg = dataclasses.replace(cfg, ppo=dataclasses.replace(cfg.ppo, episodes=args.episodes))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    heads = SweepSpec(variable="attention_heads", values=[0, 2, 4, 8],
                      episodes_per_value=3, seeds=seeds)
    result = run_sweep(heads, cfg)
    (out / "attention_heads.csv").write_text("\n".join(result.table_rows()) + "\n")
    print(f"attention-heads sweep -> {out / 'attention_heads.csv'}")

    schemes = SweepSpec(variable="adjacency_scheme",
                        values=["position", "velocity", "both"],
                        episodes_per_value=3, seeds=seeds)
    result = run_sweep(schemes, cfg)
    (out / "adjacency_scheme.csv").write_text("\n".join(result.table_rows()) + "\n")
    print(f"adjacency-scheme sweep -> {out / 'adjacency_scheme.csv'}")


if __name__ == "__main__":
    main()
