"""Command-line entry point.

Subcommands: train, eval, sweep, baseline (IDM-only), check. Every run
writes its effective config and seed list next to its outputs, so any
artifact is reproducible from its directory alone. Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .config import RunConfig, block_from, emit_config, parse_config
from .errors import CavlabError, IncompatibleCheckpoint, InvalidSpec, ParseError
from .evaluate import (SWEEP_VARIABLES, EvalReport, SweepSpec, decentralization_check,
                       evaluate, run_sweep, space_time_export)
from .graph import adjacency_csv_rows
from .layers import NetConfig
from .sim import export_trajectory_csv, vehicle_table_rows
from .trainer import PolicyBundle, blas_threads, init_stream, make_policy, train


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CavlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavlab",
        description="Mixed-autonomy traffic lab: simulate, train, evaluate, sweep.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to the run-config JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed list with one seed")
        p.add_argument("--out", default=None, help="override output_dir")

    p_train = sub.add_parser("train", help="train a policy per seed")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint deterministically")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=int, default=5)
    p_eval.add_argument("--dump-adjacency", action="store_true",
                        help="export adjacency matrices of the first episode")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="train+evaluate across a variable")
    common(p_sweep)
    p_sweep.add_argument("--variable", required=True, choices=SWEEP_VARIABLES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 0,2,4,8")
    p_sweep.add_argument("--episodes-per-value", type=int, default=3)
    p_sweep.set_defaults(func=cmd_sweep)

    p_base = sub.add_parser("baseline", help="IDM-only run (no policy)")
    common(p_base)
    p_base.add_argument("--episodes", type=int, default=1)
    p_base.set_defaults(func=cmd_baseline)

    p_check = sub.add_parser("check", help="run the built-in property suites")
    p_check.set_defaults(func=cmd_check)
    return parser


def _load(args) -> tuple[RunConfig, Path, list[int]]:
    cfg = parse_config(args.config)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    seeds = [args.seed] if args.seed is not None else list(cfg.seeds)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_config(cfg, out / "config.json")
    return cfg, out, seeds


def _write_summary(out: Path, cfg: RunConfig, seeds: list[int], metrics: dict,
                   blas_threads: dict | None = None) -> None:
    payload = {"config_hash": cfg.config_hash(), "seeds": seeds, "metrics": metrics}
    if blas_threads is not None:    # training runs record their BLAS thread settings
        payload["blas_threads"] = blas_threads
    with open(out / "run_summary.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_train(args) -> int:
    cfg, out, seeds = _load(args)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    all_rows: list[str] = []
    env, ppo, net = cfg.env_spec(), cfg.ppo_config(), cfg.net_config()
    final_returns, unused, halvings = {}, {}, {}
    for seed in seeds:
        def save_cb(episode, bundle, seed=seed):
            save_checkpoint(ckpt_dir / f"seed{seed}_ep{episode + 1:05d}.json",
                            bundle.parameters(), bundle.architecture(),
                            extra={"episode": episode, "master_seed": seed})

        result = train(env, ppo, net, master_seed=seed, on_checkpoint=save_cb)
        save_checkpoint(ckpt_dir / f"seed{seed}_final.json",
                        result.bundle.parameters(), result.bundle.architecture(),
                        extra={"episode": ppo.episodes - 1, "master_seed": seed})
        rows = result.curve_rows()
        all_rows.extend(rows if not all_rows else rows[1:])
        final_returns[seed] = result.records[-1].episode_return
        unused[seed] = result.unused_agent_transitions
        halvings[seed] = result.lr_halvings
    (out / "learning_curve.csv").write_text("\n".join(all_rows) + "\n")
    _write_summary(out, cfg, seeds, {"final_return_by_seed": final_returns,
                                     "unused_agent_transitions_by_seed": unused,
                                     "lr_halvings_by_seed": halvings},
                   blas_threads=blas_threads())
    print(f"trained {len(seeds)} seed(s); curves in {out / 'learning_curve.csv'}")
    return 0


def _bundle_from_checkpoint(path) -> PolicyBundle:
    params, arch, _ = load_checkpoint(path)
    # Older checkpoints record the removed literal-ratio attention switch;
    # only its default (off) matches the attention this version computes.
    if arch.get("literal_ratio_attention", False):
        raise IncompatibleCheckpoint(
            f"{path} uses literal-ratio attention, which is no longer supported")
    keys = [f.name for f in dataclasses.fields(NetConfig)]
    missing = [k for k in keys if k not in arch]
    if missing:
        raise IncompatibleCheckpoint(f"{path} records no architecture key {missing[0]!r}")
    try:   # values of NetConfig's field types (numbers finite) that fit the parameters
        net = block_from(NetConfig, {k: arch[k] for k in keys}, "architecture")
        bundle = make_policy(net, init_stream(0))
        restore_params(bundle.parameters(), params)
    except (ParseError, InvalidSpec, IncompatibleCheckpoint) as exc:
        raise IncompatibleCheckpoint(f"{path}: {exc}") from exc
    return bundle


def _write_report(out: Path, report: EvalReport, prefix: str) -> None:
    """Write an evaluation's report, space-time, trajectory and vehicle
    tables; `prefix` starts every file name."""
    eval_dir, st_dir = out / "eval", out / "spacetime"
    eval_dir.mkdir(exist_ok=True)
    with open(eval_dir / f"{prefix}report.json", "w") as fh:
        json.dump(report.summary(), fh, indent=2)
        fh.write("\n")
    st_dir.mkdir(exist_ok=True)
    space_time_export(report, st_dir / f"{prefix}spacetime.csv")
    infos = report.first_episode_infos[report.seeds[0]]
    export_trajectory_csv(infos, eval_dir / f"{prefix}trajectory.csv")
    (eval_dir / f"{prefix}vehicles.csv").write_text("\n".join(vehicle_table_rows(infos)) + "\n")


def cmd_eval(args) -> int:
    cfg, out, seeds = _load(args)
    bundle = _bundle_from_checkpoint(args.checkpoint)
    env = cfg.env_spec()
    report = evaluate(bundle, env, cfg.scenario.horizon, args.episodes, seeds)
    _write_report(out, report, prefix="")
    if args.dump_adjacency:  # decision-time adjacency of every 100th step
        adj_dir = out / "adjacency"
        adj_dir.mkdir(exist_ok=True)
        for tr in report.first_episode_transitions:
            if tr.step_index % 100 == 0:
                (adj_dir / f"adjacency_step{tr.step_index:05d}.csv").write_text(
                    "\n".join(adjacency_csv_rows(tr)) + "\n")
    dec = decentralization_check(bundle, env, seeds[0], samples=20,
                                 horizon=min(cfg.scenario.horizon, 200))
    _write_summary(out, cfg, seeds, {
        "eval": report.summary(),
        "decentralization_check": {"passed": dec.passed,
                                    "violations": len(dec.violations)},
    })
    print(f"return={report.episode_return:.2f} mean_velocity={report.mean_velocity:.3f} "
          f"collision_rate={report.collision_rate:.2f} decentralized={dec.passed}")
    return 0


def cmd_baseline(args) -> int:
    cfg, out, seeds = _load(args)
    report = evaluate(None, cfg.human_only().env_spec(), cfg.scenario.horizon,
                      args.episodes, seeds)
    _write_report(out, report, prefix="baseline_")
    _write_summary(out, cfg, seeds, {"baseline": report.summary()})
    print(f"IDM baseline: mean_velocity={report.mean_velocity:.3f} "
          f"return={report.episode_return:.2f} collision_rate={report.collision_rate:.2f}")
    return 0


def cmd_sweep(args) -> int:
    cfg, out, seeds = _load(args)
    values = _parse_values(args.variable, args.values)
    spec = SweepSpec(variable=args.variable, values=values,
                     episodes_per_value=args.episodes_per_value, seeds=seeds)
    result = run_sweep(spec, cfg)
    (out / "sweep.csv").write_text("\n".join(result.table_rows()) + "\n")
    if result.pct_change_rows:
        (out / "sweep_pct_change.csv").write_text(
            "\n".join(result.pct_change_rows) + "\n")
    failed = [c for c in result.cells if c.failed]
    _write_summary(out, cfg, seeds, {
        "sweep_variable": args.variable,
        "cells": len(result.cells),
        "failed_cells": len(failed),
    })
    print(f"sweep over {args.variable}: {len(result.cells)} cells, "
          f"{len(failed)} failed; table in {out / 'sweep.csv'}")
    return 0 if not failed else 1


def _parse_values(variable: str, raw: str) -> list:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if variable == "adjacency_scheme":
        return parts
    if variable == "attention_heads":
        return [int(p) for p in parts]
    return [float(p) for p in parts]


def cmd_check(args) -> int:
    from .selfcheck import run_all
    failures = run_all()
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
