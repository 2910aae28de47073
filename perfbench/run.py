"""cavlab benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload train_ring_smoke --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports `cavlab` from
`src/`. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones, from spans recorded around every layer's entry points.
`attempted` and `failed` count episodes. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller says otherwise: with more, OpenBLAS
# spin-waits on a second core for matrices this small, doubling CPU use for
# no gain in wall time and exposing every round to a neighbour's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("train_ring_smoke", "train_merge", "rollout_ring_large")
SETUP_PROBES = 5
# Nominal seconds of one round on the reference machine (perfbench/README.md).
# A traced run does round(seconds / nominal) rounds, at least one, so its
# counts depend on the seed and --seconds alone.
NOMINAL_ROUND_S = {"train_ring_smoke": 3.5, "train_merge": 8.0, "rollout_ring_large": 4.5}


def import_cavlab():
    """Import the package from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cavlab
    if not Path(cavlab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"cavlab imported from {cavlab.__file__}, not from {src}")
    return cavlab


def probe(workload: str) -> None:
    """Set-up alone, in a fresh process; prints `ready` when done."""
    import_cavlab()
    import workloads
    workloads.setup(workload, ROOT, seed=0)
    print("ready", flush=True)


def setup_seconds(workload: str) -> float:
    """Median, over fresh processes, of the time from spawn to set-up done."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                                 "--probe", workload], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
        finally:
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        samples.append(elapsed)
    return statistics.median(samples)


def measure(args) -> dict:
    import_cavlab()
    import checks
    import spans
    import workloads

    setup_s = None if args.trace else setup_seconds(args.workload)
    ctx = workloads.setup(args.workload, ROOT, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    counter = workloads.RolloutCounter()
    counter.install()

    fixed_rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    rounds, failures = [], []
    attempted = failed = 0
    correct = True
    checkpoint_bytes = 0
    per_round = ctx.ppo.episodes
    start = time.perf_counter()
    k = 0
    while True:
        attempted += per_round
        try:
            rnd, nbytes = workloads.run_round(ctx, k, counter, OUT_DIR)
            rounds.append(rnd)
            checkpoint_bytes = nbytes or checkpoint_bytes
        except checks.CheckFailed as exc:
            failed += per_round
            correct = False
            failures.append(f"round {k}: check failed: {exc}")
        except Exception:  # the program's own failure: count it, go on
            failed += per_round
            failures.append(f"round {k}: {traceback.format_exc()}")
        k += 1
        if args.trace:
            if k >= fixed_rounds:
                break
        else:
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.seconds for r in rounds) if rounds else 0.0
            if elapsed + typical > args.seconds:
                break
    for line in failures:
        print(line, file=sys.stderr)
    if not rounds:
        raise RuntimeError("no round of the workload completed")

    def median_rate(count: str) -> float:
        return statistics.median(getattr(r, count) / r.seconds for r in rounds)

    wall_s = statistics.median(r.seconds for r in rounds)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "env_steps_per_s": (median_rate("env_steps"), "1/s"),
            "agent_transitions_per_s": (median_rate("agent_transitions"), "1/s"),
            "episodes_per_s": (median_rate("episodes"), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer.write(OUT_DIR / f"{args.workload}.spans.csv")
        metrics = tracer.layer_metrics(agent_steps=counter.agent_transitions)
        metrics["checkpoint.bytes"] = (checkpoint_bytes, "bytes")
        metrics["trace.wall_s"] = (wall_s, "s")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args)
    except Exception as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
