#!/usr/bin/env python3
"""Digest of everything a refactor must leave bit-identical.

Prints one JSON object of sha256 digests:

- `train`: for each of the four `configs/*.json`, shortened so that a few
  updates run, `trainer.train` at master seed 0: its learning-curve rows,
  critic losses, actor objectives, every final parameter and the
  checkpoint file of the final parameters;
- `cli`: for each config, every file that `cavlab eval --dump-adjacency`
  (on the checkpoint of that training) and `cavlab baseline` write, and
  what they print;
- `rollout`: a LARGE_RING_STEPS-step rollout on the benchmark's large ring
  (configs/ring.json scaled to 256 CAVs, safety clamp on), the only
  scenario whose steps run the edge kernel, at fixed seeds: every
  transition's actions, logp_old, obs and next_obs, and the entries of
  its adjacency (the mask's flat positions and M at them).

Run it on two checkouts and compare the output; a change that keeps every
bit prints the same JSON:

    python scripts/identity_digest.py > after.json
    python scripts/identity_digest.py --src ../parent/src > before.json
    diff before.json after.json

`--golden FILE` records the digest in FILE instead, under the fingerprint
of the numerics it was computed with (`fingerprint`): the numpy version,
the BLAS build numpy reports, and the machine architecture. The digest of
`tests/golden/identity_digest.json` is checked by
`tests/test_identity_digest.py`; a change that moves bits on purpose
regenerates it:

    PYTHONPATH=src python scripts/identity_digest.py --golden tests/golden/identity_digest.json

It takes about 10 seconds on 2 cores.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (horizon, episodes, batch_size): each run makes an update after every
# episode or two; the merge needs a longer horizon to fill up with CAVs
SHORT_RUNS = {
    "ring_smoke": (120, 4, 400),
    "ring": (60, 2, 900),
    "figure_eight": (100, 3, 500),
    "merge": (300, 3, 400),
}
EVAL_HORIZON = 250   # adjacency dumps at steps 0, 100 and 200
LARGE_RING_CAVS, LARGE_RING_STEPS = 256, 30


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def shortened(cfg, name: str):
    horizon, episodes, batch = SHORT_RUNS[name]
    return dataclasses.replace(
        cfg, scenario=dataclasses.replace(cfg.scenario, horizon=horizon),
        ppo=dataclasses.replace(cfg.ppo, episodes=episodes, batch_size=batch, epochs=2,
                                minibatch_size=128))


def train_digest(result) -> dict:
    return {
        "curve_rows": sha("\n".join(result.curve_rows())),
        "critic_losses": sha(repr(result.critic_losses)),
        "actor_objectives": sha(repr(result.actor_objectives)),
        "parameters": {name: sha(p.data.tobytes())
                       for name, p in sorted(result.bundle.parameters().items())},
    }


def tree_digest(root: Path) -> dict:
    return {str(p.relative_to(root)): sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def cli_digest(cli, config_path: Path, checkpoint: Path, name: str) -> dict:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        codes = [
            cli.main(["eval", str(config_path), "--checkpoint", str(checkpoint),
                      "--episodes", "1", "--dump-adjacency", "--out", f"eval_{name}"]),
            cli.main(["baseline", str(config_path), "--out", f"baseline_{name}"]),
        ]
    if codes != [0, 0]:
        raise SystemExit(f"{name}: cavlab exited with {codes}")
    return {"stdout": sha(printed.getvalue()),
            "eval": tree_digest(Path(f"eval_{name}")),
            "baseline": tree_digest(Path(f"baseline_{name}"))}


def large_ring_config():
    """configs/ring.json scaled to LARGE_RING_CAVS CAVs at the same density
    and CAV share, safety clamp on, LARGE_RING_STEPS steps."""
    from cavlab.config import config_from_dict

    raw = json.loads((ROOT / "configs" / "ring.json").read_text())
    scen = raw["scenario"]
    n_human = LARGE_RING_CAVS * scen["n_human"] // scen["n_cav"]
    scen.update(ring_length=scen["ring_length"] * (LARGE_RING_CAVS + n_human)
                / (scen["n_human"] + scen["n_cav"]), n_human=n_human,
                n_cav=LARGE_RING_CAVS, safety_clamp=True, horizon=LARGE_RING_STEPS)
    return config_from_dict(raw)


def rollout_digest() -> dict:
    """The large ring's rollout, field by field over all its transitions."""
    import numpy as np
    from cavlab.trainer import collect_rollout, make_policy

    cfg = large_ring_config()
    bundle = make_policy(cfg.net_config(), np.random.SeedSequence(0))
    trans = collect_rollout(bundle, cfg.env_spec(), cfg.ppo_config(),
                            np.random.SeedSequence(1), np.random.default_rng(2)).transitions
    index = [np.flatnonzero(tr.mask) for tr in trans]
    fields = {name: [getattr(tr, name) for tr in trans]
              for name in ("actions", "logp_old", "obs", "next_obs")}
    fields["adjacency_index"] = index
    fields["adjacency_values"] = [tr.weights.ravel()[i] for tr, i in zip(trans, index)]
    out = {name: sha(b"".join(a.tobytes() for a in arrays)) for name, arrays in fields.items()}
    out["transitions"] = str(len(trans))
    return out


def fingerprint() -> str:
    """What the digest's bits depend on besides the code: the numpy version,
    the BLAS name and version numpy was built with, and the architecture."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy before 1.26 has no mode="dicts"
        library = "unknown BLAS"
    return f"numpy {np.__version__}, {library}, {platform.machine()}"


def digest() -> dict:
    """The digest of the imported `cavlab` (see the module doc)."""
    from cavlab import cli
    from cavlab.checkpoint import save_checkpoint
    from cavlab.config import emit_config, parse_config
    from cavlab.trainer import train

    out = {"train": {}, "cli": {}}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)   # the outputs record their (relative) paths
        try:
            for name in SHORT_RUNS:
                cfg = shortened(parse_config(ROOT / "configs" / f"{name}.json"), name)
                result = train(cfg.env_spec(), cfg.ppo_config(), cfg.net_config(),
                               master_seed=0)
                out["train"][name] = train_digest(result)
                checkpoint = Path(f"{name}_checkpoint.json")
                save_checkpoint(checkpoint, result.bundle.parameters(),
                                result.bundle.architecture())
                out["train"][name]["checkpoint"] = sha(checkpoint.read_bytes())
                config_path = Path(f"{name}_eval.json")
                emit_config(dataclasses.replace(cfg, scenario=dataclasses.replace(
                    cfg.scenario, horizon=EVAL_HORIZON), seeds=(0,)), config_path)
                out["cli"][name] = cli_digest(cli, config_path, checkpoint, name)
        finally:
            os.chdir(cwd)
    out["rollout"] = {"ring_large": rollout_digest()}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the `src` directory of the checkout to digest")
    ap.add_argument("--golden", type=Path,
                    help="record the digest in this file under this machine's fingerprint")
    args = ap.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import cavlab
    if not Path(cavlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cavlab imported from {cavlab.__file__}, not from {src}")
    out = digest()
    if args.golden is None:
        json.dump(out, sys.stdout, indent=1, sort_keys=True)
        print()
        return
    recorded = json.loads(args.golden.read_text()) if args.golden.exists() else {}
    recorded[fingerprint()] = out
    args.golden.parent.mkdir(parents=True, exist_ok=True)
    args.golden.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
