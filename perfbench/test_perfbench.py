"""The benchmark's own test.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

A short run of every workload, traced and untraced, must emit exactly the
metrics BENCHMARK.json names, with their units; and every output check must
fire on a corrupted copy of a correct output.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from cavlab import config, trainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_run_without_sources_fails():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_ring_smoke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# the checks fire on corrupted outputs


def _smoke_cfg(**scenario):
    raw = json.loads((ROOT / "configs" / "ring_smoke.json").read_text())
    raw["scenario"].update(scenario)
    return config.config_from_dict(raw)


@pytest.fixture(scope="module")
def trained():
    cfg = _smoke_cfg(horizon=50)
    ppo = dataclasses.replace(cfg.ppo_config(), episodes=2, batch_size=200)
    result = trainer.train(cfg.env_spec(), ppo, cfg.net_config(), master_seed=7)
    return result, ppo


def _corruptions_training():
    def objective(r):
        r.actor_objectives[0] = 1e-4

    def loss_nan(r):
        r.critic_losses[0] = float("nan")

    def loss_zero(r):
        r.critic_losses[-1] = 0.0

    def short_episode(r):
        r.records[0].length -= 1

    def return_inf(r):
        r.records[1].episode_return = float("inf")

    def missing_update(r):
        r.critic_losses.pop()
        r.actor_objectives.pop()

    return [objective, loss_nan, loss_zero, short_episode, return_inf, missing_update]


def test_training_check_passes(trained):
    result, ppo = trained
    checks.check_training(result, episodes=2, horizon=ppo.horizon, full_horizon=True)


@pytest.mark.parametrize("corrupt", _corruptions_training(), ids=lambda f: f.__name__)
def test_training_check_fires(trained, corrupt):
    result, ppo = trained
    bad = copy.deepcopy(result)
    corrupt(bad)
    with pytest.raises(checks.CheckFailed):
        checks.check_training(bad, episodes=2, horizon=ppo.horizon, full_horizon=True)


def test_reload_check(trained):
    result, _ = trained
    twin = copy.deepcopy(result.bundle)
    checks.check_reload(result.bundle, twin)
    p = next(iter(twin.parameters().values()))
    p.data.flat[0] = np.nextafter(p.data.flat[0], np.inf)
    with pytest.raises(checks.CheckFailed):
        checks.check_reload(result.bundle, twin)


@pytest.fixture(scope="module")
def ring_rollout():
    cfg = _smoke_cfg(horizon=30)
    env, ppo = cfg.env_spec(), cfg.ppo_config()
    bundle = trainer.make_policy(cfg.net_config(), np.random.SeedSequence(1))
    seed = np.random.SeedSequence(2)
    episode = trainer.collect_rollout(bundle, env, ppo, seed, np.random.default_rng(3),
                                      keep_infos=True)
    initial = checks.state_arrays(env.build(seed))
    s, g = cfg.scenario, cfg.graph
    kwargs = dict(length=s.ring_length, dt=s.dt, vehicle_length=s.vehicle_length,
                  target_speed=s.target_speed, scan_scale=g.scan_scale, sigma=g.sigma,
                  reward=env.reward)
    return episode, initial, kwargs


def _corruptions_rollout():
    def reward(e):
        e.rewards[7] += 1e-6

    def weights(e):
        e.transitions[4].weights[0, 1] += 1e-6

    def mask(e):
        e.transitions[4].mask[0, 1] = not e.transitions[4].mask[0, 1]

    def obs(e):
        e.transitions[9].obs[2, 3] += 1e-6

    def dropped_vehicle(e):
        info = e.infos[5]
        info.vehicle_ids = info.vehicle_ids[:-1]

    def position_range(e):
        e.infos[6].positions[0] += 230.0

    def negative_speed(e):
        e.infos[8].speeds[1] = -1e-3

    def kinematics(e):
        e.infos[10].positions[2] += 1e-6

    def overlap(e):
        info = e.infos[12]
        info.positions[1] = info.positions[0] + 1.0

    def collided(e):
        e.collided = True

    return [reward, weights, mask, obs, dropped_vehicle, position_range,
            negative_speed, kinematics, overlap, collided]


def test_ring_rollout_check_passes(ring_rollout):
    episode, initial, kwargs = ring_rollout
    checks.check_ring_rollout(episode, initial, **kwargs)


@pytest.mark.parametrize("corrupt", _corruptions_rollout(), ids=lambda f: f.__name__)
def test_ring_rollout_check_fires(ring_rollout, corrupt):
    episode, initial, kwargs = ring_rollout
    bad = copy.deepcopy(episode)
    corrupt(bad)
    with pytest.raises(checks.CheckFailed):
        checks.check_ring_rollout(bad, initial, **kwargs)
