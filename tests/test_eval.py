import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from cavlab.config import config_from_dict
from cavlab.errors import InvalidSpec
from cavlab.evaluate import (
    SweepSpec, decentralization_check, evaluate, import_space_time,
    receptive_closure, run_sweep, space_time_export,
)
from cavlab.graph import GaussianSpeedField, KernelSpec, PositionOnly, VelocityOnly
from cavlab.idm import IdmParams
from cavlab.layers import NetConfig
from cavlab.networks import RingSpec
from cavlab.rewards import RingEightReward, reward_ring_eight
from cavlab.sim import SimOptions, build_network
from cavlab.trainer import EnvSpec, PpoConfig, make_policy, init_stream

TARGET = 20.0 / 3.6


def ring_env(n_human=2, n_cav=4, scan=60.0):
    return EnvSpec(
        network=RingSpec(length=230.0), n_human=n_human, n_cav=n_cav,
        idm=IdmParams(v0=TARGET, noise_mag=0.2),
        options=SimOptions(safety_clamp=True),
        target_speed=TARGET, dt=0.1,
        reward=RingEightReward(target_speed=TARGET),
        scheme=GaussianSpeedField(), scan_scale=scan)


def bundle16(seed=0, heads=2):
    return make_policy(NetConfig(hidden=16, heads=heads), init_stream(seed))


def test_evaluate_requires_seeds():
    with pytest.raises(InvalidSpec):
        evaluate(bundle16(), ring_env(), horizon=10, episodes=1, seeds=[])


def test_evaluate_deterministic():
    env = ring_env()
    reports = [evaluate(bundle16(seed=3), env, horizon=40, episodes=2, seeds=[5, 6])
               for _ in range(2)]
    a, b = reports
    assert a.episode_return == b.episode_return
    assert a.mean_velocity == b.mean_velocity
    assert np.array_equal(a.speed_matrix, b.speed_matrix)


def test_metric_consistency_and_replay():
    env = ring_env()
    report = evaluate(bundle16(seed=4), env, horizon=50, episodes=1, seeds=[7])
    # mean velocity equals the mean of the exported speed matrix
    assert report.mean_velocity == pytest.approx(float(np.nanmean(report.speed_matrix)))
    # return equals the gamma-free sum of rewards replayed from the step infos
    infos = report.first_episode_infos[7]
    replayed = sum(reward_ring_eight(i.speeds, i.cav_accels, env.reward) for i in infos)
    assert report.episode_return == pytest.approx(replayed)


def test_idm_baseline_short_run():
    env = dataclasses.replace(ring_env(n_human=22, n_cav=0),
                              idm=IdmParams(v0=30.0 / 3.6, noise_mag=0.2))
    report = evaluate(None, env, horizon=400, episodes=1, seeds=[0])
    assert report.collision_rate == 0.0
    assert 0.0 < report.mean_velocity < 30.0 / 3.6
    assert report.mean_abs_accel == 0.0  # no CAVs in an IDM-only run


def test_idm_baseline_rejects_cav_scenarios():
    with pytest.raises(InvalidSpec):
        evaluate(None, ring_env(n_human=3, n_cav=2), horizon=10, episodes=1, seeds=[0])


def test_evaluate_submodule_is_not_shadowed():
    import importlib
    import types

    import cavlab
    import cavlab.evaluate as m
    assert isinstance(m, types.ModuleType)
    assert m is importlib.import_module("cavlab.evaluate") is cavlab.evaluate


def test_evaluate_keeps_first_episode_transitions():
    env = ring_env()
    report = evaluate(bundle16(seed=2), env, horizon=12, episodes=2, seeds=[4, 5])
    trans = report.first_episode_transitions
    assert [tr.step_index for tr in trans] == list(range(12))
    again = evaluate(bundle16(seed=2), env, horizon=12, episodes=1, seeds=[4])
    for a, b in zip(trans, again.first_episode_transitions):
        assert a.agent_ids == b.agent_ids
        assert np.array_equal(a.weights, b.weights)


def test_space_time_export_roundtrip(tmp_path):
    env = ring_env()
    report = evaluate(bundle16(seed=1), env, horizon=30, episodes=1, seeds=[3])
    path = tmp_path / "st.csv"
    space_time_export(report, path)
    table = import_space_time(path)
    assert len(table) == 30
    # exact speed matrix reproduction
    ids = report.vehicle_ids
    for t_idx, info_step in enumerate(sorted(table)):
        for j, vid in enumerate(ids):
            pos, speed = table[info_step][vid]
            assert speed == report.speed_matrix[t_idx, j]
            assert pos == report.position_matrix[t_idx, j]
    mean_lines = (tmp_path / "st.csv.meanspeed.csv").read_text().strip().split("\n")
    assert mean_lines[0] == "step,mean_speed"
    assert len(mean_lines) == 31


def test_space_time_row_count_closed_network():
    env = ring_env()
    report = evaluate(bundle16(seed=2), env, horizon=25, episodes=1, seeds=[4])
    assert report.speed_matrix.shape == (25, 6)
    assert not np.isnan(report.speed_matrix).any()


# ---------------------------------------------------------------------------
# receptive field / decentralization


def test_receptive_closure_isolated_agent():
    state = build_network(RingSpec(length=230.0), 0, 3, seed=0,
                          idm=IdmParams(noise_mag=0.0))
    a, b, c = state.vehicles
    a.route_pos, b.route_pos, c.route_pos = 0.0, 10.0, 120.0
    closure = receptive_closure(state, c.id, scan_scale=30.0)
    assert closure == {c.id}
    closure_a = receptive_closure(state, a.id, scan_scale=30.0)
    assert closure_a == {a.id, b.id}


def test_isolated_agent_action_invariant_to_far_speeds():
    env = ring_env(n_human=0, n_cav=3, scan=30.0)
    bundle = bundle16(seed=9)
    state = env.build(0)
    a, b, c = state.vehicles
    a.route_pos, b.route_pos, c.route_pos = 0.0, 10.0, 120.0
    a.speed, b.speed, c.speed = 3.0, 4.0, 5.0

    from cavlab.trainer import policy_actions
    base = policy_actions(bundle, state, env, None).commands()
    a.speed, b.speed = 9.0, 0.5  # perturb only the far pair
    new = policy_actions(bundle, state, env, None).commands()
    assert abs(new[c.id] - base[c.id]) < 1e-12
    # the coupled pair is allowed to change (one-sided check)
    assert abs(new[a.id] - base[a.id]) > 0.0


def test_decentralization_check_single_cav_passes():
    env = ring_env(n_human=5, n_cav=1, scan=30.0)
    report = decentralization_check(bundle16(seed=5), env, seed=0, samples=10,
                                    horizon=50)
    assert report.passed
    assert report.samples == 10


def test_decentralization_check_small_ring():
    env = ring_env(n_human=2, n_cav=4, scan=30.0)
    report = decentralization_check(bundle16(seed=6), env, seed=1, samples=25,
                                    horizon=120)
    assert report.passed, report.violations[:3]


# ---------------------------------------------------------------------------
# sweeps


def tiny_config(scenario=None, graph=None):
    """ring_env() with a 30-step horizon, two short episodes and a 16-wide net."""
    return config_from_dict({
        "scenario": {"kind": "ring", "n_human": 2, "n_cav": 4, "target_speed": TARGET,
                     "horizon": 30, "noise_mag": 0.2, "safety_clamp": True,
                     **(scenario or {})},
        "graph": {"scan_scale": 60.0, **(graph or {})},
        "nn": {"hidden": 16, "heads": 2},
        "ppo": {"episodes": 2, "batch_size": 120, "epochs": 1, "minibatch_size": 64,
                "gamma": 0.9},
    })


def test_tiny_config_matches_hand_built_specs():
    cfg = tiny_config()
    assert cfg.env_spec() == ring_env()
    assert cfg.ppo_config() == PpoConfig(horizon=30, episodes=2, batch_size=120, epochs=1,
                                         minibatch_size=64, gamma=0.9)
    assert cfg.net_config() == NetConfig(hidden=16, heads=2)


def test_sweep_single_cell_table():
    spec = SweepSpec(variable="scan_scale", values=[40.0], episodes_per_value=1,
                     seeds=[0])
    result = run_sweep(spec, tiny_config())
    rows = result.table_rows()
    assert rows[0] == "variable,value,seed,return,mean_velocity,mean_abs_accel"
    assert len(rows) == 2
    assert not result.cells[0].failed


def test_sweep_attention_heads_rows():
    spec = SweepSpec(variable="attention_heads", values=[0, 2], episodes_per_value=1,
                     seeds=[0])
    result = run_sweep(spec, tiny_config())
    assert [c.value for c in result.cells] == [0, 2]
    assert all(not c.failed for c in result.cells)


def test_sweep_adjacency_schemes():
    spec = SweepSpec(variable="adjacency_scheme",
                     values=["position", "velocity", "both"],
                     episodes_per_value=1, seeds=[0])
    result = run_sweep(spec, tiny_config())
    assert [c.value for c in result.cells] == ["position", "velocity", "both"]
    assert all(not c.failed for c in result.cells)


def test_sweep_target_speed_pct_change():
    base = TARGET  # 20 km/h: matches the training baseline cell
    spec = SweepSpec(variable="target_speed", values=[base, 30.0 / 3.6],
                     episodes_per_value=1, seeds=[0])
    result = run_sweep(spec, tiny_config())
    assert len(result.cells) == 2
    assert len(result.pct_change_rows) == 3  # header + 2 cells
    base_row = result.pct_change_rows[1]
    assert base_row.endswith(",0.0")  # baseline cell changes by 0%


def test_sweep_failed_cell_marked_and_continues():
    spec = SweepSpec(variable="penetration_rate", values=[0.0, 0.5],
                     episodes_per_value=1, seeds=[0])
    result = run_sweep(spec, tiny_config())
    assert result.cells[0].failed  # zero CAVs is not trainable
    assert result.cells[0].error.startswith("InvalidSpec: ")
    assert not result.cells[1].failed
    rows = result.table_rows()
    assert "nan,nan,nan" in rows[1]


@pytest.mark.parametrize("variable, value", [("scan_scale", 40.0), ("target_speed", TARGET)])
def test_sweep_program_error_propagates(monkeypatch, variable, value):
    import cavlab.evaluate as ev

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a failed cell")

    monkeypatch.setattr(ev, "train", broken)
    spec = SweepSpec(variable=variable, values=[value], episodes_per_value=1, seeds=[0])
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(spec, tiny_config())


def test_sweep_cells_honour_graph_keys(monkeypatch):
    import cavlab.evaluate as ev
    schemes = []

    def capture(env, ppo, net, master_seed):
        schemes.append(env.scheme)
        raise InvalidSpec("spec captured")

    monkeypatch.setattr(ev, "train", capture)
    cfg = tiny_config(graph={"sigma": 9.0, "epsilon": 0.5})
    spec = SweepSpec(variable="adjacency_scheme",
                     values=["gaussian_speed_field", "both", "velocity_only", "velocity"],
                     episodes_per_value=1, seeds=[0])
    result = run_sweep(spec, cfg)
    assert all(c.error == "InvalidSpec: spec captured" for c in result.cells)
    # the values name two configs, each trained (and failed) once
    assert schemes == [GaussianSpeedField(KernelSpec(length_scale=9.0)),
                       VelocityOnly(epsilon=0.5, target_speed=TARGET)]


@pytest.mark.parametrize("v0", [None, 7.0])
def test_sweep_target_speed_idm_v0(monkeypatch, v0):
    # an explicit scenario.idm.v0 holds in every cell; an unset one follows the target
    import cavlab.evaluate as ev
    trained, evaluated = [], []

    def fake_train(env, ppo, net, master_seed):
        trained.append(env)
        return SimpleNamespace(bundle=None)

    def fake_evaluate(bundle, env, horizon, episodes, seeds):
        evaluated.append(env)
        return SimpleNamespace(episode_return=-1.0, mean_velocity=1.0, mean_abs_accel=0.0)

    monkeypatch.setattr(ev, "train", fake_train)
    monkeypatch.setattr(ev, "evaluate", fake_evaluate)
    targets = [TARGET, 10.0]
    spec = SweepSpec(variable="target_speed", values=targets, episodes_per_value=1, seeds=[0])
    run_sweep(spec, tiny_config(scenario={"idm": {"v0": v0}}))
    assert [env.target_speed for env in evaluated] == targets
    assert [env.idm.v0 for env in trained] == [v0 or TARGET]
    assert [env.idm.v0 for env in evaluated] == [v0 or t for t in targets]


def test_sweep_validation():
    with pytest.raises(InvalidSpec):
        SweepSpec(variable="bogus", values=[1], episodes_per_value=1, seeds=[0]).validate()
    with pytest.raises(InvalidSpec):
        SweepSpec(variable="scan_scale", values=[], episodes_per_value=1,
                  seeds=[0]).validate()


def fake_runs(monkeypatch, fail_seed=None):
    """Replace `train` and `evaluate` in the sweep by fakes; returns the list
    of (env, net, seed, bundle) trainings and of (bundle, env) evaluations.
    A training at `fail_seed` raises an InvalidSpec."""
    import cavlab.evaluate as ev
    trained, evaluated = [], []

    def fake_train(env, ppo, net, master_seed):
        if master_seed == fail_seed:
            trained.append((env, net, master_seed, None))
            raise InvalidSpec(f"training at seed {master_seed} failed")
        bundle = object()
        trained.append((env, net, master_seed, bundle))
        return SimpleNamespace(bundle=bundle)

    def fake_evaluate(bundle, env, horizon, episodes, seeds):
        evaluated.append((bundle, env))
        # a return of its own per evaluation
        return SimpleNamespace(episode_return=-float(len(evaluated)), mean_velocity=1.0,
                               mean_abs_accel=0.0)

    monkeypatch.setattr(ev, "train", fake_train)
    monkeypatch.setattr(ev, "evaluate", fake_evaluate)
    return trained, evaluated


@pytest.mark.parametrize("variable, values, trainings", [
    ("target_speed", [TARGET, 10.0, 30.0 / 3.6], 2),
    ("attention_heads", [0, 2], 4),
])
def test_sweep_trains_each_policy_once(monkeypatch, variable, values, trainings):
    trained, evaluated = fake_runs(monkeypatch)
    spec = SweepSpec(variable=variable, values=values, episodes_per_value=1, seeds=[0, 1])
    result = run_sweep(spec, tiny_config())
    assert len(trained) == trainings
    assert len(evaluated) == len(values) * 2 and not any(c.failed for c in result.cells)
    if variable == "target_speed":   # every cell evaluates its seed's 20 km/h policy
        assert [env.target_speed for env, _, _, _ in trained] == [TARGET, TARGET]
        by_seed = {seed: bundle for _, _, seed, bundle in trained}
        assert [bundle for bundle, _ in evaluated] == [by_seed[s] for _ in values for s in (0, 1)]
    else:
        assert [(net.heads, seed) for _, net, seed, _ in trained] == [(0, 0), (0, 1), (2, 0),
                                                                       (2, 1)]


@pytest.mark.parametrize("variable, values", [
    ("penetration_rate", [0.5, 0.34]),
    ("target_speed", [10.0, TARGET]),
    ("scan_scale", [40.0, 60.0]),
    ("adjacency_scheme", ["position", "velocity"]),
    ("attention_heads", [2, 0]),
])
def test_sweep_cells_are_value_major(monkeypatch, variable, values):
    fake_runs(monkeypatch)
    spec = SweepSpec(variable=variable, values=values, episodes_per_value=1, seeds=[1, 0])
    result = run_sweep(spec, tiny_config())
    assert [(c.value, c.seed) for c in result.cells] == [(v, s) for v in values for s in (1, 0)]
    assert not any(c.failed for c in result.cells)


def test_sweep_failed_training_marks_its_cells_once(monkeypatch):
    trained, evaluated = fake_runs(monkeypatch, fail_seed=1)
    values = [TARGET, 10.0, 30.0 / 3.6]
    spec = SweepSpec(variable="target_speed", values=values, episodes_per_value=1,
                     seeds=[0, 1])
    result = run_sweep(spec, tiny_config())
    assert [seed for _, _, seed, _ in trained] == [0, 1]   # the failure is not retried
    assert len(evaluated) == 3
    for c in result.cells:
        assert c.failed == (c.seed == 1)
        assert c.error == ("InvalidSpec: training at seed 1 failed" if c.seed == 1 else "")
    # percentage rows for the seed whose policy trained, against its 20 km/h cell
    assert [row.split(",")[1:3] for row in result.pct_change_rows[1:]] == \
        [[str(v), "0"] for v in values]
    assert result.pct_change_rows[1].endswith(",0.0")


def test_sweep_values_naming_one_config_train_it_once(monkeypatch):
    trained, evaluated = fake_runs(monkeypatch)
    spec = SweepSpec(variable="adjacency_scheme",
                     values=["both", "gaussian_speed_field", "position"],
                     episodes_per_value=1, seeds=[0])
    result = run_sweep(spec, tiny_config())
    assert [env.scheme for env, _, _, _ in trained] == [GaussianSpeedField(), PositionOnly()]
    assert [bundle for bundle, _ in evaluated] == [trained[0][3], trained[0][3], trained[1][3]]
    assert [c.value for c in result.cells] == ["both", "gaussian_speed_field", "position"]
