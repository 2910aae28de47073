import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cavlab.checkpoint import load_checkpoint, save_checkpoint
from cavlab.cli import main
from cavlab import config as config_module
from cavlab.config import config_from_dict, emit_config, parse_config
from cavlab.errors import IncompatibleCheckpoint, ParseError, ValidationError
from cavlab.layers import NetConfig
from cavlab.trainer import make_policy, init_stream

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, body: dict, name="cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


SMOKE = {
    "scenario": {"kind": "ring", "n_human": 2, "n_cav": 3, "horizon": 60,
                 "safety_clamp": True},
    "graph": {"scan_scale": 60.0},
    "ppo": {"episodes": 2, "batch_size": 120, "epochs": 1, "minibatch_size": 64,
            "gamma": 0.9, "checkpoint_every": 1},
    "seeds": [0],
    "output_dir": None,  # filled per test
}


def smoke_config(tmp_path):
    body = json.loads(json.dumps(SMOKE))
    body["output_dir"] = str(tmp_path / "out")
    return write_config(tmp_path, body)


# ---------------------------------------------------------------------------
# parsing


def test_minimal_ring_defaults(tmp_path):
    path = write_config(tmp_path, {"scenario": {"kind": "ring"}})
    cfg = parse_config(path)
    assert cfg.graph.sigma == 4.0
    assert cfg.graph.scan_scale == 30.0
    assert cfg.scenario.horizon == 3000
    assert cfg.scenario.n_cav == 16
    assert cfg.reward.w_a == 4.0
    assert cfg.nn.heads == 8
    assert cfg.scenario.dt == 0.1


def test_kind_defaults_differ(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"scenario": {"kind": "merge"}}))
    assert cfg.scenario.horizon == 600
    assert cfg.scenario.n_cav == 0
    cfg8 = parse_config(write_config(tmp_path, {"scenario": {"kind": "figure_eight"}},
                                     name="e.json"))
    assert cfg8.scenario.horizon == 1500
    assert cfg8.scenario.n_human == 7


def test_negative_horizon_rejected(tmp_path):
    path = write_config(tmp_path, {"scenario": {"kind": "ring", "horizon": -10}})
    with pytest.raises(ValidationError):
        parse_config(path)


def test_unknown_key_named(tmp_path):
    path = write_config(tmp_path, {"graph": {"scan_scalee": 30.0}})
    with pytest.raises(ParseError, match="scan_scalee"):
        parse_config(path)


def test_unknown_top_level_key(tmp_path):
    path = write_config(tmp_path, {"scenari": {}})
    with pytest.raises(ParseError, match="scenari"):
        parse_config(path)


def test_syntax_error_has_line_info(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ParseError, match="line 2"):
        parse_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ParseError, match="not found"):
        parse_config(tmp_path / "nope.json")


def test_capacity_violation_reported(tmp_path):
    path = write_config(tmp_path, {"scenario": {"kind": "ring", "ring_length": 10.0,
                                                "n_human": 22, "n_cav": 0}})
    with pytest.raises(ValidationError, match="positive gaps"):
        parse_config(path)


def test_roundtrip_identical(tmp_path):
    src = write_config(tmp_path, {
        "scenario": {"kind": "figure_eight", "n_human": 4, "n_cav": 4,
                     "horizon": 200},
        "ppo": {"gamma": 0.9, "episodes": 7},
        "seeds": [3, 4],
        "output_dir": "runs/x",
    })
    cfg = parse_config(src)
    out = tmp_path / "eff.json"
    emit_config(cfg, out)
    cfg2 = parse_config(out)
    assert cfg == cfg2
    assert cfg.config_hash() == cfg2.config_hash()


@pytest.mark.parametrize("block, key, value", [
    ("graph", "amplitude", 2.0),
    ("nn", "literal_ratio_attention", False),
])
def test_removed_keys_rejected(tmp_path, block, key, value):
    path = write_config(tmp_path, {block: {key: value}})
    with pytest.raises(ParseError, match=key):
        parse_config(path)


def test_heads_divisibility_checked():
    with pytest.raises(ValidationError, match="divisible"):
        config_from_dict({"nn": {"hidden": 64, "heads": 7}})


@pytest.mark.parametrize("body, prefix", [
    ({"graph": {"sigma": -1}}, "graph: "),
    ({"graph": {"epsilon": 0}}, "graph: "),
    ({"scenario": {"horizon": 0}}, "scenario.horizon "),
    ({"ppo": {"gamma": 1.5}}, "ppo: "),
    ({"scenario": {"idm": {"T": 0}}}, "scenario.idm: "),
    ({"reward": {"w_v": -1}}, "reward: "),
    ({"scenario": {"kind": "merge", "merge_point": 900}}, "scenario: "),
    ({"scenario": {"vehicle_length": -1}}, "scenario: "),
    ({"scenario": {"n_cav": 200}}, "scenario: "),
    ({"nn": {"activation": "sigmoid"}}, "nn.activation "),
    ({"nn": {"hidden": 0}}, "nn.hidden "),
    ({"nn": {"hidden": -8}}, "nn.hidden "),
    ({"ppo": {"checkpoint_every": 0}}, "ppo: checkpoint_every "),
    ({"ppo": {"max_lr_halvings": -1}}, "ppo: max_lr_halvings "),
    ({"nn": {"heads": -1}}, "nn.heads "),
    ({"nn": {"hidden": 64, "heads": 7}}, "nn.hidden=64 must be divisible"),
])
def test_range_error_names_its_block(body, prefix):
    with pytest.raises(ValidationError) as info:
        config_from_dict(body)
    assert str(info.value).startswith(prefix)


WRONG_TYPES = [
    ({"graph": {"scan_scale": "30"}}, "graph.scan_scale"),
    ({"seeds": 3}, "seeds"),
    ({"ppo": {"episodes": "5"}}, "ppo.episodes"),
    ({"scenario": {"n_cav": 3.5}}, "scenario.n_cav"),
    ({"scenario": {"safety_clamp": 1}}, "scenario.safety_clamp"),
    ({"scenario": {"loop_radius": [1.0]}}, "scenario.loop_radius"),
    ({"nn": {"heads": True}}, "nn.heads"),
    ({"graph": {"sigma": None}}, "graph.sigma"),
    ({"scenario": {"idm": {"v0": "fast"}}}, "scenario.idm.v0"),
    ({"scenario": {"idm": 3}}, "scenario.idm"),
    ({"seeds": [0, 1.5]}, "seeds[1]"),
]


@pytest.mark.parametrize("body, key", WRONG_TYPES)
def test_wrong_type_names_the_key(tmp_path, body, key):
    with pytest.raises(ParseError, match=re.escape(key)):
        parse_config(write_config(tmp_path, body))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("body, key", [
    (lambda x: {"scenario": {"dt": x}}, "scenario.dt"),
    (lambda x: {"scenario": {"loop_radius": [x, 20.0]}}, "scenario.loop_radius[0]"),
    (lambda x: {"scenario": {"idm": {"v0": x}}}, "scenario.idm.v0"),
    (lambda x: {"graph": {"scan_scale": x}}, "graph.scan_scale"),
    (lambda x: {"ppo": {"actor_lr": x}}, "ppo.actor_lr"),
])
def test_non_finite_number_names_the_key(tmp_path, body, key, value):
    # json writes and reads NaN, Infinity and -Infinity; the config takes none
    path = write_config(tmp_path, body(value))
    assert json.dumps(value) in path.read_text()
    with pytest.raises(ParseError, match=re.escape(f"{key} must be a finite number")):
        parse_config(path)


def test_lenient_types_accepted():
    # an int stands for a float, None for an optional field, a list for a tuple
    cfg = config_from_dict({"graph": {"scan_scale": 30}, "reward": {"w_v": None},
                            "scenario": {"idm": {"v0": 7}}, "seeds": [4, 5]})
    assert cfg.graph.scan_scale == 30
    assert cfg.reward.w_v is None
    assert cfg.idm_params().v0 == 7
    assert cfg.seeds == (4, 5)


@pytest.mark.parametrize("body, key", WRONG_TYPES[:6])
def test_cli_wrong_type_one_error_line(tmp_path, capsys, body, key):
    assert main(["baseline", str(write_config(tmp_path, body))]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ParseError: ")
    assert key in err and "Traceback" not in err


def test_program_error_in_dry_build_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a bad config")

    monkeypatch.setattr(config_module, "build_network", broken)
    with pytest.raises(TypeError, match="a bug"):
        config_from_dict({})


@pytest.mark.parametrize("name, digest", [
    ("figure_eight", "11745f41be921bbf"),
    ("merge", "908ef240d62bcafa"),
    ("ring", "a36a9aa6d59bca24"),
    ("ring_smoke", "2f96886cc3d620f6"),
])
def test_shipped_configs_emit_unchanged(tmp_path, name, digest):
    # the hash names a run's effective config; a schema refactor must not move it
    cfg = parse_config(ROOT / "configs" / f"{name}.json")
    assert cfg.config_hash() == digest
    emit_config(cfg, tmp_path / "eff.json")
    assert parse_config(tmp_path / "eff.json") == cfg


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    bundle = make_policy(NetConfig(hidden=16, heads=2), init_stream(0))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, bundle.parameters(), bundle.architecture(),
                    extra={"episode": 3})
    params, arch, extra = load_checkpoint(path)
    assert extra["episode"] == 3
    assert arch["hidden"] == 16
    for name, p in bundle.parameters().items():
        assert np.array_equal(params[name], p.data)


def test_checkpoint_is_the_json_of_its_payload(tmp_path):
    from cavlab.checkpoint import FORMAT, VERSION
    bundle = make_policy(NetConfig(hidden=16, heads=2), init_stream(1))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, bundle.parameters(), bundle.architecture(), extra={"episode": 5})
    payload = {"format": FORMAT, "version": VERSION, "architecture": bundle.architecture(),
               "params": {name: {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
                          for name, p in bundle.parameters().items()},
               "extra": {"episode": 5}}
    expected = tmp_path / "dumped.json"
    with open(expected, "w") as fh:   # the chunked writer gives the same bytes
        json.dump(payload, fh)
    assert path.read_text() == json.dumps(payload) == expected.read_text()
    params, arch, extra = load_checkpoint(path)
    assert (arch, extra) == (bundle.architecture(), {"episode": 5})
    for name, p in bundle.parameters().items():
        assert np.array_equal(params[name], p.data)


def test_checkpoint_save_holds_one_parameter_at_a_time(tmp_path):
    # the default networks hold 50,179 floats, the largest parameter 8,192;
    # a save that turned them all into Python floats and one string at once
    # peaked at about 6.6 MB, 25 times the largest one's floats
    import tracemalloc
    bundle = make_policy(NetConfig(), init_stream(2))
    params = bundle.parameters()
    largest = max(p.data.size for p in params.values())
    as_floats = largest * (sys.getsizeof(1.0) + 8)   # the float objects and their list
    assert sum(p.data.size for p in params.values()) > 6 * largest
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "ckpt.json", params, bundle.architecture(),
                        extra={"episode": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * as_floats


def test_checkpoint_format_guard(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(IncompatibleCheckpoint):
        load_checkpoint(path)


def _edited_checkpoint(edit):
    """The text of a saved checkpoint's payload after `edit(payload)`."""
    def text(tmp_path):
        bundle = make_policy(NetConfig(hidden=16, heads=2), init_stream(0))
        save_checkpoint(tmp_path / "good.json", bundle.parameters(), bundle.architecture())
        payload = json.loads((tmp_path / "good.json").read_text())
        edit(payload)
        return json.dumps(payload)
    return text


def _first_param(payload):
    return next(iter(payload["params"].values()))


MALFORMED_CHECKPOINTS = {
    "not_json": (lambda tmp_path: '{"format": "cavlab-checkpoint", ', "is not JSON"),
    "not_an_object": (lambda tmp_path: "[1, 2]", "is not a cavlab-checkpoint file"),
    "no_architecture": (_edited_checkpoint(lambda p: p.pop("architecture")),
                        "holds no architecture object"),
    "no_params": (_edited_checkpoint(lambda p: p.pop("params")), "holds no params object"),
    "params_not_an_object": (_edited_checkpoint(lambda p: p.update(params=[1.0])),
                             "holds no params object"),
    "entry_without_shape": (_edited_checkpoint(lambda p: _first_param(p).pop("shape")),
                            "has no shape and data"),
    "entry_without_data": (_edited_checkpoint(lambda p: _first_param(p).pop("data")),
                           "has no shape and data"),
    "shape_disagrees_with_data": (
        _edited_checkpoint(lambda p: _first_param(p)["data"].append(0.5)),
        "does not read as shape"),
}


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_malformed_checkpoint_is_incompatible(tmp_path, capsys, case):
    text, message = MALFORMED_CHECKPOINTS[case]
    path = tmp_path / "bad.json"
    path.write_text(text(tmp_path))
    with pytest.raises(IncompatibleCheckpoint, match=re.escape(message)) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    # the CLI reports it on one line and exits 1
    assert main(["eval", str(smoke_config(tmp_path)), "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IncompatibleCheckpoint: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


def test_checkpoint_shape_guard(tmp_path):
    from cavlab.checkpoint import restore_params
    bundle = make_policy(NetConfig(hidden=16, heads=2), init_stream(0))
    path = tmp_path / "c.json"
    save_checkpoint(path, bundle.parameters(), bundle.architecture())
    params, _, _ = load_checkpoint(path)
    other = make_policy(NetConfig(hidden=32, heads=2), init_stream(0))
    with pytest.raises(IncompatibleCheckpoint):
        restore_params(other.parameters(), params)


@pytest.mark.parametrize("literal_ratio", [False, True])
def test_v1_checkpoint_literal_ratio_flag(tmp_path, literal_ratio):
    # older checkpoints carry the removed switch; only "off" still loads
    from cavlab.cli import _bundle_from_checkpoint
    bundle = make_policy(NetConfig(hidden=16, heads=2), init_stream(3))
    arch = dict(bundle.architecture(), literal_ratio_attention=literal_ratio)
    path = tmp_path / "v1.json"
    save_checkpoint(path, bundle.parameters(), arch)
    if literal_ratio:
        with pytest.raises(IncompatibleCheckpoint, match="literal-ratio"):
            _bundle_from_checkpoint(path)
        return
    loaded = _bundle_from_checkpoint(path)
    for name, p in bundle.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, p.data)


def test_checkpoint_architecture_is_the_net_config(tmp_path):
    from cavlab.cli import _bundle_from_checkpoint
    cfg = NetConfig(hidden=16, heads=2, activation="relu", action_low=-2.0)
    bundle = make_policy(cfg, init_stream(3))
    path = tmp_path / "c.json"
    save_checkpoint(path, bundle.parameters(), bundle.architecture())
    assert json.loads(path.read_text())["architecture"] == {
        "obs_dim": 6, "hidden": 16, "heads": 2, "activation": "relu",
        "action_low": -2.0, "action_high": 3.0}
    assert _bundle_from_checkpoint(path).cfg == cfg
    arch = bundle.architecture()
    del arch["heads"]
    save_checkpoint(path, bundle.parameters(), arch)
    with pytest.raises(IncompatibleCheckpoint, match="'heads'"):
        _bundle_from_checkpoint(path)


# ---------------------------------------------------------------------------
# CLI


def test_cli_no_arguments_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_bad_config_exits_one(tmp_path):
    path = write_config(tmp_path, {"graph": {"scan_scalee": 1.0}})
    assert main(["baseline", str(path)]) == 1


def test_cli_train_then_eval(tmp_path, monkeypatch):
    cfg_path = smoke_config(tmp_path)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(["train", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "config.json").exists()
    written = json.loads((out / "run_summary.json").read_text())
    assert written["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": None}
    summary = written["metrics"]
    assert set(summary["unused_agent_transitions_by_seed"]) == set(summary["final_return_by_seed"])
    assert all(isinstance(n, int) and n >= 0
               for n in summary["unused_agent_transitions_by_seed"].values())
    assert set(summary["lr_halvings_by_seed"]) == set(summary["final_return_by_seed"])
    assert all(h == {"actor": 0, "critic": 0}
               for h in summary["lr_halvings_by_seed"].values())
    curve = (out / "learning_curve.csv").read_text().strip().split("\n")
    assert curve[0] == "episode,seed,return,mean_speed,mean_abs_accel,episode_len"
    assert len(curve) == 3  # 2 episodes
    ckpt = out / "checkpoints" / "seed0_final.json"
    assert ckpt.exists()

    assert main(["eval", str(cfg_path), "--checkpoint", str(ckpt),
                 "--episodes", "1"]) == 0
    report = json.loads((out / "eval" / "report.json").read_text())
    assert "return" in report and "mean_velocity" in report
    assert (out / "spacetime" / "spacetime.csv").exists()
    assert (out / "eval" / "trajectory.csv").exists()


def test_cli_baseline_writes_report(tmp_path):
    cfg_path = smoke_config(tmp_path)
    assert main(["baseline", str(cfg_path), "--episodes", "1"]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "eval" / "baseline_report.json").read_text())
    assert report["collision_rate"] in (0.0, 1.0)
    st = (out / "spacetime" / "baseline_spacetime.csv").read_text().strip().split("\n")
    assert st[0] == "step,vehicle_id,route_pos,speed"
    assert len(st) == 1 + 60 * 5  # horizon x vehicles


def test_cli_dump_adjacency(tmp_path):
    cfg_path = smoke_config(tmp_path)
    assert main(["train", str(cfg_path)]) == 0
    ckpt = tmp_path / "out" / "checkpoints" / "seed0_final.json"
    body = json.loads(cfg_path.read_text())
    body["scenario"]["horizon"] = 250
    cfg_path.write_text(json.dumps(body))
    assert main(["eval", str(cfg_path), "--checkpoint", str(ckpt),
                 "--episodes", "1", "--dump-adjacency"]) == 0
    dumps = sorted((tmp_path / "out" / "adjacency").glob("adjacency_step*.csv"))
    assert [d.name for d in dumps] == [f"adjacency_step{t:05d}.csv" for t in (0, 100, 200)]
    first = dumps[0].read_text().strip().split("\n")
    assert len(first) == 4  # 3 agent ids header + 3 rows

    # replay the first eval episode by hand and rebuild the adjacency
    from cavlab.cli import _bundle_from_checkpoint
    from cavlab.evaluate import eval_episode_seed
    from cavlab.graph import adjacency_csv_rows, build_adjacency
    from cavlab.sim import step
    from cavlab.trainer import policy_actions
    cfg = parse_config(cfg_path)
    env = cfg.env_spec()
    bundle = _bundle_from_checkpoint(ckpt)
    state = env.build(eval_episode_seed(0, 0))
    expected = {}
    for t in range(250):
        if t % 100 == 0:
            adj = build_adjacency(state, env.scheme, env.scan_scale)
            expected[f"adjacency_step{t:05d}.csv"] = "\n".join(adjacency_csv_rows(adj)) + "\n"
        state, _ = step(state, policy_actions(bundle, state, env, None).commands(), env.dt)
        assert not state.collided
    assert {d.name: d.read_text() for d in dumps} == expected


@pytest.mark.parametrize("command, extra", [
    ("train", []),
    ("baseline", []),
    ("sweep", ["--variable", "attention_heads", "--values", "0"]),
])
def test_dump_adjacency_only_on_eval(tmp_path, command, extra):
    cfg_path = smoke_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, str(cfg_path), "--dump-adjacency", *extra])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_sweep_small(tmp_path):
    cfg_path = smoke_config(tmp_path)
    assert main(["sweep", str(cfg_path), "--variable", "attention_heads",
                 "--values", "0,2", "--episodes-per-value", "1"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "variable,value,seed,return,mean_velocity,mean_abs_accel"
    assert len(rows) == 3


def test_cli_check_passes(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines)


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_script_ring_baseline(tmp_path):
    out = run_script("run_ring_baseline.py", "--steps", "50", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert "mean velocity" in out.stdout
    rows = (tmp_path / "spacetime.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 50 * 22


def test_script_train_ring_smoke():
    out = run_script("train_ring_smoke.py", "--episodes", "1")
    assert out.returncode == 0, out.stderr
    assert "trained mean speed" in out.stdout


def test_cli_entrypoint_subprocess(tmp_path):
    # exercised exactly as installed: python -m cavlab.cli
    out = subprocess.run([sys.executable, "-m", "cavlab.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
