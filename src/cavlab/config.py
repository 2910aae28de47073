"""Run-configuration schema: one JSON object per module block.

Unknown keys are rejected anywhere in the tree (typo safety), every field
has a default, and the effective (defaults-resolved) config round-trips:
emit -> parse -> identical RunConfig.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .graph import GaussianSpeedField, KernelSpec, PositionOnly, VelocityOnly
from .idm import IdmParams
from .layers import NetConfig
from .networks import FigureEightSpec, MergeSpec, RingSpec
from .rewards import MergeReward, RingEightReward
from .sim import SimOptions, build_network
from .trainer import EnvSpec, PpoConfig

KMH_30 = 30.0 / 3.6
_DEFAULT_HORIZONS = {"ring": 3000, "figure_eight": 1500, "merge": 600}
_DEFAULT_COUNTS = {"ring": (6, 16), "figure_eight": (7, 7), "merge": (0, 0)}


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = "ring"
    target_speed: float = KMH_30
    horizon: int = 3000
    dt: float = 0.1
    n_human: int = 6
    n_cav: int = 16
    ring_length: float = 230.0
    loop_radius: tuple[float, float] = (143.0 / (2 * math.pi), 143.0 / (2 * math.pi))
    conflict_zone: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 10.0), (0.0, 10.0))
    highway_length: float = 500.0
    ramp_length: float = 100.0
    merge_point: float = 400.0
    inflow_main: float = 1000.0
    inflow_ramp: float = 200.0
    cav_fraction: float = 0.25
    noise_mag: float = 0.2
    noise_dist: str = "uniform"
    vehicle_length: float = 5.0
    cav_accel_min: float = -3.0
    cav_accel_max: float = 3.0
    safety_clamp: bool = False
    idm_v0: float | None = None   # None: use target_speed
    idm_T: float = 1.0
    idm_a_max: float = 1.0
    idm_b: float = 1.5
    idm_delta: float = 4.0
    idm_s0: float = 2.0


@dataclass(frozen=True)
class RewardConfig:
    w_v: float | None = None      # None: 2.0 for ring/eight, 1.0 for merge
    w_a: float = 4.0
    accel_threshold: float = 0.5
    w_h: float = 0.1
    t_min: float = 1.0


@dataclass(frozen=True)
class GraphConfig:
    scheme: str = "gaussian_speed_field"
    scan_scale: float = 30.0
    sigma: float = 4.0
    epsilon: float = 0.01


@dataclass(frozen=True)
class NnConfig:
    hidden: int = 64
    heads: int = 8
    activation: str = "tanh"


@dataclass(frozen=True)
class PpoBlock:
    gamma: float = 0.99
    clip: float = 0.2
    batch_size: int = 2048
    epochs: int = 10
    minibatch_size: int = 256
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    episodes: int = 50
    normalize_advantages: bool = True
    checkpoint_every: int = 10
    max_lr_halvings: int = 8


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig = ScenarioConfig()
    reward: RewardConfig = RewardConfig()
    graph: GraphConfig = GraphConfig()
    nn: NnConfig = NnConfig()
    ppo: PpoBlock = PpoBlock()
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "runs/out"

    # -- assemblers ---------------------------------------------------------

    def network_spec(self):
        s = self.scenario
        if s.kind == "ring":
            return RingSpec(length=s.ring_length)
        if s.kind == "figure_eight":
            return FigureEightSpec(loop_radius=tuple(s.loop_radius),
                                   conflict_zone=tuple(map(tuple, s.conflict_zone)))
        if s.kind == "merge":
            return MergeSpec(highway_length=s.highway_length,
                             ramp_length=s.ramp_length, merge_point=s.merge_point,
                             inflow_main=s.inflow_main, inflow_ramp=s.inflow_ramp,
                             cav_fraction=s.cav_fraction)
        raise ValidationError(f"unknown scenario kind {s.kind!r}")

    def idm_params(self) -> IdmParams:
        s = self.scenario
        return IdmParams(v0=s.idm_v0 if s.idm_v0 is not None else s.target_speed,
                         T=s.idm_T, a_max=s.idm_a_max, b=s.idm_b,
                         delta=s.idm_delta, s0=s.idm_s0, noise_mag=s.noise_mag)

    def sim_options(self) -> SimOptions:
        s = self.scenario
        return SimOptions(cav_accel_min=s.cav_accel_min, cav_accel_max=s.cav_accel_max,
                          vehicle_length=s.vehicle_length, noise_dist=s.noise_dist,
                          safety_clamp=s.safety_clamp)

    def reward_spec(self):
        s, r = self.scenario, self.reward
        if s.kind == "merge":
            w_v = r.w_v if r.w_v is not None else 1.0
            return MergeReward(target_speed=s.target_speed, w_v=w_v,
                               w_h=r.w_h, t_min=r.t_min)
        w_v = r.w_v if r.w_v is not None else 2.0
        return RingEightReward(target_speed=s.target_speed, w_v=w_v,
                               w_a=r.w_a, accel_threshold=r.accel_threshold)

    def adjacency_scheme(self):
        g = self.graph
        if g.scheme == "gaussian_speed_field":
            return GaussianSpeedField(KernelSpec(length_scale=g.sigma))
        if g.scheme == "position_only":
            return PositionOnly()
        if g.scheme == "velocity_only":
            return VelocityOnly(epsilon=g.epsilon,
                                target_speed=self.scenario.target_speed)
        raise ValidationError(f"unknown adjacency scheme {g.scheme!r}")

    def env_spec(self) -> EnvSpec:
        s = self.scenario
        return EnvSpec(network=self.network_spec(), n_human=s.n_human,
                       n_cav=s.n_cav, idm=self.idm_params(),
                       options=self.sim_options(), target_speed=s.target_speed,
                       dt=s.dt, reward=self.reward_spec(),
                       scheme=self.adjacency_scheme(),
                       scan_scale=self.graph.scan_scale)

    def net_config(self) -> NetConfig:
        s, n = self.scenario, self.nn
        return NetConfig(hidden=n.hidden, heads=n.heads, activation=n.activation,
                         action_low=s.cav_accel_min, action_high=s.cav_accel_max)

    def ppo_config(self) -> PpoConfig:
        p = self.ppo
        return PpoConfig(gamma=p.gamma, clip=p.clip, batch_size=p.batch_size,
                         epochs=p.epochs, minibatch_size=p.minibatch_size,
                         actor_lr=p.actor_lr, critic_lr=p.critic_lr,
                         horizon=self.scenario.horizon, episodes=p.episodes,
                         normalize_advantages=p.normalize_advantages,
                         checkpoint_every=p.checkpoint_every,
                         max_lr_halvings=p.max_lr_halvings)

    # -- validation / io ------------------------------------------------------

    def validate(self) -> None:
        s = self.scenario
        if s.kind not in _DEFAULT_HORIZONS:
            raise ValidationError(f"scenario.kind must be one of {sorted(_DEFAULT_HORIZONS)}")
        if s.horizon < 1:
            raise ValidationError("scenario.horizon must be >= 1")
        if s.dt <= 0:
            raise ValidationError("scenario.dt must be positive")
        if s.target_speed <= 0:
            raise ValidationError("scenario.target_speed must be positive")
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        if self.nn.heads < 0:
            raise ValidationError("nn.heads must be >= 0")
        if self.nn.heads > 0 and self.nn.hidden % self.nn.heads != 0:
            raise ValidationError(
                f"nn.hidden={self.nn.hidden} must be divisible by nn.heads={self.nn.heads}")
        if self.graph.scan_scale <= 0:
            raise ValidationError("graph.scan_scale must be positive")
        if self.graph.sigma <= 0:
            raise ValidationError("graph.sigma must be positive")
        if self.graph.epsilon <= 0:
            raise ValidationError("graph.epsilon must be positive")
        try:
            # downstream dataclass invariants + a dry build for capacity errors
            self.idm_params().validate()
            self.sim_options().validate()
            self.reward_spec().validate()
            self.ppo_config().validate()
            net = self.network_spec()
            net.validate()
            build_network(net, self.scenario.n_human, self.scenario.n_cav, 0,
                          idm=self.idm_params(), options=self.sim_options())
        except ValidationError:
            raise
        except Exception as exc:
            raise ValidationError(str(exc)) from exc

    def effective_dict(self) -> dict:
        s = self.scenario
        return {
            "scenario": {
                "kind": s.kind, "target_speed": s.target_speed,
                "horizon": s.horizon, "dt": s.dt,
                "n_human": s.n_human, "n_cav": s.n_cav,
                "ring_length": s.ring_length,
                "loop_radius": list(s.loop_radius),
                "conflict_zone": [list(z) for z in s.conflict_zone],
                "highway_length": s.highway_length, "ramp_length": s.ramp_length,
                "merge_point": s.merge_point, "inflow_main": s.inflow_main,
                "inflow_ramp": s.inflow_ramp, "cav_fraction": s.cav_fraction,
                "noise_mag": s.noise_mag, "noise_dist": s.noise_dist,
                "vehicle_length": s.vehicle_length,
                "cav_accel_min": s.cav_accel_min, "cav_accel_max": s.cav_accel_max,
                "safety_clamp": s.safety_clamp,
                "idm": {"v0": s.idm_v0, "T": s.idm_T, "a_max": s.idm_a_max,
                        "b": s.idm_b, "delta": s.idm_delta, "s0": s.idm_s0},
            },
            "reward": {"w_v": self.reward.w_v, "w_a": self.reward.w_a,
                       "accel_threshold": self.reward.accel_threshold,
                       "w_h": self.reward.w_h, "t_min": self.reward.t_min},
            "graph": dataclasses.asdict(self.graph),
            "nn": dataclasses.asdict(self.nn),
            "ppo": dataclasses.asdict(self.ppo),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.effective_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# parsing


def _require_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def _scenario_from(block: dict) -> ScenarioConfig:
    allowed = {f.name for f in dataclasses.fields(ScenarioConfig)
               if not f.name.startswith("idm_")} | {"idm"}
    _require_keys(block, allowed, "block 'scenario'")
    kind = block.get("kind", "ring")
    defaults: dict = {"kind": kind}
    if kind in _DEFAULT_HORIZONS:
        defaults["horizon"] = _DEFAULT_HORIZONS[kind]
        defaults["n_human"], defaults["n_cav"] = _DEFAULT_COUNTS[kind]
    idm_block = block.pop("idm", {})
    if not isinstance(idm_block, dict):
        raise ParseError("scenario.idm must be an object")
    _require_keys(idm_block, {"v0", "T", "a_max", "b", "delta", "s0"}, "block 'scenario.idm'")
    fields: dict = dict(defaults)
    fields.update(block)
    for k, v in idm_block.items():
        fields[f"idm_{k}"] = v
    if "loop_radius" in fields:
        fields["loop_radius"] = tuple(fields["loop_radius"])
    if "conflict_zone" in fields:
        fields["conflict_zone"] = tuple(tuple(z) for z in fields["conflict_zone"])
    try:
        return ScenarioConfig(**fields)
    except TypeError as exc:
        raise ParseError(f"bad scenario block: {exc}") from exc


def _block_from(cls, block: dict, where: str):
    _require_keys(block, {f.name for f in dataclasses.fields(cls)}, where)
    try:
        return cls(**block)
    except TypeError as exc:
        raise ParseError(f"bad {where}: {exc}") from exc


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ParseError("top level of the config must be a JSON object")
    _require_keys(raw, {"scenario", "reward", "graph", "nn", "ppo",
                        "seeds", "output_dir"}, "the top-level object")
    for name in ("scenario", "reward", "graph", "nn", "ppo"):
        if name in raw and not isinstance(raw[name], dict):
            raise ParseError(f"block {name!r} must be a JSON object")
    cfg = RunConfig(
        scenario=_scenario_from(dict(raw.get("scenario", {}))),
        reward=_block_from(RewardConfig, dict(raw.get("reward", {})), "block 'reward'"),
        graph=_block_from(GraphConfig, dict(raw.get("graph", {})), "block 'graph'"),
        nn=_block_from(NnConfig, dict(raw.get("nn", {})), "block 'nn'"),
        ppo=_block_from(PpoBlock, dict(raw.get("ppo", {})), "block 'ppo'"),
        seeds=tuple(raw.get("seeds", [0])),
        output_dir=raw.get("output_dir", "runs/out"),
    )
    cfg.validate()
    return cfg


def parse_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return config_from_dict(raw)


def emit_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.effective_dict(), fh, indent=2)
        fh.write("\n")
