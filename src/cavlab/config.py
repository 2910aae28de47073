"""Run-configuration schema: one JSON object per module block.

The block dataclasses below are the schema. Parsing walks them: unknown
keys and values of the wrong type are rejected anywhere in the tree with a
`ParseError` naming the key, and every field has a default. The effective
(defaults-resolved) config is `dataclasses.asdict` of the parsed tree and
round-trips: emit -> parse -> identical RunConfig. `RunConfig` is the only
code that turns config keys into the `EnvSpec`, `PpoConfig` and `NetConfig`
a run uses; sweeps and scripts edit a `RunConfig` and build from it.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import sys
import types
import typing
from dataclasses import dataclass

from .errors import CavlabError, InvalidSpec, ParseError, ValidationError
from .graph import GaussianSpeedField, KernelSpec, PositionOnly, VelocityOnly
from .idm import IdmParams
from .layers import NetConfig
from .networks import FigureEightSpec, MergeSpec, RingSpec
from .rewards import MergeReward, RingEightReward
from .sim import SimOptions, build_network
from .trainer import EnvSpec, PpoConfig

KMH_30 = 30.0 / 3.6
# scenario keys whose default depends on the scenario kind
_KIND_DEFAULTS = {
    "ring": {"horizon": 3000, "n_human": 6, "n_cav": 16},
    "figure_eight": {"horizon": 1500, "n_human": 7, "n_cav": 7},
    "merge": {"horizon": 600, "n_human": 0, "n_cav": 0},
}


@dataclass(frozen=True)
class IdmConfig:
    v0: float | None = None   # None: use target_speed
    T: float = 1.0
    a_max: float = 1.0
    b: float = 1.5
    delta: float = 4.0
    s0: float = 2.0


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
    idm: IdmConfig = IdmConfig()


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
            return FigureEightSpec(loop_radius=s.loop_radius, conflict_zone=s.conflict_zone)
        if s.kind == "merge":
            return MergeSpec(highway_length=s.highway_length,
                             ramp_length=s.ramp_length, merge_point=s.merge_point,
                             inflow_main=s.inflow_main, inflow_ramp=s.inflow_ramp,
                             cav_fraction=s.cav_fraction)
        raise ValidationError(
            f"scenario.kind must be one of {sorted(_KIND_DEFAULTS)}, got {s.kind!r}")

    def idm_params(self) -> IdmParams:
        s = self.scenario
        v0 = s.idm.v0 if s.idm.v0 is not None else s.target_speed
        return IdmParams(**{**dataclasses.asdict(s.idm), "v0": v0}, noise_mag=s.noise_mag)

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
        raise ValidationError("graph.scheme must be gaussian_speed_field, position_only "
                              f"or velocity_only, got {g.scheme!r}")

    def env_spec(self) -> EnvSpec:
        s = self.scenario
        return EnvSpec(network=self.network_spec(), n_human=s.n_human,
                       n_cav=s.n_cav, idm=self.idm_params(),
                       options=self.sim_options(), target_speed=s.target_speed,
                       dt=s.dt, reward=self.reward_spec(),
                       scheme=self.adjacency_scheme(),
                       scan_scale=self.graph.scan_scale)

    def net_config(self) -> NetConfig:
        s = self.scenario
        return NetConfig(**dataclasses.asdict(self.nn),
                         action_low=s.cav_accel_min, action_high=s.cav_accel_max)

    def ppo_config(self) -> PpoConfig:
        return PpoConfig(horizon=self.scenario.horizon, **dataclasses.asdict(self.ppo))

    def human_only(self) -> RunConfig:
        """The same run without CAVs: every CAV of a closed network becomes
        an IDM driver, and a merge gets no CAV inflow."""
        s = self.scenario
        if s.kind == "merge":
            return dataclasses.replace(self, scenario=dataclasses.replace(s, cav_fraction=0.0))
        return dataclasses.replace(self, scenario=dataclasses.replace(
            s, n_human=s.n_human + s.n_cav, n_cav=0))

    # -- validation / io ------------------------------------------------------

    def validate(self) -> None:
        """Check what no spec owns, then dry-build the specs (their own
        checks run) and the initial traffic (capacity errors). A spec's
        error is prefixed with the config block its values came from."""
        s = self.scenario
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        if s.dt <= 0:
            raise ValidationError("scenario.dt must be positive")
        # scenario keys that specs of other blocks check
        if s.horizon < 1:
            raise ValidationError("scenario.horizon must be >= 1")
        if s.target_speed <= 0:
            raise ValidationError("scenario.target_speed must be positive")
        if s.noise_mag < 0:
            raise ValidationError("scenario.noise_mag must be >= 0")
        if self.graph.scan_scale <= 0:
            raise ValidationError("graph.scan_scale must be positive")
        try:   # the keys nn owns; the action bounds are the scenario's
            NetConfig(**dataclasses.asdict(self.nn))
        except InvalidSpec as exc:
            raise ValidationError(f"nn.{exc}") from exc
        with _block("graph"):
            # both kernels, so the key the chosen scheme ignores is checked too
            KernelSpec(length_scale=self.graph.sigma)
            VelocityOnly(epsilon=self.graph.epsilon)
            self.adjacency_scheme()
        with _block("scenario"):
            self.network_spec().validate()
            self.sim_options().validate()
        with _block("scenario.idm"):
            self.idm_params().validate()
        with _block("reward"):
            self.reward_spec().validate()
        with _block("ppo"):
            self.ppo_config().validate()
        with _block("scenario"):
            env = self.env_spec()
            build_network(env.network, env.n_human, env.n_cav, 0,
                          idm=env.idm, options=env.options)

    def effective_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.effective_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@contextlib.contextmanager
def _block(name: str):
    """Re-raise a spec's range error as a `ValidationError` naming `name`,
    the config block its values came from."""
    try:
        yield
    except ValidationError:
        raise
    except CavlabError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# parsing

_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def block_from(cls, block, where: str = ""):
    """`cls` built from the JSON object `block` found at key `where`."""
    if not isinstance(block, dict):
        raise ParseError(f"{where or 'the top level of the config'} must be a JSON object")
    prefix = f"{where}." if where else ""
    field_types = _field_types(cls)
    unknown = sorted(set(block) - set(field_types))
    if unknown:
        raise ParseError(f"unknown key '{prefix}{unknown[0]}'")
    return cls(**{k: _typed(v, field_types[k], prefix + k) for k, v in block.items()})


def _typed(value, tp, key: str):
    """`value` checked against the field type `tp`: an int passes for a
    float, a bool only for a bool, a list becomes a tuple of the declared
    length, and None passes only where the field allows it. A number for a
    float must be finite (Python's `json` reads NaN, Infinity and
    -Infinity) and within float64's range."""
    if dataclasses.is_dataclass(tp):
        return block_from(tp, value, key)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # `T | None`
        inner, = (a for a in args if a is not type(None))
        return None if value is None else _typed(value, inner, key)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, list) or (not variadic and len(value) != len(args)):
            size = "" if variadic else f" of {len(args)}"
            raise ParseError(f"{key} must be a list{size}, got {value!r}")
        item_types = args[:1] * len(value) if variadic else args
        return tuple(_typed(v, t, f"{key}[{i}]")
                     for i, (v, t) in enumerate(zip(value, item_types)))
    allowed = (int, float) if tp is float else tp
    if not isinstance(value, allowed) or (isinstance(value, bool) and tp is not bool):
        raise ParseError(f"{key} must be {_TYPE_NAMES[tp]}, got {value!r}")
    if tp is float and not abs(value) <= sys.float_info.max:   # NaN, ±Inf, past float64
        raise ParseError(f"{key} must be a finite number, got {value!r}")
    return value


def config_from_dict(raw: dict) -> RunConfig:
    scenario = raw.get("scenario") if isinstance(raw, dict) else None
    if isinstance(scenario, dict):
        kind = scenario.get("kind", "ring")
        if isinstance(kind, str) and kind in _KIND_DEFAULTS:
            raw = {**raw, "scenario": {**_KIND_DEFAULTS[kind], **scenario}}
    cfg = block_from(RunConfig, raw)
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
