"""Deterministic evaluation, sweeps, and the decentralized-execution check.

Evaluation runs the policy mean (no sampling), aggregates mean/std across
seeds, and keeps the first episode per seed for space-time export. Every
episode, the IDM-only baseline and the decentralization check's state
sampler included, runs through `trainer.collect_rollout`. A sweep is one
loop over its (value, seed) cells, values outermost, continuing past cells
that fail with a `CavlabError`. A sweep cell is the run's `RunConfig` with
the one swept key replaced and validated; its specs are built from that
config like any other run's. A cell evaluates the policy of its trained
config (its own, or the 20 km/h cell's in a target-speed sweep), and each
(trained config, seed) is trained once, however many cells use it.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .errors import CavlabError, InvalidSpec, UnknownVehicle
from .sim import CavPairs, SimState, StepInfo, VehicleKind, cav_pairs, route_length
from .trainer import (EnvSpec, PolicyBundle, PpoConfig, Transition, collect_rollout,
                      policy_actions, train)


@dataclass
class EvalReport:
    mean_velocity: float
    mean_abs_accel: float
    episode_return: float
    collision_rate: float
    speed_matrix: np.ndarray          # first episode of the first seed
    position_matrix: np.ndarray
    vehicle_ids: list[int]
    seeds: list[int]
    per_seed_returns: list[float]
    per_seed_velocities: list[float]
    return_std: float
    velocity_std: float
    first_episode_infos: dict[int, list[StepInfo]] = field(default_factory=dict)
    # decision-time transitions of the first episode of the first seed
    first_episode_transitions: list[Transition] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "mean_velocity": self.mean_velocity,
            "mean_abs_accel": self.mean_abs_accel,
            "return": self.episode_return,
            "return_std": self.return_std,
            "velocity_std": self.velocity_std,
            "collision_rate": self.collision_rate,
            "seeds": self.seeds,
        }


def eval_episode_seed(seed: int, episode: int) -> np.random.SeedSequence:
    """Counter-based evaluation streams, disjoint from the training streams."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(10, episode))


def evaluate(bundle: PolicyBundle | None, env: EnvSpec, horizon: int,
             episodes: int, seeds: list[int]) -> EvalReport:
    """Deterministic-mean policy evaluation; `bundle=None` runs IDM-only traffic.

    The IDM-only baseline requires a scenario without CAVs (closed networks:
    n_cav = 0) since nobody supplies actions.
    """
    if not seeds:
        raise InvalidSpec("seed list must be nonempty")
    if episodes < 1:
        raise InvalidSpec("need at least one episode")
    ppo = PpoConfig(horizon=horizon, episodes=1, batch_size=1)

    returns, velocities, accels, collisions = [], [], [], []
    first_infos: dict[int, list[StepInfo]] = {}
    first_transitions: list[Transition] = []
    for seed in seeds:
        for ep in range(episodes):
            keep = ep == 0
            episode = collect_rollout(bundle, env, ppo, eval_episode_seed(seed, ep),
                                      None, keep_infos=keep)
            returns.append(episode.episode_return)
            velocities.append(episode.mean_speed)
            accels.append(episode.mean_abs_accel)
            collisions.append(episode.collided)
            if keep:
                first_infos[seed] = episode.infos
                if seed == seeds[0]:
                    first_transitions = episode.transitions

    speed_matrix, pos_matrix, ids = _stack_matrices(first_infos[seeds[0]])
    per_seed_returns = [float(np.mean(returns[i * episodes:(i + 1) * episodes]))
                        for i in range(len(seeds))]
    per_seed_vel = [float(np.mean(velocities[i * episodes:(i + 1) * episodes]))
                    for i in range(len(seeds))]
    return EvalReport(
        mean_velocity=float(np.mean(velocities)),
        mean_abs_accel=float(np.mean(accels)),
        episode_return=float(np.mean(returns)),
        collision_rate=float(np.mean(collisions)),
        speed_matrix=speed_matrix,
        position_matrix=pos_matrix,
        vehicle_ids=ids,
        seeds=list(seeds),
        per_seed_returns=per_seed_returns,
        per_seed_velocities=per_seed_vel,
        return_std=float(np.std(per_seed_returns)),
        velocity_std=float(np.std(per_seed_vel)),
        first_episode_infos=first_infos,
        first_episode_transitions=first_transitions,
    )


def _stack_matrices(infos: list[StepInfo]):
    """Speed/position matrices (steps x vehicles); NaN where a vehicle is absent."""
    ids = sorted({vid for info in infos for vid in info.vehicle_ids})
    col = {vid: j for j, vid in enumerate(ids)}
    speed = np.full((len(infos), len(ids)), np.nan)
    pos = np.full((len(infos), len(ids)), np.nan)
    for t, info in enumerate(infos):
        for i, vid in enumerate(info.vehicle_ids):
            speed[t, col[vid]] = info.speeds[i]
            pos[t, col[vid]] = info.positions[i]
    return speed, pos, ids


# ---------------------------------------------------------------------------
# space-time export

SPACE_TIME_HEADER = "step,vehicle_id,route_pos,speed"


def space_time_export(report: EvalReport, path) -> None:
    """Write `step,vehicle_id,route_pos,speed` rows for the first episode,
    plus a sibling `<path>.meanspeed.csv` with the per-step mean speed."""
    rows = [SPACE_TIME_HEADER]
    mean_rows = ["step,mean_speed"]
    infos = report.first_episode_infos.get(report.seeds[0], [])
    for info in infos:
        for i, vid in enumerate(info.vehicle_ids):
            rows.append(f"{info.time_step},{vid},{float(info.positions[i])!r},"
                        f"{float(info.speeds[i])!r}")
        mean = float(info.speeds.mean()) if len(info.vehicle_ids) else math.nan
        mean_rows.append(f"{info.time_step},{mean!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(f"{path}.meanspeed.csv", "w") as fh:
        fh.write("\n".join(mean_rows) + "\n")


def import_space_time(path) -> dict[int, dict[int, tuple[float, float]]]:
    """step -> vehicle_id -> (route_pos, speed); exact floats via repr round-trip."""
    out: dict[int, dict[int, tuple[float, float]]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != SPACE_TIME_HEADER:
            raise InvalidSpec(f"unexpected space-time header {header!r}")
        for line in fh:
            s, vid, pos, speed = line.strip().split(",")
            out.setdefault(int(s), {})[int(vid)] = (float(pos), float(speed))
    return out


# ---------------------------------------------------------------------------
# sweeps

SWEEP_VARIABLES = ("penetration_rate", "target_speed", "scan_scale",
                   "adjacency_scheme", "attention_heads")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: list
    episodes_per_value: int
    seeds: list[int]

    def validate(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise InvalidSpec(f"unknown sweep variable {self.variable!r}; "
                              f"expected one of {SWEEP_VARIABLES}")
        if not self.values or not self.seeds:
            raise InvalidSpec("sweep values and seeds must be nonempty")
        if self.episodes_per_value < 1:
            raise InvalidSpec("episodes_per_value must be >= 1")


@dataclass
class SweepCell:
    variable: str
    value: object
    seed: int
    episode_return: float = math.nan
    mean_velocity: float = math.nan
    mean_abs_accel: float = math.nan
    failed: bool = False
    error: str = ""


@dataclass
class SweepResult:
    cells: list[SweepCell]
    pct_change_rows: list[str] = field(default_factory=list)

    def table_rows(self) -> list[str]:
        rows = ["variable,value,seed,return,mean_velocity,mean_abs_accel"]
        for c in self.cells:
            if c.failed:
                rows.append(f"{c.variable},{c.value},{c.seed},nan,nan,nan")
            else:
                rows.append(f"{c.variable},{c.value},{c.seed},{c.episode_return!r},"
                            f"{c.mean_velocity!r},{c.mean_abs_accel!r}")
        return rows


# sweep aliases of the config's adjacency scheme names
SCHEME_ALIASES = {"both": "gaussian_speed_field", "position": "position_only",
                  "velocity": "velocity_only"}


def _cell_config(cfg: RunConfig, variable: str, value) -> RunConfig:
    """`cfg` with the config key that `variable` sweeps set to `value`, validated."""
    s, g = cfg.scenario, cfg.graph
    if variable == "penetration_rate":
        total = s.n_human + s.n_cav
        n_cav = int(round(float(value) * total))
        if not (0 < n_cav <= total):
            raise InvalidSpec(f"penetration rate {value} gives {n_cav} CAVs of {total}")
        cell = replace(cfg, scenario=replace(s, n_cav=n_cav, n_human=total - n_cav))
    elif variable == "target_speed":
        cell = replace(cfg, scenario=replace(s, target_speed=float(value)))
    elif variable == "scan_scale":
        cell = replace(cfg, graph=replace(g, scan_scale=float(value)))
    elif variable == "adjacency_scheme":
        cell = replace(cfg, graph=replace(g, scheme=SCHEME_ALIASES.get(str(value), str(value))))
    else:
        cell = replace(cfg, nn=replace(cfg.nn, heads=int(value)))
    cell.validate()
    return cell


TRAIN_TARGET_SPEED_BASE = 20.0 / 3.6  # 20 km/h training baseline for the sweep


def _describe(exc: CavlabError) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_sweep(spec: SweepSpec, cfg: RunConfig) -> SweepResult:
    """Train and evaluate one cell per (value, seed), values outermost.

    Each cell is `cfg` with the one key the sweep variable names replaced,
    so every other key of `cfg` holds in every cell, and is evaluated over
    `cfg.scenario.horizon` steps. A cell's policy is trained on its own
    config, except that target_speed is a generalization sweep: every cell
    evaluates the policy trained at 20 km/h, and the percentage return
    change against the 20 km/h cell is emitted alongside. Each policy is
    trained once per (trained config, seed), however many cells it serves.
    A cell that fails with a `CavlabError` (a training's error marks every
    cell that needs its policy) is marked and the sweep continues; any
    other exception is a program error and propagates.
    """
    spec.validate()

    @functools.cache
    def policy(trained: RunConfig, seed: int) -> PolicyBundle | CavlabError:
        try:
            return train(trained.env_spec(), trained.ppo_config(), trained.net_config(),
                         master_seed=seed).bundle
        except CavlabError as exc:
            return exc

    def evaluated(value, seed: int) -> EvalReport:
        bundle = policy(_cell_config(cfg, spec.variable, TRAIN_TARGET_SPEED_BASE
                                     if spec.variable == "target_speed" else value), seed)
        if isinstance(bundle, CavlabError):
            raise bundle
        return evaluate(bundle, _cell_config(cfg, spec.variable, value).env_spec(),
                        cfg.scenario.horizon, spec.episodes_per_value, [seed])

    cells: list[SweepCell] = []
    for value in spec.values:
        for seed in spec.seeds:
            try:
                report = evaluated(value, seed)
            except CavlabError as exc:
                cells.append(SweepCell(spec.variable, value, seed, failed=True,
                                       error=_describe(exc)))
                continue
            cells.append(SweepCell(spec.variable, value, seed, report.episode_return,
                                   report.mean_velocity, report.mean_abs_accel))
    if spec.variable != "target_speed":
        return SweepResult(cells=cells)
    pct_rows = ["variable,value,seed,pct_return_change"]
    for seed in spec.seeds:
        done = [c for c in cells if c.seed == seed and not c.failed]
        if not done:
            continue
        # the 20 km/h cell's return, or a 20 km/h evaluation when none was swept
        base = [c.episode_return for c in done
                if math.isclose(float(c.value), TRAIN_TARGET_SPEED_BASE)]
        base_return = base[-1] if base else \
            evaluated(TRAIN_TARGET_SPEED_BASE, seed).episode_return
        for c in done:
            pct = 100.0 * (c.episode_return - base_return) / abs(base_return)
            pct_rows.append(f"{spec.variable},{c.value},{seed},{pct!r}")
    return SweepResult(cells=cells, pct_change_rows=pct_rows)


# ---------------------------------------------------------------------------
# decentralized execution check


@dataclass
class DecentralizationReport:
    samples: int
    checked_agents: int
    perturbed_agents: int
    violations: list[tuple[int, int, float]]  # (sample index, agent id, |delta|)

    @property
    def passed(self) -> bool:
        return not self.violations


def receptive_closure(state: SimState, agent_id: int, scan_scale: float,
                      hops: int = 2, pairs: CavPairs | None = None) -> set[int]:
    """CAV ids that can influence the agent's action.

    `hops` SC-graph hops over the step's in-range pairs cover the
    graph-conv + attention layers; the closure is then extended with each
    member's observed nearest leading and following CAVs, which enter
    through the local observation at any range. Both come from `pairs`
    (found here when omitted; they must be found at this scan scale).
    """
    if pairs is None:
        pairs = cav_pairs(state, scan_scale)
    elif pairs.scan_scale != scan_scale:
        raise InvalidSpec(f"pairs found at scan scale {pairs.scan_scale!r}, "
                          f"not {scan_scale!r}")
    if agent_id not in pairs.ids:
        raise UnknownVehicle(f"vehicle {agent_id} is not a live CAV")
    i, j = pairs.i, pairs.j
    inside = np.zeros(len(pairs.ids), dtype=bool)
    inside[pairs.ids.index(agent_id)] = True
    frontier = inside.copy()
    for _ in range(hops):
        reached = np.zeros_like(inside)
        reached[j[frontier[i]]] = reached[i[frontier[j]]] = True
        frontier = reached & ~inside
        inside |= frontier
    members = inside.copy()
    for nb, gap in zip(pairs.neighbors, pairs.gaps):
        inside[nb[members & (gap <= scan_scale)]] = True
    return {pairs.ids[k] for k in np.flatnonzero(inside)}


# an agent's deterministic action that moves by this much or more when only
# vehicles outside its receptive field are perturbed is a violation
DECENTRALIZATION_TOL = 1e-9


def decentralization_check(bundle: PolicyBundle, env: EnvSpec, seed: int,
                           samples: int = 100, horizon: int = 500) -> DecentralizationReport:
    """Perturb vehicles outside each agent's receptive field; the agent's
    deterministic action must not change by DECENTRALIZATION_TOL or more
    (one-sided check).

    States are sampled every 7th step of deterministic episodes that are
    free of collisions up to that step.
    """
    ppo = PpoConfig(horizon=horizon, episodes=1, batch_size=1)
    states: list[SimState] = []
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(20,)))

    def sample(t: int, state: SimState) -> bool:
        if t % 7 == 3 and not state.collided and state.cavs():
            states.append(copy.deepcopy(state))
        return len(states) >= samples

    for episode_idx in range(51):
        if len(states) >= samples:
            break
        collect_rollout(bundle, env, ppo,
                        np.random.SeedSequence(entropy=seed, spawn_key=(21, episode_idx)),
                        None, on_step=sample)

    violations: list[tuple[int, int, float]] = []
    checked = perturbed_total = 0
    for s_idx, state in enumerate(states):
        base_actions = policy_actions(bundle, state, env, None).commands()
        pairs = cav_pairs(state, env.scan_scale)
        for agent_id in pairs.ids:
            closure = receptive_closure(state, agent_id, env.scan_scale, pairs=pairs)
            outside = [v for v in state.vehicles
                       if (v.kind is VehicleKind.HUMAN) or (v.id not in closure)]
            if not outside:
                continue
            checked += 1
            perturbed_total += len(outside)
            mutated = copy.deepcopy(state)
            for v in mutated.vehicles:
                if v.kind is VehicleKind.HUMAN:
                    v.speed = max(0.0, v.speed + float(rng.uniform(-1.0, 1.0)))
                    v.route_pos = (v.route_pos + float(rng.uniform(-2.0, 2.0))) \
                        % route_length(mutated, v.route_id)
                elif v.id not in closure and v.id != agent_id:
                    v.speed = max(0.0, v.speed + float(rng.uniform(0.5, 1.5)))
            new_actions = policy_actions(bundle, mutated, env, None).commands()
            delta = abs(new_actions[agent_id] - base_actions[agent_id])
            if delta >= DECENTRALIZATION_TOL:
                violations.append((s_idx, agent_id, delta))
    return DecentralizationReport(samples=len(states), checked_agents=checked,
                                  perturbed_agents=perturbed_total,
                                  violations=violations)

