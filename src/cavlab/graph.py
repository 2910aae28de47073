"""Dynamic CAV-to-CAV adjacency matrices.

The default scheme weights the relative speed of each neighbor by a
Gaussian kernel of the route distance, so a close neighbor with a large
speed difference dominates. Two ablation schemes keep only position or
only velocity information. Entries beyond the scan scale are masked to
zero; the diagonal always carries the self-connection with weight 1.

The matrix is scattered from the step's in-range pairs (`sim.cav_pairs`,
found from sorted positions), the pass the observations also read. The
Gaussian kernel is taken with `math.exp` over those pairs: `np.exp`
differs from it in the last bit on some inputs, and the weights are kept
bit-identical to a per-pair scalar evaluation.

`degree_normalize` is the one D^-1 M: the rollout applies it to a step's
(N, N) weights with the degrees counted from the pairs, and the padded
update batches to their (B, N, N) stacks with their masks' row sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NoAgents
from .sim import CavPairs, SimState, cav_pairs


@dataclass(frozen=True)
class KernelSpec:
    """exp(-d^2 / (2 sigma^2)), sigma = `length_scale`; the amplitude is 1
    (`build_adjacency` applies none), and any other value is rejected."""

    amplitude: float = 1.0
    length_scale: float = 4.0

    def __post_init__(self):
        if self.amplitude != 1.0:
            raise InvalidSpec(f"the kernel amplitude is fixed at 1.0, got {self.amplitude!r}")
        if self.length_scale <= 0:
            raise InvalidSpec("kernel length scale must be positive")


@dataclass(frozen=True)
class GaussianSpeedField:
    """Kernel-weighted relative speed: entry(i,j) = exp(-d^2/(2 sigma^2)) * (v_j - v_i)."""

    kernel: KernelSpec = KernelSpec()


@dataclass(frozen=True)
class PositionOnly:
    """Signed shortest route distance: entry(i,j) = x_i - x_j."""


@dataclass(frozen=True)
class VelocityOnly:
    """Inverse interaction measure: entry(i,j) = v_T / (v_i * |v_j - v_i| + eps)."""

    epsilon: float = 0.01
    target_speed: float = 30.0 / 3.6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidSpec("epsilon must be positive")


AdjacencyScheme = GaussianSpeedField | PositionOnly | VelocityOnly


@dataclass
class AdjacencyMatrix:
    weights: np.ndarray           # N x N, diagonal 1, zero beyond the scan scale
    agent_ids: list[int]
    neighbor_mask: np.ndarray     # N x N bool incl. the diagonal


def build_adjacency(state: SimState, scheme: AdjacencyScheme, scan_scale: float,
                    pairs: CavPairs | None = None) -> AdjacencyMatrix:
    """Adjacency over the live CAVs, in vehicle-list order.

    Scattered from the step's in-range pairs (`pairs`, found here when
    omitted; they must be found at this scan scale), each entry evaluated
    once. The Gaussian kernel takes `math.exp` per pair rather than
    `np.exp`, whose last bits differ on some inputs, so the weights match a
    scalar evaluation bit for bit.
    """
    if pairs is None:
        pairs = cav_pairs(state, scan_scale)
    elif pairs.scan_scale != scan_scale:
        raise InvalidSpec(f"pairs found at scan scale {pairs.scan_scale!r}, "
                          f"not {scan_scale!r}")
    n = len(pairs.ids)
    if not n:
        raise NoAgents("no CAVs in the network")
    i, j = pairs.i, pairs.j
    mask = np.eye(n, dtype=bool)
    mask[i, j] = mask[j, i] = True
    weights = np.eye(n)
    vi, vj = pairs.speed[i], pairs.speed[j]
    if isinstance(scheme, GaussianSpeedField):
        d = pairs.dist
        exponent = (-(d * d) / (2.0 * scheme.kernel.length_scale ** 2)).tolist()
        k = np.fromiter(map(math.exp, exponent), float, len(exponent))
        weights[i, j] = k * (vj - vi)
        weights[j, i] = k * (vi - vj)
    elif isinstance(scheme, PositionOnly):
        weights[i, j], weights[j, i] = pairs.signed
    else:
        ts, eps = scheme.target_speed, scheme.epsilon
        weights[i, j] = ts / (vi * np.abs(vj - vi) + eps)
        weights[j, i] = ts / (vj * np.abs(vi - vj) + eps)
    return AdjacencyMatrix(weights=weights, agent_ids=pairs.ids, neighbor_mask=mask)


def degree_normalize(weights: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Row-scaled weights D^-1 M, D the degrees: the neighbour mask's row sums.

    Takes one (N, N) matrix with (N,) degrees or a (B, N, N) stack with
    (B, N); the self-connection keeps every degree >= 1.
    """
    return weights / degree[..., None]


def adjacency_csv_rows(adj) -> list[str]:
    """Agent-id header, then one row of weights per agent.

    Takes anything with `agent_ids` and `weights`: an AdjacencyMatrix or a
    rollout Transition.
    """
    rows = [",".join(str(a) for a in adj.agent_ids)]
    rows.extend(",".join(repr(float(x)) for x in row) for row in adj.weights)
    return rows
