"""Dynamic CAV-to-CAV adjacency matrices.

The default scheme weights the relative speed of each neighbor by a
Gaussian kernel of the route distance, so a close neighbor with a large
speed difference dominates. Two ablation schemes keep only position or
only velocity information. Entries beyond the scan scale are masked to
zero; the diagonal always carries the self-connection with weight 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoAgents
from .sim import SimState, VehicleKind, route_distance, signed_route_distance


@dataclass(frozen=True)
class KernelSpec:
    amplitude: float = 1.0
    length_scale: float = 4.0

    def __post_init__(self):
        if self.amplitude <= 0 or self.length_scale <= 0:
            raise ValueError("kernel amplitude and length scale must be positive")


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
            raise ValueError("epsilon must be positive")


AdjacencyScheme = GaussianSpeedField | PositionOnly | VelocityOnly


@dataclass
class AdjacencyMatrix:
    weights: np.ndarray           # N x N, diagonal 1, zero beyond the scan scale
    scan_scale: float
    agent_ids: list[int]
    neighbor_mask: np.ndarray     # N x N bool incl. the diagonal
    degree: np.ndarray            # row sums of the mask (self always counted)


def gaussian_kernel(xi: float, xj: float, spec: KernelSpec,
                    route_length: float | None = None) -> float:
    """A * exp(-(xi - xj)^2 / (2 sigma^2)); wraps the difference on closed routes."""
    d = xi - xj
    if route_length is not None:
        d = d % route_length
        if d > route_length / 2.0:
            d -= route_length
    return spec.amplitude * math.exp(-(d * d) / (2.0 * spec.length_scale ** 2))


def build_adjacency(state: SimState, scheme: AdjacencyScheme, scan_scale: float) -> AdjacencyMatrix:
    """Adjacency over the live CAVs, in vehicle-list order."""
    cavs = [v for v in state.vehicles if v.kind is VehicleKind.CAV]
    if not cavs:
        raise NoAgents("no CAVs in the network")
    n = len(cavs)
    weights = np.eye(n)
    mask = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            dist = route_distance(state, cavs[i], cavs[j])
            if dist > scan_scale:
                continue
            mask[i, j] = mask[j, i] = True
            weights[i, j] = _entry(state, scheme, cavs[i], cavs[j], dist)
            weights[j, i] = _entry(state, scheme, cavs[j], cavs[i], dist)
    degree = mask.sum(axis=1).astype(float)
    return AdjacencyMatrix(weights=weights, scan_scale=scan_scale,
                           agent_ids=[v.id for v in cavs],
                           neighbor_mask=mask, degree=degree)


def _entry(state: SimState, scheme: AdjacencyScheme, vi, vj, dist: float) -> float:
    if isinstance(scheme, GaussianSpeedField):
        k = math.exp(-(dist * dist) / (2.0 * scheme.kernel.length_scale ** 2))
        return k * (vj.speed - vi.speed)
    if isinstance(scheme, PositionOnly):
        return signed_route_distance(state, vi, vj)
    return scheme.target_speed / (vi.speed * abs(vj.speed - vi.speed) + scheme.epsilon)


def degree_normalize(adj: AdjacencyMatrix) -> np.ndarray:
    """Row-scaled weights D^-1 M; the self-connection keeps every degree >= 1."""
    return adj.weights / adj.degree[:, None]


def adjacency_csv_rows(adj) -> list[str]:
    """Agent-id header, then one row of weights per agent.

    Takes anything with `agent_ids` and `weights`: an AdjacencyMatrix or a
    rollout Transition.
    """
    rows = [",".join(str(a) for a in adj.agent_ids)]
    rows.extend(",".join(repr(float(x)) for x in row) for row in adj.weights)
    return rows
