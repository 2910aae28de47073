"""Dynamic CAV-to-CAV adjacency matrices.

The default scheme weights the relative speed of each neighbor by a
Gaussian kernel of the route distance, so a close neighbor with a large
speed difference dominates. Two ablation schemes keep only position or
only velocity information. Entries beyond the scan scale are masked to
zero; the diagonal always carries the self-connection with weight 1.

Each scheme's formula is evaluated once per in-range pair
(`pair_weights`), over the step's pairs (`sim.cav_pairs`, found from
sorted positions), the pass the observations also read. `build_adjacency`
is the one builder, and a step's graph has one record (`Adjacency`): the
mask's N + 2E entries for E pairs, their flat positions and M at each,
with no N x N array. Readers that need the dense (N, N) weights or mask
build them from it. The Gaussian kernel is taken with `math.exp` over the
pairs: `np.exp` differs from it in the last bit on some inputs, and the
weights are kept bit-identical to a per-pair scalar evaluation.

D^-1 M of a dense adjacency is `degree_normalize`: the rollout's dense
steps apply it to a step's (N, N) weights with the degrees counted from
the pairs, and the padded update batches to their (B, N, N) stacks with
their masks' row sums. An edge step divides each entry's M by its agent's
degree instead (`layers.EdgeList.of_adjacency`), the same division.
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


@dataclass(frozen=True)
class Adjacency:
    """A step's CAV graph as its neighbour mask's entries: N + 2E of them
    for E in-range pairs, where the dense weights and mask hold 2 N^2
    numbers. Zero beyond the scan scale, 1 on the diagonal.

    `weights` and `neighbor_mask` scatter the entries into dense (N, N)
    arrays on each read: read-only, and not kept.
    """

    agent_ids: list[int]
    index: np.ndarray     # (E,) flat positions i*N + j of the mask's entries, ascending
    values: np.ndarray    # (E,) M at those entries

    def _dense(self, dtype, values) -> np.ndarray:
        n = len(self.agent_ids)
        out = np.zeros(n * n, dtype)
        out[self.index] = values
        out.flags.writeable = False
        return out.reshape(n, n)

    @property
    def weights(self) -> np.ndarray:
        return self._dense(float, self.values)

    @property
    def neighbor_mask(self) -> np.ndarray:
        return self._dense(bool, True)


def pair_weights(pairs: CavPairs, scheme: AdjacencyScheme) -> tuple[np.ndarray, np.ndarray]:
    """M at the in-range pairs of `pairs`: (M[i, j], M[j, i]), each (E,).

    Every scheme's formula is here once, and `build_adjacency` keeps these
    values. The Gaussian kernel takes `math.exp` per pair rather than
    `np.exp`, whose last bits differ on some inputs, so the weights match a
    scalar evaluation bit for bit.
    """
    i, j = pairs.i, pairs.j
    vi, vj = pairs.speed[i], pairs.speed[j]
    if isinstance(scheme, GaussianSpeedField):
        d = pairs.dist
        exponent = (-(d * d) / (2.0 * scheme.kernel.length_scale ** 2)).tolist()
        k = np.fromiter(map(math.exp, exponent), float, len(exponent))
        return k * (vj - vi), k * (vi - vj)
    if isinstance(scheme, PositionOnly):
        return tuple(pairs.signed)
    ts, eps = scheme.target_speed, scheme.epsilon
    return ts / (vi * np.abs(vj - vi) + eps), ts / (vj * np.abs(vi - vj) + eps)


def build_adjacency(state: SimState, scheme: AdjacencyScheme, scan_scale: float,
                    pairs: CavPairs | None = None) -> Adjacency:
    """Adjacency over the live CAVs, in vehicle-list order.

    Built from the step's in-range pairs (`pairs`, found here when
    omitted; they must be found at this scan scale), each entry evaluated
    once (`pair_weights`).
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
    index = np.concatenate((i * n + j, j * n + i, np.arange(0, n * n, n + 1)))
    values = np.concatenate((*pair_weights(pairs, scheme), np.ones(n)))
    order = np.argsort(index)
    return Adjacency(agent_ids=pairs.ids, index=index[order], values=values[order])


def degree_normalize(weights: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Row-scaled weights D^-1 M, D the degrees: the neighbour mask's row sums.

    Takes one (N, N) matrix with (N,) degrees or a (B, N, N) stack with
    (B, N); the self-connection keeps every degree >= 1.
    """
    return weights / degree[..., None]


def adjacency_csv_rows(adj) -> list[str]:
    """Agent-id header, then one row of weights per agent.

    Takes anything with `agent_ids` and `weights`: an Adjacency or a
    rollout Transition.
    """
    rows = [",".join(str(a) for a in adj.agent_ids)]
    rows.extend(",".join(repr(float(x)) for x in row) for row in adj.weights)
    return rows
