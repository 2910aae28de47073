"""Network layers for the graph policy and critic.

All layers operate on batched agent features (B, N, d) and share their
weights across agents. The attention layer consumes a boolean neighbor
mask built from the scan scale, so an agent's output depends on out-of-
range agents only through exactly-zero coefficients. Its scores are scaled
dot products, q.k / sqrt(d_head); there is no other scoring mode, and the
forward pass takes its weights from `AttentionLayer.scores`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyNeighborSet, ShapeMismatch
from .tensor import Tensor, concat, masked_softmax

LOG_2PI = math.log(2.0 * math.pi)


def orthogonal(rng: np.random.Generator, shape: tuple[int, int], gain: float = 1.0) -> np.ndarray:
    """Orthogonal-style init (QR of a Gaussian), standard for stable PPO."""
    rows, cols = shape
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def _activation(name: str):
    if name == "tanh":
        return Tensor.tanh
    if name == "relu":
        return Tensor.relu
    raise ShapeMismatch(f"unknown activation {name!r}")


class Dense:
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 gain: float = 1.0, name: str = "dense"):
        self.W = Tensor(orthogonal(rng, (d_in, d_out), gain), requires_grad=True,
                        name=f"{name}.W")
        self.b = Tensor(np.zeros(d_out), requires_grad=True, name=f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.W + self.b

    def parameters(self) -> dict[str, Tensor]:
        return {self.W.name: self.W, self.b.name: self.b}


class GraphConvLayer:
    """f(concat[M H, D^-1 M H] W): raw and degree-normalized message passing."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 activation: str = "tanh", name: str = "gconv"):
        self.W = Tensor(orthogonal(rng, (2 * d_in, d_out), math.sqrt(2.0)),
                        requires_grad=True, name=f"{name}.W")
        self.activation = activation
        self._act = _activation(activation)

    def __call__(self, H: Tensor, M: Tensor, Dinv_M: Tensor) -> Tensor:
        if H.shape[-2] != M.shape[-1] or M.shape[-1] != M.shape[-2]:
            raise ShapeMismatch(
                f"adjacency {M.shape} incompatible with features {H.shape}")
        if 2 * H.shape[-1] != self.W.shape[0]:
            raise ShapeMismatch(
                f"feature width {H.shape[-1]} incompatible with W {self.W.shape}")
        mixed = concat([M @ H, Dinv_M @ H], axis=-1)
        return self._act(mixed @ self.W)

    def parameters(self) -> dict[str, Tensor]:
        return {self.W.name: self.W}


class AttentionLayer:
    """Multi-head scaled dot-product attention over masked neighbor sets."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int, name: str = "attn"):
        if heads < 1:
            raise ShapeMismatch("heads must be >= 1 (use None for the no-attention ablation)")
        if d % heads != 0:
            raise ShapeMismatch(f"feature width {d} not divisible by {heads} heads")
        self.heads = heads
        self.d_head = d // heads
        self.Wq = Tensor(orthogonal(rng, (d, d)), requires_grad=True, name=f"{name}.Wq")
        self.Wk = Tensor(orthogonal(rng, (d, d)), requires_grad=True, name=f"{name}.Wk")
        self.Wv = Tensor(orthogonal(rng, (d, d)), requires_grad=True, name=f"{name}.Wv")
        self.Wo = Tensor(orthogonal(rng, (d, d)), requires_grad=True, name=f"{name}.Wo")

    def _split_heads(self, x: Tensor) -> Tensor:
        b, n, d = x.shape
        return x.reshape(b, n, self.heads, self.d_head).swapaxes(1, 2)

    def __call__(self, H: Tensor, mask: np.ndarray) -> Tensor:
        """H: (B, N, d); mask: (B, N, N) bool, diag True. Returns (B, N, d)."""
        b, n, d = H.shape
        if mask.shape != (b, n, n):
            raise ShapeMismatch(f"mask {mask.shape} does not match features {H.shape}")
        v = self._split_heads(H @ self.Wv)            # (B, h, N, d_h)
        out = self.scores(H, mask) @ v                 # (B, h, N, d_h)
        out = out.swapaxes(1, 2).reshape(b, n, d)
        return out @ self.Wo

    def scores(self, H: Tensor, mask: np.ndarray) -> Tensor:
        """Attention weights phi (B, h, N, N); rows sum to 1 over the mask."""
        q = self._split_heads(H @ self.Wq)
        k = self._split_heads(H @ self.Wk)
        s = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.d_head))
        return masked_softmax(s, mask[:, None, :, :].astype(float), axis=-1)

    def parameters(self) -> dict[str, Tensor]:
        return {t.name: t for t in (self.Wq, self.Wk, self.Wv, self.Wo)}


# ---------------------------------------------------------------------------
# Spec-level functional surfaces


def graph_conv_forward(H: Tensor, M: Tensor, Dinv_M: Tensor,
                       layer: GraphConvLayer) -> Tensor:
    return layer(H, M, Dinv_M)


def neighbor_sets_to_mask(neighbor_sets: list[list[int]], n: int) -> np.ndarray:
    mask = np.zeros((n, n), dtype=bool)
    for i, nbrs in enumerate(neighbor_sets):
        if i not in nbrs:
            raise EmptyNeighborSet(f"neighbor set of agent {i} must contain itself")
        for j in nbrs:
            mask[i, j] = True
    return mask


def attention_forward(H: Tensor, neighbor_sets: list[list[int]],
                      layer: AttentionLayer) -> Tensor:
    """Single-state convenience wrapper: H is (N, d), sets are agent id lists."""
    n = H.shape[0]
    mask = neighbor_sets_to_mask(neighbor_sets, n)
    out = layer(H.reshape(1, n, H.shape[1]), mask[None, :, :])
    return out.reshape(n, H.shape[1])


# ---------------------------------------------------------------------------
# Policy / critic networks


@dataclass(frozen=True)
class NetConfig:
    obs_dim: int = 6
    hidden: int = 64
    heads: int = 8          # 0 selects the attention-free ablation
    activation: str = "tanh"
    action_low: float = -3.0
    action_high: float = 3.0


class GaussianPolicyHead:
    """Tanh-squashed action mean scaled to the actuation range, shared log-spread."""

    def __init__(self, rng: np.random.Generator, d: int, low: float, high: float,
                 name: str = "actor_head"):
        self.mean_layer = Dense(rng, d, 1, gain=0.01, name=name)
        self.log_spread = Tensor(np.zeros(1), requires_grad=True, name=f"{name}.log_spread")
        self.center = 0.5 * (high + low)
        self.half = 0.5 * (high - low)

    def mean(self, trunk_out: Tensor) -> Tensor:
        return self.center + self.half * self.mean_layer(trunk_out).tanh()

    def spread(self) -> Tensor:
        return self.log_spread.exp()

    def log_prob(self, actions: Tensor, mean: Tensor) -> Tensor:
        z = (actions - mean) / self.spread()
        return -0.5 * z ** 2 - self.log_spread - 0.5 * LOG_2PI

    def parameters(self) -> dict[str, Tensor]:
        out = self.mean_layer.parameters()
        out[self.log_spread.name] = self.log_spread
        return out


class _Trunk:
    """Dense encoder -> graph conv -> (optional) attention."""

    def __init__(self, rng: np.random.Generator, cfg: NetConfig, name: str):
        self.encoder = Dense(rng, cfg.obs_dim, cfg.hidden, gain=math.sqrt(2.0),
                             name=f"{name}.encoder")
        self.gconv = GraphConvLayer(rng, cfg.hidden, cfg.hidden, cfg.activation,
                                    name=f"{name}.gconv")
        self.attn: AttentionLayer | None = None
        if cfg.heads > 0:
            self.attn = AttentionLayer(rng, cfg.hidden, cfg.heads, name=f"{name}.attn")
        self._act = _activation(cfg.activation)

    def __call__(self, obs: Tensor, M: Tensor, Dinv_M: Tensor, mask: np.ndarray) -> Tensor:
        h = self._act(self.encoder(obs))
        h = self.gconv(h, M, Dinv_M)
        if self.attn is not None:
            h = self.attn(h, mask)
        return h

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.encoder.parameters())
        out.update(self.gconv.parameters())
        if self.attn is not None:
            out.update(self.attn.parameters())
        return out


class PolicyNetwork:
    def __init__(self, rng: np.random.Generator, cfg: NetConfig):
        self.cfg = cfg
        self.trunk = _Trunk(rng, cfg, "actor")
        self.head = GaussianPolicyHead(rng, cfg.hidden, cfg.action_low, cfg.action_high)

    def action_mean(self, obs: Tensor, M: Tensor, Dinv_M: Tensor, mask: np.ndarray) -> Tensor:
        """(B, N, obs_dim) -> per-agent action mean (B, N)."""
        h = self.trunk(obs, M, Dinv_M, mask)
        b, n, _ = h.shape
        return self.head.mean(h).reshape(b, n)

    def log_prob(self, actions: Tensor, mean: Tensor) -> Tensor:
        return self.head.log_prob(actions, mean)

    def parameters(self) -> dict[str, Tensor]:
        out = self.trunk.parameters()
        out.update(self.head.parameters())
        return out


class CriticNetwork:
    def __init__(self, rng: np.random.Generator, cfg: NetConfig):
        self.cfg = cfg
        self.trunk = _Trunk(rng, cfg, "critic")
        self.vhead = Dense(rng, cfg.hidden, 1, gain=1.0, name="critic_head")

    def values(self, obs: Tensor, M: Tensor, Dinv_M: Tensor, mask: np.ndarray) -> Tensor:
        """(B, N, obs_dim) -> per-agent value estimates (B, N)."""
        h = self.trunk(obs, M, Dinv_M, mask)
        b, n, _ = h.shape
        return self.vhead(h).reshape(b, n)

    def parameters(self) -> dict[str, Tensor]:
        out = self.trunk.parameters()
        out.update(self.vhead.parameters())
        return out


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr_scale: float = 1.0) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * p.grad
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * p.grad ** 2
            mh = self.m[k] / b1t
            vh = self.v[k] / b2t
            p.data = p.data - (self.lr * lr_scale) * mh / (np.sqrt(vh) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_dict(self) -> dict:
        return {"t": self.t,
                "m": {k: v.copy() for k, v in self.m.items()},
                "v": {k: v.copy() for k, v in self.v.items()}}

    def load_state_dict(self, state: dict) -> None:
        self.t = state["t"]
        self.m = {k: np.asarray(v, dtype=np.float64).reshape(self.m[k].shape)
                  for k, v in state["m"].items()}
        self.v = {k: np.asarray(v, dtype=np.float64).reshape(self.v[k].shape)
                  for k, v in state["v"].items()}
