"""Network layers for the graph policy and critic.

All layers operate on batched agent features (B, N, d) and share their
weights across agents. The attention layer consumes a boolean neighbor
mask built from the scan scale, so an agent's output depends on out-of-
range agents only through exactly-zero coefficients. Its scores are scaled
dot products, q.k / sqrt(d_head); there is no other scoring mode.

Dense (with its activation), `GraphConvLayer`, `AttentionLayer` and the
Gaussian log-density (`GaussianPolicyHead.log_prob`) each record one tape
node with a hand-written backward. The layers' weight products and
weight gradients run as one GEMM over all B*N agent rows, and they
return no gradient for the observations. The adjacency is a constant
input, as in a GCN (nothing learns the CAV graph): the graph conv's tape
parents are H and W. `AttentionLayer.scores` returns the dense
(B, h, N, N) weights of that forward, from the same Q|K|V GEMM and the
same softmax, without a tape.

The graph conv and the attention forward have two kernels for one
formula. The dense kernel multiplies (B, N, N) matrices and takes a masked
softmax over N; its cost grows with B*N^2. The edge kernel works on an
`EdgeList`, one graph's mask entries as edges, and sums messages, scores
and softmaxes over each agent's neighbours alone; its cost grows with the
number of edges, plus a fixed overhead per call. It gathers, scales and
sums a slot of edges at a time (`_Segments`), so its temporaries are
node-sized, not edge-sized. It runs forward only: a forward on it under a
recording tape raises InvalidSpec.

The networks do not choose: `_Trunk` runs the dense kernel on every
(B, N, N) mask and the edge kernel on an edge list, which only a rollout
step builds, from its graph record (`graph.Adjacency`), when that mask
holds fewer than `EDGE_KERNEL_MAX_DENSITY` of its entries
(`trainer.graph_inputs`):
a 256-CAV ring whose agents see about 4 neighbours each then stops paying
for 256. No graph of 32 agents or fewer is that sparse, and the update
batches, which need gradients, run dense. The two kernels agree to
rounding (tests/test_layers.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, ShapeMismatch
from .tensor import (Tensor, _unbroadcast, check_finite, recording, softmax_backward,
                     softmax_forward)

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


ACTIVATIONS = ("tanh", "relu")


def _check_activation(name: str | None) -> None:
    if name is not None and name not in ACTIVATIONS:
        raise InvalidSpec(f"unknown activation {name!r}, expected one of {ACTIVATIONS}")


def _activate(pre: np.ndarray, name: str | None) -> np.ndarray:
    """Apply the activation in place (None: identity)."""
    if name == "tanh":
        np.tanh(pre, out=pre)
    elif name == "relu":
        np.maximum(pre, 0.0, out=pre)
    return pre


def _activation_grad(grad: np.ndarray, out: np.ndarray, name: str | None) -> np.ndarray:
    """Gradient w.r.t. the pre-activation, given the activation's output."""
    if name == "tanh":
        return grad * (1.0 - out ** 2)
    if name == "relu":
        return grad * (out > 0.0)
    return grad


def _rows(x: np.ndarray) -> np.ndarray:
    """All leading axes folded into one: (..., d) -> (prod(...), d)."""
    return x.reshape(-1, x.shape[-1])


# ---------------------------------------------------------------------------
# Edge lists

# A rollout step runs the edge kernel when its graph's mask holds fewer
# than this share of its N*N entries (`sparse_enough`). Policy forwards on
# 2 vCPUs (`scripts/bench_layers.py`, and rings of other scan ranges): the
# kernels break even between 6% and 10% full at N=64 and N=128; the edge
# kernel is 5x faster at N=256 and 1.5% full (the 256-CAV ring); dense
# wins at N=32 even on self-loops alone (1/32 full), and by 1.6x at N=4.
# Below 1/32, no graph of 32 agents or fewer leaves the dense kernel; the
# shipped scenarios have 16 CAVs at most.
EDGE_KERNEL_MAX_DENSITY = 1.0 / 32.0


class _Segments:
    """Edges grouped by the node they belong to (in `EdgeList`, their
    destination) for reductions over each node's edges.

    Nodes are ranked by their edge count, most first. Edges go slot by slot:
    slot s holds the (s+1)-th edge of every node that has one, in rank
    order, so the nodes of each slot are a prefix of the ranking, and a
    reduction is one in-place slice operation per slot. numpy's
    `ufunc.reduceat` over node-sorted edges gives the same sums but walks
    them one element at a time, several times slower at the sizes of a
    256-CAV ring. Every node must own at least one edge.
    """

    def __init__(self, keys: np.ndarray, nodes: int):
        self.counts = counts = np.bincount(keys, minlength=nodes)   # edges per node
        self.rank = np.empty(nodes, dtype=np.intp)
        self.rank[np.argsort(-counts, kind="stable")] = np.arange(nodes)
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_key]
        slot = np.arange(len(keys)) - (np.cumsum(counts) - counts)[sorted_keys]
        self.order = by_key[np.argsort(slot * nodes + self.rank[sorted_keys])]   # edge ids
        self.nodes = nodes
        sizes = np.bincount(slot).tolist()
        # the edges of each slot, in `order`: the first slot holds one per node
        self.spans = [slice(end - size, end)
                      for end, size in zip(np.cumsum(sizes).tolist(), sizes)]

    def reduce(self, ufunc, x) -> np.ndarray:
        """(E, ...) values in `order` -> (nodes, ...): `ufunc` over each node's
        edges, in slot order. `x` is the values, or a function that returns
        the values of a slice of the edges, so that no (E, ...) array is made."""
        first, *rest = self.spans
        if callable(x):
            out = x(first)
        else:
            out, x = x[first].copy(), x.__getitem__
        for span in rest:
            part = out[:span.stop - span.start]
            ufunc(part, x(span), out=part)
        return out[self.rank]


class EdgeList:
    """One graph of N agents as the edges of its neighbour mask, carrying M
    and D^-1 M at each edge: the edge kernel's input, which a rollout step
    builds from its adjacency's entries (`of_adjacency`) when its graph is
    sparse enough (`trainer.graph_inputs`).

    The entry mask[i, j] is the edge from node j (`src`) to node i (`dst`):
    agent i aggregates over its neighbours j. `index` is each edge's flat
    position i*N + j. Edges are ordered for sums at their destinations
    (`_Segments`). Every agent must own an edge: in the rollout's graphs,
    every agent is its own neighbour.
    """

    @classmethod
    def of_adjacency(cls, n: int, index: np.ndarray, values: np.ndarray) -> EdgeList:
        """The edge list of one graph of `n` agents given as its mask's entries,
        carrying M and D^-1 M at its edges: `index` holds the entries' flat
        positions i*N + j in ascending order; `values` M at each. D^-1 M is M
        over each agent's in-degree, the bits of `graph.degree_normalize`.

        Non-finite values raise NonFiniteValue, and an agent that owns no
        entry ShapeMismatch.
        """
        check_finite(values, "the adjacency at the edges")
        edges = cls.__new__(cls)
        edges._arrange(index, (1, n, n))
        if not edges._at_dst.counts.all():
            raise ShapeMismatch(f"an edge list needs each of its {n} agents to own an edge")
        edges.m = values[edges._at_dst.order]
        edges.dinv_m = edges.m / edges._at_dst.counts[edges.dst]
        return edges

    def _arrange(self, index: np.ndarray, shape: tuple[int, int, int]) -> None:
        """Edges from the ascending flat positions `index` in a `shape`
        (B, N, N) array, as one disjoint union of the B graphs whose node
        b*N + i is agent i of graph b."""
        self.shape = shape
        b, n, _ = shape
        self._at_dst = _Segments(index // n, b * n)
        self.index = index[self._at_dst.order]
        self.dst = self.index // n
        self.src = self.index // (n * n) * n + self.index % n

    def sum_at_dst(self, x: np.ndarray) -> np.ndarray:
        """(E, ...) -> (B*N, ...): each node's sum over its incoming edges."""
        return self._at_dst.reduce(np.add, x)

    def dot(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """(B*N, h, d) node values -> (E, h): q[dst] . k[src] per head, a slot
        at a time, with no (E, h, d) temporary (see `weighted_sum_at_dst`)."""
        out = np.empty((len(self.index), q.shape[1]))
        dst, src = self.dst, self.src
        for span in self._at_dst.spans:
            out[span] = np.einsum("ehk,ehk->eh", q[dst[span]], k[src[span]])
        return out

    def weighted_sum_at_dst(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(E, ...) weights, (B*N, ...) node values -> (B*N, ...): each node's
        sum of w * x[src] over its incoming edges, the bits of
        `sum_at_dst(w * x[src])`, a slot at a time. At 256 CAVs each (E, ...)
        temporary is 0.5 MB, and the allocator handed such pages back
        between rollout steps, to fault them in afresh on the next one."""
        src = self.src
        return self._at_dst.reduce(np.add, lambda span: w[span] * x[src[span]])

    def softmax(self, scores: np.ndarray) -> np.ndarray:
        """Softmax of (E, ...) scores over each node's incoming edges, each
        shifted by the largest score among them."""
        e = scores - self._at_dst.reduce(np.maximum, scores)[self.dst]
        np.exp(e, out=e)
        e /= self.sum_at_dst(e)[self.dst]
        return e


def sparse_enough(nnz: int, entries: int) -> bool:
    """Whether a rollout step whose graph sets `nnz` of its mask's `entries`
    runs the edge kernel: when that is fewer than EDGE_KERNEL_MAX_DENSITY
    of them (`trainer.graph_inputs`)."""
    return nnz < EDGE_KERNEL_MAX_DENSITY * entries


def _forward_only(edges: EdgeList | None) -> None:
    """The edge kernel has no backward: an edge-list forward must run off
    the tape."""
    if edges is not None and recording():
        raise InvalidSpec("the edge kernel runs forward only; call it under no_grad")


class Dense:
    """act(x W + b) over the last axis, one tape node; `activation` None is the identity."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 gain: float = 1.0, name: str = "dense", activation: str | None = None):
        _check_activation(activation)
        self.W = Tensor(orthogonal(rng, (d_in, d_out), gain), requires_grad=True,
                        name=f"{name}.W")
        self.b = Tensor(np.zeros(d_out), requires_grad=True, name=f"{name}.b")
        self.activation = activation

    def __call__(self, x: Tensor) -> Tensor:
        W, b, act = self.W, self.b, self.activation
        if x.shape[-1] != W.shape[0]:
            raise ShapeMismatch(f"feature width {x.shape[-1]} incompatible with W {W.shape}")
        x2d = _rows(x.data)
        out2d = x2d @ W.data
        out2d += b.data
        _activate(out2d, act)

        def backward(grad, needs):
            g = _activation_grad(_rows(grad), out2d, act)
            return ((g @ W.data.T).reshape(x.shape) if needs[0] else None,
                    x2d.T @ g if needs[1] else None,
                    g.sum(axis=0) if needs[2] else None)

        return Tensor._make(out2d.reshape(x.shape[:-1] + (W.shape[1],)), (x, W, b),
                            backward)

    def parameters(self) -> dict[str, Tensor]:
        return {self.W.name: self.W, self.b.name: self.b}


class GraphConvLayer:
    """f(concat[M H, D^-1 M H] W): raw and degree-normalized message passing.

    H is (B, N, d) with M and D^-1 M (B, N, N), or unbatched (N, d) with
    (N, N) matrices: the dense kernel, one tape node with parents H and W;
    an M or D^-1 M that would need a gradient raises InvalidSpec. Or H is
    (1, N, d) with `edges`, the edge list of a rollout step that carries M
    and D^-1 M in their place (M and D^-1 M then None): the edge kernel,
    forward only.
    """

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 activation: str = "tanh", name: str = "gconv"):
        _check_activation(activation)
        self.W = Tensor(orthogonal(rng, (2 * d_in, d_out), math.sqrt(2.0)),
                        requires_grad=True, name=f"{name}.W")
        self.activation = activation

    def __call__(self, H: Tensor, M: Tensor | None, Dinv_M: Tensor | None,
                 edges: EdgeList | None = None) -> Tensor:
        W, act = self.W, self.activation
        if 2 * H.shape[-1] != W.shape[0]:
            raise ShapeMismatch(
                f"feature width {H.shape[-1]} incompatible with W {W.shape}")
        if (edges is None) != (M is not None) or (edges is None) != (Dinv_M is not None):
            raise InvalidSpec("the graph conv takes M and D^-1 M either as "
                              "Tensors or from an edge list that carries them")
        _forward_only(edges)
        h = H.data
        d = h.shape[-1]
        if edges is None:
            if H.shape[-2] != M.shape[-1] or M.shape[-1] != M.shape[-2]:
                raise ShapeMismatch(
                    f"adjacency {M.shape} incompatible with features {H.shape}")
            if M.requires_grad or M._parents or Dinv_M.requires_grad or Dinv_M._parents:
                raise InvalidSpec("the graph conv takes M and D^-1 M as constants; "
                                  "it computes no gradient for them")
            m, dm = M.data, Dinv_M.data
            mixed = np.concatenate([m @ h, dm @ h], axis=-1)
        else:
            if edges.shape[:2] != h.shape[:-1]:
                raise ShapeMismatch(f"features {H.shape} do not match the edge "
                                    f"list's mask {edges.shape}")
            mixed = np.concatenate(
                [edges.weighted_sum_at_dst(edges.m[:, None], _rows(h)),
                 edges.weighted_sum_at_dst(edges.dinv_m[:, None], _rows(h))], axis=-1
            ).reshape(h.shape[:-1] + (2 * d,))
        mixed2d = _rows(mixed)
        out2d = _activate(mixed2d @ W.data, act)

        def backward(grad, needs):
            g = _activation_grad(_rows(grad), out2d, act)
            g_h = None
            if needs[0]:
                g_mixed = (g @ W.data.T).reshape(mixed.shape)
                g_h = _unbroadcast(np.swapaxes(m, -1, -2) @ g_mixed[..., :d]
                                   + np.swapaxes(dm, -1, -2) @ g_mixed[..., d:], h.shape)
            return g_h, mixed2d.T @ g if needs[1] else None

        return Tensor._make(out2d.reshape(mixed.shape[:-1] + (W.shape[1],)),
                            (H, W), backward)

    def parameters(self) -> dict[str, Tensor]:
        return {self.W.name: self.W}


class AttentionLayer:
    """Multi-head scaled dot-product attention over masked neighbor sets.

    The forward is one tape node: Q, K and V come from one GEMM against the
    stacked weights [Wq | Wk | Wv], per-head weights phi = softmax(q k^T /
    sqrt(d_head)) over the mask, and the heads' phi v are merged and
    projected by Wo. The dense kernel takes a (B, N, N) `mask`; with
    `edges` instead (a rollout step's edge list, `mask` None) the scores,
    softmax and phi v run over the edges alone, forward only.
    """

    def __init__(self, rng: np.random.Generator, d: int, heads: int, name: str = "attn"):
        if heads < 1:
            raise ShapeMismatch(
                "heads must be >= 1 (the no-attention ablation is heads=0 in NetConfig, "
                "which builds no attention layer)")
        if d % heads != 0:
            raise ShapeMismatch(f"feature width {d} not divisible by {heads} heads")
        self.heads = heads
        self.d_head = d // heads
        self.Wq = Tensor(orthogonal(rng, (d, d)), requires_grad=True, name=f"{name}.Wq")
        self.Wk = Tensor(orthogonal(rng, (d, d)), requires_grad=True, name=f"{name}.Wk")
        self.Wv = Tensor(orthogonal(rng, (d, d)), requires_grad=True, name=f"{name}.Wv")
        self.Wo = Tensor(orthogonal(rng, (d, d)), requires_grad=True, name=f"{name}.Wo")

    def _weights(self, H: Tensor, mask: np.ndarray | None, edges: EdgeList | None):
        """The rows of H, [Wq | Wk | Wv], q, k, v and phi.

        Dense: q, k, v (B, h, N, d_h) and phi (B, h, N, N). Edge list: q, k,
        v (B*N, h, d_h) and phi (E, h).
        """
        b, n, d = H.shape
        for graph in (mask, edges):
            if graph is not None and graph.shape != (b, n, n):
                raise ShapeMismatch(f"mask {graph.shape} does not match features {H.shape}")
        h, dh = self.heads, self.d_head
        w_qkv = np.concatenate([self.Wq.data, self.Wk.data, self.Wv.data], axis=1)  # (d, 3d)
        h2d = _rows(H.data)
        if edges is not None:
            qkv = (h2d @ w_qkv).reshape(b * n, 3, h, dh)
            q, k, v = qkv[:, 0], qkv[:, 1], qkv[:, 2]                  # (B*N, h, d_h)
            scores = edges.dot(q, k)                                    # (E, h)
            scores *= 1.0 / math.sqrt(dh)
            return h2d, w_qkv, q, k, v, edges.softmax(scores)
        # (B*N, 3d) -> (3, B, h, N, d_h): q, k, v split into heads
        q, k, v = np.ascontiguousarray(
            (h2d @ w_qkv).reshape(b, n, 3, h, dh).transpose(2, 0, 3, 1, 4))
        scores = q @ k.swapaxes(-1, -2)
        scores *= 1.0 / math.sqrt(dh)
        return h2d, w_qkv, q, k, v, softmax_forward(scores, mask[:, None])

    def __call__(self, H: Tensor, mask: np.ndarray | None,
                 edges: EdgeList | None = None) -> Tensor:
        """H: (B, N, d); mask: (B, N, N) bool, diag True. Returns (B, N, d)."""
        b, n, d = H.shape
        h, dh, scale = self.heads, self.d_head, 1.0 / math.sqrt(self.d_head)
        _forward_only(edges)
        h2d, w_qkv, q, k, v, phi = self._weights(H, mask, edges)
        if edges is None:
            merged = (phi @ v).transpose(0, 2, 1, 3).reshape(b * n, d)   # (B*N, d)
        else:
            merged = edges.weighted_sum_at_dst(phi[:, :, None], v).reshape(b * n, d)
        out = merged @ self.Wo.data

        def backward(grad, needs):
            g2d = _rows(grad)
            g_merged = (g2d @ self.Wo.data.T).reshape(b, n, h, dh).transpose(0, 2, 1, 3)
            g_scores = softmax_backward(phi, g_merged @ v.swapaxes(-1, -2)) * scale
            g_qkv = np.stack([g_scores @ k, g_scores.swapaxes(-1, -2) @ q,
                              phi.swapaxes(-1, -2) @ g_merged])       # (3, B, h, N, d_h)
            g_qkv = g_qkv.transpose(1, 3, 0, 2, 4).reshape(b * n, 3 * d)
            g_w = h2d.T @ g_qkv if any(needs[1:4]) else None
            return ((g_qkv @ w_qkv.T).reshape(b, n, d) if needs[0] else None,
                    *(g_w[:, i * d:(i + 1) * d] if needs[1 + i] else None for i in range(3)),
                    merged.T @ g2d if needs[4] else None)

        return Tensor._make(out.reshape(b, n, d), (H, self.Wq, self.Wk, self.Wv, self.Wo),
                            backward)

    def scores(self, H: Tensor, mask: np.ndarray) -> Tensor:
        """The attention weights phi (B, h, N, N) of the dense forward, off
        the tape; rows sum to 1 over the mask."""
        return Tensor(self._weights(H, mask, None)[-1])

    def parameters(self) -> dict[str, Tensor]:
        return {t.name: t for t in (self.Wq, self.Wk, self.Wv, self.Wo)}


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

    def __post_init__(self):
        if self.obs_dim < 1:
            raise InvalidSpec("obs_dim must be >= 1")
        if self.hidden < 1:
            raise InvalidSpec("hidden must be >= 1")
        if self.heads < 0:
            raise InvalidSpec("heads must be >= 0")
        if self.heads and self.hidden % self.heads:
            raise InvalidSpec(f"hidden={self.hidden} must be divisible by heads={self.heads}")
        if self.activation not in ACTIVATIONS:
            raise InvalidSpec(f"activation must be one of {list(ACTIVATIONS)}, "
                              f"got {self.activation!r}")
        if not self.action_low < self.action_high:
            raise InvalidSpec(f"action_low={self.action_low!r} must be below "
                              f"action_high={self.action_high!r}")


class GaussianPolicyHead:
    """Tanh-squashed action mean scaled to the actuation range, shared log-spread."""

    def __init__(self, rng: np.random.Generator, d: int, low: float, high: float,
                 name: str = "actor_head"):
        self.mean_layer = Dense(rng, d, 1, gain=0.01, name=name, activation="tanh")
        self.log_spread = Tensor(np.zeros(1), requires_grad=True, name=f"{name}.log_spread")
        self.center = 0.5 * (high + low)
        self.half = 0.5 * (high - low)

    def mean(self, trunk_out: Tensor) -> Tensor:
        return self.center + self.half * self.mean_layer(trunk_out)

    def spread(self) -> Tensor:
        return self.log_spread.exp()

    def log_prob(self, actions: Tensor, mean: Tensor) -> Tensor:
        """The Gaussian log-density of `actions` around `mean`, one tape node
        with parents actions, mean and log_spread."""
        log_spread = self.log_spread
        with np.errstate(all="ignore"):   # the boundary checks report blowups
            spread = np.exp(log_spread.data)
            diff = actions.data - mean.data
            z = diff / spread
            data = -0.5 * z ** 2 - log_spread.data - 0.5 * LOG_2PI

        def backward(grad, needs):
            # factors in the order the general ops `-`, `/`, `exp`, `**` and
            # `*` apply them, so the gradients have the bits of that
            # composition (tests/test_losses.py)
            g_z = grad * -0.5 * 2 * z
            g_diff = g_z / spread
            g_log_spread = None
            if needs[2]:
                g_spread = _unbroadcast(-g_z * diff / spread ** 2, spread.shape)
                g_log_spread = g_spread * spread - _unbroadcast(grad, spread.shape)
            return (_unbroadcast(g_diff, actions.shape) if needs[0] else None,
                    -_unbroadcast(g_diff, mean.shape) if needs[1] else None,
                    g_log_spread)

        return Tensor._make(data, (actions, mean, log_spread), backward)

    def parameters(self) -> dict[str, Tensor]:
        out = self.mean_layer.parameters()
        out[self.log_spread.name] = self.log_spread
        return out


class _Trunk:
    """Dense encoder -> graph conv -> (optional) attention; the graph conv
    and the attention run on one kernel, which the graph's form picks.

    A (B, N, N) `mask` with its M and D^-1 M runs the dense kernel, however
    sparse the mask. An `EdgeList` in place of the mask, with M and D^-1 M
    None, runs the edge kernel, forward only: a rollout step hands one over
    when its graph is sparse enough (`trainer.graph_inputs`).
    """

    def __init__(self, rng: np.random.Generator, cfg: NetConfig, name: str):
        self.encoder = Dense(rng, cfg.obs_dim, cfg.hidden, gain=math.sqrt(2.0),
                             name=f"{name}.encoder", activation=cfg.activation)
        self.gconv = GraphConvLayer(rng, cfg.hidden, cfg.hidden, cfg.activation,
                                    name=f"{name}.gconv")
        self.attn: AttentionLayer | None = None
        if cfg.heads > 0:
            self.attn = AttentionLayer(rng, cfg.hidden, cfg.heads, name=f"{name}.attn")

    def __call__(self, obs: Tensor, M: Tensor | None, Dinv_M: Tensor | None,
                 mask: np.ndarray | EdgeList) -> Tensor:
        if isinstance(mask, EdgeList):
            edges, mask = mask, None
        else:
            edges = None
        h = self.encoder(obs)
        h = self.gconv(h, M, Dinv_M, edges)
        if self.attn is not None:
            h = self.attn(h, mask, edges)
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

    def action_mean(self, obs: Tensor, M: Tensor | None, Dinv_M: Tensor | None,
                    mask: np.ndarray | EdgeList) -> Tensor:
        """(B, N, obs_dim) -> per-agent action mean (B, N); the graph as in `_Trunk`."""
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

    def values(self, obs: Tensor, M: Tensor | None, Dinv_M: Tensor | None,
               mask: np.ndarray | EdgeList) -> Tensor:
        """(B, N, obs_dim) -> per-agent value estimates (B, N); the graph as in `_Trunk`."""
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
    """Adam over a dict of parameters.

    The moments of all parameters live in one flat buffer each (`m` and `v`
    hold per-parameter views into them), so a step is a dozen passes over
    every parameter at once instead of a dozen per parameter.
    """

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._slices: dict[str, slice] = {}
        size = 0
        for k, p in params.items():
            self._slices[k] = slice(size, size + p.data.size)
            size += p.data.size
        self._m, self._v = np.zeros(size), np.zeros(size)
        self.m = {k: self._m[s].reshape(params[k].shape) for k, s in self._slices.items()}
        self.v = {k: self._v[s].reshape(params[k].shape) for k, s in self._slices.items()}

    def step(self, lr_scale: float = 1.0) -> None:
        """One Adam update, in place, of every parameter from its gradient."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        g = np.concatenate([p.grad.ravel() for p in self.params.values()])
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        np.square(g, out=g)
        g *= 1.0 - self.beta2
        v += g
        denom = v / b2t
        np.sqrt(denom, out=denom)
        denom += self.eps
        update = m / b1t
        update *= self.lr * lr_scale
        update /= denom
        for k, p in self.params.items():
            p.data -= update[self._slices[k]].reshape(p.shape)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_dict(self) -> dict:
        return {"t": self.t,
                "m": {k: v.copy() for k, v in self.m.items()},
                "v": {k: v.copy() for k, v in self.v.items()}}

    def load_state_dict(self, state: dict) -> None:
        self.t = state["t"]
        for k, value in state["m"].items():
            self.m[k][...] = np.asarray(value, dtype=np.float64).reshape(self.m[k].shape)
        for k, value in state["v"].items():
            self.v[k][...] = np.asarray(value, dtype=np.float64).reshape(self.v[k].shape)
