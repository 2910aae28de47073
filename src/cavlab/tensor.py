"""Reverse-mode autodiff over float64 numpy arrays.

Small define-by-run tape sized for the control networks in this package:
elementwise + - * / and scalar powers with broadcasting, exp, sums and
reshape. Every other node is fused, with a hand-written backward:
`cavlab.layers` records dense + activation, graph convolution, attention
and the Gaussian log-density as one node each, and `cavlab.trainer` the
TD loss and the clipped PPO surrogate. The attention node's masked softmax
is `softmax_forward` / `softmax_backward` here.

Backward functions compute gradients only for the parents that need one
(a parameter, or a node downstream of one); constants such as the
observations get None, and the graph conv takes the adjacency as no parent
at all.

Finiteness is checked at the boundaries, not after every op: tensor
construction raises NonFiniteValue on NaN/Inf inputs, and the trainer
checks rollout action means, critic values, losses, gradients and
parameters.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording (rollouts, evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def recording() -> bool:
    """Whether ops record tape nodes (outside `no_grad`)."""
    return _grad_enabled


def check_finite(data: np.ndarray, what: str) -> None:
    """Raise NonFiniteValue if `data` holds a NaN or an infinity."""
    if not np.isfinite(data).all():
        raise NonFiniteValue(f"non-finite values produced by {what}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _reduce_last(ufunc, x: np.ndarray) -> np.ndarray:
    """`ufunc.reduce` over the last axis, keeping it as size 1.

    numpy spends about 60 ns per row reducing a short axis, so axes of fewer
    than 8 entries go column by column instead. That is exact for
    `np.maximum`, and for `np.add` it is the same left-to-right sum numpy
    does below 8 terms, so the result is the same bits either way.
    """
    n = x.shape[-1]
    if n >= 8:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = x[..., :1].copy()
    for j in range(1, n):
        ufunc(out, x[..., j:j + 1], out=out)
    return out


def _masked_max(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The largest entry of each row of `x` (last axis, kept as size 1)
    among those where `mask`, broadcast against `x`, is set.

    numpy's masked reduce is fast on the sparse masks of large graphs but
    slow per row on short rows, where adding -inf at the masked entries and
    reducing column by column (`_reduce_last`) is faster.
    """
    if x.shape[-1] >= 8:
        return np.maximum.reduce(x, axis=-1, keepdims=True, where=mask, initial=-np.inf)
    return _reduce_last(np.maximum, x + np.where(mask, 0.0, -np.inf))


def softmax_forward(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, restricted to the entries where `mask` is set.

    Masked entries are exactly zero; every row must have at least one
    unmasked entry. Each row is shifted by its largest unmasked score, which
    leaves the value unchanged: no masked score, however large, can
    underflow the unmasked exps. Masked entries are zeroed before the exp,
    so none overflows either.
    """
    keep = mask.astype(np.float64)
    e = scores - _masked_max(scores, mask)
    e *= keep
    np.exp(e, out=e)
    e *= keep
    e /= _reduce_last(np.add, e)
    return e


def softmax_backward(probs: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the scores of `softmax_forward`, given its output."""
    return probs * (grad - _reduce_last(np.add, grad * probs))


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_needs", "_backward_fn",
                 "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        check_finite(self.data, "tensor construction")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._needs: tuple[bool, ...] = ()
        self._backward_fn = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> "Tensor":
        """Wrap an op's output, recording it on the tape if a parent needs a gradient.

        `backward_fn(grad, needs)` gets the output gradient and, per parent,
        whether that parent needs a gradient; it returns one gradient (or
        None) per parent.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = None
        out.requires_grad = False
        out._parents = ()
        out._needs = ()
        out._backward_fn = None
        if _grad_enabled:
            needs = tuple(p.requires_grad or bool(p._parents) for p in parents)
            if any(needs):
                out._parents = parents
                out._needs = needs
                out._backward_fn = backward_fn
        return out

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        data = self.data + other.data

        def backward(grad, needs):
            return (_unbroadcast(grad, self.shape) if needs[0] else None,
                    _unbroadcast(grad, other.shape) if needs[1] else None)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g, needs: (-g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        data = self.data * other.data

        def backward(grad, needs):
            return (_unbroadcast(grad * other.data, self.shape) if needs[0] else None,
                    _unbroadcast(grad * self.data, other.shape) if needs[1] else None)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        with np.errstate(all="ignore"):  # the boundary checks report blowups
            data = self.data / other.data

        def backward(grad, needs):
            return (_unbroadcast(grad / other.data, self.shape) if needs[0] else None,
                    _unbroadcast(-grad * self.data / other.data ** 2, other.shape)
                    if needs[1] else None)

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise ShapeMismatch("only scalar exponents are supported")
        with np.errstate(all="ignore"):
            data = self.data ** exponent

        def backward(grad, needs):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    def exp(self):
        with np.errstate(all="ignore"):
            data = np.exp(self.data)

        def backward(grad, needs):
            return (grad * data,)

        return Tensor._make(data, (self,), backward)

    # -- sum and reshape ----------------------------------------------------------

    def sum(self):
        """The sum of all entries, a 0-d Tensor."""
        def backward(grad, needs):
            return (np.broadcast_to(grad, self.shape).copy(),)

        return Tensor._make(np.asarray(self.data.sum()), (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def backward(grad, needs):
            return (grad.reshape(old),)

        return Tensor._make(data, (self,), backward)

    # -- backprop --------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        Gradients accumulate on the leaves that require them; the gradients
        of intermediate nodes are dropped once passed on to their parents.
        """
        if self.data.size != 1:
            raise ShapeMismatch("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p, need in zip(node._parents, node._needs):
                if need and id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is None or node.grad is None:
                continue
            grads = node._backward_fn(node.grad, node._needs)
            if node is not self:
                node.grad = None
            for parent, need, g in zip(node._parents, node._needs, grads):
                if not need:
                    continue
                # C order, as later products expect (a view's layout can
                # change which matmul path numpy takes, and its rounding)
                g = np.ascontiguousarray(g, dtype=np.float64).reshape(parent.shape)
                parent.grad = g if parent.grad is None else parent.grad + g


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)

