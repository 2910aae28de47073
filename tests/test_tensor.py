import numpy as np
import pytest

from cavlab.errors import NonFiniteValue, ShapeMismatch
from cavlab.selfcheck import fd_grad, rel_err
from cavlab.tensor import Tensor, no_grad, softmax_forward


def test_sum_of_params_grad_is_one():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    loss = p.sum()
    loss.backward()
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_norm_squared_matches_closed_form():
    rng = np.random.default_rng(0)
    W = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal(3))
    loss = ((W * x) ** 2).sum()
    loss.backward()
    expected = 2.0 * W.data * x.data ** 2
    assert np.allclose(W.grad, expected, atol=1e-12)


def _composite(x, w1, w2):
    """A chain of every general tape op: + - * / ** exp reshape sum."""
    h = (x * w1 - w2 / (w1 * w1 + 1.0)).reshape(-1)
    return ((h * 0.5).exp() + 2.0 - h ** 3 / 10.0).sum()


@pytest.mark.parametrize("seed", range(5))
def test_random_network_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    W1 = rng.standard_normal((3, 5))
    W2 = rng.standard_normal(5)
    x = rng.standard_normal((3, 1))

    def loss_np(w1):
        h = (x * w1 - W2 / (w1 * w1 + 1.0)).reshape(-1)
        return float((np.exp(h * 0.5) + 2.0 - h ** 3 / 10.0).sum())

    w1 = Tensor(W1, requires_grad=True)
    w2 = Tensor(W2, requires_grad=True)
    loss = _composite(Tensor(x), w1, w2)
    assert float(loss.data) == loss_np(W1)
    loss.backward()
    assert rel_err(w1.grad, fd_grad(loss_np, W1)) < 1e-6
    assert rel_err(w2.grad, fd_grad(lambda w: float(
        _composite(Tensor(x), Tensor(W1), Tensor(w)).data), W2)) < 1e-6


def test_broadcast_add_and_mul_grads():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    loss = (a * b + b).sum()
    loss.backward()
    assert np.allclose(a.grad, np.tile(np.arange(3.0), (2, 1)))
    assert np.allclose(b.grad, np.array([2.0, 2.0, 2.0]) + 2.0)  # sum over rows + 2 bias


def test_masked_softmax_rows_sum_to_one_and_mask_exact_zero():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((2, 4, 4))
    mask = rng.random((2, 4, 4)) > 0.4
    mask[:, np.arange(4), np.arange(4)] = True
    phi = softmax_forward(scores, mask)
    assert np.all(phi[~mask] == 0.0)
    assert np.allclose(phi.sum(axis=-1), 1.0, atol=1e-12)


def test_masked_softmax_shifts_by_the_unmasked_maximum():
    # a masked score far above the unmasked ones neither empties nor poisons the row
    phi = softmax_forward(np.array([[0.0, 800.0]]), np.array([[True, False]]))
    assert phi.tolist() == [[1.0, 0.0]]
    phi = softmax_forward(np.array([[-800.0, 0.0, 1.0]]), np.array([[True, False, True]]))
    assert phi[0, 1] == 0.0 and np.isfinite(phi).all()
    assert phi[0, 0] + phi[0, 2] == 1.0
    # rows of 8 or more entries take numpy's masked reduce
    scores, mask = np.zeros((2, 9)), np.ones((2, 9), dtype=bool)
    scores[:, 8], mask[:, 8] = 800.0, False
    assert np.array_equal(softmax_forward(scores, mask), np.where(mask, 1.0 / 8.0, 0.0))


def test_non_finite_forward_raises():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteValue):
            Tensor(np.array([1.0, bad]))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        (x * 2).backward()


def test_disconnected_parameter_gets_no_gradient():
    used = Tensor(np.ones(2), requires_grad=True, name="used")
    unused = Tensor(np.ones(2), requires_grad=True, name="unused")
    used.sum().backward()
    assert unused.grad is None   # the networks' losses reach every parameter
    assert np.array_equal(used.grad, np.ones(2))


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert y._parents == ()


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 1))
    w1, w2 = rng.standard_normal((6, 5)), rng.standard_normal(5)
    r1 = _composite(Tensor(x), Tensor(w1), Tensor(w2)).data
    r2 = _composite(Tensor(x), Tensor(w1), Tensor(w2)).data
    assert np.array_equal(r1, r2)


def test_second_use_of_node_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x  # both parents are the same node
    y.sum().backward()
    assert np.allclose(x.grad, np.array([6.0]))
