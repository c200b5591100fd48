"""Helpers shared by the test modules: scene transforms, a parameter gradient
check and a scalar probe of a tape op's output."""

import numpy as np

from dyttp import tensor as T
from dyttp.data import Scenario


def translated(sc: Scenario, dx: float, dy: float) -> Scenario:
    """sc with every coordinate shifted by (dx, dy)."""
    shift = np.array([dx, dy])
    return Scenario(sc.agent_histories + shift, sc.agent_valid.copy(),
                    sc.agent_futures + shift, sc.future_valid.copy(),
                    [l + shift for l in sc.lanes], sc.focal_agent, sc.scenario_id)


def permuted(sc: Scenario, order) -> Scenario:
    """sc with its agents in `order`; the focal index follows the focal agent."""
    order = np.asarray(order)
    focal = int(np.argwhere(order == sc.focal_agent)[0, 0])
    return Scenario(sc.agent_histories[order], sc.agent_valid[order],
                    sc.agent_futures[order], sc.future_valid[order],
                    [l.copy() for l in sc.lanes], focal, sc.scenario_id)


def weighted_sum(y, w=1.0):
    """sum(y * w) as a [1, 1] Tensor, on the tape when one is open: y flattened
    to one row times w, broadcast to y's shape, as one column. y's gradient is
    w, exactly."""
    y = y if isinstance(y, T.Tensor) else T.Tensor(y)
    column = np.broadcast_to(np.asarray(w, dtype=np.float64), y.shape).reshape(-1, 1)
    return T.linear(T.reshape(y, (1, -1)), column)


def grad_check_params(model, loss_fn, names=None, h: float = 1e-5) -> dict:
    """{name: max relative error} between tape gradients and central differences.

    loss_fn() computes a scalar Tensor from the model's current parameters.
    One backward pass gives every tape gradient; then each coordinate of each
    named parameter is moved by +h and -h in place and restored. The error
    per coordinate is |analytic - central| / max(1, |analytic|), as in
    tensor.grad_check.
    """
    params = dict(model.named_params())
    model.zero_grad()
    with T.Tape() as tape:
        loss = loss_fn()
    T.backward(loss, tape)
    errors = {}
    for name in (list(params) if names is None else names):
        p = params[name]
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        worst = 0.0
        for i in np.ndindex(p.data.shape):
            orig = p.data[i]
            p.data[i] = orig + h
            fp = loss_fn().item()
            p.data[i] = orig - h
            fm = loss_fn().item()
            p.data[i] = orig
            fd = (fp - fm) / (2.0 * h)
            worst = max(worst, abs(analytic[i] - fd) / max(1.0, abs(analytic[i])))
        errors[name] = worst
    return errors


# the softmax and softplus of the decoder head as single-output tape ops, for
# composites and oracles built from separate ops; each computes as the head does

def softmax(a, axis: int = -1):
    """Softmax along an axis, shifted by the max, as one tape op."""
    a = a if isinstance(a, T.Tensor) else T.Tensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def grads(g, needs):
        return ((g - (g * out).sum(axis=axis, keepdims=True)) * out,)

    return T._op((a,), out, grads)


def softplus(a):
    """max(a, 0) + log1p(exp(-|a|)), exp's input floored at -700, as one tape op."""
    a = a if isinstance(a, T.Tensor) else T.Tensor(a)
    t = np.exp(np.maximum(-np.abs(a.data), -700.0))
    out = np.log1p(t)
    out += np.maximum(a.data, 0.0)

    def grads(g, needs):
        sig = np.where(a.data >= 0.0, 1.0, t)
        sig /= t + 1.0
        return (g * sig,)

    return T._op((a,), out, grads)


def head_of_raw(raw, origins=None, floor: float = 1e-6):
    """The decoder head's (locations, scales, mode probabilities) for output-layer
    values raw [..., K, 4F + 1], a Tensor or an array: zero weights with raw as
    the output bias, so raw reaches the head's split unchanged."""
    raw = raw if isinstance(raw, T.Tensor) else T.Tensor(raw)
    *lead, k, n = raw.shape
    lead = tuple(lead)
    zero_rows = np.zeros(lead + (1,))
    bias = T.reshape(raw, lead + (k * n,))
    return T.decoder_head(zero_rows, np.zeros((1, 1)), np.zeros(1), np.zeros((1, k * n)), bias,
                          np.zeros(2) if origins is None else origins, lead + (k, (n - 1) // 4),
                          floor)
