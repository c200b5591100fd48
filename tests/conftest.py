"""Helpers shared by the test modules: scene transforms and a parameter gradient check."""

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
