#!/usr/bin/env python3
"""Tour of the tensor engine: tapes, gradients, and the finite-difference checker.

Everything downstream (layers, backbone, losses) is built from these ops, so
being able to validate any gradient against central differences is the
backbone of the whole test story.
"""

import numpy as np

from dyttp import tensor as T
from dyttp.tensor import Rng, Tape, Tensor, grad_check

print("== forward math ==")
x = Tensor([[1.0, 2.0], [3.0, 4.0]])
y = T.linear(x, Tensor([[5.0], [6.0]]), Tensor([0.5]))
print("[[1,2],[3,4]] @ [[5],[6]] + 0.5 =", y.data.ravel())

z = T.norm(x, (0.5, Tensor([2.0, 1.0]), Tensor([0.0, 1.0]), None))
print("DyT [2, 1] * tanh(0.5 x) + [0, 1] =", np.round(z.data, 4).tolist())


def weighted_sum(t, c):
    """sum(t * c) as a [1, 1] tensor: t flattened to one row, times c as a column."""
    return T.linear(T.reshape(t, (1, -1)), np.reshape(c, (-1, 1)))


print("\n== reverse mode ==")
w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
c = np.array([1.0, 2.0, 3.0])
with Tape() as tape:
    loss = weighted_sum(T.mul(w, w), c)
print("loss = sum(c * w * w) at w =", w.data, "c =", c, "in", len(tape), "tape records")
T.backward(loss, tape)
print("grad =", w.grad, "(exactly 2 c w)")

print("\n== several outputs, one record ==")
raw = np.zeros((1, 2, 5))   # one agent, K = 2 modes of one step: [offset x, y, scale x, y, logit]
raw[0, :, 4] = [np.log(2.0), 0.0]
x_in = Tensor(np.zeros((1, 1)))
with Tape() as tape:
    locations, scales, probs = T.decoder_head(x_in, np.zeros((1, 1)), np.zeros(1),
                                              np.zeros((1, 10)), Tensor(raw.reshape(1, 10), requires_grad=True),
                                              np.array([[3.0, 4.0]]), (1, 2, 1), 1e-6)
print("decoder head, one tape record:", len(tape))
print("mode probabilities of logits [ln 2, 0] =", probs.data, "(exactly [2/3, 1/3])")
print("zero offsets land on the origin:", locations.data[0, 0, 0], "scale:", scales.data[0, 0, 0])

print("\n== a loss term is one op ==")
# two agents of two modes; the first scores mode 0, the second is not scored
p = Tensor(np.array([[0.25, 0.75], [0.5, 0.5]]), requires_grad=True)
with Tape() as tape:
    ce = T.mode_ce(p, np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([True, False]), 1e-12)
T.backward(ce, tape)
print("mode cross-entropy, one record:", len(tape), " value", ce.item(), "(ln 4)")
print("grad =", (p.grad + 0.0).tolist(), "(the unscored agent gets none)")

print("\n== the checker is the oracle ==")
rng = Rng(0)
x0 = Tensor(rng.uniform((8,), -1.0, 1.0))
err = grad_check(lambda t: weighted_sum(T.norm(t, (1.5, 1.0, 0.0, None)), np.ones(8)), x0, h=1e-5)
print(f"sum(tanh(1.5 x)) max relative gradient error: {err:.2e}")

mu, gt = rng.uniform((2, 1, 3, 2), -1.0, 1.0), rng.uniform((2, 1, 3, 2), -1.0, 1.0)
b0 = Tensor(rng.uniform((2, 1, 3, 2), 0.5, 2.0))
err = grad_check(lambda t: T.laplace_nll(mu, t, gt, 1.0, np.array([True, True])), b0, h=1e-5)
print(f"Laplace NLL over its scales, max relative gradient error: {err:.2e}")

print("\n== seeded randomness ==")
a, b = Rng(123), Rng(123)
print("same seed, same stream:", np.array_equal(a.normal((4,)), b.normal((4,))))
print("algorithm id:", Rng.algorithm)
