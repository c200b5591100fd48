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

z = T.dyt(x, 0.5, Tensor([2.0, 1.0]), Tensor([0.0, 1.0]))
print("DyT [2, 1] * tanh(0.5 x) + [0, 1] =", np.round(z.data, 4).tolist())

print("\n== reverse mode ==")
w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
with Tape() as tape:
    loss = T.sum_(T.mul(T.log(T.mul(w, w)), w))
T.backward(loss, tape)
print("loss = sum(w * log(w * w)) at w =", w.data)
print("grad =", w.grad, "(exactly log(w * w) + 2)")

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

print("\n== the checker is the oracle ==")
rng = Rng(0)
x0 = Tensor(rng.uniform((8,), -1.0, 1.0))
err = grad_check(lambda t: T.sum_(T.dyt(t, 1.5, 1.0, 0.0)), x0, h=1e-5)
print(f"sum(tanh(1.5 x)) max relative gradient error: {err:.2e}")

err = grad_check(lambda t: T.mean(T.log(T.add(T.mul(t, t), 1.0))), x0, h=1e-5)
print(f"mean(log(x*x + 1)) max relative gradient error: {err:.2e}")

print("\n== seeded randomness ==")
a, b = Rng(123), Rng(123)
print("same seed, same stream:", np.array_equal(a.normal((4,)), b.normal((4,))))
print("algorithm id:", Rng.algorithm)
