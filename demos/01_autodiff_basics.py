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

s = T.softmax(Tensor([np.log(2.0), 0.0]), axis=0)
print("softmax([ln 2, 0]) =", s.data, "(exactly [2/3, 1/3])")

print("\n== reverse mode ==")
w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
with Tape() as tape:
    loss = T.sum_(T.mul(T.softplus(w), w))
T.backward(loss, tape)
print("loss = sum(w * softplus(w)) at w =", w.data)
print("grad =", w.grad)

print("\n== the checker is the oracle ==")
rng = Rng(0)
x0 = Tensor(rng.uniform((8,), -1.0, 1.0))
err = grad_check(lambda t: T.sum_(T.dyt(t, 1.5)), x0, h=1e-5)
print(f"sum(tanh(1.5 x)) max relative gradient error: {err:.2e}")

err = grad_check(lambda t: T.mean(T.softplus(T.mul(t, t))), x0, h=1e-5)
print(f"mean(softplus(x*x)) max relative gradient error: {err:.2e}")

print("\n== seeded randomness ==")
a, b = Rng(123), Rng(123)
print("same seed, same stream:", np.array_equal(a.normal((4,)), b.normal((4,))))
print("algorithm id:", Rng.algorithm)
