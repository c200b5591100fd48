import math

import numpy as np
import pytest

from dyttp import tensor as T
from dyttp.tensor import (
    Rng, Tape, Tensor, abs_, add, backward, clamp_min, div, getitem,
    grad_check, log, mask_fill, matmul, mean, mul, neg, reshape, softmax,
    softplus, sqrt, sub, sum_, tanh, transpose,
)


def test_tanh_zero_is_zero():
    out = tanh(Tensor(np.zeros((3, 4))))
    assert np.array_equal(out.data, np.zeros((3, 4)))


def test_add_identity():
    x = np.array([1.5, -2.0, 7.0])
    out = add(Tensor(x), Tensor(np.zeros(3)))
    assert np.array_equal(out.data, x)


def test_tanh_one_reference_value():
    # reference evaluation via the exponential identity (e^2-1)/(e^2+1)
    ref = (math.exp(2.0) - 1.0) / (math.exp(2.0) + 1.0)
    out = tanh(Tensor(1.0))
    assert abs(out.item() - ref) < 1e-12


def test_matmul_hand_contraction():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    out = matmul(a, b)
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_identity_and_zeros():
    x = np.arange(12.0).reshape(3, 4)
    out = matmul(Tensor(np.eye(3)), Tensor(x))
    assert np.array_equal(out.data, x)
    z = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
    assert np.array_equal(z.data, np.zeros((2, 4)))


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_reduce_examples():
    assert mean(Tensor([2.0, 4.0, 6.0])).item() == 4.0
    assert sum_(Tensor(np.zeros(5))).item() == 0.0


def test_softmax_uniform_and_stability():
    out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    big = softmax(Tensor([1000.0, 0.0]), axis=0)
    assert np.all(np.isfinite(big.data))
    assert big.data[0] > 1.0 - 1e-12 and big.data[1] < 1e-12

    closed = softmax(Tensor([math.log(2.0), 0.0]), axis=0)
    assert np.allclose(closed.data, [2 / 3, 1 / 3], atol=1e-15)


def test_softmax_sums_to_one():
    rng = Rng(7)
    x = rng.normal((4, 6), std=3.0)
    out = softmax(Tensor(x), axis=-1)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax(Tensor([np.inf, 0.0]), axis=0)


def test_domain_errors():
    with pytest.raises(ValueError):
        log(Tensor([1.0, 0.0]))
    with pytest.raises(ValueError):
        div(Tensor([1.0]), Tensor([0.0]))


def test_backward_sum_gives_ones():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        loss = sum_(x)
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_square():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = sum_(mul(x, x))
    backward(loss, tape)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_fanout_accumulates():
    x = Tensor(np.ones(4), requires_grad=True)
    with Tape() as tape:
        loss = sum_(add(x, x))
    backward(loss, tape)
    assert np.array_equal(x.grad, 2.0 * np.ones(4))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ValueError):
        backward(y, tape)


def test_tape_single_use():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        loss = sum_(x)
    backward(loss, tape)
    with pytest.raises(RuntimeError):
        backward(loss, tape)


def test_no_recording_without_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = mul(x, x)
    assert not y.requires_grad


def test_broadcast_backward_unbroadcasts():
    w = Tensor(np.array([2.0]), requires_grad=True)
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        loss = sum_(mul(x, w))
    backward(loss, tape)
    assert w.grad.shape == (1,)
    assert w.grad[0] == x.data.sum()


def test_getitem_backward_scatters():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        loss = sum_(getitem(x, (slice(None), 2)))
    backward(loss, tape)
    expected = np.zeros((3, 4))
    expected[:, 2] = 1.0
    assert np.array_equal(x.grad, expected)


def test_getitem_backward_repeated_rows_add_and_masks_assign():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with Tape() as tape:
        loss = add(sum_(getitem(x, np.array([2, 0, 2]))), sum_(getitem(x, np.array([True, False, True]))))
    backward(loss, tape)
    assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [3.0, 3.0]])


def test_grad_check_exact_for_linear():
    w = np.array([0.3, -1.2, 2.5, 0.0])

    def f(x):
        return sum_(mul(x, w))

    err = grad_check(f, Tensor(np.array([1.0, 2.0, 3.0, 4.0])), h=1e-5)
    assert err < 1e-9


def test_grad_check_tanh_sum():
    rng = Rng(11)
    x = Tensor(rng.uniform((8,), -1.0, 1.0))
    err = grad_check(lambda t: sum_(tanh(t)), x, h=1e-5)
    assert err < 1e-6


# explicit ids, so a case's test name does not change when another case is
# added or removed
UNARY_CASES = [
    pytest.param("tanh", tanh, (-2.0, 2.0), id="tanh-tanh-rng_range0"),
    pytest.param("log", log, (0.2, 2.0), id="log-log-rng_range2"),
    pytest.param("abs", abs_, (0.3, 2.0), id="abs-abs_-rng_range3"),
    pytest.param("softplus", softplus, (-2.0, 2.0), id="softplus-softplus-rng_range4"),
    pytest.param("sqrt", sqrt, (0.2, 2.0), id="sqrt-sqrt-rng_range5"),
    pytest.param("neg", neg, (-2.0, 2.0), id="neg-neg-rng_range6"),
]


@pytest.mark.parametrize("name,fn,rng_range", UNARY_CASES)
def test_grad_check_unary_ops(name, fn, rng_range):
    rng = Rng(sum(map(ord, name)))
    x = Tensor(rng.uniform((2, 5), *rng_range))
    w = rng.uniform((2, 5), -1.0, 1.0)
    err = grad_check(lambda t: sum_(mul(fn(t), w)), x)
    assert err < 1e-4, name


def test_grad_check_binary_and_reductions():
    rng = Rng(23)
    a_fixed = rng.uniform((3, 4), 0.5, 2.0)

    cases = {
        "add": lambda t: sum_(add(t, a_fixed)),
        "sub": lambda t: sum_(sub(a_fixed, t)),
        "mul": lambda t: sum_(mul(t, a_fixed)),
        "div": lambda t: sum_(div(a_fixed, t)),
        "matmul": lambda t: sum_(matmul(t, a_fixed.T)),
        "mean": lambda t: mean(mul(t, t)),
        "softmax": lambda t: sum_(mul(softmax(t, axis=-1), a_fixed)),
        "clamp_min": lambda t: sum_(clamp_min(t, 1.0)),
        "mask_fill": lambda t: sum_(mask_fill(t, a_fixed > 1.0, -3.0)),
        "transpose": lambda t: sum_(mul(transpose(t, (1, 0)), a_fixed.T)),
        "reshape": lambda t: sum_(mul(reshape(t, (4, 3)), 1.5)),
    }
    for name, f in cases.items():
        x = Tensor(rng.uniform((3, 4), 0.6, 1.9))
        err = grad_check(f, x)
        assert err < 1e-4, name


def test_gradient_accumulation_split_batch():
    rng = Rng(3)
    w = Tensor(rng.normal((4,)), requires_grad=True)
    xa = rng.normal((5, 4))
    xb = rng.normal((5, 4))

    def loss_of(x_np):
        return sum_(mul(matmul(Tensor(x_np), reshape(w, (4, 1))), 1.0))

    with Tape() as tape:
        whole = add(loss_of(np.concatenate([xa, xb])), 0.0)
    backward(whole, tape)
    whole_grad = w.grad.copy()

    w.zero_grad()
    with Tape() as tape:
        backward(loss_of(xa), tape)
    with Tape() as tape:
        backward(loss_of(xb), tape)
    assert np.allclose(w.grad, whole_grad, atol=1e-10)


def test_rng_determinism_and_stream():
    a = Rng(42)
    b = Rng(42)
    assert np.array_equal(a.u64(16), b.u64(16))
    assert np.array_equal(a.normal((8,)), b.normal((8,)))
    c = Rng(43)
    assert not np.array_equal(Rng(42).u64(8), c.u64(8))


def test_rng_children_independent():
    base = Rng(5)
    c0, c1 = base.child(0), base.child(1)
    assert not np.array_equal(c0.u64(8), c1.u64(8))
    # deriving a child does not advance the parent
    again = Rng(5).child(0)
    assert np.array_equal(Rng(5).child(0).u64(8), again.u64(8))


def test_rng_uniform_bounds_and_normal_moments():
    rng = Rng(1234)
    u = rng.uniform((20000,), -2.0, 3.0)
    assert u.min() >= -2.0 and u.max() < 3.0
    z = rng.normal((40000,))
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05


def test_rng_permutation_is_permutation():
    rng = Rng(9)
    p = rng.permutation(100)
    assert sorted(p.tolist()) == list(range(100))


def test_tapes_are_thread_local():
    import threading

    results = {}

    def work(tag, seed):
        rng = Rng(seed)
        x = Tensor(rng.normal((16,)), requires_grad=True)
        for _ in range(50):
            with Tape() as tape:
                loss = sum_(mul(tanh(x), x))
            backward(loss, tape)
        results[tag] = (x.grad.copy(), loss.item())

    threads = [threading.Thread(target=work, args=(i, 100 + i)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # each thread's grads equal a serial rerun: no cross-thread interference
    for tag in range(4):
        work_tag = f"serial-{tag}"
        work(work_tag, 100 + tag)
        assert np.array_equal(results[tag][0], results[work_tag][0])
        assert results[tag][1] == results[work_tag][1]


def test_all_names_resolve():
    # perfbench wraps every op listed in __all__, so a stale entry would break it
    for name in T.__all__:
        assert callable(getattr(T, name)), name
