import math

import numpy as np
import pytest

from dyttp import tensor as T
from dyttp.tensor import (
    Rng, Tape, Tensor, add, backward, getitem, grad_check, mul, reshape, transpose,
)

import conftest
from conftest import head_of_raw, weighted_sum


def tanh(x):
    """tanh as DyT with unit alpha and gamma and zero beta."""
    return T.norm(x, (1.0, 1.0, 0.0, None))


def _tensor(a):
    return a if isinstance(a, Tensor) else Tensor(a)


def softmax(t, axis=-1):
    """The decoder head's mode probabilities for mode logits t [..., K]: the
    softmax over the last axis, the only one the head takes."""
    t = _tensor(t)
    assert axis in (-1, t.ndim - 1)
    raw = T.linear(reshape(t, t.shape + (1,)), np.array([[0.0, 0.0, 0.0, 0.0, 1.0]]))
    return head_of_raw(raw)[2]


def softplus(t):
    """The decoder head's scales for scale logits t, one per mode of one step:
    softplus(t) plus the head's 1e-6 floor, elementwise."""
    t = _tensor(t)
    raw = T.linear(reshape(t, t.shape + (1,)), np.array([[0.0, 0.0, 1.0, 0.0, 0.0]]))
    return getitem(head_of_raw(raw)[1], (Ellipsis, 0, 0))


def matmul(a, b):
    """A matrix product as a linear op with no bias."""
    return T.linear(a, b)


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
    # each loss op averages its per-agent term over the picked rows alone
    mu = np.zeros((3, 1, 1, 2))
    mu[1] = 1.0  # 2 * (log(2 * 0.5) + 1 / 0.5) = 4
    mu[2] = 9.0  # not picked
    half = np.full((3, 1, 1, 2), 0.5)
    assert T.laplace_nll(mu, half, 0.0, 1.0, [True, True, False]).item() == 2.0
    probs, onehot = np.array([[0.25, 0.75]] * 3), np.eye(2)[[0, 0, 1]]
    assert T.mode_ce(probs, onehot, [True, True, False], 1e-12).item() == -math.log(0.25)
    with pytest.raises(ValueError, match="at least one scored row"):
        T.mode_ce(probs, onehot, [False] * 3, 1e-12)


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
    raw = np.zeros((2, 5))
    raw[0, 4] = np.inf  # the first mode's logit
    with pytest.raises(ValueError):
        head_of_raw(raw)


def test_domain_errors():
    raw = np.zeros((2, 5))
    raw[0, 4] = np.nan
    with pytest.raises(T.NumericalError):
        head_of_raw(raw)
    x, eye, zero, one = np.ones((1, 2, 2)), np.eye(2), np.zeros(2), np.ones(2)
    with pytest.raises(T.NumericalError):  # every query is inf
        T.attention(x, (0.5, one, zero, None), np.full((2, 2), np.inf), zero, eye, eye, zero,
                    eye, zero, 1)
    with pytest.raises(T.NumericalError):
        T.laplace_nll(np.zeros((1, 1, 2, 2)), np.array([[[[1.0, 0.0]] * 2]]), 0.0, 1.0, [True])


def test_backward_sum_gives_ones():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        loss = weighted_sum(x)
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_square():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = weighted_sum(mul(x, x))
    backward(loss, tape)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_fanout_accumulates():
    x = Tensor(np.ones(4), requires_grad=True)
    with Tape() as tape:
        loss = weighted_sum(add(x, x))
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
        loss = weighted_sum(x)
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
        loss = weighted_sum(mul(x, w))
    backward(loss, tape)
    assert w.grad.shape == (1,)
    assert w.grad[0] == x.data.sum()


def test_getitem_backward_scatters():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        loss = weighted_sum(getitem(x, (slice(None), 2)))
    backward(loss, tape)
    expected = np.zeros((3, 4))
    expected[:, 2] = 1.0
    assert np.array_equal(x.grad, expected)


def test_getitem_backward_masks_assign():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with Tape() as tape:
        loss = add(weighted_sum(getitem(x, 1)),
                   weighted_sum(getitem(x, np.array([True, False, True]))))
    backward(loss, tape)
    assert np.array_equal(x.grad, [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("idx", [np.array([2, 0, 2]), [2, 0, 2], [True, False, True],
                                 (slice(None), np.array([1], dtype=np.uint8)), np.array(1)],
                         ids=["int-array", "list", "bool-list", "uint-array-in-tuple", "int-0d"])
def test_getitem_rejects_integer_array_and_list_indices(idx):
    # either could pick one element twice, whose gradients the backward's
    # assignment would not add up
    with pytest.raises(TypeError, match="no integer-array or list index"):
        getitem(Tensor(np.arange(6.0).reshape(3, 2)), idx)


def test_grad_check_exact_for_linear():
    w = np.array([0.3, -1.2, 2.5, 0.0])

    def f(x):
        return weighted_sum(x, w)

    err = grad_check(f, Tensor(np.array([1.0, 2.0, 3.0, 4.0])), h=1e-5)
    assert err < 1e-9


def test_grad_check_tanh_sum():
    rng = Rng(11)
    x = Tensor(rng.uniform((8,), -1.0, 1.0))
    err = grad_check(lambda t: weighted_sum(tanh(t)), x, h=1e-5)
    assert err < 1e-6


# explicit ids, so a case's test name does not change when another case is
# added or removed
UNARY_CASES = [
    pytest.param("softplus", softplus, (-2.0, 2.0), id="softplus-softplus-rng_range4"),
]


@pytest.mark.parametrize("name,fn,rng_range", UNARY_CASES)
def test_grad_check_unary_ops(name, fn, rng_range):
    rng = Rng(sum(map(ord, name)))
    x = Tensor(rng.uniform((2, 5), *rng_range))
    w = rng.uniform((2, 5), -1.0, 1.0)
    err = grad_check(lambda t: weighted_sum(fn(t), w), x)
    assert err < 1e-4, name


def test_grad_check_binary_and_reductions():
    rng = Rng(23)
    a_fixed = rng.uniform((3, 4), 0.5, 2.0)
    onehot, scales = np.eye(4)[[1, 3, 0]], rng.uniform((3, 1, 2, 2), 0.5, 2.0)

    cases = {
        "add": lambda t: weighted_sum(add(t, a_fixed)),
        "mul": lambda t: weighted_sum(mul(t, a_fixed)),
        "laplace_nll": lambda t: T.laplace_nll(reshape(t, (3, 1, 2, 2)), scales, 1.0, 1.0,
                                               [True, False, True]),
        "mode_ce": lambda t: T.mode_ce(t, onehot, [True, True, False], 1e-12),
        "softmax": lambda t: weighted_sum(softmax(t, axis=-1), a_fixed),
        "transpose": lambda t: weighted_sum(transpose(t, (1, 0)), a_fixed.T),
        "reshape": lambda t: weighted_sum(reshape(t, (4, 3)), 1.5),
    }
    for name, f in cases.items():
        x = Tensor(rng.uniform((3, 4), 0.6, 1.9))
        err = grad_check(f, x)
        assert err < 1e-4, name


# ---------------------------------------------------------------------------
# fused ops against composite oracles in plain numpy

def assert_rel(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def gelu_np(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def feedforward_np(x, w1, b1, w2, b2, keep):
    return (gelu_np(x @ w1 + b1) * keep) @ w2 + b2


def layer_norm_np(x, g, b):
    centered = x - x.mean(axis=-1, keepdims=True)
    return centered / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * g + b


# op, its oracle on one snapshot's parameters, the parameter shapes
PARAM_OPS = {
    "linear": (T.linear, lambda x, w, b: np.einsum("...i,io->...o", x, w) + b, [(5, 6), (6,)]),
    "dyt": (lambda x, a, g, b: T.norm(x, (a, g, b, None)),
            lambda x, a, g, b: g * np.tanh(a * x) + b, [(), (5,), (5,)]),
    "layer_norm": (lambda x, g, b: T.norm(x, (None, g, b, 1e-5)), layer_norm_np, [(5,), (5,)]),
}


@pytest.mark.parametrize("snapshots", [0, 3], ids=["plain", "stacked"])
@pytest.mark.parametrize("name", sorted(PARAM_OPS))
def test_param_ops_match_numpy_oracles(name, snapshots):
    op, oracle, shapes = PARAM_OPS[name]
    rng = Rng(sum(map(ord, name)))
    x = rng.normal((2, 3, 5))
    if not snapshots:
        params = [rng.normal(shape) for shape in shapes]
        assert_rel(op(Tensor(x), *map(Tensor, params)).data, oracle(x, *params))
        return
    params = [rng.normal((snapshots,) + shape) for shape in shapes]
    # lined up as make_ensemble does: unit axes after S up to the activation's rank
    lined_up = [Tensor(p.reshape((snapshots,) + (1,) * (x.ndim - len(shape)) + shape))
                for p, shape in zip(params, shapes)]
    out = op(Tensor(x), *lined_up).data
    for s in range(snapshots):
        assert_rel(out[s], oracle(x, *(p[s] for p in params)))


def lined_up(a, snapshots, rank):
    """[S, *shape] snapshot parameters lined up as make_ensemble does: unit axes
    after S up to rank, the rank of the activation they meet."""
    return a.reshape((snapshots,) + (1,) * (rank - a.ndim + 1) + a.shape[1:])


def norm_np(x, alpha, gamma, beta, eps):
    """DyT with eps None, else LayerNorm with eps."""
    if eps is None:
        return gamma * np.tanh(alpha * x) + beta
    centered = x - x.mean(axis=-1, keepdims=True)
    return centered / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps) * gamma + beta


def draw_norm(rng, kind, snapshots, d):
    """A norm of `kind` for the sublayer ops: (alpha, gamma, beta, eps) as the op
    takes it, plain or lined up as make_ensemble does, and each member's arrays."""
    s = max(snapshots, 1)
    alpha = rng.uniform((s,), 0.3, 1.0) if kind == "dyt" else None
    gamma, beta = rng.uniform((s, d), 0.5, 1.5), rng.uniform((s, d), -0.5, 0.5)
    eps = None if kind == "dyt" else 1e-5
    members = [(None if alpha is None else alpha[j], gamma[j], beta[j], eps) for j in range(s)]
    if not snapshots:
        return members[0], members
    op_alpha = None if alpha is None else alpha.reshape((s, 1, 1, 1))
    return (op_alpha, lined_up(gamma, s, 3), lined_up(beta, s, 3), eps), members


def as_norm(norm):
    """The norm with its arrays as Tensors."""
    alpha, gamma, beta, eps = norm
    return (None if alpha is None else Tensor(alpha), Tensor(gamma), Tensor(beta), eps)


def member(a, j, snapshots):
    """Member j's slice of a multiplier that leads with S when stacked (None stays None)."""
    return None if a is None else (a.reshape((snapshots,) + a.shape[1:])[j] if snapshots else a)


@pytest.mark.parametrize("snapshots", [0, 3], ids=["plain", "stacked"])
def test_feedforward_matches_numpy_oracle(snapshots):
    # x + out_keep * ((gelu(norm(x) @ w1 + b1) * keep) @ w2 + b2), each norm kind
    rng = Rng(17)
    d, hidden = 5, 8
    x = rng.uniform((2, 3, d), -2.0, 2.0)
    s = max(snapshots, 1)
    params = [rng.normal((s, d, hidden)), rng.normal((s, hidden)),
              rng.normal((s, hidden, d)), rng.normal((s, d))]
    op_params = ([lined_up(p, s, x.ndim) for p in params] if snapshots
                 else [p[0] for p in params])
    lead = (snapshots,) * bool(snapshots) + (2,)
    keep = (rng.uniform(lead + (3, hidden)) >= 0.3) / 0.7
    out_keep = (rng.uniform(lead + (3, d)) >= 0.3) / 0.7
    for kind in ("dyt", "layernorm"):
        norm, members = draw_norm(rng, kind, snapshots, d)
        for kp, okp in ((keep, out_keep), (None, None)):
            out = T.feedforward(Tensor(x), as_norm(norm), *map(Tensor, op_params), kp, okp).data
            assert out.shape == lead + (3, d)
            for j in range(s):
                got = out[j] if snapshots else out
                sub = feedforward_np(norm_np(x, *members[j]), *(p[j] for p in params),
                                     1.0 if kp is None else member(kp, j, snapshots))
                want = x + (sub if okp is None else member(okp, j, snapshots) * sub)
                assert_rel(got, want)


def attention_np(q, k, v, heads, mask, keep):
    """One [Tq, D] query block against [Tk, D] keys and values, head by head."""
    hd = q.shape[-1] // heads
    out = np.empty_like(q)
    for h in range(heads):
        cols = slice(h * hd, (h + 1) * hd)
        s = np.where(mask, q[:, cols] @ k[:, cols].T / math.sqrt(hd), -np.inf)
        w = np.exp(s - s.max(axis=1, keepdims=True))
        out[:, cols] = (w / w.sum(axis=1, keepdims=True) * keep[h]) @ v[:, cols]
    return out


def attention_sublayer_np(x, norm, wq, bq, wk, wv, bv, wo, bo, heads, mask, keep, out_keep):
    """Normalize x, project it into queries, keys and values, attend, project the
    context, then add it to x after out_keep."""
    h = norm_np(x, *norm)
    return x + out_keep * (attention_np(h @ wq + bq, h @ wk, h @ wv + bv, heads, mask, keep) @ wo + bo)


def attention_weights(rng, snapshots, d):
    """wq, bq, wk, wv, bv, wo, bo of `snapshots` members (one when 0), and as the op
    takes them: one member's, or all lined up as make_ensemble does."""
    s = max(snapshots, 1)
    w = [rng.normal((s,) + shape, std=0.5)
         for shape in [(d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)]]
    return w, ([lined_up(a, s, 3) for a in w] if snapshots else [a[0] for a in w])


@pytest.mark.parametrize("x_lead,snapshots,mask_lead",
                         [((2,), 0, (2,)), ((2,), 3, (2,)), ((2,), 0, (3, 2))],
                         ids=["plain", "stacked", "mask-adds-axes"])
def test_attention_matches_numpy_oracle(x_lead, snapshots, mask_lead):
    rng = Rng(19)
    heads, t, d = 2, 4, 6
    x = rng.normal(x_lead + (t, d))
    w, op_w = attention_weights(rng, snapshots, d)
    mask = rng.uniform(mask_lead + (t, t)) < 0.6
    mask[..., 0] = True
    out_lead = (snapshots,) * bool(snapshots) + x_lead
    lead = np.broadcast_shapes(out_lead, mask_lead)
    keep = (rng.uniform(lead + (heads, t, t)) >= 0.3) / 0.7
    out_keep = (rng.uniform(lead + (t, d)) >= 0.3) / 0.7
    bx = np.broadcast_to(x, lead + x.shape[-2:])
    bm = np.broadcast_to(mask, lead + mask.shape[-2:])
    ones = np.ones((heads, t, t))
    for kind in ("dyt", "layernorm"):
        norm, members = draw_norm(rng, kind, snapshots, d)
        # with a mask and dropout, then plain softmax attention
        for mk, kp, okp in ((mask, keep, out_keep), (None, None, None)):
            out = T.attention(Tensor(x), as_norm(norm), *map(Tensor, op_w), heads, mk, kp, okp).data
            assert out.shape == np.broadcast_shapes(out_lead, np.shape(mk)[:-2]) + (t, d)
            out = np.broadcast_to(out, lead + (t, d))
            for i in np.ndindex(lead):
                j = i[0] if snapshots else 0
                want = attention_sublayer_np(bx[i], members[j], *(a[j] for a in w), heads,
                                             True if mk is None else bm[i],
                                             ones if kp is None else keep[i],
                                             1.0 if okp is None else out_keep[i])
                assert_rel(out[i], want)


def test_attention_with_mostly_blocked_keys_matches_oracle_and_ignores_them():
    # about 85% of the keys blocked, as in a training batch's agent-agent stage:
    # keys 8..19 are blocked for every query, keys 0..7 for about 70% of them
    rng = Rng(23)
    heads, tq, tk, d = 2, 6, 20, 4
    q, k, v = rng.normal((2, tq, d)), rng.normal((2, tk, d)), rng.normal((2, tk, d))
    mask = np.zeros((2, tq, tk), dtype=bool)
    mask[..., :8] = rng.uniform((2, tq, 8)) < 0.3
    mask[..., 0] = True
    # in query row 0, key 1's logit sits 720 below key 0's in both heads: the
    # oracle's weight is a denormal, the op's about 1e-131, its logit clipped at -300
    mask[0, 0, :] = False
    mask[0, 0, :2] = True
    q[0, 0] = [1.0, 0.0, 1.0, 0.0]
    k[0, 0] = [3.0, 0.0, 3.0, 0.0]
    k[0, 1] = [3.0 - 720.0 * math.sqrt(2.0), 0.0, 3.0 - 720.0 * math.sqrt(2.0), 0.0]
    keep = (rng.uniform((2, heads, tq, tk)) >= 0.1) / 0.9
    assert 0.8 <= 1.0 - mask.mean() <= 0.9
    out, _ = T._attend(q, k, v, heads, mask, keep)
    for i in range(2):
        assert_rel(out[i], attention_np(q[i], k[i], v[i], heads, mask[i], keep[i]))

    # the k and v rows of keys blocked for every query change nothing, bit for bit
    k2, v2 = k.copy(), v.copy()
    k2[:, 8:] = rng.normal((2, tk - 8, d), std=1e3)
    v2[:, 8:] = rng.normal((2, tk - 8, d), std=1e3)
    again, _ = T._attend(q, k2, v2, heads, mask, keep)
    assert again.tobytes() == out.tobytes()

    # and get a gradient of exactly zero
    _, grads = T._attend(q, k, v, heads, mask, keep)
    _, gk, gv = grads(rng.normal((2, tq, d)), (True, True, True))
    assert not np.any(gv[:, 8:]) and not np.any(gk[:, 8:])
    assert np.all(np.abs(gv[:, 0]).sum(-1) > 0)


def memory_attention_np(x, norm, memory, memory_norm, wq, bq, wk, wv, bv, wo, bo, heads,
                        mask, keep, out_keep):
    """Normalize x and the memory, project them into queries, keys and values,
    attend, project the context, then add it to x after out_keep."""
    h, m = norm_np(x, *norm), norm_np(memory, *memory_norm)
    return x + out_keep * (attention_np(h @ wq + bq, m @ wk, m @ wv + bv, heads, mask, keep) @ wo + bo)


@pytest.mark.parametrize("q_lead,mem_lead,snapshots,mask_lead",
                         [((2,), (2,), 0, (2,)), ((3, 2), (1, 2), 3, (2,)), ((2,), (2,), 0, (3, 2))],
                         ids=["plain", "stacked", "mask-adds-axes"])
@pytest.mark.parametrize("tq", [1, 3])
def test_memory_attention_matches_numpy_oracle(q_lead, mem_lead, snapshots, mask_lead, tq):
    rng = Rng(29)
    heads, tk, d = 2, 4, 6
    x, memory = rng.normal(q_lead + (tq, d)), rng.normal(mem_lead + (tk, d))
    w, op_w = attention_weights(rng, snapshots, d)
    mask = rng.uniform(mask_lead + (tq, tk)) < 0.6
    mask[..., 0] = True
    lead = np.broadcast_shapes(q_lead, mem_lead, mask_lead)
    keep = (rng.uniform(lead + (heads, tq, tk)) >= 0.3) / 0.7
    out_keep = (rng.uniform(lead + (tq, d)) >= 0.3) / 0.7
    bx, bm = np.broadcast_to(x, lead + x.shape[-2:]), np.broadcast_to(memory, lead + memory.shape[-2:])
    bmask = np.broadcast_to(mask, lead + mask.shape[-2:])
    ones = np.ones((heads, tq, tk))
    for kind in ("dyt", "layernorm"):
        norm, members = draw_norm(rng, kind, snapshots, d)
        memory_norm, memory_members = draw_norm(rng, kind, snapshots, d)
        # with a mask and dropout, then plain softmax attention
        for mk, kp, okp in ((mask, keep, out_keep), (None, None, None)):
            out = T.memory_attention(Tensor(x), as_norm(norm), Tensor(memory), as_norm(memory_norm),
                                     *map(Tensor, op_w), heads, mk, kp, okp).data
            assert out.shape == np.broadcast_shapes(q_lead, mem_lead, np.shape(mk)[:-2]) + (tq, d)
            out = np.broadcast_to(out, lead + (tq, d))
            for i in np.ndindex(lead):
                j = i[0] if snapshots else 0
                want = memory_attention_np(bx[i], members[j], bm[i], memory_members[j],
                                           *(a[j] for a in w), heads,
                                           True if mk is None else bmask[i],
                                           ones if kp is None else keep[i],
                                           1.0 if okp is None else out_keep[i])
                assert_rel(out[i], want)


def test_memory_attention_ignores_blocked_memory_rows():
    # rows of the memory blocked for every query change nothing, bit for bit,
    # and get a gradient of exactly zero; dropout keeps the bias term live
    rng = Rng(31)
    heads, tk, d = 2, 12, 4
    q, memory = rng.normal((3, 1, d)), rng.normal((3, tk, d))
    norm = (0.7, rng.uniform((d,), 0.5, 1.5), rng.normal((d,)), None)
    memory_norm = (0.6, rng.uniform((d,), 0.5, 1.5), rng.normal((d,)), None)
    w = (rng.normal((d, d)), rng.normal((d,)),                          # wq, bq
         rng.normal((d, d)), rng.normal((d, d)), rng.normal((d,)),      # wk, wv, bv
         rng.normal((d, d)), rng.normal((d,)))                          # wo, bo
    mask = np.zeros((3, 1, tk), dtype=bool)
    mask[..., :5] = rng.uniform((3, 1, 5)) < 0.6
    mask[..., 0] = True
    keep = (rng.uniform((3, heads, 1, tk)) >= 0.2) / 0.8
    out = T.memory_attention(q, norm, memory, memory_norm, *w, heads, mask, keep).data
    changed = memory.copy()
    changed[:, 5:] = rng.normal((3, tk - 5, d), std=1e3)
    again = T.memory_attention(q, norm, changed, memory_norm, *w, heads, mask, keep).data
    assert again.tobytes() == out.tobytes()

    mt = Tensor(changed, requires_grad=True)
    with Tape() as tape:
        loss = weighted_sum(T.memory_attention(q, norm, mt, memory_norm, *w, heads, mask, keep),
                            rng.normal((3, 1, d)))
    backward(loss, tape)
    assert not np.any(mt.grad[:, 5:])
    assert np.all(np.abs(mt.grad[:, 0]).sum(-1) > 0)


def test_attention_rejects_a_query_with_no_keys():
    x, eye, zero = np.ones((1, 2, 2)), np.eye(2), np.zeros(2)
    with pytest.raises(ValueError, match="no keys"):
        T.attention(x, (0.5, np.ones(2), zero, None), eye, zero, eye, eye, zero, eye, zero, 1,
                    np.array([[[True, False], [False, False]]]))


# the tape composites the fused ops replaced: the norm op, linear projections
# around one record of the attention kernel (or linear, gelu, the dropout mul
# and linear), the residual's dropout mul and add; and the decoder head's
# feed-forward, slicing ops, softplus and softmax

def norm_composite(x, norm):
    return T.norm(x, norm)


def normalize_composite(x, norm):
    """The norm's map without its affine, as one op: DyT's with unit gamma and
    zero beta, LayerNorm's x-hat as norm's grads compute it"""
    alpha, _, _, eps = norm
    if eps is None:
        return T.norm(x, (alpha, 1.0, 0.0, None))
    xhat, grad = T._normalize(x.data, None, eps)
    return T._op((x,), xhat, lambda g, needs: (grad(g, True, False)[0],))


def residual_composite(x, out, out_keep):
    return T.add(x, out if out_keep is None else mul(out, out_keep))


def attention_composite(x, norm, wq, bq, wk, wv, bv, wo, bo, heads, mask, keep, out_keep):
    h = norm_composite(x, norm)
    q, k, v = T.linear(h, wq, bq), T.linear(h, wk), T.linear(h, wv, bv)
    ctx = T._op((q, k, v), *T._attend(q.data, k.data, v.data, heads, mask, keep))
    return residual_composite(x, T.linear(ctx, wo, bo), out_keep)


def memory_attention_composite(x, norm, memory, memory_norm, wq, bq, wk, wv, bv, wo, bo, heads,
                               mask, keep, out_keep):
    args = (T.linear(norm_composite(x, norm), wq, bq), normalize_composite(memory, memory_norm),
            memory_norm[1], memory_norm[2], wk, wv, bv)
    ctx = T._op(args, *T._memory_read(*(a.data for a in args), heads, mask, keep))
    return residual_composite(x, T.linear(ctx, wo, bo), out_keep)


def feedforward_head_composite(x, w1, b1, w2, b2, keep=None):
    hidden = T.linear(x, w1, b1)
    out, grad = T._gelu(hidden.data)
    act = T._op((hidden,), out, lambda g, needs: (grad(g),))
    return T.linear(act if keep is None else mul(act, keep), w2, b2)


def feedforward_composite(x, norm, w1, b1, w2, b2, keep, out_keep):
    return residual_composite(
        x, feedforward_head_composite(norm_composite(x, norm), w1, b1, w2, b2, keep), out_keep)


def sublayer_case(name, snapshots, kind, shared=False):
    """The op, its composite, its input arrays and a call (op, inputs, masked) ->
    output for one sublayer op: width 4, 2 heads, a norm of `kind` and, when
    masked, a mask and dropout multipliers of the attention weights or hidden
    activation and of the output. shared: memory attention reads its memory
    through the query norm, as a block with no norm of its own for it does."""
    rng = Rng(47)
    d, heads, t, tk = 4, 2, 3, 5
    s = max(snapshots, 1)
    lead = (snapshots,) * bool(snapshots) + (2,)

    def params(*shapes):
        ps = [rng.uniform((s,) + shape, -1, 1) for shape in shapes]
        return [lined_up(p, s, 3) if snapshots else p[0] for p in ps]

    def keep(shape):
        return (rng.uniform(lead + shape) >= 0.2) / 0.8

    def norm_arrays():
        arrays = params((d,), (d,))
        arrays[0] = arrays[0] * 0.5 + 1.0                      # gamma in [0.5, 1.5]
        if kind == "dyt":
            alpha = rng.uniform((s,), 0.3, 1.0)
            arrays.insert(0, alpha.reshape((s, 1, 1, 1)) if snapshots else alpha[0])
        return arrays

    def as_norm_tuple(ts):  # the op's norm from the norm's input Tensors
        return (ts[0], ts[1], ts[2], None) if kind == "dyt" else (None, ts[0], ts[1], 1e-5)

    n = 3 if kind == "dyt" else 2
    x = rng.uniform((2, t, d), -1, 1)
    out_keep = keep((t, d))
    mask = rng.uniform((2, t, t)) < 0.6
    mask[..., 0] = True
    if name == "feedforward":
        kp = keep((t, 2 * d))
        return (T.feedforward, feedforward_composite,
                [x] + norm_arrays() + params((d, 2 * d), (2 * d,), (2 * d, d), (d,)),
                lambda op, a, masked: op(a[0], as_norm_tuple(a[1:1 + n]), *a[1 + n:],
                                         kp if masked else None, out_keep if masked else None))
    if name == "attention":
        kp = keep((heads, t, t))
        return (T.attention, attention_composite,
                [x] + norm_arrays() + params((d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)),
                lambda op, a, masked: op(a[0], as_norm_tuple(a[1:1 + n]), *a[1 + n:], heads,
                                         *((mask, kp, out_keep) if masked else (None, None, None))))
    memory = rng.uniform((2, tk, d), -1, 1)
    mmask = rng.uniform((2, t, tk)) < 0.6
    mmask[..., 0] = True
    kp = keep((heads, t, tk))
    # x, the query norm, the memory norm unless shared, the memory, the weights
    norms = norm_arrays() + ([] if shared else norm_arrays())
    at = 1 + len(norms)  # the memory's index

    def call(op, a, masked):
        norm = as_norm_tuple(a[1:1 + n])
        memory_norm = norm if shared else as_norm_tuple(a[1 + n:at])
        return op(a[0], norm, a[at], memory_norm, *a[at + 1:], heads,
                  *((mmask, kp, out_keep) if masked else (None, None, None)))

    return (T.memory_attention, memory_attention_composite,
            [x] + norms + [memory] + params((d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)),
            call)


def records_output_and_grads(call, fn, arrays, masked, weight_seed=53):
    """The tape records, output and every input gradient of call(fn, inputs, masked)
    under a fixed projection to a scalar."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = call(fn, inputs, masked)
        records = len(tape)
        loss = weighted_sum(out, Rng(weight_seed).normal(out.shape))
    backward(loss, tape)
    return records, out.data, [t.grad for t in inputs]


def assert_grads_close(got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        assert (g is None) == (w is None), i
        if w is not None:
            assert g.shape == w.shape, i
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), i


@pytest.mark.parametrize("snapshots", [0, 3], ids=["plain", "stacked"])
@pytest.mark.parametrize("name", ["attention", "memory_attention", "feedforward"])
def test_sublayer_ops_equal_their_tape_composites(name, snapshots):
    # one record in place of several, the same output bits, the same gradients:
    # each norm kind, with and without a mask and dropout; memory attention also
    # with its memory read through the query norm
    for kind in ("dyt", "layernorm"):
        for shared in ((False, True) if name == "memory_attention" else (False,)):
            op, composite, arrays, call = sublayer_case(name, snapshots, kind, shared)
            for masked in (True, False):
                got_records, got, got_grads = records_output_and_grads(call, op, arrays, masked)
                want_records, want, want_grads = records_output_and_grads(call, composite, arrays,
                                                                          masked)
                assert got_records == 1 and want_records > 1
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert_grads_close(got_grads, want_grads)


def decoder_head_composite(x, w1, b1, w2, b2, origins, shape, floor):
    """The decoder head as the separate ops it replaced."""
    *lead, k, f = shape
    lead = tuple(lead)
    raw = T.reshape(feedforward_head_composite(x, w1, b1, w2, b2), lead + (k, 4 * f + 1))
    offsets = T.reshape(getitem(raw, (Ellipsis, slice(0, 2 * f))), lead + (k, f, 2))
    locations = add(offsets, origins[..., None, None, :])
    scale_raw = T.reshape(getitem(raw, (Ellipsis, slice(2 * f, 4 * f))), lead + (k, f, 2))
    scales = add(conftest.softplus(scale_raw), floor)
    probs = conftest.softmax(getitem(raw, (Ellipsis, 4 * f)), axis=-1)
    return locations, scales, probs


def head_case(snapshots):
    """The head's input arrays (x [.., 1, A, D] and its weights, plain or lined up
    as make_ensemble does), origins and output shape: width 4, 3 agents, K = 2, F = 3."""
    rng = Rng(59)
    d, a, k, f = 4, 3, 2, 3
    s = max(snapshots, 1)
    ws = [rng.uniform((s,) + shape, -1, 1) for shape in [(d, 2 * d), (2 * d,),
                                                         (2 * d, k * (4 * f + 1)), (k * (4 * f + 1),)]]
    ws = [lined_up(w, s, 3) if snapshots else w[0] for w in ws]
    x = rng.uniform((1, a, d), -2, 2)
    origins = rng.uniform((a, 2), -50, 50)
    lead = (snapshots,) * bool(snapshots) + (a,)
    return [x] + ws, origins, lead + (k, f)


@pytest.mark.parametrize("snapshots", [0, 3], ids=["plain", "stacked"])
def test_decoder_head_equals_its_tape_composite(snapshots):
    # one record with three outputs in place of eleven ops: the same output bits
    # and the same input gradients, whichever outputs the loss reads
    arrays, origins, shape = head_case(snapshots)
    rows = shape[:-1]  # [..., A, K]
    weights = [Rng(61).normal(rows + (shape[-1], 2)), Rng(62).normal(rows + (shape[-1], 2)),
               Rng(63).normal(rows)]

    def run(fn, used):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            outs = fn(*inputs, origins, shape, 1e-6)
            records = len(tape)
            loss = Tensor(0.0)
            for i in used:
                loss = add(loss, weighted_sum(outs[i], weights[i]))
        backward(loss, tape)
        return records, [o.data for o in outs], [t.grad for t in inputs]

    for used in ((0, 1, 2), (2, 0), (1,), (0,), (2,)):
        got_records, got, got_grads = run(T.decoder_head, used)
        want_records, want, want_grads = run(decoder_head_composite, used)
        assert got_records == 1 and want_records > 1
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert_grads_close(got_grads, want_grads)


def test_decoder_head_softplus_and_softmax_far_out():
    # scale logits far out on both sides stay finite, their gradient is the
    # sigmoid; mode logits 1000 apart keep a finite softmax
    raw = np.zeros((1, 2, 5))
    raw[0, :, 2:4] = [[-800.0, -700.5], [700.5, 800.0]]
    raw[0, :, 4] = [1000.0, 0.0]
    rt = Tensor(raw, requires_grad=True)
    with Tape() as tape:
        _, scales, probs = head_of_raw(rt)
        loss = add(weighted_sum(scales), weighted_sum(probs, np.array([1.0, -1.0])))
    backward(loss, tape)
    assert np.array_equal(scales.data[0, :, 0], [[1e-6, 1e-6], [700.5 + 1e-6, 800.0 + 1e-6]])
    assert np.array_equal(probs.data, [[1.0, 0.0]])
    assert np.all(np.isfinite(rt.grad))
    assert rt.grad[0, 1, 3] == 1.0 and 0.0 < rt.grad[0, 0, 2] < 1e-300


def test_multi_output_record_replays_once_with_every_gradient():
    # one record with two outputs: its backward runs once, after every consumer
    # of either output, with None for an output nothing read; the outputs can be
    # consumed in either order, and a record none of whose outputs is read is skipped
    calls = []

    def twice_and_thrice(x):
        def grads(gs, needs):
            calls.append(tuple(g is None for g in gs))
            g2, g3 = gs
            total = np.zeros_like(x.data)
            if g2 is not None:
                total += 2.0 * g2
            if g3 is not None:
                total += 3.0 * g3
            return (total,)

        return T._op((x,), (x.data * 2.0, x.data * 3.0), grads)

    cases = {(0,): [10.0, 10.0], (1,): [21.0, 21.0], (0, 1): [31.0, 31.0], (1, 0): [31.0, 31.0],
             (0, 1, 0): [41.0, 41.0]}
    for used, want in cases.items():
        calls.clear()
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        with Tape() as tape:
            outs = twice_and_thrice(x)
            loss = Tensor(0.0)
            for i in used:
                loss = add(loss, weighted_sum(outs[i], (5.0, 7.0)[i]))
            assert len(tape) == 1 + 3 * len(used)
        backward(loss, tape)
        assert np.array_equal(x.grad, want), used
        assert calls == [(0 not in used, 1 not in used)], used
    calls.clear()
    x = Tensor(np.array([1.0]), requires_grad=True)
    with Tape() as tape:
        twice_and_thrice(x)
        loss = weighted_sum(x, 4.0)
    backward(loss, tape)
    assert calls == [] and np.array_equal(x.grad, [4.0])


def softmax_np(scores, mask):
    """Softmax over the last axis, each row shifted by its attended max."""
    s = np.where(mask, scores, -np.inf)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_regime_logits(rng, lead, heads, tq, tk):
    """Logits on a 1/64 grid, so the oracle's shift is exact, one regime per
    row: in range, above the exp ceiling, every logit below -600, and mixed
    rows that span far more than exp's range in both directions."""
    scores = rng.uniform(lead + (heads, tq, tk), -4.0, 4.0)
    offsets = [0.0, 150.0, -150.0, 250.0, -250.0, 320.0, 900.0, -650.0, -1000.0]
    scores += np.resize(offsets, lead + (heads, tq))[..., None]
    scores[..., 0, 0, :] = np.linspace(-800.0, 280.0, tk)   # unshifted, clipped below
    scores[..., 1, 1, :] = np.linspace(-900.0, 650.0, tk)   # shifted, clipped below
    return np.round(scores * 64.0) / 64.0


def assert_softmax_close(got, scores, mask):
    want = softmax_np(scores, mask)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-15 * want.max(axis=-1, keepdims=True))
    assert not np.any(got[~np.broadcast_to(mask, got.shape)])


@pytest.mark.parametrize("mask_lead", [None, (2,), (3, 2)],
                         ids=["no-mask", "mask", "mask-adds-axes"])
def test_masked_softmax_regimes_match_row_shifted_oracle(mask_lead):
    rng = Rng(37)
    heads, tq, tk = 3, 5, 9
    scores = softmax_regime_logits(rng, (2,), heads, tq, tk)
    attended_max = scores.max(axis=-1)
    assert attended_max.max() > 600.0 and attended_max.min() < -600.0
    mask = None
    if mask_lead is not None:
        mask = rng.uniform(mask_lead + (tq, tk)) < 0.6
        mask[..., 0] = True
    with np.errstate(all="raise"):
        got = T._masked_softmax(scores.copy(), mask)
    assert_softmax_close(got, scores, True if mask is None else mask[..., None, :, :])


def test_masked_softmax_rows_are_independent():
    # pushing one row's logits across either threshold, or a blocked logit far
    # above the ceiling, leaves every other row bit-identical
    rng = Rng(41)
    heads, tq, tk = 3, 4, 7
    scores = np.round(rng.uniform((2, heads, tq, tk), -4.0, 4.0) * 64.0) / 64.0
    mask = rng.uniform((2, tq, tk)) < 0.6
    mask[..., 0] = mask[..., 1] = True
    mask[1, 2, -1] = False
    with np.errstate(all="raise"):
        base = T._masked_softmax(scores.copy(), mask)
    row = (1, 0, 2)
    others = np.ones(base.shape[:-1], dtype=bool)
    others[row] = False
    for push in ("above", "below", "blocked"):
        pushed = scores.copy()
        if push == "blocked":
            pushed[row + (tk - 1,)] = 1e6
        else:
            pushed[row] += 700.0 if push == "above" else -700.0
        with np.errstate(all="raise"):
            got = T._masked_softmax(pushed.copy(), mask)
        assert got[others].tobytes() == base[others].tobytes(), push
        assert_softmax_close(got, pushed, mask[:, None])


@pytest.mark.parametrize("rows", [[True] * 4, [True, False, True, True]], ids=["plain", "rows"])
def test_laplace_nll_matches_numpy_oracle(rows):
    rng = Rng(21)
    a, k, f = 4, 3, 5
    mu = rng.normal((a, k, f, 2))
    b = rng.uniform((a, k, f, 2), 0.2, 2.0)
    gt = rng.normal((a, 1, f, 2))
    weight = rng.uniform((a, k, f, 1)) < 0.5
    mt, bt = Tensor(mu, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = T.laplace_nll(mt, bt, gt, weight, rows)
    backward(out, tape)
    picked = np.flatnonzero(rows)
    terms = weight * (np.log(2.0 * b) + np.abs(gt - mu) / b)
    want = np.mean([terms[i].sum() for i in picked])
    assert abs(out.item() - want) <= 1e-12 * abs(want)
    # each picked agent's weighted terms, over the number picked
    on = np.isin(np.arange(a), picked)[:, None, None, None] * weight / len(picked)
    assert_rel(mt.grad, on * np.sign(mu - gt) / b)
    assert_rel(bt.grad, on * (1.0 - np.abs(gt - mu) / b) / b)


def test_mode_ce_matches_numpy_oracle():
    # row 1 is not picked; row 2's chosen probability sits under the floor, so
    # it scores -log(floor) and passes no gradient
    probs = np.array([[0.2, 0.8], [0.6, 0.4], [1e-14, 1.0], [0.3, 0.7]])
    onehot = np.eye(2)[[1, 0, 0, 1]]
    pt = Tensor(probs, requires_grad=True)
    with Tape() as tape:
        out = T.mode_ce(pt, onehot, [True, False, True, True], 1e-12)
    backward(out, tape)
    want = -(math.log(0.8) + math.log(1e-12) + math.log(0.7)) / 3.0
    assert abs(out.item() - want) <= 1e-15 * want
    grad = np.zeros((4, 2))
    grad[0, 1], grad[3, 1] = -1.0 / (3.0 * 0.8), -1.0 / (3.0 * 0.7)
    assert np.abs(pt.grad - grad).max() <= 1e-15


def test_gradient_accumulation_split_batch():
    rng = Rng(3)
    w = Tensor(rng.normal((4,)), requires_grad=True)
    xa = rng.normal((5, 4))
    xb = rng.normal((5, 4))

    def loss_of(x_np):
        return weighted_sum(matmul(Tensor(x_np), reshape(w, (4, 1))), 1.0)

    with Tape() as tape:
        whole = add(loss_of(np.concatenate([xa, xb])), 0.0)
    backward(whole, tape)
    whole_grad = w.grad.copy()

    w.grad = None
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


def test_rng_matches_splitmix64_reference_outputs():
    # splitmix64's published outputs for seeds 0 and 1234567
    assert Rng(0).u64(3).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                      0x06C45D188009454F]
    assert Rng(1234567).u64(3).tolist() == [0x599ED017FB08FC85, 0x2C73F08458540FA5,
                                            0x883EBCE5A3F27C77]
    # drawing in pieces continues the same stream
    rng = Rng(0)
    assert rng.u64(1).tolist() + rng.u64(2).tolist() == Rng(0).u64(3).tolist()


def test_scalar_and_vector_draws_read_one_stream():
    # shape () runs on Python ints, any other shape on numpy arrays
    scalar, vector = Rng(77), Rng(77)
    us = [scalar.uniform((), -2.5, 7.0) for _ in range(200)]
    assert all(type(u) is float for u in us)
    assert us == vector.uniform((200,), -2.5, 7.0).tolist()
    ks = [scalar.integers(29) for _ in range(200)]
    assert all(type(k) is int for k in ks)
    assert ks == vector.integers(29, (200,)).tolist()
    assert type(scalar.next_u64()) is int

    # scalar draws interleaved with u64, skip and child continue the reference
    # stream of test_rng_matches_splitmix64_reference_outputs
    ref = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    rng = Rng(0)
    assert rng.next_u64() == ref[0]
    assert rng.child(7).u64(1).tolist() == [0xBF57E24198B025B4]  # and leaves rng where it was
    assert rng.uniform(()) == (ref[1] >> 11) * 2.0 ** -53
    assert rng.integers(1000) == ref[2] % 1000
    ref = [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]
    rng = Rng(1234567)
    rng.skip(1)
    assert rng.integers(2**40) == ref[1] % 2**40
    assert rng.u64(1).tolist() == [ref[2]]
    # child values as numpy computed them; keys wrap modulo 2**64
    assert Rng(0).child(2**64 + 7).u64(1).tolist() == [0xF33DC6BD55FFA86B]
    assert Rng(1234567).child(5).u64(2).tolist() == [0x9C16B49893DEBF17, 0x29E7B0E4EB187915]


def test_rng_permutation_is_permutation():
    rng = Rng(9)
    p = rng.permutation(100)
    assert sorted(p.tolist()) == list(range(100))


def test_nested_tape_records_into_the_innermost():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as outer:
        add(x, 1.0)
        with Tape() as inner:
            mul(x, 2.0)
        reshape(x, (3, 1))
    assert (len(outer), len(inner)) == (2, 1)
    add(x, 1.0)  # no tape open: nothing records
    assert (len(outer), len(inner)) == (2, 1)
    with pytest.raises(AssertionError):
        with Tape():
            outer.__exit__(None, None, None)


def test_tapes_are_thread_local():
    import threading

    results = {}

    def work(tag, seed):
        rng = Rng(seed)
        x = Tensor(rng.normal((16,)), requires_grad=True)
        for _ in range(50):
            with Tape() as tape:
                loss = weighted_sum(mul(softplus(x), x))
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


def test_every_op_has_a_library_caller():
    # an op that only tests call is dead weight: the library reaches each op
    # through `tensor as <alias>` attribute calls or `from .tensor import`
    import ast
    from pathlib import Path

    src = Path(T.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name == "tensor.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "tensor":
                used.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
                aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
        used.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases)
    not_ops = {"Tensor", "Tape", "Rng", "NumericalError", "backward", "grad_check"}
    unused = set(T.__all__) - not_ops - used
    assert not unused, f"ops no library module calls: {sorted(unused)}"


def test_every_library_name_has_a_caller_outside_the_tests():
    # a function, class or method that only tests reach is dead weight. A name
    # counts as reached when src/, demos/ or perfbench/ mentions it as a bare
    # name, an attribute or a `from ... import`. Matching is by name alone, so
    # the check is approximate: a method shares its callers with every other
    # definition of the same name, and a call through getattr is not seen
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in (p for d in ("src", "demos", "perfbench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)

    defined = []
    for path in sorted((root / "src" / "dyttp").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node))
            if isinstance(node, ast.ClassDef):
                defined.extend((path.name, m) for m in node.body
                               if isinstance(m, ast.FunctionDef)
                               and not (m.name.startswith("__") and m.name.endswith("__")))
    uncalled = [f"{file}:{node.lineno} {node.name}" for file, node in defined
                if node.name not in used]
    assert not uncalled, f"names with no caller outside the tests: {uncalled}"
