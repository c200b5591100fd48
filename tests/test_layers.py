import math

import numpy as np
import pytest

from dyttp import tensor as T
from dyttp.backbone import ModelConfig
from dyttp.layers import (
    Dropout, DynamicTanh, LayerNorm, Linear, MultiHeadAttention,
    TransformerBlock, make_norm,
)
from dyttp.tensor import Rng, Tensor, grad_check

from conftest import weighted_sum


def test_dyt_zero_input_gives_beta():
    dyt = DynamicTanh(4)
    dyt.beta.data = np.array([0.3, -1.0, 2.0, 0.0])
    out = dyt(Tensor(np.zeros((5, 4))))
    assert np.array_equal(out.data, np.broadcast_to(dyt.beta.data, (5, 4)))


def test_dyt_saturation_bound():
    dyt = DynamicTanh(1)
    dyt.gamma.data = np.array([2.0])
    dyt.beta.data = np.array([1.0])
    out = dyt(Tensor(np.array([[1e6]])))
    assert abs(out.data[0, 0] - 3.0) < 1e-9


def test_dyt_reference_value():
    dyt = DynamicTanh(1, alpha_init=1.0)
    ref = (math.exp(2.0) - 1.0) / (math.exp(2.0) + 1.0)
    out = dyt(Tensor(np.array([[1.0]])))
    assert abs(out.data[0, 0] - ref) < 1e-12


def test_dyt_bounded_and_monotone():
    rng = Rng(31)
    dyt = DynamicTanh(6)
    dyt.alpha.data = np.array(0.8)
    dyt.gamma.data = rng.uniform((6,), 0.5, 2.0)
    dyt.beta.data = rng.normal((6,))
    x = rng.uniform((400, 6), -200.0, 200.0)
    out = dyt(Tensor(x)).data
    bound = np.abs(dyt.gamma.data) + np.abs(dyt.beta.data)
    assert np.all(np.abs(out) <= bound + 1e-12)

    lo = dyt(Tensor(np.sort(x, axis=0))).data
    assert np.all(np.diff(lo, axis=0) >= 0.0)


def test_dyt_is_strictly_elementwise():
    # no cross-channel or cross-token reduction: perturbing one element
    # moves only the matching output element
    dyt = DynamicTanh(5)
    x = Rng(12).normal((3, 7, 5))
    base = dyt(Tensor(x)).data
    bumped = x.copy()
    bumped[1, 2, 3] += 0.25
    out = dyt(Tensor(bumped)).data
    changed = np.argwhere(out != base)
    assert changed.tolist() == [[1, 2, 3]]


def test_layernorm_constant_input_is_zero():
    ln = LayerNorm(4)
    out = ln(Tensor(np.full((3, 4), 7.5)))
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layernorm_two_point_standardization():
    ln = LayerNorm(2, eps=1e-12)
    out = ln(Tensor(np.array([[1.0, 3.0]])))
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-9)


def test_layernorm_standardizes_before_affine():
    rng = Rng(44)
    ln = LayerNorm(16)
    out = ln(Tensor(rng.normal((8, 16), mean=3.0, std=2.5))).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-10)
    assert np.allclose((out * out).mean(axis=-1), 1.0, atol=1e-4)


def test_make_norm_kinds():
    assert isinstance(make_norm("dyt", 3), DynamicTanh)
    assert isinstance(make_norm("layernorm", 3), LayerNorm)
    with pytest.raises(ValueError):
        make_norm("batchnorm", 3)


def test_mha_single_token_is_value_projection():
    # one token attends only to itself: x + wo(wv(norm(x)))
    rng = Rng(5)
    mha = MultiHeadAttention(8, 2, rng)
    norm = DynamicTanh(8)
    x = Tensor(rng.normal((1, 1, 8)))
    out = mha(x, norm)
    manual = T.add(x, mha.wo(mha.wv(norm(x))))
    assert np.allclose(out.data, manual.data, atol=1e-12)


def test_mha_identical_tokens_identical_outputs():
    rng = Rng(6)
    mha = MultiHeadAttention(8, 2, rng)
    token = rng.normal((8,))
    x = Tensor(np.broadcast_to(token, (1, 5, 8)).copy())
    out = mha(x, LayerNorm(8)).data
    assert np.allclose(out, out[:, :1, :], atol=1e-12)


def test_mha_two_token_hand_computation():
    rng = Rng(7)
    mha = MultiHeadAttention(2, 1, rng)
    for lin in (mha.wq, mha.wv, mha.wo):
        lin.weight.data = np.eye(2)
        lin.bias.data = np.zeros(2)
    mha.wk.data = np.eye(2)
    x = np.array([[[1.0, 0.0], [0.0, 2.0]]])
    out = mha(Tensor(x), DynamicTanh(2, alpha_init=0.5)).data

    h = np.tanh(0.5 * x[0])  # the norm: unit gamma, zero beta
    scores = h @ h.T / np.sqrt(2.0)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    expected = x[0] + w @ h
    assert np.allclose(out[0], expected, atol=1e-12)


def test_mha_mask_blocks_and_fully_masked_errors():
    rng = Rng(8)
    mha = MultiHeadAttention(4, 1, rng)
    norm = DynamicTanh(4)
    x = Tensor(rng.normal((1, 3, 4)))
    mask = np.ones((1, 3, 3), dtype=bool)
    mask[0, :, 2] = False
    mask[0, 2, 2] = True
    out_masked = mha(x, norm, mask=mask).data
    # token 2 cannot influence tokens 0/1: changing it leaves them unchanged
    bumped = x.data.copy()
    bumped[0, 2] += 1.0
    out_bumped = mha(Tensor(bumped), norm, mask=mask).data
    assert np.allclose(out_masked[0, :2], out_bumped[0, :2], atol=1e-12)

    bad = np.zeros((1, 3, 3), dtype=bool)
    with pytest.raises(ValueError):
        mha(x, norm, mask=bad)


def softmax_np(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


CAUSAL = np.tril(np.ones((4, 4), dtype=bool))[None]


# the attention sublayer's norm in the oracle test: a DyT with drawn parameters
ORACLE_NORM = DynamicTanh(6, alpha_init=0.8)
ORACLE_NORM.gamma.data = Rng(3).uniform((6,), 0.5, 1.5)
ORACLE_NORM.beta.data = Rng(4).uniform((6,), -0.5, 0.5)


def mha_np(p, x):
    """All heads at once: [..., T, 6] tokens through ORACLE_NORM, 2 heads of 3
    channels, CAUSAL mask, added back to x."""
    def proj(name, a):
        return a @ p[f"{name}.weight"] + p[f"{name}.bias"]

    h = ORACLE_NORM.gamma.data * np.tanh(ORACLE_NORM.alpha.data * x) + ORACLE_NORM.beta.data
    # the key projection is a bare weight, with no bias
    q, k, v = (a.reshape(x.shape[:-1] + (2, 3))
               for a in (proj("wq", h), h @ p["wk"], proj("wv", h)))
    s = np.where(CAUSAL[..., None, :, :], np.einsum("...qhd,...khd->...hqk", q, k) / np.sqrt(3.0),
                 -np.inf)
    ctx = np.einsum("...hqk,...khd->...qhd", softmax_np(s), v)
    return x + proj("wo", ctx.reshape(x.shape))


# builder, call, oracle on one snapshot's parameters
LAYER_ORACLES = {
    "linear": (lambda rng: Linear(6, 6, rng), lambda m, x: m(x),
               lambda p, x: x @ p["weight"] + p["bias"]),
    "dyt": (lambda rng: DynamicTanh(6), lambda m, x: m(x),
            lambda p, x: p["gamma"] * np.tanh(p["alpha"] * x) + p["beta"]),
    "layernorm": (lambda rng: LayerNorm(6), lambda m, x: m(x),
                  lambda p, x: (x - x.mean(axis=-1, keepdims=True))
                  / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * p["gamma"] + p["beta"]),
    "attention": (lambda rng: MultiHeadAttention(6, 2, rng),
                  lambda m, x: m(x, ORACLE_NORM, mask=CAUSAL), mha_np),
}


@pytest.mark.parametrize("snapshots", [0, 3], ids=["plain", "stacked"])
@pytest.mark.parametrize("name", sorted(LAYER_ORACLES))
def test_layers_match_numpy_oracles(name, snapshots):
    build, call, oracle = LAYER_ORACLES[name]
    rng = Rng(sum(map(ord, name)))
    layer = build(rng)
    x = rng.normal((2, 4, 6))
    states = [{n: np.asarray(rng.normal(p.shape)) for n, p in layer.named_params()}
              for _ in range(max(snapshots, 1))]
    for n, p in layer.named_params():
        # stacked as make_ensemble does: [S, 1, ..., *P] with the activation's rank after S
        lined_up = (snapshots,) + (1,) * (x.ndim - p.ndim) + p.shape
        p.data = np.stack([st[n] for st in states]).reshape(lined_up) if snapshots else states[0][n]
    out = call(layer, Tensor(x)).data
    for s, state in enumerate(states):
        want = oracle(state, x)
        got = out[s] if snapshots else out
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), s


def test_block_residual_identity_with_zero_projections():
    rng = Rng(9)
    cfg = ModelConfig(norm_kind="dyt", width=8, heads=2, dropout=0.0)
    block = TransformerBlock(cfg, rng)
    block.attn.wo.weight.data = np.zeros_like(block.attn.wo.weight.data)
    block.attn.wo.bias.data = np.zeros_like(block.attn.wo.bias.data)
    block.ffn.lin2.weight.data = np.zeros_like(block.ffn.lin2.weight.data)
    block.ffn.lin2.bias.data = np.zeros_like(block.ffn.lin2.bias.data)
    x = rng.normal((2, 5, 8))
    out = block(Tensor(x)).data
    assert np.array_equal(out, x)


def test_block_shape_contract_both_norms():
    rng = Rng(10)
    x = rng.normal((2, 4, 8))
    for kind in ("dyt", "layernorm"):
        block = TransformerBlock(ModelConfig(norm_kind=kind, width=8, heads=2, dropout=0.0), Rng(10))
        assert block(Tensor(x)).shape == (2, 4, 8)


@pytest.mark.parametrize("kind", ["dyt", "layernorm"])
def test_block_grad_check(kind):
    rng = Rng(13)
    cfg = ModelConfig(norm_kind=kind, width=8, heads=2, dropout=0.0)
    block = TransformerBlock(cfg, rng)
    x0 = rng.uniform((1, 3, 8), -1.0, 1.0)
    w = rng.uniform((1, 3, 8), -1.0, 1.0)

    err = grad_check(lambda t: weighted_sum(block(t), w), Tensor(x0))
    assert err < 1e-4

    # and through a parameter: swap data through a fresh tensor
    probe = block.attn.wq.weight

    def f2(p):
        old = probe.data
        probe.data = p.data
        try:
            h = block.norm_attn(Tensor(x0))
            out = weighted_sum(T.linear(h, p, 0.0), w)
        finally:
            probe.data = old
        return out

    err2 = grad_check(f2, Tensor(probe.data.copy()))
    assert err2 < 1e-4


def test_dropout_modes():
    rng = Rng(14)
    drop = Dropout(0.4)
    # no rng means no dropout; dropout 0 ignores the rng
    assert drop.keep((200, 50), None) is None
    assert Dropout(0.0).keep((200, 50), rng) is None
    keep = drop.keep((200, 50), rng)
    assert keep.dtype == np.float64 and keep.shape == (200, 50)
    assert set(np.round(np.unique(keep), 10)) <= {0.0, round(1 / 0.6, 10)}
    assert abs(keep.mean() - 1.0) < 0.02
    with pytest.raises(ValueError):
        Dropout(1.0)


@pytest.mark.parametrize("p", [0.1, 0.25, 1 / 3, 0.5, 0.999])
def test_dropout_mask_equals_the_uniform_draw(p):
    # each u64 draw serves four elements, its 16-bit fields from the low one up; an
    # element is kept when its field, a uniform draw on [0, 2**16), is >= ceil(p * 2**16).
    # The oracle cuts the fields with shifts, so it holds whatever the byte order
    shape = (19, 3, 27, 27)  # 41553 elements: the last draw serves one
    n = math.prod(shape)
    a, b = Rng(5), Rng(5)
    got = Dropout(p).keep(shape, a)
    draws = b.u64(-(-n // 4))
    fields = (draws[:, None] >> np.array([0, 16, 32, 48], dtype=np.uint64)) & np.uint64(0xFFFF)
    keep = fields.reshape(-1)[:n] >= math.ceil(p * 65536)
    assert np.array_equal(got, keep.reshape(shape) / (1.0 - p))
    # the mask took ceil(n / 4) draws and no more
    assert a.u64(4).tolist() == b.u64(4).tolist()


@pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
def test_dropout_multipliers_have_the_bits_of_a_division(p):
    # keep scales the kept mask by a precomputed 1 / (1 - p); the bits equal the
    # quotient of the bool mask by 1 - p, the form it replaced
    for i, shape in enumerate([(1,), (5,), (3, 7), (20, 4, 28, 28), (2, 1, 3, 9)]):
        got = Dropout(p).keep(shape, Rng(70 + i))
        n = math.prod(shape)
        fields = Rng(70 + i).u64(-(-n // 4)).astype("<u8", copy=False).view("<u2")[:n]
        want = (fields >= math.ceil(p * 65536.0)).reshape(shape) / (1.0 - p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), shape


def test_gelu_values_and_gradient():
    # reference points of the tanh-form gelu, the kernel inside feedforward and
    # the decoder head, as a one-input tape op
    def gelu(t):
        out, grad = T._gelu(t.data)
        return T._op((t,), out, lambda g, needs: (grad(g),))

    assert gelu(Tensor([0.0])).item() == 0.0
    big = gelu(Tensor([20.0])).item()
    assert abs(big - 20.0) < 1e-6
    x = Tensor(Rng(15).uniform((6, 1), -2.0, 2.0))
    assert grad_check(lambda t: weighted_sum(gelu(t)), x) < 1e-4


@pytest.mark.parametrize("memory", [False, True], ids=["self", "memory"])
@pytest.mark.parametrize("with_rng", [False, True], ids=["no-rng", "rng"])
def test_block_records_one_op_per_sublayer(memory, with_rng):
    # a block is two tape records, its attention and its feed-forward sublayer,
    # each with its norm, dropout and residual add inside; a split shows here
    cfg = ModelConfig(width=8, heads=2, dropout=0.1)
    block = TransformerBlock(cfg, Rng(17), cross=memory)
    x = Tensor(Rng(18).normal((3, 1, 8)))
    kv = Tensor(Rng(19).normal((3, 5, 8))) if memory else None
    with T.Tape() as tape:
        block(x, kv=kv, rng=Rng(20) if with_rng else None)
    assert len(tape) == 2


def test_named_params_and_state_dict_roundtrip():
    rng = Rng(16)
    block = TransformerBlock(ModelConfig(width=8, heads=2, dropout=0.0), rng, cross=True)
    names = [n for n, _ in block.named_params()]
    assert len(names) == len(set(names))
    assert any("attn.wq.weight" in n for n in names)
    assert any("norm_kv" in n for n in names)

    state = block.state_dict()
    other = TransformerBlock(ModelConfig(width=8, heads=2, dropout=0.0), Rng(99), cross=True)
    other.load_state_dict(state)
    x = Rng(1).normal((1, 3, 8))
    assert np.array_equal(block(Tensor(x)).data, other(Tensor(x)).data)

    with pytest.raises(ValueError):
        other.load_state_dict({"nope": np.zeros(1)})
