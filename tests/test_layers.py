import math

import numpy as np
import pytest

from dyttp import tensor as T
from dyttp.backbone import ModelConfig
from dyttp.layers import (
    Dropout, DynamicTanh, LayerNorm, MultiHeadAttention,
    TransformerBlock, gelu, make_norm,
)
from dyttp.tensor import Rng, Tensor, grad_check


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
    rng = Rng(5)
    mha = MultiHeadAttention(8, 2, rng)
    x = Tensor(rng.normal((1, 1, 8)))
    out = mha(x)
    manual = mha.wo(mha.wv(x))
    assert np.allclose(out.data, manual.data, atol=1e-12)


def test_mha_identical_tokens_identical_outputs():
    rng = Rng(6)
    mha = MultiHeadAttention(8, 2, rng)
    token = rng.normal((8,))
    x = Tensor(np.broadcast_to(token, (1, 5, 8)).copy())
    out = mha(x).data
    assert np.allclose(out, out[:, :1, :], atol=1e-12)


def test_mha_two_token_hand_computation():
    rng = Rng(7)
    mha = MultiHeadAttention(2, 1, rng)
    for lin in (mha.wq, mha.wk, mha.wv, mha.wo):
        lin.weight.data = np.eye(2)
        lin.bias.data = np.zeros(2)
    x = np.array([[[1.0, 0.0], [0.0, 2.0]]])
    out = mha(Tensor(x)).data

    scores = x[0] @ x[0].T / np.sqrt(2.0)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    expected = w @ x[0]
    assert np.allclose(out[0], expected, atol=1e-12)


def test_mha_mask_blocks_and_fully_masked_errors():
    rng = Rng(8)
    mha = MultiHeadAttention(4, 1, rng)
    x = Tensor(rng.normal((1, 3, 4)))
    mask = np.ones((1, 3, 3), dtype=bool)
    mask[0, :, 2] = False
    mask[0, 2, 2] = True
    out_masked = mha(x, mask=mask).data
    # token 2 cannot influence tokens 0/1: changing it leaves them unchanged
    bumped = x.data.copy()
    bumped[0, 2] += 1.0
    out_bumped = mha(Tensor(bumped), mask=mask).data
    assert np.allclose(out_masked[0, :2], out_bumped[0, :2], atol=1e-12)

    bad = np.zeros((1, 3, 3), dtype=bool)
    with pytest.raises(ValueError):
        mha(x, mask=bad)


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

    err = grad_check(lambda t: T.sum_(T.mul(block(t), w)), Tensor(x0))
    assert err < 1e-4

    # and through a parameter: swap data through a fresh tensor
    probe = block.attn.wq.weight

    def f2(p):
        old = probe.data
        probe.data = p.data
        try:
            h = block.norm_attn(Tensor(x0))
            out = T.sum_(T.mul(T.matmul(h, p), w))
        finally:
            probe.data = old
        return out

    err2 = grad_check(f2, Tensor(probe.data.copy()))
    assert err2 < 1e-4


def test_dropout_modes():
    rng = Rng(14)
    drop = Dropout(0.4)
    x = Tensor(np.ones((200, 50)))
    # no rng means no dropout; dropout 0 ignores the rng
    assert drop(x, None) is x
    assert Dropout(0.0)(x, rng) is x
    out = drop(x, rng).data
    assert set(np.round(np.unique(out), 10)) <= {0.0, round(1 / 0.6, 10)}
    assert abs(out.mean() - 1.0) < 0.02
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_gelu_values_and_gradient():
    # reference points of the tanh-form gelu
    assert gelu(Tensor(0.0)).item() == 0.0
    big = gelu(Tensor(20.0)).item()
    assert abs(big - 20.0) < 1e-6
    x = Tensor(Rng(15).uniform((6,), -2.0, 2.0))
    assert grad_check(lambda t: T.sum_(gelu(t)), x) < 1e-4


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
