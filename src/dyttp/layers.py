"""Neural building blocks on the tensor engine.

DynamicTanh and LayerNorm are interchangeable behind make_norm(); every
other layer is norm-agnostic. Blocks are pre-norm residual: the input is
normalized before attention and before the feed-forward, and added back.
Dropout draws from an explicit Rng and runs only when one is passed.

Every layer indexes shapes from the right and passes its parameters to its
fused op as they are, so activations may carry leading axes and parameters
broadcast against them. A layer whose parameters are stacked snapshots, each
lined up with unit axes after S (see `training.make_ensemble`), runs all S of
them in one call, with S as the leading axis of its output.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Rng, Tensor


class Module:
    """Minimal parameter container; children found by attribute scan."""

    def named_params(self, prefix: str = ""):
        for key, value in self.__dict__.items():
            name = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_params(name)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_params(f"{name}.{i}")

    def zero_grad(self):
        for _, p in self.named_params():
            p.grad = None

    def state_dict(self) -> dict:
        return {name: p.data.copy() for name, p in self.named_params()}

    def load_state_dict(self, state: dict):
        own = dict(self.named_params())
        if set(own) != set(state):
            missing = set(own) ^ set(state)
            raise ValueError(f"parameter names disagree: {sorted(missing)[:4]}...")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()


def _xavier(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform((fan_in, fan_out), -bound, bound)


def swap_axes(x: Tensor, i: int, j: int) -> Tensor:
    """x with axes i and j exchanged."""
    axes = list(range(x.ndim))
    axes[i], axes[j] = axes[j], axes[i]
    return T.transpose(x, tuple(axes))


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: Rng):
        self.weight = Tensor(_xavier(rng, d_in, d_out), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class _Norm(Module):
    """A per-channel affine gamma * . + beta after a map of each position: tensor.norm
    with this norm's parts."""

    alpha = None  # DynamicTanh's learnable scale
    eps = None    # LayerNorm's epsilon

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[-1]

    @property
    def parts(self) -> tuple:
        """(alpha, gamma, beta, eps), the norm as the sublayer ops in `tensor` take it."""
        return self.alpha, self.gamma, self.beta, self.eps

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[-1]}")
        return T.norm(x, self.parts)


class DynamicTanh(_Norm):
    """Elementwise gamma * tanh(alpha * x) + beta over the channel axis.

    alpha is one learnable scalar per instance; gamma and beta are
    per-channel vectors. No reduction across channels or positions, so
    every output element depends on exactly one input element.
    """

    def __init__(self, channels: int, alpha_init: float = 0.5):
        self.alpha = Tensor(np.array(alpha_init), requires_grad=True)
        super().__init__(channels)


class LayerNorm(_Norm):
    """Per-position standardization over the channel axis, then affine."""

    def __init__(self, channels: int, eps: float = 1e-5):
        super().__init__(channels)
        self.eps = eps


def make_norm(kind: str, channels: int):
    if kind == "dyt":
        return DynamicTanh(channels)
    if kind == "layernorm":
        return LayerNorm(channels)
    raise ValueError(f"unknown norm kind {kind!r} (want 'dyt' or 'layernorm')")


class Dropout:
    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        # a 16-bit field k is uniform on [0, 2**16), and drops exactly when k < ceil(p * 2**16)
        self._drop_below = math.ceil(p * 65536.0)
        self._scale = 1.0 / (1.0 - p)  # k * this has the bits of k / (1 - p) for k in {0, 1}

    def keep(self, shape, rng: Rng | None):
        """Inverted-dropout multipliers of `shape` drawn from rng; None without rng or when p is 0.

        Each 64-bit draw serves four elements, one 16-bit field each, low field
        first whatever the machine's byte order; ceil(n / 4) draws cover n elements.
        """
        if rng is None or self.p == 0.0:
            return None
        n = math.prod(shape)
        fields = rng.u64(-(-n // 4)).astype("<u8", copy=False).view("<u2")[:n]
        # one pass: the kept test, cast to float64 inside the multiply
        return np.multiply(fields >= self._drop_below, self._scale).reshape(shape)


def _gated(keep, gate):
    """keep times gate, either of which may be None (no multiplier)."""
    if gate is None:
        return keep
    return gate if keep is None else keep * gate


class MultiHeadAttention(Module):
    """The pre-norm attention sublayer x + attend(norm(x)) with an optional
    boolean mask (true = attend), run as one fused op, norm included.

    Queries come from x [..., Tq, D]; keys and values come from the same
    positions, or from a separate memory kv [..., Tk, D] normalized by kv_norm.
    The mask is [B, Tq, Tk] and broadcasts over any axes in front of B. norm
    and kv_norm are the block's norm layers, held by the block and passed in.
    The query, value and output projections are Linear layers, held for their
    parameters. The key projection is a bare [D, D] weight: a key bias b adds
    q . b to every logit of a query's row, which softmax removes, so it could
    never learn. Self-attention runs `tensor.attention`. A memory is read with
    `tensor.memory_attention`, which runs the memory norm's map over kv and
    folds its affine into the key and value projections, moved onto the
    queries and the context: the memory blocks have one query per agent, so
    applying the affine or projecting every memory row would cost more. The
    dropout multipliers, of the softmax weights and then of the sublayer's
    output, are drawn here, only when an rng is passed; gate, when given,
    multiplies the output too (see TransformerBlock).
    """

    def __init__(self, width: int, heads: int, rng: Rng, dropout: float = 0.0):
        if width % heads != 0:
            raise ValueError("width must be divisible by heads")
        self.heads = heads
        self.wq = Linear(width, width, rng)
        self.wk = Tensor(_xavier(rng, width, width), requires_grad=True)
        self.wv = Linear(width, width, rng)
        self.wo = Linear(width, width, rng)
        self.drop = Dropout(dropout)

    def __call__(self, x: Tensor, norm: _Norm, kv: Tensor | None = None,
                 kv_norm: _Norm | None = None, mask=None, rng: Rng | None = None,
                 gate=None) -> Tensor:
        wq, wv, wo = self.wq, self.wv, self.wo
        keep = out_keep = None
        if rng is not None:
            mem = x if kv is None else kv
            lead = np.broadcast_shapes(x.shape[:-2], wq.weight.shape[:-2], mem.shape[:-2],
                                       np.shape(mask)[:-2])
            keep = self.drop.keep(lead + (self.heads, x.shape[-2], mem.shape[-2]), rng)
            out_keep = self.drop.keep(lead + x.shape[-2:], rng)
        out_keep = _gated(out_keep, gate)
        if kv is None:
            return T.attention(x, norm.parts, wq.weight, wq.bias, self.wk, wv.weight, wv.bias,
                               wo.weight, wo.bias, self.heads, mask, keep, out_keep)
        return T.memory_attention(x, norm.parts, kv, kv_norm.parts, wq.weight, wq.bias, self.wk,
                                  wv.weight, wv.bias, wo.weight, wo.bias, self.heads, mask, keep,
                                  out_keep)


class FeedForward(Module):
    """The pre-norm feed-forward sublayer x + gelu(h @ w1 + b1) @ w2 + b2 for
    h = norm(x), with dropout on the hidden activation and on the output, run
    as one `tensor.feedforward` op; lin1 and lin2 hold the parameters, and norm
    is the block's. The dropout multipliers are drawn here, only when an rng
    is passed; gate, when given, multiplies the output too."""

    def __init__(self, width: int, ratio: int, rng: Rng, dropout: float = 0.0):
        hidden = width * ratio
        self.lin1 = Linear(width, hidden, rng)
        self.lin2 = Linear(hidden, width, rng)
        self.drop = Dropout(dropout)

    def __call__(self, x: Tensor, norm: _Norm, rng: Rng | None = None, gate=None) -> Tensor:
        w1 = self.lin1.weight
        keep = out_keep = None
        if rng is not None:  # the hidden activation's shape, that of x @ w1, then the output's
            lead = np.broadcast_shapes(x.shape[:-2], w1.shape[:-2])
            keep = self.drop.keep(lead + x.shape[-2:-1] + w1.shape[-1:], rng)
            out_keep = self.drop.keep(lead + x.shape[-2:], rng)
        return T.feedforward(x, norm.parts, w1, self.lin1.bias, self.lin2.weight, self.lin2.bias,
                             keep, _gated(out_keep, gate))


class TransformerBlock(Module):
    """Pre-norm residual block: x + MHA(norm(x)); then x + FFN(norm(x)), two fused ops.

    Given kv, the attention reads keys/values from that memory tensor instead
    of from x. A cross=True block normalizes it with its own norm instance,
    `norm_kv`; any other block uses `norm_attn`, so a block whose queries are
    some positions of kv sees the keys it would see with every position
    querying (both norms work per position). Each sublayer op runs its norm
    itself: the block passes norm_attn (and the memory norm) to the attention
    and norm_ffn to the feed-forward. gate ([..., Tq, 1] 0/1, or any multiplier
    that broadcasts against the output), when given, multiplies both
    sublayers' outputs, so a row with gate 0 leaves the block as it came in,
    bit for bit. cfg is a backbone.ModelConfig; the block reads its norm_kind,
    width, heads, ff_ratio and dropout.
    """

    def __init__(self, cfg, rng: Rng, cross: bool = False):
        self.norm_attn = make_norm(cfg.norm_kind, cfg.width)
        self.norm_kv = make_norm(cfg.norm_kind, cfg.width) if cross else None
        self.attn = MultiHeadAttention(cfg.width, cfg.heads, rng, cfg.dropout)
        self.norm_ffn = make_norm(cfg.norm_kind, cfg.width)
        self.ffn = FeedForward(cfg.width, cfg.ff_ratio, rng, cfg.dropout)

    def __call__(self, x: Tensor, kv: Tensor | None = None, mask=None,
                 rng: Rng | None = None, gate=None) -> Tensor:
        kv_norm = None
        if kv is not None:
            kv_norm = self.norm_attn if self.norm_kv is None else self.norm_kv
        x = self.attn(x, self.norm_attn, kv, kv_norm, mask, rng, gate)
        return self.ffn(x, self.norm_ffn, rng, gate)
