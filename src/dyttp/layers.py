"""Neural building blocks on the tensor engine.

DynamicTanh and LayerNorm are interchangeable behind make_norm(); every
other layer is norm-agnostic. Blocks are pre-norm residual: the input is
normalized before attention and before the feed-forward, and added back.
Dropout draws from an explicit Rng and runs only when one is passed.

Every layer indexes shapes from the right, so activations may carry leading
axes. A layer whose parameters are stacked snapshots ([S, *P], see
`stacked`) runs all S of them in one call, with S as the leading axis of its
output.
"""

from __future__ import annotations

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

    def set_param(self, name: str, tensor: Tensor):
        """Replace a named parameter object (gradient-checking hook)."""
        obj = self
        parts = name.split(".")
        for p in parts[:-1]:
            obj = obj[int(p)] if p.isdigit() else getattr(obj, p)
        setattr(obj, parts[-1], tensor)

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


def stacked(p: Tensor, rank: int, ndim: int) -> Tensor:
    """Parameter p lined up against an activation with ndim axes.

    A plain parameter (rank axes) is returned as is and broadcasts from the
    right. A stacked one, [S, *P] with one axis more, gets unit axes after S
    so that each snapshot meets its own slice of an activation whose leading
    axis is S (or 1).
    """
    if p.ndim in (rank, ndim):
        return p
    return T.reshape(p, p.shape[:1] + (1,) * (ndim - p.ndim) + p.shape[1:])


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
        out = T.matmul(x, stacked(self.weight, 2, x.ndim))
        return T.add(out, stacked(self.bias, 1, out.ndim))


class DynamicTanh(Module):
    """Elementwise gamma * tanh(alpha * x) + beta over the channel axis.

    alpha is one learnable scalar per instance; gamma and beta are
    per-channel vectors. No reduction across channels or positions, so
    every output element depends on exactly one input element.
    """

    def __init__(self, channels: int, alpha_init: float = 0.5):
        self.alpha = Tensor(np.array(alpha_init), requires_grad=True)
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[-1]

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[-1]}")
        n = x.ndim
        return T.add(T.mul(T.tanh(T.mul(x, stacked(self.alpha, 0, n))), stacked(self.gamma, 1, n)),
                     stacked(self.beta, 1, n))


class LayerNorm(Module):
    """Per-position standardization over the channel axis, then affine."""

    def __init__(self, channels: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.eps = eps

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[-1]

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[-1]}")
        mu = T.mean(x, axis=-1, keepdims=True)
        centered = T.sub(x, mu)
        var = T.mean(T.mul(centered, centered), axis=-1, keepdims=True)
        std = T.sqrt(T.add(var, self.eps))
        n = x.ndim
        return T.add(T.mul(T.div(centered, std), stacked(self.gamma, 1, n)), stacked(self.beta, 1, n))


def make_norm(kind: str, channels: int):
    if kind == "dyt":
        return DynamicTanh(channels)
    if kind == "layernorm":
        return LayerNorm(channels)
    raise ValueError(f"unknown norm kind {kind!r} (want 'dyt' or 'layernorm')")


def gelu(x: Tensor) -> Tensor:
    # smooth tanh-form gelu; smoothness keeps finite-difference checks tight
    c = np.sqrt(2.0 / np.pi)
    x3 = T.mul(T.mul(x, x), x)
    inner = T.mul(T.add(x, T.mul(x3, 0.044715)), c)
    return T.mul(T.mul(x, 0.5), T.add(T.tanh(inner), 1.0))


class Dropout:
    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p

    def __call__(self, x: Tensor, rng: Rng | None) -> Tensor:
        """x with inverted dropout applied, drawn from rng; x itself when rng is None."""
        if rng is None or self.p == 0.0:
            return x
        keep = (rng.uniform(x.shape) >= self.p) / (1.0 - self.p)
        return T.mul(x, keep)


_MASK_FILL = -1e30  # finite stand-in for blocked logits; exp underflows to 0


class MultiHeadAttention(Module):
    """Scaled dot-product attention with optional boolean mask (true = attend).

    Queries [..., Tq, D] read keys and values [..., Tk, D]; the mask is
    [B, Tq, Tk] and broadcasts over any axes in front of B.
    """

    def __init__(self, width: int, heads: int, rng: Rng, dropout: float = 0.0):
        if width % heads != 0:
            raise ValueError("width must be divisible by heads")
        self.heads = heads
        self.head_dim = width // heads
        self.wq = Linear(width, width, rng)
        self.wk = Linear(width, width, rng)
        self.wv = Linear(width, width, rng)
        self.wo = Linear(width, width, rng)
        self.drop = Dropout(dropout)

    def __call__(self, q_in: Tensor, kv_in: Tensor | None = None, mask=None,
                 rng: Rng | None = None) -> Tensor:
        kv_in = q_in if kv_in is None else kv_in
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if not mask.any(axis=-1).all():
                raise ValueError("attention mask leaves a query row with no keys")

        def split(x):  # [..., T, D] -> [..., H, T, D / H]
            return swap_axes(T.reshape(x, x.shape[:-1] + (self.heads, self.head_dim)), -3, -2)

        q = split(self.wq(q_in))
        k = split(self.wk(kv_in))
        v = split(self.wv(kv_in))

        scores = T.mul(T.matmul(q, swap_axes(k, -2, -1)), 1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            scores = T.mask_fill(scores, mask[..., None, :, :], _MASK_FILL)
        weights = T.softmax(scores, axis=-1)
        weights = self.drop(weights, rng)
        ctx = swap_axes(T.matmul(weights, v), -3, -2)
        return self.wo(T.reshape(ctx, ctx.shape[:-2] + (q_in.shape[-1],)))


class FeedForward(Module):
    def __init__(self, width: int, ratio: int, rng: Rng, dropout: float = 0.0):
        hidden = width * ratio
        self.lin1 = Linear(width, hidden, rng)
        self.lin2 = Linear(hidden, width, rng)
        self.drop = Dropout(dropout)

    def __call__(self, x: Tensor, rng: Rng | None = None) -> Tensor:
        return self.lin2(self.drop(gelu(self.lin1(x)), rng))


def grad_check_params(model: Module, loss_fn, names=None, h: float = 1e-5):
    """Finite-difference check of loss_fn gradients w.r.t. named parameters.

    loss_fn computes a scalar Tensor from the model's current parameters;
    each named parameter is swapped for a probe tensor in turn. Returns
    {name: max relative error} for the checked parameters.
    """
    from .tensor import Tensor as _Tensor, grad_check

    all_named = dict(model.named_params())
    names = list(all_named) if names is None else names
    errors = {}
    for name in names:
        original = all_named[name]

        def f(p, _name=name, _orig=original):
            model.set_param(_name, p)
            try:
                return loss_fn()
            finally:
                model.set_param(_name, _orig)

        errors[name] = grad_check(f, _Tensor(original.data.copy()), h=h)
    return errors


class TransformerBlock(Module):
    """Pre-norm residual block: x + MHA(norm(x)); then x + FFN(norm(x)).

    With cross=True the attention reads keys/values from a separate memory
    tensor, normalized by its own norm instance. cfg is a backbone.ModelConfig;
    the block reads its norm_kind, width, heads, ff_ratio and dropout.
    """

    def __init__(self, cfg, rng: Rng, cross: bool = False):
        self.norm_attn = make_norm(cfg.norm_kind, cfg.width)
        self.norm_kv = make_norm(cfg.norm_kind, cfg.width) if cross else None
        self.attn = MultiHeadAttention(cfg.width, cfg.heads, rng, cfg.dropout)
        self.norm_ffn = make_norm(cfg.norm_kind, cfg.width)
        self.ffn = FeedForward(cfg.width, cfg.ff_ratio, rng, cfg.dropout)
        self.drop = Dropout(cfg.dropout)

    def __call__(self, x: Tensor, kv: Tensor | None = None, mask=None,
                 rng: Rng | None = None) -> Tensor:
        h = self.norm_attn(x)
        memory = self.norm_kv(kv) if kv is not None else h
        x = T.add(x, self.drop(self.attn(h, memory, mask, rng), rng))
        x = T.add(x, self.drop(self.ffn(self.norm_ffn(x), rng), rng))
        return x
