"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Conventions:
- All in-memory math is float64. Checkpoint files narrow parameters to
  float32 (see the checkpoint writer); that precision boundary is deliberate.
- Gradients are recorded only while a Tape is active, so plain inference
  pays no tracking cost.
- Broadcasting follows trailing-dimension (right-aligned) rules only;
  there are no implicit reshapes.
- Tensors are treated as immutable once created, except parameter updates
  applied between passes and gradient accumulation during a backward pass.
  Tapes are thread-local, so independent evaluations may run concurrently.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor", "Tape", "Rng", "NumericalError", "backward", "grad_check",
    "add", "sub", "mul", "div", "neg", "tanh", "log", "abs_", "softplus",
    "sqrt", "clamp_min", "mask_fill", "matmul", "transpose", "reshape",
    "getitem", "sum_", "mean", "softmax",
]


class NumericalError(ValueError):
    """A value outside the domain of an op or update: a zero divisor, a
    non-positive log or sqrt argument, a non-finite softmax input or gradient.
    Training reports it as a divergence; other ValueErrors are not."""


class Tensor:
    """An n-dimensional float64 array, optionally participating in a tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# Tape

_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _current_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of differentiable ops, replayed in reverse by backward().

    Ops append themselves at execution time, so the record is topologically
    ordered by construction. A tape is single-use: backward() may run once.
    """

    def __init__(self):
        self._records = []  # (output Tensor, backward fn taking output grad)
        self._recorded = 0
        self._used = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def __len__(self):
        """Number of ops recorded, also after backward() has consumed them."""
        return self._recorded

    def _record(self, out: Tensor, backward_fn):
        self._records.append((out, backward_fn))
        self._recorded += 1


def backward(loss: Tensor, tape: Tape):
    """Populate .grad on every requires_grad tensor reachable from loss."""
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.data.shape}")
    if tape._used:
        raise RuntimeError("tape already consumed by a previous backward()")
    tape._used = True
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    # records are dropped as they are replayed, so each intermediate and
    # its gradient are freed once nothing upstream needs them
    records = tape._records
    while records:
        out, fn = records.pop()
        if out.grad is not None:
            fn(out.grad)


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a gradient back to the pre-broadcast shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops

def _binary(a, b, out_data, da, db):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(out_data)
    tape = _current_tape()
    if tape is not None and (a.requires_grad or b.requires_grad):
        out.requires_grad = True

        def backward_fn(g):
            if a.requires_grad:
                _accumulate(a, _unbroadcast(da(g), a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(db(g), b.data.shape))

        tape._record(out, backward_fn)
    return out


def _unary(a, out_data, da):
    a = _as_tensor(a)
    out = Tensor(out_data)
    tape = _current_tape()
    if tape is not None and a.requires_grad:
        out.requires_grad = True

        def backward_fn(g):
            _accumulate(a, _unbroadcast(da(g), a.data.shape))

        tape._record(out, backward_fn)
    return out


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    return _binary(a, b, ad * bd, lambda g: g * bd, lambda g: g * ad)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if np.any(b.data == 0.0):
        raise NumericalError("division by zero")
    ad, bd = a.data, b.data
    return _binary(a, b, ad / bd, lambda g: g / bd, lambda g: -g * ad / (bd * bd))


def neg(a):
    a = _as_tensor(a)
    return _unary(a, -a.data, lambda g: -g)


def tanh(a):
    a = _as_tensor(a)
    out_data = np.tanh(a.data)
    return _unary(a, out_data, lambda g: g * (1.0 - out_data * out_data))


def log(a):
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise NumericalError("log of non-positive value")
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def abs_(a):
    a = _as_tensor(a)
    # subgradient 0 at the kink
    return _unary(a, np.abs(a.data), lambda g: g * np.sign(a.data))


def softplus(a):
    a = _as_tensor(a)
    out_data = np.logaddexp(0.0, a.data)

    def da(g):
        # stable sigmoid
        t = np.exp(-np.abs(a.data))
        sig = np.where(a.data >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))
        return g * sig

    return _unary(a, out_data, da)


def sqrt(a):
    a = _as_tensor(a)
    if np.any(a.data < 0.0):
        raise NumericalError("sqrt of negative value")
    out_data = np.sqrt(a.data)
    return _unary(a, out_data, lambda g: g * 0.5 / out_data)


def clamp_min(a, floor: float):
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    a = _as_tensor(a)
    keep = a.data > floor
    return _unary(a, np.maximum(a.data, floor), lambda g: g * keep)


def mask_fill(a, keep_mask, fill_value: float):
    """Keep entries where keep_mask is true, replace the rest by fill_value."""
    a = _as_tensor(a)
    keep = np.asarray(keep_mask, dtype=bool)
    out_data = np.where(keep, a.data, fill_value)
    return _unary(a, out_data, lambda g: g * keep)


# ---------------------------------------------------------------------------
# matmul and shape ops

def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul needs tensors with at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    ad, bd = a.data, b.data
    out_data = np.matmul(ad, bd)

    def da(g):
        return np.matmul(g, np.swapaxes(bd, -1, -2))

    def db(g):
        return np.matmul(np.swapaxes(ad, -1, -2), g)

    return _binary(a, b, out_data, da, db)


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    # plain Python: for a handful of axes, np.argsort costs more than the transpose
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _unary(a, np.transpose(a.data, axes), lambda g: np.transpose(g, inverse))


def reshape(a, shape):
    a = _as_tensor(a)
    old = a.data.shape
    return _unary(a, a.data.reshape(shape), lambda g: g.reshape(old))


def getitem(a, idx):
    a = _as_tensor(a)
    out_data = a.data[idx]
    # only an integer-array index can pick one element twice and so needs the
    # (slower) unbuffered scatter-add; slices, ints and boolean masks cannot
    parts = idx if isinstance(idx, tuple) else (idx,)
    may_repeat = any(isinstance(p, (np.ndarray, list)) and np.asarray(p).dtype.kind in "iu"
                     for p in parts)

    def da(g):
        z = np.zeros_like(a.data)
        if may_repeat:
            np.add.at(z, idx, g)
        else:
            z[idx] = g
        return z

    return _unary(a, np.array(out_data), da)


# ---------------------------------------------------------------------------
# reductions

def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    for ax in axis:
        if not -ndim <= ax < ndim:
            raise ValueError(f"axis {ax} out of range for ndim {ndim}")
    return tuple(ax % ndim for ax in axis)


def sum_(a, axis=None, keepdims: bool = False):
    a = _as_tensor(a)
    axis = _normalize_axis(axis, a.ndim)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def da(g):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape)

    return _unary(a, out_data, da)


def mean(a, axis=None, keepdims: bool = False):
    a = _as_tensor(a)
    axis = _normalize_axis(axis, a.ndim)
    if axis is None:
        n = a.data.size
    else:
        n = int(np.prod([a.data.shape[ax] for ax in axis]))
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def da(g):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape) / n

    return _unary(a, out_data, da)


def softmax(a, axis: int = -1):
    """Numerically stable softmax along an axis (max-subtraction)."""
    a = _as_tensor(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericalError("softmax requires finite inputs")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def da(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (g - dot) * out_data

    return _unary(a, out_data, da)


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    f takes a Tensor and returns a scalar Tensor. The error per coordinate is
    |analytic - central| / max(1, |analytic|); the maximum over coordinates
    is returned.
    """
    base = np.array(x.data, dtype=np.float64)
    probe = Tensor(base.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    if y.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    backward(y, tape)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(base)
    analytic = analytic.reshape(-1)

    worst = 0.0
    flat = base.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        fp = f(Tensor(bumped.reshape(base.shape))).item()
        bumped[i] = flat[i] - h
        fm = f(Tensor(bumped.reshape(base.shape))).item()
        fd = (fp - fm) / (2.0 * h)
        err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]))
        if err > worst:
            worst = err
    return worst


# ---------------------------------------------------------------------------
# seeded pseudo-randomness

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class Rng:
    """splitmix64 stream: 64-bit state, vectorized draws, same seed same bits."""

    algorithm = "splitmix64"

    def __init__(self, seed: int):
        self._state = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)

    def u64(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            steps = (np.arange(1, n + 1, dtype=np.uint64)) * _GOLDEN
            vals = _mix64(self._state + steps)
            self._state = self._state + np.uint64(n) * _GOLDEN
        return vals

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        u = (self.u64(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        out = low + (high - low) * u
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = 1.0 - (self.u64(m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        u2 = (self.u64(m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        out = mean + std * z
        return out.reshape(shape) if shape else float(out[0])

    def integers(self, below: int, shape=()) -> np.ndarray:
        if below < 1:
            raise ValueError(f"integers needs below >= 1, got {below}")
        # modulo bias is negligible for below << 2**64
        n = int(np.prod(shape)) if shape else 1
        vals = (self.u64(n) % np.uint64(below)).astype(np.int64)
        return vals.reshape(shape) if shape else int(vals[0])

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self.u64(n), kind="stable")

    def child(self, key: int) -> "Rng":
        """Independent stream derived from (state, key); parent state unchanged."""
        with np.errstate(over="ignore"):
            k = _mix64(np.array([key & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64) + _GOLDEN)
            derived = _mix64(self._state ^ k)
        return Rng(int(derived[0]))
