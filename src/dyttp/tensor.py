"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Conventions:
- All in-memory math is float64. Checkpoint files narrow parameters to
  float32 (see the checkpoint writer); that precision boundary is deliberate.
- Gradients are recorded only while a Tape is active, so plain inference
  pays no tracking cost.
- Every op goes through one constructor, _op(args, run): run computes the
  op's output and its backward pass from the args' arrays, and _op reads
  plain arrays and numbers as float64, runs it once, wraps its outputs as
  Tensors and records it on the innermost tape only where some arg wants a
  gradient. An absent arg (None), an array or a number wants none.
- Broadcasting follows trailing-dimension (right-aligned) rules only;
  there are no implicit reshapes.
- Each model layer is one fused op with a hand-written backward pass, so it
  adds one tape record: linear, norm (DyT or LayerNorm), the residual
  sublayers attention, memory_attention and feedforward (each x plus its
  dropped-out sublayer of norm(x), from the norm through the output
  projection) and the decoder head decoder_head (three outputs: locations,
  scales and mode probabilities). norm and the sublayers share one norm
  kernel. Each loss term is one op too: laplace_nll and mode_ce, each the
  mean of its term over the scored agents.
- An op may have several outputs, recorded as one record whose backward pass
  receives every output's gradient at once.
- Tensors are treated as immutable once created, except parameter updates
  applied between passes and gradient accumulation during a backward pass.
  Tapes are thread-local, so independent evaluations may run concurrently.
- Importing this module raises glibc's heap-trim and mmap thresholds for the
  whole process, so freed activations stay mapped for the next op instead
  of being faulted in again on every call (see `_keep_freed_memory_mapped`).
"""

from __future__ import annotations

import ctypes
import math
import threading

import numpy as np

__all__ = [
    "Tensor", "Tape", "Rng", "NumericalError", "backward", "grad_check",
    "add", "mul", "transpose", "reshape", "getitem",
    "linear", "norm", "attention", "memory_attention", "feedforward",
    "decoder_head", "laplace_nll", "mode_ce",
]


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>


def _keep_freed_memory_mapped():
    """Every op allocates fresh output arrays. Under glibc's defaults a freed
    array of more than 128 KiB is unmapped, and a free at the top of the heap
    returns the pages to the kernel, so the next op faults them in again: a
    dense predict took about 570 minor faults. Serving arrays up to 32 MiB
    from the heap and trimming it only past 256 MiB free keeps those pages
    mapped for reuse. Does nothing where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_keep_freed_memory_mapped()


class NumericalError(ValueError):
    """A value outside the domain of an op or update: a non-positive Laplace
    scale, a non-finite mode logit or attention logit, or a non-finite
    gradient. Training reports it as a divergence; other ValueErrors are not."""


class Tensor:
    """An n-dimensional float64 array, optionally participating in a tape."""

    # grad_slot: an array of data's shape that a backward pass copies this
    # tensor's first gradient into, in place of a fresh array, or None
    # (training.AdamW points it at the tensor's part of its flat gradient vector)
    __slots__ = ("data", "requires_grad", "grad", "grad_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.grad_slot = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# Tape

class _Innermost(threading.local):
    tape = None  # the thread's innermost open Tape


_innermost = _Innermost()


class Tape:
    """Ordered record of differentiable ops, replayed in reverse by backward().

    Ops append themselves at execution time, so the record is topologically
    ordered by construction. A tape is single-use: backward() may run once.
    """

    def __init__(self):
        self._records = []  # (output Tensor or tuple of them, backward fn taking their grads)
        self._recorded = 0
        self._used = False
        self._outer = None  # the tape this one was opened inside

    def __enter__(self):
        self._outer, _innermost.tape = _innermost.tape, self
        return self

    def __exit__(self, exc_type, exc, tb):
        assert _innermost.tape is self
        _innermost.tape = self._outer
        return False

    def __len__(self):
        """Number of ops recorded, also after backward() has consumed them."""
        return self._recorded

    def _record(self, out, backward_fn):
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
        if type(out) is tuple:  # every consumer of every output was recorded later
            grads = tuple(o.grad for o in out)
            if any(g is not None for g in grads):
                fn(grads)
        elif out.grad is not None:
            fn(out.grad)


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is not None:
        t.grad += g
    elif t.grad_slot is not None and t.grad_slot.shape == g.shape:
        t.grad = t.grad_slot
        t.grad[...] = g
    else:
        t.grad = np.array(g, dtype=np.float64)


_ones = np.ones(0)


def _ones_vector(n: int) -> np.ndarray:
    """n ones, a slice of one cached vector that grows as needed. A product with
    it sums a matrix's rows (or columns) in one BLAS call, several times faster
    than numpy's .sum over an outer axis."""
    global _ones
    if _ones.size < n:
        _ones = np.ones(max(n, 2 * _ones.size))
    return _ones[:n]


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a gradient back to the pre-broadcast shape."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    if not shape:
        return g.sum()
    d = shape[-1]
    if g.shape[-1] == d and math.prod(shape) == d and g.flags.c_contiguous:
        # [D] or [1, ..., 1, D]: every leading axis, summed as one product
        rows = math.prod(g.shape[:-1])
        return (_ones_vector(rows) @ g.reshape(rows, d)).reshape(shape)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _op(args, run):
    """run over args as one op: one tape record where a tape is open and some
    arg wants a gradient. Every op goes through here.

    args are Tensors, or arrays or numbers (read as float64 arrays, which want
    no gradient), or None for an absent input. run(data, records) gets each
    arg's array, None where absent, and whether the op records; an op that
    does not record may overwrite its intermediates, since no backward pass
    reads them. It returns the output, or a tuple of outputs, and
    grads(g, needs), which gives one gradient per arg from g, that of the
    output, or with several outputs the tuple of their gradients, None for an
    output that got none. needs[i] says whether arg i wants a gradient (never
    an absent one), and an unwanted entry may be None. Each gradient is
    sum-reduced to its arg's shape, so args may broadcast against each other.
    """
    tape = _innermost.tape
    data = [a.data if type(a) is Tensor else a if a is None else np.asarray(a, np.float64)
            for a in args]
    needs = () if tape is None else tuple(type(a) is Tensor and a.requires_grad for a in args)
    records = any(needs)
    out, grads = run(data, records)
    multi = type(out) is tuple
    out = tuple(map(Tensor, out)) if multi else Tensor(out)
    if records:
        for o in out if multi else (out,):
            o.requires_grad = True

        def backward_fn(g):
            for a, need, ga in zip(args, needs, grads(g, needs)):
                if need:
                    _accumulate(a, _unbroadcast(ga, a.data.shape))

        tape._record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b):
    return _op((a, b), lambda d, records: (d[0] + d[1], lambda g, needs: (g, g)))


def mul(a, b):
    def run(d, records):
        ad, bd = d
        return ad * bd, lambda g, needs: (g * bd if needs[0] else None,
                                          g * ad if needs[1] else None)

    return _op((a, b), run)


# ---------------------------------------------------------------------------
# shape ops

def transpose(a, axes):
    axes = tuple(axes)
    # plain Python: for a handful of axes, np.argsort costs more than the transpose
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _op((a,), lambda d, records: (np.transpose(d[0], axes),
                                         lambda g, needs: (np.transpose(g, inverse),)))


def reshape(a, shape):
    def run(d, records):
        old = d[0].shape
        return d[0].reshape(shape), lambda g, needs: (g.reshape(old),)

    return _op((a,), run)


def getitem(a, idx):
    """a[idx] for an index of slices, ints, Ellipsis, None and boolean masks.

    An integer-array or list part raises TypeError: it can pick one element
    twice, and the backward pass, which assigns, would then keep only one of
    that element's gradients.
    """
    for part in idx if isinstance(idx, tuple) else (idx,):
        if isinstance(part, list) or (isinstance(part, np.ndarray) and part.dtype.kind in "iu"):
            raise TypeError(f"getitem takes no integer-array or list index, got {part!r}")

    def run(d, records):
        def grads(g, needs):
            z = np.zeros_like(d[0])
            z[idx] = g
            return (z,)

        return np.array(d[0][idx]), grads

    return _op((a,), run)


# ---------------------------------------------------------------------------
# fused layer ops: one tape record each, with a hand-written backward pass.
# Parameters may carry leading axes that broadcast against the activation
# (stacked snapshots, lined up by training.make_ensemble).

def _into(op, out: np.ndarray, b) -> np.ndarray:
    """op(out, b), a numpy ufunc, written into out; a fresh result where b adds
    leading axes (a stacked parameter). The try costs nothing on the usual
    path, where a shape check would."""
    try:
        op(out, b, out=out)
    except ValueError:
        return op(out, b)
    return out


def _project(xd, wd, bd=None):
    """xd @ wd + bd as linear computes it; no add when bd is None."""
    out = np.matmul(xd, wd)
    return out if bd is None else _into(np.add, out, bd)


def _project_grads(xd, wd, g, need_x: bool, need_w: bool):
    """The gradients of xd and wd in xd @ wd (+ b) from g, that of the output; b's is g."""
    # numpy's batched product runs up to twice as fast on a contiguous transpose as on a view
    gx = np.matmul(g, np.ascontiguousarray(np.swapaxes(wd, -1, -2))) if need_x else None
    gw = None
    if need_w and wd.ndim == 2:
        # one matrix product over every leading position at once
        gw = xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    elif need_w:
        gw = np.matmul(np.swapaxes(xd, -1, -2), g)
    return gx, gw


def linear(x, w, b=None):
    """x @ w + b: [..., Din] x [Din, Dout] + [Dout] -> [..., Dout]; no add when b is None."""
    def run(d, records):
        xd, wd, bd = d
        if xd.shape[-1] != wd.shape[-2]:
            raise ValueError(f"linear dimensions disagree: {xd.shape} x {wd.shape}")

        def grads(g, needs):
            return (*_project_grads(xd, wd, g, needs[0], needs[1]), g)

        return _project(xd, wd, bd), grads

    return _op((x, w, b), run)


# the norm kernel, which norm and the residual sublayer ops share.
# A norm is (alpha, gamma, beta, eps): DyT's scale alpha with eps None, or
# LayerNorm's eps with alpha None, and the per-channel affine gamma and beta

def _normalize(xd, alpha, eps):
    """A norm's map before its affine, in a fresh array: tanh(alpha * xd) for
    DyT, or with alpha None xd standardized over the last axis (biased variance
    plus eps) for LayerNorm. Returns it and grad(g, need_x, need_alpha), the
    gradients of xd and alpha from g, that of the output; alpha's is None for
    LayerNorm."""
    if alpha is not None:
        # asarray because numpy arithmetic on 0-d arrays returns scalars, which take no out=
        t = np.asarray(xd * alpha)
        np.tanh(t, out=t)

        def dyt_grad(g, need_x, need_alpha):
            d = g * (1.0 - t * t)
            galpha = None
            if need_alpha:
                # a scalar alpha's gradient as one dot product, not a product and then a sum
                galpha = np.vdot(d, xd) if alpha.ndim == 0 and d.shape == xd.shape else d * xd
            return d * alpha if need_x else None, galpha

        return t, dyt_grad
    centered = xd - xd.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered / std

    def layer_norm_grad(g, need_x, need_alpha):
        return (g - g.mean(axis=-1, keepdims=True)
                - xhat * (g * xhat).mean(axis=-1, keepdims=True)) / std, None

    return xhat, layer_norm_grad


def _norm(xd, alpha, gamma, beta, eps, records: bool):
    """gamma * n + beta for n = _normalize(xd, alpha, eps), and grads(g, needs)
    giving the gradients of (xd, alpha, gamma, beta) from g, that of the
    output, as in _op. Where the op does not record, the affine is written into
    n, which no backward pass reads then."""
    n, n_grad = _normalize(xd, alpha, eps)

    def grads(g, needs):
        gx, galpha = n_grad(g * gamma, needs[0], needs[1]) if needs[0] or needs[1] else (None, None)
        return gx, galpha, g * n if needs[2] else None, g

    scaled = np.asarray(n * gamma) if records else _into(np.multiply, n, gamma)
    return _into(np.add, scaled, beta), grads


def norm(x, parts):
    """gamma * n + beta for parts = (alpha, gamma, beta, eps): n = tanh(alpha * x),
    elementwise, for DyT (eps None), or with alpha None x standardized over the
    last axis (biased variance plus eps) for LayerNorm."""
    alpha, gamma, beta, eps = parts
    return _op((x, alpha, gamma, beta), lambda data, records: _norm(*data, eps, records))


def _residual(args, eps, out_keep, core):
    """x + out_keep * core(norm(x)) as one op over args = (x, alpha, gamma, beta,
    *weights): the frame of the residual sublayer ops.

    (alpha, gamma, beta, eps) is the norm, applied to x as norm applies it.
    core(h, d, records) gets the normalized x, the arrays d of args (the
    weights from d[4] on) and whether the op records, and returns the
    sublayer's output and grads(g, needs) over (h, *weights) as in _op.
    out_keep, when given, multiplies that output: inverted dropout drawn by
    the caller, or any multiplier that broadcasts against it. The multiply
    and the residual add run in place, in the order of the composite they
    replaced (mul, then add), and x's gradient adds the norm path's to the
    residual's, as that composite's tape did.
    """
    def run(d, records):
        xd = d[0]
        h, norm_grads = _norm(xd, d[1], d[2], d[3], eps, records)
        out, core_grads = core(h, d, records)
        sub_shape = out.shape
        if out_keep is not None:
            out = _into(np.multiply, out, out_keep)
        out = _into(np.add, out, xd)

        def grads(g, needs):
            need_h = needs[0] or needs[1] or needs[2] or needs[3]
            g_sub = g if out_keep is None else g * out_keep
            gh, *g_rest = core_grads(_unbroadcast(g_sub, sub_shape), (need_h, *needs[4:]))
            if not need_h:
                return (None,) * 4 + tuple(g_rest)
            gx, *g_norm = norm_grads(_unbroadcast(gh, h.shape), needs[:4])
            if needs[0]:
                # laid out as the residual gradient, as the composite's copy of it
                # was: a later reduction over x's gradient sums in that order
                g_res = _unbroadcast(g, xd.shape)
                gx = np.add(g_res, _unbroadcast(gx, xd.shape), out=np.empty_like(g_res))
            return (gx, *g_norm, *g_rest)

        return out, grads

    return _op(args, run)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(xd, for_backward: bool = True):
    """Tanh-form GELU of xd, 0.5 x (1 + tanh(c (x + 0.044715 x^3))) with c = sqrt(2 / pi),
    and a function giving the gradient of xd from that of the output. Not
    for_backward, the function is None and xd is overwritten, which leaves one
    fresh array of its size instead of four."""
    # in place where it keeps the association order; asarray because numpy
    # arithmetic on 0-d arrays returns scalars, which take no out=
    t = np.asarray(xd * xd)
    t *= xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    if not for_backward:
        t += 1.0
        xd *= 0.5
        t *= xd
        return t, None
    half_x, t1 = xd * 0.5, t + 1.0

    def grad(g):
        dt = 1.0 - t * t
        dt *= _GELU_C
        poly = xd * (3.0 * 0.044715)
        poly *= xd
        poly += 1.0
        dt *= poly
        dt *= half_x
        dt += t1 * 0.5
        dt *= g
        return dt

    return half_x * t1, grad


def _feedforward(h, w1, b1, w2, b2, keep, records: bool):
    """(gelu(h @ w1 + b1) * keep) @ w2 + b2, and grads(g, needs) over (h, w1, b1,
    w2, b2) as in _op. No keep means no multiply. Where the op does not
    record, GELU runs in place over the hidden array (see _gelu)."""
    hidden = _project(h, w1, b1)
    act, act_grad = _gelu(hidden, records)
    act_shape = act.shape
    # no backward pass reads act itself, so keep may overwrite it
    dropped = act if keep is None else _into(np.multiply, act, keep)

    def grads(g, needs):
        need_hidden = needs[0] or needs[1] or needs[2]
        g_drop, gw2 = _project_grads(dropped, w2, g, need_hidden, needs[3])
        if not need_hidden:
            return None, None, None, gw2, g
        g_act = _unbroadcast(g_drop, dropped.shape)
        if keep is not None:
            g_act = _unbroadcast(g_act * keep, act_shape)
        gh = act_grad(g_act)
        return (*_project_grads(h, w1, gh, needs[0], needs[1]), gh, gw2, g)

    return _project(dropped, w2, b2), grads


def feedforward(x, norm, w1, b1, w2, b2, keep=None, out_keep=None):
    """The feed-forward residual sublayer x + out_keep * ((gelu(h @ w1 + b1) * keep) @ w2 + b2)
    for h = norm(x), as one op.

    norm is (alpha, gamma, beta, eps): DyT's scale with eps None, or LayerNorm's
    eps with alpha None, and the affine. GELU is the tanh form, smooth, which
    keeps finite-difference checks tight. keep, when given, multiplies the
    hidden activation and out_keep the sublayer's output (inverted dropout
    drawn by the caller). Weights and biases may carry leading axes, as in
    linear.
    """
    return _residual((x, *norm[:3], w1, b1, w2, b2), norm[3], out_keep,
                     lambda h, d, records: _feedforward(h, *d[4:], keep, records))


# attention exponentiates each row's logits unshifted while its attended max
# is at most _EXP_CEIL, clipped to +-_EXP_CEIL: no row sum can overflow and
# no attended weight falls below exp(-600) / Tk, far above a denormal. A row
# above the ceiling is shifted by its attended max first; one whose weights
# sum below _ROW_SUM_FLOOR, every attended logit far below range, is
# recomputed that way
_EXP_CEIL = 300.0
_ROW_SUM_FLOOR = math.exp(100.0 - _EXP_CEIL)


def _attended_max(scores, mask):
    """Each row's max over its attended keys, keeping the last axis."""
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    return scores.max(axis=-1, keepdims=True)


def _masked_exp(scores, mask, clip: bool):
    """exp of the logits, clipped to +-_EXP_CEIL when clip is set, times the
    mask, in a fresh array: a blocked key weighs exactly 0, whatever its logit."""
    if clip:
        weights = np.clip(scores, -_EXP_CEIL, _EXP_CEIL)
        np.exp(weights, out=weights)
    else:
        weights = np.exp(scores)
    if mask is not None:
        try:
            weights *= mask
        except ValueError:  # the mask adds leading axes: a fresh product takes them
            weights = weights * mask
    return weights


def _masked_softmax(scores, mask):
    """Softmax over the last axis of scores [..., H, Tq, Tk].

    mask ([..., Tq, Tk] bool, true = attend) applies to every head and must
    leave each query at least one key; a blocked key's weight is exactly 0.
    A row is shifted by its attended max only where exp needs it, so each
    row's weights depend on its own logits and mask alone. An attended logit
    clipped at -_EXP_CEIL weighs at most Tk exp(-100) of its row's largest.
    """
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise ValueError("attention mask leaves a query row with no keys")
        mask = mask[..., None, :, :]
    top, bottom = scores.max(), scores.min()
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise NumericalError("attention requires finite logits")
    if top > _EXP_CEIL:  # x - 0.0 is x: rows under the ceiling stay as they are
        row_top = _attended_max(scores, mask)
        scores = scores - np.where(row_top > _EXP_CEIL, row_top, 0.0)
    # clipping logits that are all in range changes none of them
    weights = _masked_exp(scores, mask, clip=top > _EXP_CEIL or bottom < -_EXP_CEIL)
    # a batched matrix product sums rows faster than .sum. One 2-D product over
    # every row, as the backward pass takes, is faster still, but how BLAS
    # rounds a row then depends on the whole product's shape, so a stacked
    # ensemble's slices would no longer equal separate forwards bit for bit
    ones = np.ones((weights.shape[-1], 1))
    total = np.matmul(weights, ones)
    low = total < _ROW_SUM_FLOOR
    if low.any():
        rows = np.nonzero(low[..., 0])
        row_mask = None if mask is None else np.broadcast_to(mask, weights.shape)[rows]
        row_scores = np.broadcast_to(scores, weights.shape)[rows]
        weights[rows] = _masked_exp(row_scores - _attended_max(row_scores, row_mask), row_mask,
                                    clip=True)
        total[rows] = np.matmul(weights[rows], ones)
    weights /= total
    return weights


def _masked_softmax_grad(g, weights, keep, scale):
    """The gradient of `scale` times the logits from g, the gradient of the
    weights after `keep`; written into g. A blocked logit's weight is exactly
    0, so its gradient is too."""
    if keep is not None:
        g *= keep
    gw = g * weights
    tk = gw.shape[-1]
    g -= (gw.reshape(-1, tk) @ _ones_vector(tk)).reshape(gw.shape[:-1] + (1,))
    g *= weights * scale
    return g


def _attend(qd, kd, vd, heads: int, mask, keep):
    """Multi-head scaled dot-product attention of projected queries qd [..., Tq, D]
    over keys kd and values vd [..., Tk, D], and a function grads(g, needs) giving
    their gradients from g, that of the output, as in _op.

    Leading axes broadcast; each array is split into `heads` heads of D / heads
    channels, merged back into [..., Tq, D] after. mask ([..., Tq, Tk] bool,
    true = attend) applies to every head and must leave each query at least one
    key. keep, when given, multiplies the [..., H, Tq, Tk] softmax weights
    (inverted dropout drawn by the caller). The softmax weights are kept for
    the backward pass, not recomputed.
    """
    d = qd.shape[-1]
    if d % heads != 0:
        raise ValueError("width must be divisible by heads")
    hd = d // heads

    def split(a):  # [..., T, D] -> [..., H, T, D / H]
        return np.swapaxes(a.reshape(a.shape[:-1] + (heads, hd)), -3, -2)

    def merge(a):  # [..., H, T, D / H] -> [..., T, D]
        a = np.swapaxes(a, -3, -2)
        return a.reshape(a.shape[:-2] + (d,))

    qh, kh, vh = split(qd), split(kd), split(vd)
    scale = 1.0 / np.sqrt(hd)
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2))
    scores *= scale
    weights = _masked_softmax(scores, mask)
    dropped = weights if keep is None else weights * keep

    def grads(g, needs):
        need_q, need_k, need_v = needs
        g_ctx = split(g)
        gv = merge(np.matmul(np.swapaxes(dropped, -1, -2), g_ctx)) if need_v else None
        if not (need_q or need_k):
            return None, None, gv
        gs = _masked_softmax_grad(np.matmul(g_ctx, np.swapaxes(vh, -1, -2)), weights, keep, scale)
        return (merge(np.matmul(gs, kh)) if need_q else None,
                merge(np.matmul(np.swapaxes(gs, -1, -2), qh)) if need_k else None, gv)

    return merge(np.matmul(dropped, vh)), grads


def _self_attention(h, wq, bq, wk, wv, bv, wo, bo, heads: int, mask, keep):
    """Self-attention of h [..., T, D] from its projections through the output
    projection, and grads(g, needs) over (h, wq, bq, wk, wv, bv, wo, bo) as in
    _op; see attention."""
    qd, kd, vd = _project(h, wq, bq), _project(h, wk), _project(h, wv, bv)
    ctx, attend_grads = _attend(qd, kd, vd, heads, mask, keep)

    def grads(g, needs):
        need_h = needs[0]
        need_q, need_k = need_h or needs[1] or needs[2], need_h or needs[3]
        need_v = need_h or needs[4] or needs[5]
        g_ctx, gwo = _project_grads(ctx, wo, g, need_q or need_k or need_v, needs[6])
        if g_ctx is None:
            return None, None, None, None, None, None, gwo, g
        gq, gk, gv = attend_grads(_unbroadcast(g_ctx, ctx.shape), (need_q, need_k, need_v))
        gh = gwq = gwk = gwv = None
        if need_v:
            gv = _unbroadcast(gv, vd.shape)
            gh, gwv = _project_grads(h, wv, gv, need_h, needs[4])
        if need_k:
            ghk, gwk = _project_grads(h, wk, _unbroadcast(gk, kd.shape), need_h, needs[3])
        if need_q:
            gq = _unbroadcast(gq, qd.shape)
            ghq, gwq = _project_grads(h, wq, gq, need_h, needs[1])
        if need_h:
            gh = _unbroadcast(gh, h.shape)
            gh += _unbroadcast(ghk, h.shape)
            gh += _unbroadcast(ghq, h.shape)
        return gh, gwq, gq, gwk, gwv, gv, gwo, g

    return _project(ctx, wo, bo), grads


def attention(x, norm, wq, bq, wk, wv, bv, wo, bo, heads: int, mask=None, keep=None,
              out_keep=None):
    """The self-attention residual sublayer x + out_keep * attend(h) for h = norm(x),
    as one op: h [..., T, D] attends over itself.

    norm is as in feedforward. Queries are h @ wq + bq, keys h @ wk (no bias:
    it would add a constant to each logit row, which softmax removes) and
    values h @ wv + bv, each split into `heads` heads. mask ([..., T, T] bool,
    true = attend) applies to every head and must leave each query at least
    one key; keep, when given, multiplies the [..., H, T, T] softmax weights
    and out_keep the sublayer's output (inverted dropout drawn by the caller).
    The merged context is projected by wo and bo. Weights and biases may carry
    leading axes, as in linear. h's gradient sums the value, key and query
    paths in that order.
    """
    return _residual((x, *norm[:3], wq, bq, wk, wv, bv, wo, bo), norm[3], out_keep,
                     lambda h, d, records: _self_attention(h, *d[4:], heads, mask, keep))


def _memory_read(qd, mem, gamma, beta, wk, wv, bv, heads: int, mask, keep):
    """_attend(qd, m @ wk, m @ wv + bv, heads, mask, keep) over the memory
    m = gamma * mem + beta, with the affine and the key and value projections
    moved onto the weights, the queries and the context, and a function
    grads(g, needs) giving the gradients of (qd, mem, gamma, beta, wk, wv, bv)
    from g, that of the output, as in _op.

    qd is [..., Tq, D] (projected), mem [..., Tk, D], wk and wv [..., D, D]
    of one shape, and bv, gamma and beta [..., D] (a norm's affine, one value
    per channel, lined up like bv); leading axes broadcast, and mask and keep
    are as in _attend. The affine is folded into the projections, so no
    [..., Tk, D] pass applies it: the rows of wk and wv are scaled by gamma,
    the value bias is bv + beta @ wv, and beta @ wk is dropped, since it adds
    one constant to every logit of a query's row and softmax removes it. Head
    h then scores its queries against the memory through q_h wk_h^T and reads
    (weights @ memory) wv_h + bv_h * rowsum(weights), so no [..., Tk, D] key
    or value array is made either: with one query per memory this is about
    D / heads times less work. The row sum keeps dropout exact.

    The per-head products with wk and wv take every query of every leading
    position the weights broadcast over as one row axis, so a stacked
    [S, 1, D, D] weight gives S products of the shapes a plain one gives;
    beta @ wv is a [..., 1, D] @ [..., D, D] product in both cases too.
    """
    tq, d = qd.shape[-2:]
    tk = mem.shape[-2]
    if d % heads != 0:
        raise ValueError("width must be divisible by heads")
    if wk.shape != wv.shape:
        raise ValueError(f"key and value weights differ in shape: {wk.shape} vs {wv.shape}")
    # the affine as rows [..., 1, D]
    g_row, b_row = (a if a.ndim > 1 else a[None] for a in (gamma, beta))
    if g_row.shape[-2] != 1 or b_row.shape[-2] != 1:
        raise ValueError(f"the memory's affine varies by row: {gamma.shape}, {beta.shape}")
    g_col = g_row.swapaxes(-1, -2)                                           # [..., D, 1]
    wkd, wvd = g_col * wk, g_col * wv
    bvd = _into(np.add, np.matmul(b_row, wv), bv)                                # [..., 1, D]
    hd = d // heads
    lead = np.broadcast_shapes(qd.shape[:-2], mem.shape[:-2], np.shape(mask)[:-2], wkd.shape[:-2])
    n = len(lead)
    w_lead = (1,) * (n + 2 - wkd.ndim) + wkd.shape[:-2]
    nb = n  # lead[:nb] are the batch axes of the weight products, the rest are rows
    while nb and w_lead[nb - 1] == 1:
        nb -= 1
    batch, rows = lead[:nb], math.prod(lead[nb:]) * tq
    # [*lead, H, Tq, X] <-> [*batch, H, *lead[nb:], Tq, X]: the head axis moves past the row axes
    to_head = (*range(nb), n, *range(nb, n), n + 1, n + 2)
    to_query = (*range(nb), *range(nb + 1, n + 1), nb, n + 1, n + 2)

    def by_head(a):  # [*lead, H * Tq, X] -> [*batch, H, rows, X]
        a = a.reshape(lead + (heads, tq, a.shape[-1])).transpose(to_head)
        return a.reshape(batch + (heads, rows, a.shape[-1]))

    def by_query(a):  # [*batch, H, rows, X] -> [*lead, H * Tq, X]
        a = a.reshape(batch + (heads,) + lead[nb:] + (tq, a.shape[-1])).transpose(to_query)
        return a.reshape(lead + (heads * tq, a.shape[-1]))

    def split_w(w):  # [..., D, D] -> [*batch, H, D, D / H]
        return w.reshape(w_lead[:nb] + (d, heads, hd)).swapaxes(-3, -2)

    def merge_w(gw):  # [*batch, H, D, D / H] -> the folded weights' shape
        gw = gw.swapaxes(-3, -2).reshape(batch + (d, d))
        return _unbroadcast(gw, w_lead[:nb] + (d, d)).reshape(wkd.shape)

    if qd.shape[:-2] != lead:
        qd = np.broadcast_to(qd, lead + (tq, d))
    qh = qd.reshape(batch + (rows, heads, hd)).swapaxes(-3, -2)             # [*batch, H, rows, hd]
    wkh, wvh = split_w(wkd), split_w(wvd)
    qk = by_query(np.matmul(qh, wkh.swapaxes(-1, -2)))                      # [*lead, H * Tq, D]
    scale = 1.0 / np.sqrt(hd)
    scores = np.matmul(qk, mem.swapaxes(-1, -2))
    scores *= scale
    weights = _masked_softmax(scores.reshape(lead + (heads, tq, tk)), mask)
    dropped = weights if keep is None else weights * keep
    dropped_q = dropped.reshape(lead + (heads * tq, tk))
    read = by_head(np.matmul(dropped_q, mem))                                # [*batch, H, rows, D]
    row_sum = dropped.sum(axis=-1).swapaxes(-1, -2)[..., None]               # [*lead, Tq, H, 1]
    bv_h = bvd.reshape(bvd.shape[:-1] + (heads, hd))
    ctx = row_sum * bv_h
    ctx += np.matmul(read, wvh).swapaxes(-3, -2).reshape(lead + (tq, heads, hd))

    def grads(g, needs):
        # gradients of the folded weights first, then mapped back onto the inputs
        need_wk, need_wv = needs[4] or needs[2], needs[5] or needs[2]
        gh = g.reshape(batch + (rows, heads, hd)).swapaxes(-3, -2)          # [*batch, H, rows, hd]
        g4 = g.reshape(lead + (tq, heads, hd))
        gwv = merge_w(np.matmul(read.swapaxes(-1, -2), gh)) if need_wv else None
        gbv = None
        if needs[6] or needs[5] or needs[3]:
            gbv = _unbroadcast((g4 * row_sum).reshape(lead + (tq, d)), bvd.shape)
        gq = gmem = gwk = None
        if needs[0] or needs[1] or need_wk:
            g_read = by_query(np.matmul(gh, wvh.swapaxes(-1, -2)))           # [*lead, H * Tq, D]
            gs = np.matmul(g_read, mem.swapaxes(-1, -2))
            gs += (g4 * bv_h).sum(axis=-1).swapaxes(-1, -2).reshape(lead + (heads * tq, 1))
            gs = _masked_softmax_grad(gs.reshape(lead + (heads, tq, tk)), weights, keep, scale)
            gs = gs.reshape(lead + (heads * tq, tk))
            if needs[1]:
                gmem = np.matmul(dropped_q.swapaxes(-1, -2), g_read)
                gmem += np.matmul(gs.swapaxes(-1, -2), qk)
            if needs[0] or need_wk:
                gqk = by_head(np.matmul(gs, mem))                             # [*batch, H, rows, D]
                if needs[0]:
                    gq = np.matmul(gqk, wkh).swapaxes(-3, -2).reshape(lead + (tq, d))
                if need_wk:
                    gwk = merge_w(np.matmul(gqk.swapaxes(-1, -2), qh))
        ggamma = None
        if needs[2]:
            ggamma = (gwk * wk + gwv * wv).sum(axis=-1)[..., None, :]
        return (gq, gmem, ggamma,
                np.matmul(gbv, wv.swapaxes(-1, -2)) if needs[3] else None,
                g_col * gwk if needs[4] else None,
                g_col * gwv + b_row.swapaxes(-1, -2) * gbv if needs[5] else None,
                gbv)

    return ctx.reshape(lead + (tq, d)), grads


def _memory_attention(h, memory, m_alpha, m_gamma, m_beta, wq, bq, wk, wv, bv, wo, bo, m_eps,
                      heads: int, mask, keep):
    """The read of queries h [..., Tq, D] from a memory through its norm, from
    the query projection through the output projection, and grads(g, needs)
    over (h, memory, m_alpha, m_gamma, m_beta, wq, bq, wk, wv, bv, wo, bo) as
    in _op; see memory_attention."""
    qd = _project(h, wq, bq)
    mem, mem_grad = _normalize(memory, m_alpha, m_eps)
    ctx, read_grads = _memory_read(qd, mem, m_gamma, m_beta, wk, wv, bv, heads, mask, keep)

    def grads(g, needs):
        need_q = needs[0] or needs[5] or needs[6]
        read_needs = (need_q, needs[1] or needs[2], needs[3], needs[4], *needs[7:10])
        g_ctx, gwo = _project_grads(ctx, wo, g, any(read_needs), needs[10])
        if g_ctx is None:
            return (None,) * 10 + (gwo, g)
        gq, gmem, gm_gamma, gm_beta, gwk, gwv, gbv = read_grads(
            _unbroadcast(g_ctx, ctx.shape), read_needs)
        gh = gwq = gm = gm_alpha = None
        if need_q:
            gq = _unbroadcast(gq, qd.shape)
            gh, gwq = _project_grads(h, wq, gq, needs[0], needs[5])
        if read_needs[1]:
            gm, gm_alpha = mem_grad(_unbroadcast(gmem, mem.shape), needs[1], needs[2])
        return gh, gm, gm_alpha, gm_gamma, gm_beta, gwq, gq, gwk, gwv, gbv, gwo, g

    return _project(ctx, wo, bo), grads


def memory_attention(x, norm, memory, memory_norm, wq, bq, wk, wv, bv, wo, bo, heads: int,
                     mask=None, keep=None, out_keep=None):
    """The residual sublayer over a memory, x + out_keep * read(h) for h = norm(x),
    as one op: queries h @ wq + bq ([..., Tq, D]) attend over keys m @ wk and
    values m @ wv + bv of the memory m = memory_norm(memory) ([..., Tk, D]), and
    the context is projected by wo and bo.

    norm and memory_norm are as in feedforward; memory_norm's affine must be one
    value per channel. mask ([..., Tq, Tk]), keep ([..., H, Tq, Tk]) and
    out_keep are as in attention. The memory norm's map runs over the memory,
    but its affine and the key and value projections never pass over it: see
    _memory_read, which also gives the shapes the weights may take.
    """
    m_alpha, m_gamma, m_beta, m_eps = memory_norm
    return _residual((x, *norm[:3], memory, m_alpha, m_gamma, m_beta, wq, bq, wk, wv, bv, wo, bo),
                     norm[3], out_keep,
                     lambda h, d, records: _memory_attention(h, *d[4:], m_eps, heads, mask, keep))


# exp's inputs are floored here, above ln(DBL_MIN) ~ -708.4: numpy's exp runs
# several times slower on inputs whose result underflows
_EXP_FLOOR = -700.0


def decoder_head(x, w1, b1, w2, b2, origins, shape, floor: float):
    """The decoder head as one op with three outputs: (locations, scales, mode
    probabilities).

    raw = gelu(x @ w1 + b1) @ w2 + b2 has K * (4F + 1) entries per row and is
    reshaped to [*lead, K, 4F + 1] for shape = (*lead, K, F). In each mode the
    first 2F entries are offsets from origins ([..., 2], broadcast against
    lead), the next 2F are scale logits and the last is the mode's logit.
    locations = offsets + origins and scales = softplus(scale logits) + floor
    are [*lead, K, F, 2], and the mode probabilities, the softmax of the mode
    logits over K, are [*lead, K]. softplus is max(a, 0) + log1p(exp(-|a|)),
    with exp's input floored at -700, which moves no result but one of a < -700
    (the floored term is under 1e-304). The softmax subtracts each row's max
    and needs finite logits.
    """
    *lead, k, f = shape
    rows = (*lead, k, f, 2)

    def run(data, records):
        out, ff_grads = _feedforward(*data, None, records)
        raw = out.reshape((*lead, k, 4 * f + 1))
        # each origin repeated F times, [..., 2F]: added to the offsets' columns,
        # not as [..., 1, 1, 2] to [..., K, F, 2], numpy's loop runs along 2F, not 2
        tiled = np.repeat(origins[..., None, :], f, axis=-2).reshape(origins.shape[:-1] + (2 * f,))
        locations = (raw[..., :2 * f] + tiled[..., None, :]).reshape(rows)
        a = np.array(raw[..., 2 * f:4 * f])  # contiguous: three passes read it
        t = np.abs(a)
        np.negative(t, out=t)
        np.maximum(t, _EXP_FLOOR, out=t)
        np.exp(t, out=t)                          # exp(-|a|)
        scales = np.log1p(t)
        scales += np.maximum(a, 0.0)
        scales += floor
        logits = raw[..., 4 * f]
        if not np.all(np.isfinite(logits)):
            raise NumericalError("the mode logits must be finite")
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)

        def grads(gs, needs):
            g_loc, g_scale, g_prob = gs
            # each part is added into zeros, not assigned, as the composite's
            # slicing ops summed theirs: a gradient of -0.0 becomes 0.0
            g_raw = np.zeros(raw.shape)
            if g_loc is not None:
                g_raw[..., :2 * f] += g_loc.reshape(a.shape)
            if g_scale is not None:
                # softplus' gradient, the sigmoid, stable on both sides:
                # 1 / (1 + t) for a >= 0, t / (1 + t) below
                sig = np.where(a >= 0.0, 1.0, t)
                sig /= t + 1.0
                g_raw[..., 2 * f:4 * f] += g_scale.reshape(a.shape) * sig
            if g_prob is not None:
                g_raw[..., 4 * f] += (g_prob - (g_prob * probs).sum(axis=-1, keepdims=True)) * probs
            return ff_grads(g_raw.reshape(out.shape), needs)

        return (locations, scales.reshape(rows), probs), grads

    return _op((x, w1, b1, w2, b2), run)


def _row_mean(per_row, rows):
    """The mean of per_row [A] over the n rows the boolean mask rows picks, and a
    function giving per_row's gradient from the mean's g: g / n there, 0 elsewhere."""
    rows = np.asarray(rows, dtype=bool)
    n = int(rows.sum())
    if not n:
        raise ValueError("the loss needs at least one scored row")

    def grad(g):
        g_rows = np.zeros(per_row.shape)
        g_rows[rows] = g / n
        return g_rows

    return per_row[rows].mean(), grad


def laplace_nll(locations, scales, gt, weight, rows):
    """Weighted Laplace negative log-likelihood: each agent's sum over (K, F, 2),
    averaged over the agents the boolean mask rows [A] picks.

    Each element adds weight * (log(2 b) + |gt - mu| / b) for location mu and
    scale b, both [A, K, F, 2]. gt and weight are arrays that broadcast
    against locations and get no gradient. Every scale must be strictly
    positive.
    """
    def run(d, records):
        mu, b = d
        if np.any(b <= 0.0):
            raise NumericalError("Laplace NLL needs strictly positive scales")
        diff = mu - gt
        ratio = np.abs(diff) / b
        terms = np.log(b * 2.0) + ratio
        value, row_grad = _row_mean((terms * weight).sum(axis=(1, 2, 3)), rows)

        def grads(g, needs):
            gb = row_grad(g)[:, None, None, None] * weight / b
            return (gb * np.sign(diff) if needs[0] else None,
                    gb * (1.0 - ratio) if needs[1] else None)

        return value, grads

    return _op((locations, scales), run)


def mode_ce(probs, onehot, rows, floor: float):
    """-log(max(p, floor)) for each agent's chosen mode probability p = sum_k
    probs * onehot (both [A, K]; onehot gets no gradient, nor probs where p <=
    floor), averaged over the agents the boolean mask rows [A] picks."""
    def run(d, records):
        p = (d[0] * onehot).sum(axis=1)
        keep = p > floor
        clamped = np.maximum(p, floor)
        value, row_grad = _row_mean(-np.log(clamped), rows)

        def grads(g, needs):
            return ((-row_grad(g) / clamped * keep)[:, None] * onehot,)

        return value, grads

    return _op((probs,), run)


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

def _u64(value: int) -> np.ndarray:
    return np.array(value, dtype=np.uint64)


_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
# 0-d arrays, not numpy scalars: numpy applies them with less overhead per call
_GOLDEN = _u64(_GOLDEN_INT)
_MIX1_INT, _MIX2_INT = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX1, _MIX2 = _u64(_MIX1_INT), _u64(_MIX2_INT)
_S11, _S27, _S30, _S31 = _u64(11), _u64(27), _u64(30), _u64(31)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of z, computed in place with one scratch array; returns z."""
    shifted = z >> _S30
    z ^= shifted
    z *= _MIX1
    z ^= np.right_shift(z, _S27, out=shifted)
    z *= _MIX2
    z ^= np.right_shift(z, _S31, out=shifted)
    return z


def _mix64_int(z: int) -> int:
    """_mix64 of one value, on Python ints."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """splitmix64 stream: 64-bit state, same seed same bits.

    Scalar and vector draws read one stream, and the shape picks the path.
    uniform and integers with shape (), next_u64 and child run splitmix64 on
    Python ints, about a twentieth of the cost of a one-element numpy pass;
    every other draw runs on numpy arrays. So n scalar draws equal one draw
    of shape (n,), bit for bit.
    """

    algorithm = "splitmix64"

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # a Python int: advancing it costs no numpy call

    def u64(self, n: int) -> np.ndarray:
        # uint64 array arithmetic wraps modulo 2**64 without a warning
        vals = np.arange(1, n + 1, dtype=np.uint64)
        vals *= _GOLDEN
        vals += _u64(self._state)
        self.skip(n)
        return _mix64(vals)

    def next_u64(self) -> int:
        """The next draw of u64(1), as a Python int."""
        self._state = (self._state + _GOLDEN_INT) & _MASK64
        return _mix64_int(self._state)

    def skip(self, n: int):
        """Advance the stream past n draws of u64 without computing them."""
        self._state = (self._state + n * _GOLDEN_INT) & _MASK64

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        if not shape:
            return low + (high - low) * ((self.next_u64() >> 11) * 2.0 ** -53)
        u = (self.u64(int(np.prod(shape))) >> _S11).astype(np.float64) * (2.0 ** -53)
        return (low + (high - low) * u).reshape(shape)

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = 1.0 - (self.u64(m) >> _S11).astype(np.float64) * (2.0 ** -53)
        u2 = (self.u64(m) >> _S11).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        out = mean + std * z
        return out.reshape(shape) if shape else float(out[0])

    def integers(self, below: int, shape=()) -> np.ndarray:
        if below < 1:
            raise ValueError(f"integers needs below >= 1, got {below}")
        # modulo bias is negligible for below << 2**64
        if not shape:
            return self.next_u64() % int(below)
        vals = (self.u64(int(np.prod(shape))) % np.uint64(below)).astype(np.int64)
        return vals.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self.u64(n), kind="stable")

    def child(self, key: int) -> "Rng":
        """Independent stream derived from (state, key); parent state unchanged."""
        k = _mix64_int(((key & _MASK64) + _GOLDEN_INT) & _MASK64)
        return Rng(_mix64_int(k ^ self._state))
