"""Dense float tensors with a reverse-mode gradient tape.

Everything else in this package computes on :class:`Tensor` values: thin
wrappers around contiguous numpy arrays (float32 by default) plus an
optional recording tape for reverse-mode differentiation.  Reductions and
transcendental ops accumulate in float64 before casting back to the tensor
dtype, which keeps forward results stable enough to compare bit-for-bit
against scalar reference implementations in the tests.

Tensors are immutable values once produced; ops are pure functions.  A
:class:`GradTape`, while active, records every primitive whose inputs are
tracked, and ``gradients(loss)`` replays the record in reverse order.
The tape records each tensor by its process-unique ``key``, never the
tensor itself, and each backward closure holds only the arrays it reads
(shapes and dtypes where it reads nothing else), so an op output that no
backward reads is freed as soon as the caller drops it.  The replay frees
each intermediate gradient as soon as the op that produced that tensor
has read it, so only leaves (tracked tensors that no recorded op
produced) keep a gradient.  A backward is plain numpy: the replay runs
no op.  A thread records on at most one tape: entering a second, or
asking a tape for a loss it did not record, is a :class:`ContractError`.
Threads may each record on their own tape at the same time.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float32
LAYER_NORM_EPS = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Operands have incompatible or unsupported shapes."""


class ContractError(ValueError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


# next() on a count is atomic under the GIL, so keys are unique across threads
_KEYS = itertools.count()


class Tensor:
    """An immutable dense array, optionally tracked for gradients.

    ``key`` is unique within the process; the tape records tensors by it.
    """

    __slots__ = ("data", "requires_grad", "name", "key")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        # float64 passes through so oracle tests can run an extended-
        # precision twin of the float32 production path
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.name = name
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    # Arithmetic sugar; the real work lives in the module-level ops.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)


class _TapeEntry(NamedTuple):
    """One recorded op: its output's key, ``(key, dtype)`` per input (None
    for an untracked input) and the backward closure."""

    output: int
    inputs: tuple[tuple[int, np.dtype] | None, ...]
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]


class Gradients:
    """Gradient per leaf of a replayed loss; leaves it does not reach read zero.

    Only leaves, the tracked tensors that no recorded op produced, keep a
    gradient: the replay frees every intermediate one once it is used.
    Asking for a tensor that a recorded op produced is a
    :class:`ContractError`.  The object holds the leaf gradients and the
    keys of the produced tensors, not the tape, so it keeps no tensor of
    the graph alive.
    """

    def __init__(self, grads: dict[int, np.ndarray], produced: set[int]):
        self._grads = grads
        self._produced = produced

    def wrt(self, t: Tensor) -> np.ndarray:
        g = self._grads.get(t.key)
        if g is not None:
            return g
        if t.key in self._produced:
            raise ContractError("gradients are kept for leaves only; "
                                f"{t!r} was produced by a recorded op")
        return np.zeros_like(t.data)

    def __contains__(self, t: Tensor) -> bool:
        return t.key in self._grads


class _Recording(threading.local):
    """The current thread's recording tape, if any."""

    tape: GradTape | None = None


_RECORDING = _Recording()


class GradTape:
    """Ordered record of the ops its thread runs in its ``with`` block,
    replayed backward for a loss it recorded.  Tapes do not nest."""

    def __init__(self):
        self._entries: list[_TapeEntry] = []

    def __enter__(self) -> "GradTape":
        if _RECORDING.tape is not None:
            raise ContractError("this thread already records on a GradTape; "
                                "tapes do not nest")
        _RECORDING.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _RECORDING.tape = None

    def __len__(self) -> int:
        return len(self._entries)

    def gradients(self, loss: Tensor) -> Gradients:
        """Accumulated gradient of a scalar loss for every tracked leaf.

        Entries were appended in execution order, so iterating them in
        reverse visits the graph in reverse topological order: when an
        entry is reached, its output's gradient is complete, and the entry
        that produced a tensor is the last to read that gradient, so it is
        dropped right there.
        """
        if loss.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        produced = {entry.output for entry in self._entries}
        if loss.key not in produced:
            raise ContractError(f"{loss!r} was not recorded by this tape")
        grads: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
        for entry in reversed(self._entries):
            g_out = grads.pop(entry.output, None)
            if g_out is None:
                continue
            in_grads = entry.backward(g_out)
            for inp, g in zip(entry.inputs, in_grads):
                if g is None or inp is None:
                    continue
                key, dtype = inp
                g = np.asarray(g, dtype=dtype)
                prev = grads.get(key)
                if prev is None:
                    grads[key] = g.copy() if g.base is not None else g
                else:
                    grads[key] = prev + g
        return Gradients(grads, produced)


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
          name: str | None = None) -> Tensor:
    tracked = any(i.requires_grad for i in inputs)
    out = Tensor(out_data, requires_grad=tracked, name=name)
    tape = _RECORDING.tape
    if tape is not None and tracked:
        tape._entries.append(_TapeEntry(
            out.key, tuple((i.key, i.data.dtype) if i.requires_grad else None
                           for i in inputs), backward))
    return out


def custom_op(inputs: Sequence[Tensor], out_data: np.ndarray,
              backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
              name: str | None = None) -> Tensor:
    """Register an externally-computed primitive on the active tape.

    Used by the quantizers to splice straight-through gradients into the
    graph without the tensor module knowing about quantization.  The tape
    records the inputs by key only, so ``backward`` must capture the arrays
    it reads, never a :class:`Tensor` whose shape or dtype is all it needs:
    a captured tensor stays alive until the tape is dropped.
    """
    return _emit(np.asarray(out_data), tuple(inputs), backward, name=name)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# element-wise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _emit(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _emit(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad * bd

    def backward(g):
        return (_unbroadcast(g * bd, ad.shape),
                _unbroadcast(g * ad, bd.shape))

    return _emit(out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)
    out = a.data * c

    def backward(g):
        return (g * c,)

    return _emit(out, (a,), backward)


# ---------------------------------------------------------------------------
# matmul and shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    # float64 accumulation, rounded once to the output dtype
    out64 = np.matmul(ad.astype(np.float64), bd.astype(np.float64))
    out = out64.astype(ad.dtype)

    def backward(g):
        g64 = g.astype(np.float64)
        ga = np.matmul(g64, np.swapaxes(bd, -1, -2).astype(np.float64))
        gb = np.matmul(np.swapaxes(ad, -1, -2).astype(np.float64), g64)
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return _emit(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Dense layer ``x @ w^T + b`` for ``w`` stored ``(out, in)``, as one
    tape entry.

    ``x`` is flattened to ``(rows, in)``, so the forward, ``dx`` and ``dw``
    are each one 2-D float64 GEMM, rounded once to the operand's dtype; the
    bias is added afterwards in x's dtype and ``db`` is one sum of the
    output gradient over the leading axes.  The backward recasts ``x`` and
    ``w`` to float64 rather than keeping the forward's copies alive.
    """
    if w.ndim != 2 or x.ndim < 2:
        raise ShapeError(f"linear needs x with >= 2 dims and a 2-D weight, "
                         f"got {x.shape} and {w.shape}")
    n_out, n_in = w.shape
    if x.shape[-1] != n_in:
        raise ShapeError(f"input features differ: x {x.shape}, weight {w.shape}")
    if b is not None and b.shape != (n_out,):
        raise ShapeError(f"bias must have shape ({n_out},), got {b.shape}")
    xd, wd, has_bias = x.data, w.data, b is not None
    out64 = xd.reshape(-1, n_in).astype(np.float64) @ wd.astype(np.float64).T
    out = out64.reshape(xd.shape[:-1] + (n_out,)).astype(xd.dtype)
    if has_bias:
        out += b.data

    def backward(g):
        g64 = g.reshape(-1, n_out).astype(np.float64)
        dx = (g64 @ wd.astype(np.float64)).reshape(xd.shape).astype(xd.dtype)
        dw = (g64.T @ xd.reshape(-1, n_in).astype(np.float64)).astype(wd.dtype)
        if not has_bias:
            return dx, dw
        return dx, dw, g.sum(axis=tuple(range(g.ndim - 1)))

    return _emit(out, (x, w) if b is None else (x, w, b), backward)


def transpose_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ShapeError("transpose_last2 needs at least 2 dims")
    out = np.swapaxes(a.data, -1, -2).copy()

    def backward(g):
        return (np.swapaxes(g, -1, -2),)

    return _emit(out, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)
    a_shape = a.shape

    def backward(g):
        return (g.reshape(a_shape),)

    return _emit(out, (a,), backward)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, n, _ = x.shape
    return x.reshape(b, n, heads, -1).transpose(2, 0, 1, 3).reshape(heads * b, n, -1)


def _merge_heads(x: np.ndarray, heads: int) -> np.ndarray:
    hb, n, dh = x.shape
    return x.reshape(heads, -1, n, dh).transpose(1, 2, 0, 3).reshape(hb // heads, n, -1)


def split_heads(a: Tensor, heads: int) -> Tensor:
    """``(batch, n, heads*d_head)`` to ``(heads*batch, n, d_head)``: row
    ``h*batch + b`` holds head ``h`` of batch element ``b``.  The inverse of
    :func:`merge_heads`, whose reshape is its backward."""
    if a.shape[-1] % heads:
        raise ShapeError(f"last axis of {a.shape} does not split into {heads} heads")
    return _emit(_split_heads(a.data, heads), (a,),
                 lambda g: (_merge_heads(g, heads),))


def merge_heads(a: Tensor, heads: int) -> Tensor:
    """``(heads*batch, n, d_head)`` to ``(batch, n, heads*d_head)``.  The
    inverse of :func:`split_heads`, whose reshape is its backward."""
    if a.shape[0] % heads:
        raise ShapeError(f"first axis of {a.shape} does not split into {heads} heads")
    return _emit(_merge_heads(a.data, heads), (a,),
                 lambda g: (_split_heads(g, heads),))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.data[idx].copy()
    a_shape, dtype = a.shape, a.data.dtype

    def backward(g):
        ga = np.zeros(a_shape, dtype)
        ga[idx] = g
        return (ga,)

    return _emit(out, (a,), backward)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; gradient scatter-adds into the table."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError(f"ids out of range for table with {table.shape[0]} rows")
    out = table.data[ids]
    t_shape, dtype = table.shape, table.data.dtype

    def backward(g):
        gt = np.zeros(t_shape, dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _emit(out, (table,), backward)


# ---------------------------------------------------------------------------
# reductions


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(dtype=np.float64), dtype=a.data.dtype)
    a_shape, dtype = a.shape, a.data.dtype

    def backward(g):
        return (np.full(a_shape, g, dtype),)

    return _emit(out, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    out = np.asarray(a.data.sum(dtype=np.float64) / n, dtype=a.data.dtype)
    a_shape, dtype = a.shape, a.data.dtype

    def backward(g):
        return (np.full(a_shape, g / n, dtype),)

    return _emit(out, (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    x64 = x.data.astype(np.float64)
    x64 = x64 - x64.max(axis=-1, keepdims=True)
    e = np.exp(x64)
    y64 = e / e.sum(axis=-1, keepdims=True)
    y = y64.astype(x.data.dtype)

    def backward(g):
        s = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - s),)

    return _emit(y, (x,), backward)


def log_softmax_rows(x: Tensor) -> Tensor:
    x64 = x.data.astype(np.float64)
    m = x64.max(axis=-1, keepdims=True)
    shifted = x64 - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = (shifted - lse).astype(x.data.dtype)
    sm = np.exp(shifted - lse).astype(x.data.dtype)

    def backward(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return _emit(out, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Exact GeLU, x * Phi(x) with the Gaussian CDF.

    Forward and backward each work in place on one float64 buffer.  Every
    ``*`` and ``+`` takes the same operands as in the plain formula, at
    most swapped, and IEEE ``*`` and ``+`` commute, so the bits are the
    plain formula's.  Until the backward runs, the tape holds only ``cdf``:
    the backward recasts ``x`` to float64 itself, while recomputing ``cdf``
    would cost a second ``erf``.
    """
    xd = x.data
    x64 = xd.astype(np.float64)
    cdf = np.multiply(x64, _INV_SQRT2)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = np.multiply(x64, cdf, out=np.empty(xd.shape, xd.dtype))

    def backward(g):
        # g * (cdf + x * pdf), pdf = exp(-0.5 * x * x) / sqrt(2 pi)
        x64 = xd.astype(np.float64)
        t = np.multiply(x64, -0.5)
        t *= x64
        np.exp(t, out=t)
        t *= _INV_SQRT2PI
        t *= x64
        t += cdf
        t *= g
        return (t.astype(xd.dtype),)

    return _emit(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row zero mean / unit variance over the last axis, then affine.

    The tape keeps only the per-row mean and inverse deviation: the
    backward recasts ``x`` and rebuilds ``xhat`` from them, bit for bit.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},)")
    xd, gd, bias_dtype = x.data, gain.data, bias.data.dtype
    x64 = xd.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    x64 -= mu
    var = (x64 ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    x64 *= inv                                  # xhat
    out = (x64 * gd + bias.data).astype(xd.dtype)

    def backward(g):
        xhat = xd.astype(np.float64)
        xhat -= mu
        xhat *= inv
        g64 = g.astype(np.float64)
        lead = tuple(range(g.ndim - 1))
        dgain = (g64 * xhat).sum(axis=lead).astype(gd.dtype)
        dbias = g64.sum(axis=lead).astype(bias_dtype)
        h = g64 * gd.astype(np.float64)
        hm = h.mean(axis=-1, keepdims=True)
        hxm = (h * xhat).mean(axis=-1, keepdims=True)
        dx = (inv * (h - hm - xhat * hxm)).astype(xd.dtype)
        return dx, dgain, dbias

    return _emit(out, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode."""
    if p <= 0.0:
        return x
    if p >= 1.0:
        raise ContractError("dropout rate must be < 1")
    keep = (rng.random(x.shape) >= p)
    dtype = x.data.dtype
    factor = dtype.type(1.0 / (1.0 - p))
    out = x.data * (keep.astype(dtype) * factor)

    def backward(g):
        # the boolean mask is a quarter of a float32 one; rebuild the scale
        return (g * (keep.astype(dtype) * factor),)

    return _emit(out, (x,), backward)
