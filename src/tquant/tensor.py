"""Dense float tensors with a reverse-mode gradient tape.

Everything else in this package computes on :class:`Tensor` values: thin
wrappers around contiguous numpy arrays (float32 by default) plus an
optional recording tape for reverse-mode differentiation.  Reductions and
transcendental ops accumulate in float64 before casting back to the tensor
dtype, which keeps forward results stable enough to compare bit-for-bit
against scalar reference implementations in the tests.

Tensors are immutable values once produced; ops are pure functions.  A
:class:`GradTape`, while active, records every primitive whose inputs are
tracked, and ``gradients(loss)`` replays the record in reverse order,
once.  The tape records each tensor by its process-unique ``key``, never
the tensor itself, and each backward closure holds only the arrays it
reads (shapes and dtypes where it reads nothing else), so an op output
that no backward reads is freed as soon as the caller drops it.  The
replay drops each entry, with the arrays its closure holds, once its
backward has run, and each intermediate gradient as soon as the op that
produced that tensor has read it, so only leaves (tracked tensors that no
recorded op produced) keep a gradient.  A second replay of a tape is a
:class:`ContractError`; ``len(tape)`` still counts the ops it recorded.
A backward is plain numpy: the replay runs no op.  A thread records on at
most one tape: entering a second, or asking a tape for a loss it did not
record, is a :class:`ContractError`.  Threads may each record on their
own tape at the same time.

``gelu``, ``dropout`` (and ``actquant.fake_quantize``) hold at most their
output, the arrays their backward reads and one float64 scratch block of
``BLOCK_ELEMENTS`` (512 KiB, near the CPU caches): they run over blocks
and convert each block of x to float64 on its own.  A ``gelu`` that no
tape records keeps no ``cdf``.  ``gelu`` clips erf's argument to [-6, 6],
where erf is already exactly +-1, so no bit changes and erf skips its
slowest range.  ``layer_norm`` and ``softmax_rows`` keep rows whole, so
each reduction is still one numpy call over the row, and work in place on
one float64 copy and at most one float64 product.  Each keeps the float64
operations of its plain formula with the same operands, only ``*`` and
``+`` commuted, so the bits are the formula's.  ``linear_op`` is
``linear``'s arithmetic for an operand that another module derives from
the input: ``actquant.fake_quant_linear`` feeds it 8-bit codes.
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

# float64 elements per scratch block (512 KiB): large enough that numpy's
# per-call overhead vanishes, small enough that the repeated passes over a
# block stay near the CPU caches; the fastest of 2^13 to 2^18 for the
# weight quantizers.  GeLU and activation fake-quant read it at each call,
# ``ternarize`` imports it by name.
BLOCK_ELEMENTS = 1 << 16

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# scipy's erf is exactly +-1 from |z| >= 5.9216, and slowest beyond 6
_ERF_CLIP = 6.0


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
    replayed backward, once, for a loss it recorded.  Tapes do not nest."""

    def __init__(self):
        self._entries: list[_TapeEntry] = []
        self._replayed = 0          # entries the replay has dropped

    def __enter__(self) -> "GradTape":
        if _RECORDING.tape is not None:
            raise ContractError("this thread already records on a GradTape; "
                                "tapes do not nest")
        _RECORDING.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _RECORDING.tape = None

    def __len__(self) -> int:
        """The ops recorded, before or after the replay."""
        return len(self._entries) + self._replayed

    def gradients(self, loss: Tensor) -> Gradients:
        """Accumulated gradient of a scalar loss for every tracked leaf.

        Entries were appended in execution order, so iterating them in
        reverse visits the graph in reverse topological order: when an
        entry is reached, its output's gradient is complete, and the entry
        that produced a tensor is the last to read that gradient, so it is
        dropped right there.  Each entry, with the arrays its backward
        holds, is dropped once it has run, so a tape replays once: a second
        call is a :class:`ContractError`.  A call refused for its loss
        leaves the tape as it was.
        """
        if self._replayed:
            raise ContractError("this tape was replayed already; a tape replays once")
        if loss.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        produced = {entry.output for entry in self._entries}
        if loss.key not in produced:
            raise ContractError(f"{loss!r} was not recorded by this tape")
        grads: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
        entries = self._entries
        while entries:
            entry = entries.pop()
            self._replayed += 1
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
    xd = x.data

    def operand64():
        return xd.reshape(-1, xd.shape[-1]).astype(np.float64)

    return linear_op(x, w, b, operand64)


def linear_op(x: Tensor, w: Tensor, b: Tensor | None,
              operand64: Callable[[], np.ndarray],
              dx_mask: np.ndarray | None = None, name: str | None = None) -> Tensor:
    """:func:`linear`'s arithmetic over an operand that is a function of
    ``x`` with x's shape and dtype, as one tape entry whose input is ``x``.

    ``operand64()`` returns the operand as float64 ``(rows, in)``: the
    forward calls it, and the backward again for ``dw``, so neither keeps
    it.  The backward multiplies ``dx`` by ``dx_mask`` where one is given:
    ``dx`` is the gradient of an identity or masked-identity map from
    ``x`` to the operand.
    """
    if w.ndim != 2 or x.ndim < 2:
        raise ShapeError(f"linear needs x with >= 2 dims and a 2-D weight, "
                         f"got {x.shape} and {w.shape}")
    n_out, n_in = w.shape
    if x.shape[-1] != n_in:
        raise ShapeError(f"input features differ: x {x.shape}, weight {w.shape}")
    if b is not None and b.shape != (n_out,):
        raise ShapeError(f"bias must have shape ({n_out},), got {b.shape}")
    wd, has_bias = w.data, b is not None
    x_shape, dtype = x.shape, x.data.dtype
    out64 = operand64() @ wd.astype(np.float64).T
    out = out64.reshape(x_shape[:-1] + (n_out,)).astype(dtype)
    if has_bias:
        out += b.data

    def backward(g):
        g64 = g.reshape(-1, n_out).astype(np.float64)
        dx = (g64 @ wd.astype(np.float64)).reshape(x_shape).astype(dtype)
        if dx_mask is not None:
            np.multiply(dx, dx_mask, out=dx)
        dw = (g64.T @ operand64()).astype(wd.dtype)
        if not has_bias:
            return dx, dw
        return dx, dw, g.sum(axis=tuple(range(g.ndim - 1)))

    return _emit(out, (x, w) if b is None else (x, w, b), backward, name=name)


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
    if a.ndim != 3 or a.shape[-1] % heads:
        raise ShapeError(f"{a.shape} is not (batch, n, d) with d split into {heads} heads")
    return _emit(_split_heads(a.data, heads), (a,),
                 lambda g: (_merge_heads(g, heads),))


def merge_heads(a: Tensor, heads: int) -> Tensor:
    """``(heads*batch, n, d_head)`` to ``(batch, n, heads*d_head)``.  The
    inverse of :func:`split_heads`, whose reshape is its backward."""
    if a.ndim != 3 or a.shape[0] % heads:
        raise ShapeError(f"{a.shape} is not (heads*batch, n, d_head) for {heads} heads")
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
    """Softmax over the last axis, max-subtracted for stability, in place on
    one float64 copy; the backward works in place on one product."""
    x64 = x.data.astype(np.float64)
    x64 -= x64.max(axis=-1, keepdims=True)
    np.exp(x64, out=x64)
    y = np.divide(x64, x64.sum(axis=-1, keepdims=True),
                  out=np.empty(x.shape, x.data.dtype))

    def backward(g):
        t = g * y
        s = t.sum(axis=-1, keepdims=True)
        np.subtract(g, s, out=t)
        t *= y
        return (t,)

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


def block_slices(n: int, step: int | None = None):
    """Slices of ``range(n)`` of ``step`` elements each (``BLOCK_ELEMENTS``
    by default), the last partial."""
    step = step or BLOCK_ELEMENTS
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def half_blocks(n: int, rows: int = 1):
    """``(row, slice, first, second)`` for each slice of ``range(n)`` in each
    of ``rows`` rows: ``first`` and ``second`` are the two halves of one
    float64 scratch block, cut to the slice's length, and every slice reuses
    them.  An op that reads two float64 operands per element works in them,
    so numpy never buffers a cast."""
    step = max(1, BLOCK_ELEMENTS // 2)
    first, second = np.empty((2, min(step, n)))
    for r in range(rows):
        for b in block_slices(n, step):
            k = b.stop - b.start
            yield r, b, first[:k], second[:k]


def gelu(x: Tensor) -> Tensor:
    """Exact GeLU, x * Phi(x) with the Gaussian CDF.

    Forward and backward run over blocks of ``BLOCK_ELEMENTS``, converting
    each block of x to float64 on its own, and write the result into x's
    dtype with ``out=``, so neither holds a float64 copy of x.  Every ``*``
    and ``+`` takes the same operands as in the plain formula, at most
    swapped, and IEEE ``*`` and ``+`` commute, so the bits are the plain
    formula's.  erf's argument is clipped to [-6, 6] first: erf is exactly
    +-1 there already, and slowest beyond.  Until the backward runs, the
    tape holds only ``cdf``, since recomputing it would cost a second
    ``erf``; the backward's scratch is one block (:func:`half_blocks`).  A
    call that no tape records (an untracked x, or no tape) works ``cdf`` in
    one block too.
    """
    xd = x.data
    flat = xd.reshape(-1)
    kept = _RECORDING.tape is not None and x.requires_grad
    cdf = np.empty(xd.size if kept else min(BLOCK_ELEMENTS, xd.size))
    out = np.empty(xd.shape, xd.dtype)
    for b in block_slices(xd.size):
        c = cdf[b] if kept else cdf[:b.stop - b.start]
        np.copyto(c, flat[b])
        c *= _INV_SQRT2
        np.clip(c, -_ERF_CLIP, _ERF_CLIP, out=c)
        erf(c, out=c)
        c += 1.0
        c *= 0.5
        np.multiply(flat[b], c, out=out.reshape(-1)[b], dtype=np.float64)

    def backward(g):
        # g * (cdf + x * pdf), pdf = exp(-0.5 * x * x) / sqrt(2 pi)
        flat_g = g.reshape(-1)
        dx = np.empty(xd.shape, xd.dtype)
        for _, b, x64, t in half_blocks(xd.size):
            np.copyto(x64, flat[b])
            np.multiply(x64, -0.5, out=t)
            t *= x64
            np.exp(t, out=t)
            t *= _INV_SQRT2PI
            t *= x64
            t += cdf[b]
            np.copyto(x64, flat_g[b])           # now g, as float64
            t *= x64
            np.copyto(dx.reshape(-1)[b], t, casting="same_kind")
        return (dx,)

    return _emit(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row zero mean / unit variance over the last axis, then affine.

    Forward and backward each work in place on one float64 copy and one
    float64 product, and write the float32 results with ``out=``; rows stay
    whole, so each reduction is one numpy call over the row.  The tape
    keeps only the per-row mean and inverse deviation: the backward
    recasts ``x`` and rebuilds ``xhat`` from them, bit for bit.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},)")
    xd, gd, bias_dtype = x.data, gain.data, bias.data.dtype
    x64 = xd.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    x64 -= mu
    var = np.multiply(x64, x64).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    x64 *= inv                                  # xhat
    x64 *= gd
    out = np.add(x64, bias.data, out=np.empty(xd.shape, xd.dtype))

    def backward(g):
        # dx = inv * (h - mean(h) - xhat * mean(h * xhat)), h = g * gain
        xhat = np.subtract(xd, mu, dtype=np.float64)
        xhat *= inv
        lead = tuple(range(g.ndim - 1))
        h = np.multiply(g, xhat, dtype=np.float64)
        dgain = h.sum(axis=lead).astype(gd.dtype)
        np.copyto(h, g)
        dbias = h.sum(axis=lead).astype(bias_dtype)
        h *= gd
        hm = h.mean(axis=-1, keepdims=True)
        xhat *= h                               # h * xhat
        hxm = xhat.mean(axis=-1, keepdims=True)
        h -= hm
        np.subtract(xd, mu, out=xhat, dtype=np.float64)
        xhat *= inv
        xhat *= hxm
        h -= xhat
        return np.multiply(h, inv, out=np.empty(xd.shape, xd.dtype)), dgain, dbias

    return _emit(out, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode.

    The mask is ``rng.random(x.shape) >= p``; forward and backward multiply
    by ``mask * factor`` one block of ``BLOCK_ELEMENTS`` at a time, so the
    tape keeps only the boolean mask and neither pass makes a full-size
    temporary.
    """
    if p <= 0.0:
        return x
    if p >= 1.0:
        raise ContractError("dropout rate must be < 1")
    keep = _keep_mask(x.shape, p, rng)
    factor = x.data.dtype.type(1.0 / (1.0 - p))

    def backward(g):
        return (_masked_scale(g, keep, factor),)

    return _emit(_masked_scale(x.data, keep, factor), (x,), backward)


def _keep_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator) -> np.ndarray:
    """``rng.random(shape) >= p``, drawn one block at a time: consecutive
    draws continue one stream, so the mask is the full-size draw's."""
    keep = np.empty(shape, bool)
    draws = np.empty(min(BLOCK_ELEMENTS, keep.size))
    for b in block_slices(keep.size):
        u = draws[:b.stop - b.start]
        rng.random(out=u)
        np.greater_equal(u, p, out=keep.reshape(-1)[b])
    return keep


def _masked_scale(a: np.ndarray, keep: np.ndarray, factor) -> np.ndarray:
    """``a * (keep * factor)`` in a's dtype, scaling one block at a time."""
    out = np.empty(a.shape, a.dtype)
    flat_a, flat_keep, flat_out = a.reshape(-1), keep.reshape(-1), out.reshape(-1)
    scale = np.empty(min(BLOCK_ELEMENTS, a.size), a.dtype)
    for b in block_slices(a.size):
        s = scale[:b.stop - b.start]
        np.multiply(flat_keep[b], factor, out=s)
        np.multiply(flat_a[b], s, out=flat_out[b])
    return out
