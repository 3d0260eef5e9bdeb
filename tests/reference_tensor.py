"""Frozen copy of ``softmax_rows`` and ``layer_norm`` as plain formulas,
before each worked in place on one float64 copy, and of ``dropout`` before
it drew its mask in blocks.

Each builds its result from a chain of full-size temporaries, in the order
of the formula.  The differential tests in ``test_tensor.py`` hold
``tquant.tensor.softmax_rows``, ``layer_norm`` and ``dropout`` to these
outputs and gradients bit for bit.
"""

from __future__ import annotations

import numpy as np

from tquant import tensor as T
from tquant.tensor import Tensor


def softmax_rows(x: Tensor) -> Tensor:
    x64 = x.data.astype(np.float64)
    x64 = x64 - x64.max(axis=-1, keepdims=True)
    e = np.exp(x64)
    y = (e / e.sum(axis=-1, keepdims=True)).astype(x.data.dtype)

    def backward(g):
        s = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - s),)

    return T.custom_op([x], y, backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    x64 = x.data.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    xc = x64 - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + T.LAYER_NORM_EPS)
    xhat = xc * inv
    out = (xhat * gain.data + bias.data).astype(x.data.dtype)

    def backward(g):
        g64 = g.astype(np.float64)
        lead = tuple(range(g.ndim - 1))
        dgain = (g64 * xhat).sum(axis=lead).astype(gain.data.dtype)
        dbias = g64.sum(axis=lead).astype(bias.data.dtype)
        h = g64 * gain.data.astype(np.float64)
        hm = h.mean(axis=-1, keepdims=True)
        hxm = (h * xhat).mean(axis=-1, keepdims=True)
        dx = (inv * (h - hm - xhat * hxm)).astype(x.data.dtype)
        return dx, dgain, dbias

    return T.custom_op([x, gain, bias], out, backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    keep = (rng.random(x.shape) >= p)
    dtype = x.data.dtype
    factor = dtype.type(1.0 / (1.0 - p))
    out = x.data * (keep.astype(dtype) * factor)

    def backward(g):
        return (g * (keep.astype(dtype) * factor),)

    return T.custom_op([x], out, backward)
