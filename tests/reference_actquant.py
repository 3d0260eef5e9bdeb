"""Frozen copy of activation fake-quant and GeLU as they stood before each
became a single float64 buffer worked in place.

``round_half_away``, ``quantize``, ``encode``, ``dequantize``,
``ste_mask``, ``ste_backward``, ``fake_quantize`` and ``gelu`` below are
verbatim.  Fake-quant builds the integer codes (a masked divide, half-away
rounding, a clip and a cast), dequantizes them and applies the clipped-STE
mask in the backward; GeLU builds its result from a chain of float64
temporaries.  The differential
tests in ``test_actquant.py`` and ``test_tensor.py`` hold
``tquant.actquant.fake_quantize`` and ``tquant.tensor.gelu`` to these
outputs and gradients bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from tquant import tensor as T
from tquant.actquant import ActQuantParams, QuantizedActivation
from tquant.tensor import Tensor

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def round_half_away(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.trunc(np.add(x, np.copysign(0.5, x), out=out), out=out)


def quantize(x, scheme: str, groups: int = 1) -> QuantizedActivation:
    """Codes over one range per tensor, or with ``groups > 1`` one range per
    equal slice of the leading axis; the codes are then ``(groups, m)`` and
    the params hold ``(groups, 1)`` arrays."""
    arr = np.asarray(getattr(x, "data", x), dtype=np.float64)
    if groups != 1 and arr.shape[0] % groups:
        raise T.ShapeError(f"leading axis of {arr.shape} does not split into {groups} groups")
    rows = arr.reshape(groups, -1)
    x_min = rows.min(axis=1, keepdims=True)
    x_max = rows.max(axis=1, keepdims=True)
    if scheme == "minmax8":
        s = (x_max - x_min) / 255.0
    elif scheme == "symmetric8":
        peak = np.maximum(-x_min, x_max)     # max |x|, exactly
        s = np.where(peak == 0.0, 1.0, peak / 127.0)   # all-zero rows keep scale 1
    else:
        raise ValueError(f"unknown activation scheme {scheme!r}")
    params = ActQuantParams(scheme, x_min, x_max, s)
    if groups == 1:     # float params, and codes in x's shape
        params = ActQuantParams(scheme, x_min.item(), x_max.item(), s.item())
        rows = arr
    return QuantizedActivation(encode(rows, params), params)


def encode(x, params: ActQuantParams) -> np.ndarray:
    """Codes for x under fixed params (no range recomputation); params that
    hold ``(groups, 1)`` arrays apply row by row to a ``(groups, m)`` x."""
    arr = np.asarray(getattr(x, "data", x), dtype=np.float64)
    if params.scheme == "minmax8":
        # a zero scale (a constant range) gives every element code 0
        t = arr - params.x_min
        t = np.divide(t, params.scale, out=np.zeros_like(t), where=params.scale != 0.0)
        return np.clip(round_half_away(t), 0, 255).astype(np.uint8)
    return np.clip(round_half_away(arr / params.scale), -127, 127).astype(np.int8)


def dequantize(qa: QuantizedActivation) -> np.ndarray:
    p = qa.params
    if p.scheme == "minmax8":
        return (qa.codes.astype(np.float64) * p.scale + p.x_min).astype(np.float32)
    return (qa.codes.astype(np.float64) * p.scale).astype(np.float32)


def ste_mask(x: np.ndarray, params: ActQuantParams) -> np.ndarray:
    """1 where x is inside the representable range, 0 outside."""
    if params.scheme == "minmax8":
        lo, hi = params.x_min, params.x_max
    else:
        hi = 127.0 * params.scale
        lo = -hi
    # the bounds round to x's dtype first, as Python floats would, so float32
    # activations compare in float32 for scalar and array params alike
    lo, hi = np.asarray(lo, dtype=x.dtype), np.asarray(hi, dtype=x.dtype)
    return ((x >= lo) & (x <= hi))


def ste_backward(grad_out: np.ndarray, x: np.ndarray,
                 params: ActQuantParams) -> np.ndarray:
    if grad_out.shape != x.shape:
        raise T.ShapeError("grad/input shape mismatch")
    return grad_out * ste_mask(x, params).astype(grad_out.dtype)


def fake_quantize(x: T.Tensor, scheme: str,
                  groups: int = 1) -> tuple[T.Tensor, QuantizedActivation]:
    """Quantize-dequantize as one tape op with the clipped-STE backward;
    ``groups`` ranges as in :func:`quantize`."""
    qa = quantize(x.data, scheme, groups)
    out_data = dequantize(qa).astype(x.data.dtype).reshape(x.shape)
    x_data = x.data.reshape(qa.shape)

    def backward(g):
        return (ste_backward(g.reshape(qa.shape), x_data, qa.params).reshape(x.shape),)

    return T.custom_op([x], out_data, backward, name="fake_quant"), qa


def gelu(x: Tensor) -> Tensor:
    """Exact GeLU, x * Phi(x) with the Gaussian CDF."""
    x64 = x.data.astype(np.float64)
    cdf = 0.5 * (1.0 + erf(x64 * _INV_SQRT2))
    out = (x64 * cdf).astype(x.data.dtype)

    def backward(g):
        pdf = np.exp(-0.5 * x64 * x64) * _INV_SQRT2PI
        return ((g * (cdf + x64 * pdf)).astype(x.data.dtype),)

    return T.custom_op([x], out, backward)
