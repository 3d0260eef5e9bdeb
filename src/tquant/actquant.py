"""8-bit activation quantization with straight-through gradients.

Two schemes over a dynamic range recomputed on every forward pass, one
range per tensor or one per equal slice of the leading axis (the model
gives each attention head its own range):

* ``minmax8``    -- affine codes in [0, 255] over [min(x), max(x)],
  ``q(x) = round((x - x_min) / s) * s + x_min`` with
  ``s = (x_max - x_min) / 255``.
* ``symmetric8`` -- codes in [-127, 127] with ``s = max|x| / 127``.

``SCHEMES`` holds each scheme's code dtype and largest code.  Rounding is
half-away-from-zero everywhere so codes are bit-reproducible across
platforms.  One helper rounds to codes and one scales codes back: ``quantize``
casts the codes to integers, for the GEMM and for inspection, and
``fake_quantize`` scales them back as ``dequantize`` does, so it equals
``dequantize(quantize(x))`` by construction.  Both run each group in
blocks (``tensor.half_blocks``): a block of x is converted to float64 and
rounded in one scratch block of ``tensor.BLOCK_ELEMENTS``, then cast into
the integer codes, or scaled back into the float32 output, so neither
holds a float64 copy of x.  ``dequantize`` decodes codes in blocks too.

``fake_quant_linear`` is ``tensor.linear(fake_quantize(x), w, b)`` as
one tape entry, for an x that feeds nothing else: the entry keeps x's
integer codes, one byte each, not the float32 values, and decodes them
as ``dequantize`` does for the forward and the backward's ``dw``.

The backward rule is clipped straight-through: the gradient passes
unchanged where x lies inside the representable range and is zeroed
outside it.  Under a dynamic range every x lies inside the minmax8 range
by construction, so minmax8's backward is the identity.  Symmetric8 keeps
the clipped STE (``ste_backward``): its bound ``127 * (max|x| / 127)`` can
round below the peak in float64.  For float32 activations the bound,
rounded to float32, is the peak itself, so the mask is all ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T

# scheme -> (code dtype, largest code)
SCHEMES = {"minmax8": (np.uint8, 255), "symmetric8": (np.int8, 127)}


def round_half_away(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Nearest integer, ties away from zero; ``out`` may be ``x`` to round in place.

    ``trunc(x + copysign(0.5, x))`` equals ``copysign(floor(|x| + 0.5), x)``
    bit for bit, signed zeros included, because round-to-nearest is
    symmetric in sign.
    """
    return np.trunc(np.add(x, np.copysign(0.5, x), out=out), out=out)


@dataclass
class ActQuantParams:
    scheme: str
    x_min: float
    x_max: float
    scale: float


@dataclass
class QuantizedActivation:
    codes: np.ndarray        # uint8 for minmax8, int8 for symmetric8
    params: ActQuantParams

    @property
    def shape(self):
        return self.codes.shape


def _ranges(x: np.ndarray, scheme: str, groups: int):
    """x as ``(groups, m)`` rows, and each row's x_min, x_max and scale as
    ``(groups, 1)`` float64 arrays."""
    if groups != 1 and x.shape[0] % groups:
        raise T.ShapeError(f"leading axis of {x.shape} does not split into {groups} groups")
    rows = x.reshape(groups, -1)
    x_min = rows.min(axis=1, keepdims=True).astype(np.float64)
    x_max = rows.max(axis=1, keepdims=True).astype(np.float64)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown activation scheme {scheme!r}")
    if scheme == "minmax8":
        s = (x_max - x_min) / SCHEMES[scheme][1]
    else:
        peak = np.maximum(-x_min, x_max)     # max |x|, exactly
        s = np.where(peak == 0.0, 1.0, peak / SCHEMES[scheme][1])   # all-zero rows: 1
    return rows, x_min, x_max, s


def _round_codes(x: np.ndarray, x_min, s, scheme: str,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The codes of ``x``, rounded in place in the float64 buffer ``out`` (a
    new one if None).  ``x`` holds values of one group, with its range
    ``x_min`` and scale ``s``, or ``(groups, m)`` rows with ``(groups, 1)``
    params.  No code leaves its range, so nothing clips."""
    if scheme == "minmax8":
        # t = (x - x_min) / s is in [0, 255], so half-away is floor(t + 0.5);
        # a constant group (s = 0) has t = 0 over a unit divisor
        out = np.subtract(x, x_min, out=out, dtype=np.float64)
        out /= np.where(s == 0.0, 1.0, s)
    else:   # t = x / s has x's sign: half-away is copysign(floor(|t| + 0.5), x)
        out = np.divide(x, s, out=out, dtype=np.float64)
        np.abs(out, out=out)
    out += 0.5
    np.floor(out, out=out)
    if scheme == "symmetric8":
        np.copysign(out, x, out=out)
    return out


def _block_codes(rows: np.ndarray, x_min, s, scheme: str):
    """``(group, slice, codes)`` for each block of each row of ``rows``: the
    float64 codes, rounded from a float64 copy of the block in one scratch
    block (:func:`tensor.half_blocks`) that every block reuses, so the
    caller must use them before the next."""
    groups, m = rows.shape
    for g, b, x64, codes in T.half_blocks(m, groups):
        np.copyto(x64, rows[g, b])
        yield g, b, _round_codes(x64, x_min[g, 0], s[g, 0], scheme, codes)


def _scale_back(codes: np.ndarray, x_min, s, scheme: str, out: np.ndarray) -> np.ndarray:
    """``code * s + x_min`` in place on float64 codes, then rounded into
    ``out``; symmetric8 adds 0.0 (no -0)."""
    codes *= s
    codes += x_min if scheme == "minmax8" else 0.0
    np.copyto(out, codes, casting="same_kind")
    return out


def quantize(x, scheme: str, groups: int = 1) -> QuantizedActivation:
    """Codes over one range per tensor, or with ``groups > 1`` one range per
    equal slice of the leading axis; the codes are then ``(groups, m)`` and
    the params hold ``(groups, 1)`` arrays.  A range that is not finite
    (x holds NaN or inf) has no codes and raises ``ValueError``."""
    arr = np.asarray(getattr(x, "data", x))
    rows, x_min, x_max, s = _ranges(arr, scheme, groups)
    if not (np.isfinite(x_min).all() and np.isfinite(x_max).all()):
        raise ValueError("activation range is not finite")
    codes = np.empty(rows.shape, SCHEMES[scheme][0])
    for g, b, block in _block_codes(rows, x_min, s, scheme):
        np.copyto(codes[g, b], block, casting="unsafe")
    if groups == 1:     # float params, and codes in x's shape
        return QuantizedActivation(codes.reshape(arr.shape), ActQuantParams(
            scheme, x_min.item(), x_max.item(), s.item()))
    return QuantizedActivation(codes, ActQuantParams(scheme, x_min, x_max, s))


def quantize_minmax(x) -> QuantizedActivation:
    return quantize(x, "minmax8")


def quantize_symmetric(x) -> QuantizedActivation:
    return quantize(x, "symmetric8")


def _decode(qa: QuantizedActivation, out: np.ndarray) -> np.ndarray:
    """Scale ``qa``'s codes back into ``out`` of as many elements, one block
    of a group at a time: float32 through one float64 scratch block, or
    float64 (rounded through float32) in place through one float32 block."""
    p = qa.params
    groups = np.size(p.scale)
    rows, dest = qa.codes.reshape(groups, -1), out.reshape(groups, -1)
    x_min, s = np.reshape(p.x_min, -1), np.reshape(p.scale, -1)
    wide = out.dtype == np.float64
    scratch = np.empty(min(T.BLOCK_ELEMENTS, rows.shape[1]),
                       np.float32 if wide else np.float64)
    for g in range(groups):
        for b in T.block_slices(rows.shape[1]):
            t = scratch[:b.stop - b.start]
            codes, values = (dest[g, b], t) if wide else (t, dest[g, b])
            np.copyto(codes, rows[g, b])
            _scale_back(codes, x_min[g], s[g], p.scheme, values)
            if wide:
                np.copyto(codes, values)
    return out


def dequantize(qa: QuantizedActivation) -> np.ndarray:
    return _decode(qa, np.empty(qa.codes.shape, np.float32))


def ste_mask(x: np.ndarray, params: ActQuantParams) -> np.ndarray:
    """1 where x is inside the representable range, 0 outside."""
    if params.scheme == "minmax8":
        lo, hi = params.x_min, params.x_max
    else:
        hi = SCHEMES[params.scheme][1] * params.scale
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


def fake_quantize(x: T.Tensor, scheme: str, groups: int = 1) -> T.Tensor:
    """Quantize-dequantize as one tape op; ``groups`` ranges as in
    :func:`quantize`.

    The values are ``dequantize(quantize(x, scheme, groups))`` cast to x's
    dtype, from the same two helpers, but no integer codes are built.  NaN
    or inf in x comes out as non-finite values.
    """
    rows, x_min, x_max, s = _ranges(x.data, scheme, groups)
    out = np.empty(rows.shape, np.float32)
    for g, b, codes in _block_codes(rows, x_min, s, scheme):
        _scale_back(codes, x_min[g, 0], s[g, 0], scheme, out[g, b])
    if scheme == "minmax8":
        def backward(g):    # every x lies in its own [x_min, x_max]
            return (g,)
    else:
        params = ActQuantParams(scheme, x_min, x_max, s)
        shape = x.shape

        def backward(g):
            return (ste_backward(g.reshape(rows.shape), rows, params).reshape(shape),)

    out = out.astype(x.data.dtype, copy=False).reshape(x.shape)
    return T.custom_op([x], out, backward, name="fake_quant")


def fake_quant_linear(x: T.Tensor, scheme: str, w: T.Tensor,
                      b: T.Tensor | None = None) -> T.Tensor:
    """``tensor.linear(fake_quantize(x, scheme), w, b)`` as one tape entry,
    with the same bits in the output and in every gradient.

    The entry keeps x's :func:`quantize` codes and their scalar params,
    not the fake-quantized values, and decodes the codes as
    :func:`dequantize` does into the float64 GEMM operand, once for the
    forward and once for the backward's ``dw``.  Symmetric8 also keeps its
    STE mask, as bool.  An x with NaN or inf has no codes, so it runs as
    that unfused pair, two tape entries.
    """
    try:
        qa = quantize(x.data, scheme)
    except ValueError:      # x holds NaN or inf
        return T.linear(fake_quantize(x, scheme), w, b)

    def operand64():    # the codes have x's shape
        return _decode(qa, np.empty(qa.shape)).reshape(-1, qa.shape[-1])

    mask = ste_mask(x.data, qa.params) if scheme == "symmetric8" else None
    return T.linear(x, w, b, operand64=operand64, dx_mask=mask)


def histogram_export(x, bins: int) -> dict:
    """Counts per uniform bin over [min, max]; counts sum to element count.

    Returns the dict ``bins, lo, hi, counts, total``: the bin count, the
    range, one count per bin and the element count.  A constant tensor puts
    every element in the first bin.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    arr = np.asarray(getattr(x, "data", x), dtype=np.float64).reshape(-1)
    lo = float(arr.min())
    hi = float(arr.max())
    if lo == hi:
        counts = [0] * bins
        counts[0] = arr.size
    else:
        counts, _ = np.histogram(arr, bins=bins, range=(lo, hi))
        counts = [int(c) for c in counts]
    return {"bins": bins, "lo": lo, "hi": hi, "counts": counts, "total": int(arr.size)}
