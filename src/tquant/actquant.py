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
``dequantize(quantize(x))`` by construction.

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


def _round_codes(rows: np.ndarray, x_min, s, scheme: str) -> np.ndarray:
    """Each group's codes of ``rows``, rounded in place in a new float64
    buffer.  No code leaves its range, so nothing clips."""
    buf = rows.astype(np.float64)
    if scheme == "minmax8":
        # t = (x - x_min) / s is in [0, 255], so half-away is floor(t + 0.5);
        # a constant group (s = 0) has t = 0 over a unit divisor
        buf -= x_min
        buf /= np.where(s == 0.0, 1.0, s)
    else:   # t = x / s has x's sign: half-away is copysign(floor(|t| + 0.5), x)
        buf /= s
        np.abs(buf, out=buf)
    buf += 0.5
    np.floor(buf, out=buf)
    if scheme == "symmetric8":
        np.copysign(buf, rows, out=buf)
    return buf


def _scale_back(codes: np.ndarray, x_min, s, scheme: str) -> np.ndarray:
    """``code * s + x_min`` in place on float64 codes; symmetric8 adds 0.0 (no -0)."""
    codes *= s
    codes += x_min if scheme == "minmax8" else 0.0
    return codes


def quantize(x, scheme: str, groups: int = 1) -> QuantizedActivation:
    """Codes over one range per tensor, or with ``groups > 1`` one range per
    equal slice of the leading axis; the codes are then ``(groups, m)`` and
    the params hold ``(groups, 1)`` arrays.  A range that is not finite
    (x holds NaN or inf) has no codes and raises ``ValueError``."""
    arr = np.asarray(getattr(x, "data", x))     # _round_codes makes the float64 copy
    rows, x_min, x_max, s = _ranges(arr, scheme, groups)
    if not (np.isfinite(x_min).all() and np.isfinite(x_max).all()):
        raise ValueError("activation range is not finite")
    codes = _round_codes(rows, x_min, s, scheme).astype(SCHEMES[scheme][0])
    if groups == 1:     # float params, and codes in x's shape
        return QuantizedActivation(codes.reshape(arr.shape), ActQuantParams(
            scheme, x_min.item(), x_max.item(), s.item()))
    return QuantizedActivation(codes, ActQuantParams(scheme, x_min, x_max, s))


def quantize_minmax(x) -> QuantizedActivation:
    return quantize(x, "minmax8")


def quantize_symmetric(x) -> QuantizedActivation:
    return quantize(x, "symmetric8")


def dequantize(qa: QuantizedActivation) -> np.ndarray:
    p = qa.params
    return _scale_back(qa.codes.astype(np.float64), p.x_min, p.scale,
                       p.scheme).astype(np.float32)


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
    buf = _scale_back(_round_codes(rows, x_min, s, scheme), x_min, s, scheme)
    if scheme == "minmax8":
        def backward(g):    # every x lies in its own [x_min, x_max]
            return (g,)
    else:
        params = ActQuantParams(scheme, x_min, x_max, s)
        shape = x.shape

        def backward(g):
            return (ste_backward(g.reshape(rows.shape), rows, params).reshape(shape),)

    out = buf.astype(np.float32).astype(x.data.dtype, copy=False).reshape(x.shape)
    return T.custom_op([x], out, backward, name="fake_quant")


@dataclass
class HistogramRecord:
    bins: int
    lo: float
    hi: float
    counts: list[int]
    total: int

    def to_dict(self) -> dict:
        return {"kind": "histogram", "bins": self.bins, "lo": self.lo,
                "hi": self.hi, "counts": self.counts, "total": self.total}


def histogram_export(x, bins: int) -> HistogramRecord:
    """Counts per uniform bin over [min, max]; counts sum to element count."""
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
    return HistogramRecord(bins=bins, lo=lo, hi=hi, counts=counts, total=int(arr.size))
