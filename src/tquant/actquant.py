"""8-bit activation quantization with straight-through gradients.

Two schemes over a per-tensor dynamic range, recomputed on every forward
pass:

* ``minmax8``    -- affine codes in [0, 255] over [min(x), max(x)],
  ``q(x) = round((x - x_min) / s) * s + x_min`` with
  ``s = (x_max - x_min) / 255``.
* ``symmetric8`` -- codes in [-127, 127] with ``s = max|x| / 127``.

Rounding is half-away-from-zero everywhere so codes are bit-reproducible
across platforms.  The backward rule is clipped straight-through: the
gradient passes unchanged where x lies inside the representable range and
is zeroed outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T

SCHEMES = ("minmax8", "symmetric8")


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


def quantize_minmax(x) -> QuantizedActivation:
    arr = np.asarray(getattr(x, "data", x), dtype=np.float64)
    x_min = float(arr.min())
    x_max = float(arr.max())
    s = (x_max - x_min) / 255.0
    if s == 0.0:
        codes = np.zeros(arr.shape, dtype=np.uint8)
    else:
        codes = np.clip(round_half_away((arr - x_min) / s), 0, 255).astype(np.uint8)
    return QuantizedActivation(codes, ActQuantParams("minmax8", x_min, x_max, s))


def quantize_symmetric(x) -> QuantizedActivation:
    arr = np.asarray(getattr(x, "data", x), dtype=np.float64)
    peak = float(np.abs(arr).max())
    x_min = float(arr.min())
    x_max = float(arr.max())
    if peak == 0.0:
        return QuantizedActivation(np.zeros(arr.shape, dtype=np.int8),
                                   ActQuantParams("symmetric8", x_min, x_max, 1.0))
    s = peak / 127.0
    codes = np.clip(round_half_away(arr / s), -127, 127).astype(np.int8)
    return QuantizedActivation(codes, ActQuantParams("symmetric8", x_min, x_max, s))


def quantize(x, scheme: str) -> QuantizedActivation:
    if scheme == "minmax8":
        return quantize_minmax(x)
    if scheme == "symmetric8":
        return quantize_symmetric(x)
    raise ValueError(f"unknown activation scheme {scheme!r}")


def encode(x, params: ActQuantParams) -> np.ndarray:
    """Codes for x under fixed params (no range recomputation)."""
    arr = np.asarray(getattr(x, "data", x), dtype=np.float64)
    if params.scheme == "minmax8":
        if params.scale == 0.0:
            return np.zeros(arr.shape, dtype=np.uint8)
        return np.clip(round_half_away((arr - params.x_min) / params.scale),
                       0, 255).astype(np.uint8)
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
    return ((x >= lo) & (x <= hi))


def ste_backward(grad_out: np.ndarray, x: np.ndarray,
                 params: ActQuantParams) -> np.ndarray:
    if grad_out.shape != x.shape:
        raise T.ShapeError("grad/input shape mismatch")
    return grad_out * ste_mask(x, params).astype(grad_out.dtype)


def fake_quantize(x: T.Tensor, scheme: str) -> tuple[T.Tensor, QuantizedActivation]:
    """Quantize-dequantize as a tape op with the clipped-STE backward."""
    qa = quantize(x.data, scheme)
    out_data = dequantize(qa).astype(x.data.dtype).reshape(x.shape)
    x_data = x.data

    def backward(g):
        return (ste_backward(g, x_data, qa.params),)

    return T.custom_op([x], out_data, backward, name="fake_quant"), qa


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
