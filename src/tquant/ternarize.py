"""Ternary and low-bit weight quantizers.

A full-precision matrix is mapped to integer codes times a positive scale,
``w_hat = alpha * b``, at one of two granularities: a single scale for the
whole matrix ("layer") or one scale per row ("row").  Methods:

* ``twn_approx`` -- threshold 0.7 * ||w||_1 / n, closed-form scale.
* ``twn_exact``  -- scans sorted-|w| cut points for the threshold that
  globally minimizes ||w - alpha*b||_2^2.
* ``lat_exact`` / ``lat_approx`` -- minimize the residual under the
  diagonal metric Diag(sqrt(v)), where v is the optimizer's second moment;
  the exact solver scans sorted-|w| prefixes with a weighted-mean scale,
  the approximate one alternates scale and code updates.
* ``laq3``       -- 3-bit extension with codes in {-3..3}, solved by an
  exact breakpoint scan plus alternating refinement.
* ``quantize_int8`` -- symmetric 8-bit codes in {-127..127} (layer-wise),
  for the 8-bit weight baseline.

Every solver works on a group matrix of shape ``(groups, n)``: one row per
scale.  Row granularity uses the matrix as it is; layer granularity is the
single group ``w.reshape(1, -1)``, so both run the same code.  Rows go
through the solvers in blocks of about ``BLOCK_ELEMENTS`` elements, and
each block is converted to float64 on its own, so a row-wise pass over a
large float32 embedding never holds a float64 copy of the whole matrix.

``laq3``'s scan is a prefix scan.  As the scale sweeps down from +inf,
element i steps up a level at each breakpoint ``|w_i| / (k - 0.5)``; in
descending breakpoint order, the level an element has before a breakpoint
is that breakpoint's rank among the element's own (0, 1 or 2).  The
objective's two running sums are then ``np.add.accumulate`` over the sorted
breakpoints, which adds in the same order as a sequential loop, the winner
is the first strict minimum below the zero-code objective, and the levels
are a ``np.bincount`` over the winning prefix.

All group arithmetic runs in float64 and scales are stored as float32, so
re-quantizing a dequantized ternary tensor reproduces codes and scales
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actquant import round_half_away
from .tensor import ShapeError

GRANULARITIES = ("layer", "row")
METHODS = ("twn_approx", "twn_exact", "lat_exact", "lat_approx", "laq3")

# float64 elements per block of rows (512 KiB per temporary): large enough
# that numpy's per-call overhead vanishes, small enough that the repeated
# passes over a block stay near the CPU caches; 2^15 to 2^17 time alike
BLOCK_ELEMENTS = 1 << 16


@dataclass
class QuantConfig:
    method: str
    granularity: str = "layer"
    lat_iters: int = 3
    v_floor: float = 1e-12

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.lat_iters < 1:
            raise ValueError("lat_iters must be >= 1")
        if self.v_floor <= 0:
            raise ValueError("v_floor must be positive")


@dataclass
class TernaryTensor:
    """Integer codes plus per-group scales; ``max_level`` is 1 for ternary."""

    codes: np.ndarray            # int8, shape (rows, cols), |code| <= max_level
    scales: np.ndarray           # float32, shape (1,) for layer or (rows,) for row
    granularity: str
    thresholds: np.ndarray = field(default=None)  # diagnostic, same shape as scales
    max_level: int = 1

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes, dtype=np.int8)
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float32)
        if self.thresholds is None:
            self.thresholds = np.zeros_like(self.scales)
        else:
            self.thresholds = np.ascontiguousarray(self.thresholds, dtype=np.float32)

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape

    def validate(self) -> None:
        rows = self.codes.shape[0]
        if self.granularity == "layer" and self.scales.shape != (1,):
            raise ValueError("layer granularity needs exactly one scale")
        if self.granularity == "row" and self.scales.shape != (rows,):
            raise ValueError("row granularity needs one scale per row")
        if np.abs(self.codes).max(initial=0) > self.max_level:
            raise ValueError("code magnitude exceeds max_level")
        if np.any(self.scales < 0):
            raise ValueError("scales must be nonnegative")
        # zero scale only for an all-zero group
        groups = self.codes.reshape(self.scales.size, -1)
        bad = (self.scales == 0) & groups.any(axis=1)
        if bad.any():
            raise ValueError(f"group {int(np.argmax(bad))} has zero scale but nonzero codes")


def threshold_indicator(x: np.ndarray, delta: float) -> np.ndarray:
    """+1 where x > delta, -1 where x < -delta, else 0 (strict comparisons)."""
    out = np.zeros(x.shape, dtype=np.int8)
    out[x > delta] = 1
    out[x < -delta] = -1
    return out


def _signs(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """sign(x) as int8 where ``keep``, else 0."""
    return (keep & (x > 0)).view(np.int8) - (keep & (x < 0)).view(np.int8)


def _as_matrix(w) -> np.ndarray:
    """The input as a 2-D array in its own dtype; blocks convert to float64."""
    arr = np.asarray(getattr(w, "data", w))
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError("cannot quantize an empty matrix")
    return arr


def _second_moments(v, shape) -> np.ndarray:
    vv = np.asarray(getattr(v, "data", v)).reshape(shape)
    if np.any(vv < 0):
        raise ValueError("second moments must be nonnegative")
    return vv


def _floored_sqrt(v: np.ndarray, v_floor: float) -> np.ndarray:
    return np.sqrt(np.maximum(np.ascontiguousarray(v, dtype=np.float64), v_floor))


def _quantize(solve, w, granularity: str, v=None, v_floor: float = 1e-12,
              max_level: int = 1, **kwargs) -> TernaryTensor:
    """Run ``solve`` over the group matrix of ``w`` one block of rows at a time.

    ``solve(x[, u], **kwargs)`` takes a C-contiguous float64 block of groups
    (and the matching floored sqrt(v)) and returns int8 codes and per-group
    scales and thresholds.
    """
    arr = _as_matrix(w)
    groups = arr.reshape(1, -1) if granularity == "layer" else arr
    vg = None if v is None else _second_moments(v, arr.shape).reshape(groups.shape)
    rows, n = groups.shape
    codes = np.empty((rows, n), dtype=np.int8)
    scales = np.empty(rows)
    thresholds = np.empty(rows)
    step = max(1, BLOCK_ELEMENTS // n)
    for r in range(0, rows, step):
        b = slice(r, r + step)
        x = np.ascontiguousarray(groups[b], dtype=np.float64)
        u = () if vg is None else (_floored_sqrt(vg[b], v_floor),)
        codes[b], scales[b], thresholds[b] = solve(x, *u, **kwargs)
    return TernaryTensor(codes=codes.reshape(arr.shape), scales=scales,
                         granularity=granularity, thresholds=thresholds,
                         max_level=max_level)


# ---------------------------------------------------------------------------
# group-matrix solvers: float64 (groups, n) in; codes, scales, thresholds out


def _twn_delta(a: np.ndarray) -> np.ndarray:
    return 0.7 * a.sum(axis=1) / a.shape[1]


def _solve_twn_approx(x: np.ndarray):
    a = np.abs(x)
    delta = _twn_delta(a)
    support = a > delta[:, None]
    count = np.count_nonzero(support, axis=1)
    total = (a * support).sum(axis=1)
    alpha = np.divide(total, count, out=np.zeros_like(total), where=count > 0)
    return _signs(x, support), alpha, delta


def _solve_twn_exact(x: np.ndarray):
    a = np.abs(x)
    g, n = a.shape
    desc = np.sort(a, axis=1)[:, ::-1]
    cums = np.cumsum(desc, axis=1)
    lower = np.zeros_like(desc)
    lower[:, :-1] = desc[:, 1:]
    # a cut is realizable by a strict threshold only between distinct |w|
    gain = np.where(desc > lower, cums * cums / np.arange(1, n + 1), -np.inf)
    k = np.argmax(gain, axis=1)
    rows = np.arange(g)
    live = desc[:, 0] > 0
    cut = desc[rows, k]
    alpha = np.where(live, cums[rows, k] / (k + 1), 0.0)
    delta = np.where(live, 0.5 * (cut + lower[rows, k]), 0.0)
    # the cut sits between distinct values, so the prefix is |w| >= cut
    codes = _signs(x, a >= np.where(live, cut, np.inf)[:, None])
    return codes, alpha, delta


def _stable_desc_order(a: np.ndarray) -> np.ndarray:
    """Row-wise ``np.argsort(-a, axis=1, kind="stable")`` for ``a >= 0``.

    When every magnitude is a float32 value, as it is for float32 weights,
    its float32 bit pattern ranks it; packed above the column index it makes
    distinct int64 keys whose plain sort is the stable order, several times
    faster than a stable argsort.
    """
    f = a.astype(np.float32)
    if a.shape[1] >= 1 << 32 or not np.array_equal(f, a):
        return np.argsort(-a, axis=1, kind="stable")
    keys = (0x7F800000 - f.view(np.int32).astype(np.int64)) << 32 | np.arange(a.shape[1])
    keys.sort(axis=1)
    return keys & 0xFFFFFFFF


def _solve_lat_exact(x: np.ndarray, u: np.ndarray):
    a = np.abs(x)
    g, n = a.shape
    order = _stable_desc_order(a)
    desc = np.take_along_axis(a, order, axis=1)
    us = np.take_along_axis(u, order, axis=1)
    cum_uw = np.cumsum(us * desc, axis=1)
    cum_u = np.cumsum(us, axis=1)
    # every sorted-|w| prefix is a feasible code vector; the jointly optimal
    # support is threshold-shaped, hence among the prefixes
    gain = np.where(desc > 0, cum_uw * cum_uw / cum_u, -np.inf)
    k = np.argmax(gain, axis=1)
    rows = np.arange(g)
    live = desc[:, 0] > 0
    alpha = np.where(live, cum_uw[rows, k] / cum_u[rows, k], 0.0)
    lower = np.where(k + 1 < n, desc[rows, np.minimum(k + 1, n - 1)], 0.0)
    delta = np.where(live, 0.5 * (desc[rows, k] + lower), 0.0)
    # ties in |w| may straddle the cut, so the support is the stable-order
    # prefix itself, scattered back to element order
    support = np.empty((g, n), dtype=bool)
    np.put_along_axis(support, order, np.arange(n) <= np.where(live, k, -1)[:, None],
                      axis=1)
    return _signs(x, support), alpha, delta


def _stable_prefix(a: np.ndarray, desc: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The first ``k`` elements of each row in stable descending-|w| order."""
    cut = desc[np.arange(len(a)), k - 1][:, None]
    keep = a >= cut
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if over.size:
        # ties straddle the cut: keep only the earliest of the tied elements
        tie = a[over] == cut[over]
        room = k[over] - np.count_nonzero(a[over] > cut[over], axis=1)
        keep[over] &= ~tie | (np.cumsum(tie, axis=1) <= room[:, None])
    return keep


def _solve_lat_approx(x: np.ndarray, u: np.ndarray, iters: int):
    a = np.abs(x)
    ua = u * a
    base = (ua * a).sum(axis=1)

    def alpha_for(support):
        du = (u * support).sum(axis=1)
        num = (ua * support).sum(axis=1)
        alpha = np.divide(num, du, out=np.zeros_like(num), where=du != 0)
        return alpha, num, du

    # first start is the plain TWN-threshold support; alternating can stall
    # in a poor basin under skewed curvature, so restart from a few
    # sorted-|w| prefixes (all, half, a quarter of the nonzeros) and keep
    # the best fixed point
    nonzero = np.count_nonzero(a, axis=1)
    desc = np.sort(a, axis=1)[:, ::-1]
    starts = [a > _twn_delta(a)[:, None], a > 0]
    for frac in (0.5, 0.25):
        k = np.maximum(1, np.round(frac * nonzero).astype(np.int64))
        starts.append(_stable_prefix(a, desc, k))

    best_obj = np.full(len(a), np.inf)
    best_support = starts[0]
    best_alpha = np.zeros(len(a))
    for support in starts:
        for _ in range(iters):
            # the scale is a weighted mean of |w| over a support of nonzeros,
            # so the new support is never empty
            support = a > 0.5 * alpha_for(support)[0][:, None]
        alpha, num, du = alpha_for(support)
        obj = base - 2.0 * alpha * num + alpha * alpha * du
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        best_alpha = np.where(better, alpha, best_alpha)
        best_support = np.where(better[:, None], support, best_support)

    live = nonzero > 0
    alpha = np.where(live, best_alpha, 0.0)
    codes = _signs(x, best_support & live[:, None])
    return codes, alpha, 0.5 * alpha


_LAQ3_STEPS = np.array([0.5, 1.5, 2.5])


def _solve_laq3(x: np.ndarray, u: np.ndarray, iters: int):
    a = np.abs(x)
    g, n = a.shape
    rows = np.arange(g)
    base = (u * a * a).sum(axis=1)

    # Exact scan: as alpha sweeps down from +inf, element i steps to level
    # k at alpha = |w_i| / (k - 0.5); between breakpoints the rounding
    # vector is constant and the scale has a closed weighted-LS form.
    bounds = (a[:, :, None] / _LAQ3_STEPS).reshape(g, 3 * n)
    order = np.argsort(-bounds, axis=1, kind="stable")
    elem, level = np.divmod(order, 3)   # the element and its level before the step
    ue = np.take_along_axis(u, elem, axis=1)
    s1 = np.add.accumulate(ue * np.take_along_axis(a, elem, axis=1), axis=1)
    s2 = np.add.accumulate(ue * (2 * level + 1), axis=1)
    obj = base[:, None] - s1 * s1 / s2
    # zero breakpoints sort last and are never steps
    obj[np.take_along_axis(bounds, order, axis=1) <= 0] = np.inf
    t = np.argmin(obj, axis=1)
    won = obj[rows, t] < base
    alpha = np.where(won, s1[rows, t] / s2[rows, t], 0.0)
    prefix = np.arange(3 * n) <= np.where(won, t, -1)[:, None]
    lev = np.bincount((elem + (rows * n)[:, None])[prefix],
                      minlength=g * n).reshape(g, n).astype(np.float64)

    # alternating refinement: round-to-level step, then weighted LS scale;
    # a least-squares scale is at most max|w|, so some level stays >= 1
    live = alpha != 0.0
    for _ in range(iters):
        step = np.minimum(round_half_away(a / np.where(live, alpha, 1.0)[:, None]), 3.0)
        lev = np.where(live[:, None], step, lev)
        den = (u * lev * lev).sum(axis=1)
        alpha = np.divide((u * lev * a).sum(axis=1), den, out=np.zeros_like(den), where=live)
    codes = (np.sign(x) * lev).astype(np.int8)
    return codes, alpha, 0.5 * alpha


def _solve_int8(x: np.ndarray):
    peak = np.maximum(x.max(axis=1), -x.min(axis=1))
    live = peak > 0
    alpha = np.where(live, peak / 127.0, 0.0)
    # one float64 buffer for the whole rounding: the block can be a full
    # layer, and fresh buffers of that size cost more than the arithmetic
    codes = x / np.where(live, alpha, 1.0)[:, None]
    round_half_away(codes, out=codes)
    return np.clip(codes, -127, 127, out=codes).astype(np.int8), alpha, alpha


# ---------------------------------------------------------------------------
# public quantizers


def twn_approx(w, granularity: str = "layer") -> TernaryTensor:
    return _quantize(_solve_twn_approx, w, granularity)


def twn_exact(w, granularity: str = "layer") -> TernaryTensor:
    return _quantize(_solve_twn_exact, w, granularity)


def lat_subproblem(w, v, granularity: str = "layer", mode: str = "exact",
                   iters: int = 3, v_floor: float = 1e-12) -> TernaryTensor:
    if mode == "exact":
        return _quantize(_solve_lat_exact, w, granularity, v, v_floor)
    if mode == "approx":
        return _quantize(_solve_lat_approx, w, granularity, v, v_floor, iters=iters)
    raise ValueError(f"unknown lat mode {mode!r}")


def laq3(w, v, granularity: str = "layer", iters: int = 3,
         v_floor: float = 1e-12) -> TernaryTensor:
    return _quantize(_solve_laq3, w, granularity, v, v_floor, max_level=3, iters=iters)


def quantize_int8(w, granularity: str = "layer") -> TernaryTensor:
    return _quantize(_solve_int8, w, granularity, max_level=127)


def ternarize(w, config: QuantConfig, v=None) -> TernaryTensor:
    """Dispatch on the configured method; ``v`` is required for lat/laq3."""
    if config.method == "twn_approx":
        return twn_approx(w, config.granularity)
    if config.method == "twn_exact":
        return twn_exact(w, config.granularity)
    if v is None:
        raise ValueError(f"method {config.method!r} needs a second-moment matrix")
    if config.method == "lat_exact":
        return lat_subproblem(w, v, config.granularity, "exact",
                              config.lat_iters, config.v_floor)
    if config.method == "lat_approx":
        return lat_subproblem(w, v, config.granularity, "approx",
                              config.lat_iters, config.v_floor)
    return laq3(w, v, config.granularity, config.lat_iters, config.v_floor)


def dequantize(t: TernaryTensor) -> np.ndarray:
    """Elementwise scale * code, float32."""
    if t.granularity == "layer":
        return (t.scales[0] * t.codes).astype(np.float32)
    return (t.scales[:, None] * t.codes).astype(np.float32)


def weighted_residual(w, t: TernaryTensor, v=None, v_floor: float = 1e-12) -> float:
    """Residual ||w - dequantize(t)||^2 under Diag(sqrt(v)), float64."""
    arr = _as_matrix(w).astype(np.float64)
    diff = arr - dequantize(t).astype(np.float64).reshape(arr.shape)
    if v is None:
        return float((diff * diff).sum())
    u = _floored_sqrt(_second_moments(v, arr.shape), v_floor)
    return float((u * diff * diff).sum())
