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
  for the 8-bit weight baseline; its method name is ``int8_sym``.

``quantize(w, method, granularity, v)`` is the entry point that takes any
method by name; ``METHODS`` lists the names with each method's code width.
``LAT_ITERS`` (alternating rounds) and ``V_FLOOR`` (the floor under ``v``)
are the loss-aware solvers' constants.
Every method returns a ``TernaryTensor`` of codes and scales only, the
fields a ``.tqm`` file keeps, so a tensor read back from a file equals the
one written.

Every solver works on a group matrix of shape ``(groups, n)``: one row per
scale.  Row granularity uses the matrix as it is; layer granularity is the
single group ``w.reshape(1, -1)``, so both run the same code.  Rows go
through the solvers in blocks of about ``BLOCK_ELEMENTS`` elements (the
constant that :mod:`tensor` defines), and each block is converted to
float64 on its own, so a row-wise pass over a large float32 embedding
never holds a float64 copy of the whole matrix.

Each call makes one workspace (``_Workspace``): the float64 block, |w|,
the floored sqrt(v), one product buffer and three boolean masks, each one
block in size.  The solvers write into it and into the caller's code
matrix with ``out=``, and every block of the call reuses it, so a block's
temporaries are not handed back to the allocator and faulted in again.
The workspace lives for one call, so threads may quantize side by side.
Sorted-order gathers and scatters (``lat_exact``, ``laq3``) index the
flattened block with row-offset indices, in place of
``take_along_axis``/``put_along_axis``.

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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .actquant import round_half_away
from .tensor import BLOCK_ELEMENTS, ShapeError

GRANULARITIES = ("layer", "row")

LAT_ITERS = 3       # alternating rounds of lat_approx and laq3, read at each call
V_FLOOR = 1e-12     # floor under v before its square root


@dataclass
class TernaryTensor:
    """Integer codes plus per-group scales; ``max_level`` is 1 for ternary."""

    codes: np.ndarray            # int8, shape (rows, cols), |code| <= max_level
    scales: np.ndarray           # float32, shape (1,) for layer or (rows,) for row
    granularity: str
    max_level: int = 1

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes, dtype=np.int8)
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float32)

    def validate(self) -> None:
        """``ValueError`` unless a ``.tqm`` file can hold the tensor."""
        groups = {"layer": self.codes.reshape(1, -1), "row": self.codes}.get(self.granularity)
        if groups is None or self.scales.shape != (len(groups),):
            raise ValueError(f"{self.scales.size} scales for {self.granularity!r} groups")
        m = self.max_level
        if self.codes.min(initial=0) < -m or self.codes.max(initial=0) > m:
            raise ValueError(f"codes outside -{m}..{m}")
        if not (np.isfinite(self.scales) & (self.scales >= 0)).all():
            raise ValueError("scales must be finite and nonnegative")
        zero = np.flatnonzero(self.scales == 0)
        bad = zero[groups[zero].any(axis=1)]
        if bad.size:
            raise ValueError(f"group {bad[0]} has zero scale but nonzero codes")


class _Workspace(NamedTuple):
    """Scratch arrays for the blocks of one ``_quantize`` call.

    Every field is one block of groups, ``(rows, n)``; ``head(g)`` narrows
    them all to the first ``g`` rows for the last, partial block.  A solver
    may overwrite any field, ``x`` included, once it has read it.
    """

    x: np.ndarray           # the block, float64
    a: np.ndarray           # |x|
    tmp: np.ndarray         # one product at a time
    m0: np.ndarray          # boolean supports and sign masks
    m1: np.ndarray
    m2: np.ndarray
    u: np.ndarray | None    # floored sqrt(v); loss-aware calls only

    @classmethod
    def empty(cls, rows: int, n: int, loss_aware: bool) -> "_Workspace":
        def block(dtype=np.float64):
            return np.empty((rows, n), dtype=dtype)
        return cls(block(), block(), block(), block(bool), block(bool), block(bool),
                   block() if loss_aware else None)

    def head(self, g: int) -> "_Workspace":
        return self._make(None if f is None else f[:g] for f in self)


def _signs(x: np.ndarray, keep: np.ndarray, out: np.ndarray, neg: np.ndarray) -> None:
    """Write sign(x) as int8 to ``out`` where ``keep``, else 0; ``neg`` is scratch."""
    np.greater(x, 0, out=out.view(np.bool_))
    np.subtract(out, np.less(x, 0, out=neg).view(np.int8), out=out)
    np.multiply(out, keep.view(np.int8), out=out)


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
    if v is None:
        raise ValueError("loss-aware methods need the second moments v")
    vv = np.asarray(getattr(v, "data", v)).reshape(shape)
    if np.any(vv < 0):
        raise ValueError("second moments must be nonnegative")
    return vv


def _floored_sqrt(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sqrt(max(v, V_FLOOR)) in float64, written to ``out``."""
    np.copyto(out, v, casting="unsafe")
    return np.sqrt(np.maximum(out, V_FLOOR, out=out), out=out)


def _quantize(solve, w, granularity: str, *v, max_level: int = 1) -> TernaryTensor:
    """Run ``solve`` over the group matrix of ``w`` one block of rows at a time.

    ``solve(ws, out)`` reads a block of groups from the workspace
    ``ws`` (``ws.x``, and ``ws.u`` when ``v`` is given), writes its int8
    codes to ``out`` and returns its per-group scales.  Loss-aware
    quantizers pass ``v`` and the others leave it out.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    arr = _as_matrix(w)
    groups = arr.reshape(1, -1) if granularity == "layer" else arr
    vg = _second_moments(v[0], arr.shape).reshape(groups.shape) if v else None
    rows, n = groups.shape
    codes = np.empty((rows, n), dtype=np.int8)
    scales = np.empty(rows)
    step = max(1, BLOCK_ELEMENTS // n)
    full = _Workspace.empty(min(step, rows), n, vg is not None)
    for r in range(0, rows, step):
        b = slice(r, r + step)
        ws = full.head(min(step, rows - r))
        np.copyto(ws.x, groups[b], casting="unsafe")
        if vg is not None:
            _floored_sqrt(vg[b], out=ws.u)
        scales[b] = solve(ws, codes[b])
    return TernaryTensor(codes=codes.reshape(arr.shape), scales=scales,
                         granularity=granularity, max_level=max_level)


# ---------------------------------------------------------------------------
# group-matrix solvers: a workspace block of float64 (groups, n) in; codes
# to ``out``, scales returned


def _twn_delta(a: np.ndarray) -> np.ndarray:
    return 0.7 * a.sum(axis=1) / a.shape[1]


def _solve_twn_approx(ws: _Workspace, out: np.ndarray) -> np.ndarray:
    a = np.abs(ws.x, out=ws.a)
    support = np.greater(a, _twn_delta(a)[:, None], out=ws.m0)
    _signs(ws.x, support, out, ws.m1)
    # the support as 0.0/1.0, over the block it no longer needs: a float
    # product is faster than a bool one, and a float sum of ones is the
    # exact count
    ones = ws.x
    np.copyto(ones, support)
    count = ones.sum(axis=1)
    total = np.multiply(ones, a, out=ones).sum(axis=1)
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


def _solve_twn_exact(ws: _Workspace, out: np.ndarray) -> np.ndarray:
    a = np.abs(ws.x, out=ws.a)
    g, n = a.shape
    np.copyto(ws.tmp, a)
    ws.tmp.sort(axis=1)
    desc = ws.tmp[:, ::-1]
    cums = np.cumsum(desc, axis=1)
    # a cut is realizable by a strict threshold only between distinct |w|
    distinct = ws.m0
    np.greater(desc[:, :-1], desc[:, 1:], out=distinct[:, :-1])
    np.greater(desc[:, -1], 0.0, out=distinct[:, -1])
    gain = cums * cums
    np.divide(gain, np.arange(1, n + 1), out=gain)
    np.copyto(gain, -np.inf, where=np.logical_not(distinct, out=distinct))
    k = np.argmax(gain, axis=1)
    rows = np.arange(g)
    live = desc[:, 0] > 0
    alpha = np.where(live, cums[rows, k] / (k + 1), 0.0)
    # the cut sits between distinct values, so the prefix is |w| >= cut
    cut = np.where(live, desc[rows, k], np.inf)[:, None]
    _signs(ws.x, np.greater_equal(a, cut, out=ws.m0), out, ws.m1)
    return alpha


def _stable_desc_flat(a: np.ndarray) -> np.ndarray:
    """Flat indices into ``a`` (``a >= 0``) that list each row in stable
    descending order: row i holds ``i * n`` plus its row of
    ``np.argsort(-a, axis=1, kind="stable")``.

    When every magnitude is a float32 value, as it is for float32 weights,
    its float32 bit pattern ranks it; packed above the column index it makes
    distinct int64 keys whose plain sort is the stable order, several times
    faster than a stable argsort.
    """
    g, n = a.shape
    f = a.astype(np.float32)
    if n >= 1 << 32 or not np.array_equal(f, a):
        order = np.argsort(-a, axis=1, kind="stable")
    else:
        order = (0x7F800000 - f.view(np.int32).astype(np.int64)) << 32 | np.arange(n)
        order.sort(axis=1)
        order &= 0xFFFFFFFF
    order += np.arange(0, g * n, n)[:, None]
    return order


def _solve_lat_exact(ws: _Workspace, out: np.ndarray) -> np.ndarray:
    a = np.abs(ws.x, out=ws.a)
    g, n = a.shape
    order = _stable_desc_flat(a)
    desc = np.take(a, order, out=ws.tmp, mode="clip")
    us = np.take(ws.u, order, mode="clip")
    cum_uw = us * desc
    np.cumsum(cum_uw, axis=1, out=cum_uw)
    cum_u = np.cumsum(us, axis=1, out=us)
    # every sorted-|w| prefix is a feasible code vector; the jointly optimal
    # support is threshold-shaped, hence among the prefixes
    gain = np.where(desc > 0, cum_uw * cum_uw / cum_u, -np.inf)
    k = np.argmax(gain, axis=1)
    rows = np.arange(g)
    live = desc[:, 0] > 0
    alpha = np.where(live, cum_uw[rows, k] / cum_u[rows, k], 0.0)
    # ties in |w| may straddle the cut, so the support is the stable-order
    # prefix itself, scattered back to element order
    support = ws.m0
    support.reshape(-1)[order] = np.arange(n) <= np.where(live, k, -1)[:, None]
    _signs(ws.x, support, out, ws.m1)
    return alpha


def _stable_prefix(a: np.ndarray, cut: np.ndarray, k: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """The first ``k`` elements of each row in stable descending-|w| order,
    written to ``out``; ``cut`` is each row's k-th largest |w|."""
    keep = np.greater_equal(a, cut[:, None], out=out)
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if over.size:
        # ties straddle the cut: keep only the earliest of the tied elements
        c = cut[over, None]
        tie = a[over] == c
        room = k[over] - np.count_nonzero(a[over] > c, axis=1)
        keep[over] &= ~tie | (np.cumsum(tie, axis=1) <= room[:, None])
    return keep


def _solve_lat_approx(ws: _Workspace, out: np.ndarray) -> np.ndarray:
    u, tmp, best = ws.u, ws.tmp, ws.m0
    a = np.abs(ws.x, out=ws.a)
    g, n = a.shape

    def alpha_for(support):
        # (support * u) * |w| has the bits of (u * |w|) * support
        np.copyto(tmp, support)
        du = np.multiply(tmp, u, out=tmp).sum(axis=1)
        num = np.multiply(tmp, a, out=tmp).sum(axis=1)
        alpha = np.divide(num, du, out=np.zeros_like(num), where=du != 0)
        return alpha, num, du

    # first start is the plain TWN-threshold support; alternating can stall
    # in a poor basin under skewed curvature, so restart from a few
    # sorted-|w| prefixes (all, half, a quarter of the nonzeros) and keep
    # the best fixed point
    nonzero = np.count_nonzero(a, axis=1)
    np.copyto(tmp, a)
    tmp.sort(axis=1)
    prefixes = []
    for frac in (0.5, 0.25):
        k = np.maximum(1, np.round(frac * nonzero).astype(np.int64))
        prefixes.append((tmp[np.arange(g), n - k], k))    # the k-th largest |w|
    base = np.multiply(np.multiply(u, a, out=tmp), a, out=tmp).sum(axis=1)

    best_obj = np.full(g, np.inf)
    best_alpha = np.zeros(g)
    np.greater(a, _twn_delta(a)[:, None], out=best)
    for start in range(2 + len(prefixes)):
        # the supports alternate between two buffers
        support, spare = ws.m1, ws.m2
        if start == 0:
            np.copyto(support, best)
        elif start == 1:
            np.greater(a, 0.0, out=support)
        else:
            _stable_prefix(a, *prefixes[start - 2], out=support)
        for _ in range(LAT_ITERS):
            # the scale is a weighted mean of |w| over a support of nonzeros,
            # so the new support is never empty
            np.greater(a, 0.5 * alpha_for(support)[0][:, None], out=spare)
            support, spare = spare, support
        alpha, num, du = alpha_for(support)
        obj = base - 2.0 * alpha * num + alpha * alpha * du
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        best_alpha = np.where(better, alpha, best_alpha)
        np.copyto(best, support, where=better[:, None])

    live = nonzero > 0
    _signs(ws.x, np.logical_and(best, live[:, None], out=best), out, ws.m1)
    return np.where(live, best_alpha, 0.0)


_LAQ3_STEPS = np.array([0.5, 1.5, 2.5])


def _solve_laq3(ws: _Workspace, out: np.ndarray) -> np.ndarray:
    u, tmp = ws.u, ws.tmp
    a = np.abs(ws.x, out=ws.a)
    g, n = a.shape
    rows = np.arange(g)
    base = np.multiply(np.multiply(u, a, out=tmp), a, out=tmp).sum(axis=1)

    # Exact scan: as alpha sweeps down from +inf, element i steps to level
    # k at alpha = |w_i| / (k - 0.5); between breakpoints the rounding
    # vector is constant and the scale has a closed weighted-LS form.
    bounds = (a[:, :, None] / _LAQ3_STEPS).reshape(g, 3 * n)
    order = np.argsort(-bounds, axis=1, kind="stable")
    elem, level = np.divmod(order, 3)   # the element and its level before the step
    elem += (rows * n)[:, None]         # flat indices into the block
    ue = np.take(u, elem, mode="clip")
    s1 = np.add.accumulate(ue * np.take(a, elem, mode="clip"), axis=1)
    s2 = np.add.accumulate(ue * (2 * level + 1), axis=1)
    obj = base[:, None] - s1 * s1 / s2
    # zero breakpoints sort last and are never steps
    order += (rows * 3 * n)[:, None]
    obj[np.take(bounds, order, mode="clip") <= 0] = np.inf
    t = np.argmin(obj, axis=1)
    won = obj[rows, t] < base
    alpha = np.where(won, s1[rows, t] / s2[rows, t], 0.0)
    prefix = np.arange(3 * n) <= np.where(won, t, -1)[:, None]
    lev = np.bincount(elem[prefix], minlength=g * n).reshape(g, n).astype(np.float64)

    # alternating refinement: round-to-level step, then weighted LS scale;
    # a least-squares scale is at most max|w|, so some level stays >= 1
    live = alpha != 0.0
    for _ in range(LAT_ITERS):
        step = np.divide(a, np.where(live, alpha, 1.0)[:, None], out=tmp)
        np.minimum(round_half_away(step, out=step), 3.0, out=step)
        np.copyto(lev, step, where=live[:, None])
        den = (u * lev * lev).sum(axis=1)
        num = np.multiply(np.multiply(u, lev, out=tmp), a, out=tmp).sum(axis=1)
        alpha = np.divide(num, den, out=np.zeros_like(den), where=live)
    np.copyto(out, np.multiply(np.sign(ws.x, out=tmp), lev, out=tmp), casting="unsafe")
    return alpha


def _solve_int8(ws: _Workspace, out: np.ndarray) -> np.ndarray:
    x = ws.x
    peak = np.maximum(x.max(axis=1), -x.min(axis=1))
    live = peak > 0
    alpha = np.where(live, peak / 127.0, 0.0)
    # round in the block itself: a layer-wise block is the whole matrix
    codes = np.divide(x, np.where(live, alpha, 1.0)[:, None], out=x)
    round_half_away(codes, out=codes)
    np.copyto(out, np.clip(codes, -127, 127, out=codes), casting="unsafe")
    return alpha


# ---------------------------------------------------------------------------
# public quantizers


def twn_approx(w, granularity: str = "layer") -> TernaryTensor:
    return _quantize(_solve_twn_approx, w, granularity)


def twn_exact(w, granularity: str = "layer") -> TernaryTensor:
    return _quantize(_solve_twn_exact, w, granularity)


def lat_subproblem(w, v, granularity: str = "layer", mode: str = "exact") -> TernaryTensor:
    if mode == "exact":
        return _quantize(_solve_lat_exact, w, granularity, v)
    if mode == "approx":
        return _quantize(_solve_lat_approx, w, granularity, v)
    raise ValueError(f"unknown lat mode {mode!r}")


def laq3(w, v, granularity: str = "layer") -> TernaryTensor:
    return _quantize(_solve_laq3, w, granularity, v, max_level=3)


def quantize_int8(w, granularity: str = "layer") -> TernaryTensor:
    return _quantize(_solve_int8, w, granularity, max_level=127)


# method name -> (code width, quantizer).  Each quantizer takes
# (w, granularity, v) and calls a public function above by its module
# name, so a wrapper later put on that name sees the call.
METHODS = {
    "twn_approx": (2, lambda w, g, v: twn_approx(w, g)),
    "twn_exact": (2, lambda w, g, v: twn_exact(w, g)),
    "lat_exact": (2, lambda w, g, v: lat_subproblem(w, v, g, "exact")),
    "lat_approx": (2, lambda w, g, v: lat_subproblem(w, v, g, "approx")),
    "laq3": (3, lambda w, g, v: laq3(w, v, g)),
    "int8_sym": (8, lambda w, g, v: quantize_int8(w, g)),
}


def quantize(w, method: str, granularity: str = "layer", v=None) -> TernaryTensor:
    """Quantize ``w`` with any method of ``METHODS``.

    The loss-aware methods (``lat_*``, ``laq3``) need the second moments
    ``v`` and raise ``ValueError`` without them; the others ignore ``v``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method][1](w, granularity, v)


def dequantize(t: TernaryTensor) -> np.ndarray:
    """Elementwise scale * code, float32: each scale over its group's codes."""
    groups = t.codes.reshape(t.scales.size, -1)
    return (t.scales[:, None] * groups).reshape(t.codes.shape)


def weighted_residual(w, t: TernaryTensor, v=None) -> float:
    """Residual ||w - dequantize(t)||^2 under Diag(sqrt(v)), float64."""
    arr = _as_matrix(w).astype(np.float64)
    diff = arr - dequantize(t).astype(np.float64).reshape(arr.shape)
    if v is None:
        return float((diff * diff).sum())
    u = _floored_sqrt(_second_moments(v, arr.shape), np.empty(arr.shape))
    return float((u * diff * diff).sum())
