"""Frozen copy of the per-group quantizers as they stood before the
blocked group-matrix rewrite of ``tquant.ternarize``.

The solver bodies below are verbatim; they take one 1-D float64 group at a
time, and ``_rows_of`` / ``_assemble`` split a matrix into groups and
stack the results.  ``quantize`` runs one method end to end.  The
differential tests in ``test_ternarize.py`` hold the package's quantizers
to these outputs bit for bit.
"""

from __future__ import annotations

import numpy as np

from tquant.tensor import ShapeError
from tquant.ternarize import TernaryTensor


def threshold_indicator(x: np.ndarray, delta: float) -> np.ndarray:
    """+1 where x > delta, -1 where x < -delta, else 0 (strict comparisons)."""
    out = np.zeros(x.shape, dtype=np.int8)
    out[x > delta] = 1
    out[x < -delta] = -1
    return out


def _as_matrix(w) -> np.ndarray:
    arr = np.asarray(getattr(w, "data", w), dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError("cannot quantize an empty matrix")
    return arr


def _rows_of(arr: np.ndarray, granularity: str):
    if granularity == "layer":
        return [arr.reshape(-1)]
    return list(arr)


def _assemble(shape, granularity, results, max_level=1) -> TernaryTensor:
    if granularity == "row":
        codes = np.stack([c for c, _, _ in results]).reshape(shape)
    else:
        codes = results[0][0].reshape(shape)
    scales = np.array([a for _, a, _ in results], dtype=np.float32)
    return TernaryTensor(codes=codes, scales=scales, granularity=granularity,
                         max_level=max_level)


# ---------------------------------------------------------------------------
# per-group solvers (1-D float64 input)


def _group_twn_approx(w: np.ndarray):
    aw = np.abs(w)
    delta = 0.7 * aw.sum() / w.size
    codes = threshold_indicator(w, delta)
    support = codes != 0
    if not support.any():
        return np.zeros(w.size, dtype=np.int8), 0.0, delta
    alpha = aw[support].sum() / support.sum()
    return codes, alpha, delta


def _group_twn_exact(w: np.ndarray):
    aw = np.abs(w)
    order = np.argsort(-aw, kind="stable")
    a = aw[order]
    m = int((a > 0).sum())
    if m == 0:
        return np.zeros(w.size, dtype=np.int8), 0.0, 0.0
    cums = np.cumsum(a[:m])
    ks = np.arange(1, m + 1)
    lower = np.append(a[1:m], a[m] if m < w.size else 0.0)
    # a cut is realizable by a strict threshold only between distinct |w|
    valid = a[:m] > lower
    gain = np.where(valid, cums * cums / ks, -np.inf)
    k = int(np.argmax(gain)) + 1
    alpha = cums[k - 1] / k
    delta = 0.5 * (a[k - 1] + lower[k - 1])
    codes = np.zeros(w.size, dtype=np.int8)
    codes[order[:k]] = np.sign(w[order[:k]])
    return codes, alpha, delta


def _group_lat_exact(w: np.ndarray, u: np.ndarray):
    aw = np.abs(w)
    order = np.argsort(-aw, kind="stable")
    a = aw[order]
    m = int((a > 0).sum())
    if m == 0:
        return np.zeros(w.size, dtype=np.int8), 0.0, 0.0
    uo = u[order]
    cum_uw = np.cumsum(uo[:m] * a[:m])
    cum_u = np.cumsum(uo[:m])
    # every sorted-|w| prefix is a feasible code vector; the jointly optimal
    # support is threshold-shaped, hence among the prefixes
    gain = cum_uw * cum_uw / cum_u
    k = int(np.argmax(gain)) + 1
    alpha = cum_uw[k - 1] / cum_u[k - 1]
    lower = a[k] if k < w.size else 0.0
    delta = 0.5 * (a[k - 1] + lower)
    codes = np.zeros(w.size, dtype=np.int8)
    codes[order[:k]] = np.sign(w[order[:k]])
    return codes, alpha, delta


def _group_lat_approx(w: np.ndarray, u: np.ndarray, iters: int):
    aw = np.abs(w)
    base = (u * aw * aw).sum()

    def alpha_for(support):
        du = u[support].sum()
        if du == 0.0:
            return 0.0
        return (u[support] * aw[support]).sum() / du

    def alternate(support):
        alpha = 0.0
        for _ in range(iters):
            alpha = alpha_for(support)
            if alpha == 0.0:
                break
            support = aw > 0.5 * alpha
        alpha = alpha_for(support)
        obj = base - 2.0 * alpha * (u[support] * aw[support]).sum() \
            + alpha * alpha * u[support].sum()
        return obj, support, alpha

    # first start is the plain TWN-threshold support; alternating can stall
    # in a poor basin under skewed curvature, so restart from a few
    # sorted-|w| prefixes and keep the best fixed point
    starts = [_group_twn_approx(w)[0] != 0]
    nonzero = int((aw > 0).sum())
    order = np.argsort(-aw, kind="stable")
    for frac in (1.0, 0.5, 0.25):
        k = max(1, int(round(frac * nonzero)))
        s = np.zeros(w.size, dtype=bool)
        s[order[:k]] = True
        starts.append(s)

    best = None
    for s in starts:
        if not s.any():
            continue
        result = alternate(s.copy())
        if best is None or result[0] < best[0]:
            best = result
    if best is None:
        return np.zeros(w.size, dtype=np.int8), 0.0, 0.0
    _, support, alpha = best
    codes = np.where(support, np.sign(w), 0.0).astype(np.int8)
    return codes, alpha, 0.5 * alpha


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _group_laq3(w: np.ndarray, u: np.ndarray, iters: int):
    aw = np.abs(w)
    n = w.size
    if not (aw > 0).any():
        return np.zeros(n, dtype=np.int8), 0.0, 0.0
    base = float((u * aw * aw).sum())

    # Exact scan: as alpha sweeps down from +inf, element i steps to level
    # k at alpha = |w_i| / (k - 0.5); between breakpoints the rounding
    # vector is constant and the scale has a closed weighted-LS form.
    bounds = aw[:, None] / np.array([0.5, 1.5, 2.5])
    idx = np.repeat(np.arange(n), 3)
    flat = bounds.reshape(-1)
    pos = flat > 0
    idx, flat = idx[pos], flat[pos]
    order = np.argsort(-flat, kind="stable")

    lev = np.zeros(n, dtype=np.int64)
    s1 = 0.0
    s2 = 0.0
    best_obj = base
    best_lev = lev.copy()
    best_alpha = 0.0
    for e in order:
        i = idx[e]
        s1 += u[i] * aw[i]
        s2 += u[i] * (2 * lev[i] + 1)
        lev[i] += 1
        obj = base - s1 * s1 / s2
        if obj < best_obj:
            best_obj = obj
            best_lev = lev.copy()
            best_alpha = s1 / s2

    lev, alpha = best_lev, best_alpha
    # alternating refinement: round-to-level step, then weighted LS scale
    for _ in range(iters):
        if alpha == 0.0:
            break
        lev = np.minimum(_round_half_away(aw / alpha), 3.0).astype(np.int64)
        den = (u * lev * lev).sum()
        if den == 0.0:
            alpha = 0.0
            lev = np.zeros(n, dtype=np.int64)
            break
        alpha = (u * lev * aw).sum() / den
    codes = (np.sign(w) * lev).astype(np.int8)
    return codes, alpha, 0.5 * alpha


def _group_int8(w: np.ndarray):
    peak = np.abs(w).max()
    if peak == 0.0:
        return np.zeros(w.size, dtype=np.int8), 0.0, 0.0
    alpha = peak / 127.0
    codes = np.clip(_round_half_away(w / alpha), -127, 127).astype(np.int8)
    return codes, alpha, alpha


def _floored_sqrt_v(v, shape, v_floor: float) -> np.ndarray:
    vv = np.asarray(getattr(v, "data", v), dtype=np.float64).reshape(shape)
    if np.any(vv < 0):
        raise ValueError("second moments must be nonnegative")
    return np.sqrt(np.maximum(vv, v_floor))


def quantize(method: str, w, v=None, granularity: str = "layer", iters: int = 3,
             v_floor: float = 1e-12) -> TernaryTensor:
    """``method`` is one of the five ternary methods or ``int8``."""
    arr = _as_matrix(w)
    groups = _rows_of(arr, granularity)
    if method == "twn_approx":
        return _assemble(arr.shape, granularity, [_group_twn_approx(g) for g in groups])
    if method == "twn_exact":
        return _assemble(arr.shape, granularity, [_group_twn_exact(g) for g in groups])
    if method == "int8":
        return _assemble(arr.shape, granularity, [_group_int8(g) for g in groups],
                         max_level=127)
    ug = _rows_of(_floored_sqrt_v(v, arr.shape, v_floor), granularity)
    if method == "lat_exact":
        results = [_group_lat_exact(g, u) for g, u in zip(groups, ug)]
    elif method == "lat_approx":
        results = [_group_lat_approx(g, u, iters) for g, u in zip(groups, ug)]
    elif method == "laq3":
        return _assemble(arr.shape, granularity,
                         [_group_laq3(g, u, iters) for g, u in zip(groups, ug)],
                         max_level=3)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _assemble(arr.shape, granularity, results)
