"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (scalar loops, enumeration,
quadrature, finite differences) and shares no code with the package paths
it checks.
"""

from __future__ import annotations

import math

import numpy as np


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def softmax_reference(row: np.ndarray) -> np.ndarray:
    """Direct exp/sum formula in extended precision."""
    row = np.asarray(row, dtype=np.longdouble)
    e = np.exp(row - row.max())
    return (e / e.sum()).astype(np.float64)


def gaussian_cdf_quadrature(x: float, steps: int = 20001) -> float:
    """Phi(x) via composite Simpson integration of the normal pdf on [0, x]."""
    if x == 0.0:
        return 0.5
    a, b = (0.0, x) if x > 0 else (x, 0.0)
    h = (b - a) / (steps - 1)
    grid = a + h * np.arange(steps)
    pdf = np.exp(-0.5 * grid * grid) / math.sqrt(2 * math.pi)
    weights = np.ones(steps)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = h / 3.0 * float((weights * pdf).sum())
    return 0.5 + integral if x > 0 else 0.5 - integral


def brute_force_quant(w: np.ndarray, u: np.ndarray | None = None,
                      max_level: int = 1) -> float:
    """Min over all code vectors in {-L..L}^n with per-code optimal alpha > 0.

    Returns the minimal objective sum(u_i * (w_i - alpha*b_i)^2).  For every
    code vector b the sums num = sum(b_i u_i w_i) and den = sum(b_i^2 u_i)
    are enumerated exhaustively as outer sums, one coordinate at a time; the
    last coordinate runs level by level to bound memory.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    n = w.size
    u = np.ones(n) if u is None else np.asarray(u, dtype=np.float64).reshape(-1)
    levels = np.arange(-max_level, max_level + 1, dtype=np.float64)
    base = float((u * w * w).sum())
    num = np.zeros(1)
    den = np.zeros(1)
    for i in range(n - 1):
        num = (num[:, None] + levels * (u[i] * w[i])).reshape(-1)
        den = (den[:, None] + levels * levels * u[i]).reshape(-1)
    best = base
    for b in levels:
        last_num = num + b * (u[-1] * w[-1])
        last_den = den + b * b * u[-1]
        ok = (last_den > 0) & (last_num > 0)
        if ok.any():
            best = min(best, float((base - last_num[ok] ** 2 / last_den[ok]).min()))
    return best


def twn_approx_scalar(row: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Recompute (delta, codes, alpha) for one group with explicit loops."""
    n = len(row)
    delta = 0.7 * sum(abs(float(x)) for x in row) / n
    codes = np.zeros(n, dtype=np.int8)
    picked = []
    for i, x in enumerate(row):
        if float(x) > delta:
            codes[i] = 1
            picked.append(abs(float(x)))
        elif float(x) < -delta:
            codes[i] = -1
            picked.append(abs(float(x)))
    alpha = sum(picked) / len(picked) if picked else 0.0
    return delta, codes, alpha


def pack_2bit_reference(signs) -> bytes:
    """Hand packing per the stated layout: element k at bits 2*(k%4).."""
    code_of = {0: 0b00, 1: 0b01, -1: 0b10}
    flat = list(signs)
    out = bytearray((len(flat) + 3) // 4)
    for k, s in enumerate(flat):
        out[k // 4] |= code_of[int(s)] << (2 * (k % 4))
    return bytes(out)


def integer_gemm_reference(act_codes: np.ndarray, act_params,
                           signs: np.ndarray, scales: np.ndarray,
                           granularity: str) -> np.ndarray:
    """Scalar integer accumulation plus the affine correction, float32 out."""
    m, k = act_codes.shape
    n = signs.shape[0]
    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            acc = 0
            colsum = 0
            for t in range(k):
                acc += int(act_codes[i, t]) * int(signs[j, t])
                colsum += int(signs[j, t])
            alpha = float(scales[0] if granularity == "layer" else scales[j])
            val = acc * (act_params.scale * alpha)
            if act_params.scheme == "minmax8":
                val = val + act_params.x_min * alpha * colsum
            out[i, j] = np.float32(val)
    return out


def float_reference(act, w) -> np.ndarray:
    """Dequantize the activation codes and the ternary weight in float64
    and multiply; float32 out, as the integer GEMM gives."""
    p = act.params
    a = act.codes.astype(np.float64) * p.scale
    if p.scheme == "minmax8":
        a = a + p.x_min
    scales = np.asarray(w.scales, dtype=np.float64).reshape(-1, 1)
    return (a @ (w.codes.astype(np.float64) * scales).T).astype(np.float32)


def fd_gradient(loss_fn, params: dict[str, np.ndarray], name: str,
                eps: float = 1e-4) -> np.ndarray:
    """Central differences of loss_fn(params) w.r.t. params[name]."""
    arr = params[name]
    grad = np.zeros(arr.size, dtype=np.float64)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn(params)
        flat[i] = orig - eps
        lo = loss_fn(params)
        flat[i] = orig
        grad[i] = (hi - lo) / (2 * eps)
    return grad.reshape(arr.shape)


def rel_norm_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Relative norm difference; the floor keeps numerically-zero pairs
    (true gradient 0, both sides at rounding level) from reading as 100%."""
    denom = max(np.linalg.norm(a) + np.linalg.norm(b), floor)
    return float(np.linalg.norm(a - b) / denom)
