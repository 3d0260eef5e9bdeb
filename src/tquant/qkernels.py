"""Exact GEMM between ternary weights and 8-bit activation codes.

The weight is stored transposed (out_features x in_features) so that row
scales fold into a per-output-column pass.  For activation codes c with
value c*s + x_min (min-max) or c*s (symmetric) and weight signs b with
value alpha*b, the product column j decomposes as

    out[:, j] = s * alpha_j * (C @ B^T)[:, j] + x_min * alpha_j * colsum_j

where colsum_j is the sign sum of weight row j, an int64 sum of its int8
codes.  C @ B^T is an integer product computed by float64 BLAS: a plan
admits only k * 255 <= 2^31 - 1, so every partial sum is an integer below
2^53, which float64 holds exactly.  The result is bit-identical to an
int32 or int64 accumulation.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import actquant
from .actquant import QuantizedActivation
from .packed import PackedTernaryBlob, unpack
from .ternarize import TernaryTensor, dequantize, twn_approx

INT32_MAX = 2**31 - 1


class PlanError(ValueError):
    """The requested GEMM has an unknown scheme or cannot be accumulated exactly."""


@dataclass(frozen=True)
class GemmPlan:
    m: int
    n: int
    k: int
    act_scheme: str = "minmax8"

    def __post_init__(self):
        if self.act_scheme not in actquant.SCHEMES:
            raise PlanError(f"unknown activation scheme {self.act_scheme!r}")
        peak = actquant.SCHEMES[self.act_scheme][1]
        if self.k * peak > INT32_MAX:
            raise PlanError(f"k={self.k} breaks the exactness bound "
                            f"k * {peak} <= 2^31 - 1")
        if min(self.m, self.n, self.k) < 0:
            raise PlanError("negative dimension")


def _ternary_weight(w) -> TernaryTensor:
    if isinstance(w, PackedTernaryBlob):
        w = unpack(w)
    if not isinstance(w, TernaryTensor) or w.max_level != 1:
        raise ValueError("ternary_gemm needs a ternary weight")
    try:
        w.validate()
    except ValueError as e:
        raise ValueError(f"ternary_gemm: {e}") from None
    return w


def ternary_gemm(act: QuantizedActivation, w) -> np.ndarray:
    """act (m x k) codes times stored-transposed ternary weight (n x k)."""
    w = _ternary_weight(w)
    if np.ndim(act.params.scale):
        raise ValueError("ternary_gemm needs activation codes over one range")
    m, k = act.codes.shape
    n, k2 = w.codes.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: act k={k}, weight k={k2}")
    GemmPlan(m=m, n=n, k=k, act_scheme=act.params.scheme)

    b = w.codes.astype(np.float64)
    acc = act.codes.astype(np.float64) @ b.T            # exact: see module doc
    alpha = np.broadcast_to(w.scales.astype(np.float64), (n,))
    s = act.params.scale
    out64 = acc * (s * alpha)
    if act.params.scheme == "minmax8":
        out64 = out64 + act.params.x_min * alpha * w.codes.sum(axis=1)
    return out64.astype(np.float32)


def float_reference(act: QuantizedActivation, w) -> np.ndarray:
    """Dequantize both operands and multiply in floating point."""
    a = actquant.dequantize(act).astype(np.float64)
    wd = dequantize(_ternary_weight(w)).astype(np.float64)
    return (a @ wd.T).astype(np.float32)


@dataclass
class BenchRecord:
    m: int
    n: int
    k: int
    repetitions: int
    ternary_ns_per_op: float
    float_ns_per_op: float
    bytes_touched: int

    def to_dict(self) -> dict:
        return {"kind": "gemm_bench", **asdict(self)}


def traffic_bytes(plan: GemmPlan) -> int:
    """Analytic memory-traffic estimate: codes + activations + output."""
    weight_bytes = (plan.n * plan.k + 3) // 4      # 2-bit packed
    act_bytes = plan.m * plan.k                    # one byte per code
    out_bytes = plan.m * plan.n * 4
    return weight_bytes + act_bytes + out_bytes


def bench_gemm(plan: GemmPlan, repetitions: int,
               rng: np.random.Generator | None = None) -> BenchRecord:
    """Time the ternary kernel against a float matmul; informational only."""
    if repetitions <= 0:
        return BenchRecord(plan.m, plan.n, plan.k, 0, 0.0, 0.0, 0)
    rng = rng or np.random.default_rng(0)
    x = rng.standard_normal((plan.m, plan.k)).astype(np.float32)
    act = actquant.quantize(x, plan.act_scheme)
    w = twn_approx(rng.standard_normal((plan.n, plan.k)).astype(np.float32), "layer")

    t0 = time.perf_counter_ns()
    for _ in range(repetitions):
        ternary_gemm(act, w)
    t1 = time.perf_counter_ns()
    xd = actquant.dequantize(act)
    wd = dequantize(w)
    t2 = time.perf_counter_ns()
    for _ in range(repetitions):
        np.matmul(xd, wd.T)
    t3 = time.perf_counter_ns()
    return BenchRecord(plan.m, plan.n, plan.k, repetitions,
                       (t1 - t0) / repetitions, (t3 - t2) / repetitions,
                       traffic_bytes(plan))
