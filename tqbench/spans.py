"""Span tracing for the traced benchmark pass, installed from outside tquant.

A :class:`Tracer` keeps spans in memory: name, start, end, parent span and
op id, plus a few counts taken at the same boundary (rows solved, bytes
written, FLOPs).  :func:`install` replaces each probed public function with
a timing wrapper under every name a caller looks it up by -- module
attributes such as ``train.forward`` as well as ``cli.load_model``, and
entries of module-level dicts such as ``cli.COMMANDS["eval"]`` -- and
returns the patches, which :func:`uninstall` reverts.  Nothing in the
library itself is modified; with the wrappers off the program runs as
shipped.

A span's self time is its duration minus the time its direct children
cover.  Calls run in one thread, so child spans nest properly inside
their parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import operator
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "op": s.op, **s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# probes: which public functions get a span, and what is counted there


def _shape(x) -> tuple[int, ...]:
    return np.shape(getattr(x, "data", x))


def _matmul_flop(args, result) -> dict:
    a, b = _shape(args["a"]), _shape(args["b"])
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return {"flop": 2 * int(np.prod(batch, dtype=np.int64)) * a[-2] * a[-1] * b[-1]}


def _tape_entries(args, result) -> dict:
    return {"entries": len(args["self"])}


def _rows(args, result) -> dict:
    shape = _shape(args["w"])
    return {"rows": shape[0] if args["granularity"] == "row" and len(shape) == 2 else 1}


def _bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _gemm_work(args, result) -> dict:
    from tquant import qkernels
    m, k = args["act"].codes.shape
    n = result.shape[1]
    plan = qkernels.GemmPlan(m=m, n=n, k=k)
    return {"flop": 2 * m * n * k, "bytes": qkernels.traffic_bytes(plan)}


def _lat_name(args) -> str:
    return "ternarize.lat_exact" if args["mode"] == "exact" else "ternarize.lat_approx"


@dataclass(frozen=True)
class Probe:
    module: str             # tquant submodule that defines the function
    attr: str               # attribute path inside it, e.g. "GradTape.gradients"
    span: str               # span name, or "" when ``name_of`` picks it
    counts: object = None   # f(bound args, result) -> dict of counts
    name_of: object = None  # f(bound args) -> span name


PROBES = (
    Probe("tensor", "matmul", "tensor.matmul", _matmul_flop),
    Probe("tensor", "GradTape.gradients", "tensor.GradTape.gradients", _tape_entries),
    Probe("tensor", "gelu", "tensor.gelu"),
    Probe("tensor", "layer_norm", "tensor.layer_norm"),
    Probe("tensor", "softmax_rows", "tensor.softmax_rows"),
    Probe("model", "forward", "model.forward"),
    Probe("model", "build_leaves", "model.build_leaves"),
    Probe("model", "params_from_loaded", "model.params_from_loaded"),
    Probe("ternarize", "twn_approx", "ternarize.twn_approx", _rows),
    Probe("ternarize", "twn_exact", "ternarize.twn_exact", _rows),
    Probe("ternarize", "lat_subproblem", "", _rows, _lat_name),
    Probe("ternarize", "laq3", "ternarize.laq3", _rows),
    Probe("ternarize", "quantize_int8", "ternarize.quantize_int8", _rows),
    Probe("ternarize", "dequantize", "ternarize.dequantize"),
    Probe("actquant", "fake_quantize", "actquant.fake_quantize"),
    Probe("actquant", "ste_backward", "actquant.ste_backward"),
    Probe("packed", "save_model", "packed.save_model", _bytes),
    Probe("packed", "load_model", "packed.load_model", _bytes),
    Probe("packed", "pack", "packed.pack"),
    Probe("packed", "pack_codes_2bit", "packed.pack_codes_2bit"),
    Probe("packed", "pack_codes_3bit", "packed.pack_codes_3bit"),
    Probe("packed", "unpack", "packed.unpack"),
    Probe("packed", "unpack_codes_2bit", "packed.unpack_codes_2bit"),
    Probe("packed", "unpack_codes_3bit", "packed.unpack_codes_3bit"),
    Probe("qkernels", "ternary_gemm", "qkernels.ternary_gemm", _gemm_work),
    Probe("train", "train_step", "train.train_step"),
    Probe("train", "loss_trm", "train.loss_trm"),
    Probe("train", "loss_pred", "train.loss_pred"),
    Probe("train", "cross_entropy", "train.cross_entropy"),
    Probe("train", "optimizer_step", "train.optimizer_step"),
    Probe("tasks", "load_dataset", "tasks.load_dataset"),
    Probe("cli", "main", "cli.main"),
    Probe("cli", "cmd_eval", "cli.cmd_eval"),
)


def _wrapper(tracer: Tracer, fn, probe: Probe):
    sig = inspect.signature(fn)
    needs_args = probe.counts is not None or probe.name_of is not None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = None
        if needs_args:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            bound = bound.arguments
        idx = tracer.begin(probe.name_of(bound) if probe.name_of else probe.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.end(idx)
        if probe.counts is not None:
            span.attrs.update(probe.counts(bound, result))
        return result

    return traced


def _tquant_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "tquant" or n.startswith("tquant."))]


def install(tracer: Tracer) -> list[tuple]:
    """Put a wrapper on every name each probed function is reachable by."""
    modules = _tquant_modules()
    patches = []   # (setter, target, key, original, wrapper)
    for probe in PROBES:
        owner = sys.modules[f"tquant.{probe.module}"]
        *path, leaf = probe.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = _wrapper(tracer, original, probe)
        if inspect.isclass(owner):
            patches.append((setattr, owner, leaf, original, wrapped))
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    patches.append((setattr, mod, name, original, wrapped))
                elif isinstance(value, dict):
                    patches.extend((operator.setitem, value, key, original, wrapped)
                                   for key, v in value.items() if v is original)
    for setter, target, key, _, wrapped in patches:
        setter(target, key, wrapped)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for setter, target, key, original, _ in reversed(patches):
        setter(target, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics from spans


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    kind: str               # "self" (self time), "calls", "sum" (a count) or "computed"
    spans: tuple[str, ...]
    attr: str = ""
    scale: float = 1.0


def _t(name, *spans):
    return LayerMetric(name, "ms", "self", spans)


TERNARIZERS = ("ternarize.twn_approx", "ternarize.twn_exact", "ternarize.lat_exact",
               "ternarize.lat_approx", "ternarize.laq3", "ternarize.quantize_int8")

LAYER_METRICS = (
    _t("tensor.matmul_ms", "tensor.matmul"),
    LayerMetric("tensor.matmul_calls", "count", "calls", ("tensor.matmul",)),
    LayerMetric("tensor.matmul_gflop", "GFLOP", "computed", ("tensor.matmul",),
                "flop", 1e-9),
    _t("tensor.backward_ms", "tensor.GradTape.gradients"),
    LayerMetric("tensor.tape_entries", "count", "sum",
                ("tensor.GradTape.gradients",), "entries"),
    _t("tensor.gelu_ms", "tensor.gelu"),
    _t("tensor.layer_norm_ms", "tensor.layer_norm"),
    _t("tensor.softmax_ms", "tensor.softmax_rows"),
    _t("model.forward_ms", "model.forward"),
    _t("model.build_leaves_ms", "model.build_leaves"),
    _t("model.params_from_loaded_ms", "model.params_from_loaded"),
    _t("ternarize.twn_approx_ms", "ternarize.twn_approx"),
    _t("ternarize.twn_exact_ms", "ternarize.twn_exact"),
    _t("ternarize.lat_exact_ms", "ternarize.lat_exact"),
    _t("ternarize.lat_approx_ms", "ternarize.lat_approx"),
    _t("ternarize.laq3_ms", "ternarize.laq3"),
    _t("ternarize.int8_ms", "ternarize.quantize_int8"),
    _t("ternarize.dequantize_ms", "ternarize.dequantize"),
    LayerMetric("ternarize.rows", "count", "sum", TERNARIZERS, "rows"),
    _t("actquant.fake_quant_ms", "actquant.fake_quantize"),
    LayerMetric("actquant.fake_quant_calls", "count", "calls",
                ("actquant.fake_quantize",)),
    _t("actquant.ste_backward_ms", "actquant.ste_backward"),
    _t("packed.save_ms", "packed.save_model"),
    _t("packed.load_ms", "packed.load_model"),
    _t("packed.pack_ms", "packed.pack", "packed.pack_codes_2bit", "packed.pack_codes_3bit"),
    _t("packed.unpack_ms", "packed.unpack", "packed.unpack_codes_2bit",
       "packed.unpack_codes_3bit"),
    LayerMetric("packed.bytes_written", "bytes", "sum", ("packed.save_model",), "bytes"),
    LayerMetric("packed.bytes_read", "bytes", "sum", ("packed.load_model",), "bytes"),
    _t("qkernels.gemm_ms", "qkernels.ternary_gemm"),
    LayerMetric("qkernels.gemm_calls", "count", "calls", ("qkernels.ternary_gemm",)),
    LayerMetric("qkernels.gemm_gop", "GOP", "computed", ("qkernels.ternary_gemm",),
                "flop", 1e-9),
    LayerMetric("qkernels.gemm_mb", "MB", "computed", ("qkernels.ternary_gemm",),
                "bytes", 1e-6),
    _t("train.loss_ms", "train.loss_trm", "train.loss_pred", "train.cross_entropy"),
    _t("train.optimizer_ms", "train.optimizer_step"),
    _t("train.train_step_self_ms", "train.train_step"),
    _t("tasks.load_dataset_ms", "tasks.load_dataset"),
    _t("cli.eval_self_ms", "cli.main", "cli.cmd_eval"),
)

# the op's own span; its self time is benchmark glue outside every probe
ROOT_SPAN = "bench.op"


def layer_values(tracer: Tracer, n_ops: int) -> tuple[dict, dict]:
    """Per-op value of every layer metric, plus calls per op of each metric."""
    self_times = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s.name, []).append(i)
    values, calls = {}, {}
    for m in LAYER_METRICS:
        idx = [i for name in m.spans for i in by_name.get(name, ())]
        calls[m.name] = len(idx) / n_ops
        if m.kind == "self":
            total = 1e3 * sum(self_times[i] for i in idx)
        elif m.kind == "calls":
            total = len(idx)
        else:
            total = m.scale * sum(tracer.spans[i].attrs.get(m.attr, 0) for i in idx)
        values[m.name] = total / n_ops
    values["bench.glue_ms"] = 1e3 * sum(self_times[i] for i in by_name.get(ROOT_SPAN, ())) / n_ops
    return values, calls


def format_table(workload: str, values: dict, calls: dict, op_ms: float,
                 overhead_pct: float, n_ops: int) -> str:
    lines = [f"per-layer breakdown, {workload}: {n_ops} traced op(s), "
             f"{op_ms:.1f} ms per traced op, tracing overhead {overhead_pct:+.1f}%",
             f"  {'self time':32s} {'ms/op':>11s} {'calls/op':>10s} {'share':>7s}"]
    for m in LAYER_METRICS:
        if m.kind == "self":
            lines.append(f"  {m.name:32s} {values[m.name]:11.3f} {calls[m.name]:10.1f} "
                         f"{100 * values[m.name] / op_ms:6.1f}%")
    glue = values["bench.glue_ms"]
    lines.append(f"  {'(benchmark glue, no probe)':32s} {glue:11.3f} {'':10s} "
                 f"{100 * glue / op_ms:6.1f}%")
    lines.append(f"  {'counts':32s} {'per op':>11s} {'unit':>10s}")
    for m in LAYER_METRICS:
        if m.kind != "self":
            tag = " (computed)" if m.kind == "computed" else ""
            lines.append(f"  {(m.name + tag):32s} {values[m.name]:11.4g} {m.unit:>10s}")
    return "\n".join(lines)
