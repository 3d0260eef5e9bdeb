"""Frozen copy of the encoder forward pass as it stood before attention
ran all heads in one batch.

``forward`` below is verbatim: it loops over the heads, slices q/k/v with
``narrow``, gives each head's attention probabilities their own
per-tensor fake-quant range and one dropout draw, and joins the heads
with ``concat``.  ``concat`` and the per-tensor activation fake-quant
are frozen here too, since the package no longer has them in this form.
The differential tests in ``test_model.py`` hold ``tquant.model.forward``
to these outputs bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from tquant import tensor as T
from tquant.actquant import ActQuantParams, QuantizedActivation, round_half_away
from tquant.model import ForwardTrace, layer_prefix
from tquant.tensor import ShapeError, Tensor


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ts = tuple(tensors)
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]

    def backward(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        return tuple(pieces)

    return T.custom_op(ts, out, backward)


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


def _maybe_fq(x: Tensor, plan) -> Tensor:
    if plan is not None and plan.quantizes_activations:
        return fake_quantize(x, plan.act_scheme)[0]
    return x


def _linear(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    out = T.matmul(x, T.transpose_last2(w))
    if b is not None:
        out = out + b
    return out


def forward(leaves: dict[str, Tensor], config,
            tokens: np.ndarray, segments: np.ndarray,
            plan=None, train: bool = False,
            rng: np.random.Generator | None = None) -> ForwardTrace:
    tokens = np.asarray(tokens)
    segments = np.asarray(segments)
    if tokens.ndim != 2 or tokens.shape != segments.shape:
        raise ShapeError("tokens/segments must be matching (batch, n) arrays")
    batch, n = tokens.shape
    if n > config.max_positions:
        raise ShapeError(f"sequence length {n} exceeds {config.max_positions}")
    if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= config.vocab:
        raise ShapeError("token id out of range")
    if segments.min(initial=0) < 0 or segments.max(initial=0) >= config.segments:
        raise ShapeError("segment id out of range")
    p_drop = config.dropout if train else 0.0
    if p_drop > 0 and rng is None:
        raise ValueError("training-mode forward needs an rng for dropout")

    def drop(x: Tensor) -> Tensor:
        return T.dropout(x, p_drop, rng) if p_drop > 0 else x

    pos = np.broadcast_to(np.arange(n), (batch, n))
    emb = T.gather_rows(leaves["emb.word"], tokens) \
        + T.gather_rows(leaves["emb.seg"], segments) \
        + T.gather_rows(leaves["emb.pos"], pos)
    h = drop(T.layer_norm(emb, leaves["emb.ln_g"], leaves["emb.ln_b"]))

    scale = 1.0 / math.sqrt(config.hidden if config.attn_scale == "sqrt_d"
                            else config.d_head)
    dh = config.d_head
    hidden = [h]
    attention = []
    for i in range(config.layers):
        p = layer_prefix(i)
        h_q = _maybe_fq(h, plan)
        q = _linear(h_q, leaves[f"{p}.wq"], leaves[f"{p}.bq"])
        k = _linear(h_q, leaves[f"{p}.wk"], leaves[f"{p}.bk"])
        v = _linear(h_q, leaves[f"{p}.wv"], leaves[f"{p}.bv"])
        q, k, v = _maybe_fq(q, plan), _maybe_fq(k, plan), _maybe_fq(v, plan)
        head_outs = []
        scores = []
        for hh in range(config.heads):
            q_h = T.narrow(q, 2, hh * dh, dh)
            k_h = T.narrow(k, 2, hh * dh, dh)
            v_h = T.narrow(v, 2, hh * dh, dh)
            a_h = T.matmul(q_h, T.transpose_last2(k_h))   # raw scores, traced
            scores.append(a_h)
            probs = T.softmax_rows(T.scale(a_h, scale))
            probs = drop(probs)
            head_outs.append(T.matmul(_maybe_fq(probs, plan), v_h))
        attention.append(concat(scores, axis=0) if len(scores) > 1 else scores[0])
        ctx = concat(head_outs, axis=2) if len(head_outs) > 1 else head_outs[0]
        attn_out = drop(_linear(_maybe_fq(ctx, plan), leaves[f"{p}.wo"],
                                leaves[f"{p}.bo"]))
        x = T.layer_norm(h + attn_out, leaves[f"{p}.ln1_g"], leaves[f"{p}.ln1_b"])
        inner = T.gelu(_linear(_maybe_fq(x, plan), leaves[f"{p}.w1"],
                               leaves[f"{p}.b1"]))
        ffn_out = drop(_linear(_maybe_fq(inner, plan), leaves[f"{p}.w2"],
                               leaves[f"{p}.b2"]))
        h = T.layer_norm(x + ffn_out, leaves[f"{p}.ln2_g"], leaves[f"{p}.ln2_b"])
        hidden.append(h)

    first = T.reshape(T.narrow(h, 1, 0, 1), (batch, config.hidden))
    logits = _linear(first, leaves["head.w"], leaves["head.b"])
    return ForwardTrace(hidden=hidden, attention=attention, logits=logits)
