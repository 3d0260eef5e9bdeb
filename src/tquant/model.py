"""Desk-scale BERT-style encoder with pluggable quantization.

The forward pass follows the standard pre-LN-free encoder:

    A_h   = (H W_h^Q)(H W_h^K)^T           (raw scores of every head, traced)
    head  = Softmax(A_h / sqrt(d)) H W_h^V
    X     = LN(H + Concat(heads) W^O)
    H'    = LN(X + GeLU(X W^1 + b^1) W^2 + b^2)

with the score normalization 1/sqrt(d) by default (a config switch selects
the conventional 1/sqrt(d_head)).  Under a quantization plan, the six
transformer weight matrices and the word embedding are replaced by
dequantized low-bit codes, and the inputs of every linear layer plus both
operands of the two attention matmuls pass through 8-bit fake
quantization.  Softmax, layer norm, biases, segment/position embeddings
and the task head stay in full precision.

Weight matrices are stored transposed, (out_features, in_features), so
row granularity means one scale per output feature, and the word
embedding keeps one scale per vocabulary row.  Every dense layer (the six
transformer linears and the task head) is one :func:`tensor.linear` tape
entry.  Under an 8-bit plan, W^O, W^1 and W^2, whose inputs feed nothing
else, each take their fake-quant into that entry through
:func:`actquant.fake_quant_linear`, which keeps the input's 8-bit codes on
the tape.  The fake-quantized layer input ``h_q`` stays a separate op,
since Q, K and V all read it: fusing each would sum its gradient in
another order.  Each layer runs as an attention block and an FFN block,
so the intermediates that no backward reads are freed as each block
returns.

Size accounting (:func:`size_report`) mirrors the published model-size
arithmetic: quantized transformer weights and word embedding count
``bits`` per element plus 32 bits per scale; segment/position embeddings,
biases and layer-norm parameters stay at 32 bits.  Reported megabytes are
MiB, and the task head is excluded unless asked for, which is the
convention under which a full-precision BERT-base comes out at ~418 MB and
the 2-2-8 plan at ~28 MB (14.9x).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import actquant, ternarize
from . import tensor as T
from .packed import (CODE_WIDTHS, LoadedModel, ManifestError, SavedTensor, load_model,
                     save_model, scale_count)
from .tensor import ShapeError, Tensor

WEIGHT_BITS = (*CODE_WIDTHS, 32)
ACT_BITS = (8, 32)


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    hidden: int
    heads: int
    ffn: int
    vocab: int
    segments: int = 2
    max_positions: int = 64
    classes: int = 2
    dropout: float = 0.1
    attn_scale: str = "sqrt_d"      # paper form; "sqrt_dh" for the usual variant

    def __post_init__(self):
        for f in ("layers", "hidden", "heads", "ffn", "vocab", "segments",
                  "max_positions", "classes"):
            value, least = getattr(self, f), 0 if f == "layers" else 1
            if type(value) is not int or value < least:
                raise ValueError(f"{f} must be an integer >= {least}, got {value!r}")
        if type(self.dropout) not in (int, float) or not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be a number in [0, 1), got {self.dropout!r}")
        if self.hidden % self.heads != 0:
            raise ValueError("hidden size must be divisible by head count")
        if self.attn_scale not in ("sqrt_d", "sqrt_dh"):
            raise ValueError("attn_scale must be sqrt_d or sqrt_dh")

    @property
    def d_head(self) -> int:
        return self.hidden // self.heads

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return _from_fields(ModelConfig, d)


def _from_fields(cls, d):
    """``cls(**d)`` for a dict that names every field of ``cls`` and no other key."""
    names = [f.name for f in fields(cls)]
    if not isinstance(d, dict) or d.keys() != set(names):
        raise ValueError(f"a {cls.__name__} record needs exactly the keys {names}, "
                         f"got {list(d) if isinstance(d, dict) else d!r}")
    return cls(**d)


def bert_base_config(classes: int = 2) -> ModelConfig:
    return ModelConfig(layers=12, hidden=768, heads=12, ffn=3072, vocab=30522,
                       segments=2, max_positions=512, classes=classes)


def _method_for_bits(bits: int, requested: str) -> str:
    """The requested method if its codes have width ``bits``, else the
    width's only method.  A recorded 32-bit slot names ``"none"``."""
    if bits == 32 and requested == "none":
        return requested
    if not isinstance(requested, str) or requested not in ternarize.METHODS:
        raise ValueError(f"unknown weight method {requested!r}")
    if bits == 32:
        return "none"
    fits = [m for m, (width, _) in ternarize.METHODS.items() if width == bits]
    if requested in fits:
        return requested
    if len(fits) == 1:
        return fits[0]
    raise ValueError(f"{bits}-bit weights need one of {fits}, got {requested!r}")


@dataclass(frozen=True)
class QuantPlan:
    """A W-E-A bit plan plus method/granularity choices, checked once when built."""

    w_bits: int = 2
    e_bits: int = 2
    a_bits: int = 8
    w_method: str = "twn_approx"
    e_method: str = "twn_approx"
    w_gran: str | None = None       # None: layer
    e_gran: str | None = None       # None: row, or layer when 8-bit
    act_scheme: str = "minmax8"

    def __post_init__(self):
        if self.w_bits not in WEIGHT_BITS or self.e_bits not in WEIGHT_BITS:
            raise ValueError(f"weight/embedding bits must be in {WEIGHT_BITS}")
        if self.a_bits not in ACT_BITS:
            raise ValueError(f"activation bits must be in {ACT_BITS}")
        if self.act_scheme not in actquant.SCHEMES:
            raise ValueError(f"unknown activation scheme {self.act_scheme!r}")
        object.__setattr__(self, "w_method", _method_for_bits(self.w_bits, self.w_method))
        object.__setattr__(self, "e_method", _method_for_bits(self.e_bits, self.e_method))
        if self.w_gran is None:
            object.__setattr__(self, "w_gran", "layer")
        if self.e_gran is None:
            object.__setattr__(self, "e_gran", "layer" if self.e_bits == 8 else "row")
        for bits, gran, what in ((self.w_bits, self.w_gran, "weights"),
                                 (self.e_bits, self.e_gran, "embedding")):
            if gran not in ternarize.GRANULARITIES:
                raise ValueError(f"unknown granularity {gran!r}")
            if bits == 8 and gran != "layer":
                raise ValueError(f"8-bit {what} use layer-wise scaling only")

    @property
    def notation(self) -> str:
        return f"{self.w_bits}-{self.e_bits}-{self.a_bits}"

    @property
    def quantizes_activations(self) -> bool:
        return self.a_bits < 32

    def slot(self, slot: str) -> tuple[int, str, str]:
        """(bits, method, granularity) of the 'w' or the 'e' slot."""
        if slot == "w":
            return self.w_bits, self.w_method, self.w_gran
        return self.e_bits, self.e_method, self.e_gran

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "QuantPlan":
        # older files also record the solver constants lat_iters and v_floor
        if isinstance(d, dict):
            d = {k: v for k, v in d.items() if k not in ("lat_iters", "v_floor")}
        return _from_fields(QuantPlan, d)


METHOD_ALIASES = {"twn": "twn_approx", "twn-exact": "twn_exact",
                  "lat": "lat_approx", "lat-exact": "lat_exact", "laq3": "laq3"}
ACT_ALIASES = {"minmax": "minmax8", "sym": "symmetric8"}


def plan_from_notation(notation: str, method: str = "twn",
                       w_gran: str | None = None, e_gran: str | None = None,
                       act: str = "minmax") -> QuantPlan:
    """Parse a Table-1 style ``W-E-A`` triple like ``2-2-8``; a granularity
    left as None takes the :class:`QuantPlan` default."""
    parts = notation.split("-")
    if len(parts) != 3:
        raise ValueError(f"plan must look like W-E-A, got {notation!r}")
    try:
        w, e, a = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"plan bits must be integers, got {notation!r}") from exc
    resolved = METHOD_ALIASES.get(method, method)
    return QuantPlan(w_bits=w, e_bits=e, a_bits=a,
                     w_method=resolved, e_method=resolved,
                     w_gran=w_gran, e_gran=e_gran, act_scheme=ACT_ALIASES.get(act, act))


NOOP_PLAN = QuantPlan(w_bits=32, e_bits=32, a_bits=32)


# ---------------------------------------------------------------------------
# parameters


def layer_prefix(i: int) -> str:
    return f"layer{i}"


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, dff = config.hidden, config.ffn
    shapes: dict[str, tuple[int, ...]] = {
        "emb.word": (config.vocab, d),
        "emb.seg": (config.segments, d),
        "emb.pos": (config.max_positions, d),
        "emb.ln_g": (d,),
        "emb.ln_b": (d,),
        "head.w": (config.classes, d),
        "head.b": (config.classes,),
    }
    for i in range(config.layers):
        p = layer_prefix(i)
        shapes.update({
            f"{p}.wq": (d, d), f"{p}.wk": (d, d), f"{p}.wv": (d, d),
            f"{p}.wo": (d, d), f"{p}.w1": (dff, d), f"{p}.w2": (d, dff),
            f"{p}.bq": (d,), f"{p}.bk": (d,), f"{p}.bv": (d,),
            f"{p}.bo": (d,), f"{p}.b1": (dff,), f"{p}.b2": (d,),
            f"{p}.ln1_g": (d,), f"{p}.ln1_b": (d,),
            f"{p}.ln2_g": (d,), f"{p}.ln2_b": (d,),
        })
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator,
                std: float = 0.02) -> dict[str, np.ndarray]:
    params = {}
    for name, shape in param_shapes(config).items():
        leaf = name.split(".")[-1]
        if leaf.endswith("_g"):
            params[name] = np.ones(shape, dtype=np.float32)
        elif leaf.startswith("b") or leaf.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            params[name] = (rng.standard_normal(shape) * std).astype(np.float32)
    return params


def quant_slot(name: str) -> str | None:
    """Which plan slot covers a parameter: 'w', 'e', or None."""
    if name == "emb.word":
        return "e"
    leaf = name.split(".")[-1]
    if name.startswith("layer") and leaf in ("wq", "wk", "wv", "wo", "w1", "w2"):
        return "w"
    return None


# a parameter's role by its plan slot, else by its name
_ROLES = {"w": "transformer_weight", "e": "word_embedding",
          "emb.seg": "segment_embedding", "emb.pos": "position_embedding"}


def tensor_format(name: str, plan: QuantPlan | None) -> tuple[str, int, str, str]:
    """(role, bits, method, granularity) of parameter ``name`` in a model
    coded under ``plan``: the four fields its ``.tqm`` record carries.  A
    tensor that stays fp32 is ``(role, 32, "none", "layer")``."""
    slot = quant_slot(name)
    role = _ROLES.get(slot) or _ROLES.get(
        name, "task_head" if name.startswith("head.") else "other")
    if slot is None or plan is None or plan.slot(slot)[0] == 32:
        return role, 32, "none", "layer"
    return (role, *plan.slot(slot))


def quantize_param(name: str, value: np.ndarray, plan: QuantPlan | None,
                   second_moment: np.ndarray | None = None):
    """Quantize one parameter as :func:`tensor_format` says; None if it
    stays fp32."""
    _, bits, method, gran = tensor_format(name, plan)
    if bits == 32:
        return None
    # without optimizer history, loss-aware methods see zero second moments
    # (the floor then makes the curvature uniform); a broadcast view of one
    # zero allocates nothing for the methods that never read v
    v = np.broadcast_to(0.0, value.shape) if second_moment is None else second_moment
    return ternarize.quantize(value, method, gran, v)


def build_leaves(params: dict[str, np.ndarray], plan: QuantPlan | None = None,
                 second_moments: dict[str, np.ndarray] | None = None,
                 trainable: bool = True):
    """Per-parameter tape leaves; quantized slots get dequantized codes.

    Returns (leaves, qinfo) where qinfo maps quantized names to their
    TernaryTensor.  Gradients land on the dequantized leaf (the quantized
    weight), which the optimizer then applies to the full-precision shadow.
    """
    leaves: dict[str, Tensor] = {}
    qinfo: dict[str, ternarize.TernaryTensor] = {}
    for name, value in params.items():
        v = second_moments.get(name) if second_moments else None
        q = quantize_param(name, value, plan, v)
        if q is None:
            leaves[name] = Tensor(value, requires_grad=trainable, name=name)
        else:
            qinfo[name] = q
            leaves[name] = Tensor(ternarize.dequantize(q),
                                  requires_grad=trainable, name=name)
    return leaves, qinfo


# ---------------------------------------------------------------------------
# size accounting


@dataclass
class SizeCategory:
    name: str
    elements: int
    bits: int


@dataclass
class SizeReport:
    categories: list[SizeCategory]
    total_bits: int
    fp32_bits: int

    @property
    def total_mb(self) -> float:
        return self.total_bits / 8 / 2**20

    @property
    def fp32_mb(self) -> float:
        return self.fp32_bits / 8 / 2**20

    @property
    def compression_ratio(self) -> float:
        return self.fp32_bits / self.total_bits

    def __str__(self) -> str:
        lines = [f"{'category':24s} {'elements':>12s} {'bits':>14s} {'MiB':>8s}"]
        for c in self.categories:
            lines.append(f"{c.name:24s} {c.elements:12d} {c.bits:14d} "
                         f"{c.bits / 8 / 2**20:8.2f}")
        lines.append(f"{'total':24s} {'':12s} {self.total_bits:14d} {self.total_mb:8.2f}")
        lines.append(f"fp32 reference: {self.fp32_mb:.2f} MiB   "
                     f"ratio: {self.compression_ratio:.1f}x")
        return "\n".join(lines)


def size_report(config: ModelConfig, plan: QuantPlan | None,
                include_task_head: bool = False) -> SizeReport:
    """Bit counts for ``config`` coded under ``plan``: every tensor at the
    bits :func:`tensor_format` gives it, plus 32 bits per scale.  The task
    head counts only when ``include_task_head`` is set."""
    names = ["transformer_weights", "word_embedding", "segment_embedding",
             "position_embedding", "biases", "layernorm"]
    cats = {n: SizeCategory(n, 0, 0)
            for n in names + (["task_head"] if include_task_head else [])}
    for name, shape in param_shapes(config).items():
        role, bits, _, gran = tensor_format(name, plan)
        if role == "other":
            role = "layernorm" if ".ln" in name else "biases"
        # roles name their size category, but for the plural of the weights
        cat = cats.get("transformer_weights" if role == "transformer_weight" else role)
        if cat is not None:
            cat.elements += math.prod(shape)
            cat.bits += math.prod(shape) * bits + 32 * scale_count(bits, gran, shape)
    total = sum(c.bits for c in cats.values())
    fp32 = sum(c.elements for c in cats.values()) * 32
    return SizeReport(categories=list(cats.values()), total_bits=total, fp32_bits=fp32)


# ---------------------------------------------------------------------------
# forward


@dataclass
class ForwardTrace:
    hidden: list[Tensor]      # H_1 .. H_{L+1}, each (batch, n, d)
    attention: list[Tensor]   # per layer, heads stacked on axis 0: (heads*batch, n, n)
    logits: Tensor            # (batch, classes)


def _maybe_fq(x: Tensor, plan: QuantPlan | None, groups: int = 1) -> Tensor:
    if plan is not None and plan.quantizes_activations:
        return actquant.fake_quantize(x, plan.act_scheme, groups)
    return x


def _dense(x: Tensor, leaves: dict[str, Tensor], w: str, b: str,
           plan: QuantPlan | None) -> Tensor:
    """The linear layer ``w``, ``b`` over ``x`` fake-quantized under ``plan``,
    for an ``x`` that feeds no other op: one tape entry that keeps x's
    8-bit codes (:func:`actquant.fake_quant_linear`)."""
    if plan is not None and plan.quantizes_activations:
        return actquant.fake_quant_linear(x, plan.act_scheme, leaves[w], leaves[b])
    return T.linear(x, leaves[w], leaves[b])


def attention_scores(leaves: dict[str, Tensor], config: ModelConfig, layer: int,
                     h_q: Tensor, plan: QuantPlan | None = None) -> Tensor:
    """Raw scores ``Q·Kᵀ`` of every head of ``layer``, ``(heads*batch, n, n)``,
    from that layer's input ``h_q`` (already fake-quantized under ``plan``,
    of which only the activation fields are read).  :func:`forward` computes
    its scores here, so scores recomputed from a stored hidden state carry
    the same bits."""
    p = layer_prefix(layer)
    q = T.linear(h_q, leaves[f"{p}.wq"], leaves[f"{p}.bq"])
    k = T.linear(h_q, leaves[f"{p}.wk"], leaves[f"{p}.bk"])
    q, k = (T.split_heads(_maybe_fq(t, plan), config.heads) for t in (q, k))
    return T.matmul(q, T.transpose_last2(k))


def _attention_block(leaves: dict[str, Tensor], config: ModelConfig, layer: int,
                     h: Tensor, plan: QuantPlan | None, drop) -> tuple[Tensor, Tensor]:
    """Layer ``layer``'s raw scores and ``X = LN(H + MHA(H))``; the block's
    other intermediates are dropped on return, unless a backward reads them."""
    p = layer_prefix(layer)
    heads = config.heads
    scale = 1.0 / math.sqrt(config.hidden if config.attn_scale == "sqrt_d"
                            else config.d_head)
    h_q = _maybe_fq(h, plan)
    scores = attention_scores(leaves, config, layer, h_q, plan)
    v = _maybe_fq(T.linear(h_q, leaves[f"{p}.wv"], leaves[f"{p}.bv"]), plan)
    v = T.split_heads(v, heads)
    probs = drop(T.softmax_rows(T.scale(scores, scale)))
    probs = _maybe_fq(probs, plan, groups=heads)   # one range per head
    ctx = T.merge_heads(T.matmul(probs, v), heads)
    attn_out = drop(_dense(ctx, leaves, f"{p}.wo", f"{p}.bo", plan))
    return scores, T.layer_norm(h + attn_out, leaves[f"{p}.ln1_g"], leaves[f"{p}.ln1_b"])


def _ffn_block(leaves: dict[str, Tensor], layer: int, x: Tensor,
               plan: QuantPlan | None, drop) -> Tensor:
    """``H' = LN(X + FFN(X))`` of layer ``layer``."""
    p = layer_prefix(layer)
    inner = T.gelu(_dense(x, leaves, f"{p}.w1", f"{p}.b1", plan))
    ffn_out = drop(_dense(inner, leaves, f"{p}.w2", f"{p}.b2", plan))
    return T.layer_norm(x + ffn_out, leaves[f"{p}.ln2_g"], leaves[f"{p}.ln2_b"])


def forward(leaves: dict[str, Tensor], config: ModelConfig,
            tokens: np.ndarray, segments: np.ndarray,
            plan: QuantPlan | None = None, train: bool = False,
            rng: np.random.Generator | None = None) -> ForwardTrace:
    """The encoder over ``leaves``, which hold every weight as it is used:
    :func:`build_leaves` or :func:`load_checkpoint` has decoded the coded
    slots already.  Of ``plan`` only ``a_bits`` and ``act_scheme`` are
    read, so a checkpoint's recorded plan runs its decoded params as
    trained."""
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

    emb = T.gather_rows(leaves["emb.word"], tokens) \
        + T.gather_rows(leaves["emb.seg"], segments) \
        + T.narrow(leaves["emb.pos"], 0, 0, n)
    h = drop(T.layer_norm(emb, leaves["emb.ln_g"], leaves["emb.ln_b"]))

    hidden = [h]
    attention = []
    for i in range(config.layers):
        scores, x = _attention_block(leaves, config, i, h, plan, drop)
        attention.append(scores)
        h = _ffn_block(leaves, i, x, plan, drop)
        hidden.append(h)

    first = T.reshape(T.narrow(h, 1, 0, 1), (batch, config.hidden))
    logits = T.linear(first, leaves["head.w"], leaves["head.b"])
    return ForwardTrace(hidden=hidden, attention=attention, logits=logits)


# ---------------------------------------------------------------------------
# persistence


def to_saved_tensors(params: dict[str, np.ndarray], plan: QuantPlan | None = None,
                     second_moments: dict[str, np.ndarray] | None = None
                     ) -> list[SavedTensor]:
    out = []
    for name in sorted(params):
        v = second_moments.get(name) if second_moments else None
        q = quantize_param(name, params[name], plan, v)
        out.append(SavedTensor(name, *tensor_format(name, plan),
                               array=params[name] if q is None else None, quant=q))
    return out


def params_from_loaded(loaded_tensors: dict[str, SavedTensor], config: ModelConfig
                       ) -> tuple[dict[str, np.ndarray], dict]:
    """Dequantized parameter arrays plus the quantized originals by name.

    The tensors must be exactly those of ``param_shapes(config)``, each
    stored in its own shape, as :func:`load_checkpoint` checks first.
    """
    params = {}
    qinfo = {}
    for name in param_shapes(config):
        t = loaded_tensors[name]
        if t.quant is None:
            params[name] = t.array
        else:
            qinfo[name] = t.quant
            params[name] = ternarize.dequantize(t.quant)
    return params, qinfo


def _check_records(tensors, config, plan, error) -> None:
    """Raise ``error`` at the first of the ``SavedTensor``s whose role, bits,
    method, granularity and shape are not what ``tensor_format`` and
    ``param_shapes`` give it in a model of ``config`` under ``plan``; None
    is no tensor."""
    want = {name: (*tensor_format(name, plan), shape)
            for name, shape in param_shapes(config).items()}
    have = {t.name: (t.role, t.bits, t.method, t.granularity, t.shape) for t in tensors}
    for name in sorted(want.keys() | have.keys()):
        if have.get(name) != want.get(name):
            raise error(f"{name}: stored as {have.get(name)}, but the config under "
                        f"plan {plan and plan.notation} needs {want.get(name)}")


def save_checkpoint(path, config: ModelConfig, params: dict[str, np.ndarray],
                    plan: QuantPlan | None = None,
                    second_moments: dict[str, np.ndarray] | None = None,
                    extras: dict | None = None) -> None:
    """Write a ``.tqm`` of ``params`` coded under ``plan``; the extras record
    the plan, which :func:`load_checkpoint` returns.  Params that are not
    the model of ``config`` raise ``ValueError`` before anything is
    written."""
    tensors = to_saved_tensors(params, plan, second_moments)
    _check_records(tensors, config, plan, ValueError)
    extras = dict(extras or {})
    if plan is not None:
        extras["plan"] = plan.to_dict()
    save_model(str(path), config.to_dict(), tensors, extras)


@dataclass
class Checkpoint:
    """A model file as :func:`load_checkpoint` reads it.  ``plan`` is the
    plan the file records (None for a file that records none), so saving
    ``config``, ``params``, ``plan`` and ``file.extras`` again writes the
    same bytes, except that a ``laq3`` scale may move by one ulp.  The
    params are decoded already: :func:`forward` reads only the plan's
    activation fields, and leaves built from them take no weight plan."""

    config: ModelConfig
    params: dict[str, np.ndarray]       # dequantized, float32
    qinfo: dict[str, ternarize.TernaryTensor]
    plan: QuantPlan | None
    file: LoadedModel


def load_checkpoint(path) -> Checkpoint:
    """Read a ``.tqm`` written by :func:`save_checkpoint`.  A config, tensor
    set or recorded plan that does not describe one model raises
    ``ManifestError``: every tensor must be stored as :func:`tensor_format`
    codes it under the recorded plan, or as fp32 if the file records none."""
    file = load_model(str(path))
    stored = file.extras.get("plan")
    try:
        config = ModelConfig.from_dict(file.config)
        plan = None if stored is None else QuantPlan.from_dict(stored)
    except ValueError as e:
        raise ManifestError(f"{path}: {e}") from e
    _check_records(file.tensors.values(), config, plan, ManifestError)
    params, qinfo = params_from_loaded(file.tensors, config)
    return Checkpoint(config, params, qinfo, plan, file)
