"""Distillation-aware ternarization: losses, optimizer, training loop.

Each step re-derives the quantized student from its full-precision shadow
weights, runs the quantized student forward, and applies the gradient of
the distillation loss (taken with respect to the quantized weights) to
the shadows:

    1. ternarize shadow w^t  (loss-aware modes read the optimizer's
       current second moment v^t)
    2. forward student (quantized, dropout on); teacher targets come
       from the store (:class:`TeacherTargets`), computed once per
       distinct example by a full-precision, dropout-off forward
    3. L = L_trm + L_pred, per stage and ablation flags
    4. backprop to the dequantized weight leaves
    5. shadow update by the Adam variant below; learning rate decays
       linearly to zero

The optimizer keeps moments decayed by ``BETA1``/``BETA2`` without bias
correction and applies decoupled weight decay, except to biases and
layer-norm parameters, inside the learning-rate multiplier:
``w -= lr * (m / (sqrt(v) + EPS) + WEIGHT_DECAY * w)``.

Losses: L_trm sums MSE over the embedding output and every layer output
plus MSE over raw attention scores of all heads; L_pred is the soft
cross-entropy between student and teacher logits.  With both disabled,
training falls back to ground-truth cross-entropy and never touches the
teacher.  With two stages the first ``total_steps // 2`` steps train on
L_trm alone: the stage follows the step, in any :func:`train_step` loop.
A :class:`TrainState` and each setting it holds check themselves whenever
they are built, by ``create`` or by ``dataclasses.replace``, and are frozen.
:func:`training_steps` yields each step's record as the step ends and
opens no file; :func:`run_training` lists them.  A run schedules a copy
sharing params, moments, rng and store, leaves the caller's ``opt_cfg``
as given, and decays over the state's earlier steps and its own.

The teacher is frozen, so its hidden states and logits for an example
never change: the store keeps them, ``(L+1)*n*d + classes`` float32
values per distinct example, and recomputes only the attention scores
from the stored hidden states on each lookup.  The store serves training
only: :func:`eval_loss_trm` runs the teacher's forward on its probe batch
itself.  The teacher's parameter arrays must not be mutated while a
:class:`TrainState` holds them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .model import (ForwardTrace, ModelConfig, QuantPlan, attention_scores, build_leaves,
                    forward, init_params, param_shapes)
from .tasks import Example, as_arrays
from .tensor import GradTape, Tensor


class TrainingDiverged(ArithmeticError):
    """The loss or the logits went non-finite; a training step's message
    names the first bad tensor."""


@dataclass(frozen=True)
class DistillLossConfig:
    """The losses a run trains on, and its stages: with two, the first half
    of the steps trains on ``L_trm`` alone."""

    use_trm: bool = True
    use_logits: bool = True
    stages: int = 1

    def __post_init__(self):
        if type(self.use_trm) is not bool or type(self.use_logits) is not bool:
            raise ValueError(f"use_trm and use_logits must be bools, "
                             f"got {self.use_trm!r} and {self.use_logits!r}")
        if type(self.stages) is not int or self.stages not in (1, 2):
            raise ValueError(f"stages must be 1 or 2, got {self.stages!r}")
        if self.stages == 2 and not self.use_trm:
            raise ValueError("two-stage training needs the transformer loss enabled")


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-6
WEIGHT_DECAY = 0.01


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    total_steps: int = 1000

    def __post_init__(self):
        if type(self.lr) not in (int, float) or not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be a finite number >= 0, got {self.lr!r}")
        if type(self.total_steps) is not int or self.total_steps < 1:
            raise ValueError(f"total_steps must be an integer >= 1, "
                             f"got {self.total_steps!r}")


def decay_excluded(name: str) -> bool:
    leaf = name.split(".")[-1]
    return leaf.startswith("b") or leaf.endswith("_g") or leaf.endswith("_b")


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @staticmethod
    def initial(params: dict[str, np.ndarray]) -> "OptimizerState":
        return OptimizerState(m={k: np.zeros_like(p) for k, p in params.items()},
                              v={k: np.zeros_like(p) for k, p in params.items()})


def learning_rate(cfg: OptimizerConfig, step: int) -> float:
    return cfg.lr * max(0.0, 1.0 - step / cfg.total_steps)


def optimizer_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                   state: OptimizerState, cfg: OptimizerConfig) -> tuple[float, float]:
    """Apply one update; returns (lr used, norm of the total weight change)."""
    lr = learning_rate(cfg, state.step)
    delta_sq = 0.0
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = m / (np.sqrt(v) + EPS)
        if not decay_excluded(name):
            update = update + WEIGHT_DECAY * params[name]
        step = (lr * update).astype(params[name].dtype)
        params[name] -= step
        delta_sq += float((step.astype(np.float64) ** 2).sum())
    state.step += 1
    return lr, float(np.sqrt(delta_sq))


# ---------------------------------------------------------------------------
# losses


def loss_trm(student: ForwardTrace, teacher: ForwardTrace) -> Tensor:
    if len(student.hidden) != len(teacher.hidden) or \
            len(student.attention) != len(teacher.attention):
        raise T.ShapeError("student/teacher traces have different depths")
    total = None
    for s, t in zip(student.hidden + student.attention,
                    teacher.hidden + teacher.attention):
        if s.shape != t.shape:
            raise T.ShapeError(f"student shape {s.shape} != teacher shape {t.shape}")
        d = s - t
        term = T.mean_all(T.mul(d, d))
        total = term if total is None else total + term
    return total


def _soft_cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """-sum target * log_softmax(logits) / batch, for fixed float32 target rows."""
    log_sm = T.log_softmax_rows(logits)
    return T.scale(T.sum_all(T.mul(log_sm, Tensor(target))), -1.0 / logits.shape[0])


def loss_pred(student_logits: Tensor, teacher_logits: Tensor) -> Tensor:
    """Soft cross-entropy -sum softmax(teacher) * log_softmax(student) / batch."""
    if student_logits.shape != teacher_logits.shape:
        raise T.ShapeError("logit shape mismatch")
    return _soft_cross_entropy(student_logits, T.softmax_rows(teacher_logits).data)


def _check_labels(labels: np.ndarray, classes: int) -> None:
    """``ValueError`` unless every label is a class index ``0..classes-1``."""
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} is outside 0..{classes - 1}")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    _check_labels(labels, logits.shape[1])
    onehot = np.zeros(logits.shape, dtype=np.float32)
    onehot[np.arange(logits.shape[0]), labels] = 1.0
    return _soft_cross_entropy(logits, onehot)


# ---------------------------------------------------------------------------
# teacher targets


class TeacherTargets:
    """The frozen teacher's trace of each example, computed once.

    Examples are keyed by the bytes of their int64 token and segment rows.
    Rows not seen before get one teacher forward over just those rows;
    the store keeps their hidden states ``H_1..H_{L+1}`` and logits, and
    recomputes the raw attention scores from the stored ``H_l`` on every
    lookup (:func:`model.attention_scores`, the code the forward runs), so
    a lookup gives the bits of a direct forward over the same batch.
    ``forwards`` counts the teacher forwards run so far.
    """

    def __init__(self, params: dict[str, np.ndarray], config: ModelConfig):
        if {k: v.shape for k, v in params.items()} != param_shapes(config):
            raise ValueError("teacher parameters do not match the model config")
        self.params = params
        self.config = config
        self.forwards = 0
        self._leaves, _ = build_leaves(params, plan=None, trainable=False)
        self._rows: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def nbytes(self) -> int:
        return sum(h.nbytes + z.nbytes for h, z in self._rows.values())

    def trace(self, tokens: np.ndarray, segments: np.ndarray) -> ForwardTrace:
        """The teacher's trace (dropout off, no quantization) of a batch."""
        tokens = np.asarray(tokens, dtype=np.int64)
        segments = np.asarray(segments, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape != segments.shape:
            raise T.ShapeError("tokens/segments must be matching (batch, n) arrays")
        keys = [t.tobytes() + s.tobytes() for t, s in zip(tokens, segments)]
        misses: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in self._rows:
                misses.setdefault(key, i)
        if misses:
            idx = list(misses.values())
            fresh = forward(self._leaves, self.config, tokens[idx], segments[idx])
            self.forwards += 1
            hidden = np.stack([h.data for h in fresh.hidden], axis=1)
            for j, key in enumerate(misses):
                self._rows[key] = (hidden[j], fresh.logits.data[j])
            del fresh   # the rest of its trace goes before the scores are recomputed
        rows = [self._rows[key] for key in keys]
        hidden = [Tensor(np.stack([h[l] for h, _ in rows]))
                  for l in range(self.config.layers + 1)]
        attention = [attention_scores(self._leaves, self.config, l, hidden[l])
                     for l in range(self.config.layers)]
        return ForwardTrace(hidden=hidden, attention=attention,
                            logits=Tensor(np.stack([z for _, z in rows])))


# ---------------------------------------------------------------------------
# training state and loop


@dataclass(frozen=True)
class TrainState:
    """One run: the student, its teacher and its settings, checked on every
    build.  ``ValueError`` if a loss distils without a teacher, the teacher
    lacks the :class:`TeacherTargets` interface (``config``, ``params``,
    ``trace``) or was built for another config,
    the student's parameters are not ``param_shapes(config)``, or the
    optimizer's moments do not hold exactly the student's names and shapes."""

    config: ModelConfig
    plan: QuantPlan | None
    params: dict[str, np.ndarray]            # full-precision shadow weights
    teacher: TeacherTargets | None           # None when nothing distills
    opt: OptimizerState
    opt_cfg: OptimizerConfig
    loss_cfg: DistillLossConfig
    rng: np.random.Generator

    def __post_init__(self):
        if self.teacher is None and (self.loss_cfg.use_trm or self.loss_cfg.use_logits):
            raise ValueError("distillation losses enabled but no teacher set")
        # a store, or any stand-in with its interface
        if self.teacher is not None and not all(
                hasattr(self.teacher, a) for a in ("config", "params", "trace")):
            raise ValueError(f"teacher must be a TeacherTargets store or None, "
                             f"got {type(self.teacher).__name__}")
        if self.teacher is not None and self.teacher.config != self.config:
            raise ValueError("teacher store was built for another model config")
        shapes = {k: v.shape for k, v in self.params.items()}
        if shapes != param_shapes(self.config):
            raise ValueError("student parameters do not match the model config")
        for moment in ("m", "v"):
            if {k: v.shape for k, v in getattr(self.opt, moment).items()} != shapes:
                raise ValueError(f"optimizer moment {moment} does not hold the "
                                 f"student's parameter names and shapes")

    @staticmethod
    def create(config: ModelConfig, params: dict[str, np.ndarray],
               teacher: dict[str, np.ndarray] | TeacherTargets | None,
               plan: QuantPlan | None,
               opt_cfg: OptimizerConfig,
               loss_cfg: DistillLossConfig | None = None,
               seed: int = 0) -> "TrainState":
        """``teacher`` is the teacher's parameters, or a store to share with
        other runs on the same teacher; ground-truth training (both losses
        off) keeps neither."""
        loss_cfg = loss_cfg or DistillLossConfig()
        if not (loss_cfg.use_trm or loss_cfg.use_logits):
            teacher = None
        elif isinstance(teacher, dict):
            teacher = TeacherTargets(teacher, config)
        return TrainState(config=config, plan=plan,
                          params={k: v.copy() for k, v in params.items()},
                          teacher=teacher, opt=OptimizerState.initial(params),
                          opt_cfg=opt_cfg, loss_cfg=loss_cfg,
                          rng=np.random.default_rng(seed))


def _first_nonfinite(trace: ForwardTrace) -> str | None:
    for i, h in enumerate(trace.hidden):
        if not np.isfinite(h.data).all():
            return f"hidden[{i + 1}]"
    for i, a in enumerate(trace.attention):
        if not np.isfinite(a.data).all():
            return f"attention[{i + 1}]"
    if not np.isfinite(trace.logits.data).all():
        return "logits"
    return None


def train_step(state: TrainState, tokens: np.ndarray, segments: np.ndarray,
               labels: np.ndarray) -> dict:
    """One pass of the distillation-aware ternarization loop.  Both traces
    are dropped before the replay, so the backward holds only what the
    tape keeps, and the tape frees that as it goes."""
    cfg = state.loss_cfg
    second_half = state.opt.step >= state.opt_cfg.total_steps // 2
    stage = 2 if cfg.stages == 2 and second_half else 1
    use_logits = cfg.use_logits and stage == cfg.stages   # stage 1 of 2: L_trm alone
    distilling = cfg.use_trm or use_logits

    with GradTape() as tape:
        # loss-aware methods read the optimizer's accumulated second moment
        leaves, _ = build_leaves(state.params, state.plan,
                                 second_moments=state.opt.v, trainable=True)
        student = forward(leaves, state.config, tokens, segments,
                          plan=state.plan, train=True, rng=state.rng)
        l_trm_t = None
        l_pred_t = None
        if distilling:
            teacher = state.teacher.trace(tokens, segments)
            if cfg.use_trm:
                l_trm_t = loss_trm(student, teacher)
            if use_logits:
                l_pred_t = loss_pred(student.logits, teacher.logits)
            total = l_trm_t
            if l_pred_t is not None:
                total = l_pred_t if total is None else total + l_pred_t
        else:
            total = cross_entropy(student.logits, labels)

    loss_val = float(total.data)
    if not np.isfinite(loss_val):
        culprit = _first_nonfinite(student) or "loss"
        raise TrainingDiverged(f"non-finite loss at step {state.opt.step + 1}; "
                               f"first bad tensor: {culprit}")

    student = teacher = None
    grads_t = tape.gradients(total)
    grads = {name: grads_t.wrt(leaf) for name, leaf in leaves.items()}
    lr, delta = optimizer_step(state.params, grads, state.opt, state.opt_cfg)
    return {"step": state.opt.step, "stage": stage,
            "loss_trm": float(l_trm_t.data) if l_trm_t is not None else None,
            "loss_pred": float(l_pred_t.data) if l_pred_t is not None else None,
            "loss_total": loss_val, "lr": lr, "weight_delta": delta}


def evaluate(params: dict[str, np.ndarray], config: ModelConfig,
             examples: list[Example], plan: QuantPlan | None = None,
             second_moments: dict[str, np.ndarray] | None = None) -> float:
    """Accuracy over ``examples``; :class:`TrainingDiverged` if a logit is
    not finite."""
    if not examples:
        raise ValueError("cannot evaluate on an empty dataset")
    tokens, segments, labels = as_arrays(examples)
    _check_labels(labels, config.classes)
    leaves, _ = build_leaves(params, plan, second_moments, trainable=False)
    logits = forward(leaves, config, tokens, segments, plan=plan).logits
    if not np.isfinite(logits.data).all():
        raise TrainingDiverged("non-finite logits in evaluation")
    return float((np.argmax(logits.data, axis=-1) == labels).mean())


def eval_loss_trm(state: TrainState, examples: list[Example]) -> float:
    """L_trm of the current quantized student on a fixed batch, dropout off."""
    if state.teacher is None:
        raise ValueError("L_trm needs a teacher")
    tokens, segments, _ = as_arrays(examples)
    leaves, _ = build_leaves(state.params, state.plan,
                             second_moments=state.opt.v, trainable=False)
    student = forward(leaves, state.config, tokens, segments, plan=state.plan)
    # the teacher's own forward: probe rows never enter the training store
    leaves, _ = build_leaves(state.teacher.params, trainable=False)
    teacher = forward(leaves, state.config, tokens, segments)
    return float(loss_trm(student, teacher).data)


@dataclass(frozen=True)
class TrainSettings:
    epochs: int = 4
    batch_size: int = 32
    eval_every: int = 25
    seed: int = 0

    def __post_init__(self):
        for f, least in (("epochs", 0), ("batch_size", 1), ("eval_every", 0)):
            value = getattr(self, f)
            if type(value) is not int or value < least:
                raise ValueError(f"{f.replace('_', ' ')} must be an integer >= {least}, "
                                 f"got {value!r}")


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def training_steps(state: TrainState, train_set: list[Example],
                   eval_set: list[Example], settings: TrainSettings) -> Iterator[dict]:
    """Run the loop, yielding each step's record as the step ends."""
    if not train_set:
        raise ValueError("training set is empty")
    tokens, segments, labels = as_arrays(train_set)
    steps_per_epoch = -(-len(train_set) // settings.batch_size)
    total_steps = state.opt.step + settings.epochs * steps_per_epoch
    # a copy scheduled to end with this run; it shares params, opt, rng and store
    state = replace(state, opt_cfg=replace(state.opt_cfg, total_steps=max(total_steps, 1)))

    shuffle_rng = np.random.default_rng(settings.seed + 0x5EED)
    for _ in range(settings.epochs):
        for idx in _batches(len(train_set), settings.batch_size, shuffle_rng):
            rec = train_step(state, tokens[idx], segments[idx], labels[idx])
            if settings.eval_every and rec["step"] % settings.eval_every == 0:
                rec["eval_acc"] = evaluate(state.params, state.config, eval_set,
                                           plan=state.plan,
                                           second_moments=state.opt.v)
            else:
                rec["eval_acc"] = None
            rec["seed"] = settings.seed
            yield rec


def run_training(state: TrainState, train_set: list[Example],
                 eval_set: list[Example], settings: TrainSettings) -> list[dict]:
    """Run the full loop; returns the metrics history (one record per step)."""
    return list(training_steps(state, train_set, eval_set, settings))


def train_float_baseline(config: ModelConfig, train_set: list[Example],
                         eval_set: list[Example], opt_cfg: OptimizerConfig,
                         settings: TrainSettings
                         ) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Supervised full-precision training; the usual way to make a teacher."""
    params = init_params(config, np.random.default_rng(settings.seed))
    state = TrainState.create(config, params, teacher=None, plan=None,
                              opt_cfg=opt_cfg,
                              loss_cfg=DistillLossConfig(False, False),
                              seed=settings.seed)
    metrics = run_training(state, train_set, eval_set, settings)
    return state.params, metrics
