"""Print SHA-256 digests of tquant's pinned outputs.

Run it against a source tree to compare two trees bit for bit::

    PYTHONPATH=<tree>/src python3 tools/fingerprint.py

Each line is one digest over a fixed, seeded set of inputs:

* ``checkpoints`` -- the ``save_checkpoint`` bytes of a micro config under
  every valid plan (and no plan), plus what ``load_checkpoint`` returns;
* ``activation_codes``, ``activation_dequantize``, ``activation_fake_quant``
  -- ``actquant.quantize`` codes and params, ``dequantize`` values, and
  ``fake_quantize`` values and gradients, for both schemes and for one
  range and four ranges per tensor;
* ``gelu`` -- ``tensor.gelu`` values and gradient over a float32 sweep of
  both signs: |x| below sqrt(2) (erf's own series), up to 6*sqrt(2) (where
  erf goes through erfc), from there to 3e38, and every float32 around
  the points where erf first reads exactly 1 and where its argument is
  clipped;
* ``ternarize`` -- ``ternarize.quantize`` for every method and granularity;
* ``training`` -- ``run_training`` records and final parameters for six
  configurations, and ``eval_loss_trm`` after each distilling run on a
  probe set that shares half its examples with the training set;
* ``cli`` -- one d16 run of every command but ``bench`` (whose records
  hold timings), and a two-stage ``train``, through ``cli.main``: the
  exit codes, stdout, and every file written, by sorted relative path,
  with the temp dir replaced by a fixed token.  It calls nothing else of
  tquant, so it also runs against a tree whose library API differs.

Two trees that print the same lines produce the same files, codes and
training runs on these inputs.  A first ``#`` line names the numpy, BLAS
and scipy builds the digests were made with.  ``tests/data/fingerprint.txt``
is this tool's output, and tier-1 (``tests/test_fingerprint.py``) checks
the tree against it; a change that means to move a digest rewrites it::

    PYTHONPATH=src python3 tools/fingerprint.py > tests/data/fingerprint.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

import numpy as np
import scipy

from tquant import actquant, cli, tasks, ternarize
from tquant import tensor as T
from tquant import train as TR
from tquant.model import (ModelConfig, QuantPlan, init_params, load_checkpoint,
                          save_checkpoint)
from tquant.tensor import GradTape, Tensor


class Digest:
    def __init__(self):
        self.h = hashlib.sha256()
        self.items = 0

    def array(self, a) -> None:
        a = np.ascontiguousarray(a)
        self.text(f"{a.dtype.str}{a.shape}")
        self.h.update(a.tobytes())

    def text(self, s) -> None:
        self.h.update(str(s).encode() + b"\0")

    def quant(self, t) -> None:
        """The fields a ``.tqm`` keeps of a ``TernaryTensor``."""
        self.array(t.codes)
        self.array(t.scales)
        self.text(t.granularity)
        self.text(t.max_level)


MICRO = ModelConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=8,
                    max_positions=8, classes=2)


def _slot_options():
    """(bits, method, granularity) of every valid weight or embedding slot."""
    out = [(32, "twn_approx", "layer")]
    for method, (bits, _) in ternarize.METHODS.items():
        grans = ("layer",) if bits == 8 else ternarize.GRANULARITIES
        out += [(bits, method, g) for g in grans]
    return out


def plans():
    yield None
    acts = [(32, "minmax8"), (8, "minmax8"), (8, "symmetric8")]
    for (wb, wm, wg), (eb, em, eg), (ab, scheme) in itertools.product(
            _slot_options(), _slot_options(), acts):
        yield QuantPlan(w_bits=wb, e_bits=eb, a_bits=ab, w_method=wm, e_method=em,
                        w_gran=wg, e_gran=eg, act_scheme=scheme)


def checkpoints(d: Digest, tmp: str) -> None:
    rng = np.random.default_rng(7)
    params = init_params(MICRO, rng, std=0.5)
    moments = {k: np.abs(rng.standard_normal(v.shape)).astype(np.float32) * 1e-3
               for k, v in params.items()}
    path = os.path.join(tmp, "model.tqm")
    for i, plan in enumerate(plans()):
        save_checkpoint(path, MICRO, params, plan,
                        second_moments=moments if i % 2 else None,
                        extras={"index": i})
        with open(path, "rb") as f:
            d.h.update(f.read())
        ckpt = load_checkpoint(path)
        d.text(json.dumps(ckpt.config.to_dict(), sort_keys=True))
        d.text(None if ckpt.plan is None else json.dumps(ckpt.plan.to_dict(), sort_keys=True))
        d.text(json.dumps(ckpt.file.extras, sort_keys=True))
        for name in sorted(ckpt.params):
            d.text(name)
            d.array(ckpt.params[name])
            t = ckpt.file.tensors[name]
            d.text((t.name, t.role, t.bits, t.method, t.granularity))
            if name in ckpt.qinfo:
                d.quant(ckpt.qinfo[name])
        d.items += 1


def activation_inputs(n: int = 200):
    for i in range(n):
        rng = np.random.default_rng(1000 + i)
        shape = (4 * int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 9)))
        kind = i % 5
        if kind == 0:
            x = rng.standard_normal(shape) * rng.uniform(0.01, 50)
        elif kind == 1:     # values on a quarter grid: many ties at half codes
            x = rng.integers(-300, 300, shape) * 0.25
        elif kind == 2:     # constant and all-zero groups, signed zeros
            x = rng.standard_normal(shape)
            q = shape[0] // 4
            x[:q] = 0.5
            x[q:2 * q] = 0.0
            x[q, 0, 0] = -0.0
        elif kind == 3:     # skewed, with tiny negatives that round to -0
            x = np.clip(rng.standard_normal(shape) * 3, -9, 0.3)
            x.reshape(-1)[:3] = -1e-4
        else:
            x = rng.standard_normal(shape) * 10 ** rng.uniform(-6, 6)
        yield x.astype(np.float64 if i % 7 == 0 else np.float32)


def activations(codes: Digest, deq: Digest, fake: Digest) -> None:
    for x in activation_inputs():
        c = np.random.default_rng(x.size).standard_normal(x.shape).astype(x.dtype)
        for scheme, groups in itertools.product(("minmax8", "symmetric8"), (1, 4)):
            qa = actquant.quantize(x, scheme, groups)
            codes.array(qa.codes)
            for v in (qa.params.x_min, qa.params.x_max, qa.params.scale):
                codes.array(np.asarray(v, dtype=np.float64))
            deq.array(actquant.dequantize(qa))
            leaf = Tensor(x, requires_grad=True)
            with GradTape() as tape:
                y = actquant.fake_quantize(leaf, scheme, groups)
                loss = T.sum_all(T.mul(y, Tensor(c)))
            fake.array(y.data)
            fake.array(tape.gradients(loss).wrt(leaf))
            codes.items += 1


def gelu_inputs() -> np.ndarray:
    """The float32 sweep of the ``gelu`` line, negatives and signed zeros
    included."""
    root2 = np.sqrt(2.0)
    runs = [np.linspace(0.0, root2, 4001), np.linspace(root2, 6 * root2, 4001),
            np.geomspace(6 * root2, 3e38, 4001), [1e-30, 1e-38, 1e-45]]
    # every float32 within 2^-10 of erf's first exact 1 and of the clip point
    for z in (5.9216, 6.0):
        mid = np.array(z * root2, dtype=np.float32).view(np.int32)
        runs.append(np.arange(mid - 8192, mid + 8192, dtype=np.int32).view(np.float32))
    x = np.concatenate([np.asarray(r, dtype=np.float32) for r in runs])
    return np.concatenate([x, -x])


def gelu(d: Digest) -> None:
    x = gelu_inputs()
    # small weights, so that sum(gelu(x) * c) stays finite in float32
    c = (np.random.default_rng(17).standard_normal(x.shape) * 1e-4).astype(np.float32)
    leaf = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        y = T.gelu(leaf)
        loss = T.sum_all(T.mul(y, Tensor(c)))
    d.array(y.data)
    d.array(tape.gradients(loss).wrt(leaf))
    d.items = x.size


def weight_inputs():
    rng = np.random.default_rng(3)
    zero_rows = rng.standard_normal((7, 10))
    zero_rows[[1, 4]] = 0.0
    yield rng.standard_normal((6, 20)), rng.random((6, 20))
    yield rng.integers(-3, 4, (8, 24)).astype(np.float64), rng.integers(0, 3, (8, 24)) * 1.0
    yield zero_rows, rng.random((7, 10))
    yield np.zeros((3, 5)), rng.random((3, 5))
    yield rng.standard_normal((1, 37)), rng.random((1, 37))
    yield ((rng.standard_normal((16, 48)) * 0.02).astype(np.float32),
           rng.lognormal(-14.0, 2.0, (16, 48)).astype(np.float32))
    yield ((rng.standard_normal((96, 768)) * 0.05).astype(np.float32),
           rng.random((96, 768)).astype(np.float32) * 1e-6)
    # row-wise, four blocks of rows at the default BLOCK_ELEMENTS, the last
    # partial: the digest covers a workspace reused across blocks
    yield ((rng.standard_normal((300, 768)) * 0.02).astype(np.float32),
           rng.lognormal(-14.0, 2.0, (300, 768)).astype(np.float32))


def weights(d: Digest) -> None:
    for w, v in weight_inputs():
        for method, gran in itertools.product(ternarize.METHODS, ternarize.GRANULARITIES):
            d.quant(ternarize.quantize(w, method, gran, v))
            d.items += 1


TRAIN_CFG = ModelConfig(layers=2, hidden=16, heads=2, ffn=32, vocab=8,
                        max_positions=8, classes=tasks.task_classes("majority"))


def training(d: Digest) -> None:
    train_set = tasks.make_majority_dataset(64, seq_len=8, classes=TRAIN_CFG.classes, seed=5)
    eval_set = tasks.make_majority_dataset(32, seq_len=8, classes=TRAIN_CFG.classes, seed=6)
    probe = train_set[:8] + eval_set[:8]
    teacher = init_params(TRAIN_CFG, np.random.default_rng(11))
    settings = TR.TrainSettings(epochs=2, batch_size=16, eval_every=2, seed=3)
    runs = [
        (QuantPlan(2, 2, 8), 1),
        (QuantPlan(2, 2, 8, act_scheme="symmetric8"), 2),
        (QuantPlan(2, 2, 8, w_method="lat_approx", e_method="lat_approx", w_gran="row"), 1),
        (QuantPlan(8, 8, 8), 1),
        (QuantPlan(3, 3, 8, w_method="laq3", e_method="laq3"), 1),
    ]
    for plan, stages in runs:
        student = init_params(TRAIN_CFG, np.random.default_rng(12))
        state = TR.TrainState.create(TRAIN_CFG, student, teacher, plan,
                                     TR.OptimizerConfig(lr=2e-3),
                                     loss_cfg=TR.DistillLossConfig(True, True, stages),
                                     seed=4)
        _train_record(d, TR.run_training(state, train_set, eval_set, settings),
                      state.params)
        d.array(np.float64(TR.eval_loss_trm(state, probe)))
    params, history = TR.train_float_baseline(TRAIN_CFG, train_set, eval_set,
                                              TR.OptimizerConfig(lr=2e-3), settings)
    _train_record(d, history, params)


def _train_record(d: Digest, history, params) -> None:
    d.text(json.dumps(history, sort_keys=True))
    for name in sorted(params):
        d.text(name)
        d.array(params[name])
    d.items += 1


# a d16 model and a run of one teacher and one student epoch on it
D16_RUN = ["--layers", "1", "--hidden", "16", "--heads", "2", "--ffn", "32",
           "--seq-len", "8", "--train-n", "64", "--eval-n", "32", "--epochs", "1",
           "--teacher-epochs", "1"]


def cli_commands(d: Digest, tmp: str) -> None:
    run = os.path.join(tmp, "train")
    student, probe = os.path.join(run, "student.tqm"), os.path.join(run, "eval_data.jsonl")
    commands = [
        ["train", *D16_RUN, "--checkpoint-every", "1", "--out", run],
        ["train", *D16_RUN, "--stages", "2", "--out", os.path.join(tmp, "two-stage")],
        ["quantize", os.path.join(run, "teacher.tqm"), "--plan", "2-2-8",
         "--out", os.path.join(tmp, "q228")],
        ["quantize", os.path.join(run, "teacher.tqm"), "--plan", "3-8-8",
         "--out", os.path.join(tmp, "q388")],
        ["inspect", student, "--probe", probe, "--out", os.path.join(tmp, "inspect")],
        ["inspect", os.path.join(tmp, "q228", "quantized.tqm")],
        ["eval", student, probe, "--out", os.path.join(tmp, "eval")],
        ["size", "--bert-base"],
        ["ablate", *D16_RUN, "--out", os.path.join(tmp, "ablate")],
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in commands:
            d.text(cli.main(argv))
            d.items += 1
    d.text(stdout.getvalue().replace(tmp, "<tmp>"))
    paths = sorted(os.path.relpath(os.path.join(root, f), tmp)
                   for root, _, files in os.walk(tmp) for f in files)
    for rel in paths:
        with open(os.path.join(tmp, rel), "rb") as f:
            d.text(rel)
            d.h.update(f.read().replace(tmp.encode(), b"<tmp>"))


def versions() -> str:
    """The libraries behind the digests: numpy, its BLAS, and scipy (erf).
    Another BLAS build may sum in another order, which moves ``training``
    and ``cli``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):     # numpy before 1.26 prints its config only
        blas = "unknown"
    return f"numpy {np.__version__} (BLAS {blas}), scipy {scipy.__version__}"


def lines() -> list[str]:
    """One ``name items digest`` line per pinned output."""
    ckpt, codes, deq, fake, act, quant, runs, commands = (Digest() for _ in range(8))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoints(ckpt, tmp)
    activations(codes, deq, fake)
    deq.items = fake.items = codes.items
    gelu(act)
    weights(quant)
    training(runs)
    with tempfile.TemporaryDirectory() as tmp:
        cli_commands(commands, tmp)
    return [f"{name:22s} {d.items:4d} {d.h.hexdigest()}" for name, d in (
        ("checkpoints", ckpt), ("activation_codes", codes),
        ("activation_dequantize", deq), ("activation_fake_quant", fake),
        ("gelu", act), ("ternarize", quant), ("training", runs), ("cli", commands))]


def main() -> int:
    print(f"# {versions()}")
    print("\n".join(lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
