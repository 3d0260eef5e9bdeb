"""The three benchmark workloads.

Each workload has ``setup(seed, workdir)`` that builds every input from the
seed, ``op(state, i)`` -- the timed unit of work, calling tquant's public
functions -- and ``check(state, i, out)``, run outside the timed region,
which returns an error message or None.  ``aliases`` gives the summary
names of the generic end-to-end metrics for that workload, as
``metric: (name, scale, unit)``.  Library modules are always
reached through their module attribute (``train.train_step``, never a
name imported from it) so the traced pass sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from tquant import actquant, cli, model, packed, qkernels, tasks, train
from tquant import ternarize as tz

# the d128 geometry shared by the distillation and eval workloads
D128 = dict(layers=4, hidden=128, heads=4, ffn=512, vocab=1000)
SEQ_LEN = 32
BATCH = 32
CLASSES = tasks.task_classes("majority")


def _d128_config() -> model.ModelConfig:
    return model.ModelConfig(**D128, max_positions=SEQ_LEN, classes=CLASSES)


def _plan_228() -> model.QuantPlan:
    return model.plan_from_notation("2-2-8", method="twn", w_gran="layer",
                                    e_gran="row", act="minmax")


def _majority(n: int, seed: int) -> list[tasks.Example]:
    return tasks.make_majority_dataset(n, seq_len=SEQ_LEN, classes=CLASSES,
                                       vocab=D128["vocab"], seed=seed)


class Distill:
    """One op: ``train.train_step`` of a 2-2-8 student on the next batch."""

    name = "distill-d128"
    op_label = "step"
    samples_per_op = BATCH
    aliases = {"samples_per_s": ("train_samples_per_s", 1, "1/s"),
               "op_ms.p50": ("step_ms.p50", 1, "ms"), "op_ms.p90": ("step_ms.p90", 1, "ms")}
    layers = ("tensor", "model", "ternarize", "actquant", "train")
    batches = 8
    eval_batches = 4

    def setup(self, seed: int, workdir: str):
        # what cmd_train does before its first step when given a teacher:
        # build the train and eval sets, score the teacher, start the
        # student from the teacher's weights (here both a seeded init)
        config = _d128_config()
        tokens, segments, labels = tasks.as_arrays(_majority(BATCH * self.batches, seed))
        eval_set = _majority(BATCH * self.eval_batches, seed + 1)
        teacher = model.init_params(config, np.random.default_rng(seed))
        teacher_acc = train.evaluate(teacher, config, eval_set)
        state = train.TrainState.create(config, teacher, teacher, _plan_228(),
                                        train.OptimizerConfig(lr=1e-3),
                                        loss_cfg=train.DistillLossConfig(True, True),
                                        seed=seed)
        return {"state": state, "tokens": tokens, "segments": segments, "labels": labels,
                "teacher_acc": teacher_acc}

    def op(self, s, i: int):
        b = slice((i % self.batches) * BATCH, (i % self.batches + 1) * BATCH)
        return train.train_step(s["state"], s["tokens"][b], s["segments"][b],
                                s["labels"][b])

    def check(self, s, i: int, rec: dict) -> str | None:
        for key in ("loss_trm", "loss_pred", "loss_total"):
            if rec[key] is None or not np.isfinite(rec[key]):
                return f"{key} is {rec[key]}"
        st = s["state"]
        leaves, qinfo = model.build_leaves(st.params, st.plan, st.opt.v, trainable=False)
        if len(qinfo) != 6 * D128["layers"] + 1:
            return f"{len(qinfo)} quantized leaves"
        for name, q in qinfo.items():
            if q.max_level != 1 or not np.isin(q.codes, (-1, 0, 1)).all():
                return f"{name} codes are not ternary"
            if not np.array_equal(leaves[name].data, tz.dequantize(q)):
                return f"{name} leaf is not its ternary dequantization"
        return None


class Eval:
    """One op: an in-process ``tquant eval`` of a saved 2-2-8 student."""

    name = "eval-d128"
    op_label = "request"
    samples_per_op = BATCH
    aliases = {"samples_per_s": ("eval_samples_per_s", 1, "1/s"),
               "op_ms.p50": ("request_ms.p50", 1, "ms"),
               "op_ms.p90": ("request_ms.p90", 1, "ms")}
    layers = ("tensor", "model", "ternarize", "actquant", "packed", "tasks", "cli")
    request_files = 4

    def setup(self, seed: int, workdir: str):
        config, plan = _d128_config(), _plan_228()
        # at the default init scale (0.02) the 2-2-8 student gives every
        # sequence the same class, and the accuracy check could not see a
        # wrong forward pass; at 1.0 its predictions follow the input
        params = model.init_params(config, np.random.default_rng(seed), std=1.0)
        model_path = os.path.join(workdir, "student.tqm")
        packed.save_model(model_path, config.to_dict(),
                          model.to_saved_tensors(params, plan),
                          extras={"plan": plan.to_dict(), "seed": seed})
        requests, expected = [], []
        for r in range(self.request_files):
            examples = _majority(BATCH, seed * 1000 + 1 + r)
            path = os.path.join(workdir, f"request{r}.jsonl")
            tasks.save_dataset(path, examples)
            requests.append(path)
            expected.append(train.evaluate(params, config, examples, plan=plan))
        return {"model": model_path, "requests": requests, "expected": expected,
                "out": os.path.join(workdir, "eval_out"), "seed": seed}

    def op(self, s, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["eval", s["model"], s["requests"][i % self.request_files],
                             "--out", s["out"], "--seed", str(s["seed"])])
        return code, buf.getvalue()

    def check(self, s, i: int, out) -> str | None:
        code, text = out
        if code != 0:
            return f"tquant eval exited {code}"
        rec = json.loads(text.strip().splitlines()[-1])
        want = s["expected"][i % self.request_files]
        if rec["n"] != BATCH or rec["accuracy"] != want:
            return f"accuracy {rec['accuracy']} on {rec['n']}, expected {want} on {BATCH}"
        return None


# (label, method, granularity, rows, cols, bits, run the GEMM); the laq3 item
# is a 128-row slice because its per-row breakpoint loop would otherwise
# take a fifth of the pass and leave too few passes per run for a median
KERNEL_MIX = (
    ("twn-layer-3072x768", "twn_approx", "layer", 3072, 768, 2, True),
    ("twn-row-emb-30522x768", "twn_approx", "row", 30522, 768, 2, False),
    ("twn-exact-row-768x3072", "twn_exact", "row", 768, 3072, 2, True),
    ("lat-exact-layer-768x768", "lat_exact", "layer", 768, 768, 2, True),
    ("lat-row-3072x768", "lat_approx", "row", 3072, 768, 2, True),
    ("laq3-row-128x768", "laq3", "row", 128, 768, 3, False),
    ("int8-layer-768x3072", "int8_sym", "layer", 768, 3072, 8, False),
)
TOKENS = 128


def _quantize(method: str, w, v, gran: str) -> tz.TernaryTensor:
    if method == "twn_approx":
        return tz.twn_approx(w, gran)
    if method == "twn_exact":
        return tz.twn_exact(w, gran)
    if method == "lat_exact":
        return tz.lat_subproblem(w, v, gran, "exact")
    if method == "lat_approx":
        return tz.lat_subproblem(w, v, gran, "approx")
    if method == "laq3":
        return tz.laq3(w, v, gran)
    return tz.quantize_int8(w, gran)


def gemm_reference(act: actquant.QuantizedActivation, q: tz.TernaryTensor) -> np.ndarray:
    """Integer accumulation plus the affine correction, as the test oracle does.

    Same arithmetic as ``tests/oracles.integer_gemm_reference`` -- an exact
    integer dot product per output, then ``acc * (s * alpha)`` plus
    ``x_min * alpha * colsum`` in float64, rounded once to float32 -- with
    int64 array products in place of its scalar loops.
    """
    signs = q.codes.astype(np.int64)
    acc = act.codes.astype(np.int64) @ signs.T
    alpha = np.broadcast_to(q.scales.astype(np.float64), (signs.shape[0],))
    out = acc.astype(np.float64) * (act.params.scale * alpha)
    if act.params.scheme == "minmax8":
        out = out + act.params.x_min * alpha * signs.sum(axis=1).astype(np.float64)
    return out.astype(np.float32)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


class Kernels:
    """One op: quantize, save, load and (2-bit) GEMM every BERT-base item."""

    name = "kernels-base"
    op_label = "pass"
    samples_per_op = len(KERNEL_MIX)
    aliases = {"op_ms.p50": ("pass_s.p50", 1e-3, "s")}
    layers = ("ternarize", "packed", "qkernels")

    def setup(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        items = []
        for label, method, gran, rows, cols, bits, gemm in KERNEL_MIX:
            w = rng.standard_normal((rows, cols), dtype=np.float32) * np.float32(0.02)
            # loss-aware items see a skewed second moment: log-normal with a
            # median near 1e-6, spread over several decades
            v = (rng.lognormal(-14.0, 2.0, (rows, cols)).astype(np.float32)
                 if method in ("lat_exact", "lat_approx", "laq3") else None)
            items.append({"label": label, "method": method, "gran": gran,
                          "bits": bits, "gemm": gemm, "w": w, "v": v,
                          "path": os.path.join(workdir, f"{label}.tqm")})
        acts = {}
        for cols in sorted({it["w"].shape[1] for it in items if it["gemm"]}):
            x = rng.standard_normal((TOKENS, cols), dtype=np.float32)
            acts[cols] = actquant.quantize_minmax(x)
        return {"items": items, "acts": acts, "refs": {}}

    def op(self, s, i: int):
        outs = []
        for it in s["items"]:
            q = _quantize(it["method"], it["w"], it["v"], it["gran"])
            role = "word_embedding" if "emb" in it["label"] else "transformer_weight"
            packed.save_model(it["path"], {}, [packed.SavedTensor(
                name=it["label"], role=role, bits=it["bits"], method=it["method"],
                granularity=q.granularity, quant=q)])
            loaded = packed.load_model(it["path"]).tensors[it["label"]].quant
            out = None
            if it["gemm"]:
                act = s["acts"][it["w"].shape[1]]
                out = qkernels.ternary_gemm(act, packed.pack(loaded))
            outs.append((q, loaded, out))
        return outs

    def check(self, s, i: int, outs) -> str | None:
        for it, (q, loaded, out) in zip(s["items"], outs):
            label = it["label"]
            if not (_bits_equal(loaded.codes, q.codes) and _bits_equal(loaded.scales, q.scales)
                    and loaded.granularity == q.granularity):
                return f"{label}: loaded codes/scales differ from the quantizer's"
            if not it["gemm"]:
                continue
            cached = s["refs"].get(label)
            if cached is None or not (_bits_equal(cached[0], q.codes)
                                      and _bits_equal(cached[1], q.scales)):
                act = s["acts"][it["w"].shape[1]]
                cached = (q.codes, q.scales, gemm_reference(act, q))
                s["refs"][label] = cached
            if not _bits_equal(out, cached[2]):
                return f"{label}: GEMM output differs from the integer reference"
        return None


WORKLOADS = {w.name: w for w in (Distill(), Eval(), Kernels())}
