"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Training thresholds
for the end-to-end criteria are relative to the float baseline trained
inside the test (budget recorded in tests/data/calibration.json).
"""

import json
import pathlib

import numpy as np
import pytest

from tquant import actquant as aq
from tquant import model as M
from tquant import packed as pk
from tquant import qkernels as qk
from tquant import tasks
from tquant import tensor as T
from tquant import ternarize as tz
from tquant import train as TR
from tquant.tensor import GradTape, Tensor

from oracles import (brute_force_quant, fd_gradient, float_reference,
                     integer_gemm_reference, rel_norm_error)

CALIBRATION = json.loads(
    (pathlib.Path(__file__).parent / "data" / "calibration.json").read_text())


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


# -- 1 ----------------------------------------------------------------------

def test_c01_size_arithmetic():
    config = M.bert_base_config()
    fp32 = M.size_report(config, M.QuantPlan(32, 32, 32))
    assert abs(fp32.total_mb - 418) / 418 < 0.03

    ternary = M.size_report(config, M.plan_from_notation("2-2-8"))
    assert abs(ternary.total_mb - 28) / 28 < 0.05
    assert abs(ternary.compression_ratio - 14.9) / 14.9 < 0.05

    eight = M.size_report(config, M.plan_from_notation("8-8-8", e_gran="layer"))
    assert abs(eight.total_mb - 106) / 106 < 0.05

    three = M.size_report(config, M.plan_from_notation("3-3-8"))
    assert abs(three.total_mb - 41) / 41 < 0.05
    report("1 size-arithmetic",
           f"fp32 {fp32.total_mb:.1f} MB, 2-2-8 {ternary.total_mb:.1f} MB "
           f"({ternary.compression_ratio:.1f}x), 8-8-8 {eight.total_mb:.1f} MB, "
           f"3-3-8 {three.total_mb:.1f} MB")


# -- 2 ----------------------------------------------------------------------

def test_c02_twn_exact_optimality():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        w = rng.standard_normal(n)
        got = tz.weighted_residual(w, tz.twn_exact(w, "layer"))
        assert abs(got - brute_force_quant(w)) < 1e-6
    report("2 twn-exact-oracle", "200 vectors, n <= 10, 3^n enumeration")


# -- 3 ----------------------------------------------------------------------

def test_c03_lat_subproblem_oracle(monkeypatch):
    rng = np.random.default_rng(2025)
    within = 0
    for i in range(200):
        n = int(rng.integers(2, 11))
        w = rng.standard_normal(n)
        v = rng.random(n) * 4
        u = np.sqrt(np.maximum(v, 1e-12))
        exact = tz.weighted_residual(w, tz.lat_subproblem(w, v, "layer", "exact"), v)
        assert abs(exact - brute_force_quant(w, u)) < 1e-6
        approx = tz.weighted_residual(w, tz.lat_subproblem(w, v, "layer", "approx"), v)
        if approx <= exact * 1.05 + 1e-12:
            within += 1
        if i < 50:
            objs = []
            for k in range(1, 5):
                monkeypatch.setattr(tz, "LAT_ITERS", k)
                objs.append(tz.weighted_residual(
                    w, tz.lat_subproblem(w, v, "layer", "approx"), v))
            monkeypatch.undo()
            assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert within >= 190
    report("3 lat-oracle", f"exact matches brute force; approx within 5% on "
                           f"{within}/200 instances")


# -- 4 ----------------------------------------------------------------------

def test_c04_laq3_oracle():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        w = rng.standard_normal(n)
        v = rng.random(n) * 4
        u = np.sqrt(np.maximum(v, 1e-12))
        got = tz.weighted_residual(w, tz.laq3(w, v, "layer"), v)
        assert abs(got - brute_force_quant(w, u, max_level=3)) < 1e-6
    report("4 laq3-oracle", "100 instances, n <= 8, 7^n enumeration")


# -- 5 ----------------------------------------------------------------------

def test_c05_granularity_dominance():
    rng = np.random.default_rng(2027)
    methods = ("twn_approx", "twn_exact", "lat_exact", "lat_approx", "laq3")
    for _ in range(100):
        w = rng.standard_normal((16, 32))
        v = rng.random((16, 32)) * 2
        for method in methods:
            needs_v = method not in ("twn_approx", "twn_exact")
            vv = v if needs_v else None
            row = tz.quantize(w, method, "row", vv)
            layer = tz.quantize(w, method, "layer", vv)
            assert tz.weighted_residual(w, row, vv) <= \
                tz.weighted_residual(w, layer, vv), method
    report("5 granularity-dominance", "row <= layer on 100 matrices x 5 methods")


# -- 6 ----------------------------------------------------------------------

def test_c06_activation_quantization():
    rng = np.random.default_rng(2028)
    for _ in range(1000):
        x = (rng.standard_normal(int(rng.integers(2, 64)))
             * rng.uniform(0.01, 10)).astype(np.float32)
        for scheme in ("minmax8", "symmetric8"):
            qa = aq.quantize(x, scheme)
            err = np.abs(aq.dequantize(qa) - x).max()
            assert err <= qa.params.scale / 2 + 1e-6

    minmax_wins = 0
    for _ in range(100):
        sigma = rng.uniform(0.5, 2.0)
        x = np.clip(rng.standard_normal(256) * sigma,
                    -3 * sigma, 0.1 * sigma).astype(np.float32)
        mm = float(((aq.dequantize(aq.quantize_minmax(x)) - x) ** 2).mean())
        sym = float(((aq.dequantize(aq.quantize_symmetric(x)) - x) ** 2).mean())
        if mm <= sym:
            minmax_wins += 1
    assert minmax_wins == 100
    report("6 activation-quant", "bound holds on 1000 tensors; min-max MSE <= "
                                 "symmetric on all 100 skewed tensors")


# -- 7 ----------------------------------------------------------------------

def test_c07_kernel_equivalence():
    rng = np.random.default_rng(2029)
    for i in range(1000):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        scheme = ("minmax8", "symmetric8")[i % 2]
        gran = ("layer", "row")[(i // 2) % 2]
        x = (rng.standard_normal((m, k)) * rng.uniform(0.1, 5)).astype(np.float32)
        act = aq.quantize(x, scheme)
        w = tz.twn_approx(rng.standard_normal((n, k)), gran)
        got = qk.ternary_gemm(act, w)
        ref = integer_gemm_reference(act.codes, act.params, w.codes, w.scales,
                                     gran)
        np.testing.assert_array_equal(got, ref)
        flt = float_reference(act, w)
        denom = max(float(np.abs(flt).max()), 1e-3)
        assert np.abs(got - flt).max() / denom < 1e-4
    report("7 kernel-equivalence", "1000 instances bit-exact vs integer "
                                   "reference, within 1e-4 of float path")


# -- 8 ----------------------------------------------------------------------

def test_c08_gradient_checks():
    config = M.ModelConfig(layers=2, hidden=8, heads=2, ffn=16, vocab=10,
                           max_positions=8, classes=3, dropout=0.0)
    rng = np.random.default_rng(2030)
    params = {k: v.astype(np.float64)
              for k, v in M.init_params(config, rng).items()}
    tokens = rng.integers(0, config.vocab, size=(2, 4))
    segments = rng.integers(0, config.segments, size=(2, 4))
    labels = rng.integers(0, config.classes, size=2)
    onehot = np.zeros((2, config.classes))
    onehot[np.arange(2), labels] = 1.0

    # cross-entropy plus attention-score energy, so every parameter,
    # including the key biases that softmax otherwise cancels, carries a
    # nonzero gradient to check
    def combined_loss(trace):
        log_sm = T.log_softmax_rows(trace.logits)
        loss = T.scale(T.sum_all(T.mul(log_sm, Tensor(onehot))), -0.5)
        for a in trace.attention:
            loss = loss + T.scale(T.mean_all(T.mul(a, a)), 0.1)
        return loss

    def loss_fn(p):
        leaves, _ = M.build_leaves(p, None, trainable=False)
        trace = M.forward(leaves, config, tokens, segments)
        return float(combined_loss(trace).data)

    leaves, _ = M.build_leaves(params, None, trainable=True)
    with GradTape() as tape:
        trace = M.forward(leaves, config, tokens, segments)
        loss = combined_loss(trace)
    grads = tape.gradients(loss)
    worst = 0.0
    for name in params:
        fd = fd_gradient(loss_fn, params, name, eps=1e-4)
        err = rel_norm_error(grads.wrt(leaves[name]), fd)
        worst = max(worst, err)
        assert err <= 1e-3, f"{name}: {err}"

    # clipped-STE mask, elementwise
    x = rng.standard_normal(64).astype(np.float32) * 2
    qa_params = aq.ActQuantParams("minmax8", -1.0, 1.0, 2.0 / 255)
    g = rng.standard_normal(64).astype(np.float32)
    got = aq.ste_backward(g, x, qa_params)
    for i in range(64):
        assert got[i] == (g[i] if -1.0 <= x[i] <= 1.0 else 0.0)
    report("8 gradient-checks", f"worst per-parameter relative error {worst:.2e}")


# -- 9 ----------------------------------------------------------------------

def test_c09_round_trips(tmp_path):
    rng = np.random.default_rng(2031)
    for _ in range(500):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 17))
        gran = ("layer", "row")[int(rng.integers(0, 2))]
        codes = rng.integers(-1, 2, size=(rows, cols)).astype(np.int8)
        scales = (rng.random(1 if gran == "layer" else rows)
                  .astype(np.float32) + 0.01)
        t = tz.TernaryTensor(codes=codes, scales=scales, granularity=gran)
        back = pk.unpack(pk.pack(t))
        np.testing.assert_array_equal(back.codes, t.codes)
        np.testing.assert_array_equal(back.scales, t.scales)

    config = M.ModelConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=10,
                           max_positions=8, classes=3)
    plan = M.plan_from_notation("2-2-8")
    detected = 0
    n_models = 500
    for i in range(n_models):
        params = M.init_params(config, np.random.default_rng(3000 + i))
        path = tmp_path / f"m{i}.tqm"
        pk.save_model(str(path), config.to_dict(),
                      M.to_saved_tensors(params, plan if i % 2 else None))
        loaded = pk.load_model(str(path))
        got, qinfo = M.params_from_loaded(loaded.tensors, config)
        for name, value in params.items():
            if i % 2 == 0:
                np.testing.assert_array_equal(got[name], value)
            else:
                q = M.quantize_param(name, value, plan)
                if q is None:
                    np.testing.assert_array_equal(got[name], value)
                else:
                    np.testing.assert_array_equal(qinfo[name].codes, q.codes)
                    np.testing.assert_array_equal(qinfo[name].scales, q.scales)
        # corrupt one random blob byte; load must fail
        data = bytearray(path.read_bytes())
        blob_start = 8 + int.from_bytes(data[4:8], "little")   # past the manifest
        pos = int(rng.integers(blob_start, len(data)))
        data[pos] ^= 0x5A
        path.write_bytes(bytes(data))
        try:
            pk.load_model(str(path))
        except pk.ModelFileError:
            detected += 1
    assert detected == n_models
    report("9 round-trips", f"500 pack round-trips, {n_models} model files, "
                            f"corruption detected {detected}/{n_models}")


# -- 10 / 11 ----------------------------------------------------------------

TASK_CFG = M.ModelConfig(layers=2, hidden=32, heads=2, ffn=64, vocab=8,
                         max_positions=16, classes=4)


@pytest.fixture(scope="module")
def majority_task():
    c = CALIBRATION
    train_set = tasks.make_majority_dataset(c["train_n"], seq_len=16, classes=4,
                                            vocab=8, seed=c["data_seed"])
    eval_set = tasks.make_majority_dataset(c["eval_n"], seq_len=16, classes=4,
                                           vocab=8, seed=c["data_seed"] + 1)
    return train_set, eval_set


@pytest.fixture(scope="module")
def trained_teacher(majority_task):
    train_set, eval_set = majority_task
    c = CALIBRATION
    opt = TR.OptimizerConfig(lr=c["teacher_lr"])
    settings = TR.TrainSettings(epochs=c["teacher_epochs"], batch_size=32,
                                eval_every=0, seed=c["seed"])
    params, _ = TR.train_float_baseline(TASK_CFG, train_set, eval_set, opt,
                                        settings)
    acc = TR.evaluate(params, TASK_CFG, eval_set)
    assert acc >= CALIBRATION["teacher_floor"], \
        "float baseline fell below its recorded calibration floor"
    return params, acc


def _distill(teacher, train_set, eval_set, loss_cfg, seed, plan=None):
    c = CALIBRATION
    plan = plan or M.plan_from_notation("2-2-8")
    state = TR.TrainState.create(TASK_CFG, teacher, teacher, plan,
                                 TR.OptimizerConfig(lr=c["student_lr"]),
                                 loss_cfg=loss_cfg, seed=seed)
    settings = TR.TrainSettings(epochs=c["student_epochs"], batch_size=32,
                                eval_every=0, seed=seed)
    TR.run_training(state, train_set, eval_set, settings)
    return state


def test_c10_end_to_end_distillation(majority_task, trained_teacher):
    train_set, eval_set = majority_task
    teacher, teacher_acc = trained_teacher
    seed = CALIBRATION["seed"]

    accs = {}
    for name, loss_cfg in (("full", TR.DistillLossConfig(True, True)),
                           ("logits", TR.DistillLossConfig(False, True)),
                           ("ground-truth", TR.DistillLossConfig(False, False))):
        state = _distill(teacher, train_set, eval_set, loss_cfg, seed)
        accs[name] = TR.evaluate(state.params, TASK_CFG, eval_set,
                                 plan=state.plan, second_moments=state.opt.v)

    assert accs["full"] >= 0.9 * teacher_acc
    assert accs["full"] >= accs["logits"] - 0.01
    assert accs["logits"] >= accs["ground-truth"] - 0.01
    report("10 end-to-end-distillation",
           f"teacher {teacher_acc:.3f}, student full {accs['full']:.3f}, "
           f"logits-only {accs['logits']:.3f}, "
           f"ground-truth-only {accs['ground-truth']:.3f}")


def test_c11_two_stage_schedule(majority_task, trained_teacher):
    train_set, eval_set = majority_task
    teacher, _ = trained_teacher
    probe = eval_set[:64]
    singles, doubles = [], []
    for seed in range(5):
        for stages, store in ((1, singles), (2, doubles)):
            state = _distill(teacher, train_set, eval_set,
                             TR.DistillLossConfig(True, True, stages), seed)
            store.append(TR.eval_loss_trm(state, probe))
    mean_single = float(np.mean(singles))
    mean_double = float(np.mean(doubles))
    assert mean_double <= mean_single * 1.05
    report("11 two-stage-schedule",
           f"final L_trm two-stage {mean_double:.4f} <= "
           f"single-stage {mean_single:.4f} * 1.05 over 5 seeds")
