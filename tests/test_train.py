import dataclasses
import math

import numpy as np
import pytest

from tquant import model as M
from tquant import qkernels as qk
from tquant import tasks
from tquant import tensor as T
from tquant import train as TR
from tquant.model import ForwardTrace
from tquant.tensor import Tensor

CFG = M.ModelConfig(layers=1, hidden=16, heads=2, ffn=32, vocab=6,
                    max_positions=8, classes=3, dropout=0.0)


def tiny_trace(hidden_arrays, attn_arrays, logits):
    return ForwardTrace(hidden=[Tensor(h) for h in hidden_arrays],
                        attention=[Tensor(a) for a in attn_arrays],
                        logits=Tensor(logits))


def make_data(n=96, seed=0, seq_len=8, classes=3, vocab=6):
    return tasks.make_majority_dataset(n, seq_len=seq_len, classes=classes,
                                       vocab=vocab, seed=seed)


def fresh_state(teacher, plan=None, loss_cfg=None, seed=0, lr=1e-3, stages=1):
    loss_cfg = dataclasses.replace(loss_cfg or TR.DistillLossConfig(), stages=stages)
    return TR.TrainState.create(CFG, teacher, teacher, plan,
                                TR.OptimizerConfig(lr=lr, total_steps=100),
                                loss_cfg=loss_cfg, seed=seed)


class TestLossTrm:
    def test_identical_traces_give_zero(self):
        rng = np.random.default_rng(0)
        h = [rng.standard_normal((2, 3, 4)).astype(np.float32)]
        a = [rng.standard_normal((2, 3, 3)).astype(np.float32)]
        p = rng.standard_normal((2, 3)).astype(np.float32)
        assert float(TR.loss_trm(tiny_trace(h, a, p), tiny_trace(h, a, p)).data) == 0.0

    def test_zeroed_teacher_equals_sum_of_mean_squares(self):
        rng = np.random.default_rng(1)
        h = [rng.standard_normal((2, 3, 4)).astype(np.float32) for _ in range(2)]
        a = [rng.standard_normal((4, 3, 3)).astype(np.float32)]
        p = np.zeros((2, 3), dtype=np.float32)
        student = tiny_trace(h, a, p)
        teacher = tiny_trace([np.zeros_like(x) for x in h],
                             [np.zeros_like(x) for x in a], p)
        expected = sum(float((x.astype(np.float64) ** 2).mean()) for x in h) + \
            sum(float((x.astype(np.float64) ** 2).mean()) for x in a)
        assert abs(float(TR.loss_trm(student, teacher).data) - expected) < 1e-6

    def test_hand_computed_toy(self):
        hs = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        ht = np.array([[[0.0, 2.0], [3.0, 0.0]]], dtype=np.float32)
        as_ = np.array([[[2.0, 0.0], [0.0, 0.0]]], dtype=np.float32)
        at = np.array([[[0.0, 0.0], [0.0, 0.0]]], dtype=np.float32)
        p = np.zeros((1, 2), dtype=np.float32)
        # hidden MSE = (1 + 16)/4 = 4.25; attention MSE = 4/4 = 1
        got = float(TR.loss_trm(tiny_trace([hs], [as_], p),
                                tiny_trace([ht], [at], p)).data)
        assert abs(got - 5.25) < 1e-6

    def test_depth_mismatch_rejected(self):
        p = np.zeros((1, 2), dtype=np.float32)
        a = tiny_trace([np.zeros((1, 2, 2), dtype=np.float32)], [], p)
        b = tiny_trace([np.zeros((1, 2, 2), dtype=np.float32)] * 2, [], p)
        with pytest.raises(T.ShapeError):
            TR.loss_trm(a, b)

    @pytest.mark.parametrize("where", ["hidden", "attention"])
    def test_shape_mismatch_names_both_shapes(self, where):
        p = np.zeros((1, 2), dtype=np.float32)
        h, a = np.zeros((1, 2, 2), dtype=np.float32), np.zeros((2, 2, 2), dtype=np.float32)
        wide = np.zeros((1, 2, 3) if where == "hidden" else (2, 2, 3), dtype=np.float32)
        student = tiny_trace([h], [a], p)
        teacher = tiny_trace([wide if where == "hidden" else h],
                             [wide if where == "attention" else a], p)
        with pytest.raises(T.ShapeError, match=rf"\({wide.shape[0]}, 2, 2\).*\(.*3\)"):
            TR.loss_trm(student, teacher)


def _two_subtraction_loss_trm(student, teacher):
    """The earlier loss_trm, which took each difference twice."""
    total = None
    for hs, ht in zip(student.hidden, teacher.hidden):
        term = T.mean_all(T.mul(hs - ht, hs - ht))
        total = term if total is None else total + term
    for as_, at in zip(student.attention, teacher.attention):
        term = T.mean_all(T.mul(as_ - at, as_ - at))
        total = term if total is None else total + term
    return total


class TestLossTrmFrozen:
    def test_matches_two_subtraction_form(self):
        cfg = M.ModelConfig(layers=2, hidden=16, heads=2, ffn=32, vocab=6,
                            max_positions=8, classes=3, dropout=0.0)
        tokens, segments, _ = tasks.as_arrays(make_data(n=4, seed=5))
        teacher = M.forward(M.build_leaves(
            M.init_params(cfg, np.random.default_rng(70), std=0.5), trainable=False)[0],
            cfg, tokens, segments)
        student = M.forward(M.build_leaves(
            M.init_params(cfg, np.random.default_rng(71), std=0.5), trainable=False)[0],
            cfg, tokens, segments, plan=M.plan_from_notation("2-2-8"))

        def run(loss_fn):
            trace = ForwardTrace(
                hidden=[Tensor(h.data, requires_grad=True) for h in student.hidden],
                attention=[Tensor(a.data, requires_grad=True) for a in student.attention],
                logits=student.logits)
            with T.GradTape() as tape:
                loss = loss_fn(trace, teacher)
            grads = tape.gradients(loss)
            return loss.data, [grads.wrt(t) for t in trace.hidden + trace.attention]

        loss, grads = run(TR.loss_trm)
        frozen_loss, frozen_grads = run(_two_subtraction_loss_trm)
        assert loss > 0 and len(grads) == 3 + 2
        np.testing.assert_array_equal(loss, frozen_loss)
        for g, f in zip(grads, frozen_grads):
            assert np.abs(g).max() > 0
            np.testing.assert_array_equal(g, f)


class TestLossPred:
    def test_identical_logits_equal_teacher_entropy(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 5)).astype(np.float32)
        got = float(TR.loss_pred(Tensor(logits), Tensor(logits)).data)
        l64 = logits.astype(np.float64)
        probs = np.exp(l64 - l64.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        entropy = float((-probs * np.log(probs)).sum(axis=1).mean())
        assert abs(got - entropy) < 1e-6
        assert got > 0.0

    def test_one_hot_teacher_approaches_cross_entropy(self):
        student = np.array([[0.3, -0.2, 0.1]], dtype=np.float32)
        teacher = np.array([[50.0, -50.0, -50.0]], dtype=np.float32)
        got = float(TR.loss_pred(Tensor(student), Tensor(teacher)).data)
        s64 = student.astype(np.float64)[0]
        log_probs = s64 - np.log(np.exp(s64 - s64.max()).sum()) - s64.max()
        assert abs(got - (-log_probs[0])) < 1e-6

    def test_random_pair_matches_float64_reference(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((6, 4)).astype(np.float32)
        t = rng.standard_normal((6, 4)).astype(np.float32)
        got = float(TR.loss_pred(Tensor(s), Tensor(t)).data)
        s64, t64 = s.astype(np.float64), t.astype(np.float64)
        pt = np.exp(t64 - t64.max(axis=1, keepdims=True))
        pt /= pt.sum(axis=1, keepdims=True)
        ls = s64 - np.log(np.exp(s64 - s64.max(axis=1, keepdims=True))
                          .sum(axis=1, keepdims=True)) - s64.max(axis=1, keepdims=True)
        expected = float(-(pt * ls).sum() / 6)
        assert abs(got - expected) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            TR.loss_pred(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestOptimizer:
    def test_degenerate_betas_give_sign_normalized_descent(self, monkeypatch):
        # beta1 = beta2 = 0, no decay: m = g, v = g^2, update = lr*g/(|g|+eps)
        for name, value in (("BETA1", 0.0), ("BETA2", 0.0), ("WEIGHT_DECAY", 0.0)):
            monkeypatch.setattr(TR, name, value)
        params = {"w": np.array([1.0, -2.0], dtype=np.float32)}
        state = TR.OptimizerState.initial(params)
        cfg = TR.OptimizerConfig(lr=0.5, total_steps=10)
        g = np.array([0.3, -0.4], dtype=np.float32)
        TR.optimizer_step(params, {"w": g}, state, cfg)
        expected = np.array([1.0, -2.0]) - 0.5 * g / (np.abs(g) + 1e-6)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-6)

    def test_single_step_matches_hand_formula(self):
        # quadratic loss 0.5*w^2 at w=2 -> g = 2
        w0, g0, lr, wd = 2.0, 2.0, 0.1, 0.01
        params = {"w": np.array([w0], dtype=np.float32)}
        state = TR.OptimizerState.initial(params)
        cfg = TR.OptimizerConfig(lr=lr, total_steps=100)
        TR.optimizer_step(params, {"w": np.array([g0], dtype=np.float32)},
                          state, cfg)
        m = 0.1 * g0
        v = 0.001 * g0 * g0
        expected = w0 - lr * (m / (math.sqrt(v) + 1e-6) + wd * w0)
        assert abs(params["w"][0] - expected) < 1e-6

    def test_learning_rate_decays_linearly_to_zero(self):
        cfg = TR.OptimizerConfig(lr=1.0, total_steps=4)
        lrs = [TR.learning_rate(cfg, t) for t in range(5)]
        np.testing.assert_allclose(lrs, [1.0, 0.75, 0.5, 0.25, 0.0])
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_decay_exclusions(self):
        assert TR.decay_excluded("layer0.bq")
        assert TR.decay_excluded("emb.ln_g")
        assert TR.decay_excluded("layer1.ln2_b")
        assert not TR.decay_excluded("layer0.wq")
        assert not TR.decay_excluded("emb.word")

    def test_second_moment_stays_nonnegative(self):
        params = {"w": np.ones(3, dtype=np.float32)}
        state = TR.OptimizerState.initial(params)
        cfg = TR.OptimizerConfig(lr=0.1, total_steps=10)
        for _ in range(5):
            g = np.random.default_rng(0).standard_normal(3).astype(np.float32)
            TR.optimizer_step(params, {"w": g}, state, cfg)
            assert (state.v["w"] >= 0).all()


class TestTrainStep:
    def _teacher(self, seed=0, epochs=10):
        data = make_data(seed=seed)
        opt = TR.OptimizerConfig(lr=2e-3)
        settings = TR.TrainSettings(epochs=epochs, batch_size=32, eval_every=0,
                                    seed=seed)
        params, _ = TR.train_float_baseline(CFG, data, data, opt, settings)
        return params, data

    def test_zero_learning_rate_freezes_weights(self):
        teacher, data = self._teacher(epochs=2)
        plan = M.plan_from_notation("2-2-8")
        state = fresh_state(teacher, plan=plan, lr=0.0)
        tokens, segments, labels = tasks.as_arrays(data[:8])
        before = {k: v.copy() for k, v in state.params.items()}
        rec1 = TR.train_step(state, tokens, segments, labels)
        for k in before:
            np.testing.assert_array_equal(state.params[k], before[k])
        # same shadow weights, deterministic ternarization: same loss again
        state2 = fresh_state(teacher, plan=plan, lr=0.0)
        rec2 = TR.train_step(state2, tokens, segments, labels)
        assert rec1["loss_total"] == rec2["loss_total"]

    def test_teacher_never_changes(self):
        teacher, data = self._teacher(epochs=2)
        frozen = {k: v.copy() for k, v in teacher.items()}
        state = fresh_state(teacher, plan=M.plan_from_notation("2-2-8"))
        tokens, segments, labels = tasks.as_arrays(data[:16])
        for _ in range(3):
            TR.train_step(state, tokens, segments, labels)
        for k in frozen:
            np.testing.assert_array_equal(state.teacher.params[k], frozen[k])

    def test_abort_numbers_the_step_as_the_records_do(self):
        state = fresh_state(M.init_params(CFG, np.random.default_rng(40)))
        state.params["layer0.bq"][:] = np.nan
        tokens, segments, labels = tasks.as_arrays(make_data(8, seed=41))
        # the first step's record would say step 1
        with pytest.raises(TR.TrainingDiverged,
                           match=r"at step 1; first bad tensor: hidden\[2\]"):
            TR.train_step(state, tokens, segments, labels)

    def test_ground_truth_mode_ignores_teacher(self):
        teacher, data = self._teacher(epochs=1)
        bad_teacher = {k: np.full_like(v, np.nan) for k, v in teacher.items()}
        state = TR.TrainState.create(CFG, teacher, bad_teacher, None,
                                     TR.OptimizerConfig(lr=1e-3, total_steps=10),
                                     loss_cfg=TR.DistillLossConfig(False, False))
        tokens, segments, labels = tasks.as_arrays(data[:8])
        rec = TR.train_step(state, tokens, segments, labels)
        assert np.isfinite(rec["loss_total"])
        assert rec["loss_trm"] is None and rec["loss_pred"] is None

    def test_self_distillation_fixed_point(self):
        teacher, data = self._teacher(epochs=2)
        state = fresh_state(teacher, plan=None)
        tokens, segments, labels = tasks.as_arrays(data[:8])
        rec = TR.train_step(state, tokens, segments, labels)
        assert abs(rec["loss_trm"]) < 1e-10
        # identical student/teacher logits: L_pred equals teacher entropy
        leaves, _ = M.build_leaves(teacher, None, trainable=False)
        trace = M.forward(leaves, CFG, tokens, segments)
        l64 = trace.logits.data.astype(np.float64)
        probs = np.exp(l64 - l64.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        entropy = float((-probs * np.log(probs)).sum(axis=1).mean())
        assert abs(rec["loss_pred"] - entropy) < 1e-5

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        teacher, data = self._teacher(epochs=1)
        state = fresh_state(teacher, plan=None,
                            loss_cfg=TR.DistillLossConfig(False, False))
        state.params["layer0.wq"][0, 0] = np.nan
        tokens, segments, labels = tasks.as_arrays(data[:4])
        with pytest.raises(TR.TrainingDiverged) as err:
            TR.train_step(state, tokens, segments, labels)
        assert "hidden" in str(err.value) or "logits" in str(err.value)

    @pytest.mark.parametrize("act", ["minmax", "sym"])
    def test_nonfinite_under_quantized_plan_names_hidden_state(self, act):
        teacher, data = self._teacher(epochs=1)
        plan = M.plan_from_notation("2-2-8", act=act)
        state = fresh_state(teacher, plan=plan,
                            loss_cfg=TR.DistillLossConfig(False, False))
        state.params["layer0.bq"][3] = np.nan     # a bias: never quantized
        tokens, segments, labels = tasks.as_arrays(data[:4])
        with pytest.raises(TR.TrainingDiverged, match=r"first bad tensor: hidden\[2\]"):
            TR.train_step(state, tokens, segments, labels)

    def test_method_swap_mid_run_rejected(self):
        teacher, data = self._teacher(epochs=1)
        plan = M.plan_from_notation("2-2-8", method="twn")
        state = fresh_state(teacher, plan=plan)
        tokens, segments, labels = tasks.as_arrays(data[:4])
        TR.train_step(state, tokens, segments, labels)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.plan = M.plan_from_notation("2-2-8", method="lat")

    @pytest.mark.parametrize("start", ["2-2-8", None])
    def test_plan_edited_mid_run_rejected(self, start):
        # a plan and a run are frozen: an edit in place and a plan given to
        # a full-precision run are both refused at the assignment
        teacher, data = self._teacher(epochs=1)
        state = fresh_state(teacher, plan=start and M.plan_from_notation(start))
        tokens, segments, labels = tasks.as_arrays(data[:4])
        TR.train_step(state, tokens, segments, labels)
        if start:
            with pytest.raises(dataclasses.FrozenInstanceError):
                state.plan.w_gran = "row"
            return
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.plan = M.plan_from_notation("2-2-8")

    def test_loss_trm_decreases_over_moving_average(self):
        teacher, data = self._teacher(epochs=10)
        plan = M.plan_from_notation("2-2-8")
        state = fresh_state(teacher, plan=plan, lr=1e-3)
        state = dataclasses.replace(
            state, opt_cfg=dataclasses.replace(state.opt_cfg, total_steps=200))
        tokens, segments, labels = tasks.as_arrays(data)
        rng = np.random.default_rng(0)
        history = []
        for _ in range(200):
            idx = rng.choice(len(data), size=24, replace=False)
            rec = TR.train_step(state, tokens[idx], segments[idx], labels[idx])
            history.append(rec["loss_trm"])
        first = float(np.mean(history[:20]))
        last = float(np.mean(history[-20:]))
        assert last < first

    def test_stage_schedule_controls_losses(self):
        teacher, data = self._teacher(epochs=1)
        plan = M.plan_from_notation("2-2-8")
        state = TR.TrainState.create(CFG, teacher, teacher, plan,
                                     TR.OptimizerConfig(lr=1e-3, total_steps=2),
                                     loss_cfg=TR.DistillLossConfig(stages=2))
        tokens, segments, labels = tasks.as_arrays(data[:8])
        rec1 = TR.train_step(state, tokens, segments, labels)
        assert rec1["stage"] == 1
        assert rec1["loss_pred"] is None and rec1["loss_trm"] is not None
        rec2 = TR.train_step(state, tokens, segments, labels)
        assert rec2["stage"] == 2
        assert rec2["loss_pred"] is not None and rec2["loss_trm"] is not None

    def test_direct_steps_follow_the_two_stage_schedule(self):
        # the stage is a function of the step, not of run_training
        teacher = M.init_params(CFG, np.random.default_rng(3))
        state = TR.TrainState.create(CFG, teacher, teacher, None,
                                     TR.OptimizerConfig(lr=1e-3, total_steps=4),
                                     loss_cfg=TR.DistillLossConfig(stages=2))
        tokens, segments, labels = tasks.as_arrays(make_data(16))
        records = [TR.train_step(state, tokens, segments, labels) for _ in range(4)]
        assert [r["stage"] for r in records] == [1, 1, 2, 2]
        assert [r["loss_pred"] is not None for r in records] == [False, False, True, True]
        assert all(r["loss_trm"] is not None for r in records)

    @pytest.mark.parametrize("field,value", [
        ("plan", M.plan_from_notation("2-2-8")), ("config", CFG), ("teacher", None),
        ("loss_cfg", TR.DistillLossConfig(True, True)), ("opt_cfg", TR.OptimizerConfig())],
        ids=lambda v: v if isinstance(v, str) else "to")
    def test_a_created_state_is_frozen(self, field, value):
        # a state changes only through replace, which checks it again
        teacher = M.init_params(CFG, np.random.default_rng(3))
        state = fresh_state(teacher, loss_cfg=TR.DistillLossConfig(False, True))
        before = getattr(state, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, field, value)
        assert getattr(state, field) is before


class TestSettingsChecked:
    @pytest.mark.parametrize("build,reason", [
        (lambda: TR.OptimizerConfig(total_steps=0), "total_steps must be an integer >= 1"),
        (lambda: TR.OptimizerConfig(total_steps=2.0), "total_steps must be an integer"),
        (lambda: TR.TrainSettings(epochs=-3), "epochs must be an integer >= 0"),
        (lambda: TR.TrainSettings(epochs=True), "epochs must be an integer"),
        (lambda: TR.TrainSettings(eval_every=-1), "eval every must be an integer >= 0"),
        (lambda: TR.TrainSettings(batch_size=0), "batch size must be an integer >= 1"),
        (lambda: TR.TrainSettings(batch_size=1.5), "batch size must be an integer"),
        (lambda: TR.OptimizerConfig(lr=math.nan), "lr must be a finite number >= 0"),
        (lambda: TR.OptimizerConfig(lr=math.inf), "lr must be a finite number >= 0"),
        (lambda: TR.OptimizerConfig(lr=-1e-3), "lr must be a finite number >= 0"),
        (lambda: TR.OptimizerConfig(lr="1e-3"), "lr must be a finite number"),
    ], ids=["total-steps-0", "total-steps-float", "epochs-negative", "epochs-bool",
            "eval-every-negative", "batch-0", "batch-float", "lr-nan", "lr-inf",
            "lr-negative", "lr-string"])
    def test_bad_field_rejected_when_built(self, build, reason):
        with pytest.raises(ValueError, match=reason):
            build()

    def test_bounds_are_accepted(self):
        TR.OptimizerConfig(total_steps=1)
        TR.TrainSettings(epochs=0, batch_size=1, eval_every=0)


def _distilling_run():
    return fresh_state(M.init_params(CFG, np.random.default_rng(5)))


def _ground_truth_run():
    return TR.TrainState.create(CFG, M.init_params(CFG, np.random.default_rng(5)), None,
                                None, TR.OptimizerConfig(),
                                loss_cfg=TR.DistillLossConfig(False, False))


class TestReplaceChecksAgain:
    """``dataclasses.replace`` runs the checks a frozen value runs when built."""

    @pytest.mark.parametrize("build,changes,reason", [
        (lambda: CFG, {"hidden": 0}, "hidden"),
        (lambda: M.plan_from_notation("8-8-8"), {"w_gran": "row"}, "layer-wise"),
        (lambda: TR.OptimizerConfig(), {"lr": math.nan}, "lr must be a finite number"),
        (lambda: TR.TrainSettings(), {"batch_size": 0}, "batch size"),
        (lambda: TR.DistillLossConfig(False, True), {"stages": 2}, "transformer loss"),
        (lambda: TR.DistillLossConfig(), {"use_trm": "no"}, "must be bools"),
        (_distilling_run, {"teacher": None}, "no teacher"),
        (_ground_truth_run, {"loss_cfg": TR.DistillLossConfig()}, "no teacher"),
        (_distilling_run, {"config": dataclasses.replace(CFG, hidden=8)},
         "another model config"),
        (lambda: qk.GemmPlan(2, 2, 3), {"m": 1.5}, "must be ints"),
    ], ids=["model-config", "quant-plan", "optimizer", "settings", "two-stages-no-trm",
            "loss-flag-str", "state-drops-teacher", "state-distils-without-teacher",
            "state-other-config", "gemm-plan"])
    def test_replace_into_an_invalid_value_raises(self, build, changes, reason):
        value = build()
        with pytest.raises(ValueError, match=reason):
            dataclasses.replace(value, **changes)


class TestStateHoldsItsParts:
    """A state's teacher is a store and its moments are the student's."""

    def test_teacher_params_in_place_of_a_store_rejected(self):
        state = _distilling_run()
        with pytest.raises(ValueError, match="teacher must be a TeacherTargets store or "
                                             "None, got dict"):
            dataclasses.replace(state, teacher=state.teacher.params)

    @pytest.mark.parametrize("moments", [
        lambda p: ({}, {}),
        lambda p: (p, {k: v for k, v in p.items() if k != "head.b"}),
        lambda p: (p, {**p, "extra": np.zeros(1, np.float32)}),
        lambda p: ({**p, "head.b": np.zeros(1, np.float32)}, p),
    ], ids=["empty", "v-missing-one", "v-extra-name", "m-wrong-shape"])
    def test_moments_must_match_the_student(self, moments):
        state = _distilling_run()
        m, v = moments({k: np.zeros_like(a) for k, a in state.params.items()})
        with pytest.raises(ValueError, match="optimizer moment [mv] does not hold"):
            dataclasses.replace(state, opt=TR.OptimizerState(m=m, v=v))

    def test_matching_moments_accepted(self):
        state = _distilling_run()
        again = dataclasses.replace(state, opt=TR.OptimizerState.initial(state.params))
        assert again.opt.step == 0


class TestRunTraining:
    def test_batch_below_one_rejected(self):
        state = fresh_state(M.init_params(CFG, np.random.default_rng(4)))
        data = make_data(8)
        with pytest.raises(ValueError, match="batch size"):
            TR.run_training(state, data, data, TR.TrainSettings(batch_size=0))

    def test_zero_epochs_keeps_initialization(self):
        rng = np.random.default_rng(4)
        teacher = M.init_params(CFG, rng)
        state = fresh_state(teacher, plan=M.plan_from_notation("2-2-8"))
        data = make_data(32)
        metrics = TR.run_training(state, data, data,
                                  TR.TrainSettings(epochs=0, eval_every=0))
        assert metrics == []
        for k in teacher:
            np.testing.assert_array_equal(state.params[k], teacher[k])

    def test_reproducible_metrics_history(self):
        data = make_data(64, seed=5)
        opt = TR.OptimizerConfig(lr=2e-3)
        settings = TR.TrainSettings(epochs=3, batch_size=16, eval_every=2, seed=7)
        teacher, _ = TR.train_float_baseline(CFG, data, data, opt, settings)
        runs = []
        for _ in range(2):
            state = fresh_state(teacher, plan=M.plan_from_notation("2-2-8"),
                                seed=7)
            runs.append(TR.run_training(state, data, data, settings))
        assert runs[0] == runs[1]

    def test_empty_dataset_rejected(self):
        state = fresh_state(M.init_params(CFG, np.random.default_rng(0)))
        with pytest.raises(ValueError):
            TR.run_training(state, [], [], TR.TrainSettings())

    def test_mismatched_teacher_rejected(self):
        rng = np.random.default_rng(6)
        teacher = M.init_params(CFG, rng)
        other = M.ModelConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=6,
                              max_positions=8, classes=3, dropout=0.0)
        student = M.init_params(other, rng)
        with pytest.raises(ValueError):
            state = TR.TrainState.create(other, student, teacher, None,
                                         TR.OptimizerConfig(lr=1e-3))
            TR.run_training(state, make_data(16), make_data(16),
                            TR.TrainSettings(epochs=1))

    @pytest.mark.parametrize("who", ["teacher", "student"])
    def test_params_of_another_config_rejected_at_create(self, who):
        # a deeper teacher would be distilled from its first layer only; an
        # extra student entry would be weight-decayed though forward never reads it
        rng = np.random.default_rng(6)
        params = M.init_params(CFG, rng)
        deeper = M.init_params(dataclasses.replace(CFG, layers=2), rng)
        teacher, student = (deeper, params) if who == "teacher" else \
            (params, {**params, "extra.w": np.zeros((2, 2), np.float32)})
        with pytest.raises(ValueError, match=f"{who} parameters"):
            TR.TrainState.create(CFG, student, teacher, M.plan_from_notation("2-2-8"),
                                 TR.OptimizerConfig(lr=1e-3))

    def test_run_training_leaves_a_shared_optimizer_config_alone(self):
        teacher = M.init_params(CFG, np.random.default_rng(6))
        opt = TR.OptimizerConfig(lr=1e-3)
        a, b = (TR.TrainState.create(CFG, teacher, teacher, None, opt) for _ in range(2))
        data = make_data(16)
        records = TR.run_training(a, data, data, TR.TrainSettings(epochs=1, batch_size=8,
                                                                  eval_every=0))
        # the run's schedule spans its own 2 steps; the caller's config is untouched
        assert [r["lr"] for r in records] == [1e-3, 5e-4]
        assert a.opt_cfg is opt
        assert a.opt.step == 2
        assert opt.total_steps == b.opt_cfg.total_steps == TR.OptimizerConfig().total_steps
        tokens, segments, labels = tasks.as_arrays(data[:8])
        for _ in range(3):
            rec = TR.train_step(b, tokens, segments, labels)
        assert rec["lr"] > 0

    @pytest.mark.parametrize("cfg", [TR.OptimizerConfig(), TR.DistillLossConfig(),
                                     TR.TrainSettings()], ids=lambda c: type(c).__name__)
    def test_settings_are_frozen(self, cfg):
        name = dataclasses.fields(cfg)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))

    def test_evaluate_empty_rejected(self):
        with pytest.raises(ValueError):
            TR.evaluate(M.init_params(CFG, np.random.default_rng(0)), CFG, [])

    def test_evaluate_refuses_nonfinite_logits(self):
        params = M.init_params(CFG, np.random.default_rng(0))
        params["head.b"][0] = np.inf
        with pytest.raises(TR.TrainingDiverged, match="non-finite logits"):
            TR.evaluate(params, CFG, make_data(8))

    def test_training_steps_yields_the_records_of_run_training(self):
        teacher = M.init_params(CFG, np.random.default_rng(6))
        data = make_data(40, seed=9)
        settings = TR.TrainSettings(epochs=2, batch_size=16, eval_every=2, seed=9)
        a, b = (fresh_state(teacher, plan=M.plan_from_notation("2-2-8"), seed=9)
                for _ in range(2))
        steps = TR.training_steps(a, data, data, settings)
        first = next(steps)
        # the first record is out while the rest of the run has not started
        assert first["step"] == a.opt.step == 1
        records = [first, *steps]
        assert records == TR.run_training(b, data, data, settings)
        assert [r["step"] for r in records] == list(range(1, 7))
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_settings_have_no_file_fields(self):
        assert [f.name for f in dataclasses.fields(TR.TrainSettings)] == \
            ["epochs", "batch_size", "eval_every", "seed"]

    def test_a_second_run_on_one_state_continues_the_decay(self):
        teacher = M.init_params(CFG, np.random.default_rng(6))
        state = TR.TrainState.create(CFG, teacher, teacher, None,
                                     TR.OptimizerConfig(lr=1e-3))
        data = make_data(16)
        settings = TR.TrainSettings(epochs=1, batch_size=8, eval_every=0)
        first = TR.run_training(state, data, data, settings)
        second = TR.run_training(state, data, data, settings)
        # one decay over all four steps: the second run is not at lr 0
        assert [r["lr"] for r in first] == [1e-3, 5e-4]
        assert [r["lr"] for r in second] == [5e-4, 2.5e-4]
        assert all(r["weight_delta"] > 0 for r in second)

    def test_two_stage_switches_midway(self):
        data = make_data(64, seed=8)
        opt = TR.OptimizerConfig(lr=2e-3)
        settings = TR.TrainSettings(epochs=2, batch_size=16, eval_every=0, seed=8)
        teacher, _ = TR.train_float_baseline(CFG, data, data, opt, settings)
        state = fresh_state(teacher, plan=M.plan_from_notation("2-2-8"),
                            stages=2)
        metrics = TR.run_training(state, data, data, settings)
        stages = [m["stage"] for m in metrics]
        assert stages[0] == 1 and stages[-1] == 2
        preds = [m["loss_pred"] for m in metrics]
        assert preds[0] is None and preds[-1] is not None


class TestTasks:
    def test_majority_labels_follow_rule(self):
        data = make_data(50, seed=9)
        for ex in data:
            counts = np.bincount(np.array(ex.tokens[1:]), minlength=4)[1:4]
            assert ex.label == int(np.argmax(counts))
            assert ex.tokens[0] == 0

    def test_parity_labels(self):
        data = tasks.make_parity_dataset(50, seq_len=8, vocab=6, seed=10)
        for ex in data:
            assert ex.label == sum(1 for t in ex.tokens[1:] if t == 1) % 2

    def test_dataset_round_trip(self, tmp_path):
        data = make_data(10, seed=11)
        path = tmp_path / "data.jsonl"
        tasks.save_dataset(str(path), data)
        again = tasks.load_dataset(str(path))
        assert again == data

    @pytest.mark.parametrize("bad", [
        tasks.Example([0, 1], [0], 1), tasks.Example([], [], 1),
        tasks.Example([0, True], [0, 0], 1), tasks.Example([0, 1], [0, 0], np.int64(1)),
        tasks.Example((0, 1), (0, 0), 1)],
        ids=["lengths", "empty", "bool-token", "numpy-label", "tuples"])
    def test_save_refuses_what_load_would(self, tmp_path, bad):
        path = tmp_path / "data.jsonl"
        with pytest.raises(ValueError, match="example 2 of"):
            tasks.save_dataset(str(path), [make_data(1, seed=13)[0], bad])
        assert not path.exists()

    @pytest.mark.parametrize("bad,reason", [
        (tasks.Example([0, 2**63], [0, 0], 1), "tokens holds an integer outside int64"),
        (tasks.Example([0, 1], [-2**63 - 1, 0], 1),
         "segments holds an integer outside int64"),
        (tasks.Example([0, 1], [0, 0], 10**26), "label is an integer outside int64"),
    ], ids=["token", "segment", "label"])
    def test_save_refuses_an_integer_outside_int64(self, tmp_path, bad, reason):
        path = tmp_path / "data.jsonl"
        with pytest.raises(ValueError, match=f"example 1 of .*: {reason}"):
            tasks.save_dataset(str(path), [bad])
        assert not path.exists()

    def test_int64_bounds_are_kept(self, tmp_path):
        path = tmp_path / "data.jsonl"
        data = [tasks.Example([2**63 - 1, -2**63], [0, 0], -2**63)]
        tasks.save_dataset(str(path), data)
        assert tasks.load_dataset(str(path)) == data

    def test_save_refuses_a_second_length(self, tmp_path):
        path = tmp_path / "data.jsonl"
        data = [tasks.Example([0, 1], [0, 0], 1), tasks.Example([0, 1, 2], [0, 0, 0], 1)]
        with pytest.raises(ValueError,
                           match="example 2 of .*: 3 tokens where the first line holds 2"):
            tasks.save_dataset(str(path), data)
        assert not path.exists()

    @pytest.mark.parametrize("label", [-1, 3, 9])
    def test_label_outside_the_classes_rejected(self, label):
        data = make_data(2, seed=14)
        data[1].label = label
        with pytest.raises(ValueError, match=f"label {label} is outside 0..2"):
            TR.cross_entropy(Tensor(np.zeros((2, 3), dtype=np.float32)),
                             tasks.as_arrays(data)[2])
        with pytest.raises(ValueError, match=f"label {label} is outside 0..2"):
            TR.evaluate(M.init_params(CFG, np.random.default_rng(15)), CFG, data)

    def test_generation_deterministic(self):
        a = make_data(20, seed=12)
        b = make_data(20, seed=12)
        assert a == b

    @pytest.mark.parametrize("seq_len", [0, 1])
    def test_majority_needs_a_body(self, seq_len):
        # with no token after CLS no class has a majority: every draw is rejected
        with pytest.raises(ValueError, match="seq_len"):
            tasks.make_majority_dataset(4, seq_len=seq_len, classes=3, vocab=6)

    @pytest.mark.parametrize("seq_len,vocab,field", [
        (0, 6, "seq_len >= 1"), (-3, 6, "seq_len >= 1"), (8, 1, "vocab >= 2"),
        (8, 0, "vocab >= 2")])
    def test_parity_needs_a_position_and_a_body_token(self, seq_len, vocab, field):
        with pytest.raises(ValueError, match=f"parity needs {field}"):
            tasks.make_dataset("parity", 4, seq_len, vocab, seed=0)

    def test_parity_keeps_its_smallest_task(self):
        # one position (CLS alone) and the ids {0, 1}: every label is 0
        assert [ex.label for ex in tasks.make_parity_dataset(3, seq_len=1, vocab=2)] \
            == [0, 0, 0]


class TestScheduleChecks:
    """A schedule that cannot run is refused when its value is built."""

    def teacher(self):
        return M.init_params(CFG, np.random.default_rng(0))

    @pytest.mark.parametrize("stages", [0, 3])
    def test_stage_count(self, stages):
        with pytest.raises(ValueError, match="stages must be 1 or 2"):
            fresh_state(self.teacher(), stages=stages)

    @pytest.mark.parametrize("stages", [True, 2.0])
    def test_stage_count_is_an_int(self, stages):
        with pytest.raises(ValueError, match="stages must be 1 or 2"):
            TR.DistillLossConfig(stages=stages)

    @pytest.mark.parametrize("flags", [("no", True), (True, 1), (None, False)])
    def test_loss_flags_are_bools(self, flags):
        # a truthy non-bool would distil with the loss it seems to switch off
        with pytest.raises(ValueError, match="use_trm and use_logits must be bools"):
            TR.DistillLossConfig(*flags)

    def test_two_stages_need_the_transformer_loss(self):
        with pytest.raises(ValueError, match="transformer loss"):
            fresh_state(self.teacher(), loss_cfg=TR.DistillLossConfig(False, True),
                        stages=2)

    @pytest.mark.parametrize("losses", [(True, True), (True, False), (False, True)])
    def test_distillation_needs_a_teacher(self, losses):
        with pytest.raises(ValueError, match="no teacher"):
            TR.TrainState.create(CFG, self.teacher(), None, None, TR.OptimizerConfig(),
                                 loss_cfg=TR.DistillLossConfig(*losses))


# the c10 acceptance geometry and the distill-d128 benchmark geometry
C10_CFG = M.ModelConfig(layers=2, hidden=32, heads=2, ffn=64, vocab=8,
                        max_positions=16, classes=4)
D128_CFG = M.ModelConfig(layers=4, hidden=128, heads=4, ffn=512, vocab=1000,
                         max_positions=32, classes=tasks.task_classes("majority"))


def geometry_data(config, n, seed):
    return tasks.make_majority_dataset(n, seq_len=config.max_positions,
                                       classes=config.classes, vocab=config.vocab,
                                       seed=seed)


class DirectTeacher:
    """A teacher that runs ``model.forward`` on every batch it is asked for."""

    def __init__(self, params, config):
        self.params, self.config = params, config
        self.leaves, _ = M.build_leaves(params, None, trainable=False)

    def trace(self, tokens, segments):
        return M.forward(self.leaves, self.config, tokens, segments)


def assert_traces_equal(got, want):
    pairs = list(zip(got.hidden, want.hidden)) + \
        list(zip(got.attention, want.attention)) + [(got.logits, want.logits)]
    assert len(got.hidden) == len(want.hidden)
    assert len(got.attention) == len(want.attention)
    for g, w in pairs:
        assert g.data.dtype == w.data.dtype and g.shape == w.shape
        assert g.data.tobytes() == w.data.tobytes()


def param_hash(params):
    return hash(tuple(params[k].tobytes() for k in sorted(params)))


class TestTeacherTargets:
    @pytest.mark.parametrize("config,n,batch", [(C10_CFG, 100, 32), (D128_CFG, 20, 16)],
                             ids=["c10-d32", "d128"])
    def test_store_matches_a_teacher_forward_every_step(self, config, n, batch):
        rng = np.random.default_rng(21)
        teacher = M.init_params(config, rng, std=0.5)
        # repeated examples make some batches part hit, part miss
        data = geometry_data(config, n, seed=22)
        data = data + data[:5]
        assert len(data) % batch != 0           # a final batch of another size
        settings = TR.TrainSettings(epochs=2, batch_size=batch, eval_every=3, seed=23)
        plan = M.plan_from_notation("2-2-8")
        direct = DirectTeacher(teacher, config)

        def make_state(t):
            return TR.TrainState.create(config, teacher, t, plan,
                                        TR.OptimizerConfig(lr=1e-3), seed=23)

        state = make_state(teacher)
        store = state.teacher
        lookup = store.trace
        batch_sizes, new_rows = [], []

        def checked(tokens, segments):
            before = len(store)
            got = lookup(tokens, segments)
            assert_traces_equal(got, direct.trace(tokens, segments))
            batch_sizes.append(len(tokens))
            new_rows.append(len(store) - before)
            return got

        store.trace = checked
        records = TR.run_training(state, data, data[:16], settings)
        steps = settings.epochs * -(-len(data) // batch)
        assert len(records) == len(batch_sizes) == steps
        assert len(set(batch_sizes)) == 2
        # some batch mixed stored rows with rows forwarded on their own
        assert any(0 < new < size for new, size in zip(new_rows, batch_sizes))
        assert len(store) == n and store.forwards == steps // 2

        reference = make_state(direct)
        assert TR.run_training(reference, data, data[:16], settings) == records
        assert param_hash(reference.params) == param_hash(state.params)

    def test_second_epoch_runs_no_teacher_forward(self, monkeypatch):
        teacher = M.init_params(CFG, np.random.default_rng(24), std=0.5)
        data = make_data(80, seed=25)
        calls = {"teacher": 0, "student": 0}
        forward = TR.forward

        def counting(*args, **kwargs):
            calls["student" if kwargs.get("train") else "teacher"] += 1
            return forward(*args, **kwargs)

        monkeypatch.setattr(TR, "forward", counting)
        state = fresh_state(teacher, plan=M.plan_from_notation("2-2-8"))
        settings = TR.TrainSettings(epochs=1, batch_size=32, eval_every=0, seed=26)
        TR.run_training(state, data, data, settings)
        assert calls == {"teacher": 3, "student": 3}
        TR.run_training(state, data, data, settings)
        assert calls == {"teacher": 3, "student": 6}
        assert state.teacher.forwards == 3 and len(state.teacher) == len(data)

    def test_probe_leaves_the_training_store_alone(self):
        teacher = M.init_params(CFG, np.random.default_rng(35), std=0.5)
        train_set, probe = make_data(64, seed=36), make_data(64, seed=37)
        state = fresh_state(teacher, plan=M.plan_from_notation("2-2-8"))
        TR.run_training(state, train_set, probe,
                        TR.TrainSettings(epochs=1, batch_size=16, eval_every=0, seed=38))
        rows, forwards = len(state.teacher), state.teacher.forwards
        got = TR.eval_loss_trm(state, probe)
        assert (len(state.teacher), state.teacher.forwards) == (rows, forwards)
        # the value of a probe through the training store, as it once ran
        tokens, segments, _ = tasks.as_arrays(probe)
        leaves, _ = M.build_leaves(state.params, state.plan,
                                   second_moments=state.opt.v, trainable=False)
        student = M.forward(leaves, CFG, tokens, segments, plan=state.plan)
        want = TR.loss_trm(student, state.teacher.trace(tokens, segments))
        assert got > 0 and got == float(want.data)

    def test_mismatched_tokens_and_segments_rejected(self):
        # the check that keeps the row keys from zipping a short batch
        store = TR.TeacherTargets(M.init_params(CFG, np.random.default_rng(27)), CFG)
        tokens, segments, _ = tasks.as_arrays(make_data(4, seed=28))
        with pytest.raises(T.ShapeError):
            store.trace(tokens, segments[:-1])
        assert len(store) == 0 and store.forwards == 0

    def test_duplicate_examples_add_no_entry(self):
        store = TR.TeacherTargets(M.init_params(CFG, np.random.default_rng(27)), CFG)
        tokens, segments, _ = tasks.as_arrays(make_data(8, seed=28))
        twice = store.trace(np.concatenate([tokens, tokens]),
                            np.concatenate([segments, segments]))
        assert len(store) == 8 and store.forwards == 1
        for h in twice.hidden:
            np.testing.assert_array_equal(h.data[:8], h.data[8:])
        size = store.nbytes
        # int32 rows are the same examples as the int64 rows they came from
        store.trace(tokens[:4].astype(np.int32), segments[:4])
        assert len(store) == 8 and store.forwards == 1 and store.nbytes == size

    def test_d128_bytes_per_example(self):
        config = D128_CFG
        store = TR.TeacherTargets(M.init_params(config, np.random.default_rng(29)), config)
        tokens, segments, _ = tasks.as_arrays(geometry_data(config, 256, seed=30))
        for start in range(0, 256, 32):
            store.trace(tokens[start:start + 32], segments[start:start + 32])
        per_example = ((config.layers + 1) * config.max_positions * config.hidden
                       + config.classes) * 4
        assert len(store) == 256
        assert store.nbytes <= 256 * per_example

    def test_ground_truth_training_never_builds_a_store(self, monkeypatch):
        def no_store(*args, **kwargs):
            raise AssertionError("ground-truth training built a teacher store")

        monkeypatch.setattr(TR, "TeacherTargets", no_store)
        data = make_data(40, seed=31)
        settings = TR.TrainSettings(epochs=1, batch_size=16, eval_every=0, seed=31)
        teacher, _ = TR.train_float_baseline(CFG, data, data, TR.OptimizerConfig(),
                                             settings)
        state = fresh_state(teacher, loss_cfg=TR.DistillLossConfig(False, False))
        assert state.teacher is None
        TR.run_training(state, data, data, settings)

    def test_ground_truth_run_given_a_store_never_reads_it(self):
        teacher = M.init_params(CFG, np.random.default_rng(32))
        store = TR.TeacherTargets(teacher, CFG)

        def no_lookup(tokens, segments):
            raise AssertionError("ground-truth training read the teacher store")

        store.trace = no_lookup
        state = TR.TrainState.create(CFG, teacher, store, None, TR.OptimizerConfig(),
                                     loss_cfg=TR.DistillLossConfig(False, False))
        assert state.teacher is None
        data = make_data(32, seed=33)
        TR.run_training(state, data, data, TR.TrainSettings(epochs=1, eval_every=0))

    def test_store_of_another_config_rejected(self):
        store = TR.TeacherTargets(M.init_params(CFG, np.random.default_rng(34)), CFG)
        other = M.ModelConfig(layers=1, hidden=16, heads=4, ffn=32, vocab=6,
                              max_positions=8, classes=3, dropout=0.0)
        with pytest.raises(ValueError, match="another model config"):
            TR.TrainState.create(other, store.params, store, None,
                                 TR.OptimizerConfig())
