import dataclasses

import numpy as np
import pytest

from tquant import model as M
from tquant import tensor as T
from tquant import ternarize as tz
from tquant.tensor import GradTape, ShapeError, Tensor

import reference_attention
from oracles import fd_gradient, rel_norm_error

CFG = M.ModelConfig(layers=2, hidden=8, heads=2, ffn=16, vocab=10,
                    max_positions=8, classes=3, dropout=0.0)


def batch(rng, cfg=CFG, b=2, n=4):
    tokens = rng.integers(0, cfg.vocab, size=(b, n))
    segments = rng.integers(0, cfg.segments, size=(b, n))
    return tokens, segments


def run_forward(params, cfg, tokens, segments, plan=None, dtype=None, **kw):
    if dtype is not None:
        params = {k: v.astype(dtype) for k, v in params.items()}
    leaves, _ = M.build_leaves(params, plan, trainable=False)
    return M.forward(leaves, cfg, tokens, segments, plan=plan, **kw)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            M.ModelConfig(layers=1, hidden=10, heads=3, ffn=8, vocab=4)

    def test_plan_notation_round_trip(self):
        plan = M.plan_from_notation("2-2-8", method="lat")
        assert plan.notation == "2-2-8"
        assert plan.w_method == "lat_approx"

    def test_8bit_row_granularity_rejected(self):
        with pytest.raises(ValueError):
            M.plan_from_notation("8-8-8", w_gran="row")

    def test_default_granularities(self):
        for notation, grans in (("2-2-8", ("layer", "row")),
                                ("8-8-8", ("layer", "layer"))):
            plan = M.plan_from_notation(notation)
            assert (plan.w_gran, plan.e_gran) == grans
        assert M.plan_from_notation("2-8-8").e_gran == "layer"
        assert M.QuantPlan(w_bits=8, e_bits=8).e_gran == "layer"

    def test_activation_bits_restricted(self):
        with pytest.raises(ValueError):
            M.plan_from_notation("2-2-2")

    def test_3bit_resolves_to_laq(self):
        plan = M.plan_from_notation("3-3-8")
        assert plan.w_method == "laq3"

    def test_laq3_needs_a_3bit_width(self):
        for notation in ("2-2-8", "2-3-8", "3-2-8"):
            with pytest.raises(ValueError):
                M.plan_from_notation(notation, method="laq3")
        plan = M.plan_from_notation("3-3-8", method="laq3")
        assert (plan.w_method, plan.e_method) == ("laq3", "laq3")
        # a width with one method still takes it whatever was asked for
        plan = M.plan_from_notation("2-3-8", method="twn")
        assert (plan.w_method, plan.e_method) == ("twn_approx", "laq3")

    @pytest.mark.parametrize("bits", [2, 3, 8, 32])
    def test_unknown_method_rejected(self, bits):
        # it used to become the width's only method, or "none" at 32 bits
        for slot in ("w", "e"):
            with pytest.raises(ValueError, match="unknown weight method 'nonsense'"):
                M.QuantPlan(**{f"{slot}_bits": bits, f"{slot}_method": "nonsense"})

    def test_none_names_only_a_32_bit_slot(self):
        plan = M.QuantPlan(w_bits=32, e_bits=32, w_method="none", e_method="none")
        assert M.QuantPlan.from_dict(plan.to_dict()) == plan
        with pytest.raises(ValueError, match="unknown weight method 'none'"):
            M.QuantPlan(w_bits=8, w_method="none")

    @pytest.mark.parametrize("field,value", [
        ("layers", "1"), ("layers", -1), ("hidden", 8.0), ("heads", 0),
        ("vocab", True), ("dropout", "0.1"), ("dropout", 1.0)])
    def test_field_types_and_ranges(self, field, value):
        with pytest.raises(ValueError):
            M.ModelConfig(**{**CFG.to_dict(), field: value})

    def test_from_dict_needs_every_field_and_no_other(self):
        d = CFG.to_dict()
        assert M.ModelConfig.from_dict(d) == CFG
        for bad in ({k: v for k, v in d.items() if k != "dropout"},
                    {**d, "pooler": True}, [1]):
            with pytest.raises(ValueError):
                M.ModelConfig.from_dict(bad)

    def test_plan_slots(self):
        plan = M.plan_from_notation("8-2-8", "lat-exact", "layer", "row")
        assert plan.slot("w") == (8, "int8_sym", "layer")
        assert plan.slot("e") == (2, "lat_exact", "row")


class TestForward:
    def test_trace_shapes(self):
        rng = np.random.default_rng(0)
        params = M.init_params(CFG, rng)
        tokens, segments = batch(rng)
        trace = run_forward(params, CFG, tokens, segments)
        assert [h.shape for h in trace.hidden] == [(2, 4, 8)] * 3
        assert [a.shape for a in trace.attention] == [(4, 4, 4)] * 2
        assert trace.logits.shape == (2, 3)

    def test_zero_layers(self):
        cfg = M.ModelConfig(layers=0, hidden=8, heads=2, ffn=16, vocab=10,
                            max_positions=8, classes=3, dropout=0.0)
        rng = np.random.default_rng(1)
        params = M.init_params(cfg, rng)
        tokens, segments = batch(rng, cfg)
        trace = run_forward(params, cfg, tokens, segments)
        assert len(trace.hidden) == 1
        assert trace.attention == []
        assert trace.logits.shape == (2, 3)

    def test_all_zero_weights_force_uniform_attention(self):
        rng = np.random.default_rng(2)
        params = {k: np.zeros_like(v) for k, v in M.init_params(CFG, rng).items()}
        for k in params:
            if k.endswith("_g"):
                params[k] = np.ones_like(params[k])
        tokens, segments = batch(rng)
        trace = run_forward(params, CFG, tokens, segments)
        for a in trace.attention:
            np.testing.assert_array_equal(a.data, 0.0)
        np.testing.assert_allclose(
            trace.logits.data,
            np.broadcast_to(trace.logits.data[0:1, :], trace.logits.shape),
            atol=1e-7)

    def test_noop_plan_bit_identical_to_float_path(self):
        rng = np.random.default_rng(3)
        params = M.init_params(CFG, rng)
        tokens, segments = batch(rng)
        plain = run_forward(params, CFG, tokens, segments, plan=None)
        noop = run_forward(params, CFG, tokens, segments, plan=M.NOOP_PLAN)
        np.testing.assert_array_equal(plain.logits.data, noop.logits.data)
        for a, b in zip(plain.hidden, noop.hidden):
            np.testing.assert_array_equal(a.data, b.data)

    def test_quantized_forward_matches_dequantize_then_float(self):
        rng = np.random.default_rng(4)
        params = M.init_params(CFG, rng)
        tokens, segments = batch(rng)
        plan = M.plan_from_notation("2-2-8")
        quant = run_forward(params, CFG, tokens, segments, plan=plan)

        # reference: materialize dequantized weights, then run the float
        # path with the same activation plan
        deq_params = {}
        for name, value in params.items():
            q = M.quantize_param(name, value, plan)
            deq_params[name] = tz.dequantize(q) if q is not None else value
        act_only = M.QuantPlan(w_bits=32, e_bits=32, a_bits=8,
                               act_scheme=plan.act_scheme)
        ref = run_forward(deq_params, CFG, tokens, segments, plan=act_only)
        scale_mag = max(np.abs(ref.logits.data).max(), 1e-3)
        assert np.abs(quant.logits.data - ref.logits.data).max() / scale_mag < 1e-4

    def test_input_validation(self):
        rng = np.random.default_rng(5)
        params = M.init_params(CFG, rng)
        with pytest.raises(ShapeError):
            run_forward(params, CFG, np.array([[99, 0]]), np.zeros((1, 2), int))
        with pytest.raises(ShapeError):
            run_forward(params, CFG, np.zeros((1, 20), int), np.zeros((1, 20), int))

    def test_segment_id_out_of_range(self):
        params = M.init_params(CFG, np.random.default_rng(5))
        with pytest.raises(ShapeError, match="segment"):
            run_forward(params, CFG, np.zeros((1, 2), int),
                        np.array([[0, CFG.segments]]))

    def test_attention_scale_switch(self):
        # default normalizes scores by sqrt(d); the conventional variant
        # by sqrt(d_head), so outputs must differ when d != d_head
        rng = np.random.default_rng(20)
        params = M.init_params(CFG, rng)
        tokens, segments = batch(rng)
        base = run_forward(params, CFG, tokens, segments)
        alt_cfg = M.ModelConfig(**{**CFG.to_dict(), "attn_scale": "sqrt_dh"})
        alt = run_forward(params, alt_cfg, tokens, segments)
        assert not np.array_equal(base.logits.data, alt.logits.data)
        # raw traced scores are pre-normalization, identical either way
        np.testing.assert_array_equal(base.attention[0].data,
                                      alt.attention[0].data)

    def test_dropout_needs_rng(self):
        cfg = M.ModelConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=10,
                            max_positions=8, classes=3, dropout=0.1)
        rng = np.random.default_rng(6)
        params = M.init_params(cfg, rng)
        tokens, segments = batch(rng, cfg)
        with pytest.raises(ValueError):
            run_forward(params, cfg, tokens, segments, train=True)

    @pytest.mark.parametrize("layers,hidden,heads,ffn", [
        (1, 4, 1, 8), (2, 8, 2, 16), (3, 12, 4, 6)])
    def test_trace_shapes_property_sweep(self, layers, hidden, heads, ffn):
        cfg = M.ModelConfig(layers=layers, hidden=hidden, heads=heads, ffn=ffn,
                            vocab=6, max_positions=8, classes=2, dropout=0.0)
        rng = np.random.default_rng(7)
        params = M.init_params(cfg, rng)
        tokens, segments = batch(rng, cfg, b=3, n=5)
        trace = run_forward(params, cfg, tokens, segments)
        assert len(trace.hidden) == layers + 1
        assert all(h.shape == (3, 5, hidden) for h in trace.hidden)
        assert all(a.shape == (heads * 3, 5, 5) for a in trace.attention)


def attention_scores(h, wq, wk, heads):
    """Raw scores of every head, (heads*batch, n, n), as forward computes them."""
    q = T.split_heads(T.matmul(h, T.transpose_last2(wq)), heads)
    k = T.split_heads(T.matmul(h, T.transpose_last2(wk)), heads)
    return T.matmul(q, T.transpose_last2(k))


class TestAttentionScores:
    def test_single_nonzero_row_pattern(self):
        rng = np.random.default_rng(8)
        h = np.zeros((1, 3, 4), dtype=np.float32)
        h[0, 1] = rng.standard_normal(4)
        wq = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        wk = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        scores = attention_scores(Tensor(h), wq, wk, 1).data[0]
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        np.testing.assert_array_equal(scores[~mask], 0.0)

    def test_orthonormal_rows_give_gram_matrix(self):
        h = np.eye(4, dtype=np.float32).reshape(1, 4, 4)
        eye = Tensor(np.eye(4, dtype=np.float32))
        scores = attention_scores(Tensor(h), eye, eye, 1).data[0]
        np.testing.assert_allclose(scores, np.eye(4), atol=1e-6)
        assert all(scores[i, i] >= scores[i].max() for i in range(4))

    def test_matches_two_step_oracle(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((2, 5, 8)).astype(np.float32)
        wq = rng.standard_normal((8, 8)).astype(np.float32)
        wk = rng.standard_normal((8, 8)).astype(np.float32)
        scores = attention_scores(Tensor(h), Tensor(wq), Tensor(wk), CFG.heads)
        q = h.astype(np.float64) @ wq.T.astype(np.float64)
        k = h.astype(np.float64) @ wk.T.astype(np.float64)
        for hh in range(CFG.heads):
            sl = slice(hh * CFG.d_head, (hh + 1) * CFG.d_head)
            expected = q[:, :, sl] @ np.swapaxes(k[:, :, sl], 1, 2)
            b = h.shape[0]
            np.testing.assert_allclose(scores.data[hh * b:(hh + 1) * b], expected,
                                       atol=1e-5)


class TestFrozenPerHeadForward:
    """The batched-heads forward against the frozen per-head loop."""

    @staticmethod
    def run(fwd, params, cfg, tokens, segments, plan, seed):
        leaves, _ = M.build_leaves(params, plan, trainable=True)
        with GradTape() as tape:
            trace = fwd(leaves, cfg, tokens, segments, plan=plan, train=True,
                        rng=np.random.default_rng(seed))
            loss = None
            for t in trace.hidden + trace.attention + [trace.logits]:
                term = T.mean_all(T.mul(t, t))
                loss = term if loss is None else loss + term
        grads = tape.gradients(loss)
        return trace, {name: grads.wrt(leaf) for name, leaf in leaves.items()}

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("act", ["minmax8", "symmetric8", None])
    def test_bit_identical_with_dropout(self, act, heads):
        cfg = M.ModelConfig(layers=2, hidden=16, heads=heads, ffn=24, vocab=12,
                            max_positions=8, classes=3, dropout=0.2)
        rng = np.random.default_rng(40 + heads)
        params = M.init_params(cfg, rng, std=0.5)
        tokens, segments = batch(rng, cfg, b=3, n=6)
        plan = None if act is None else M.plan_from_notation("2-2-8", act=act)
        got, got_g = self.run(M.forward, params, cfg, tokens, segments, plan, 5)
        ref, ref_g = self.run(reference_attention.forward, params, cfg, tokens,
                              segments, plan, 5)
        for a, b in zip(got.hidden + got.attention, ref.hidden + ref.attention):
            np.testing.assert_array_equal(a.data, b.data)
        assert len(got.attention) == len(ref.attention) == cfg.layers
        np.testing.assert_array_equal(got.logits.data, ref.logits.data)
        for name in params:
            np.testing.assert_array_equal(got_g[name], ref_g[name], err_msg=name)


class TestTapeSize:
    @pytest.mark.parametrize("layers", [0, 1, 3])
    def test_each_linear_is_one_entry(self, monkeypatch, layers):
        # the frozen composition records transpose, matmul and the bias add
        # for each of Q, K, V and the task head; W^O, W^1 and W^2 each take
        # their fake-quant with them into one entry
        cfg = M.ModelConfig(layers=layers, hidden=16, heads=2, ffn=24, vocab=12,
                            max_positions=8, classes=3, dropout=0.0)
        rng = np.random.default_rng(50)
        params = M.init_params(cfg, rng)
        tokens, segments = batch(rng, cfg, b=3, n=6)
        plan = M.plan_from_notation("2-2-8")

        def tape_length():
            leaves, _ = M.build_leaves(params, plan, trainable=True)
            with GradTape() as tape:
                M.forward(leaves, cfg, tokens, segments, plan=plan)
            return len(tape)

        fused = tape_length()
        # embedding 6, head 3; a layer records 25 ops: 8 fake-quants (h, Q,
        # K, V, probabilities and the three in the fused layers), 6 linears,
        # 3 head splits and a merge, the K transpose, 2 matmuls, scale,
        # softmax, GeLU, 2 residual adds and 2 layer norms, less 3 fusions
        assert fused == 9 + 25 * layers
        real_linear = T.linear

        def frozen_linear(x, w, b=None, **hooks):
            # the fused layers pass an operand64 and stay one entry each
            if hooks.get("operand64") is not None:
                return real_linear(x, w, b, **hooks)
            return reference_attention._linear(x, w, b)

        monkeypatch.setattr(T, "linear", frozen_linear)
        assert fused == tape_length() - 2 * (3 * layers + 1)


class TestHeadPermutation:
    def test_permuting_heads_permutes_scores_and_keeps_mha_output(self):
        cfg = M.ModelConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=10,
                            max_positions=8, classes=3, dropout=0.0)
        rng = np.random.default_rng(10)
        params = M.init_params(cfg, rng)
        tokens, segments = batch(rng, cfg)
        base = run_forward(params, cfg, tokens, segments)

        dh = cfg.d_head
        perm = {k: v.copy() for k, v in params.items()}
        for name in ("layer0.wq", "layer0.wk", "layer0.wv"):
            w = perm[name]
            perm[name] = np.concatenate([w[dh:], w[:dh]], axis=0)
        for name in ("layer0.bq", "layer0.bk", "layer0.bv"):
            b = perm[name]
            perm[name] = np.concatenate([b[dh:], b[:dh]])
        # wo consumes the concatenated heads, so permute its input columns
        perm["layer0.wo"] = np.concatenate(
            [params["layer0.wo"][:, dh:], params["layer0.wo"][:, :dh]], axis=1)
        swapped = run_forward(perm, cfg, tokens, segments)

        b = tokens.shape[0]
        np.testing.assert_allclose(swapped.attention[0].data[:b],
                                   base.attention[0].data[b:], atol=1e-5)
        np.testing.assert_allclose(swapped.attention[0].data[b:],
                                   base.attention[0].data[:b], atol=1e-5)
        np.testing.assert_allclose(swapped.logits.data, base.logits.data,
                                   atol=1e-4)


class TestGradients:
    def test_full_model_finite_differences(self):
        rng = np.random.default_rng(11)
        params = {k: v.astype(np.float64)
                  for k, v in M.init_params(CFG, rng).items()}
        tokens, segments = batch(rng)
        labels = rng.integers(0, CFG.classes, size=2)
        onehot = np.zeros((2, CFG.classes))
        onehot[np.arange(2), labels] = 1.0

        def loss_fn(p):
            trace = run_forward(p, CFG, tokens, segments)
            log_sm = T.log_softmax_rows(trace.logits)
            return float(-(log_sm.data * onehot).sum() / 2)

        leaves, _ = M.build_leaves(params, None, trainable=True)
        with GradTape() as tape:
            trace = M.forward(leaves, CFG, tokens, segments)
            log_sm = T.log_softmax_rows(trace.logits)
            loss = T.scale(T.sum_all(T.mul(log_sm, Tensor(onehot))), -0.5)
        grads = tape.gradients(loss)
        checked = 0
        for name in ("layer0.wq", "layer1.w2", "emb.word", "head.w",
                     "layer0.ln1_g", "layer1.b1"):
            fd = fd_gradient(loss_fn, params, name)
            assert rel_norm_error(grads.wrt(leaves[name]), fd) < 1e-3, name
            checked += 1
        assert checked == 6

    def test_gradient_lands_on_dequantized_leaf(self):
        rng = np.random.default_rng(12)
        params = M.init_params(CFG, rng)
        tokens, segments = batch(rng)
        plan = M.plan_from_notation("2-2-8")
        with GradTape() as tape:
            leaves, qinfo = M.build_leaves(params, plan, trainable=True)
            trace = M.forward(leaves, CFG, tokens, segments, plan=plan)
            loss = T.mean_all(T.mul(trace.logits, trace.logits))
        grads = tape.gradients(loss)
        assert "layer0.wq" in qinfo
        assert np.abs(grads.wrt(leaves["layer0.wq"])).sum() > 0


class TestCheckpoint:
    def test_tensor_format(self):
        plan = M.plan_from_notation("2-2-8", "lat", w_gran="row")
        assert M.tensor_format("layer1.w2", plan) == ("transformer_weight", 2,
                                                       "lat_approx", "row")
        assert M.tensor_format("emb.word", plan) == ("word_embedding", 2,
                                                      "lat_approx", "row")
        fp32 = ("none", "layer")
        for name, role in [("emb.seg", "segment_embedding"),
                           ("emb.pos", "position_embedding"), ("head.w", "task_head"),
                           ("layer0.b1", "other"), ("emb.ln_g", "other")]:
            assert M.tensor_format(name, plan) == (role, 32, *fp32)
        assert M.tensor_format("emb.word", None) == ("word_embedding", 32, *fp32)
        assert M.tensor_format("layer0.wq", M.plan_from_notation("32-2-8")) == \
            ("transformer_weight", 32, *fp32)

    def test_round_trip_records_the_activation_plan(self, tmp_path):
        params = M.init_params(CFG, np.random.default_rng(60))
        plan = M.plan_from_notation("2-2-8", act="sym")
        path = tmp_path / "m.tqm"
        M.save_checkpoint(path, CFG, params, plan, extras={"seed": 60})
        ckpt = M.load_checkpoint(path)
        assert ckpt.config == CFG
        assert ckpt.file.extras == {"seed": 60, "plan": plan.to_dict()}
        assert ckpt.plan == plan
        assert set(ckpt.qinfo) == {n for n in params if M.quant_slot(n)}
        for name, value in params.items():
            q = M.quantize_param(name, value, plan)
            want = value if q is None else tz.dequantize(q)
            assert ckpt.params[name].dtype == np.float32
            np.testing.assert_array_equal(ckpt.params[name], want)

    @pytest.mark.parametrize("plan", [None, M.plan_from_notation("2-2-8")])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, plan):
        # params of a 2-layer model under a 1-layer config: the reader would
        # raise ManifestError at layer1's tensors, so nothing is written
        params = M.init_params(CFG, np.random.default_rng(62))
        one_layer = M.ModelConfig.from_dict({**CFG.to_dict(), "layers": 1})
        with pytest.raises(ValueError, match="layer1.b1: stored as"):
            M.save_checkpoint(tmp_path / "m.tqm", one_layer, params, plan)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("plan", [None, M.plan_from_notation("2-2-32")])
    def test_float_activations_keep_the_recorded_plan(self, tmp_path, plan):
        params = M.init_params(CFG, np.random.default_rng(61))
        M.save_checkpoint(tmp_path / "m.tqm", CFG, params, plan)
        assert M.load_checkpoint(tmp_path / "m.tqm").plan == plan

    def test_every_plan_reads_back_as_recorded(self, tmp_path, fingerprint):
        # the fingerprint's plans: every valid slot choice of each of w and
        # e, times three activation settings, and no plan
        config = fingerprint.MICRO
        rng = np.random.default_rng(64)
        params = M.init_params(config, rng, std=0.5)
        moments = {k: np.abs(rng.standard_normal(v.shape)).astype(np.float32) * 1e-3
                   for k, v in params.items()}
        first, again = tmp_path / "a.tqm", tmp_path / "b.tqm"
        for i, plan in enumerate(fingerprint.plans()):
            M.save_checkpoint(first, config, params, plan,
                              second_moments=moments if i % 2 else None,
                              extras={"index": i})
            ckpt = M.load_checkpoint(first)
            assert ckpt.plan == plan
            M.save_checkpoint(again, ckpt.config, ckpt.params, ckpt.plan,
                              extras=ckpt.file.extras)
            if plan is None or "laq3" not in (plan.w_method, plan.e_method):
                assert first.read_bytes() == again.read_bytes(), plan
                continue
            # laq3's decoded level 3 (3 * scale) rounds to float32, so its
            # scale may come back one ulp off; the codes do not move
            reread = M.load_checkpoint(again)
            for name, q in ckpt.qinfo.items():
                np.testing.assert_array_equal(reread.qinfo[name].codes, q.codes)
                np.testing.assert_array_max_ulp(reread.qinfo[name].scales, q.scales, 1)
        plan = M.plan_from_notation("2-2-8")
        M.save_checkpoint(first, config, params, plan)
        ckpt = M.load_checkpoint(first)
        assert M.size_report(ckpt.config, ckpt.plan) == M.size_report(config, plan)


# (notation, field, value): at the parent each edit, made after the plan was
# checked, made save_checkpoint write a file that load_checkpoint refused
PLAN_EDITS = [("8-8-8", "e_gran", "row"), ("2-2-8", "act_scheme", "nope"),
              ("2-2-8", "w_bits", 3)]


class TestFrozenPlan:
    @pytest.mark.parametrize("notation, field, value", PLAN_EDITS)
    def test_edit_after_the_check_refused(self, tmp_path, notation, field, value):
        config = M.ModelConfig(layers=1, hidden=8, heads=2, ffn=16, vocab=10,
                               max_positions=8, classes=3)
        plan = M.plan_from_notation(notation)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, field, value)
        assert plan == M.plan_from_notation(notation)
        M.save_checkpoint(tmp_path / "m.tqm", config,
                          M.init_params(config, np.random.default_rng(63)), plan)
        assert M.load_checkpoint(tmp_path / "m.tqm").file.extras["plan"] == \
            plan.to_dict()

    @pytest.mark.parametrize("notation, field, value", PLAN_EDITS[:2])
    def test_replace_checks_again(self, notation, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(M.plan_from_notation(notation), **{field: value})
