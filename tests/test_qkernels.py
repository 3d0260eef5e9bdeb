import dataclasses

import numpy as np
import pytest

from tquant import actquant as aq
from tquant import qkernels as qk
from tquant import ternarize as tz
from tquant.packed import PackedTernaryBlob, pack, pack_codes_2bit

from oracles import float_reference, integer_gemm_reference


def make_weight(rng, n, k, granularity="layer"):
    return tz.twn_approx(rng.standard_normal((n, k)), granularity)


class TestGemmPlan:
    def test_overflow_rejected(self):
        with pytest.raises(qk.PlanError):
            qk.GemmPlan(m=1, n=1, k=2**24, act_scheme="minmax8")

    def test_desk_scale_fits(self):
        qk.GemmPlan(m=64, n=64, k=3072, act_scheme="minmax8")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(qk.PlanError):
            qk.GemmPlan(m=1, n=1, k=1, act_scheme="bogus")

    def test_negative_dimension_rejected(self):
        with pytest.raises(qk.PlanError, match="negative"):
            qk.GemmPlan(m=-1, n=1, k=1)

    @pytest.mark.parametrize("dims", [(1.5, 2, 3), (True, 2, 3), (2, 2, 3.0), (2, "2", 3)],
                             ids=["m-float", "m-bool", "k-float", "n-str"])
    def test_dimension_that_is_not_an_int_rejected(self, dims):
        with pytest.raises(qk.PlanError, match="dimensions must be ints"):
            qk.GemmPlan(*dims)

    def test_checked_plan_cannot_be_edited(self):
        # an edit after the check would let traffic_bytes price a k the plan refuses
        plan = qk.GemmPlan(64, 64, 64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.k = 2**40
        assert plan.k == 64


class TestTernaryGemm:
    def test_identity_selection(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        act = aq.quantize_minmax(x)
        w = tz.TernaryTensor(codes=np.eye(4, dtype=np.int8),
                             scales=np.array([1.0]), granularity="layer")
        out = qk.ternary_gemm(act, w)
        np.testing.assert_array_equal(out, aq.dequantize(act))

    def test_codes_outside_ternary_rejected(self):
        act = aq.quantize_minmax(np.array([[1.0, 2.0]], dtype=np.float32))
        w = tz.TernaryTensor(codes=np.array([[3, -2], [1, 0]], dtype=np.int8),
                             scales=np.array([1.0]), granularity="layer")
        with pytest.raises(ValueError, match="ternary_gemm"):
            qk.ternary_gemm(act, w)

    def test_int8_weight_rejected(self):
        act = aq.quantize_minmax(np.array([[1.0, 2.0]], dtype=np.float32))
        w = tz.quantize_int8(np.array([[0.5, -1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="needs a ternary weight"):
            qk.ternary_gemm(act, w)

    def test_grouped_activation_codes_rejected(self):
        # (4, 32) codes with (4, 1) ranges would otherwise give a (4, 5) product
        x = np.random.default_rng(0).standard_normal((8, 16)).astype(np.float32)
        act = aq.quantize(x, "minmax8", groups=4)
        w = tz.twn_approx(np.random.default_rng(1).standard_normal((5, 32)), "layer")
        with pytest.raises(ValueError, match="one range"):
            qk.ternary_gemm(act, w)

    @pytest.mark.parametrize("scale", [np.nan, -2.0, 0.0],
                             ids=["nan", "negative", "zero-over-nonzero-codes"])
    def test_scale_a_tqm_cannot_hold_rejected(self, scale):
        act = aq.quantize_minmax(np.array([[1.0, 2.0]], dtype=np.float32))
        codes = np.array([[1, -1], [0, 1]], dtype=np.int8)
        w = tz.TernaryTensor(codes=codes, scales=np.array([scale]), granularity="layer")
        blob = PackedTernaryBlob(rows=2, cols=2, data=pack_codes_2bit(codes),
                                 scales=np.array([scale]), granularity="layer")
        for weight in (w, blob):
            with pytest.raises(ValueError, match="ternary_gemm: .*scale"):
                qk.ternary_gemm(act, weight)

    def test_zero_weight_gives_zero(self):
        rng = np.random.default_rng(1)
        act = aq.quantize_minmax(rng.standard_normal((4, 6)))
        w = tz.TernaryTensor(codes=np.zeros((3, 6), dtype=np.int8),
                             scales=np.array([0.0]), granularity="layer")
        np.testing.assert_array_equal(qk.ternary_gemm(act, w),
                                      np.zeros((4, 3), dtype=np.float32))

    @pytest.mark.parametrize("scheme", ["minmax8", "symmetric8"])
    @pytest.mark.parametrize("granularity", ["layer", "row"])
    def test_matches_integer_reference_bit_exact(self, scheme, granularity):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal((8, 16)).astype(np.float32)
            act = aq.quantize(x, scheme)
            w = make_weight(rng, 4, 16, granularity)
            got = qk.ternary_gemm(act, w)
            ref = integer_gemm_reference(act.codes, act.params, w.codes,
                                         w.scales, granularity)
            np.testing.assert_array_equal(got, ref)

    def test_matches_float_reference_within_1e4(self):
        rng = np.random.default_rng(3)
        for scheme in ("minmax8", "symmetric8"):
            x = rng.standard_normal((8, 16)).astype(np.float32)
            act = aq.quantize(x, scheme)
            w = make_weight(rng, 4, 16, "row")
            got = qk.ternary_gemm(act, w)
            ref = float_reference(act, w)
            scale_mag = max(np.abs(ref).max(), 1e-3)
            assert np.abs(got - ref).max() / scale_mag < 1e-4

    def test_accepts_packed_blob(self):
        rng = np.random.default_rng(4)
        act = aq.quantize_minmax(rng.standard_normal((2, 8)))
        w = make_weight(rng, 3, 8)
        np.testing.assert_array_equal(qk.ternary_gemm(act, pack(w)),
                                      qk.ternary_gemm(act, w))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(5)
        act = aq.quantize_minmax(rng.standard_normal((2, 8)))
        w = make_weight(rng, 3, 9)
        with pytest.raises(ValueError):
            qk.ternary_gemm(act, w)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 16)).astype(np.float32)
        act = aq.quantize_minmax(x)
        w = make_weight(rng, 8, 16, "row")
        a = qk.ternary_gemm(act, w)
        b = qk.ternary_gemm(act, w)
        np.testing.assert_array_equal(a, b)

    def test_guard_sees_the_operands(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 16))
        w = make_weight(rng, 3, 16)
        with pytest.raises(TypeError):        # no caller-supplied plan
            qk.ternary_gemm(aq.quantize(x, "symmetric8"), w,
                            qk.GemmPlan(m=99, n=1, k=1, act_scheme="symmetric8"))
        # a limit that 16 minmax8 codes exceed and 16 symmetric8 codes do not
        monkeypatch.setattr(qk, "INT32_MAX", 16 * 255 - 1)
        with pytest.raises(qk.PlanError):
            qk.ternary_gemm(aq.quantize(x, "minmax8"), w)
        qk.ternary_gemm(aq.quantize(x, "symmetric8"), w)

    def test_exact_where_float32_accumulation_is_not(self):
        # row sums near 3.3e7 > 2^24: only an accumulator wider than a
        # float32 mantissa gets them right
        x = np.random.default_rng(9).standard_normal((2, 2**18)).astype(np.float32)
        act = aq.quantize_minmax(x)
        w = tz.TernaryTensor(codes=np.ones((2, 2**18), dtype=np.int8),
                             scales=np.array([0.03]), granularity="layer")
        assert act.codes.astype(np.int64).sum(axis=1).min() > 2**24
        ref = integer_gemm_reference(act.codes, act.params, w.codes, w.scales, "layer")
        np.testing.assert_array_equal(qk.ternary_gemm(act, w), ref)

    def test_zero_point_term_equals_naive_expansion(self):
        # out[:, j] = s*alpha_j*(C B^T)[:, j] + x_min*alpha_j*colsum_j must
        # agree with multiplying dequantized code values elementwise
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        act = aq.quantize_minmax(x)
        w = make_weight(rng, 3, 8, "row")
        got = qk.ternary_gemm(act, w)
        vals = act.codes.astype(np.float64) * act.params.scale + act.params.x_min
        deq_w = tz.dequantize(w).astype(np.float64)
        naive = (vals @ deq_w.T).astype(np.float32)
        np.testing.assert_allclose(got, naive, rtol=1e-5, atol=1e-6)


class TestBench:
    def test_zero_reps_empty_record(self):
        rec = qk.bench_gemm(qk.GemmPlan(2, 2, 2), 0)
        assert rec["repetitions"] == 0
        assert rec["ternary_ns_per_op"] == 0.0

    def test_tiny_bench_has_positive_timings(self):
        rec = qk.bench_gemm(qk.GemmPlan(2, 2, 2), 3)
        assert rec["ternary_ns_per_op"] > 0
        assert rec["float_ns_per_op"] > 0

    def test_traffic_formula(self):
        plan = qk.GemmPlan(256, 256, 256)
        expected = (256 * 256 + 3) // 4 + 256 * 256 + 256 * 256 * 4
        assert qk.traffic_bytes(plan) == expected
        rec = qk.bench_gemm(plan, 1)
        assert rec["bytes_touched"] == expected
