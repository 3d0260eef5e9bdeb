import tracemalloc
import warnings

import numpy as np
import pytest

from tquant import actquant as aq
from tquant import tensor as T
from tquant.tensor import GradTape, Tensor

import reference_actquant
import reference_attention


def scalar_minmax_reference(arr):
    """Quantize-dequantize each element with explicit scalar arithmetic."""
    x_min = min(float(v) for v in arr)
    x_max = max(float(v) for v in arr)
    s = (x_max - x_min) / 255.0
    out = []
    for v in arr:
        if s == 0.0:
            out.append(x_min)
            continue
        code = np.floor(abs((float(v) - x_min) / s) + 0.5)
        code = min(max(code, 0), 255)
        out.append(code * s + x_min)
    return np.array(out, dtype=np.float32), s


class TestMinMax:
    def test_exactly_representable_grid(self):
        k = 0.25
        x = np.arange(256, dtype=np.float32) * k
        qa = aq.quantize_minmax(x)
        assert abs(qa.params.scale - k) < 1e-12
        np.testing.assert_array_equal(qa.codes, np.arange(256, dtype=np.uint8))
        np.testing.assert_allclose(aq.dequantize(qa), x, atol=1e-6)

    def test_constant_tensor_reconstructs_exactly(self):
        qa = aq.quantize_minmax(np.array([5.0, 5.0, 5.0]))
        assert qa.params.scale == 0.0
        np.testing.assert_array_equal(aq.dequantize(qa), [5.0, 5.0, 5.0])

    def test_reconstruction_bound_and_scalar_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(64).astype(np.float32) * rng.uniform(0.1, 10)
            qa = aq.quantize_minmax(x)
            deq = aq.dequantize(qa)
            assert np.abs(deq - x).max() <= qa.params.scale / 2 + 1e-6
            ref, s = scalar_minmax_reference(x)
            np.testing.assert_allclose(deq, ref, atol=1e-6)

    def test_codes_in_range(self):
        rng = np.random.default_rng(1)
        qa = aq.quantize_minmax(rng.standard_normal((8, 8)))
        assert qa.codes.dtype == np.uint8


class TestSymmetric:
    def test_extremes(self):
        qa = aq.quantize_symmetric(np.array([-1.0, 1.0]))
        assert abs(qa.params.scale - 1 / 127) < 1e-9
        np.testing.assert_array_equal(qa.codes, [-127, 127])
        np.testing.assert_allclose(aq.dequantize(qa), [-1.0, 1.0], atol=1e-7)

    def test_all_zero(self):
        qa = aq.quantize_symmetric(np.zeros(4))
        assert qa.params.scale == 1.0
        np.testing.assert_array_equal(aq.dequantize(qa), np.zeros(4))

    def test_skewed_tensor_worse_than_minmax(self):
        rng = np.random.default_rng(2)
        x = np.clip(rng.standard_normal(512), -3.0, 0.1).astype(np.float32)
        x[0], x[1] = -3.0, 0.1
        err_mm = float(((aq.dequantize(aq.quantize_minmax(x)) - x) ** 2).mean())
        err_sym = float(((aq.dequantize(aq.quantize_symmetric(x)) - x) ** 2).mean())
        assert err_mm < err_sym

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(64).astype(np.float32)
            qa = aq.quantize_symmetric(x)
            assert np.abs(aq.dequantize(qa) - x).max() <= qa.params.scale / 2 + 1e-6


class TestSte:
    def test_in_range_passes_unchanged(self):
        x = np.linspace(-1, 1, 16).astype(np.float32)
        qa = aq.quantize_symmetric(x)
        g = np.arange(16, dtype=np.float32)
        np.testing.assert_array_equal(aq.ste_backward(g, x, qa.params), g)

    def test_out_of_range_zeroed(self):
        params = aq.ActQuantParams("symmetric8", -1.0, 1.0, 1.0 / 127)
        x = np.array([0.5, 2.0, -3.0], dtype=np.float32)
        g = np.ones(3, dtype=np.float32)
        np.testing.assert_array_equal(aq.ste_backward(g, x, params), [1.0, 0.0, 0.0])

    def test_mixed_mask_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(40).astype(np.float32) * 2
        params = aq.ActQuantParams("minmax8", -1.5, 1.5, 3.0 / 255)
        g = rng.standard_normal(40).astype(np.float32)
        got = aq.ste_backward(g, x, params)
        for i in range(40):
            expect = g[i] if -1.5 <= x[i] <= 1.5 else 0.0
            assert got[i] == np.float32(expect)

    @pytest.mark.parametrize("groups", [1, 4])
    def test_symmetric8_float32_mask_is_all_ones(self, groups):
        # 127 * (peak / 127) may fall below the peak in float64, never once
        # rounded to float32
        rng = np.random.default_rng(6)
        for _ in range(200):
            magnitude = np.exp2(rng.uniform(-100, 100, (groups, 1)))
            x = (rng.standard_normal((groups, 64)) * magnitude).astype(np.float32)
            assert aq.ste_mask(x, aq.quantize(x, "symmetric8", groups).params).all()
        x64 = np.array([0.1, 0.993])     # 127 * (0.993 / 127) < 0.993
        assert not aq.ste_mask(x64, aq.quantize_symmetric(x64).params).all()

    def test_fake_quantize_op_gradient(self):
        x = Tensor(np.array([[0.1, -0.4, 0.9]], dtype=np.float32),
                   requires_grad=True)
        with GradTape() as tape:
            y = aq.fake_quantize(x, "minmax8")
            loss = T.sum_all(y)
        g = tape.gradients(loss).wrt(x)
        np.testing.assert_array_equal(g, np.ones((1, 3), dtype=np.float32))
        scale = aq.quantize(x, "minmax8").params.scale
        np.testing.assert_allclose(y.data, x.data, atol=scale / 2 + 1e-6)


class TestGroups:
    @pytest.mark.parametrize("scheme", ["minmax8", "symmetric8"])
    def test_matches_frozen_per_slice_fake_quant(self, scheme):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 2, 3)).astype(np.float32)
        # 127 * (p / 127) < p in float64 for this float32 peak, so the clip
        # bound only holds it when rounded to float32 first
        x[0:2] = np.clip(x[0:2], -1.5, 1.5)
        x[0, 1, 2] = 1.9995038509368896
        x[2:4] = 0.5      # a constant slice
        x[4:6] = 0.0      # an all-zero slice
        c = rng.standard_normal(x.shape).astype(np.float32)

        def run(fq, arr, weights):
            leaf = Tensor(arr, requires_grad=True)
            with GradTape() as tape:
                y = fq(leaf)
                loss = T.sum_all(T.mul(y, Tensor(weights)))
            return y.data, tape.gradients(loss).wrt(leaf)

        y, g = run(lambda t: aq.fake_quantize(t, scheme, groups=3), x, c)
        for i in range(3):
            sl = slice(2 * i, 2 * i + 2)
            y_ref, g_ref = run(lambda t: reference_attention.fake_quantize(t, scheme)[0],
                               x[sl], c[sl])
            np.testing.assert_array_equal(y[sl], y_ref)
            np.testing.assert_array_equal(g[sl], g_ref)
        assert g[0, 1, 2] == c[0, 1, 2]

    def test_leading_axis_must_split(self):
        with pytest.raises(T.ShapeError):
            aq.fake_quantize(Tensor(np.zeros((5, 2), dtype=np.float32)), "minmax8", 2)


def run_op(op, arr, weights):
    """Values and gradient of ``sum(op(x) * weights)`` at x = arr."""
    leaf = Tensor(arr, requires_grad=True)
    with GradTape() as tape:
        y = op(leaf)
        loss = T.sum_all(T.mul(y, Tensor(weights)))
    return y.data, tape.gradients(loss).wrt(leaf)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def frozen_cases():
    """Inputs that stress fake-quant's rounding, ranges and signed zeros."""
    rng = np.random.default_rng(11)
    ties = np.concatenate([np.arange(0, 511) * 0.25,            # minmax8: t = k / 2
                           np.arange(-254, 255) * 0.5])          # symmetric8: s = 1
    peak = rng.standard_normal((4, 3, 5)).astype(np.float32)
    peak = np.clip(peak, -1.5, 1.5)
    peak[1, 2, 3] = 1.9995038509368896     # 127 * (p / 127) < p in float64
    grouped = rng.standard_normal((8, 3, 5)).astype(np.float32)
    grouped[2:4] = 0.5                      # a constant group: minmax8 s = 0
    grouped[4:6] = 0.0                      # an all-zero group
    grouped[4, 0, 0] = -0.0
    small_neg = (rng.standard_normal(64) * 3).astype(np.float32)
    small_neg[:8] = -np.float32(1e-4) * np.arange(1, 9)   # codes round to -0
    small_neg[8] = -0.0
    return {
        "ties_minmax": (np.arange(0, 511, dtype=np.float32) * 0.25, 1),
        "ties_symmetric": (np.arange(-254, 255, dtype=np.float32) * 0.5, 1),
        "ties_mixed": (ties.astype(np.float32).reshape(2, -1), 2),
        "constant": (np.full((3, 4), 0.7, dtype=np.float32), 1),
        "all_zero": (np.array([0.0, -0.0, 0.0, -0.0], dtype=np.float32), 1),
        "grouped_heads": (grouped, 4),
        "float32_peak": (peak, 1),
        "float32_peak_grouped": (peak, 2),
        "small_negatives": (small_neg, 1),
        "float64_input": (rng.standard_normal((6, 7)) * 2.5, 3),
        "float64_peak": (peak.astype(np.float64), 1),   # symmetric8 clips the peak
        "random": (rng.standard_normal((4, 8, 16)).astype(np.float32) * 40, 4),
    }


class TestFrozenFakeQuant:
    """The one-buffer fake-quant against the frozen codes-then-dequantize path."""

    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    @pytest.mark.parametrize("case", sorted(frozen_cases()))
    def test_values_and_gradients_match_frozen(self, scheme, case):
        x, groups = frozen_cases()[case]
        c = np.random.default_rng(12).standard_normal(x.shape).astype(x.dtype)
        y, g = run_op(lambda t: aq.fake_quantize(t, scheme, groups), x, c)
        y_ref, g_ref = run_op(
            lambda t: reference_actquant.fake_quantize(t, scheme, groups)[0], x, c)
        assert_same_bits(y, y_ref)
        assert_same_bits(g, g_ref)

    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    def test_random_inputs_match_frozen(self, scheme):
        rng = np.random.default_rng(13)
        for _ in range(40):
            x = (rng.standard_normal((4, 6, 8)) * rng.uniform(0.01, 50)).astype(np.float32)
            c = rng.standard_normal(x.shape).astype(np.float32)
            for groups in (1, 4):
                y, g = run_op(lambda t: aq.fake_quantize(t, scheme, groups), x, c)
                y_ref, g_ref = run_op(
                    lambda t: reference_actquant.fake_quantize(t, scheme, groups)[0], x, c)
                assert_same_bits(y, y_ref)
                assert_same_bits(g, g_ref)

    def test_codes_path_unchanged(self):
        for x, groups in frozen_cases().values():
            for scheme in aq.SCHEMES:
                qa = aq.quantize(x, scheme, groups)
                ref = reference_actquant.quantize(x, scheme, groups)
                assert_same_bits(qa.codes, ref.codes)
                assert_same_bits(aq.dequantize(qa), reference_actquant.dequantize(ref))


class TestFakeQuantLinear:
    """``fake_quant_linear`` against ``fake_quantize`` then ``linear``: the
    output and the gradients of x, w and b, byte for byte."""

    @staticmethod
    def run(op, x, w, b, c):
        leaves = [None if a is None else Tensor(a, requires_grad=True) for a in (x, w, b)]
        with GradTape() as tape:
            y = op(*leaves)
            loss = T.sum_all(T.mul(y, Tensor(c)))
        grads = tape.gradients(loss)
        return [y.data] + [grads.wrt(t) for t in leaves if t is not None]

    def assert_fused_matches(self, scheme, x, n_out, bias):
        rng = np.random.default_rng(x.size + n_out)
        dtype = x.dtype
        w = (rng.standard_normal((n_out, x.shape[-1])) * 0.1).astype(dtype)
        b = rng.standard_normal(n_out).astype(dtype) if bias else None
        c = rng.standard_normal(x.shape[:-1] + (n_out,)).astype(dtype)
        got = self.run(lambda t, wt, bt: aq.fake_quant_linear(t, scheme, wt, bt), x, w, b, c)
        want = self.run(lambda t, wt, bt: T.linear(aq.fake_quantize(t, scheme), wt, bt),
                        x, w, b, c)
        assert len(got) == len(want) == (4 if bias else 3)
        for g, r in zip(got, want):
            assert_same_bits(g, r)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("case", list(frozen_cases()))
    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    def test_frozen_cases(self, scheme, case, bias):
        x, _ = frozen_cases()[case]
        x = x.reshape(-1, x.shape[-1]) if x.ndim > 1 else x.reshape(1, -1)
        self.assert_fused_matches(scheme, x, 3, bias)

    @pytest.mark.parametrize("x_shape,n_out", [((3, 7, 16), 5), ((32, 32, 128), 96)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    def test_random_inputs_over_blocks(self, scheme, bias, x_shape, n_out, monkeypatch):
        if x_shape[-1] == 16:
            monkeypatch.setattr(T, "BLOCK_ELEMENTS", 64)    # 336 elements, 6 blocks
        x = np.random.default_rng(71).standard_normal(x_shape).astype(np.float32) * 3
        self.assert_fused_matches(scheme, x, n_out, bias)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    def test_nonfinite_input_keeps_the_unfused_values(self, scheme, bad):
        # no codes exist; the fused op keeps the float32 values, so its NaNs
        # carry the unfused pair's signs and payloads
        x = np.random.default_rng(72).standard_normal((4, 6)).astype(np.float32)
        x[2, 3] = bad
        with np.errstate(invalid="ignore"):
            self.assert_fused_matches(scheme, x, 5, True)


class TestOneRounding:
    """fake_quantize is dequantize(quantize(x)): one rounding, one scale-back."""

    @staticmethod
    def assert_fake_is_dequantized_codes(x, scheme, groups):
        fake = aq.fake_quantize(Tensor(x), scheme, groups).data
        deq = aq.dequantize(aq.quantize(x, scheme, groups))
        assert_same_bits(fake, deq.reshape(x.shape).astype(x.dtype))

    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    @pytest.mark.parametrize("case", sorted(frozen_cases()))
    def test_frozen_cases(self, scheme, case):
        x, groups = frozen_cases()[case]
        for g in sorted({1, groups}):
            self.assert_fake_is_dequantized_codes(x, scheme, g)

    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    def test_random_inputs(self, scheme):
        rng = np.random.default_rng(15)
        for i in range(40):
            x = rng.standard_normal((4, 6, 8)) * 10 ** rng.uniform(-4, 4)
            x = x if i % 4 == 0 else x.astype(np.float32)
            for groups in (1, 2, 4):
                self.assert_fake_is_dequantized_codes(x, scheme, groups)


def block_cases():
    """Inputs whose groups split into partial 64-element blocks, with +-0."""
    for i, (shape, dtype) in enumerate([((4, 5, 11), np.float32), ((4, 5, 11), np.float64),
                                        ((4, 61), np.float32), ((8, 3, 3), np.float64),
                                        ((4, 64), np.float32), ((12, 17), np.float32)]):
        rng = np.random.default_rng(70 + i)
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2)
        x.flat[:4] = [0.0, -0.0, 0.0, -0.0]
        x.flat[-3:] = [-0.0, 0.0, -1e-9]
        yield x.astype(dtype)


class TestBlockBoundaries:
    """Fake-quant and codes at a 64-element block equal the frozen path."""

    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    def test_fake_quantize_matches_frozen(self, scheme, groups, monkeypatch):
        monkeypatch.setattr(T, "BLOCK_ELEMENTS", 64)
        for x in block_cases():
            c = np.random.default_rng(x.size).standard_normal(x.shape).astype(x.dtype)
            y, g = run_op(lambda t: aq.fake_quantize(t, scheme, groups), x, c)
            y_ref, g_ref = run_op(
                lambda t: reference_actquant.fake_quantize(t, scheme, groups)[0], x, c)
            assert_same_bits(y, y_ref)
            assert_same_bits(g, g_ref)

    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    def test_quantize_matches_frozen(self, scheme, groups, monkeypatch):
        monkeypatch.setattr(T, "BLOCK_ELEMENTS", 64)
        for x in block_cases():
            qa = aq.quantize(x, scheme, groups)
            ref = reference_actquant.quantize(x, scheme, groups)
            assert_same_bits(qa.codes, ref.codes)
            for got, want in zip((qa.params.x_min, qa.params.x_max, qa.params.scale),
                                 (ref.params.x_min, ref.params.x_max, ref.params.scale)):
                assert_same_bits(np.asarray(got, np.float64), np.asarray(want, np.float64))

    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    def test_peak_is_output_and_one_block(self, scheme, groups):
        x = Tensor(np.random.default_rng(66).standard_normal((32, 32, 512), dtype=np.float32))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            y = aq.fake_quantize(x, scheme, groups)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= y.data.nbytes + 8 * T.BLOCK_ELEMENTS + 64 * 1024


@pytest.mark.parametrize("scheme", aq.SCHEMES)
def test_fake_quantize_peak_memory_within_two_float64_copies(scheme):
    x = Tensor(np.random.default_rng(14).standard_normal((32, 32, 512), dtype=np.float32))
    tracemalloc.start()
    try:
        aq.fake_quantize(x, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * x.size * np.dtype(np.float64).itemsize


class TestNonFinite:
    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_codes_refuse_a_nonfinite_range(self, scheme, bad):
        x = np.linspace(-1, 1, 12).astype(np.float32).reshape(4, 3)
        x[3, 1] = bad
        for groups in (1, 2):
            with pytest.raises(ValueError, match="not finite"):
                aq.quantize(x, scheme, groups)

    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    def test_fake_quant_passes_nan_through_without_a_cast(self, scheme):
        x = np.linspace(-1, 1, 12).astype(np.float32).reshape(4, 3)
        x[3, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y = aq.fake_quantize(Tensor(x), scheme, groups=2).data
        assert np.isnan(y[2:]).all()
        ref = reference_actquant.fake_quantize(Tensor(x[:2]), scheme)[0].data
        assert_same_bits(y[:2], ref)

    @pytest.mark.parametrize("scheme", aq.SCHEMES)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_fake_quant_passes_inf_through_as_nonfinite(self, scheme, bad):
        x = np.linspace(-1, 1, 12).astype(np.float32)
        x[5] = bad
        with np.errstate(invalid="ignore"):
            y = aq.fake_quantize(Tensor(x), scheme).data
        assert not np.isfinite(y[5])


class TestIdempotence:
    @pytest.mark.parametrize("scheme", ["minmax8", "symmetric8"])
    def test_requantizing_dequantized_reproduces_codes(self, scheme):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(128).astype(np.float32)
        qa1 = aq.quantize(x, scheme)
        qa2 = aq.quantize(aq.dequantize(qa1), scheme)
        np.testing.assert_array_equal(qa1.codes, qa2.codes)

    @pytest.mark.parametrize("scheme", ["minmax8", "symmetric8"])
    def test_encoding_dequantized_under_same_params_is_exact(self, scheme):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = (rng.standard_normal(100) * rng.uniform(0.1, 20)).astype(np.float32)
            qa = aq.quantize(x, scheme)
            p = qa.params
            again = aq._round_codes(aq.dequantize(qa).reshape(1, -1),
                                    np.array([[p.x_min]]), np.array([[p.scale]]), scheme)
            np.testing.assert_array_equal(again.reshape(qa.shape), qa.codes)

    def test_minmax_mse_no_worse_on_skewed_population(self):
        rng = np.random.default_rng(6)
        wins = 0
        for _ in range(50):
            sigma = rng.uniform(0.5, 2.0)
            x = rng.standard_normal(256) * sigma
            x = np.clip(x, -3 * sigma, 0.1 * sigma).astype(np.float32)
            mm = float(((aq.dequantize(aq.quantize_minmax(x)) - x) ** 2).mean())
            sym = float(((aq.dequantize(aq.quantize_symmetric(x)) - x) ** 2).mean())
            if mm <= sym:
                wins += 1
        assert wins == 50


class TestHistogram:
    def test_simple_two_bins(self):
        rec = aq.histogram_export(np.array([0.0, 1.0, 2.0, 3.0]), 2)
        assert rec["counts"] == [2, 2]
        assert rec["total"] == 4

    def test_constant_tensor_single_bin(self):
        rec = aq.histogram_export(np.full(7, 3.3), 4)
        assert rec["counts"][0] == 7
        assert sum(rec["counts"]) == 7

    def test_counts_sum_to_element_count(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((13, 9))
        rec = aq.histogram_export(x, 16)
        assert sum(rec["counts"]) == x.size

    def test_rejects_too_few_bins(self):
        with pytest.raises(ValueError):
            aq.histogram_export(np.ones(3), 1)

    def test_round_half_away_from_zero(self):
        x = np.array([0.5, 1.5, -0.5, -1.5, 2.4, -2.6])
        np.testing.assert_array_equal(aq.round_half_away(x),
                                      [1.0, 2.0, -1.0, -2.0, 2.0, -3.0])
