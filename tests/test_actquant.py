import numpy as np
import pytest

from tquant import actquant as aq
from tquant import tensor as T
from tquant.tensor import GradTape, Tensor

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

    def test_fake_quantize_op_gradient(self):
        x = Tensor(np.array([[0.1, -0.4, 0.9]], dtype=np.float32),
                   requires_grad=True)
        with GradTape() as tape:
            y, qa = aq.fake_quantize(x, "minmax8")
            loss = T.sum_all(y)
        g = tape.gradients(loss).wrt(x)
        np.testing.assert_array_equal(g, np.ones((1, 3), dtype=np.float32))
        np.testing.assert_allclose(y.data, x.data, atol=qa.params.scale / 2 + 1e-6)


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

        y, g = run(lambda t: aq.fake_quantize(t, scheme, groups=3)[0], x, c)
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
            again = aq.encode(aq.dequantize(qa), qa.params)
            np.testing.assert_array_equal(again, qa.codes)

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
        assert rec.counts == [2, 2]
        assert rec.total == 4

    def test_constant_tensor_single_bin(self):
        rec = aq.histogram_export(np.full(7, 3.3), 4)
        assert rec.counts[0] == 7
        assert sum(rec.counts) == 7

    def test_counts_sum_to_element_count(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((13, 9))
        rec = aq.histogram_export(x, 16)
        assert sum(rec.counts) == x.size

    def test_rejects_too_few_bins(self):
        with pytest.raises(ValueError):
            aq.histogram_export(np.ones(3), 1)

    def test_round_half_away_from_zero(self):
        x = np.array([0.5, 1.5, -0.5, -1.5, 2.4, -2.6])
        np.testing.assert_array_equal(aq.round_half_away(x),
                                      [1.0, 2.0, -1.0, -2.0, 2.0, -3.0])
