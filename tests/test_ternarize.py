import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tquant import ternarize as tz
from tquant.tensor import ShapeError

import reference_ternarize
from oracles import brute_force_quant, twn_approx_scalar


def residual(w, t, v=None):
    return tz.weighted_residual(w, t, v)


class TestTwnApprox:
    def test_uniform_vector(self):
        t = tz.twn_approx(np.array([1.0, 1.0, 1.0, 1.0]), "layer")
        np.testing.assert_array_equal(t.codes, [[1, 1, 1, 1]])
        assert t.scales[0] == 1.0

    def test_all_zero_group(self):
        t = tz.twn_approx(np.zeros((2, 3)), "layer")
        assert not t.codes.any()
        assert t.scales[0] == 0.0

    def test_rowwise_matches_scalar_recomputation(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        t = tz.twn_approx(w, "row")
        for r in range(3):
            _, codes, alpha = twn_approx_scalar(w[r])
            np.testing.assert_array_equal(t.codes[r], codes)
            assert t.scales[r] == np.float32(alpha)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ShapeError):
            tz.twn_approx(np.zeros((0, 3)))


class TestTwnExact:
    def test_prefers_dropping_small_elements(self):
        t = tz.twn_exact(np.array([3.0, 0.1, 0.1]), "layer")
        np.testing.assert_array_equal(t.codes, [[1, 0, 0]])
        assert t.scales[0] == 3.0

    def test_exactly_representable(self):
        w = np.array([1.0, 1.0])
        t = tz.twn_exact(w, "layer")
        np.testing.assert_array_equal(t.codes, [[1, 1]])
        assert t.scales[0] == 1.0
        assert residual(w, t) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            w = rng.standard_normal(n)
            got = residual(w, tz.twn_exact(w, "layer"))
            assert abs(got - brute_force_quant(w)) < 1e-6

    def test_handles_ties(self):
        w = np.array([2.0, 2.0, -2.0, 0.5])
        got = residual(w, tz.twn_exact(w, "layer"))
        assert abs(got - brute_force_quant(w)) < 1e-9


class TestLat:
    def test_uniform_v_matches_twn_exact_objective(self):
        rng = np.random.default_rng(2)
        for gran in ("layer", "row"):
            w = rng.standard_normal((4, 5))
            v = np.ones_like(w) * 2.5
            lat = tz.lat_subproblem(w, v, gran, "exact")
            twn = tz.twn_exact(w, gran)
            assert abs(residual(w, lat) - residual(w, twn)) < 1e-6

    def test_weighted_metric_beats_unweighted_solution(self):
        w = np.array([1.0, 1.0])
        v = np.array([100.0, 0.01])
        lat = tz.lat_subproblem(w, v, "layer", "exact")
        twn = tz.twn_exact(w, "layer")
        assert residual(w, lat, v) <= residual(w, twn, v) + 1e-12

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            w = rng.standard_normal(n)
            v = rng.random(n) * 4
            u = np.sqrt(np.maximum(v, 1e-12))
            got = residual(w, tz.lat_subproblem(w, v, "layer", "exact"), v)
            assert abs(got - brute_force_quant(w, u)) < 1e-6

    def test_approx_objective_non_increasing_in_iters(self, monkeypatch):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.standard_normal(12)
            v = rng.random(12)
            objs = []
            for k in range(1, 6):
                monkeypatch.setattr(tz, "LAT_ITERS", k)
                objs.append(residual(w, tz.lat_subproblem(w, v, "layer", "approx"), v))
            for a, b in zip(objs, objs[1:]):
                assert b <= a + 1e-12

    def test_approx_close_to_exact_on_most_instances(self):
        rng = np.random.default_rng(5)
        hits = 0
        total = 100
        for _ in range(total):
            n = int(rng.integers(4, 16))
            w = rng.standard_normal(n)
            v = rng.random(n) * 4
            exact = residual(w, tz.lat_subproblem(w, v, "layer", "exact"), v)
            approx = residual(w, tz.lat_subproblem(w, v, "layer", "approx"), v)
            assert approx >= exact - 1e-9
            if approx <= exact * 1.05 + 1e-12:
                hits += 1
        assert hits >= 95

    def test_requires_nonnegative_v(self):
        with pytest.raises(ValueError):
            tz.lat_subproblem(np.ones(3), np.array([1.0, -1.0, 1.0]))


class TestLaq3:
    def test_exact_recovery_of_representable_input(self):
        for alpha0 in (0.25, 1.0, 3.7):
            w = alpha0 * np.array([3.0, -2.0, 1.0, 0.0])
            t = tz.laq3(w, np.ones_like(w), "layer")
            np.testing.assert_array_equal(t.codes, [[3, -2, 1, 0]])
            assert abs(t.scales[0] - alpha0) < 1e-6
            assert residual(w, t) < 1e-10

    def test_scalar_element(self):
        t = tz.laq3(np.array([0.5]), np.array([1.0]), "layer")
        assert t.codes[0, 0] == 1
        assert abs(t.scales[0] - 0.5) < 1e-7

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            w = rng.standard_normal(n)
            v = rng.random(n) * 4
            u = np.sqrt(np.maximum(v, 1e-12))
            got = residual(w, tz.laq3(w, v, "layer"), v)
            assert abs(got - brute_force_quant(w, u, max_level=3)) < 1e-6

    def test_codes_within_range(self):
        rng = np.random.default_rng(7)
        t = tz.laq3(rng.standard_normal((6, 7)) * 10, rng.random((6, 7)), "row")
        assert t.codes.min() >= -3 and t.codes.max() <= 3
        assert t.max_level == 3


class TestDequantize:
    def test_simple(self):
        t = tz.TernaryTensor(codes=np.array([[1, 0, -1]], dtype=np.int8),
                             scales=np.array([2.0]), granularity="layer")
        np.testing.assert_array_equal(tz.dequantize(t), [[2.0, 0.0, -2.0]])

    def test_zero_group(self):
        t = tz.TernaryTensor(codes=np.zeros((2, 2), dtype=np.int8),
                             scales=np.array([0.0]), granularity="layer")
        np.testing.assert_array_equal(tz.dequantize(t), np.zeros((2, 2)))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        codes = rng.integers(-1, 2, size=(4, 5)).astype(np.int8)
        scales = rng.random(4).astype(np.float32) + 0.1
        t = tz.TernaryTensor(codes=codes, scales=scales, granularity="row")
        deq = tz.dequantize(t)
        for r in range(4):
            for c in range(5):
                assert deq[r, c] == np.float32(scales[r]) * codes[r, c]

    @pytest.mark.parametrize("method,needs_v", [
        ("twn_approx", False), ("twn_exact", False),
        ("lat_exact", True), ("lat_approx", True)])
    @pytest.mark.parametrize("gran", ["layer", "row"])
    def test_round_trip_bit_exact(self, method, needs_v, gran):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((5, 8))
        v = rng.random((5, 8)) * 3
        t1 = tz.quantize(w, method, gran, v if needs_v else None)
        t2 = tz.quantize(tz.dequantize(t1), method, gran, v if needs_v else None)
        np.testing.assert_array_equal(t1.codes, t2.codes)
        np.testing.assert_array_equal(t1.scales, t2.scales)

    def test_laq3_round_trip_codes_stable(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((4, 6))
        v = rng.random((4, 6))
        t1 = tz.laq3(w, v, "row")
        t2 = tz.laq3(tz.dequantize(t1), v, "row")
        np.testing.assert_array_equal(t1.codes, t2.codes)
        np.testing.assert_allclose(t1.scales, t2.scales, rtol=2e-7)


class TestInvariants:
    def test_exact_beats_approx_beats_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.standard_normal((3, 6))
            exact = residual(w, tz.twn_exact(w, "layer"))
            approx = residual(w, tz.twn_approx(w, "layer"))
            assert exact <= approx + 1e-12
            assert approx <= float((w.astype(np.float64) ** 2).sum()) + 1e-12

    @pytest.mark.parametrize("method", ["twn_approx", "twn_exact", "lat_exact",
                                        "lat_approx", "laq3"])
    def test_rowwise_no_worse_than_layerwise(self, method):
        rng = np.random.default_rng(12)
        for _ in range(25):
            w = rng.standard_normal((16, 32))
            v = rng.random((16, 32)) * 2
            needs_v = method in ("lat_exact", "lat_approx", "laq3")
            row = tz.quantize(w, method, "row", v if needs_v else None)
            layer = tz.quantize(w, method, "layer", v if needs_v else None)
            vv = v if needs_v else None
            assert residual(w, row, vv) <= residual(w, layer, vv)

    @pytest.mark.parametrize("method", ["twn_approx", "twn_exact"])
    def test_scale_equivariance_power_of_two(self, method):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((3, 5))
        fn = getattr(tz, method)
        base = fn(w, "row")
        scaled = fn(4.0 * w, "row")
        np.testing.assert_array_equal(base.codes, scaled.codes)
        np.testing.assert_array_equal(4.0 * base.scales, scaled.scales)

    def test_scale_equivariance_generic_factor(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal((3, 5))
        v = rng.random((3, 5))
        for method in ("twn_exact", "lat_exact", "lat_approx"):
            needs_v = method.startswith("lat")
            t1 = tz.quantize(w, method, "layer", v if needs_v else None)
            t2 = tz.quantize(2.7 * w, method, "layer", v if needs_v else None)
            np.testing.assert_array_equal(t1.codes, t2.codes)
            np.testing.assert_allclose(2.7 * t1.scales, t2.scales, rtol=1e-6)

    @pytest.mark.parametrize("method", ["twn_approx", "twn_exact", "lat_exact",
                                        "lat_approx", "laq3"])
    def test_sign_symmetry(self, method):
        rng = np.random.default_rng(15)
        w = rng.standard_normal((4, 6))
        v = rng.random((4, 6))
        needs_v = method in ("lat_exact", "lat_approx", "laq3")
        t1 = tz.quantize(w, method, "row", v if needs_v else None)
        t2 = tz.quantize(-w, method, "row", v if needs_v else None)
        np.testing.assert_array_equal(t1.codes, -t2.codes)
        np.testing.assert_array_equal(t1.scales, t2.scales)

    @given(st.lists(st.floats(-10, 10, allow_nan=False, width=32),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_codes_always_ternary_and_scales_nonnegative(self, values):
        w = np.array(values, dtype=np.float32)
        t = tz.twn_approx(w, "layer")
        assert set(np.unique(t.codes)) <= {-1, 0, 1}
        assert (t.scales >= 0).all()
        if not w.any():
            assert t.scales[0] == 0.0

    def test_validate_catches_zero_scale_with_codes(self):
        t = tz.TernaryTensor(codes=np.array([[1, 0]], dtype=np.int8),
                             scales=np.array([0.0]), granularity="layer")
        with pytest.raises(ValueError):
            t.validate()

    def test_dequantized_distinct_magnitudes_bound(self):
        rng = np.random.default_rng(17)
        w = rng.standard_normal((6, 9))
        layer = tz.dequantize(tz.twn_approx(w, "layer"))
        nz = np.abs(layer[layer != 0])
        assert np.unique(nz).size <= 1
        row = tz.dequantize(tz.twn_approx(w, "row"))
        nz = np.abs(row[row != 0])
        assert np.unique(nz).size <= 6

    def test_int8_weights(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((3, 4))
        t = tz.quantize_int8(w, "layer")
        assert t.max_level == 127
        deq = tz.dequantize(t)
        assert np.abs(deq - w).max() <= t.scales[0] / 2 + 1e-6


class TestQuantize:
    @pytest.mark.parametrize("method", list(tz.METHODS))
    @pytest.mark.parametrize("gran", ["layer", "row"])
    def test_same_result_as_the_public_quantizer(self, method, gran):
        rng = np.random.default_rng(18)
        w = rng.standard_normal((5, 8))
        v = rng.random((5, 8))
        got = tz.quantize(w, method, gran, v)
        want = reference_ternarize.quantize("int8" if method == "int8_sym" else method,
                                            w, v, gran)
        np.testing.assert_array_equal(got.codes, want.codes)
        assert got.scales.tobytes() == want.scales.tobytes()
        assert got.max_level == 2 ** (tz.METHODS[method][0] - 1) - 1

    @pytest.mark.parametrize("call", [
        lambda w: tz.twn_approx(w, "Layer"),
        lambda w: tz.twn_exact(w, "rows"),
        lambda w: tz.quantize_int8(w, "rows"),
        lambda w: tz.lat_subproblem(w, None),
        lambda w: tz.quantize(w, "laq3"),
        lambda w: tz.quantize(w, "twn"),
        lambda w: tz.lat_subproblem(w, np.ones_like(w), "layer", "bogus"),
        lambda w: tz.TernaryTensor(np.zeros(w.shape, np.int8), np.ones(2), "layer").validate(),
    ], ids=["twn_approx-Layer", "twn_exact-rows", "int8-rows",
            "lat-no-v", "quantize-no-v", "quantize-alias", "lat-bogus-mode",
            "validate-two-layer-scales"])
    def test_bad_arguments_raise_value_error(self, call):
        with pytest.raises(ValueError):
            call(np.random.default_rng(19).standard_normal((3, 4)))


# -- differential: the blocked group-matrix solvers against the frozen
# per-group ones, bit for bit


def _differential_cases():
    rng = np.random.default_rng(31)
    zero_rows = rng.standard_normal((7, 10))
    zero_rows[[0, 3, 6]] = 0.0
    return {
        "gaussian": (rng.standard_normal((9, 37)), rng.random((9, 37)) * 3),
        # ties and exact zeros in w, and zeros in v that hit the floor
        "small-int": (rng.integers(-3, 4, (8, 24)).astype(np.float64),
                      rng.integers(0, 3, (8, 24)).astype(np.float64)),
        "small-int-flat-v": (rng.integers(-2, 3, (6, 16)).astype(np.float64),
                             np.ones((6, 16))),
        "zero-rows": (zero_rows, rng.random((7, 10))),
        "all-zero": (np.zeros((3, 5)), rng.random((3, 5))),
        # |w| sums to 10 over 7 entries: the TWN threshold is exactly 1.0
        "on-threshold": (np.array([[3.0, 1, -1, 2, 1, -2, 0], [1, -3, 0, 2, -2, 1, 1]]),
                         np.array([[1.0, 2, 1, 3, 1, 1, 2], [2, 1, 1, 1, 3, 1, 1]])),
        "1x1": (np.array([[0.7]]), np.array([[2.0]])),
        "one-column": (rng.standard_normal((12, 1)), rng.random((12, 1))),
        "float32": ((rng.standard_normal((16, 48)) * 0.02).astype(np.float32),
                    rng.lognormal(-14.0, 2.0, (16, 48)).astype(np.float32)),
        # 23 rows of 20 in blocks of 3 rows: eight blocks, the last partial
        "many-blocks": (rng.standard_normal((23, 20)), rng.random((23, 20))),
    }


@pytest.mark.parametrize("block", [tz.BLOCK_ELEMENTS, 64])
@pytest.mark.parametrize("method", ["twn_approx", "twn_exact", "lat_exact",
                                    "lat_approx", "laq3", "int8"])
@pytest.mark.parametrize("gran", ["layer", "row"])
def test_matches_frozen_per_group_solvers(method, gran, block, monkeypatch):
    monkeypatch.setattr(tz, "BLOCK_ELEMENTS", block)
    for name, (w, v) in _differential_cases().items():
        want = reference_ternarize.quantize(method, w, v, gran)
        got = tz.quantize(w, "int8_sym" if method == "int8" else method, gran, v)
        assert got.granularity == want.granularity and got.max_level == want.max_level
        assert got.codes.shape == want.codes.shape, name
        np.testing.assert_array_equal(got.codes, want.codes, err_msg=name)
        assert got.scales.tobytes() == want.scales.tobytes(), name


def test_rowwise_peak_memory_below_one_float64_copy():
    # every row-wise solver's scratch space is one block of rows, not the
    # matrix; the loss-aware ones read a float32 v as training passes it
    rng = np.random.default_rng(32)
    bound = 8192 * 768 * np.dtype(np.float64).itemsize
    for method in tz.METHODS:
        rows = 1024 if method == "laq3" else 8192
        w = rng.standard_normal((rows, 768), dtype=np.float32)
        v = (rng.random((rows, 768), dtype=np.float32)
             if method in ("lat_exact", "lat_approx", "laq3") else None)
        tracemalloc.start()
        try:
            tz.quantize(w, method, "row", v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (method, peak)


def test_concurrent_calls_match_serial_ones():
    # each call has its own workspace: two threads quantizing at once, on
    # matrices of different shapes, get the bits of serial calls
    rng = np.random.default_rng(33)
    jobs = {
        "lat_approx": (rng.standard_normal((700, 96)), rng.random((700, 96))),
        "twn_approx": (rng.standard_normal((300, 250)).astype(np.float32), None),
    }
    want = {m: tz.quantize(w, m, "row", v) for m, (w, v) in jobs.items()}
    barrier = threading.Barrier(len(jobs), timeout=30)
    errors = []

    def work(method):
        w, v = jobs[method]
        try:
            for _ in range(5):
                barrier.wait()          # both threads start a call together
                got = tz.quantize(w, method, "row", v)
                assert got.codes.tobytes() == want[method].codes.tobytes(), method
                assert got.scales.tobytes() == want[method].scales.tobytes(), method
        except Exception as e:          # reported below, not lost in the thread
            errors.append(e)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(m,)) for m in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
