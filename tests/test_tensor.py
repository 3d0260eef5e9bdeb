import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tquant import model as M
from tquant import tensor as T
from tquant.tensor import GradTape, Tensor

from oracles import (fd_gradient, gaussian_cdf_quadrature, matmul_triple_loop,
                     rel_norm_error, softmax_reference)
import reference_actquant
import reference_attention


def t64(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(T.matmul(eye, b).data, b.data)

    def test_scalar_case(self):
        out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        got = T.matmul(Tensor(a), Tensor(b)).data
        ref = matmul_triple_loop(a, b)
        np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batched_against_per_example(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4, 5)).astype(np.float32)
        w = rng.standard_normal((5, 2)).astype(np.float32)
        got = T.matmul(Tensor(a), Tensor(w)).data
        for i in range(3):
            np.testing.assert_allclose(got[i], matmul_triple_loop(a[i], w), atol=1e-6)

    def test_associativity_with_identity(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((3, 3)).astype(np.float32))
        eye = Tensor(np.eye(3, dtype=np.float32))
        left = T.matmul(T.matmul(a, eye), a)
        right = T.matmul(a, T.matmul(eye, a))
        np.testing.assert_array_equal(left.data, right.data)


class TestLinear:
    """``linear`` against the frozen ``matmul(x, transpose_last2(w)) + b``."""

    @staticmethod
    def run(op, x, w, b, c):
        leaves = [None if a is None else Tensor(a, requires_grad=True) for a in (x, w, b)]
        with GradTape() as tape:
            y = op(*leaves)
            loss = T.sum_all(T.mul(y, Tensor(c)))
        grads = tape.gradients(loss)
        return [y.data] + [grads.wrt(t) for t in leaves if t is not None]

    @pytest.mark.parametrize("x_shape,n_out", [
        ((4, 5), 3), ((2, 3, 5), 3), ((3, 5, 7), 11),
        ((32, 32, 128), 384), ((32, 32, 128), 512), ((32, 32, 512), 128)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_frozen_composition(self, x_shape, n_out, bias, dtype):
        rng = np.random.default_rng(x_shape[-1] * n_out + bias)
        x = rng.standard_normal(x_shape).astype(dtype)
        w = (rng.standard_normal((n_out, x_shape[-1])) * 0.1).astype(dtype)
        b = rng.standard_normal(n_out).astype(dtype) if bias else None
        c = rng.standard_normal(x_shape[:-1] + (n_out,)).astype(dtype)
        got = self.run(T.linear, x, w, b, c)
        want = self.run(reference_attention._linear, x, w, b, c)
        assert len(got) == len(want) == (3 if bias else 2) + 1
        for name, g, r in zip(("y", "dx", "dw", "db"), got, want):
            assert g.dtype == r.dtype == dtype, name
            if name == "dw" and dtype == np.float64 and len(x_shape) > 2:
                # one flat GEMM sums the rows in another order than the
                # per-batch products summed over the batch; float32 rounds
                # the difference away, float64 keeps it in the last bits
                assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()
            else:
                np.testing.assert_array_equal(g, r, err_msg=name)

    def test_one_tape_entry_owning_its_gradients(self):
        x, w, b = (Tensor(np.ones(s), requires_grad=True)
                   for s in ((2, 3, 4), (5, 4), (5,)))
        with GradTape() as tape:
            y = T.linear(x, w, b)
        assert len(tape) == 1
        # C-contiguous arrays of their own, which the tape stores uncopied
        for g in tape._entries[0].backward(np.ones(y.shape)):
            assert g.flags.c_contiguous and g.base is None

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((2, 4), (4,), None),            # weight not 2-D
        ((2, 4), (1, 5, 4), None),
        ((2, 4), (5, 3), None),          # inner dimensions differ
        ((2, 3, 4), (4, 5), (5,)),       # weight given as (in, out)
        ((2, 4), (5, 4), (4,)),          # bias of the wrong length
        ((2, 4), (5, 4), (1, 5)),        # bias not 1-D
        ((4,), (5, 4), None),            # x is a vector
    ])
    def test_bad_shapes_raise_shape_error(self, x_shape, w_shape, b_shape):
        b = None if b_shape is None else Tensor(np.ones(b_shape))
        with pytest.raises(T.ShapeError):
            T.linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), b)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)

    def test_stability_under_large_inputs(self):
        out = T.softmax_rows(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-7)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 9)).astype(np.float32) * 5
        out = T.softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_against_extended_precision_oracle(self):
        rng = np.random.default_rng(4)
        row = rng.standard_normal(8) * 3
        got = T.softmax_rows(Tensor(row.astype(np.float32))).data
        np.testing.assert_allclose(got, softmax_reference(row), atol=1e-6)


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_asymptote(self):
        x = np.array([12.0], dtype=np.float32)
        np.testing.assert_allclose(T.gelu(Tensor(x)).data, x, rtol=1e-6)

    def test_quadrature_oracle_at_one(self):
        got = float(T.gelu(Tensor([1.0])).data[0])
        expected = 1.0 * gaussian_cdf_quadrature(1.0)
        assert abs(got - expected) < 1e-5

    def test_quadrature_oracle_random_points(self):
        rng = np.random.default_rng(5)
        for x in rng.uniform(-3, 3, size=10):
            got = float(T.gelu(Tensor([np.float32(x)])).data[0])
            assert abs(got - x * gaussian_cdf_quadrature(float(np.float32(x)))) < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_frozen_plain_formula(self, dtype):
        rng = np.random.default_rng(15)
        x = (rng.standard_normal((8, 16, 32)) * 4).astype(dtype)
        x.flat[:8] = [0.0, -0.0, 12.0, -12.0, 40.0, -40.0, 1e-30, -1e-30]
        c = rng.standard_normal(x.shape).astype(dtype)

        def run(op):
            leaf = Tensor(x, requires_grad=True)
            with GradTape() as tape:
                y = op(leaf)
                loss = T.sum_all(T.mul(y, Tensor(c)))
            return y.data, tape.gradients(loss).wrt(leaf)

        for got, want in zip(run(T.gelu), run(reference_actquant.gelu)):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        x = Tensor(np.full((1, 4), 7.0, dtype=np.float32))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-5)

    def test_already_normalized(self):
        x = Tensor(np.array([[1.0, -1.0]], dtype=np.float32))
        out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_row_statistics(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((5, 16)).astype(np.float32) * 3 + 1)
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_bad_gain_shape(self):
        with pytest.raises(T.ShapeError):
            T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)),
                         Tensor(np.zeros(4)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64(np.arange(6.0).reshape(2, 3))
        with GradTape() as tape:
            loss = T.sum_all(x)
        np.testing.assert_array_equal(tape.gradients(loss).wrt(x), np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        x = t64([1.0, -2.0, 3.0])
        with GradTape() as tape:
            loss = T.sum_all(T.mul(x, x))
        np.testing.assert_allclose(tape.gradients(loss).wrt(x), 2 * x.data)

    def test_two_layer_mlp_finite_differences(self):
        rng = np.random.default_rng(7)
        params = {"w1": rng.standard_normal((4, 5)),
                  "b1": rng.standard_normal(5),
                  "w2": rng.standard_normal((5, 2))}
        x0 = rng.standard_normal((3, 4))

        def loss_fn(p):
            h = T.gelu(T.matmul(Tensor(x0), Tensor(p["w1"])) + Tensor(p["b1"]))
            out = T.matmul(h, Tensor(p["w2"]))
            return float(T.mean_all(T.mul(out, out)).data)

        leaves = {k: t64(v) for k, v in params.items()}
        with GradTape() as tape:
            h = T.gelu(T.matmul(Tensor(x0.astype(np.float64)), leaves["w1"])
                       + leaves["b1"])
            out = T.matmul(h, leaves["w2"])
            loss = T.mean_all(T.mul(out, out))
        grads = tape.gradients(loss)
        for name in params:
            fd = fd_gradient(loss_fn, params, name)
            assert rel_norm_error(grads.wrt(leaves[name]), fd) < 1e-3

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0])
        with GradTape() as tape:
            y = T.mul(x, x)
        with pytest.raises(T.ContractError):
            tape.gradients(y)

    def test_untouched_tensor_gets_zero_gradient(self):
        x = t64([1.0, 2.0])
        other = t64([5.0])
        with GradTape() as tape:
            loss = T.sum_all(x)
        g = tape.gradients(loss)
        np.testing.assert_array_equal(g.wrt(other), [0.0])
        assert other not in g

    def test_reused_tensor_accumulates(self):
        x = t64([2.0])
        with GradTape() as tape:
            loss = T.sum_all(x + x)
        np.testing.assert_array_equal(tape.gradients(loss).wrt(x), [2.0])

    def test_produced_tensor_has_no_gradient(self):
        x = t64([1.0, -2.0])
        with GradTape() as tape:
            y = T.mul(x, x)
            loss = T.sum_all(y)
        g = tape.gradients(loss)
        for produced in (y, loss):
            assert produced not in g
            with pytest.raises(T.ContractError, match="leaves only"):
                g.wrt(produced)
        np.testing.assert_array_equal(g.wrt(x), [2.0, -4.0])


class TestTapeMemory:
    def test_gradients_hold_one_entry_per_leaf_reached(self):
        cfg = M.ModelConfig(layers=2, hidden=16, heads=2, ffn=24, vocab=12,
                            max_positions=8, classes=3)
        rng = np.random.default_rng(60)
        params = M.init_params(cfg, rng)
        tokens = rng.integers(0, cfg.vocab, size=(3, 6))
        segments = rng.integers(0, cfg.segments, size=(3, 6))
        plan = M.plan_from_notation("2-2-8")
        leaves, _ = M.build_leaves(params, plan, trainable=True)
        with GradTape() as tape:
            trace = M.forward(leaves, cfg, tokens, segments, plan=plan, train=True,
                              rng=np.random.default_rng(61))
            loss = T.sum_all(T.mul(trace.logits, trace.logits))
        produced = {e.output for e in tape._entries}
        reached = {i[0] for e in tape._entries for i in e.inputs
                   if i is not None and i[0] not in produced}
        grads = tape.gradients(loss)
        assert set(grads._grads) == reached
        assert {leaf.key for leaf in leaves.values() if leaf in grads} == reached

    @staticmethod
    def _held_bytes(op, x):
        tracemalloc.start()
        try:
            with GradTape():
                before = tracemalloc.get_traced_memory()[0]
                y = op(x)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return y, held

    def test_gelu_holds_output_and_one_float64_buffer(self):
        x = Tensor(np.random.default_rng(62).standard_normal((32, 32, 512))
                   .astype(np.float32), requires_grad=True)
        y, held = self._held_bytes(T.gelu, x)
        assert held <= y.data.nbytes + 8 * x.size + 64 * 1024

    def test_layer_norm_holds_output_and_two_floats_per_row(self):
        x = Tensor(np.random.default_rng(64).standard_normal((32, 32, 512))
                   .astype(np.float32), requires_grad=True)
        gain = Tensor(np.ones(512, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(512, dtype=np.float32), requires_grad=True)
        y, held = self._held_bytes(lambda a: T.layer_norm(a, gain, bias), x)
        rows = x.size // x.shape[-1]
        assert held <= y.data.nbytes + 16 * rows + 64 * 1024

    def test_dropout_holds_output_and_boolean_mask(self):
        x = Tensor(np.ones((32, 32, 512), dtype=np.float32), requires_grad=True)
        y, held = self._held_bytes(
            lambda a: T.dropout(a, 0.1, np.random.default_rng(63)), x)
        assert held <= y.data.nbytes + x.size + 64 * 1024

    def test_tape_keeps_no_output_that_no_backward_reads(self):
        x = Tensor(np.zeros(1 << 18, dtype=np.float32), requires_grad=True)  # 1 MiB
        c = Tensor(np.ones(1 << 18, dtype=np.float32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with GradTape() as tape:
                h = x
                for _ in range(8):
                    h = T.add(h, c)
                held = tracemalloc.get_traced_memory()[0] - before
                loss = T.sum_all(h)
        finally:
            tracemalloc.stop()
        assert held <= h.data.nbytes + 64 * 1024
        # the freed outputs' id()s may be reused; their keys are not
        grads = tape.gradients(loss)
        np.testing.assert_array_equal(grads.wrt(x), np.ones_like(x.data))
        assert c not in grads

    @pytest.mark.parametrize("name,op", [
        ("add", lambda a: T.add(a, Tensor(np.ones(a.shape, np.float32)))),
        ("sub", lambda a: T.sub(a, Tensor(np.ones(a.shape, np.float32)))),
        ("scale", lambda a: T.scale(a, 1.7)),
        ("reshape", lambda a: T.reshape(a, (-1,))),
        ("narrow", lambda a: T.narrow(a, 0, 1, 2)),
        ("gather_rows", lambda a: T.gather_rows(a, np.array([0, 3]))),
        ("sum_all", T.sum_all),
        ("mean_all", T.mean_all),
        ("dropout", lambda a: T.dropout(a, 0.1, np.random.default_rng(65))),
    ])
    def test_shape_only_backward_frees_its_input(self, name, op):
        data = np.random.default_rng(66).standard_normal((512, 512))
        tracemalloc.start()     # before x exists, so its buffer is traced
        try:
            # Fortran order, so the reshape to 1-D copies rather than views x
            x = Tensor(np.asfortranarray(data, dtype=np.float32), requires_grad=True)
            nbytes = x.data.nbytes
            with GradTape() as tape:
                y = op(x)
            before = tracemalloc.get_traced_memory()[0]
            del x
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and y.requires_grad
        assert freed >= nbytes, name


PRIMITIVES = [
    ("add", lambda a, b: a + b, 2),
    ("sub", lambda a, b: a - b, 2),
    ("mul", lambda a, b: T.mul(a, b), 2),
    ("scale", lambda a: T.scale(a, 1.7), 1),
    ("matmul", None, 2),
    ("softmax", lambda a: T.softmax_rows(a), 1),
    ("log_softmax", lambda a: T.log_softmax_rows(a), 1),
    ("gelu", lambda a: T.gelu(a), 1),
    ("transpose", lambda a: T.transpose_last2(a), 1),
    ("linear", lambda x, w, b: T.linear(x, w, b), 3),
    ("narrow", lambda a: T.narrow(a, 1, 1, 2), 1),
    ("split_heads", lambda a: T.split_heads(a, 2), 1),
    ("merge_heads", lambda a: T.merge_heads(a, 2), 1),
]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,fn,arity", PRIMITIVES)
    def test_primitive_vs_central_differences(self, name, fn, arity):
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(10):
            shapes = {"matmul": [(3, 4), (4, 2)], "split_heads": [(2, 3, 4)],
                      "linear": [(2, 3, 4), (5, 4), (5,)],
                      "merge_heads": [(4, 3, 2)]}.get(name, [(3, 4)] * arity)
            arrays = {f"x{i}": rng.standard_normal(s) for i, s in enumerate(shapes)}

            def apply(tensors):
                if name == "matmul":
                    return T.matmul(tensors["x0"], tensors["x1"])
                return fn(*[tensors[f"x{i}"] for i in range(arity)])

            def loss_fn(p):
                out = apply({k: Tensor(v) for k, v in p.items()})
                return float(T.sum_all(T.mul(out, out)).data)

            leaves = {k: t64(v) for k, v in arrays.items()}
            with GradTape() as tape:
                out = apply(leaves)
                loss = T.sum_all(T.mul(out, out))
            grads = tape.gradients(loss)
            for key in arrays:
                fd = fd_gradient(loss_fn, arrays, key)
                assert rel_norm_error(grads.wrt(leaves[key]), fd) < 1e-3, \
                    f"{name} grad mismatch on {key}"

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(11)
        arrays = {"x": rng.standard_normal((3, 6)), "g": rng.standard_normal(6),
                  "b": rng.standard_normal(6)}

        def loss_fn(p):
            out = T.layer_norm(Tensor(p["x"]), Tensor(p["g"]), Tensor(p["b"]))
            return float(T.sum_all(T.mul(out, out)).data)

        leaves = {k: t64(v) for k, v in arrays.items()}
        with GradTape() as tape:
            out = T.layer_norm(leaves["x"], leaves["g"], leaves["b"])
            loss = T.sum_all(T.mul(out, out))
        grads = tape.gradients(loss)
        for key in arrays:
            fd = fd_gradient(loss_fn, arrays, key)
            assert rel_norm_error(grads.wrt(leaves[key]), fd) < 1e-3

    def test_gather_gradients(self):
        rng = np.random.default_rng(12)
        table = rng.standard_normal((5, 3))
        ids = np.array([[0, 2, 2], [4, 0, 1]])

        def loss_fn(p):
            rows = T.gather_rows(Tensor(p["t"]), ids)
            return float(T.sum_all(T.mul(rows, rows)).data)

        arrays = {"t": table}
        leaf = t64(table)
        with GradTape() as tape:
            rows = T.gather_rows(leaf, ids)
            loss = T.sum_all(T.mul(rows, rows))
        fd = fd_gradient(loss_fn, arrays, "t")
        assert rel_norm_error(tape.gradients(loss).wrt(leaf), fd) < 1e-3

    def test_position_slice_gradient_is_the_gather_scatter(self):
        # forward adds emb.pos[:n] broadcast over the batch; the gradient sums
        # the batch rows in the order the gather's np.add.at adds them
        rng = np.random.default_rng(13)
        table = Tensor(rng.standard_normal((8, 4)).astype(np.float32), requires_grad=True)
        scale = 10.0 ** rng.integers(-3, 4, (5, 6, 1))
        x = Tensor(np.zeros((5, 6, 4), np.float32))
        for g in ((rng.standard_normal((5, 6, 4)) * scale).astype(np.float32),
                  np.full((5, 6, 4), -0.0, np.float32)):
            with GradTape() as tape:
                y = T.add(x, T.narrow(table, 0, 0, 6))
                loss = T.sum_all(T.mul(y, Tensor(g)))
            want = np.zeros((8, 4), np.float32)
            np.add.at(want, np.broadcast_to(np.arange(6), (5, 6)), g)
            assert tape.gradients(loss).wrt(table).tobytes() == want.tobytes()


class TestHeadOps:
    def test_split_layout_and_merge_inverse(self):
        x = np.arange(2 * 3 * 6, dtype=np.float32).reshape(2, 3, 6)
        split = T.split_heads(Tensor(x), 3)
        assert split.shape == (6, 3, 2)
        for h in range(3):
            np.testing.assert_array_equal(split.data[2 * h:2 * h + 2],
                                          x[:, :, 2 * h:2 * h + 2])
        np.testing.assert_array_equal(T.merge_heads(split, 3).data, x)

    def test_indivisible_shapes_rejected(self):
        with pytest.raises(T.ShapeError):
            T.split_heads(Tensor(np.zeros((2, 3, 5))), 2)
        with pytest.raises(T.ShapeError):
            T.merge_heads(Tensor(np.zeros((3, 3, 5))), 2)
        for op in (T.split_heads, T.merge_heads):
            with pytest.raises(T.ShapeError, match=r"\(2, 6\)"):
                op(Tensor(np.zeros((2, 6))), 2)


class TestThreads:
    def test_each_thread_records_on_its_own_tape(self):
        values = (2.0, 3.0, 5.0, 7.0)
        barrier = threading.Barrier(len(values), timeout=30)
        errors = []

        def work(value):
            try:
                for _ in range(20):
                    x = t64([value])
                    with GradTape() as tape:
                        barrier.wait()      # every thread's tape is active
                        loss = T.sum_all(T.mul(x, x))
                        barrier.wait()      # every thread has recorded
                    assert len(tape) == 2
                    np.testing.assert_array_equal(tape.gradients(loss).wrt(x),
                                                  [2 * value])
            except Exception as e:          # reported below, not lost in the thread
                errors.append(e)
                barrier.abort()

        threads = [threading.Thread(target=work, args=(v,)) for v in values]
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


class TestOneTapePerThread:
    def test_nested_tape_rejected(self):
        x = t64([3.0])
        with GradTape() as tape:
            y = T.mul(x, x)
            with pytest.raises(T.ContractError, match="nest"):
                with GradTape():
                    pass
            loss = T.sum_all(T.mul(y, y))
        # the refused tape took nothing from the outer one: d(x^4)/dx at 3
        np.testing.assert_array_equal(tape.gradients(loss).wrt(x), [108.0])

    @pytest.mark.parametrize("loss", ["after-the-block", "other-tape", "leaf"])
    def test_loss_the_tape_did_not_record_rejected(self, loss):
        x = t64([3.0])
        with GradTape() as tape:
            y = T.mul(x, x)
        with GradTape():
            elsewhere = T.sum_all(T.mul(x, x))
        unrecorded = {"after-the-block": T.sum_all(y), "other-tape": elsewhere,
                      "leaf": x}[loss]
        with pytest.raises(T.ContractError, match="not recorded by this tape"):
            tape.gradients(unrecorded)

    def test_replay_takes_no_key(self):
        cfg = M.ModelConfig(layers=2, hidden=16, heads=2, ffn=24, vocab=12,
                            max_positions=8, classes=3)
        rng = np.random.default_rng(67)
        plan = M.plan_from_notation("2-2-8")
        leaves, _ = M.build_leaves(M.init_params(cfg, rng), plan, trainable=True)
        tokens = rng.integers(0, cfg.vocab, size=(3, 6))
        segments = rng.integers(0, cfg.segments, size=(3, 6))
        with GradTape() as tape:
            trace = M.forward(leaves, cfg, tokens, segments, plan=plan, train=True,
                              rng=np.random.default_rng(68))
            loss = T.sum_all(T.mul(trace.logits, trace.logits))
        before = next(T._KEYS)
        tape.gradients(loss)
        assert next(T._KEYS) == before + 1


class TestDeterminismAndMisc:
    def test_forward_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 8)).astype(np.float32)
        a = T.softmax_rows(Tensor(x)).data
        b = T.softmax_rows(Tensor(x.copy())).data
        np.testing.assert_array_equal(a, b)

    def test_gather_rejects_out_of_range(self):
        with pytest.raises(T.ShapeError):
            T.gather_rows(Tensor(np.ones((3, 2))), np.array([[3]]))

    def test_dropout_mask_and_gradient(self):
        x = t64(np.ones((4, 100)))
        with GradTape() as tape:
            y = T.dropout(x, 0.5, np.random.default_rng(0))
            loss = T.sum_all(y)
        g = tape.gradients(loss).wrt(x)
        kept = y.data != 0
        np.testing.assert_allclose(y.data[kept], 2.0)
        np.testing.assert_allclose(g[kept], 2.0)
        np.testing.assert_allclose(g[~kept], 0.0)

    def test_dropout_rate_one_rejected(self):
        with pytest.raises(T.ContractError):
            T.dropout(Tensor(np.ones((2, 2))), 1.0, np.random.default_rng(0))

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_finite_results_on_finite_inputs(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((5, 5)).astype(np.float32) * 50)
        for op in (T.softmax_rows, T.log_softmax_rows, T.gelu):
            assert np.isfinite(op(x).data).all()
