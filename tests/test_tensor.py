"""Forward oracles and gradient checks for the autodiff primitives."""
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from drawseg import tensor as T
from drawseg.tensor import Tensor


def t64(a, requires_grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


def rand64(rng, shape, requires_grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rand64(rng, (1, 1, 3, 3))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = T.conv2d(x, t64(k), t64(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_scalar_scaling(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = t64(np.full((1, 1, 1, 1), 2.0))
        out = T.conv2d(x, w, t64(np.zeros(1)))
        np.testing.assert_array_equal(out.data, [[[[2.0, 4.0], [6.0, 8.0]]]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rand64(rng, (1, 2, 5, 5))
        w = rand64(rng, (4, 2, 3, 3))
        b = rand64(rng, (4,))
        out = T.conv2d(x, w, b)
        ref = oracle.conv2d_loops(x.data, w.data, b.data)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)

    def test_same_padding_preserves_shape_any_odd_kernel(self):
        rng = np.random.default_rng(9)
        for k in (1, 3, 5):
            x = rand64(rng, (1, 2, 6, 8))
            w = rand64(rng, (3, 2, k, k))
            assert T.conv2d(x, w, t64(np.zeros(3))).shape == (1, 3, 6, 8)

    def test_channel_mismatch_rejected(self):
        x = t64(np.zeros((1, 3, 4, 4)))
        w = t64(np.zeros((2, 4, 3, 3)))
        with pytest.raises(T.ShapeError, match="axis 1"):
            T.conv2d(x, w, t64(np.zeros(2)))

    def test_even_kernel_rejected(self):
        x = t64(np.zeros((1, 2, 4, 4)))
        with pytest.raises(T.ShapeError, match="odd kernel"):
            T.conv2d(x, t64(np.zeros((1, 2, 2, 2))), t64(np.zeros(1)))

    @staticmethod
    def _grads(x, w, b, g, x_grad):
        """Forward output and (dx, dw, db) of conv2d for output gradient g."""
        xt = Tensor(x, requires_grad=x_grad)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        out = T.conv2d(xt, wt, bt)
        T.sum_all(T.mul(out, Tensor(g))).backward()
        return out.data, xt.grad, wt.grad, bt.grad

    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("plane", [(1, 4), (5, 7), (6, 2)])
    @pytest.mark.parametrize("n, cin", [
        pytest.param(1, 3, id="1"), pytest.param(3, 3, id="3"),
        pytest.param(1, 1, id="1-cin1"), pytest.param(3, 1, id="3-cin1")])   # cin 1: stacked taps
    def test_gradients_match_loop_oracle(self, n, cin, plane, k, x_grad):
        rng = np.random.default_rng(zlib.crc32(f"{n}{plane}{k}".encode()))
        cout = 2
        x = rng.standard_normal((n, cin) + plane)
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        g = rng.standard_normal((n, cout) + plane)
        x0, w0 = x.copy(), w.copy()
        out, dx, dw, db = self._grads(x, w, b, g, x_grad)
        np.testing.assert_array_equal(x, x0)   # backward reads views of x and w, never writes
        np.testing.assert_array_equal(w, w0)
        rdx, rdw, rdb = oracle.conv2d_backward_loops(x, w, g)
        np.testing.assert_allclose(out, oracle.conv2d_loops(x, w, b), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw, rdw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db, rdb, rtol=1e-12, atol=1e-12)
        if x_grad:
            np.testing.assert_allclose(dx, rdx, rtol=1e-12, atol=1e-12)
        else:
            assert dx is None

    def test_float32_gradients_track_float64(self):
        rng = np.random.default_rng(31)
        for cin in (5, 1):
            x = rng.standard_normal((2, cin, 9, 12))
            w = rng.standard_normal((4, cin, 3, 3))
            b = rng.standard_normal(4)
            g = rng.standard_normal((2, 4, 9, 12))
            ref = self._grads(x, w, b, g, True)
            f32 = self._grads(*(a.astype(np.float32) for a in (x, w, b, g)), True)
            for got, want in zip(f32, ref):
                assert got.dtype == np.float32
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())


class TestPooling:
    def test_max_single_window(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert T.max_pool2d(x).data[0, 0, 0, 0] == 4.0

    def test_max_constant(self):
        x = t64(np.full((1, 2, 4, 4), 3.5))
        out = T.max_pool2d(x)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 3.5))

    def test_max_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rand64(rng, (1, 3, 8, 8))
        np.testing.assert_array_equal(T.max_pool2d(x).data, oracle.max_pool2d_loops(x.data))

    def test_avg_single_window(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert T.avg_pool2d(x).data[0, 0, 0, 0] == 2.5

    def test_avg_matches_oracle(self):
        rng = np.random.default_rng(4)
        x = rand64(rng, (1, 2, 6, 6))
        np.testing.assert_array_equal(T.avg_pool2d(x).data, oracle.avg_pool2d_loops(x.data))

    def test_odd_extent_rejected(self):
        x = t64(np.zeros((1, 1, 3, 4)))
        with pytest.raises(T.ShapeError, match="even"):
            T.max_pool2d(x)
        with pytest.raises(T.ShapeError, match="even"):
            T.avg_pool2d(x)

    def test_max_grad_routes_to_argmax_only(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]], requires_grad=True)
        T.sum_all(T.max_pool2d(x)).backward()
        np.testing.assert_array_equal(x.grad, [[[[0, 0], [0, 1.0]]]])

    def test_max_grad_tie_break_first_row_major(self):
        x = t64(np.ones((1, 1, 2, 2)), requires_grad=True)
        T.sum_all(T.max_pool2d(x)).backward()
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0], [0, 0]]]])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_max_grad_matches_loop_oracle_on_ties(self, dtype):
        rng = np.random.default_rng(5)
        x = Tensor(rng.integers(0, 3, size=(2, 3, 6, 8)).astype(dtype), requires_grad=True)
        out = T.max_pool2d(x)
        g = rng.standard_normal(out.shape).astype(dtype)
        T.sum_all(T.mul(out, Tensor(g))).backward()
        np.testing.assert_array_equal(out.data, oracle.max_pool2d_loops(x.data))
        np.testing.assert_array_equal(x.grad, oracle.max_pool2d_backward_loops(x.data, g))


class TestUpsample:
    def test_constant_both_modes(self):
        x = t64(np.full((1, 2, 4, 4), 2.25))
        out = T.upsample2x(x)
        assert out.shape == (1, 2, 8, 8)
        np.testing.assert_allclose(out.data, 2.25, atol=1e-12)

    def test_bilinear_matches_formula_oracle(self):
        rng = np.random.default_rng(11)
        x = rand64(rng, (1, 1, 2, 2))
        out = T.upsample2x(x)
        np.testing.assert_allclose(out.data, oracle.bilinear2x_loops(x.data), atol=1e-12)

    def test_bilinear_matches_oracle_larger(self):
        rng = np.random.default_rng(12)
        x = rand64(rng, (2, 3, 4, 5))
        out = T.upsample2x(x)
        np.testing.assert_allclose(out.data, oracle.bilinear2x_loops(x.data), atol=1e-12)

    def test_operator_cached_read_only_per_dtype(self):
        m64 = T._bilinear2x_matrix(5, np.dtype(np.float64))
        m32 = T._bilinear2x_matrix(5, np.dtype(np.float32))
        assert T._bilinear2x_matrix(5, np.dtype(np.float64)) is m64
        assert m32 is not m64 and m32.dtype == np.float32 and m64.dtype == np.float64
        assert not m64.flags.writeable and not m32.flags.writeable
        with pytest.raises(ValueError):
            m64[0, 0] = 1.0


class TestConcatAndMul:
    def test_concat_with_empty_is_identity(self):
        rng = np.random.default_rng(13)
        x = rand64(rng, (1, 3, 4, 4))
        empty = t64(np.zeros((1, 0, 4, 4)))
        np.testing.assert_array_equal(T.concat_channels(x, empty).data, x.data)

    def test_concat_shape_arithmetic(self):
        a = t64(np.zeros((1, 3, 4, 4)))
        b = t64(np.zeros((1, 5, 4, 4)))
        assert T.concat_channels(a, b).shape == (1, 8, 4, 4)

    def test_concat_indexing(self):
        rng = np.random.default_rng(14)
        a = rand64(rng, (2, 3, 4, 4))
        b = rand64(rng, (2, 5, 4, 4))
        out = T.concat_channels(a, b).data
        for c in range(3, 8):
            np.testing.assert_array_equal(out[:, c], b.data[:, c - 3])

    def test_concat_mismatch_rejected(self):
        a = t64(np.zeros((1, 3, 4, 4)))
        b = t64(np.zeros((1, 3, 8, 8)))
        with pytest.raises(T.ShapeError):
            T.concat_channels(a, b)

    def test_mul_identity(self):
        rng = np.random.default_rng(15)
        x = rand64(rng, (1, 2, 3, 3))
        w = t64(np.ones((2, 1, 1)))
        np.testing.assert_array_equal(T.mul(x, w).data, x.data)

    def test_mul_channel_scale_and_annihilate(self):
        x = t64(np.ones((1, 2, 2, 2)))
        w = t64(np.array([2.0, 0.0]).reshape(2, 1, 1))
        out = T.mul(x, w).data
        np.testing.assert_array_equal(out[0, 0], np.full((2, 2), 2.0))
        np.testing.assert_array_equal(out[0, 1], np.zeros((2, 2)))

    def test_mul_spatial_matches_loop_oracle(self):
        rng = np.random.default_rng(16)
        x = rand64(rng, (2, 3, 4, 4))
        w = rand64(rng, (1, 4, 4))
        np.testing.assert_array_equal(T.mul(x, w).data, oracle.broadcast_mul_loops(x.data, w.data))

    def test_mul_rejects_non_broadcastable(self):
        x = t64(np.zeros((1, 2, 4, 4)))
        w = t64(np.zeros((3, 1, 1)))
        with pytest.raises(T.ShapeError):
            T.mul(x, w)

    # CBAM's gates: an N-C-1-1 channel gate and an N-1-H-W spatial gate
    def test_mul_channel_gate_identity(self):
        rng = np.random.default_rng(7)
        x = rand64(rng, (1, 3, 4, 4))
        ones = t64(np.ones((1, 3, 1, 1)))
        np.testing.assert_array_equal(T.mul(x, ones).data, x.data)

    def test_mul_channel_gate_annihilates_channel(self):
        rng = np.random.default_rng(8)
        x = rand64(rng, (1, 3, 4, 4))
        w = np.ones((1, 3, 1, 1))
        w[0, 1] = 0.0
        out = T.mul(x, t64(w)).data
        np.testing.assert_array_equal(out[0, 1], np.zeros((4, 4)))
        np.testing.assert_array_equal(out[0, 0], x.data[0, 0])

    def test_mul_channel_gate_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        x = rand64(rng, (2, 3, 2, 2))
        w = t64(rng.random((2, 3, 1, 1)))
        np.testing.assert_array_equal(T.mul(x, w).data, oracle.broadcast_mul_loops(x.data, w.data))

    def test_mul_spatial_gate_identity_and_zero_pixel(self):
        rng = np.random.default_rng(10)
        x = rand64(rng, (1, 3, 2, 2))
        w = np.ones((1, 1, 2, 2))
        np.testing.assert_array_equal(T.mul(x, t64(w)).data, x.data)
        w[0, 0, 1, 0] = 0.0
        out = T.mul(x, t64(w)).data
        np.testing.assert_array_equal(out[:, :, 1, 0], np.zeros((1, 3)))

    def test_mul_gate_shape_mismatch_rejected(self):
        x = t64(np.zeros((1, 3, 4, 4)))
        with pytest.raises(T.ShapeError):
            T.mul(x, t64(np.zeros((1, 2, 1, 1))))
        with pytest.raises(T.ShapeError):
            T.mul(x, t64(np.zeros((1, 1, 2, 2))))


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(t64(np.zeros((1, 1, 1, 1)))).data[0, 0, 0, 0] == 0.5

    def test_relu_definition(self):
        x = t64(np.array([-3.0, 3.0]).reshape(1, 2, 1, 1))
        np.testing.assert_array_equal(T.relu(x).data.reshape(-1), [0.0, 3.0])

    def test_softmax_uniform(self):
        x = t64(np.zeros((1, 5, 1, 1)))
        out = T.softmax_channels(x).data
        np.testing.assert_allclose(out.reshape(-1), 0.2, atol=1e-12)
        assert abs(out.sum() - 1.0) < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_softmax_sums_to_one_and_shift_invariant(self, seed, shift):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 4, 3, 3))
        p = T.softmax_channels(t64(x)).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        p2 = T.softmax_channels(t64(x + shift)).data
        np.testing.assert_allclose(p, p2, atol=1e-9)


class TestGlobalAndChannelPools:
    def test_constant_channel(self):
        x = t64(np.full((1, 2, 3, 3), 1.5))
        assert T.global_avg_pool(x).data[0, 0, 0, 0] == 1.5
        assert T.global_max_pool(x).data[0, 1, 0, 0] == 1.5

    def test_direct_values(self):
        x = t64(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert T.global_avg_pool(x).data[0, 0, 0, 0] == 2.5
        assert T.global_max_pool(x).data[0, 0, 0, 0] == 4.0

    def test_global_pools_match_oracle(self):
        rng = np.random.default_rng(17)
        x = rand64(rng, (2, 3, 5, 4))
        avg, mx = oracle.global_pool_loops(x.data)
        np.testing.assert_allclose(T.global_avg_pool(x).data, avg, atol=1e-12)
        np.testing.assert_array_equal(T.global_max_pool(x).data, mx)

    def test_channel_pools_single_channel_identity(self):
        rng = np.random.default_rng(18)
        x = rand64(rng, (1, 1, 3, 3))
        np.testing.assert_array_equal(T.channel_avg_pool(x).data, x.data)
        np.testing.assert_array_equal(T.channel_max_pool(x).data, x.data)

    def test_channel_pools_two_constant_channels(self):
        x = np.ones((1, 2, 2, 2))
        x[0, 1] = 3.0
        xt = t64(x)
        np.testing.assert_array_equal(T.channel_avg_pool(xt).data, np.full((1, 1, 2, 2), 2.0))
        np.testing.assert_array_equal(T.channel_max_pool(xt).data, np.full((1, 1, 2, 2), 3.0))

    def test_channel_pools_match_oracle(self):
        rng = np.random.default_rng(19)
        x = rand64(rng, (1, 4, 3, 3))
        avg, mx = oracle.channel_pool_loops(x.data)
        np.testing.assert_allclose(T.channel_avg_pool(x).data, avg, atol=1e-12)
        np.testing.assert_array_equal(T.channel_max_pool(x).data, mx)


class TestDense:
    def test_identity(self):
        rng = np.random.default_rng(20)
        x = rand64(rng, (2, 3, 1, 1))
        w = t64(np.eye(3))
        np.testing.assert_array_equal(T.dense(x, w).data, x.data)

    def test_zero_weights(self):
        rng = np.random.default_rng(21)
        x = rand64(rng, (2, 3, 1, 1))
        w = t64(np.zeros((4, 3)))
        np.testing.assert_array_equal(T.dense(x, w).data, np.zeros((2, 4, 1, 1)))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(22)
        x = rand64(rng, (3, 5, 1, 1))
        w = rand64(rng, (4, 5))
        np.testing.assert_allclose(T.dense(x, w).data,
                                   oracle.dense_loops(x.data, w.data), atol=1e-12)

    def test_mismatch_rejected(self):
        x = t64(np.zeros((1, 3, 1, 1)))
        w = t64(np.zeros((2, 4)))
        with pytest.raises(T.ShapeError, match="axis 1"):
            T.dense(x, w)


class TestBackward:
    def test_sum_grad_is_ones(self):
        rng = np.random.default_rng(23)
        x = rand64(rng, (1, 2, 3, 3), requires_grad=True)
        T.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_square_grad(self):
        rng = np.random.default_rng(24)
        x = rand64(rng, (1, 2, 2, 2), requires_grad=True)
        T.sum_all(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = t64(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(T.GraphError, match="scalar"):
            T.relu(x).backward()

    def test_double_backward_rejected(self):
        x = t64(np.ones((1, 1, 2, 2)), requires_grad=True)
        loss = T.sum_all(x)
        loss.backward()
        with pytest.raises(T.GraphError, match="already"):
            loss.backward()

    def test_stale_leaf_grad_rejected(self):
        x = t64(np.ones((1, 1, 2, 2)), requires_grad=True)
        T.sum_all(x).backward()
        loss2 = T.sum_all(x)
        with pytest.raises(T.GraphError, match="zero_grads"):
            loss2.backward()
        T.zero_grads([x])
        loss2.backward()

    def test_shared_parameter_accumulates_fanout(self):
        x = t64(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        loss = T.sum_all(T.add(x, x))
        loss.backward()
        assert x.grad[0, 0, 0, 0] == 2.0

    def test_no_grad_builds_no_graph(self):
        x = t64(np.ones((1, 1, 2, 2)), requires_grad=True)
        with T.no_grad():
            y = T.relu(x)
        assert not y.requires_grad and y._backward is None

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        params = {
            "x": rand64(rng, (1, 2, 4, 4), requires_grad=True),
            "w": rand64(rng, (3, 2, 3, 3), requires_grad=True),
            "b": rand64(rng, (3,), requires_grad=True),
            "d": rand64(rng, (2, 3), requires_grad=True),
        }

        def build():
            y = T.conv2d(params["x"], params["w"], params["b"])
            y = T.relu(y)
            y = T.max_pool2d(y)
            y = T.dense(T.global_avg_pool(y), params["d"])
            return T.sum_all(T.mul(y, y))

        report = T.grad_check(build, params, tol=1e-5)
        assert report.passed, report.summary()


from drawseg.checks import PRIMITIVE_BUILDERS


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params, build = PRIMITIVE_BUILDERS[name](rng)
    report = T.grad_check(build, params, tol=1e-5)
    assert report.passed, f"{name}\n{report.summary()}"


def test_grad_check_flags_corrupted_rule(monkeypatch):
    real = T.sigmoid

    def negated_rule(x):
        out = real(x)
        rule = out._backward
        out._backward = lambda g: rule(-g)
        return out

    monkeypatch.setattr(T, "sigmoid", negated_rule)
    rng = np.random.default_rng(99)
    params, build = PRIMITIVE_BUILDERS["sigmoid"](rng)
    report = T.grad_check(build, params, tol=1e-5)
    assert not report.passed


def test_grad_check_linear_graph_near_exact():
    rng = np.random.default_rng(41)
    p = {"x": rand64(rng, (1, 2, 3, 3), requires_grad=True)}
    report = T.grad_check(lambda: T.sum_all(T.affine(p["x"], 3.0, 1.0)), p, tol=1e-9)
    assert report.passed, report.summary()


def test_grad_check_reports_nonfinite_loss_as_failure():
    p = {"x": t64(np.full((1, 1, 1, 1), np.nan), requires_grad=True)}
    report = T.grad_check(lambda: T.sum_all(p["x"]), p)
    assert not report.passed


def test_forward_ops_are_pure():
    rng = np.random.default_rng(42)
    x = rand64(rng, (1, 2, 4, 4))
    w = rand64(rng, (2, 2, 3, 3))
    b0 = t64(np.zeros(2))
    a = T.conv2d(x, w, b0).data
    b = T.conv2d(x, w, b0).data
    np.testing.assert_array_equal(a, b)


def test_mixed_precision_rejected():
    a = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    b = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float64))
    with pytest.raises(T.ShapeError, match="precision"):
        T.add(a, b)
