"""Forward oracles and gradient checks for the autodiff primitives."""
import tracemalloc
import weakref
import zlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _gradcheck as G
import _oracles as oracle
from drawseg import tensor as T
from drawseg.losses import LOSS_KINDS
from drawseg.tensor import Tensor


def t64(a, requires_grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


def rand64(rng, shape, requires_grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def record_flowing(loss):
    """Wrap every closure reachable from loss; returns the list of gradients they receive."""
    flowing = []
    stack, visited = [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in visited and node._backward is not None:
            visited.add(id(node))
            rule = node._backward

            def spy(g, rule=rule):
                flowing.append(g)
                rule(g)

            node._backward = spy
            stack.extend(node._prev)
    return flowing


def assert_leaf_gradients_unshared(leaves, flowing):
    """No leaf's .grad shares memory with another leaf's or with a flowing gradient."""
    for leaf in leaves:
        assert leaf.grad.flags.writeable
        others = [o.grad for o in leaves if o is not leaf]
        for arr in flowing + others:
            assert not np.shares_memory(leaf.grad, arr)


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
    @pytest.mark.parametrize("n, cin, cout", [
        pytest.param(1, 3, 2, id="1"), pytest.param(3, 3, 2, id="3"),
        # cin 1: stacked taps
        pytest.param(1, 1, 2, id="1-cin1"), pytest.param(3, 1, 2, id="3-cin1"),
        pytest.param(3, 3, 1, id="3-cout1"), pytest.param(3, 3, 5, id="3-cout5"),
        pytest.param(1, 1, 5, id="1-cin1-cout5")])
    def test_gradients_match_loop_oracle(self, n, cin, cout, plane, k, x_grad):
        rng = np.random.default_rng(zlib.crc32(f"{n}{plane}{k}".encode()))
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

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("cin, cout", [(1, 4), (6, 2)])
    def test_frozen_weight_runs_input_gradient_only(self, cin, cout, k):
        rng = np.random.default_rng(zlib.crc32(f"frozen{cin}{cout}{k}".encode()))
        x = Tensor(rng.standard_normal((2, cin, 5, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((cout, cin, k, k)))
        b = Tensor(rng.standard_normal(cout))
        g = rng.standard_normal((2, cout, 5, 6))
        T.sum_all(T.mul(T.conv2d(x, w, b), Tensor(g))).backward()
        assert w.grad is None and b.grad is None
        rdx, _, _ = oracle.conv2d_backward_loops(x.data, w.data, g)
        np.testing.assert_allclose(x.grad, rdx, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("cin", [2, 8])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_sample_groups_change_no_bit(self, n, cin, k, dtype, monkeypatch):
        rng = np.random.default_rng(zlib.crc32(f"groups{n}{cin}{k}".encode()))
        h, w, cout = 6, 7, 4
        x, wt, b, g = (rng.standard_normal(shape).astype(dtype) for shape in
                       [(n, cin, h, w), (cout, cin, k, k), (cout,), (n, cout, h, w)])
        monkeypatch.setattr(T, "_TILE_BYTES", 1 << 40)   # one group: the whole batch
        whole = self._grads(x, wt, b, g, True)
        # tile 1 forces one sample per group; the second gives forward groups of 2,
        # so odd n ends on a partial group
        span = h * (w + 2 * (k // 2))
        for tile in (1, 2 * (2 * cout + cin) * span * x.itemsize):
            monkeypatch.setattr(T, "_TILE_BYTES", tile)
            for got, want in zip(self._grads(x, wt, b, g, True), whole):
                np.testing.assert_array_equal(got, want)

    @staticmethod
    def _tile_widths(monkeypatch):
        """Tile widths of conv2d's GEMMs from here on: (tap sums', weight
        gradients'). A GEMM made while _tap_sum runs is a tap sum's; any
        other matmul with out= (conv2d calls no other) is a weight gradient's."""
        real_tap_sum, real_matmul, taps, wgrads, inside = T._tap_sum, np.matmul, set(), set(), []

        def tap_sum(*args):
            inside.append(True)
            try:
                return real_tap_sum(*args)
            finally:
                inside.pop()

        def matmul(a, b, **kwargs):
            if "out" in kwargs and inside:
                taps.add(b.shape[-1])
            elif "out" in kwargs:
                wgrads.add(a.shape[-1])
            return real_matmul(a, b, **kwargs)

        monkeypatch.setattr(T, "_tap_sum", tap_sum)
        monkeypatch.setattr(np, "matmul", matmul)
        return taps, wgrads

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("cin", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 3])
    def test_column_tiles_change_no_bit(self, n, cin, k, dtype, relu, monkeypatch):
        # a 64x86 plane has a span of 5504 (k = 1) or 5632 (k = 3) columns; a
        # 2048-column bound splits it into three 64-column-aligned tiles, the
        # last one narrower, in forward, the input gradient and the weight
        # gradient alike. Tiles change no bit of the output, the input gradient
        # or the bias gradient. The weight gradient sums each tile's products
        # and then adds the tiles, so its bits move within rounding: at most
        # sqrt(N) * eps * sum|x * g| from the exact sum, N = n*h*w terms per
        # weight, the probabilistic bound lambda * sqrt(N) * u with u = eps / 2
        # and lambda = 2 (Higham & Mary, SIAM J. Sci. Comput. 41(5), 2019)
        rng = np.random.default_rng(zlib.crc32(f"tiles{n}{cin}{k}".encode()))
        h, w, cout = 64, 86, 4
        x, wt, b, g = (rng.standard_normal(shape).astype(dtype) for shape in
                       [(n, cin, h, w), (cout, cin, k, k), (cout,), (n, cout, h, w)])
        span = h * (w + 2 * (k // 2))

        def run():
            xt, wtt, bt = (Tensor(a, requires_grad=True) for a in (x, wt, b))
            out = T.conv2d(xt, wtt, bt, relu=relu)
            T.sum_all(T.mul(out, Tensor(g))).backward()
            return [a.tobytes() for a in (out.data, xt.grad, bt.grad)], wtt.grad

        monkeypatch.setattr(T, "_SMALL_GEMM", 1 << 62)   # one tile: the whole span
        want, want_dw = run()
        monkeypatch.setattr(T, "_SMALL_GEMM", 2048 * cout * cin)
        taps, wgrads = self._tile_widths(monkeypatch)
        # the exact weight gradient from the same inputs, with relu's mask on g
        mask = T.conv2d(Tensor(x), Tensor(wt), Tensor(b), relu=relu).data > 0 if relu else 1
        exact = oracle.conv2d_weight_grad_einsum(x, g * mask, k, np.longdouble)
        scale = oracle.conv2d_weight_grad_einsum(np.abs(x), np.abs(g * mask), k, np.longdouble)
        bound = np.sqrt(n * h * w) * np.finfo(dtype).eps * scale
        dws = []
        for tile_bytes in (T._TILE_BYTES, 1):
            monkeypatch.setattr(T, "_TILE_BYTES", tile_bytes)
            got, dw = run()
            assert got == want, tile_bytes
            assert (np.abs(dw - exact) <= bound).all(), tile_bytes
            dws.append(dw.tobytes())
        assert dws[0] == dws[1]   # sample groups never change the weight gradient
        assert (np.abs(want_dw - exact) <= bound).all()
        assert wgrads == taps   # one rule splits all three loops
        assert min(taps) < max(taps) <= span / 2.5   # three tiles, the last one narrower
        assert all(wd % 64 == 0 for wd in taps - {min(taps)})

    def test_one_sample_groups_match_loop_oracle(self, monkeypatch):
        monkeypatch.setattr(T, "_TILE_BYTES", 1)
        rng = np.random.default_rng(41)
        x = rng.standard_normal((3, 3, 5, 6))
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        g = rng.standard_normal((3, 2, 5, 6))
        out, dx, dw, db = self._grads(x, w, b, g, True)
        rdx, rdw, rdb = oracle.conv2d_backward_loops(x, w, g)
        np.testing.assert_allclose(out, oracle.conv2d_loops(x, w, b), rtol=1e-12, atol=1e-12)
        for got, want in ((dx, rdx), (dw, rdw), (db, rdb)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 3])
    def test_weight_gradient_tiles_match_loop_oracle(self, n, k, monkeypatch):
        # the 64x86 plane of test_column_tiles_change_no_bit, split into three
        # tiles with a narrower last one, in float64, with a frozen and an
        # unfrozen input
        rng = np.random.default_rng(zlib.crc32(f"wtiles{n}{k}".encode()))
        h, w, cin, cout = 64, 86, 2, 2
        x, wt, b, g = (rng.standard_normal(shape) for shape in
                       [(n, cin, h, w), (cout, cin, k, k), (cout,), (n, cout, h, w)])
        monkeypatch.setattr(T, "_SMALL_GEMM", 2048 * cout * cin)
        _, wgrads = self._tile_widths(monkeypatch)
        rdx, rdw, rdb = oracle.conv2d_backward_loops(x, wt, g)
        for x_grad in (True, False):
            _, dx, dw, db = self._grads(x, wt, b, g, x_grad)
            np.testing.assert_allclose(dw, rdw, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(db, rdb, rtol=1e-12, atol=1e-12)
            if x_grad:
                np.testing.assert_allclose(dx, rdx, rtol=1e-12, atol=1e-12)
            else:
                assert dx is None
        assert min(wgrads) < max(wgrads) <= h * (w + 2 * (k // 2)) / 2.5

    def test_no_grad_forward_holds_no_output_copy(self):
        # the output is a cropped view of the tap-sum buffer, biased (and relu'd) in
        # place: at the peak only the padded input, that buffer and one group
        # temporary are alive
        n, c, h, w, o = 4, 8, 64, 64, 8
        rng = np.random.default_rng(43)
        x, wt, b = (Tensor(rng.standard_normal(shape).astype(np.float32))
                    for shape in [(n, c, h, w), (o, c, 3, 3), (o,)])
        span = h * (w + 2)
        padded = n * c * (span + 3 * (w + 2)) * 4
        group = min(n, T._TILE_BYTES // ((2 * o + c) * span * 4)) * o * span * 4
        for relu in (False, True):
            tracemalloc.start()
            try:
                with T.no_grad():
                    out = T.conv2d(x, wt, b, relu=relu)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.shape == (n, o, h, w)
            assert peak < padded + n * o * span * 4 + group + 16 * 1024, relu

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("cin", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 3])
    def test_fused_relu_matches_composite_bitwise(self, n, cin, k, dtype, monkeypatch):
        # relu=True must give relu(conv2d(...))'s output and x, weight and bias
        # gradients byte for byte, signed zeros included
        monkeypatch.setattr(T, "_TILE_BYTES", 1)   # one sample per group
        rng = np.random.default_rng(zlib.crc32(f"relu{n}{cin}{k}".encode()))
        h, w, cout = 6, 7, 4
        x, wt, b, g = (rng.standard_normal(shape).astype(dtype) for shape in
                       [(n, cin, h, w), (cout, cin, k, k), (cout,), (n, cout, h, w)])
        x[:, :, :3, :3] = 0.0   # pre-activations equal to the bias there,
        b[0] = 0.0              # so channel 0 holds exact zeros

        def run(fused):
            xt, wtt, bt = (Tensor(a, requires_grad=True) for a in (x, wt, b))
            out = (T.conv2d(xt, wtt, bt, relu=True) if fused
                   else T.relu(T.conv2d(xt, wtt, bt)))
            T.sum_all(T.mul(out, Tensor(g))).backward()
            return [a.tobytes() for a in (out.data, xt.grad, wtt.grad, bt.grad)], out.data

        got, out = run(True)
        want, _ = run(False)
        assert ((out == 0) & (g < 0)).any()   # masked entries whose product is -0.0
        assert got == want

    def test_fused_relu_keeps_one_activation(self):
        # after a grad-enabled forward the fused conv keeps only its wide buffer
        # (the padded input is transient); relu(conv2d(...)) keeps the
        # pre-activation and relu's output
        n, c, h, w, o = 4, 8, 64, 64, 8
        rng = np.random.default_rng(47)
        x, wt, b = (Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
                    for shape in [(n, c, h, w), (o, c, 3, 3), (o,)])
        span = h * (w + 2)
        bound = n * o * span * 4 + 16 * 1024

        def kept(fused):
            tracemalloc.start()
            try:
                out = T.conv2d(x, wt, b, relu=True) if fused else T.relu(T.conv2d(x, wt, b))
                current, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.requires_grad
            return current

        assert kept(True) < bound < kept(False)

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


class TestConv2dCat:
    """conv2d(x, w, b, cat=y) is conv2d over x and y stacked along C."""

    @staticmethod
    def _both(x, y, wt, b, g, relu, frozen=""):
        """Output and x, y, w, b gradients of the cat= conv and of the
        concat_channels graph, as bytes; ``frozen`` names inputs without grad."""
        runs = []
        for fused in (True, False):
            xt, yt = (Tensor(a, requires_grad=name not in frozen)
                      for name, a in (("x", x), ("y", y)))
            wtt, bt = Tensor(wt, requires_grad=True), Tensor(b, requires_grad=True)
            out = (T.conv2d(xt, wtt, bt, relu=relu, cat=yt) if fused
                   else T.conv2d(T.concat_channels(xt, yt), wtt, bt, relu=relu))
            T.sum_all(T.mul(out, Tensor(g))).backward()
            runs.append([None if a is None else a.tobytes()
                         for a in (out.data, xt.grad, yt.grad, wtt.grad, bt.grad)])
        return runs

    @pytest.mark.parametrize("frozen", ["", "x", "y"])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_concat_graph_bitwise(self, n, k, dtype, relu, frozen):
        rng = np.random.default_rng(zlib.crc32(f"cat{n}{k}{relu}{frozen}".encode()))
        h, w, ca, cb, cout = 6, 7, 2, 3, 4
        x, y, wt, b, g = (rng.standard_normal(shape).astype(dtype) for shape in
                          [(n, ca, h, w), (n, cb, h, w), (cout, ca + cb, k, k), (cout,),
                           (n, cout, h, w)])
        got, want = self._both(x, y, wt, b, g, relu, frozen)
        assert got == want
        for name, i in (("x", 1), ("y", 2)):
            assert (got[i] is None) == (name in frozen)

    @pytest.mark.parametrize("k", [1, 3])
    def test_split_span_matches_concat_graph_bitwise(self, k):
        # 12 input and 16 output channels over a 64x86 plane: the real
        # column-tile rule splits the span in forward and in both gradients
        rng = np.random.default_rng(zlib.crc32(f"catsplit{k}".encode()))
        h, w, ca, cb, cout = 64, 86, 8, 4, 16
        assert T._column_tile(cout * (ca + cb), h * (w + 2 * (k // 2))) < h * (w + 2 * (k // 2))
        x, y, wt, b, g = (rng.standard_normal(shape).astype(np.float32) for shape in
                          [(1, ca, h, w), (1, cb, h, w), (cout, ca + cb, k, k), (cout,),
                           (1, cout, h, w)])
        got, want = self._both(x, y, wt, b, g, True)
        assert got == want

    def test_single_channel_halves_match_concat_graph_bitwise(self):
        # the CBAM spatial gate's input: a mean and a max plane
        rng = np.random.default_rng(61)
        x, y, wt, b, g = (rng.standard_normal(shape) for shape in
                          [(2, 1, 8, 8), (2, 1, 8, 8), (2, 2, 3, 3), (2,), (2, 2, 8, 8)])
        got, want = self._both(x, y, wt, b, g, True)
        assert got == want

    def test_input_gradients_are_contiguous_copies(self):
        rng = np.random.default_rng(62)
        x, y = (rand64(rng, (2, c, 5, 6), requires_grad=True) for c in (2, 3))
        w, b = rand64(rng, (4, 5, 3, 3), requires_grad=True), rand64(rng, (4,), requires_grad=True)
        loss = T.sum_all(T.mul(T.conv2d(x, w, b, cat=y), rand64(rng, (2, 4, 5, 6))))
        flowing = record_flowing(loss)
        loss.backward()
        assert x.grad.flags.c_contiguous and y.grad.flags.c_contiguous
        assert_leaf_gradients_unshared([x, y, w, b], flowing)

    @pytest.mark.parametrize("shape, dtype, match", [
        ((2, 3, 4, 4), np.float64, "batch/spatial"),
        ((1, 3, 4, 5), np.float64, "batch/spatial"),
        ((1, 3, 4), np.float64, "rank 4"),
        ((1, 3, 4, 4), np.float32, "mixed precision")])
    def test_mismatched_cat_rejected(self, shape, dtype, match):
        x = t64(np.zeros((1, 2, 4, 4)))
        y = Tensor(np.zeros(shape, dtype=dtype))
        w, b = t64(np.zeros((1, 5, 3, 3))), t64(np.zeros(1))
        with pytest.raises(T.ShapeError, match=match):
            T.conv2d(x, w, b, cat=y)

    def test_channel_count_includes_cat(self):
        x, y = t64(np.zeros((1, 2, 4, 4))), t64(np.zeros((1, 3, 4, 4)))
        with pytest.raises(T.ShapeError, match="input has 5, weight expects 2"):
            T.conv2d(x, t64(np.zeros((1, 2, 1, 1))), t64(np.zeros(1)), cat=y)

    def test_1x1_operand_dies_with_the_forward(self, monkeypatch):
        # a 1x1 conv joins x and cat in a transient GEMM operand and keeps
        # neither it nor a copy: every array its GEMMs read, other than its
        # own inputs, is gone once conv2d returns
        rng = np.random.default_rng(63)
        x, y = (rand64(rng, (2, c, 6, 6), requires_grad=True) for c in (3, 2))
        w, b = rand64(rng, (4, 5, 1, 1), requires_grad=True), rand64(rng, (4,), requires_grad=True)
        read, real_matmul = [], np.matmul

        def matmul(a, m, **kwargs):
            for arr in (a, m):
                while arr.base is not None:
                    arr = arr.base
                read.append(arr)
            return real_matmul(a, m, **kwargs)

        monkeypatch.setattr(np, "matmul", matmul)
        out = T.conv2d(x, w, b, cat=y)
        monkeypatch.undo()
        kept = [a for a in read if not any(a is t.data for t in (x, y, w, b))]
        refs = [weakref.ref(a) for a in kept]
        del read, kept
        assert refs and all(r() is None for r in refs)
        assert out.requires_grad


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

    @staticmethod
    def _up_and_grad(x, g):
        xt = Tensor(x, requires_grad=True)
        out = T.upsample2x(xt)
        T.sum_all(T.mul(out, Tensor(g))).backward()
        return out.data, xt.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, s, s) for s in (1, 2, 4, 8, 16, 32, 64, 128)] + [
        (1, 1, 48, 96), (4, 8, 32, 32), (8, 16, 16, 16), (4, 32, 8, 8), (8, 64, 4, 4),
        (1, 16, 128, 128), (1, 8, 64, 64)])
    def test_bands_match_dense_product_bit_for_bit(self, dtype, shape):
        # every side the models upsample is a power of two or a multiple of 16
        rng = np.random.default_rng(zlib.crc32(repr(shape).encode()))
        x = rng.standard_normal(shape).astype(dtype)
        g = rng.standard_normal((*shape[:2], 2 * shape[2], 2 * shape[3])).astype(dtype)
        out, gx = self._up_and_grad(x, g)
        assert out.tobytes() == oracle.bilinear2x_dense(x).tobytes()
        assert gx.tobytes() == oracle.bilinear2x_backward_dense(g).tobytes()

    @pytest.mark.parametrize("dtype, hw", [
        (dtype, hw) for dtype in (np.float32, np.float64)
        for hw in ((9, 9), (18, 18), (34, 34), (6, 10), (144, 288))])
    def test_off_sizes_within_bound_of_loop_oracle(self, dtype, hw):
        # off the multiples of 16 a band's shorter K may sum in another order
        # (upsample2x's docstring); measured within 2 eps * the largest operand
        rng = np.random.default_rng(hw[0] * 1000 + hw[1])
        x = rng.standard_normal((1, 1, *hw)).astype(dtype)
        g = rng.standard_normal((1, 1, 2 * hw[0], 2 * hw[1])).astype(dtype)
        out, gx = self._up_and_grad(x, g)
        eps = np.finfo(dtype).eps
        np.testing.assert_allclose(out, oracle.bilinear2x_loops(x), rtol=0,
                                   atol=4 * eps * np.abs(x).max())
        np.testing.assert_allclose(gx, oracle.bilinear2x_backward_loops(g), rtol=0,
                                   atol=4 * eps * np.abs(g).max())

    def test_nan_stays_in_its_tile(self):
        # the dense product spreads 0 * NaN to every output; a band reaches
        # only its tile. The pixels sit away from the bands' overlaps.
        x = np.zeros((1, 1, 64, 64))
        x[0, 0, 20, 40] = np.nan
        g = np.zeros((1, 1, 128, 128))
        g[0, 0, 40, 80] = np.nan
        assert np.isnan(oracle.bilinear2x_dense(x)).sum() == 128 * 128
        assert np.isnan(oracle.bilinear2x_backward_dense(g)).sum() == 64 * 64
        xt = Tensor(x, requires_grad=True)
        out = T.upsample2x(xt)
        out._backward(g)
        assert np.isnan(out.data).sum() == T._UP_TILE ** 2
        assert np.isnan(xt.grad).sum() == T._UP_TILE_BACK ** 2

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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_max_pool_ties_route_to_first_maximum(self, dtype):
        rng = np.random.default_rng(23)
        x = rng.integers(0, 3, size=(2, 5, 4, 6)).astype(dtype)   # small integers tie often
        xc, xg = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        gc = rng.standard_normal((2, 1, 4, 6)).astype(dtype)
        gg = rng.standard_normal((2, 5, 1, 1)).astype(dtype)
        T.sum_all(T.mul(T.channel_max_pool(xc), Tensor(gc))).backward()
        T.sum_all(T.mul(T.global_max_pool(xg), Tensor(gg))).backward()
        np.testing.assert_array_equal(xc.grad, oracle.channel_max_backward_loops(x, gc))
        np.testing.assert_array_equal(xg.grad, oracle.global_max_backward_loops(x, gg))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_max_pools_equal_argmax_formula(self, dtype):
        # forward takes the maximum; backward finds the argmax, whose values are the same
        rng = np.random.default_rng(29)
        x = rng.integers(-2, 3, size=(2, 4, 5, 6)).astype(dtype)
        x[0, 1, 2, 3] = np.nan       # NaN is the maximum of its pixel and of its plane
        x[1, :, 0, 0] = np.nan
        n, c, h, w = x.shape
        flat = x.reshape(n, c, h * w)
        want_g = np.take_along_axis(flat, flat.argmax(axis=2)[..., None], axis=2)
        want_c = np.take_along_axis(x, x.argmax(axis=1)[:, None], axis=1)
        got_g = T.global_max_pool(Tensor(x)).data
        got_c = T.channel_max_pool(Tensor(x)).data
        assert np.isnan(got_g).sum() == 5 and np.isnan(got_c).sum() == 2
        assert np.array_equal(got_g, want_g.reshape(n, c, 1, 1), equal_nan=True)
        assert np.array_equal(got_c, want_c, equal_nan=True)


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

    def test_add_gradients_share_no_memory(self):
        a = t64(np.ones((2, 3)), requires_grad=True)
        b = t64(np.ones((2, 3)), requires_grad=True)
        loss = T.sum_all(T.add(a, b))
        flowing = record_flowing(loss)
        loss.backward()
        assert len(flowing) == 2   # into sum_all, into add
        assert_leaf_gradients_unshared([a, b], flowing)
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_add_rejects_unequal_shapes(self):
        a = t64(np.ones((2, 3)), requires_grad=True)
        b = t64(np.ones((1, 3)), requires_grad=True)
        with pytest.raises(T.ShapeError, match="equal shapes"):
            T.add(a, b)

    def test_power_one_hands_over_a_copy(self):
        x = t64(np.arange(1.0, 4.0), requires_grad=True)
        y = T.power(x, 1.0)
        loss = T.sum_all(T.mul(y, y))
        flowing = record_flowing(loss)
        loss.backward()
        assert_leaf_gradients_unshared([x], flowing)
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_avg_pool_gradient_of_one_window_accumulates(self):
        # a 2x2 plane is one window, where a broadcast gradient reshapes to a read-only view
        x = t64(np.ones((1, 1, 2, 2)), requires_grad=True)
        T.sum_all(T.add(T.avg_pool2d(x), T.avg_pool2d(x))).backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 0.5))

    def test_backward_frees_every_intermediate(self):
        rng = np.random.default_rng(27)
        x = rand64(rng, (1, 2, 4, 4), requires_grad=True)
        w = rand64(rng, (3, 2, 3, 3), requires_grad=True)
        b = rand64(rng, (3,), requires_grad=True)
        const = rand64(rng, (1, 3, 4, 4))
        h = T.conv2d(x, w, b)
        r = T.relu(h)
        m = T.mul(r, const)
        loss = T.mean_all(m)
        loss.backward()
        for node in (h, r, m, loss):
            assert node.grad is None and node._backward is None and node._prev == ()
            assert node._done
        for leaf in (x, w, b):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        assert const.grad is None

    def test_freed_results_released_before_backward_returns(self):
        rng = np.random.default_rng(28)
        seen = {}

        def build():
            x0 = rand64(rng, (1, 2, 4, 4), requires_grad=True)
            w = rand64(rng, (2, 2, 3, 3), requires_grad=True)
            b = rand64(rng, (2,), requires_grad=True)
            x = T.affine(x0, 2.0, 0.0)
            h = T.conv2d(x, w, b)
            # the padded input is transient: the only array the closure holds
            # is the conv output, a view of the wide tap-sum buffer
            held = [c.cell_contents for c in h._backward.__closure__
                    if isinstance(c.cell_contents, np.ndarray)]
            assert held and all(a.base is h.data.base for a in held)
            refs = {"conv output": weakref.ref(h.data)}
            first = x._backward      # the last op backward reaches, after conv2d's

            def spy(g):
                seen.update({name: ref() is None for name, ref in refs.items()})
                first(g)

            x._backward = spy
            return T.sum_all(T.relu(h)), x0

        loss, x0 = build()
        loss.backward()
        assert seen == {"conv output": True}
        assert x0.grad is not None

    def test_loss_on_freed_result_rejected(self):
        x = t64(np.ones((1, 1, 2, 2)), requires_grad=True)
        h = T.relu(x)
        built_before = T.sum_all(T.affine(h, 2.0, 0.0))
        T.sum_all(h).backward()
        T.zero_grads([x])
        for loss in (built_before, T.sum_all(T.mul(h, h))):
            with pytest.raises(T.GraphError, match="freed"):
                loss.backward()
        assert x.grad is None

    def test_leaf_gradients_share_no_memory_with_flowing_gradients(self):
        rng = np.random.default_rng(29)
        a = rand64(rng, (1, 2, 4, 4), requires_grad=True)
        b = rand64(rng, (1, 2, 4, 4), requires_grad=True)
        c = rand64(rng, (1, 1, 4, 4), requires_grad=True)
        d = rand64(rng, (1, 3, 1, 1), requires_grad=True)
        w = rand64(rng, (2, 3, 3, 3), requires_grad=True)
        bias = rand64(rng, (2,), requires_grad=True)
        y = T.relu(T.mul(T.concat_channels(T.add(a, b), c), d))
        y = T.upsample2x(T.conv2d(y, w, bias))
        loss = T.sum_all(T.mul(y, y))
        flowing = record_flowing(loss)
        loss.backward()

        assert len(flowing) == 8   # sum_all, mul, upsample2x, conv2d, relu, mul, concat, add
        assert_leaf_gradients_unshared([a, b, c, d, w, bias], flowing)

    def test_first_gradient_is_stored_as_handed(self):
        t = t64(np.zeros(3), requires_grad=True)
        g = np.array([1.5, -0.0, -2.0])
        T._accumulate(t, g)
        assert t.grad is g
        T._accumulate(t, np.ones(3))
        assert t.grad is g
        np.testing.assert_array_equal(g, [2.5, 1.0, -1.0])

    @pytest.mark.parametrize("shape", [(1,), (2, 3), ()])
    def test_gradient_of_another_shape_rejected(self, shape):
        t = t64(np.zeros(3), requires_grad=True)
        with pytest.raises(T.ShapeError, match="gradient of shape"):
            T._accumulate(t, np.ones(shape))
        assert t.grad is None
        T._accumulate(t, np.ones(3))
        with pytest.raises(T.ShapeError, match="gradient of shape"):
            T._accumulate(t, np.ones(shape))

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

        report = T.grad_check(build, params)
        assert report.passed, report.summary()


@pytest.mark.parametrize("name", sorted(G.PRIMITIVE_BUILDERS))
def test_primitive_gradients_match_finite_differences(name):
    report = G.check_primitive(name)
    assert report.passed, f"{name}\n{report.summary()}"


@pytest.mark.parametrize("name", sorted(G.SAMPLED_BUILDERS))
def test_sampled_primitive_gradients_match_finite_differences(name):
    report = G.check_primitive(name)
    assert report.passed, f"{name}\n{report.summary()}"


def test_conv2d_tiles_row_splits_under_the_real_rule():
    params, _ = G.SAMPLED_BUILDERS["conv2d_tiles"][0](np.random.default_rng(0))
    o, c, k, _ = params["w"].shape
    _, _, h, w = params["x"].shape
    span = h * (w + 2 * (k // 2))
    assert T._column_tile(o * c, span) < span


@pytest.mark.parametrize("name", sorted(G.PRIMITIVE_BUILDERS))
def test_primitive_leaf_gradients_share_no_memory(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params, build = G.PRIMITIVE_BUILDERS[name](rng)
    loss = build()
    flowing = record_flowing(loss)
    loss.backward()
    assert_leaf_gradients_unshared(list(params.values()), flowing)


def test_grad_check_flags_corrupted_rule(monkeypatch):
    real = T.sigmoid

    def negated_rule(x):
        out = real(x)
        rule = out._backward
        out._backward = lambda g: rule(-g)
        return out

    monkeypatch.setattr(T, "sigmoid", negated_rule)
    rng = np.random.default_rng(99)
    params, build = G.PRIMITIVE_BUILDERS["sigmoid"](rng)
    report = T.grad_check(build, params)
    assert not report.passed


def test_grad_check_linear_graph_near_exact():
    rng = np.random.default_rng(41)
    p = {"x": rand64(rng, (1, 2, 3, 3), requires_grad=True)}
    report = T.grad_check(lambda: T.sum_all(T.affine(p["x"], 3.0, 1.0)), p)
    # a linear graph has no truncation error: only the roundoff term of the bound is spent
    assert report.worst.err_over_bound < 1e-3, report.summary()


def test_grad_check_reports_nonfinite_loss_as_failure():
    p = {"x": t64(np.full((1, 1, 1, 1), np.nan), requires_grad=True)}
    report = T.grad_check(lambda: T.sum_all(p["x"]), p)
    assert not report.passed


def test_grad_check_reports_nonfinite_gradient_as_failure(monkeypatch):
    real = T.sum_all

    def nan_rule(x):
        out = real(x)
        rule = out._backward
        out._backward = lambda g: rule(g * np.nan)
        return out

    monkeypatch.setattr(T, "sum_all", nan_rule)
    p = {"x": t64(np.ones((1, 1, 1, 2)), requires_grad=True)}
    report = T.grad_check(lambda: T.sum_all(p["x"]), p)
    assert not report.passed, report.summary()


def _reorder_tap_sums(monkeypatch, dw_scale=1.0):
    """Run conv2d's tap sums in reverse tap order, an exact gradient whose sums
    are reordered, and scale every conv weight gradient by dw_scale."""
    real_tap_sum, real_conv, real_accumulate = T._tap_sum, T.conv2d, T._accumulate
    weights = {}   # id -> the weight, kept alive so that no other tensor takes its id

    def conv2d(x, weight, bias, **kwargs):
        weights[id(weight)] = weight
        return real_conv(x, weight, bias, **kwargs)

    monkeypatch.setattr(T, "_tap_sum", lambda mats, src, offsets, span:
                        real_tap_sum(mats[::-1], src, offsets[::-1], span))
    monkeypatch.setattr(T, "conv2d", conv2d)
    monkeypatch.setattr(T, "_accumulate", lambda t, g:
                        real_accumulate(t, g * dw_scale if id(t) in weights else g))


def test_reversed_tap_order_moves_conv_bits(monkeypatch):
    rng = np.random.default_rng(43)
    x, w, b = (rand64(rng, s) for s in ((1, 16, 8, 8), (4, 16, 3, 3), (4,)))
    before = T.conv2d(x, w, b).data.copy()
    _reorder_tap_sums(monkeypatch)
    assert (T.conv2d(x, w, b).data != before).any()


# every case of tests/_gradcheck.py, by the scope it checks
SCOPES = {
    "primitive": [partial(G.check_primitive, name)
                  for name in sorted(G.PRIMITIVE_BUILDERS | G.SAMPLED_BUILDERS)]
                 + [partial(G.check_loss, kind) for kind in LOSS_KINDS],
    "cbam": [G.check_cbam],
    "skip": [partial(G.check_skip, ave, cbam) for ave, cbam in G.SKIP_MODES],
    "model": [G.check_model],
}


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_grad_check_passes_reordered_sums(monkeypatch, scope):
    _reorder_tap_sums(monkeypatch)
    for check in SCOPES[scope]:
        report = check()
        assert report.passed, report.summary()


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_grad_check_fails_reordered_sums_with_conv_weight_gradient_1e4_off(monkeypatch, scope):
    _reorder_tap_sums(monkeypatch, dw_scale=1.0001)
    assert not all(check().passed for check in SCOPES[scope])


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
