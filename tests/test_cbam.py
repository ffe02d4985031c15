"""Attention block: composition oracles, range/shape invariants, gradients."""
import numpy as np
import pytest

from drawseg import cbam as C
from drawseg import tensor as T
from drawseg.tensor import Tensor


def make_block(channels, seed=0, reduction=4, spatial_width=2):
    return C.build_cbam(C.ParamStore(seed, np.float64), "cbam", channels, reduction,
                        spatial_width)


def rand64(rng, shape, requires_grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


class TestChannelAttention:
    def test_zero_weights_give_half(self):
        block = make_block(4)
        block.channel.w1.data[:] = 0
        block.channel.w2.data[:] = 0
        x = rand64(np.random.default_rng(1), (2, 4, 3, 3))
        out = C.channel_attention(x, block.channel)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-15)

    def test_constant_channels_make_branches_coincide(self):
        block = make_block(3)
        means = np.array([1.0, -2.0, 0.5])
        x = Tensor(np.broadcast_to(means[None, :, None, None], (1, 3, 4, 4)).copy())
        out = C.channel_attention(x, block.channel)
        w1, w2 = block.channel.w1.data, block.channel.w2.data
        mlp = w2 @ np.maximum(w1 @ means, 0)
        np.testing.assert_allclose(out.data.reshape(-1), sigmoid(2 * mlp), atol=1e-12)

    def test_matches_composition_oracle(self):
        block = make_block(4, seed=3)
        rng = np.random.default_rng(4)
        x = rand64(rng, (1, 4, 3, 3))
        out = C.channel_attention(x, block.channel)
        w1, w2 = block.channel.w1.data, block.channel.w2.data
        gmax = x.data.max(axis=(2, 3))
        gavg = x.data.mean(axis=(2, 3))
        ref = sigmoid((w2 @ np.maximum(w1 @ gmax[0], 0)) + (w2 @ np.maximum(w1 @ gavg[0], 0)))
        np.testing.assert_allclose(out.data.reshape(-1), ref, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        block = make_block(4)
        x = Tensor(np.zeros((1, 3, 2, 2)))
        with pytest.raises(T.ShapeError):
            C.channel_attention(x, block.channel)

    def test_invariant_to_spatial_shuffle(self):
        # integer-valued input over a power-of-two pixel count keeps the
        # global mean exact, so the gate must match bit-for-bit
        block = make_block(4, seed=5)
        rng = np.random.default_rng(6)
        x = rng.integers(-8, 8, size=(1, 4, 4, 4)).astype(np.float64)
        perm = rng.permutation(16)
        shuffled = x.reshape(1, 4, 16)[:, :, perm].reshape(1, 4, 4, 4)
        a = C.channel_attention(Tensor(x), block.channel).data
        b = C.channel_attention(Tensor(shuffled), block.channel).data
        np.testing.assert_array_equal(a, b)


class TestApplyStages:
    def test_apply_channel_identity_weights(self):
        rng = np.random.default_rng(7)
        x = rand64(rng, (1, 3, 4, 4))
        ones = Tensor(np.ones((1, 3, 1, 1)))
        np.testing.assert_array_equal(C.apply_channel(x, ones).data, x.data)

    def test_apply_channel_annihilates_channel(self):
        rng = np.random.default_rng(8)
        x = rand64(rng, (1, 3, 4, 4))
        w = np.ones((1, 3, 1, 1))
        w[0, 1] = 0.0
        out = C.apply_channel(x, Tensor(w)).data
        np.testing.assert_array_equal(out[0, 1], np.zeros((4, 4)))
        np.testing.assert_array_equal(out[0, 0], x.data[0, 0])

    def test_apply_channel_matches_loop(self):
        rng = np.random.default_rng(9)
        x = rand64(rng, (2, 3, 2, 2))
        w = Tensor(rng.random((2, 3, 1, 1)))
        ref = x.data * w.data
        np.testing.assert_array_equal(C.apply_channel(x, w).data, ref)

    def test_apply_spatial_identity_and_zero_pixel(self):
        rng = np.random.default_rng(10)
        x = rand64(rng, (1, 3, 2, 2))
        w = np.ones((1, 1, 2, 2))
        np.testing.assert_array_equal(C.apply_spatial(x, Tensor(w)).data, x.data)
        w[0, 0, 1, 0] = 0.0
        out = C.apply_spatial(x, Tensor(w)).data
        np.testing.assert_array_equal(out[:, :, 1, 0], np.zeros((1, 3)))

    def test_apply_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        with pytest.raises(T.ShapeError):
            C.apply_channel(x, Tensor(np.zeros((1, 2, 1, 1))))
        with pytest.raises(T.ShapeError):
            C.apply_spatial(x, Tensor(np.zeros((1, 1, 2, 2))))


class TestSpatialAttention:
    def test_zero_convs_give_half(self):
        block = make_block(3)
        for w in block.spatial.conv_w:
            w.data[:] = 0
        rng = np.random.default_rng(11)
        x = rand64(rng, (1, 3, 4, 4))
        out = C.spatial_attention(x, block.spatial)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-15)

    def test_single_channel_pools_duplicate(self):
        rng = np.random.default_rng(12)
        x = rand64(rng, (1, 1, 4, 4))
        stacked = T.concat_channels(T.channel_avg_pool(x), T.channel_max_pool(x))
        np.testing.assert_array_equal(stacked.data[:, 0], x.data[:, 0])
        np.testing.assert_array_equal(stacked.data[:, 1], x.data[:, 0])

    def test_matches_composition_oracle(self):
        import _oracles as oracle
        block = make_block(3, seed=13)
        rng = np.random.default_rng(14)
        x = rand64(rng, (1, 3, 4, 4))
        out = C.spatial_attention(x, block.spatial)
        avg = x.data.mean(axis=1, keepdims=True)
        mx = x.data.max(axis=1, keepdims=True)
        y = np.concatenate([avg, mx], axis=1)
        sw, sb = block.spatial.conv_w, block.spatial.conv_b
        y = np.maximum(oracle.conv2d_loops(y, sw[0].data, sb[0].data), 0)
        y = np.maximum(oracle.conv2d_loops(y, sw[1].data, sb[1].data), 0)
        y = oracle.conv2d_loops(y, sw[2].data, sb[2].data)
        np.testing.assert_allclose(out.data, sigmoid(y), atol=1e-12)


class TestFullBlock:
    @pytest.mark.parametrize("shape", [(1, 4, 8, 8), (2, 8, 16, 16), (1, 16, 4, 4)])
    def test_shape_preservation(self, shape):
        block = make_block(shape[1], seed=15)
        x = rand64(np.random.default_rng(16), shape)
        assert C.cbam_forward(x, block).shape == shape

    def test_gate_ranges_and_attenuation(self):
        block = make_block(4, seed=17)
        rng = np.random.default_rng(18)
        x = rand64(rng, (1, 4, 6, 6))
        tc = C.channel_attention(x, block.channel).data
        assert np.all(tc > 0) and np.all(tc < 1)
        attended = C.apply_channel(x, C.channel_attention(x, block.channel))
        ts = C.spatial_attention(attended, block.spatial).data
        assert np.all(ts > 0) and np.all(ts < 1)
        out = C.cbam_forward(x, block).data
        assert np.all(np.abs(out) <= np.abs(x.data))

    def test_reduction_clamped_to_one_unit(self):
        block = make_block(2, reduction=8)
        assert block.channel.w1.shape == (1, 2)

    def test_shared_mlp_gets_gradient_from_both_branches(self):
        # make the avg and max branches see different pooled values, then
        # check w1's gradient changes when either branch is detached
        block = make_block(3, seed=19)
        rng = np.random.default_rng(20)
        x = rand64(rng, (1, 3, 4, 4))

        loss = T.sum_all(C.channel_attention(x, block.channel))
        loss.backward()
        both = block.channel.w1.grad.copy()
        T.zero_grads([block.channel.w1, block.channel.w2])

        only_avg = T.sum_all(T.sigmoid(C._shared_mlp(T.global_avg_pool(x), block.channel)))
        only_avg.backward()
        avg_only = block.channel.w1.grad.copy()
        T.zero_grads([block.channel.w1, block.channel.w2])

        assert not np.allclose(both, avg_only)

    def test_full_block_gradient_check(self):
        store = C.ParamStore(21, np.float64)
        block = C.build_cbam(store, "cbam", 4)
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((1, 4, 4, 4)), requires_grad=True)
        params = dict(store.named)
        params["input"] = x

        def build():
            return T.mean_all(T.mul(y := C.cbam_forward(x, block), y))

        report = T.grad_check(build, params, tol=1e-5)
        assert report.passed, report.summary()
