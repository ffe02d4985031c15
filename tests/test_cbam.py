"""Attention block: composition oracles, range/shape invariants, gradients."""
import numpy as np
import pytest

import _gradcheck as G
from drawseg import cbam as C
from drawseg import tensor as T
from drawseg.tensor import Tensor


def make_block(channels, seed=0):
    return C.build_cbam(C.ParamStore(seed, np.float64), "cbam", channels)


def rand64(rng, shape, requires_grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


class TestChannelAttention:
    def test_zero_weights_give_half(self):
        block = make_block(4)
        block.w1.data[:] = 0
        block.w2.data[:] = 0
        x = rand64(np.random.default_rng(1), (2, 4, 3, 3))
        out = C.channel_attention(x, block)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-15)

    def test_constant_channels_make_branches_coincide(self):
        block = make_block(3)
        means = np.array([1.0, -2.0, 0.5])
        x = Tensor(np.broadcast_to(means[None, :, None, None], (1, 3, 4, 4)).copy())
        out = C.channel_attention(x, block)
        w1, w2 = block.w1.data, block.w2.data
        mlp = w2 @ np.maximum(w1 @ means, 0)
        np.testing.assert_allclose(out.data.reshape(-1), sigmoid(2 * mlp), atol=1e-12)

    def test_matches_composition_oracle(self):
        block = make_block(4, seed=3)
        rng = np.random.default_rng(4)
        x = rand64(rng, (1, 4, 3, 3))
        out = C.channel_attention(x, block)
        w1, w2 = block.w1.data, block.w2.data
        gmax = x.data.max(axis=(2, 3))
        gavg = x.data.mean(axis=(2, 3))
        ref = sigmoid((w2 @ np.maximum(w1 @ gmax[0], 0)) + (w2 @ np.maximum(w1 @ gavg[0], 0)))
        np.testing.assert_allclose(out.data.reshape(-1), ref, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        block = make_block(4)
        x = Tensor(np.zeros((1, 3, 2, 2)))
        with pytest.raises(T.ShapeError):
            C.channel_attention(x, block)

    def test_invariant_to_spatial_shuffle(self):
        # integer-valued input over a power-of-two pixel count keeps the
        # global mean exact, so the gate must match bit-for-bit
        block = make_block(4, seed=5)
        rng = np.random.default_rng(6)
        x = rng.integers(-8, 8, size=(1, 4, 4, 4)).astype(np.float64)
        perm = rng.permutation(16)
        shuffled = x.reshape(1, 4, 16)[:, :, perm].reshape(1, 4, 4, 4)
        a = C.channel_attention(Tensor(x), block).data
        b = C.channel_attention(Tensor(shuffled), block).data
        np.testing.assert_array_equal(a, b)


class TestSpatialAttention:
    def test_zero_convs_give_half(self):
        block = make_block(3)
        for w, _ in block.spatial:
            w.data[:] = 0
        rng = np.random.default_rng(11)
        x = rand64(rng, (1, 3, 4, 4))
        out = C.spatial_attention(x, block)
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
        out = C.spatial_attention(x, block)
        avg = x.data.mean(axis=1, keepdims=True)
        mx = x.data.max(axis=1, keepdims=True)
        y = np.concatenate([avg, mx], axis=1)
        (w0, b0), (w1, b1), (w2, b2) = block.spatial
        y = np.maximum(oracle.conv2d_loops(y, w0.data, b0.data), 0)
        y = np.maximum(oracle.conv2d_loops(y, w1.data, b1.data), 0)
        y = oracle.conv2d_loops(y, w2.data, b2.data)
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
        tc = C.channel_attention(x, block).data
        assert np.all(tc > 0) and np.all(tc < 1)
        attended = T.mul(x, C.channel_attention(x, block))
        ts = C.spatial_attention(attended, block).data
        assert np.all(ts > 0) and np.all(ts < 1)
        out = C.cbam_forward(x, block).data
        assert np.all(np.abs(out) <= np.abs(x.data))

    def test_block_holds_store_order(self):
        store = C.ParamStore(0, np.float64)
        block = C.build_cbam(store, "cbam", 4)
        held = [block.w1, block.w2] + [t for pair in block.spatial for t in pair]
        assert [id(t) for t in held] == [id(t) for _, t in store.named]

    def test_reduction_clamped_to_one_unit(self):
        block = make_block(C.REDUCTION - 1)
        assert block.w1.shape == (1, C.REDUCTION - 1)

    def test_shared_mlp_gets_gradient_from_both_branches(self):
        # make the avg and max branches see different pooled values, then
        # check w1's gradient changes when either branch is detached
        block = make_block(3, seed=19)
        rng = np.random.default_rng(20)
        x = rand64(rng, (1, 3, 4, 4))

        loss = T.sum_all(C.channel_attention(x, block))
        loss.backward()
        both = block.w1.grad.copy()
        T.zero_grads([block.w1, block.w2])

        only_avg = T.sum_all(T.sigmoid(C._shared_mlp(T.global_avg_pool(x), block)))
        only_avg.backward()
        avg_only = block.w1.grad.copy()
        T.zero_grads([block.w1, block.w2])

        assert not np.allclose(both, avg_only)

    def test_full_block_gradient_check(self):
        report = G.check_cbam()
        assert report.passed, report.summary()
