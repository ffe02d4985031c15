"""Skip block: mode contract, composition oracle, per-mode gradients."""
import numpy as np
import pytest

import _gradcheck as G
import _oracles as oracle
from drawseg import skipfuse as S
from drawseg import tensor as T
from drawseg.cbam import ParamStore
from drawseg.tensor import Tensor

MODES = [(False, False), (True, False), (False, True), (True, True)]


def make_block(c=8, c_deep=16, ave=True, cbam=True, seed=0):
    return S.build_skip_block(ParamStore(seed, np.float64), "skip", c, c_deep, ave, cbam)


def rand64(rng, shape, requires_grad=False):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


class TestDualPoolFuse:
    def test_output_resolution_halved(self):
        p = make_block()
        rng = np.random.default_rng(1)
        shallow = rand64(rng, (1, 8, 16, 16))
        deeper = rand64(rng, (1, 16, 8, 8))
        out = S.dualpool_fuse(shallow, deeper, p)
        assert out.shape == (1, 16, 8, 8)

    def test_zero_inputs_zero_biases_give_zero(self):
        p = make_block()
        shallow = Tensor(np.zeros((1, 8, 8, 8)))
        deeper = Tensor(np.zeros((1, 16, 4, 4)))
        out = S.dualpool_fuse(shallow, deeper, p)
        np.testing.assert_array_equal(out.data, np.zeros((1, 16, 4, 4)))

    def test_matches_composition_oracle(self):
        p = make_block(c=4, c_deep=8, seed=2)
        rng = np.random.default_rng(3)
        shallow = rand64(rng, (1, 4, 8, 8))
        deeper = rand64(rng, (1, 8, 4, 4))
        out = S.dualpool_fuse(shallow, deeper, p)

        a = oracle.avg_pool2d_loops(shallow.data)
        (w0, b0), (w1, b1) = p.pool
        a = np.maximum(oracle.conv2d_loops(a, w0.data, b0.data), 0)
        a = oracle.conv2d_loops(a, w1.data, b1.data)
        cat = np.concatenate([a, deeper.data], axis=1)
        ref = oracle.conv2d_loops(cat, p.fuse[0].data, p.fuse[1].data)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_resolution_mismatch_rejected(self):
        p = make_block()
        shallow = Tensor(np.zeros((1, 8, 16, 16)))
        deeper = Tensor(np.zeros((1, 16, 16, 16)))
        with pytest.raises(T.ShapeError, match="half"):
            S.dualpool_fuse(shallow, deeper, p)


class TestSkipForward:
    def test_plain_mode_is_bitwise_identity(self):
        p = make_block(ave=False, cbam=False)
        rng = np.random.default_rng(4)
        shallow = rand64(rng, (1, 8, 16, 16))
        out = S.skip_forward(shallow, None, p)
        assert out is shallow

    def test_plain_mode_has_no_parameters(self):
        store = ParamStore(0, np.float64)
        S.build_skip_block(store, "skip", 8, 16, False, False)
        assert store.named == []

    @pytest.mark.parametrize("ave,cbam", MODES)
    def test_output_contract_all_modes(self, ave, cbam):
        p = make_block(c=8, c_deep=16, ave=ave, cbam=cbam, seed=5)
        rng = np.random.default_rng(6)
        shallow = rand64(rng, (1, 8, 16, 16))
        deeper = rand64(rng, (1, 16, 8, 8))
        out = S.skip_forward(shallow, deeper, p)
        assert out.shape == (1, 8, 16, 16)

    @pytest.mark.parametrize("ave,cbam", MODES)
    def test_block_holds_what_its_mode_uses(self, ave, cbam):
        store = ParamStore(0, np.float64)
        p = S.build_skip_block(store, "skip", 8, 16, ave, cbam)
        assert (len(p.pool) == 2) == ave
        assert (p.fuse is not None) == ave
        assert (p.attention is not None) == cbam
        assert (p.reduce is not None) == (ave or cbam)
        def flat(pairs):
            return [t for pair in pairs if pair is not None for t in pair]

        held = flat(p.pool + [p.fuse])
        if p.attention is not None:
            held += [p.attention.w1, p.attention.w2] + flat(p.attention.spatial)
        held += flat([p.reduce])
        assert [id(t) for t in held] == [id(t) for _, t in store.named]

    def test_ave_mode_missing_deeper_rejected(self):
        p = make_block(ave=True, cbam=False)
        shallow = Tensor(np.zeros((1, 8, 16, 16)))
        with pytest.raises(T.ShapeError, match="deeper"):
            S.skip_forward(shallow, None, p)

    @pytest.mark.parametrize("ave,cbam", G.SKIP_MODES)
    def test_gradient_check_each_mode(self, ave, cbam):
        report = G.check_skip(ave, cbam)
        assert report.passed, report.summary()

    def test_parameter_counts_grow_with_modes(self):
        def total(ave, cbam):
            store = ParamStore(0, np.float64)
            S.build_skip_block(store, "skip", 8, 16, ave, cbam)
            return sum(t.data.size for _, t in store.named)

        assert total(False, False) == 0
        assert total(False, False) < total(True, False)
        assert total(False, False) < total(False, True)
        assert total(True, False) < total(True, True)
