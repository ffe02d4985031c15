"""Loss identities, worked values, focal behaviour, gradient checks."""
import math

import numpy as np
import pytest

import _gradcheck as G
from drawseg import losses as L
from drawseg import tensor as T
from drawseg.tensor import Tensor


def confident_logits(targets, k, margin=25.0):
    """Logits that are one-hot confident under softmax and sigmoid alike."""
    n, h, w = targets.shape
    logits = np.full((n, k, h, w), -margin)
    ni = np.arange(n)[:, None, None]
    hi = np.arange(h)[None, :, None]
    wi = np.arange(w)[None, None, :]
    logits[ni, targets, hi, wi] = margin
    return Tensor(logits)


class TestWorkedValues:
    def test_focal_single_pixel_half_probability(self):
        # two equal logits -> p_t exactly 0.5; FOCAL_GAMMA=2, FOCAL_ALPHA=0.25
        logits = Tensor(np.zeros((1, 2, 1, 1)))
        target = np.zeros((1, 1, 1), dtype=int)
        spec = L.LossSpec(kind="focal")
        value = float(L.segmentation_loss(spec, logits, target).data)
        assert abs(value - 0.25 * 0.25 * math.log(2.0)) < 1e-9

    def test_all_losses_vanish_on_confident_predictions(self):
        rng = np.random.default_rng(0)
        target = rng.integers(0, 4, size=(2, 4, 4))
        logits = confident_logits(target, 4)
        for kind in L.LOSS_KINDS:
            value = float(L.segmentation_loss(L.LossSpec(kind=kind), logits, target).data)
            assert 0.0 <= value < 1e-6, (kind, value)

    def test_losses_are_nonnegative(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((1, 3, 4, 4)))
        target = rng.integers(0, 3, size=(1, 4, 4))
        for kind in L.LOSS_KINDS:
            assert float(L.segmentation_loss(L.LossSpec(kind=kind), logits, target).data) >= 0.0


class TestFocalIdentities:
    def test_focal_matches_numpy_reference(self):
        assert (L.FOCAL_ALPHA, L.FOCAL_GAMMA) == (0.25, 2.0)   # Lin et al.
        for seed in range(20):
            rng = np.random.default_rng([2, seed])
            logits = 3 * rng.standard_normal((2, 5, 4, 4))
            logits[0, :, 0, 0] = [30.0, -30.0, -30.0, -30.0, -30.0]   # saturated pixels
            logits[1, :, 3, 3] = [-30.0, 30.0, -30.0, 30.0, -30.0]
            target = rng.integers(0, 5, size=(2, 4, 4))
            focal = L.segmentation_loss(L.LossSpec(kind="focal"), Tensor(logits), target)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            p_t = np.take_along_axis(e / e.sum(axis=1, keepdims=True), target[:, None], 1)
            want = L.FOCAL_ALPHA * np.mean(
                (1 - p_t) ** L.FOCAL_GAMMA * -np.log(np.maximum(p_t, L.LOG_FLOOR)))
            assert abs(float(focal.data) - want) <= 1e-12 * max(want, 1e-3), seed

    def test_modulating_factor_strictly_decreasing(self):
        pts = np.linspace(0.01, 0.99, 50)
        factors = (1.0 - pts) ** L.FOCAL_GAMMA
        assert np.all(np.diff(factors) < 0)

    def test_focal_downweights_confident_pixels_relative_to_ce(self):
        # ratio focal/ce per pixel is FOCAL_ALPHA*(1-p_t)^FOCAL_GAMMA: smaller when p_t larger
        spec = L.LossSpec(kind="focal")
        ratios = []
        for margin in (0.5, 2.0, 5.0):
            logits = np.zeros((1, 2, 1, 1))
            logits[0, 0] = margin
            target = np.zeros((1, 1, 1), dtype=int)
            f = float(L.segmentation_loss(spec, Tensor(logits), target).data)
            c = float(L.segmentation_loss(L.LossSpec(kind="ce"), Tensor(logits), target).data)
            ratios.append(f / c)
        assert ratios[0] > ratios[1] > ratios[2]


class TestValidationAndGradients:
    def test_out_of_range_class_named(self):
        logits = Tensor(np.zeros((1, 3, 2, 2)))
        target = np.zeros((1, 2, 2), dtype=int)
        target[0, 1, 0] = 7
        with pytest.raises(ValueError, match=r"h=1, w=0"):
            L.segmentation_loss(L.LossSpec(kind="ce"), logits, target)

    def test_poly_is_ce_plus_shortfall(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((1, 3, 4, 4)))
        target = rng.integers(0, 3, size=(1, 4, 4))
        ce = float(L.segmentation_loss(L.LossSpec(kind="ce"), logits, target).data)
        poly = float(L.segmentation_loss(L.LossSpec(kind="poly"), logits, target).data)
        p = T.softmax_channels(logits).data
        ni, hi, wi = np.ogrid[:1, :4, :4]
        shortfall = (1.0 - p[ni, target, hi, wi]).mean()
        assert abs(poly - (ce + shortfall)) < 1e-12

    @pytest.mark.parametrize("kind", L.LOSS_KINDS)
    def test_gradients_match_finite_differences(self, kind):
        report = G.check_loss(kind)
        assert report.passed, report.summary()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            L.LossSpec(kind="dice")
