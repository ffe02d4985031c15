"""Pixelwise segmentation losses over N-K-H-W logits and integer masks.

Four kinds are compared by the training harness:

* ce    -- mean softmax cross-entropy, -log p_t.
* focal -- -FOCAL_ALPHA * (1 - p_t)^FOCAL_GAMMA * log p_t; the modulating
           factor down-weights pixels the model already classifies
           confidently, which matters here because background dominates the
           masks. FOCAL_GAMMA = 2 and FOCAL_ALPHA = 0.25 follow Lin et al.
           (arXiv 1708.02002) and are no settings: alpha only scales the
           loss, which Adam ignores but for its eps, and a desk run at
           gamma 1 scored inside gamma 2's seed spread.
* bce   -- one-vs-rest binary cross-entropy on sigmoid(logits), averaged
           over pixels and classes.
* poly  -- ce + mean(1 - p_t), the first-order polynomial expansion with
           epsilon = 1, Poly-1 (Leng et al., arXiv 2204.12511): the bare sum.

Logs are clamped at 1e-12.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

LOG_FLOOR = 1e-12
LOSS_KINDS = ("ce", "bce", "poly", "focal")
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0


@dataclass(frozen=True)
class LossSpec:
    kind: str = "focal"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")


def _validate_targets(targets: np.ndarray, logits: Tensor) -> None:
    n, k, h, w = logits.shape
    if targets.shape != (n, h, w):
        raise T.ShapeError(f"target mask must have shape {(n, h, w)}, got {targets.shape}")
    bad = (targets < 0) | (targets >= k)
    if bad.any():
        ni, hi, wi = np.argwhere(bad)[0]
        raise ValueError(
            f"class id {targets[ni, hi, wi]} out of range [0, {k}) at pixel (n={ni}, h={hi}, w={wi})")


def _true_class_prob(logits: Tensor, targets: np.ndarray) -> Tensor:
    return T.take_channel(T.softmax_channels(logits), targets)


def _nll(p_true: Tensor) -> Tensor:
    return T.affine(T.log(T.clamp_min(p_true, LOG_FLOOR)), -1.0, 0.0)


def segmentation_loss(spec: LossSpec, logits: Tensor, targets: np.ndarray) -> Tensor:
    """Scalar loss tensor, differentiable w.r.t. the logits."""
    targets = np.asarray(targets)
    _validate_targets(targets, logits)
    if spec.kind == "ce":
        return T.mean_all(_nll(_true_class_prob(logits, targets)))
    if spec.kind == "focal":
        p_true = _true_class_prob(logits, targets)
        modulator = T.power(T.affine(p_true, -1.0, 1.0), FOCAL_GAMMA)
        return T.mean_all(T.mul(T.affine(modulator, FOCAL_ALPHA, 0.0), _nll(p_true)))
    if spec.kind == "poly":
        p_true = _true_class_prob(logits, targets)
        ce = T.mean_all(_nll(p_true))
        shortfall = T.mean_all(T.affine(p_true, -1.0, 1.0))
        return T.add(ce, shortfall)
    # bce: one-vs-rest on sigmoid(logits)
    k = logits.shape[1]
    onehot = (targets[:, None] == np.arange(k)[:, None, None]).astype(logits.dtype)
    y = T.sigmoid(logits)
    pos = T.mul(Tensor(onehot), T.log(T.clamp_min(y, LOG_FLOOR)))
    neg = T.mul(Tensor(1.0 - onehot), T.log(T.clamp_min(T.affine(y, -1.0, 1.0), LOG_FLOOR)))
    return T.affine(T.mean_all(T.add(pos, neg)), -1.0, 0.0)
