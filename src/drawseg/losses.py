"""Pixelwise segmentation losses over N-K-H-W logits and integer masks.

Four kinds are compared by the training harness:

* ce    -- mean softmax cross-entropy, -log p_t.
* focal -- -FOCAL_ALPHA * (1 - p_t)^gamma * log p_t; the modulating factor
           down-weights pixels the model already classifies confidently,
           which matters here because background dominates the masks.
           FOCAL_ALPHA = 0.25 (Lin et al., arXiv 1708.02002) only scales the
           loss, which Adam ignores but for its eps, so it is a constant; a
           power of two, so focal(gamma=0) is FOCAL_ALPHA * ce bit-for-bit.
* bce   -- one-vs-rest binary cross-entropy on sigmoid(logits), averaged
           over pixels and classes.
* poly  -- ce + POLY_EPS * mean(1 - p_t), the first-order polynomial
           expansion with POLY_EPS = 1: Poly-1 (Leng et al., arXiv 2204.12511).

Logs are clamped at 1e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

LOG_FLOOR = 1e-12
LOSS_KINDS = ("ce", "bce", "poly", "focal")
POLY_EPS = 1.0
FOCAL_ALPHA = 0.25


@dataclass(frozen=True)
class LossSpec:
    kind: str = "focal"
    gamma: float = 2.0       # focal only

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"focal gamma must be finite and >= 0, got {self.gamma}")


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
        modulator = T.power(T.affine(p_true, -1.0, 1.0), spec.gamma)
        return T.mean_all(T.mul(T.affine(modulator, FOCAL_ALPHA, 0.0), _nll(p_true)))
    if spec.kind == "poly":
        p_true = _true_class_prob(logits, targets)
        ce = T.mean_all(_nll(p_true))
        shortfall = T.mean_all(T.affine(p_true, -1.0, 1.0))
        return T.add(ce, T.affine(shortfall, POLY_EPS, 0.0))
    # bce: one-vs-rest on sigmoid(logits)
    n, k, h, w = logits.shape
    onehot = np.zeros((n, k, h, w), dtype=logits.dtype)
    ni = np.arange(n)[:, None, None]
    hi = np.arange(h)[None, :, None]
    wi = np.arange(w)[None, None, :]
    onehot[ni, targets, hi, wi] = 1.0
    y = T.sigmoid(logits)
    pos = T.mul(Tensor(onehot), T.log(T.clamp_min(y, LOG_FLOOR)))
    neg = T.mul(Tensor(1.0 - onehot), T.log(T.clamp_min(T.affine(y, -1.0, 1.0), LOG_FLOOR)))
    return T.affine(T.mean_all(T.add(pos, neg)), -1.0, 0.0)
