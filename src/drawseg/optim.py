"""Adam with bias correction and the cosine learning-rate schedule, whose
floor is lr0 / 100, worked out where the rate is, so it follows lr0."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import NumericalError, Tensor


def cosine_lr(lr0: float, total_epochs: int, epoch: int) -> float:
    """Cosine decay from lr0 at epoch 0 to lr0 / 100 at epoch total_epochs."""
    if total_epochs < 1 or not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside schedule range [0, {total_epochs}], "
                         "or total_epochs below 1")
    eta_min = lr0 / 100.0
    span = lr0 - eta_min
    return eta_min + 0.5 * span * (1.0 + math.cos(math.pi * epoch / total_epochs))


@dataclass
class _Slot:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


class Adam:
    """Holds first/second moments per parameter, keyed by tensor identity.

    A parameter skipped in one ``step`` call (e.g. while the encoder is
    frozen) keeps its slot untouched; its step counter resumes when it is
    stepped again, so bias correction stays well defined after unfreezing.
    Frozen parameters are the caller's business: pass only the tensors to
    update.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Sequence[Tensor]):
        self._slots: dict[int, _Slot] = {
            id(p): _Slot(np.zeros_like(p.data), np.zeros_like(p.data)) for p in params}

    def step(self, params: Sequence[Tensor], lr: float) -> None:
        """Update every tensor in ``params``, or, if any is unknown or has a
        non-finite gradient, raise before changing any of them."""
        for p in params:
            if id(p) not in self._slots:
                raise KeyError(f"parameter {p.name or p.shape} unknown to this optimizer")
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericalError(
                    f"non-finite gradient in parameter {p.name or p.shape}; step rejected")
        for p in params:
            slot = self._slots[id(p)]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            slot.t += 1
            # in place, with the float operations of the out-of-place update in
            # the same order, so the bits hold; v takes ((1 - beta2) * g) * g
            slot.m *= self.beta1
            slot.m += (1.0 - self.beta1) * g
            slot.v *= self.beta2
            slot.v += (1.0 - self.beta2) * g * g
            mhat = slot.m / (1.0 - self.beta1 ** slot.t)
            vhat = slot.v / (1.0 - self.beta2 ** slot.t)
            # a step that overflows writes non-finite weights, which train's
            # epoch-end check reports; numpy's warning would only come first
            with np.errstate(over="ignore", invalid="ignore"):
                p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)
