"""Convolutional block attention: channel weighting then spatial weighting.

The channel stage squeezes the input through global max and average pools,
runs both through one shared two-layer MLP and gates the channels with a
sigmoid. The spatial stage pools the channel-attended map across channels,
stacks the two 1-channel maps and pushes them through a chain of three
3x3 convolutions (a cheaper stand-in for a single 7x7) ending in a sigmoid.
Both gates multiply back into the feature map, so the block preserves shape
and can only attenuate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ParamStore:
    """Creates every parameter of a network from one seeded generator.

    Each tensor is registered under its name as it is drawn, so ``named``
    lists the parameters in draw order, which is also the order a model
    reports and checkpoints them in. It lives here because this is the
    lowest module that both skipfuse and models import.
    """

    def __init__(self, seed: int, dtype=T.TRAIN32):
        self.rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self.named: list[tuple[str, Tensor]] = []

    def weight(self, name: str, shape, fan_in: int) -> Tensor:
        """He-uniform draw: U(-l, l) with l = sqrt(6 / fan_in)."""
        limit = np.sqrt(6.0 / fan_in)
        return self._register(name, self.rng.uniform(-limit, limit, size=shape))

    def conv(self, name: str, cin: int, cout: int, k: int) -> tuple[Tensor, Tensor]:
        """A k x k conv: He-uniform weight ``name.w``, then zero bias ``name.b``."""
        w = self.weight(f"{name}.w", (cout, cin, k, k), cin * k * k)
        return w, self._register(f"{name}.b", np.zeros(cout))

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True, dtype=self.dtype, name=name)
        self.named.append((name, t))
        return t


@dataclass
class CbamBlock:
    """Shared-MLP weights w1: (C/r, C) and w2: (C, C/r) for the channel gate,
    and three (w, b) 3x3 convs, 2 -> hidden -> hidden -> 1 channels, for the
    spatial gate."""
    w1: Tensor
    w2: Tensor
    spatial: list


def build_cbam(store: ParamStore, prefix: str, channels: int, reduction: int = 4,
               spatial_width: int = 2) -> CbamBlock:
    """Parameters ``prefix.mlp.w1``, ``prefix.mlp.w2``, ``prefix.spatial.conv{0,1,2}``.

    One MLP storage serves both pooled branches; the reduction r is clamped
    so the bottleneck keeps at least one unit.
    """
    if channels < 1:
        raise ValueError(f"cbam needs >= 1 channel, got {channels}")
    hidden = max(1, channels // max(1, reduction))
    w1 = store.weight(f"{prefix}.mlp.w1", (hidden, channels), channels)
    w2 = store.weight(f"{prefix}.mlp.w2", (channels, hidden), hidden)
    widths = [(2, spatial_width), (spatial_width, spatial_width), (spatial_width, 1)]
    return CbamBlock(w1, w2, [store.conv(f"{prefix}.spatial.conv{i}", cin, cout, 3)
                              for i, (cin, cout) in enumerate(widths)])


def _shared_mlp(pooled: Tensor, block: CbamBlock) -> Tensor:
    return T.dense(T.relu(T.dense(pooled, block.w1)), block.w2)


def channel_attention(x: Tensor, block: CbamBlock) -> Tensor:
    """Per-channel gate in (0,1), shape N-C-1-1.

    sigmoid(MLP(global_max_pool(x)) + MLP(global_avg_pool(x))) with the
    MLP weights shared between the two branches.
    """
    branch_max = _shared_mlp(T.global_max_pool(x), block)
    branch_avg = _shared_mlp(T.global_avg_pool(x), block)
    return T.sigmoid(T.add(branch_max, branch_avg))


def spatial_attention(x: Tensor, block: CbamBlock) -> Tensor:
    """Per-pixel gate in (0,1), shape N-1-H-W.

    Channel-pools the input to a 2-channel map (mean and max), then three
    3x3 same-padded convs with ReLU between them and a sigmoid at the end.
    """
    (w0, b0), (w1, b1), (w2, b2) = block.spatial
    y = T.concat_channels(T.channel_avg_pool(x), T.channel_max_pool(x))
    y = T.relu(T.conv2d(y, w0, b0))
    y = T.relu(T.conv2d(y, w1, b1))
    return T.sigmoid(T.conv2d(y, w2, b2))


def cbam_forward(x: Tensor, block: CbamBlock) -> Tensor:
    """Channel gate, then spatial gate computed on the channel-attended map.

    Both gates broadcast-multiply into the map: N-C-1-1 over H and W, then
    N-1-H-W over channels.
    """
    attended = T.mul(x, channel_attention(x, block))
    return T.mul(attended, spatial_attention(attended, block))
