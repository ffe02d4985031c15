"""Skip connection variants for the encoder-decoder ladder.

Four modes share one output contract (same channels and resolution as the
encoder feature they wrap), so the ablation study can swap modes without
touching the decoder:

* plain            -- the classical pass-through skip.
* cbam only        -- attention over the encoder feature, re-fused 1x1.
* ave only         -- dual-pool fusion with the deeper encoder level,
                      upsampled and re-fused 1x1.
* ave + cbam       -- dual-pool fusion, attention over the fused cluster,
                      then upsample and the 1x1 re-fusion.

The dual-pool path average-pools the shallow feature, convolves it twice,
concatenates with the (already max-pooled and convolved) deeper encoder
feature and reduces with a 1x1 conv. The unpooled encoder feature joins
again at the end so no resolution is lost.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import tensor as T
from .cbam import CbamBlock, ParamStore, build_cbam, cbam_forward
from .tensor import Tensor


@dataclass
class SkipBlockParams:
    ave: bool
    cbam: bool
    pool_conv_w: list           # two 3x3 convs on the average-pooled branch
    pool_conv_b: list
    fuse_w: Optional[Tensor]    # 1x1: (C + C_deeper) -> C_deeper
    fuse_b: Optional[Tensor]
    attention: Optional[CbamBlock]
    reduce_w: Optional[Tensor]  # 1x1 back to C after re-fusion
    reduce_b: Optional[Tensor]


def build_skip_block(store: ParamStore, prefix: str, channels: int, deeper_channels: int,
                     ave: bool, cbam: bool, reduction: int = 4,
                     spatial_width: int = 2) -> SkipBlockParams:
    """Allocate only what the mode uses; plain mode carries no parameters.

    ``channels`` is the width of the encoder level the block wraps,
    ``deeper_channels`` that of the next (half-resolution) level.
    """
    pool = []
    fuse_w = fuse_b = reduce_w = reduce_b = None
    attention = None
    if ave:
        pool = [store.conv(f"{prefix}.pool_conv{i}", channels, channels, 3) for i in range(2)]
        fuse_w, fuse_b = store.conv(f"{prefix}.fuse", channels + deeper_channels,
                                    deeper_channels, 1)
        if cbam:
            attention = build_cbam(store, f"{prefix}.cbam", deeper_channels, reduction,
                                   spatial_width)
        reduce_w, reduce_b = store.conv(f"{prefix}.reduce", channels + deeper_channels,
                                        channels, 1)
    elif cbam:
        attention = build_cbam(store, f"{prefix}.cbam", channels, reduction, spatial_width)
        reduce_w, reduce_b = store.conv(f"{prefix}.reduce", 2 * channels, channels, 1)
    return SkipBlockParams(ave, cbam, [w for w, _ in pool], [b for _, b in pool],
                           fuse_w, fuse_b, attention, reduce_w, reduce_b)


def dualpool_fuse(shallow: Tensor, deeper: Tensor, p: SkipBlockParams) -> Tensor:
    """Average-pool + double conv on the shallow feature, concat with the
    deeper feature, reduce 1x1 to the deeper width. Output lives at the
    deeper (half) resolution."""
    n, c, h, w = shallow.shape
    if deeper.shape[2] * 2 != h or deeper.shape[3] * 2 != w:
        raise T.ShapeError(
            f"deeper feature must be half resolution: got {deeper.shape[2:]} vs {shallow.shape[2:]}")
    a = T.relu(T.avg_pool2d(shallow))
    a = T.relu(T.conv2d(a, p.pool_conv_w[0], p.pool_conv_b[0]))
    a = T.conv2d(a, p.pool_conv_w[1], p.pool_conv_b[1])
    return T.conv2d(T.concat_channels(a, deeper), p.fuse_w, p.fuse_b)


def skip_forward(shallow: Tensor, deeper: Optional[Tensor], p: SkipBlockParams) -> Tensor:
    """Produce the decoder-facing feature, same shape as ``shallow``."""
    if not p.ave and not p.cbam:
        return shallow
    if p.ave:
        if deeper is None:
            raise T.ShapeError("ave mode needs the deeper encoder feature")
        fused = dualpool_fuse(shallow, deeper, p)
        if p.cbam:
            fused = cbam_forward(fused, p.attention)
        lateral = T.upsample2x(fused)
    else:
        lateral = cbam_forward(shallow, p.attention)
    merged = T.concat_channels(shallow, lateral)
    return T.conv2d(merged, p.reduce_w, p.reduce_b)
