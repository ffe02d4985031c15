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
    """The (w, b) convs and attention its mode uses: plain mode holds no
    ``reduce``, only ave modes hold ``pool`` and ``fuse``."""
    pool: list                      # two 3x3 convs on the average-pooled branch
    fuse: Optional[tuple]           # 1x1: (C + C_deeper) -> C_deeper
    attention: Optional[CbamBlock]
    reduce: Optional[tuple]         # 1x1 back to C after re-fusion


def build_skip_block(store: ParamStore, prefix: str, channels: int, deeper_channels: int,
                     ave: bool, cbam: bool) -> SkipBlockParams:
    """Allocate only what the mode uses; plain mode carries no parameters.

    ``channels`` is the width of the encoder level the block wraps,
    ``deeper_channels`` that of the next (half-resolution) level.
    """
    block = SkipBlockParams([], None, None, None)
    if not (ave or cbam):
        return block
    lateral = deeper_channels if ave else channels   # width that re-fuses with ``channels``
    if ave:
        block.pool = [store.conv(f"{prefix}.pool_conv{i}", channels, channels, 3)
                      for i in range(2)]
        block.fuse = store.conv(f"{prefix}.fuse", channels + deeper_channels, deeper_channels, 1)
    if cbam:
        block.attention = build_cbam(store, f"{prefix}.cbam", lateral)
    block.reduce = store.conv(f"{prefix}.reduce", channels + lateral, channels, 1)
    return block


def dualpool_fuse(shallow: Tensor, deeper: Tensor, p: SkipBlockParams) -> Tensor:
    """Average-pool + double conv on the shallow feature, concat with the
    deeper feature, reduce 1x1 to the deeper width. Output lives at the
    deeper (half) resolution."""
    n, c, h, w = shallow.shape
    if deeper.shape[2] * 2 != h or deeper.shape[3] * 2 != w:
        raise T.ShapeError(
            f"deeper feature must be half resolution: got {deeper.shape[2:]} vs {shallow.shape[2:]}")
    (w0, b0), (w1, b1) = p.pool
    a = T.avg_pool2d(shallow)
    a = T.conv2d(a, w0, b0, relu=True)
    a = T.conv2d(a, w1, b1)
    return T.conv2d(a, *p.fuse, cat=deeper)


def skip_forward(shallow: Tensor, deeper: Optional[Tensor], p: SkipBlockParams) -> Tensor:
    """Produce the decoder-facing feature, same shape as ``shallow``."""
    if p.reduce is None:
        return shallow
    if p.fuse is not None:
        if deeper is None:
            raise T.ShapeError("ave mode needs the deeper encoder feature")
        lateral = dualpool_fuse(shallow, deeper, p)
        if p.attention is not None:
            lateral = cbam_forward(lateral, p.attention)
        lateral = T.upsample2x(lateral)
    else:
        lateral = cbam_forward(shallow, p.attention)
    return T.conv2d(shallow, *p.reduce, cat=lateral)
