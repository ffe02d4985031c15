"""The eight ablation networks and their checkpoint format.

Two families, four attention modes each:

* unet -- VGG-style encoder (3x3 conv + ReLU stacks, 2x2 max pool between
  levels), per-level skip blocks, bilinear-upsampling decoder whose final
  feature width equals the base width, then a 3x3 + 1x1 head.
* cnn  -- a resolution-preserving stack of 3x3 conv + ReLU blocks with the
  same optional attention / dual-pool attachments mid-stack, same head.

Every parameter is created through one ParamStore: He-uniform weights and
zero biases drawn from the model seed and registered by name as they are
drawn. So creation order is the initialisation order, the order of
named_parameters() and the checkpoint serialisation order, by construction.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .cbam import CbamBlock, ParamStore, build_cbam, cbam_forward
from .skipfuse import SkipBlockParams, build_skip_block, skip_forward
from .tensor import Tensor

FAMILIES = ("unet", "cnn")
# attention modes in ablation order: (ave, cbam) -> (CLI suffix, ablation row name)
MODES = {(False, False): ("base", "Base"), (True, False): ("ave", "Base+Ave"),
         (False, True): ("cbam", "Base+CBAM"), (True, True): ("full", "Base+Ave+CBAM")}


@dataclass(frozen=True)
class ModelVariant:
    family: str
    ave: bool
    cbam: bool

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def row_name(self) -> str:
        return MODES[(self.ave, self.cbam)][1]

    @property
    def cli_name(self) -> str:
        return f"{self.family}-{MODES[(self.ave, self.cbam)][0]}"

    @staticmethod
    def parse(name: str) -> "ModelVariant":
        for variant in ALL_VARIANTS:
            if variant.cli_name == name:
                return variant
        raise ValueError(
            f"unknown variant {name!r}; expected <unet|cnn>-<base|ave|cbam|full>")


ALL_VARIANTS = tuple(ModelVariant(f, ave, cbam) for f in FAMILIES for ave, cbam in MODES)


@dataclass(frozen=True)
class EncoderConfig:
    """Widths and depth of the backbone.

    Desk default is depth 4 / base 8; the full-scale shape is depth 5 /
    base 64 with convs_per_block (2, 2, 3, 3, 3), whose widths reproduce
    the familiar 64-128-256-512-512 ladder via the 8x cap.
    """
    depth: int = 4
    base_width: int = 8
    in_channels: int = 1
    convs_per_block: Optional[tuple] = None
    width_cap: int = 8            # widths cap at base_width * width_cap
    cbam_reduction: int = 4
    spatial_width: int = 2
    cnn_blocks: int = 6           # cnn family: conv blocks in the stack
    cnn_attach_after: int = 3     # cnn family: attention/dual-pool insertion point

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        for name in ("base_width", "in_channels", "width_cap", "spatial_width", "cnn_blocks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        resolved = tuple(self.convs_per_block) if self.convs_per_block else tuple([2] * self.depth)
        if len(resolved) != self.depth:
            raise ValueError(
                f"convs_per_block needs {self.depth} entries, got {len(resolved)}")
        if min(resolved) < 1:
            raise ValueError(f"every level needs at least one conv, got {resolved}")
        object.__setattr__(self, "convs_per_block", resolved)
        if not 1 <= self.cnn_attach_after <= self.cnn_blocks:
            raise ValueError("cnn_attach_after must lie within the block stack")

    def widths(self) -> list[int]:
        """base_width * 2**level, capped at base_width * width_cap."""
        cap = self.base_width * self.width_cap
        out, w = [], self.base_width
        for _ in range(self.depth):
            out.append(min(w, cap))
            w = min(2 * w, cap)
        return out

    @property
    def divisor(self) -> int:
        return 2 ** (self.depth - 1)


class _ConvStack:
    """n_convs x (3x3 same conv + ReLU)."""

    def __init__(self, store: ParamStore, prefix: str, cin: int, cout: int, n_convs: int):
        self.layers = [store.conv(f"{prefix}.conv{i}", cin if i == 0 else cout, cout, 3)
                       for i in range(n_convs)]

    def forward(self, x: Tensor) -> Tensor:
        for w, b in self.layers:
            x = T.relu(T.conv2d(x, w, b))
        return x


class SegModel:
    """One of the eight variants; maps N-Cin-H-W images to N-K-H-W logits."""

    def __init__(self, variant: ModelVariant, enc: EncoderConfig, num_classes: int, seed: int,
                 dtype=T.TRAIN32):
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        self.variant = variant
        self.enc = enc
        self.num_classes = num_classes
        self._store = ParamStore(seed, dtype)
        self.dtype = self._store.dtype
        if variant.family == "unet":
            self._build_unet()
        else:
            self._build_cnn()

    # -- construction -------------------------------------------------

    def _build_unet(self):
        enc, store = self.enc, self._store
        widths = enc.widths()
        self.encoder_stacks = []
        cin = enc.in_channels
        for lvl in range(enc.depth):
            self.encoder_stacks.append(
                _ConvStack(store, f"enc.l{lvl}", cin, widths[lvl], enc.convs_per_block[lvl]))
            cin = widths[lvl]
        self._encoder = [t for _, t in store.named]   # built first: a prefix of the store
        self.skip_blocks: list[SkipBlockParams] = [
            build_skip_block(store, f"skip.l{lvl}", widths[lvl], widths[lvl + 1],
                             self.variant.ave, self.variant.cbam,
                             enc.cbam_reduction, enc.spatial_width)
            for lvl in range(enc.depth - 1)]
        self.decoder_stacks = [
            _ConvStack(store, f"dec.l{lvl}", widths[lvl + 1] + widths[lvl], widths[lvl], 2)
            for lvl in range(enc.depth - 2, -1, -1)]
        self._build_head(widths[0])

    def _build_cnn(self):
        enc, store = self.enc, self._store
        w = enc.base_width
        self.cnn_stacks = [_ConvStack(store, f"cnn.b{i}", enc.in_channels if i == 0 else w, w, 1)
                           for i in range(enc.cnn_blocks)]
        self._encoder = [t for _, t in store.named]   # built first: a prefix of the store
        self.cnn_branch = None
        self.cnn_fuse = None
        if self.variant.ave:
            self.cnn_branch = _ConvStack(store, "cnn.ave", w, w, 2)
            self.cnn_fuse = store.conv("cnn.ave_fuse", 2 * w, w, 1)
        self.cnn_attention: Optional[CbamBlock] = None
        if self.variant.cbam:
            self.cnn_attention = build_cbam(store, "cnn.cbam", w, enc.cbam_reduction,
                                            enc.spatial_width)
        self._build_head(w)

    def _build_head(self, width):
        self.head = (self._store.conv("head.conv3", width, width, 3),
                     self._store.conv("head.conv1", width, self.num_classes, 1))

    # -- forward ------------------------------------------------------

    def _check_input(self, x: Tensor):
        n, c, h, w = x.shape
        if c != self.enc.in_channels:
            raise T.ShapeError(
                f"model expects {self.enc.in_channels} input channels, got {c}")
        if self.variant.family == "unet":
            d = self.enc.divisor
            if h % d or w % d:
                raise T.ShapeError(
                    f"input {h}x{w} must be divisible by 2^(depth-1) = {d} for depth {self.enc.depth}")
        elif self.variant.ave and (h % 2 or w % 2):
            raise T.ShapeError(
                f"input {h}x{w} must be divisible by 2 for the dual-pool branch")

    def forward(self, x: Tensor) -> Tensor:
        self._check_input(x)
        if self.variant.family == "unet":
            return self._forward_unet(x)
        return self._forward_cnn(x)

    def _forward_unet(self, x: Tensor) -> Tensor:
        feats = []
        y = x
        for lvl, stack in enumerate(self.encoder_stacks):
            if lvl > 0:
                y = T.max_pool2d(y)
            y = stack.forward(y)
            feats.append(y)

        laterals = []
        for lvl, block in enumerate(self.skip_blocks):
            laterals.append(skip_forward(feats[lvl], feats[lvl + 1], block))

        y = feats[-1]
        for stack, lvl in zip(self.decoder_stacks, range(self.enc.depth - 2, -1, -1)):
            y = T.upsample2x(y)
            y = stack.forward(T.concat_channels(y, laterals[lvl]))
        return self._head_forward(y)

    def _forward_cnn(self, x: Tensor) -> Tensor:
        y = x
        for i, stack in enumerate(self.cnn_stacks):
            y = stack.forward(y)
            if i + 1 == self.enc.cnn_attach_after:
                if self.cnn_branch is not None:
                    side = self.cnn_branch.forward(T.avg_pool2d(y))
                    side = T.upsample2x(side)
                    y = T.conv2d(T.concat_channels(y, side), *self.cnn_fuse)
                if self.cnn_attention is not None:
                    y = cbam_forward(y, self.cnn_attention)
        return self._head_forward(y)

    def _head_forward(self, y: Tensor) -> Tensor:
        (w1, b1), (w2, b2) = self.head
        return T.conv2d(T.relu(T.conv2d(y, w1, b1)), w2, b2)

    # -- parameters ---------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self._store.named]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._store.named)

    def set_frozen(self, frozen: bool) -> None:
        """Switch the encoder parameters' gradients off (frozen) or on.

        With them off, and an input that needs no gradient, the encoder
        builds no graph at all, so backward never reaches it.
        """
        for t in self._encoder:
            t.requires_grad = not frozen

    def count_params(self) -> int:
        return sum(t.data.size for t in self.parameters())


def build_model(variant: ModelVariant, enc: EncoderConfig, num_classes: int,
                seed: int, dtype=T.TRAIN32) -> SegModel:
    return SegModel(variant, enc, num_classes, seed, dtype)


# ---------------------------------------------------------------------------
# checkpoints, little-endian and unpadded:
#   bytes  0-3    magic b"SEGM"
#   bytes  4-7    u32 version (1)
#   bytes  8-55   12 x u32: family (index into FAMILIES), ave, cbam, depth,
#                 base_width, in_channels, width_cap, cbam_reduction,
#                 spatial_width, cnn_blocks, cnn_attach_after, num_classes
#   then          depth x u32 convs_per_block
#   then          u64 parameter count n
#   then          n x f32: every parameter flattened row-major, in
#                 construction order (SegModel.parameters()); nothing follows

_MAGIC = b"SEGM"
_VERSION = 1
_HEADER = struct.Struct("<4sI12I")


def save_checkpoint(model: SegModel, path) -> None:
    enc = model.enc
    header = _HEADER.pack(
        _MAGIC, _VERSION,
        FAMILIES.index(model.variant.family), int(model.variant.ave), int(model.variant.cbam),
        enc.depth, enc.base_width, enc.in_channels, enc.width_cap,
        enc.cbam_reduction, enc.spatial_width, enc.cnn_blocks, enc.cnn_attach_after,
        model.num_classes)
    convs = struct.pack(f"<{enc.depth}I", *enc.convs_per_block)
    flat = np.concatenate([t.data.astype("<f4").reshape(-1) for t in model.parameters()])
    count = struct.pack("<Q", flat.size)
    with open(path, "wb") as f:
        f.write(header)
        f.write(convs)
        f.write(count)
        f.write(flat.tobytes())


def _conv_weight_count(family: str, enc: EncoderConfig, num_classes: int) -> int:
    """Weights of the plain conv stacks and the head, from the config alone.

    A floor on SegModel.count_params() (skip, CBAM and bias parameters
    come on top), so a header can be checked against its parameter count
    before any of the model is allocated.
    """
    b = enc.base_width
    total = 9 * b * b + b * num_classes                        # head
    if family == "cnn":
        return total + 9 * b * (enc.in_channels + (enc.cnn_blocks - 1) * b)
    widths = enc.widths()
    cin = enc.in_channels
    for w, convs in zip(widths, enc.convs_per_block):          # encoder
        total += 9 * w * (cin + (convs - 1) * w)
        cin = w
    for lo, hi in zip(widths, widths[1:]):                     # decoder
        total += 9 * lo * (hi + 2 * lo)
    return total


def load_checkpoint(path) -> SegModel:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"checkpoint truncated at byte {len(raw)}: header needs {_HEADER.size}")
    magic, version, fam, ave, cbam, depth, base, cin, cap, red, sw, blocks, attach, k = \
        _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if fam >= len(FAMILIES):
        raise ValueError(f"bad checkpoint family index {fam}; expected < {len(FAMILIES)}")
    off = _HEADER.size
    if len(raw) < off + 4 * depth + 8:
        raise ValueError(f"checkpoint truncated at byte {len(raw)}: depth {depth} needs "
                         f"{off + 4 * depth + 8} bytes before the parameter data")
    convs = struct.unpack_from(f"<{depth}I", raw, off)
    off += 4 * depth
    (count,) = struct.unpack_from("<Q", raw, off)
    off += 8
    expected = off + 4 * count
    if len(raw) != expected:
        raise ValueError(f"checkpoint payload is {len(raw)} bytes, expected {expected}")

    variant = ModelVariant(FAMILIES[fam], bool(ave), bool(cbam))
    enc = EncoderConfig(depth=depth, base_width=base, in_channels=cin,
                        convs_per_block=tuple(convs), width_cap=cap,
                        cbam_reduction=red, spatial_width=sw,
                        cnn_blocks=blocks, cnn_attach_after=attach)
    floor = _conv_weight_count(variant.family, enc, k)
    if floor > count:
        raise ValueError(f"checkpoint holds {count} parameters, but its header describes a "
                         f"model with at least {floor}")
    model = build_model(variant, enc, k, seed=0)
    if model.count_params() != count:
        raise ValueError(
            f"checkpoint holds {count} parameters, model wants {model.count_params()}")
    flat = np.frombuffer(raw, dtype="<f4", offset=off)
    pos = 0
    for t in model.parameters():
        n = t.data.size
        t.data = flat[pos:pos + n].astype(model.dtype).reshape(t.data.shape)
        pos += n
    return model
