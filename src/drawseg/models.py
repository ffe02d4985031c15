"""The eight ablation networks and their checkpoint format.

Two families, four attention modes each:

* unet -- VGG-style encoder (two 3x3 conv + ReLU per level, 2x2 max pool
  between levels), per-level skip blocks, bilinear-upsampling decoder whose
  final feature width equals the base width, then a 3x3 + 1x1 head. The
  paper's VGG16 backbone holds 2, 2, 3, 3, 3 convs per level; this build
  holds 2 per level at every depth (see EncoderConfig).
* cnn  -- a resolution-preserving stack of 3x3 conv + ReLU blocks with the
  same optional attention / dual-pool attachments mid-stack, same head.

Every parameter is created through one ParamStore, which draws it from
the model seed (build_model) or reads it from a checkpoint, and registers
it by name. So creation order is the initialisation order, the order of
named_parameters() and the checkpoint serialisation order, by construction.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .cbam import REDUCTION, SPATIAL_WIDTH, CbamBlock, ParamStore, build_cbam, cbam_forward
from .skipfuse import SkipBlockParams, build_skip_block, skip_forward
from .tensor import Tensor

FAMILIES = ("unet", "cnn")
# attention modes in ablation order: (ave, cbam) -> (CLI suffix, ablation row name)
MODES = {(False, False): ("base", "Base"), (True, False): ("ave", "Base+Ave"),
         (False, True): ("cbam", "Base+CBAM"), (True, True): ("full", "Base+Ave+CBAM")}
IN_CHANNELS = 1        # a drawing is one gray plane
WIDTH_CAP = 8          # unet widths stop doubling at base_width * WIDTH_CAP
CNN_BLOCKS = 6         # cnn family: conv blocks in the stack
CNN_ATTACH_AFTER = 3   # cnn family: dual-pool/attention attach after this many blocks


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
    """Depth and base width of the unet backbone; the cnn family uses
    base_width only.

    Desk default is depth 4 / base 8; depth 5 / base 64 gives the paper's
    VGG16 width ladder 64-128-256-512-512 via WIDTH_CAP. Deviation: VGG16
    holds 2, 2, 3, 3, 3 convs per level, and every level here holds 2, at
    any depth, because no model in use sets another count. A caller that
    needs the VGG16 layout may bring a per-level setting back.
    """
    depth: int = 4
    base_width: int = 8

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        if self.base_width < 1:
            raise ValueError(f"base_width must be >= 1, got {self.base_width}")

    def widths(self) -> list[int]:
        """base_width * 2**level, capped at base_width * WIDTH_CAP."""
        cap = self.base_width * WIDTH_CAP
        out, w = [], self.base_width
        for _ in range(self.depth):
            out.append(min(w, cap))
            w = min(2 * w, cap)
        return out

    @property
    def divisor(self) -> int:
        return 2 ** (self.depth - 1)


class _ConvStack:
    """n_convs x (3x3 same conv + ReLU); ``cat`` joins x at the first conv."""

    def __init__(self, store: ParamStore, prefix: str, cin: int, cout: int, n_convs: int):
        self.layers = [store.conv(f"{prefix}.conv{i}", cin if i == 0 else cout, cout, 3)
                       for i in range(n_convs)]

    def forward(self, x: Tensor, cat: Optional[Tensor] = None) -> Tensor:
        for w, b in self.layers:
            x = T.conv2d(x, w, b, relu=True, cat=cat)
            cat = None
        return x


class SegModel:
    """One of the eight variants; maps N-1-H-W images to N-K-H-W logits.
    Keeps the tensors ``store`` hands out, not the store."""

    def __init__(self, variant: ModelVariant, enc: EncoderConfig, num_classes: int,
                 store: ParamStore):
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        self.variant = variant
        self.enc = encoder_of(variant, enc)
        self.num_classes = num_classes
        self.dtype = store.dtype
        if variant.family == "unet":
            self._build_unet(store)
        else:
            self._build_cnn(store)
        self._named = store.named

    # -- construction -------------------------------------------------

    def _build_unet(self, store: ParamStore):
        enc = self.enc
        widths = enc.widths()
        self.encoder_stacks = []
        cin = IN_CHANNELS
        for lvl in range(enc.depth):
            self.encoder_stacks.append(
                _ConvStack(store, f"enc.l{lvl}", cin, widths[lvl], 2))
            cin = widths[lvl]
        self._encoder = [t for _, t in store.named]   # built first: a prefix of the store
        self.skip_blocks: list[SkipBlockParams] = [
            build_skip_block(store, f"skip.l{lvl}", widths[lvl], widths[lvl + 1],
                             self.variant.ave, self.variant.cbam)
            for lvl in range(enc.depth - 1)]
        self.decoder_stacks = [
            _ConvStack(store, f"dec.l{lvl}", widths[lvl + 1] + widths[lvl], widths[lvl], 2)
            for lvl in range(enc.depth - 2, -1, -1)]
        self._build_head(store, widths[0])

    def _build_cnn(self, store: ParamStore):
        enc = self.enc
        w = enc.base_width
        self.cnn_stacks = [_ConvStack(store, f"cnn.b{i}", IN_CHANNELS if i == 0 else w, w, 1)
                           for i in range(CNN_BLOCKS)]
        self._encoder = [t for _, t in store.named]   # built first: a prefix of the store
        self.cnn_branch = None
        self.cnn_fuse = None
        if self.variant.ave:
            self.cnn_branch = _ConvStack(store, "cnn.ave", w, w, 2)
            self.cnn_fuse = store.conv("cnn.ave_fuse", 2 * w, w, 1)
        self.cnn_attention: Optional[CbamBlock] = None
        if self.variant.cbam:
            self.cnn_attention = build_cbam(store, "cnn.cbam", w)
        self._build_head(store, w)

    def _build_head(self, store: ParamStore, width: int):
        self.head = (store.conv("head.conv3", width, width, 3),
                     store.conv("head.conv1", width, self.num_classes, 1))

    # -- forward ------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape   # conv2d checks the channel count
        check_input_size(self.variant, self.enc, h, w)
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
            y = stack.forward(y, cat=laterals[lvl])
        return self._head_forward(y)

    def _forward_cnn(self, x: Tensor) -> Tensor:
        y = x
        for i, stack in enumerate(self.cnn_stacks):
            y = stack.forward(y)
            if i + 1 == CNN_ATTACH_AFTER:
                if self.cnn_branch is not None:
                    side = self.cnn_branch.forward(T.avg_pool2d(y))
                    side = T.upsample2x(side)
                    y = T.conv2d(y, *self.cnn_fuse, cat=side)
                if self.cnn_attention is not None:
                    y = cbam_forward(y, self.cnn_attention)
        return self._head_forward(y)

    def _head_forward(self, y: Tensor) -> Tensor:
        (w1, b1), (w2, b2) = self.head
        return T.conv2d(T.conv2d(y, w1, b1, relu=True), w2, b2)

    # -- parameters ---------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self._named]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._named)

    def set_frozen(self, frozen: bool) -> None:
        """Switch the encoder parameters' gradients off (frozen) or on.

        With them off, and an input that needs no gradient, the encoder
        builds no graph at all, so backward never reaches it.
        """
        for t in self._encoder:
            t.requires_grad = not frozen

    def count_params(self) -> int:
        return sum(t.data.size for t in self.parameters())


def encoder_of(variant: ModelVariant, enc: EncoderConfig) -> EncoderConfig:
    """The encoder a variant builds from ``enc``: the cnn family reads base_width
    only, and its default depth gives it one checkpoint byte form."""
    return enc if variant.family == "unet" else EncoderConfig(base_width=enc.base_width)


def check_input_size(variant: ModelVariant, enc: EncoderConfig, h: int, w: int) -> None:
    """Raise ShapeError unless every pooling of the variant halves an h x w input evenly."""
    if variant.family == "unet":
        d = enc.divisor
        if h % d or w % d:
            raise T.ShapeError(
                f"input width {w} and height {h} must be divisible by 2^(depth-1) = {d} "
                f"for depth {enc.depth}")
    elif variant.ave and (h % 2 or w % 2):
        raise T.ShapeError(
            f"input width {w} and height {h} must be divisible by 2 for the dual-pool branch")


def build_model(variant: ModelVariant, enc: EncoderConfig, num_classes: int,
                seed: int, dtype=T.TRAIN32) -> SegModel:
    """A freshly initialised model: every parameter drawn from ``seed``."""
    return SegModel(variant, enc, num_classes, ParamStore(seed, dtype))


# ---------------------------------------------------------------------------
# checkpoints, little-endian and unpadded:
#   bytes  0-3    magic b"SEGM"
#   bytes  4-7    u32 version (2)
#   bytes  8-55   12 x u32: family (index into FAMILIES), ave and cbam
#                 (0 or 1 each), depth, base_width, then fields 5-10, which
#                 hold the constants _FIXED (IN_CHANNELS, which is 1,
#                 WIDTH_CAP, cbam.REDUCTION, cbam.SPATIAL_WIDTH, CNN_BLOCKS,
#                 CNN_ATTACH_AFTER), then num_classes; a cnn checkpoint
#                 holds the default depth, which the cnn family never reads
#   bytes 56-63   u64 parameter count n, at least depth (every level holds
#                 values), which bounds the depth by the file size
#   then          n x f32: every parameter flattened row-major, in
#                 construction order (SegModel.parameters()); nothing follows
# load_checkpoint builds the model to read the payload, so construction is
# the only description of the layout.

_MAGIC = b"SEGM"
_VERSION = 2
_HEADER = struct.Struct("<4sI12I")
_FIXED = (IN_CHANNELS, WIDTH_CAP, REDUCTION, SPATIAL_WIDTH, CNN_BLOCKS, CNN_ATTACH_AFTER)


def save_checkpoint(model: SegModel, path) -> None:
    enc = model.enc
    header = _HEADER.pack(
        _MAGIC, _VERSION,
        FAMILIES.index(model.variant.family), int(model.variant.ave), int(model.variant.cbam),
        enc.depth, enc.base_width, *_FIXED, model.num_classes)
    flat = np.concatenate([t.data.astype("<f4").reshape(-1) for t in model.parameters()])
    count = struct.pack("<Q", flat.size)
    with open(path, "wb") as f:
        f.write(header)
        f.write(count)
        f.write(flat.tobytes())


class _PayloadStore(ParamStore):
    """Hands each tensor, in creation order, an owned copy of the payload's
    next f32 values, after checking that what is left of the payload fills it
    and that every value is finite."""

    def __init__(self, raw: bytes, offset: int):
        self.dtype, self.named = np.dtype(T.TRAIN32), []
        self._raw, self._pos = raw, offset

    def weight(self, name: str, shape) -> Tensor:
        return self._take(name, shape)

    def bias(self, name: str, n: int) -> Tensor:
        return self._take(name, (n,))

    def _take(self, name: str, shape) -> Tensor:
        n = math.prod(shape)
        if 4 * n > len(self._raw) - self._pos:
            raise ValueError(f"checkpoint payload ends inside {name}, which needs {n} values")
        values = np.frombuffer(self._raw, "<f4", n, self._pos).reshape(shape).astype(self.dtype)
        if not np.isfinite(values).all():
            raise ValueError(f"checkpoint holds a non-finite value in {name}")
        self._pos += 4 * n
        return self._register(name, values)


def load_checkpoint(path) -> SegModel:
    """Check every header field, then build the model through a _PayloadStore;
    the payload must be used up. Besides the file's bytes, loading allocates
    tensor values for at most the payload, however large the header's model,
    and the model keeps no reference to the bytes."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"checkpoint truncated at byte {len(raw)}: header needs {_HEADER.size}")
    magic, version, fam, ave, cbam, depth, base, *fixed, k = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if fam >= len(FAMILIES):
        raise ValueError(f"bad checkpoint family index {fam}; expected < {len(FAMILIES)}")
    if ave > 1 or cbam > 1:
        raise ValueError(f"checkpoint ave and cbam flags are {ave} and {cbam}; expected 0 or 1")
    if tuple(fixed) != _FIXED:
        raise ValueError(f"checkpoint header fields 5-10 are {tuple(fixed)}; "
                         f"this build only reads {_FIXED}")
    off = _HEADER.size + 8
    if len(raw) < off:
        raise ValueError(f"checkpoint truncated at byte {len(raw)}: the header and "
                         f"parameter count need {off}")
    (count,) = struct.unpack_from("<Q", raw, _HEADER.size)
    expected = off + 4 * count
    if len(raw) != expected:
        raise ValueError(f"checkpoint payload is {len(raw)} bytes, expected {expected}")
    if count < depth:
        raise ValueError(f"checkpoint depth {depth} exceeds its parameter count {count}: "
                         "every level holds values")

    variant = ModelVariant(FAMILIES[fam], bool(ave), bool(cbam))
    enc = EncoderConfig(depth=depth, base_width=base)
    stored = encoder_of(variant, enc)
    if enc != stored:
        raise ValueError(f"cnn checkpoint holds depth {depth}; "
                         f"the cnn family stores {stored.depth}")
    store = _PayloadStore(raw, off)
    model = SegModel(variant, enc, k, store)
    if store._pos != len(raw):
        raise ValueError(f"checkpoint holds {count} parameters, the model it describes "
                         f"uses {model.count_params()}")
    return model
