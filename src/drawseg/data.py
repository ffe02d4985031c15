"""Synthetic engineering-drawing samples, augmentation, disk layout, K-fold.

Each sample is a white canvas with 3-10 dark strokes drawn from five line
classes. Strokes are rasterized without anti-aliasing so masks stay exact;
every mask pixel is set by the same stamp that darkens the image, and a
later stroke overwrites earlier ones in both.

Line classes (mask ids):
    0 background
    1 Thi    thick solid segment, 3-5 px wide
    2 Thin   one-px solid segment
    3 Dash   one-px segment with a 4-on/4-off pixel pattern
    4 Arrow  one-px shaft plus a filled triangular head (whole object
             labeled Arrow)
    5 Numer  one-px shaft plus an attached 5x7 seven-segment digit glyph
             (whole object labeled Numer)

On disk: out_dir/{images/<id>.pgm, masks/<id>.pgm, splits/fold<k>.txt,
manifest.txt}, with manifest lines "<id> <width> <height>". Images are
8-bit binary PGM; masks are binary PGM with maxval 5.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .netpbm import read_pgm, write_pgm

BACKGROUND, THICK, THIN, DASH, ARROW, NUMBER = range(6)
NUM_CLASSES = 6
CLASS_NAMES = ("Background", "Thi", "Thin", "Dash", "Arrow", "Numer")

_WHITE = 255
_MARGIN = 3
_DASH_ON = 4
_DASH_OFF = 4
_GLYPH_W, _GLYPH_H = 5, 7

# seven-segment membership per digit: (top, top-right, bottom-right,
# bottom, bottom-left, top-left, middle)
_SEGMENTS = {
    0: (1, 1, 1, 1, 1, 1, 0), 1: (0, 1, 1, 0, 0, 0, 0), 2: (1, 1, 0, 1, 1, 0, 1),
    3: (1, 1, 1, 1, 0, 0, 1), 4: (0, 1, 1, 0, 0, 1, 1), 5: (1, 0, 1, 1, 0, 1, 1),
    6: (1, 0, 1, 1, 1, 1, 1), 7: (1, 1, 1, 0, 0, 0, 0), 8: (1, 1, 1, 1, 1, 1, 1),
    9: (1, 1, 1, 1, 0, 1, 1),
}


@dataclass
class Sample:
    image: np.ndarray  # H x W float32 in [0, 1], white background ~1.0
    mask: np.ndarray   # H x W uint8 class ids

    def __post_init__(self):
        if self.image.shape != self.mask.shape:
            raise ValueError(
                f"image {self.image.shape} and mask {self.mask.shape} disagree")


# ---------------------------------------------------------------------------
# rasterization


def _bresenham(p0, p1):
    x0, y0 = int(p0[0]), int(p0[1])
    x1, y1 = int(p1[0]), int(p1[1])
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    pts = []
    while True:
        pts.append((x0, y0))
        if x0 == x1 and y0 == y1:
            return pts
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _stamp(canvas_u8, mask, x, y, class_id, shade):
    h, w = mask.shape
    if 0 <= x < w and 0 <= y < h:
        canvas_u8[y, x] = shade
        mask[y, x] = class_id


def _draw_polyline(canvas_u8, mask, pts, class_id, shade, width=1, pattern=None):
    offsets = range(-(width // 2), width - width // 2)
    for i, (x, y) in enumerate(pts):
        if pattern is not None and not pattern(i):
            continue
        if width == 1:
            _stamp(canvas_u8, mask, x, y, class_id, shade)
        else:
            for dx in offsets:
                for dy in offsets:
                    _stamp(canvas_u8, mask, x + dx, y + dy, class_id, shade)


def _draw_arrow_head(canvas_u8, mask, tip, direction, shade):
    length = float(np.hypot(*direction))
    if length == 0:
        return
    ux, uy = direction[0] / length, direction[1] / length
    px, py = -uy, ux
    for t in range(6):
        cx, cy = tip[0] - t * ux, tip[1] - t * uy
        half = int(round(t * 0.7))
        for s in range(-half, half + 1):
            _stamp(canvas_u8, mask, int(round(cx + s * px)), int(round(cy + s * py)),
                   ARROW, shade)


def _draw_glyph(canvas_u8, mask, left, top, digit, shade):
    on = _SEGMENTS[digit]
    rows = {
        0: [(0, c) for c in range(1, 4)],                 # top
        1: [(r, 4) for r in (1, 2)],                      # top-right
        2: [(r, 4) for r in (4, 5)],                      # bottom-right
        3: [(6, c) for c in range(1, 4)],                 # bottom
        4: [(r, 0) for r in (4, 5)],                      # bottom-left
        5: [(r, 0) for r in (1, 2)],                      # top-left
        6: [(3, c) for c in range(1, 4)],                 # middle
    }
    for seg, cells in rows.items():
        if on[seg]:
            for r, c in cells:
                _stamp(canvas_u8, mask, left + c, top + r, NUMBER, shade)


def _segment_endpoints(rng, size):
    lo, hi = _MARGIN, size - _MARGIN
    for _ in range(50):
        p0 = rng.integers(lo, hi, size=2)
        p1 = rng.integers(lo, hi, size=2)
        if np.hypot(*(p1 - p0)) >= size / 4:
            return p0, p1
    return p0, p1


def make_sample(size: int, rng: np.random.Generator) -> Sample:
    """One drawing with 3-10 strokes, classes uniform over the five kinds."""
    canvas = np.full((size, size), _WHITE, dtype=np.uint8)
    mask = np.zeros((size, size), dtype=np.uint8)
    for _ in range(int(rng.integers(3, 11))):
        class_id = int(rng.integers(1, 6))
        shade = int(rng.integers(0, 81))
        p0, p1 = _segment_endpoints(rng, size)
        pts = _bresenham(p0, p1)
        if class_id == THICK:
            _draw_polyline(canvas, mask, pts, THICK, shade, width=int(rng.integers(3, 6)))
        elif class_id == THIN:
            _draw_polyline(canvas, mask, pts, THIN, shade)
        elif class_id == DASH:
            period = _DASH_ON + _DASH_OFF
            _draw_polyline(canvas, mask, pts, DASH, shade,
                           pattern=lambda i: i % period < _DASH_ON)
        elif class_id == ARROW:
            _draw_polyline(canvas, mask, pts, ARROW, shade)
            _draw_arrow_head(canvas, mask, p1, p1 - p0, shade)
        else:
            _draw_polyline(canvas, mask, pts, NUMBER, shade)
            mid = (p0 + p1) // 2
            left = int(np.clip(mid[0] + 2, 0, size - _GLYPH_W))
            top = int(np.clip(mid[1] + 2, 0, size - _GLYPH_H))
            _draw_glyph(canvas, mask, left, top, int(rng.integers(0, 10)), shade)
    # mask pixels must sit on darkened image pixels
    assert not np.any((mask > 0) & (canvas == _WHITE)), "mask/image consistency broken"
    return Sample(image=(canvas.astype(np.float32) / 255.0), mask=mask)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def sample_ids(n: int) -> list[str]:
    return [f"{i:05d}" for i in range(n)]


def generate_samples(n: int, size: int, seed: int):
    """Yield (id, Sample); each id draws from its own seed-derived stream."""
    for i, sid in enumerate(sample_ids(n)):
        yield sid, make_sample(size, sample_rng(seed, i))


# ---------------------------------------------------------------------------
# augmentation


@dataclass(frozen=True)
class AugmentSpec:
    """Geometric ops hit image and mask identically; noise hits only the image.

    Applied in the order horizontal mirror, vertical mirror, rotation
    (multiples of 90 degrees, label-exact), Gaussian noise.
    """
    mirror_h: bool = False
    mirror_v: bool = False
    rot90: int = 0
    noise_sigma: float = 0.0


def augment(sample: Sample, spec: AugmentSpec, seed: int) -> Sample:
    rng = np.random.default_rng(seed)
    image, mask = sample.image, sample.mask
    if spec.mirror_h:
        image = image[:, ::-1]
        mask = mask[:, ::-1]
    if spec.mirror_v:
        image = image[::-1, :]
        mask = mask[::-1, :]
    if spec.rot90 % 4:
        image = np.rot90(image, spec.rot90)
        mask = np.rot90(mask, spec.rot90)
    image = np.ascontiguousarray(image)
    mask = np.ascontiguousarray(mask)
    if spec.noise_sigma > 0:
        noisy = image.astype(np.float64) + rng.normal(0.0, spec.noise_sigma, image.shape)
        image = np.clip(noisy, 0.0, 1.0).astype(np.float32)
    return Sample(image=image, mask=mask)


def random_augment_spec(rng: np.random.Generator, noise_sigma: float = 0.02) -> AugmentSpec:
    """Train-time draw: random flips and rotation plus mild noise."""
    return AugmentSpec(mirror_h=bool(rng.integers(2)), mirror_v=bool(rng.integers(2)),
                       rot90=int(rng.integers(4)), noise_sigma=noise_sigma)


# ---------------------------------------------------------------------------
# disk layout


def save_sample(root, sid: str, sample: Sample) -> None:
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    u8 = np.rint(sample.image * 255.0).astype(np.uint8)
    write_pgm(root / "images" / f"{sid}.pgm", u8, maxval=255)
    if sample.mask.max(initial=0) >= NUM_CLASSES:
        raise ValueError(f"mask for {sid} holds ids outside 0..{NUM_CLASSES - 1}")
    write_pgm(root / "masks" / f"{sid}.pgm", sample.mask, maxval=NUM_CLASSES - 1)


def load_sample(root, sid: str) -> Sample:
    root = Path(root)
    pixels, _ = read_pgm(root / "images" / f"{sid}.pgm")
    mask, maxval = read_pgm(root / "masks" / f"{sid}.pgm")
    if maxval != NUM_CLASSES - 1:
        raise ValueError(
            f"{root / 'masks' / (sid + '.pgm')}: mask maxval {maxval}, expected {NUM_CLASSES - 1}")
    return Sample(image=pixels.astype(np.float32) / 255.0, mask=mask)


def generate_dataset(n: int, size: int, seed: int, out_dir, folds: int = 5) -> list[str]:
    """Write n samples plus manifest and K-fold split lists; returns the ids.

    The split comes first, so an n below ``folds`` raises ValueError before
    anything is written.
    """
    ids = sample_ids(n)
    split = kfold_split(ids, folds, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for sid, sample in generate_samples(n, size, seed):
        save_sample(out, sid, sample)
    with open(out / "manifest.txt", "w") as f:
        for sid in ids:
            f.write(f"{sid} {size} {size}\n")
    (out / "splits").mkdir(exist_ok=True)
    for k, fold in enumerate(split):
        with open(out / "splits" / f"fold{k}.txt", "w") as f:
            for sid in fold:
                f.write(sid + "\n")
    return ids


class DrawingDataset:
    """Directory-backed dataset with an in-memory sample cache. Fold k holds
    out the ids in splits/fold<k>.txt; manifest and split files come from
    outside the program, so a malformed line or unknown id is a ValueError."""

    def __init__(self, root):
        self.root = Path(root)
        manifest = self.root / "manifest.txt"
        if not manifest.exists():
            raise FileNotFoundError(f"no manifest.txt under {self.root}")
        self.ids: list[str] = []
        self.sizes: dict[str, tuple[int, int]] = {}
        for n, line in enumerate(manifest.read_text().splitlines(), 1):
            fields = line.split()
            if len(fields) != 3 or fields[0] in self.sizes:
                raise ValueError(f"{manifest}:{n}: expected '<id> <width> <height>' "
                                 f"with a new id, got {line!r}")
            self.ids.append(fields[0])
            self.sizes[fields[0]] = (int(fields[1]), int(fields[2]))
        self._cache: dict[str, Sample] = {}

    def load(self, sid: str) -> Sample:
        if sid not in self._cache:
            if sid not in self.sizes:
                raise KeyError(f"sample id {sid!r} not in manifest")
            sample = load_sample(self.root, sid)
            w, h = self.sizes[sid]
            if sample.image.shape != (h, w):
                got_h, got_w = sample.image.shape
                raise ValueError(f"sample {sid!r}: image is {got_w}x{got_h}, "
                                 f"manifest says {w}x{h}")
            self._cache[sid] = sample
        return self._cache[sid]

    @property
    def num_folds(self) -> int:
        """K, the count of consecutive split files from fold0.txt on."""
        k = 0
        while (self.root / "splits" / f"fold{k}.txt").exists():
            k += 1
        return k

    def split_ids(self, k: int) -> list[str]:
        path = self.root / "splits" / f"fold{k}.txt"
        if not path.exists():
            raise FileNotFoundError(f"missing split file {path}")
        ids = path.read_text().split()
        if not ids:
            raise ValueError(f"{path} names no ids")
        unknown = [sid for sid in ids if sid not in self.sizes]
        if unknown:
            raise ValueError(f"{path} names ids not in the manifest: "
                             + ", ".join(map(repr, unknown[:3])))
        return ids

    def fold(self, k: int) -> tuple[list[str], list[str]]:
        """(training ids in manifest order, validation ids) of fold k."""
        val = self.split_ids(k)
        held = set(val)
        train = [sid for sid in self.ids if sid not in held]
        if not train:
            raise ValueError(f"fold {k} holds out every id in the manifest")
        return train, val


# ---------------------------------------------------------------------------
# folds


def kfold_split(ids: Iterable[str], k: int, seed: int) -> list[list[str]]:
    """The K folds: a seeded shuffle, then a round-robin deal, so fold sizes
    differ by <= 1."""
    ids = list(ids)
    if k < 2:
        raise ValueError(f"K must be >= 2, got {k}")
    if len(ids) < k:
        raise ValueError(f"need at least K={k} ids, got {len(ids)}")
    order = np.random.default_rng([seed, 0xF01D]).permutation(len(ids))
    folds: list[list[str]] = [[] for _ in range(k)]
    for pos, idx in enumerate(order):
        folds[pos % k].append(ids[idx])
    return folds
