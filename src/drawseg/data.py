"""Synthetic engineering-drawing samples, augmentation, disk layout, K-fold.

Each sample is a white canvas with 3-10 dark strokes drawn from five line
classes. Strokes are rasterized without anti-aliasing so masks stay exact.
A stroke's pixels are worked out as index arrays (its line in the closed
form of Bresenham's loop, widened, dashed, or joined by its arrow head or
digit glyph) and stamped with one array write that darkens the image and
sets the mask alike; a later stroke overwrites earlier ones in both. The
bytes are those of the per-pixel loop kept in tests/_oracles.py, because
strokes are stamped in draw order and every rng draw is made in the same
order; all pixels of one stroke share one shade and one class, so their
order within the stroke does not matter.

Line classes (mask ids):
    0 background
    1 Thi    thick solid segment, 3-5 px wide
    2 Thin   one-px solid segment
    3 Dash   one-px segment with a 4-on/4-off pixel pattern
    4 Arrow  one-px shaft plus a filled triangular head (whole object
             labeled Arrow)
    5 Numer  one-px shaft plus an attached 5x7 seven-segment digit glyph
             (whole object labeled Numer)

Train-time augmentation is one function, augment(sample, rng). It mirrors
and rotates image and mask alike, so labels stay exact, and adds Gaussian
noise to the image only.

On disk: out_dir/{images/<id>.pgm, masks/<id>.pgm, splits/fold<k>.txt,
manifest.txt}, with manifest lines "<id> <width> <height>". Images are
8-bit binary PGM; masks are binary PGM with maxval 5.
"""
from __future__ import annotations

from collections import Counter
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
# The smallest canvas _segment_endpoints can draw on: it needs two endpoints
# at least size / 4 apart inside [_MARGIN, size - _MARGIN). At 7 and 8 no such
# pair exists, so every stroke spends all 50 tries; at 9 one try succeeds with
# p = 0.049 (all 50 fail with p = 0.08), at 10 with p = 0.30 (2e-8).
MIN_SIZE = 10
TRAIN_NOISE_SIGMA = 0.02     # std of the Gaussian noise augment() adds

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

# the seven segments' (column, row) cells in a 5x7 glyph, in _SEGMENTS order
_SEGMENT_CELLS = (
    ((1, 0), (2, 0), (3, 0)), ((4, 1), (4, 2)), ((4, 4), (4, 5)), ((1, 6), (2, 6), (3, 6)),
    ((0, 4), (0, 5)), ((0, 1), (0, 2)), ((1, 3), (2, 3), (3, 3)),
)
# per digit, the (columns, rows) of its lit cells
_GLYPH_CELLS = {
    digit: np.array([cell for seg, lit in zip(_SEGMENT_CELLS, on) if lit for cell in seg]).T
    for digit, on in _SEGMENTS.items()
}
# an arrow head's (t, s) cells: row t = 0..5 back from the tip spans round(0.7 t) cells
# either side of the shaft, round being half to even
_HEAD_T, _HEAD_S = np.array([(t, s) for t in range(6)
                             for s in range(-round(t * 0.7), round(t * 0.7) + 1)]).T


def _line(p0, p1):
    """The pixels (xs, ys) from p0 to p1 of the all-octant Bresenham loop (Zingl
    2012, "A Rasterizing Algorithm for Drawing Curves"), in loop order.

    The loop's closed form (Bresenham 1965, IBM Systems Journal 4(1)): along the
    major axis point i steps i pixels, and along the minor axis
    floor((2 i |minor| + |major|) / (2 |major|)) pixels."""
    (x0, y0), (x1, y1) = p0, p1
    adx, ady = abs(x1 - x0), abs(y1 - y0)
    major, minor = max(adx, ady), min(adx, ady)
    i = np.arange(major + 1)
    j = (2 * i * minor + major) // max(2 * major, 1)
    if adx < ady:
        i, j = j, i
    return x0 + np.sign(x1 - x0) * i, y0 + np.sign(y1 - y0) * j


def _arrow_head(tip, direction):
    """The pixels of a filled head at tip, pointing along direction (none if zero).
    Each cell takes the float64 operations of the per-pixel loop elementwise and
    rounds half to even, so it lands on the loop's pixel."""
    length = float(np.hypot(*direction))
    if length == 0:
        return np.empty((2, 0), dtype=np.int64)
    ux, uy = direction[0] / length, direction[1] / length
    cx, cy = tip[0] - _HEAD_T * ux, tip[1] - _HEAD_T * uy
    return (np.rint(cx + _HEAD_S * -uy).astype(np.int64),
            np.rint(cy + _HEAD_S * ux).astype(np.int64))


def _stroke(class_id, p0, p1, size, rng):
    """The pixels (xs, ys) of one stroke of class_id from p0 to p1; a thick
    stroke draws its width and a number its digit from rng."""
    xs, ys = _line(p0, p1)
    if class_id == THICK:
        width = int(rng.integers(3, 6))
        # every (dx, dy) offset of a width x width pen
        dx, dy = np.meshgrid(np.arange(width) - width // 2, np.arange(width) - width // 2)
        return (xs[:, None] + dx.ravel()).ravel(), (ys[:, None] + dy.ravel()).ravel()
    if class_id == DASH:
        on = np.arange(len(xs)) % (_DASH_ON + _DASH_OFF) < _DASH_ON
        return xs[on], ys[on]
    if class_id == ARROW:
        hx, hy = _arrow_head(p1, p1 - p0)
        return np.concatenate([xs, hx]), np.concatenate([ys, hy])
    if class_id == NUMBER:
        mid = (p0 + p1) // 2
        left = int(np.clip(mid[0] + 2, 0, size - _GLYPH_W))
        top = int(np.clip(mid[1] + 2, 0, size - _GLYPH_H))
        gx, gy = _GLYPH_CELLS[int(rng.integers(0, 10))]
        return np.concatenate([xs, left + gx]), np.concatenate([ys, top + gy])
    return xs, ys


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
        xs, ys = _stroke(class_id, p0, p1, size, rng)
        # one stroke, one shade and one class: the order of its pixels does not matter
        inside = (xs >= 0) & (xs < size) & (ys >= 0) & (ys < size)
        canvas[ys[inside], xs[inside]] = shade
        mask[ys[inside], xs[inside]] = class_id
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


def augment(sample: Sample, rng: np.random.Generator) -> Sample:
    """The train-time policy, drawn from rng in this order: horizontal mirror,
    vertical mirror, rotation by k * 90 degrees (label-exact), then Gaussian
    noise of std TRAIN_NOISE_SIGMA on the image only, clipped to [0, 1]."""
    image, mask = sample.image, sample.mask
    if rng.integers(2):
        image, mask = image[:, ::-1], mask[:, ::-1]
    if rng.integers(2):
        image, mask = image[::-1, :], mask[::-1, :]
    k = int(rng.integers(4))
    image, mask = np.rot90(image, k), np.rot90(mask, k)
    # a nested generator for the noise keeps the bytes of every earlier augmented run
    noise = np.random.default_rng(int(rng.integers(2 ** 31))).normal(
        0.0, TRAIN_NOISE_SIGMA, image.shape)
    image = np.clip(image.astype(np.float64) + noise, 0.0, 1.0).astype(np.float32)
    return Sample(image=image, mask=np.ascontiguousarray(mask))


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
    """Sample sid under root: its image must be 8-bit (maxval 255), its mask
    hold maxval NUM_CLASSES - 1."""
    image_path, mask_path = (Path(root) / kind / f"{sid}.pgm" for kind in ("images", "masks"))
    pixels, maxval = read_pgm(image_path)
    if maxval != 255:
        raise ValueError(f"{image_path}: image maxval {maxval}, expected 255")
    mask, maxval = read_pgm(mask_path)
    if maxval != NUM_CLASSES - 1:
        raise ValueError(f"{mask_path}: mask maxval {maxval}, expected {NUM_CLASSES - 1}")
    return Sample(image=pixels.astype(np.float32) / 255.0, mask=mask)


def generate_dataset(n: int, size: int, seed: int, out_dir, folds: int = 5) -> list[str]:
    """Write n samples plus manifest and K-fold split lists; returns the ids.

    The size, the split and out_dir are checked first, so a size below
    MIN_SIZE, an n below ``folds`` or an out_dir that already holds
    manifest.txt or splits/ (whose old fold files a new split would not all
    replace) raises ValueError before anything is written.
    """
    if size < MIN_SIZE:
        raise ValueError(f"--size {size} is too small for strokes; the smallest is {MIN_SIZE}")
    ids = sample_ids(n)
    split = kfold_split(ids, folds, seed)
    out = Path(out_dir)
    if (out / "manifest.txt").exists() or (out / "splits").exists():
        raise ValueError(f"{out} already holds a dataset (manifest.txt or splits/); "
                         "generate into a new directory")
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
    out the ids in splits/fold<k>.txt; manifest, split and id-list files come
    from outside the program, so a malformed line or unknown id is a ValueError.
    An id must be one path component, so the files named after it stay inside
    images/, masks/ and predict's --out."""

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
            if fields[0] in (".", "..") or "/" in fields[0] or "\\" in fields[0]:
                raise ValueError(f"{manifest}:{n}: id {fields[0]!r} is not one path component")
            try:   # int() alone also takes "+16", "1_6" and non-ASCII digits
                w, h = (int(f) if f.isascii() and f.isdigit() else 0 for f in fields[1:])
            except ValueError:   # more digits than int() converts
                w = h = 0
            if w < 1 or h < 1:
                raise ValueError(f"{manifest}:{n}: image size {fields[1]}x{fields[2]} "
                                 "is not two decimal integers >= 1")
            self.ids.append(fields[0])
            self.sizes[fields[0]] = (w, h)
        self._cache: dict[str, Sample] = {}

    def size(self, sid: str) -> tuple[int, int]:
        """(width, height) of sid, as the manifest gives it."""
        if sid not in self.sizes:
            raise KeyError(f"sample id {sid!r} not in manifest")
        return self.sizes[sid]

    def load(self, sid: str) -> Sample:
        if sid not in self._cache:
            w, h = self.size(sid)
            sample = load_sample(self.root, sid)
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

    def read_ids(self, path) -> list[str]:
        """The ids a list file names: at least one, each in the manifest, none twice."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"missing id list {path}")
        ids = path.read_text().split()
        if not ids:
            raise ValueError(f"{path} names no ids")
        unknown = [sid for sid in ids if sid not in self.sizes]
        if unknown:
            raise ValueError(f"{path} names ids not in the manifest: "
                             + ", ".join(map(repr, unknown[:3])))
        twice = [sid for sid, count in Counter(ids).items() if count > 1]
        if twice:
            raise ValueError(f"{path} names ids more than once: "
                             + ", ".join(map(repr, twice[:3])))
        return ids

    def split_ids(self, k: int) -> list[str]:
        return self.read_ids(self.root / "splits" / f"fold{k}.txt")

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
