"""Generator determinism, augmentation exactness, codec, folds, dataset text."""
import hashlib
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawseg import cli
from drawseg import data as D
from drawseg import training as TR
from drawseg.netpbm import read_pgm, write_pgm

import _oracles as oracle

# frozen counting-pass result: 500 samples, 64x64, seed 0
FROZEN_FREQ = {
    "Background": 0.903369,
    "Thi": 0.053510,
    "Thin": 0.009066,
    "Dash": 0.004983,
    "Arrow": 0.016524,
    "Numer": 0.012548,
}


class TestGeneration:
    def test_mask_ids_in_range(self):
        for _, s in D.generate_samples(20, 64, 3):
            assert s.mask.min() >= 0 and s.mask.max() <= 5

    def test_mask_sits_on_darkened_pixels(self):
        for _, s in D.generate_samples(20, 64, 4):
            stroke = s.mask > 0
            assert np.all(s.image[stroke] < 1.0)

    def test_deterministic_per_seed(self):
        a = list(D.generate_samples(5, 32, 9))
        b = list(D.generate_samples(5, 32, 9))
        for (ida, sa), (idb, sb) in zip(a, b):
            assert ida == idb
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.mask, sb.mask)

    def test_class_frequency_regression(self):
        counts = np.zeros(6, dtype=np.int64)
        for _, s in D.generate_samples(500, 64, 0):
            counts += np.bincount(s.mask.reshape(-1), minlength=6)
        freq = counts / counts.sum()
        assert freq[0] > 0.90
        for c in range(1, 6):
            assert freq[c] > 0.001, D.CLASS_NAMES[c]
        for i, name in enumerate(D.CLASS_NAMES):
            assert abs(freq[i] - FROZEN_FREQ[name]) < 1e-6, name

    def test_make_sample_golden_digest(self):
        # pins make_sample's image and mask bytes from 7 to 256. These
        # samples hold every class at every size, thick widths 3-5, dashes that
        # reach their off phase, a glyph at the clip edge and arrow heads
        # clipped at all four borders (the last three counted by instrumenting
        # the per-pixel loop that tests/_oracles.py keeps)
        digest = hashlib.sha256()
        for size, n in ((7, 16), (13, 48), (64, 48), (128, 16), (256, 8)):
            seen = set()
            for i in range(n):
                s = D.make_sample(size, D.sample_rng(28, i))
                seen.update(np.unique(s.mask).tolist())
                for a in (s.image, s.mask):
                    digest.update(f"{a.dtype}{a.shape}".encode())
                    digest.update(a.tobytes())
            assert seen == set(range(D.NUM_CLASSES)), size
        assert digest.hexdigest() == (
            "6338ce312c4b79bd2274aa0d4743e9351d1ff7f4f80e7d496ca9ac255b9e4886")

    def test_strokes_at_min_size_keep_their_endpoints_apart(self, monkeypatch):
        # _segment_endpoints falls back to its last draw after 50 failed tries;
        # at MIN_SIZE no stroke of these samples needs that fallback
        pairs = []
        real = D._segment_endpoints

        def spy(rng, size):
            pairs.append(real(rng, size))
            return pairs[-1]

        monkeypatch.setattr(D, "_segment_endpoints", spy)
        for i in range(200):
            D.make_sample(D.MIN_SIZE, D.sample_rng(29, i))
        assert len(pairs) >= 600
        assert all(np.hypot(*(p1 - p0)) >= D.MIN_SIZE / 4 for p0, p1 in pairs)

    def test_dataset_dir_byte_identical_on_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        D.generate_dataset(8, 32, 1, a)
        D.generate_dataset(8, 32, 1, b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_dataset_layout(self, tmp_path):
        ids = D.generate_dataset(10, 32, 0, tmp_path / "d", folds=5)
        root = tmp_path / "d"
        assert len(ids) == 10
        assert (root / "manifest.txt").exists()
        assert len(list((root / "images").glob("*.pgm"))) == 10
        assert len(list((root / "masks").glob("*.pgm"))) == 10
        split_ids = [sid for k in range(5) for sid in (root / "splits" / f"fold{k}.txt").read_text().split()]
        assert sorted(split_ids) == sorted(ids)

    @pytest.mark.parametrize("kept", ["manifest.txt", "splits"])
    def test_directory_holding_a_dataset_refused(self, tmp_path, kept):
        # regenerating with fewer folds left the old fold files beside the new ones
        root = tmp_path / "d"
        D.generate_dataset(20, 16, 0, root, folds=5)
        (root / ({"manifest.txt", "splits"} - {kept}).pop()).rename(tmp_path / "aside")
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        with pytest.raises(ValueError, match=f"{root} already holds a dataset"):
            D.generate_dataset(20, 16, 1, root, folds=2)
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before

    def test_manifest_size_mismatch_rejected(self, tmp_path):
        ids = D.generate_dataset(2, 16, 0, tmp_path / "d", folds=2)
        manifest = tmp_path / "d" / "manifest.txt"
        manifest.write_text(f"{ids[0]} 16 16\n{ids[1]} 16 8\n")
        ds = D.DrawingDataset(tmp_path / "d")
        assert ds.load(ids[0]).image.shape == (16, 16)
        with pytest.raises(ValueError, match=f"{ids[1]}.*16x16.*16x8"):
            ds.load(ids[1])


class Draws:
    """Stands in for a stroke's rng: integers() returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def integers(self, lo, hi):
        value = self.values.pop(0)
        assert lo <= value < hi
        return value


def stroke_pixels(class_id, p0, p1, size, *draws):
    """(closed-form pixels on the canvas, the loop's pixels, closed-form pixels
    before clipping) of one stroke, as sets of (x, y)."""
    p0, p1 = np.array(p0), np.array(p1)
    xs, ys = D._stroke(class_id, p0, p1, size, Draws(*draws))
    raw = set(zip(xs.tolist(), ys.tolist()))
    mask = np.zeros((size, size), dtype=np.uint8)
    oracle.draw_stroke_loops(np.full((size, size), 255, dtype=np.uint8), mask, class_id, 0,
                             p0, p1, Draws(*draws))
    want = {(int(x), int(y)) for y, x in zip(*np.nonzero(mask))}
    return {(x, y) for x, y in raw if 0 <= x < size and 0 <= y < size}, want, raw


class TestRasterizer:
    """The closed-form rasterizer against the per-pixel loop in tests/_oracles.py."""

    def test_line_matches_the_loop_for_every_offset_within_63(self):
        # all octants, zero-length, axis-aligned and diagonal lines
        for dx in range(-63, 64):
            for dy in range(-63, 64):
                p0, p1 = np.array([70, 70]), np.array([70 + dx, 70 + dy])
                xs, ys = D._line(p0, p1)
                assert list(zip(xs.tolist(), ys.tolist())) == oracle.bresenham_loop(p0, p1), \
                    (dx, dy)

    def test_line_matches_the_loop_on_a_256_canvas(self):
        rng = np.random.default_rng(256)
        for _ in range(2000):
            p0, p1 = rng.integers(0, 256, size=(2, 2))
            xs, ys = D._line(p0, p1)
            assert list(zip(xs.tolist(), ys.tolist())) == oracle.bresenham_loop(p0, p1)

    @pytest.mark.parametrize("width", [3, 4, 5])
    def test_thick_stroke_clipped_at_the_corner(self, width):
        got, want, raw = stroke_pixels(D.THICK, (0, 0), (23, 9), 24, width)
        assert got == want
        assert min(x for x, _ in raw) < 0 and min(y for _, y in raw) < 0

    @pytest.mark.parametrize("p0, p1, size", [
        ((2, 3), (60, 41), 64),   # many dash periods
        ((3, 3), (9, 3), 13),     # one on phase, part of one off phase
        ((3, 3), (3, 3), 7)])
    def test_thin_and_dash_strokes(self, p0, p1, size):
        for class_id in (D.THIN, D.DASH):
            got, want, _ = stroke_pixels(class_id, p0, p1, size)
            assert got == want

    @pytest.mark.parametrize("p0, p1, clipped", [
        ((1, 20), (1, 4), lambda x, y: x < 0),      # along the left border
        ((22, 4), (22, 20), lambda x, y: x > 23),   # along the right border
        ((4, 1), (20, 1), lambda x, y: y < 0),      # along the top border
        ((20, 22), (4, 22), lambda x, y: y > 23),   # along the bottom border
        ((3, 3), (23, 23), None),                   # into a corner
        ((5, 9), (5, 9), None)])                    # zero length: no head
    def test_arrow_head(self, p0, p1, clipped):
        got, want, raw = stroke_pixels(D.ARROW, p0, p1, 24)
        assert got == want
        if clipped is not None:
            assert any(clipped(x, y) for x, y in raw)

    @pytest.mark.parametrize("digit", range(10))
    def test_glyph_at_the_clip_edge(self, digit):
        # unclipped, the glyph would start at column 23; clipped, it ends there
        got, want, _ = stroke_pixels(D.NUMBER, (20, 20), (22, 22), 24, digit)
        assert got == want and max(x for x, _ in got) == 23
        got, want, _ = stroke_pixels(D.NUMBER, (3, 3), (3, 3), D.MIN_SIZE, digit)
        assert got == want

    @pytest.mark.parametrize("size", [7, 8, D.MIN_SIZE, 13, 31, 64, 97, 256])
    def test_samples_match_the_loop(self, size):
        for i in range(40 if size < 256 else 6):
            s = D.make_sample(size, D.sample_rng(size, i))
            canvas, mask = oracle.make_sample_loops(size, D.sample_rng(size, i),
                                                    D._segment_endpoints)
            np.testing.assert_array_equal(s.mask, mask)
            np.testing.assert_array_equal(s.image, canvas.astype(np.float32) / 255.0)


def augment_draws(seed):
    """A twin generator's draws, replayed by hand: (mirror_h, mirror_v, k, noise seed)."""
    rng = np.random.default_rng(seed)
    return (int(rng.integers(2)), int(rng.integers(2)), int(rng.integers(4)),
            int(rng.integers(2 ** 31)))


def seed_drawing(mirror_h, mirror_v, k):
    return next(seed for seed in itertools.count()
                if augment_draws(seed)[:3] == (mirror_h, mirror_v, k))


def geometry_oracle(a, mirror_h, mirror_v, k):
    """Mirrors, then k quarter turns counter-clockwise, pixel by pixel."""
    h, w = a.shape
    out = np.empty_like(a)
    for i in range(h):
        for j in range(w):
            out[i, j] = a[h - 1 - i if mirror_v else i, w - 1 - j if mirror_h else j]
    for _ in range(k):
        h, w = out.shape
        turned = np.empty((w, h), dtype=out.dtype)
        for i in range(w):
            for j in range(h):
                turned[i, j] = out[j, w - 1 - i]
        out = turned
    return out


def augment_oracle(sample, seed):
    mirror_h, mirror_v, k, noise_seed = augment_draws(seed)
    image = geometry_oracle(sample.image, mirror_h, mirror_v, k).astype(np.float64)
    image += np.random.default_rng(noise_seed).normal(0.0, D.TRAIN_NOISE_SIGMA, image.shape)
    return (np.clip(image, 0.0, 1.0).astype(np.float32),
            geometry_oracle(sample.mask, mirror_h, mirror_v, k))


class TestAugment:
    def sample(self, seed=11):
        # not square, so a quarter turn changes the shape
        s = next(iter(D.generate_samples(1, 32, seed)))[1]
        return D.Sample(image=s.image[:, :27].copy(), mask=s.mask[:, :27].copy())

    def assert_oracle(self, sample, seed):
        out = D.augment(sample, np.random.default_rng(seed))
        image, mask = augment_oracle(sample, seed)
        for got, want in ((out.image, image), (out.mask, mask)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        return out

    def test_mirror_involution_bit_exact(self):
        s = self.sample()
        seed = seed_drawing(1, 0, 0)
        once = self.assert_oracle(s, seed)
        twice = self.assert_oracle(once, seed)
        np.testing.assert_array_equal(twice.mask, s.mask)
        image, _ = augment_oracle(D.Sample(*augment_oracle(s, seed)), seed)
        assert twice.image.tobytes() == image.tobytes()

    def test_mirror_moves_mask_with_image(self):
        s = self.sample()
        out = self.assert_oracle(s, seed_drawing(1, 0, 0))
        np.testing.assert_array_equal(out.mask, s.mask[:, ::-1])
        assert np.abs(out.image - s.image[:, ::-1]).max() <= 6 * D.TRAIN_NOISE_SIGMA

    def test_rot90_preserves_class_histogram(self):
        s = self.sample()
        for k in (1, 2, 3):
            out = self.assert_oracle(s, seed_drawing(0, 0, k))
            np.testing.assert_array_equal(
                np.bincount(out.mask.reshape(-1), minlength=6),
                np.bincount(s.mask.reshape(-1), minlength=6))

    def test_rot90_maps_positions_exactly(self):
        s = self.sample()
        out = self.assert_oracle(s, seed_drawing(0, 0, 1))
        np.testing.assert_array_equal(out.mask, np.rot90(s.mask, 1))

    def test_noise_statistics_and_mask_untouched(self):
        s = self.sample()
        sigma = D.TRAIN_NOISE_SIGMA
        out = self.assert_oracle(s, seed_drawing(0, 0, 0))
        np.testing.assert_array_equal(out.mask, s.mask)
        assert not np.array_equal(out.image, s.image)
        delta = np.abs(out.image.astype(np.float64) - s.image.astype(np.float64)).mean()
        lo = 0.5 * sigma * math.sqrt(2.0 / math.pi) * 0.5
        assert lo <= delta <= 2.0 * sigma, delta

    def test_same_seed_same_noise(self):
        s = self.sample()
        a = D.augment(s, np.random.default_rng(7))
        b = D.augment(s, np.random.default_rng(7))
        assert a.image.tobytes() == b.image.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()
        rng = np.random.default_rng(7)
        rng.integers(2)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        c, d = D.augment(s, rng), D.augment(s, twin)
        assert c.image.tobytes() == d.image.tobytes()
        assert not np.array_equal(c.image, a.image)

    def test_64_positions_draw_every_mirror_and_turn(self):
        # the seeds _train_sample gives the first 64 positions of epoch 0
        s = self.sample()
        seen = set()
        for seed in ([0, 202, 0, position] for position in range(64)):
            self.assert_oracle(s, seed)
            seen.add(augment_draws(seed)[:3])
        assert seen == {(h, v, k) for h in (0, 1) for v in (0, 1) for k in range(4)}

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_geometric_ops_keep_mask_on_strokes(self, seed):
        rng = np.random.default_rng(seed)
        s = D.make_sample(32, rng)
        out = D.augment(s, rng)
        stroke = out.mask > 0
        assert np.all(out.image[stroke] < 1.0)

    def test_train_sample_golden_digest(self):
        # pins the bytes of augmented training samples: any change to the draw
        # order or the noise changes this digest
        class Memory:
            def __init__(self, size):
                self.samples = dict(D.generate_samples(4, size, size))

            def load(self, sid):
                return self.samples[sid]

        digest = hashlib.sha256()
        for size in (16, 32, 64):
            dataset = Memory(size)
            ids = sorted(dataset.samples)
            for seed in (0, 7):
                cfg = TR.TrainConfig(seed=seed, augment=True)
                for epoch in range(3):
                    for pos in range(8):
                        out = TR._train_sample(dataset, ids[pos % 4], cfg, epoch, pos)
                        for a in (out.image, out.mask):
                            digest.update(f"{a.dtype}{a.shape}{a.flags.c_contiguous}".encode())
                            digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "fa9b50353a000af5423c61e4c06ba1b32cf97486f3b2fc9b90be79f91b7f65d2")


class TestCodec:
    def test_roundtrip_bit_exact(self, tmp_path):
        _, s = next(iter(D.generate_samples(1, 32, 5)))
        D.save_sample(tmp_path, "x", s)
        back = D.load_sample(tmp_path, "x")
        np.testing.assert_array_equal(back.image, s.image)
        np.testing.assert_array_equal(back.mask, s.mask)

    def test_image_file_size_is_header_plus_payload(self, tmp_path):
        _, s = next(iter(D.generate_samples(1, 64, 6)))
        D.save_sample(tmp_path, "y", s)
        size = (tmp_path / "images" / "y.pgm").stat().st_size
        assert size == len(b"P5\n64 64\n255\n") + 64 * 64

    def test_image_maxval_other_than_255_rejected(self, tmp_path):
        # read as 8-bit, an all-white image of maxval 1 loaded near-black
        _, s = next(iter(D.generate_samples(1, 16, 5)))
        D.save_sample(tmp_path, "x", s)
        write_pgm(tmp_path / "images" / "x.pgm", np.ones((16, 16), dtype=np.uint8), maxval=1)
        with pytest.raises(ValueError, match=r"images[/\\]x\.pgm: image maxval 1, expected 255"):
            D.load_sample(tmp_path, "x")

    def test_mask_value_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        payload = bytes([0, 1, 7, 2])
        path.write_bytes(b"P5\n2 2\n5\n" + payload)
        with pytest.raises(ValueError, match="exceeds maxval"):
            read_pgm(path)

    def test_malformed_header_reports_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 xx\n255\n" + bytes(4))
        with pytest.raises(ValueError, match="byte 5"):
            read_pgm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ValueError, match="expected 16"):
            read_pgm(path)

    def test_not_pgm_rejected(self, tmp_path):
        path = tmp_path / "nope.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            read_pgm(path)

    def test_writer_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "z.pgm", np.array([[6]]), maxval=5)

    def test_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x01\x02")
        pixels, maxval = read_pgm(path)
        np.testing.assert_array_equal(pixels, [[1, 2]])
        assert maxval == 255

    @pytest.mark.parametrize("raw, offset", [
        (b"P5\n0 3\n255\n", 3), (b"P5\n3 0\n255\n", 5), (b"P5\n-1 -1\n255\n\x00", 3),
        (b"P5\n+2 1\n255\n\x00\x00", 3), (b"P5\n2 1_0\n255\n" + bytes(20), 5)],
        ids=["width_0", "height_0", "negative", "plus_sign", "underscore"])
    def test_size_not_a_positive_decimal_reports_file_and_offset(self, tmp_path, raw, offset):
        path = tmp_path / "empty.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=rf"empty\.pgm: .* at byte {offset}$"):
            read_pgm(path)


def _pgm(w: int, h: int, maxval: int, payload: bytes, sep: bytes = b"\n") -> bytes:
    return b"P5" + sep + b"%d %d" % (w, h) + sep + b"%d" % maxval + sep + payload


_SMALL = st.integers(min_value=-2, max_value=4)
_PGM_BYTES = st.one_of(
    st.builds(_pgm, _SMALL, _SMALL, st.sampled_from([0, 1, 5, 255, 256]),
              st.binary(max_size=20), st.sampled_from([b"\n", b" ", b"\t", b"\n# c\n", b""])),
    st.binary(max_size=40).map(lambda tail: b"P5" + tail),
    st.binary(max_size=40))


class TestPgmFuzz:
    """Every input either reads back what write_pgm wrote or raises ValueError."""

    @staticmethod
    def _edit(raw: bytes, edits) -> bytes:
        out = bytearray(raw)
        for kind, pos, byte in edits:
            pos %= len(out) + 1
            if kind == "set" and pos < len(out):
                out[pos] = byte
            elif kind == "insert":
                out.insert(pos, byte)
            elif kind == "cut":
                del out[pos:]
        return bytes(out)

    @given(st.data(), st.integers(1, 5), st.integers(1, 5), st.sampled_from([1, 5, 255]),
           st.lists(st.tuples(st.sampled_from(["set", "insert", "cut"]),
                              st.integers(0, 100), st.integers(0, 255)), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_written_then_edited(self, data, h, w, maxval, edits):
        pixels = np.array(data.draw(st.lists(st.integers(0, maxval), min_size=h * w,
                                             max_size=h * w)), dtype=np.uint8).reshape(h, w)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.pgm"
            write_pgm(path, pixels, maxval)
            raw = path.read_bytes()
            edited = self._edit(raw, edits)
            path.write_bytes(edited)
            try:
                got, got_max = read_pgm(path)
            except ValueError:
                assert edited != raw
                return
            if edited == raw:
                np.testing.assert_array_equal(got, pixels)
                assert got_max == maxval
            self._assert_well_formed(got, got_max, Path(tmp))

    @given(_PGM_BYTES)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.pgm"
            path.write_bytes(raw)
            try:
                got, got_max = read_pgm(path)
            except ValueError:
                return
            self._assert_well_formed(got, got_max, Path(tmp))

    @staticmethod
    def _assert_well_formed(pixels, maxval, tmp: Path):
        """An accepted image is one write_pgm takes and read_pgm gives back unchanged."""
        assert pixels.dtype == np.uint8 and pixels.ndim == 2 and min(pixels.shape) >= 1
        path = tmp / "again.pgm"
        write_pgm(path, pixels, maxval)
        again, again_max = read_pgm(path)
        np.testing.assert_array_equal(again, pixels)
        assert again_max == maxval


class TestKFold:
    def test_ten_ids_five_folds(self):
        folds = D.kfold_split([f"s{i}" for i in range(10)], 5, 0)
        assert [len(f) for f in folds] == [2] * 5
        all_ids = sorted(sid for f in folds for sid in f)
        assert all_ids == sorted(f"s{i}" for i in range(10))

    def test_4094_ids_fold_sizes(self):
        folds = D.kfold_split([str(i) for i in range(4094)], 5, 0)
        assert [len(f) for f in folds] == [819, 819, 819, 819, 818]

    def test_same_seed_same_folds(self):
        ids = [str(i) for i in range(23)]
        assert D.kfold_split(ids, 5, 3) == D.kfold_split(ids, 5, 3)

    def test_training_validation_partition(self, tmp_path):
        D.generate_dataset(17, 16, 1, tmp_path / "d", folds=4)
        ds = D.DrawingDataset(tmp_path / "d")
        assert ds.num_folds == 4
        for k in range(4):
            train, val = ds.fold(k)
            assert val == ds.split_ids(k)
            assert not set(val) & set(train)
            assert set(val) | set(train) == set(ds.ids)
            assert train == [sid for sid in ds.ids if sid in set(train)]   # manifest order

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            D.kfold_split(["a", "b"], 1, 0)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=100),
           st.integers(min_value=8, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_fold_sizes_differ_by_at_most_one(self, k, seed, n):
        sizes = [len(f) for f in D.kfold_split([str(i) for i in range(n)], k, seed)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n


def write_dataset_text(root, manifest: bytes, splits: list) -> None:
    """A dataset directory holding only manifest.txt and splits/fold<k>.txt."""
    (root / "splits").mkdir(parents=True)
    (root / "manifest.txt").write_bytes(manifest)
    for k, text in enumerate(splits):
        (root / "splits" / f"fold{k}.txt").write_bytes(text)


_IDS = ["00000", "00001", "00002"]
_TOKEN = st.one_of(st.sampled_from(_IDS + ["16", "-1", "0", "x"]),
                   st.text(st.characters(exclude_categories=("Cs",)), max_size=5))
_LINE = st.one_of(
    st.tuples(st.sampled_from(_IDS), st.sampled_from(["16", "0", "-3", "x"]),
              st.sampled_from(["16", "1e3", ""])).map(" ".join),
    st.lists(_TOKEN, max_size=4).map(" ".join))
_GOOD_IDS = st.lists(st.sampled_from(_IDS), min_size=1, max_size=3, unique=True)
_MANIFEST = st.one_of(
    _GOOD_IDS.map(lambda ids: "".join(f"{sid} 16 16\n" for sid in ids).encode()),
    st.lists(_LINE, max_size=5).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=30))
_SPLIT = st.one_of(_GOOD_IDS.map(lambda ids: "\n".join(ids).encode()),
                   st.lists(_TOKEN, max_size=4).map(lambda tokens: " ".join(tokens).encode()),
                   st.binary(max_size=12))


class TestDatasetText:
    def make(self, root, manifest="00000 16 16\n00001 16 16\n00002 16 16\n",
             splits=("00000\n", "00001\n00002\n")):
        write_dataset_text(root, manifest.encode(), [s.encode() for s in splits])
        return D.DrawingDataset(root)

    def test_well_formed_folds(self, tmp_path):
        ds = self.make(tmp_path / "d")
        assert ds.num_folds == 2
        assert ds.fold(0) == (["00001", "00002"], ["00000"])
        assert ds.fold(1) == (["00000"], ["00001", "00002"])

    def test_folds_counted_up_to_the_first_gap(self, tmp_path):
        ds = self.make(tmp_path / "d")
        (tmp_path / "d" / "splits" / "fold1.txt").rename(tmp_path / "d" / "splits" / "fold2.txt")
        assert ds.num_folds == 1
        with pytest.raises(FileNotFoundError, match="fold1.txt"):
            ds.fold(1)

    def test_unknown_split_id_named(self, tmp_path):
        ds = self.make(tmp_path / "d", splits=("00000\nghost\n00009\n", "00001\n"))
        with pytest.raises(ValueError, match=r"fold0\.txt names ids not in the manifest: "
                                             r"'ghost', '00009'"):
            ds.fold(0)

    def test_id_named_twice_rejected(self, tmp_path):
        ds = self.make(tmp_path / "d", splits=("00000\n00002\n00000\n", "00001\n"))
        with pytest.raises(ValueError, match=r"fold0\.txt names ids more than once: '00000'"):
            ds.fold(0)

    @given(raw=st.one_of(
        st.lists(st.sampled_from(_IDS), max_size=5).map(lambda ids: "\n".join(ids).encode()),
        st.lists(_TOKEN, max_size=4).map(lambda tokens: " ".join(tokens).encode()),
        st.binary(max_size=30)))
    @settings(max_examples=80, deadline=None)
    def test_fuzzed_id_list_is_read_or_rejected(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            ds = self.make(Path(tmp) / "d")
            path = Path(tmp) / "ids.txt"
            path.write_bytes(raw)
            try:
                ids = ds.read_ids(path)
            except (ValueError, FileNotFoundError):
                return
        assert ids and len(set(ids)) == len(ids) and set(ids) <= set(ds.ids)

    @pytest.mark.parametrize("splits, match", [
        (("", "00001\n"), "names no ids"),
        (("00000 00001 00002\n", "00001\n"), "holds out every id"),
    ])
    def test_degenerate_fold_rejected(self, tmp_path, splits, match):
        ds = self.make(tmp_path / "d", splits=splits)
        with pytest.raises(ValueError, match=match):
            ds.fold(0)

    @pytest.mark.parametrize("manifest, match", [
        ("00000 16 16\n\n00001 16 16\n", r"manifest\.txt:2: expected"),
        ("00000 16\n", r"manifest\.txt:1: expected"),
        ("00000 16 16\n00000 16 16\n", r"manifest\.txt:2: .*new id"),
        ("00000 16 x\n", r"manifest\.txt:1: image size 16xx is not two decimal integers"),
        ("00001 16 1e3\n", r"manifest\.txt:1: image size 16x1e3 is not"),
        ("00000 1_6 16\n", r"manifest\.txt:1: image size 1_6x16 is not"),
        ("00000 +16 16\n", r"manifest\.txt:1: image size \+16x16 is not"),
        ("00000 16 \u0661\u0666\n", r"manifest\.txt:1: image size 16x\u0661\u0666 is not"),
        pytest.param("00000 16 " + "1" * 5000 + "\n", r"manifest\.txt:1: image size 16x1+ is not",
                     id="more digits than int() converts"),
        ("00000 16 0\n", r"manifest\.txt:1: image size 16x0"),
        # an id names files under images/, masks/ and predict's --out
        ("00000 16 16\n../escape/e 16 16\n",
         r"manifest\.txt:2: id '\.\./escape/e' is not one path component"),
        ("a\\b 16 16\n", r"manifest\.txt:1: id 'a\\\\b' is not one path component"),
        (". 16 16\n", r"manifest\.txt:1: id '\.' is not one path component"),
        (".. 16 16\n", r"manifest\.txt:1: id '\.\.' is not one path component"),
        ("/tmp/e 16 16\n", r"manifest\.txt:1: id '/tmp/e' is not one path component"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, manifest, match):
        with pytest.raises(ValueError, match=match):
            self.make(tmp_path / "d", manifest=manifest)

    @given(manifest=_MANIFEST, splits=st.lists(_SPLIT, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_text_is_read_or_rejected(self, manifest, splits):
        with tempfile.TemporaryDirectory() as tmp:
            root, out = Path(tmp) / "d", Path(tmp) / "abl"
            write_dataset_text(root, manifest, splits)
            try:
                ds = D.DrawingDataset(root)
                rejected = len([ds.fold(k) for k in range(ds.num_folds)]) < 2
            except (ValueError, FileNotFoundError):
                rejected = True
            # no images exist, so an accepted dataset fails in training, also with exit 2
            assert cli.main(["ablate", "--family", "unet", "--data", str(root), "--out", str(out),
                             "--epochs", "1", "--depth", "2", "--base-width", "2"]) == 2
            if rejected:
                assert not out.exists()
