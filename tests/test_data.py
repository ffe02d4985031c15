"""Generator determinism, augmentation exactness, codec, folds, dataset text."""
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawseg import cli
from drawseg import data as D
from drawseg.netpbm import read_pgm, write_pgm

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

    def test_manifest_size_mismatch_rejected(self, tmp_path):
        ids = D.generate_dataset(2, 16, 0, tmp_path / "d", folds=2)
        manifest = tmp_path / "d" / "manifest.txt"
        manifest.write_text(f"{ids[0]} 16 16\n{ids[1]} 16 8\n")
        ds = D.DrawingDataset(tmp_path / "d")
        assert ds.load(ids[0]).image.shape == (16, 16)
        with pytest.raises(ValueError, match=f"{ids[1]}.*16x16.*16x8"):
            ds.load(ids[1])


class TestAugment:
    def sample(self, seed=11):
        return next(iter(D.generate_samples(1, 32, seed)))[1]

    def test_mirror_involution_bit_exact(self):
        s = self.sample()
        spec = D.AugmentSpec(mirror_h=True)
        twice = D.augment(D.augment(s, spec, 0), spec, 0)
        np.testing.assert_array_equal(twice.image, s.image)
        np.testing.assert_array_equal(twice.mask, s.mask)

    def test_mirror_moves_mask_with_image(self):
        s = self.sample()
        out = D.augment(s, D.AugmentSpec(mirror_h=True), 0)
        np.testing.assert_array_equal(out.mask, s.mask[:, ::-1])
        np.testing.assert_array_equal(out.image, s.image[:, ::-1])

    def test_rot90_preserves_class_histogram(self):
        s = self.sample()
        for k in (1, 2, 3):
            out = D.augment(s, D.AugmentSpec(rot90=k), 0)
            np.testing.assert_array_equal(
                np.bincount(out.mask.reshape(-1), minlength=6),
                np.bincount(s.mask.reshape(-1), minlength=6))

    def test_rot90_maps_positions_exactly(self):
        s = self.sample()
        out = D.augment(s, D.AugmentSpec(rot90=1), 0)
        np.testing.assert_array_equal(out.mask, np.rot90(s.mask, 1))

    def test_noise_statistics_and_mask_untouched(self):
        s = self.sample()
        sigma = 0.05
        out = D.augment(s, D.AugmentSpec(noise_sigma=sigma), 123)
        np.testing.assert_array_equal(out.mask, s.mask)
        assert not np.array_equal(out.image, s.image)
        delta = np.abs(out.image.astype(np.float64) - s.image.astype(np.float64)).mean()
        lo = 0.5 * sigma * math.sqrt(2.0 / math.pi) * 0.5
        assert lo <= delta <= 2.0 * sigma, delta

    def test_same_seed_same_noise(self):
        s = self.sample()
        spec = D.AugmentSpec(noise_sigma=0.05)
        a = D.augment(s, spec, 7)
        b = D.augment(s, spec, 7)
        np.testing.assert_array_equal(a.image, b.image)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_geometric_ops_keep_mask_on_strokes(self, seed):
        rng = np.random.default_rng(seed)
        s = D.make_sample(32, rng)
        spec = D.AugmentSpec(mirror_h=bool(rng.integers(2)),
                             mirror_v=bool(rng.integers(2)),
                             rot90=int(rng.integers(4)))
        out = D.augment(s, spec, seed)
        stroke = out.mask > 0
        assert np.all(out.image[stroke] < 1.0)


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
        ("00000 16 x\n", "invalid literal"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, manifest, match):
        with pytest.raises(ValueError, match=match):
            self.make(tmp_path / "d", manifest=manifest)

    @given(manifest=_MANIFEST, splits=st.lists(_SPLIT, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_text_is_read_or_rejected(self, manifest, splits):
        with tempfile.TemporaryDirectory() as tmp:
            root, out = Path(tmp) / "d", Path(tmp) / "kf"
            write_dataset_text(root, manifest, splits)
            try:
                ds = D.DrawingDataset(root)
                rejected = len([ds.fold(k) for k in range(ds.num_folds)]) < 2
            except (ValueError, FileNotFoundError):
                rejected = True
            # no images exist, so an accepted dataset fails in training, also with exit 2
            assert cli.main(["kfold", "--data", str(root), "--out", str(out), "--epochs", "1",
                             "--depth", "2", "--base-width", "2"]) == 2
            if rejected:
                assert not out.exists()
