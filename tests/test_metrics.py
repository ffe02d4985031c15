"""Metrics against brute-force counting oracles plus the worked examples."""
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from drawseg import metrics as MT


def random_pair(rng, k=6, shape=(8, 8)):
    return rng.integers(0, k, size=shape), rng.integers(0, k, size=shape)


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        rng = np.random.default_rng(0)
        gt = rng.integers(0, 4, size=(8, 8))
        cm = MT.confusion(gt, gt, 4)
        assert (cm - np.diag(np.diag(cm)) == 0).all()

    def test_degenerate_predictor_mass_in_one_row(self):
        rng = np.random.default_rng(1)
        gt = rng.integers(0, 4, size=(8, 8))
        cm = MT.confusion(np.zeros_like(gt), gt, 4)
        assert cm[1:, :].sum() == 0
        assert cm[0, :].sum() == 64

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        pred, gt = random_pair(rng, k=3)
        np.testing.assert_array_equal(MT.confusion(pred, gt, 3),
                                      oracle.confusion_loops(pred, gt, 3))

    def test_row_and_column_sums(self):
        rng = np.random.default_rng(3)
        pred, gt = random_pair(rng)
        cm = MT.confusion(pred, gt, 6)
        assert cm.sum() == pred.size
        np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(pred.reshape(-1), minlength=6))
        np.testing.assert_array_equal(cm.sum(axis=0), np.bincount(gt.reshape(-1), minlength=6))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MT.confusion(np.array([[7]]), np.array([[0]]), 6)
        with pytest.raises(ValueError):
            MT.confusion(np.array([[0]]), np.array([[1, 2]]), 6)


def report_of(pairs, k):
    """compute_report over one (pred, gt) confusion matrix per image."""
    return MT.compute_report([MT.confusion(pred, gt, k) for pred, gt in pairs])


def golden_counts():
    """Five 9x7 images of six classes: Thin nowhere (IoU and AP undefined), Arrow
    never predicted (IoU 0, AP undefined), Dash predicted in three images only."""
    rng = np.random.default_rng(14)
    cms = []
    for i in range(5):
        pred, gt = random_pair(rng, shape=(9, 7))
        pred[pred == 2] = 0
        gt[gt == 2] = 0
        pred[pred == 4] = 1
        if i % 2:
            pred[pred == 3] = 0
        cms.append(MT.confusion(pred, gt, 6))
    return cms


class TestIoU:
    def test_identity_present_class(self):
        gt = np.array([[1, 1], [0, 0]])
        assert report_of([(gt, gt)], 2).per_class_iou[1] == 1.0

    def test_disjoint_is_zero(self):
        pred = np.array([[1, 1], [0, 0]])
        gt = np.array([[0, 0], [1, 1]])
        assert report_of([(pred, gt)], 2).per_class_iou[1] == 0.0

    def test_worked_two_sixths(self):
        # truth: 4 pixels of class 1; prediction overlaps 2, adds 2 spurious
        gt = np.zeros((4, 4), dtype=int)
        gt[0, :4] = 1
        pred = np.zeros((4, 4), dtype=int)
        pred[0, :2] = 1
        pred[1, :2] = 1
        assert report_of([(pred, gt)], 2).per_class_iou[1] == pytest.approx(2.0 / 6.0, abs=1e-12)

    def test_absent_class_undefined_and_excluded(self):
        gt = np.zeros((3, 3), dtype=int)
        report = report_of([(gt, gt)], 3)
        assert report.per_class_iou == [1.0, None, None]
        assert report.iou_mean_with_bg == 1.0  # background only
        assert report.iou_mean is None

    def test_iou_bounded_by_precision_and_recall(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pred, gt = random_pair(rng, k=3, shape=(6, 6))
            report = report_of([(pred, gt)], 3)
            for c in range(3):
                v = report.per_class_iou[c]
                assert v == oracle.iou_loops(pred, gt, c)
                p = oracle.precision_loops(pred, gt, c)
                if c:
                    assert report.per_class_ap[c] == p   # one image: AP is its precision
                r = oracle.recall_loops(pred, gt, c)
                if v is not None and p is not None and r is not None:
                    assert v <= min(p, r) + 1e-12


class TestAccuracy:
    def test_perfect(self):
        gt = np.random.default_rng(5).integers(0, 3, size=(5, 5))
        assert report_of([(gt, gt)], 3).accuracy == 1.0

    def test_worked_binary_case(self):
        # TP=3, TN=90, FP=4, FN=3 -> (3+90)/100
        cm = np.array([[90, 3], [4, 3]])
        assert MT.compute_report([cm]).accuracy == pytest.approx(0.93, abs=1e-12)

    def test_uniform_random_near_one_over_k(self):
        rng = np.random.default_rng(6)
        k = 4
        pred = rng.integers(0, k, size=(100, 100))
        gt = rng.integers(0, k, size=(100, 100))
        assert abs(report_of([(pred, gt)], k).accuracy - 1.0 / k) < 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MT.compute_report([np.zeros((3, 3), dtype=int)])
        with pytest.raises(ValueError, match="at least one image"):
            MT.compute_report([])


class TestAveragePrecision:
    def test_perfect_images(self):
        rng = np.random.default_rng(7)
        gts = [rng.integers(0, 3, size=(6, 6)) for _ in range(4)]
        report = report_of([(gt, gt) for gt in gts], 3)
        assert report.map == 1.0
        assert all(v in (None, 1.0) for v in report.per_class_ap.values())

    def test_two_image_mean(self):
        # image 1: class-1 precision 1.0; image 2: precision 0.5
        pred1 = np.array([[1, 0], [0, 0]])
        gt1 = np.array([[1, 0], [0, 0]])
        pred2 = np.array([[1, 1], [0, 0]])
        gt2 = np.array([[1, 0], [0, 0]])
        report = report_of([(pred1, gt1), (pred2, gt2)], 2)
        assert report.per_class_ap[1] == pytest.approx(0.75, abs=1e-12)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(8)
        pairs = [random_pair(rng, k=4, shape=(8, 8)) for _ in range(5)]
        pairs[2][0][pairs[2][0] == 3] = 0   # class 3 not predicted in one image
        report = report_of(pairs, 4)
        aps = []
        for c in range(1, 4):
            ref = [v for p, g in pairs if (v := oracle.precision_loops(p, g, c)) is not None]
            want = None if not ref else sum(ref) / len(ref)
            mine = report.per_class_ap[c]
            if want is None:
                assert mine is None
            else:
                assert mine == pytest.approx(want, abs=1e-12)
                aps.append(want)
        assert report.map == pytest.approx(sum(aps) / len(aps), abs=1e-12)


class TestReport:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(9)
        pairs = [random_pair(rng, k=6, shape=(8, 8)) for _ in range(6)]
        rep = report_of(pairs, 6)
        total = np.sum([MT.confusion(p, g, 6) for p, g in pairs], axis=0)
        np.testing.assert_array_equal(rep.confusion, total)
        preds = np.concatenate([p for p, _ in pairs])
        gts = np.concatenate([g for _, g in pairs])
        assert rep.accuracy == pytest.approx(oracle.accuracy_loops(preds, gts), abs=1e-12)
        for c in range(6):
            want = oracle.iou_loops(preds, gts, c)
            got = rep.per_class_iou[c]
            assert (got is None and want is None) or got == pytest.approx(want, abs=1e-12)
        fg = [v for v in rep.per_class_iou[1:] if v is not None]
        assert rep.iou_mean == pytest.approx(np.mean(fg), abs=1e-12)
        assert rep.iou_mean_with_bg == pytest.approx(
            np.mean([v for v in rep.per_class_iou if v is not None]), abs=1e-12)
        assert 0.0 <= rep.accuracy <= 1.0

    def test_report_stores_only_counts_and_loss(self):
        assert [f.name for f in dataclasses.fields(MT.MetricsReport)] == ["per_image", "loss"]
        cms = golden_counts()
        rep = MT.compute_report(cms)
        np.testing.assert_array_equal(rep.per_image, np.stack(cms))
        assert rep.loss is None

    def test_recompute_is_bit_stable(self):
        rng = np.random.default_rng(10)
        cms = [MT.confusion(*random_pair(rng), 6) for _ in range(3)]
        a = MT.compute_report(cms)
        b = MT.compute_report(cms)
        assert a.iou_mean == b.iou_mean and a.map == b.map and a.accuracy == b.accuracy

    def test_label_permutation_follows_classes(self):
        rng = np.random.default_rng(11)
        pred, gt = random_pair(rng, k=3, shape=(10, 10))
        perm = np.array([2, 0, 1])
        ious = report_of([(pred, gt)], 3).per_class_iou
        ious_p = report_of([(perm[pred], perm[gt])], 3).per_class_iou
        for c in range(3):
            a = ious[c]
            b = ious_p[perm[c]]
            assert (a is None and b is None) or a == pytest.approx(b, abs=1e-15)

    def test_summary_lists_undefined_classes(self):
        # Thin and Arrow appear in neither truth nor prediction
        gt1 = np.array([[0, 0, 1, 1], [0, 3, 3, 1], [0, 0, 0, 0], [5, 5, 0, 0]])
        pr1 = np.array([[0, 1, 1, 1], [0, 3, 0, 0], [0, 0, 0, 0], [5, 0, 0, 0]])
        gt2 = np.zeros((4, 4), dtype=int)
        gt2[0, :2] = 1
        pr2 = np.zeros((4, 4), dtype=int)
        pr2[0, 0], pr2[3, 3] = 1, 3
        report = MT.compute_report([MT.confusion(pr1, gt1, 6), MT.confusion(pr2, gt2, 6)])
        assert report.summary() == (
            "pixel accuracy      0.8125\n"
            "mean IoU (fg)       0.4444\n"
            "mean IoU (with bg)  0.5278\n"
            "mAP                 0.7778\n"
            "  Background   IoU 0.7778   AP -\n"
            "  Thi          IoU 0.5000   AP 0.8333\n"
            "  Thin         IoU -   AP -\n"
            "  Dash         IoU 0.3333   AP 0.5000\n"
            "  Arrow        IoU -   AP -\n"
            "  Numer        IoU 0.5000   AP 1.0000\n"
            "undefined (excluded from means): IoU[Thin], IoU[Arrow], AP[Thin], AP[Arrow]\n")

    def test_output_bytes_are_golden(self):
        # SHA-256 of each text the report writes: any change to a rate, to the order of its
        # terms or to its formatting moves one
        rep = MT.compute_report(golden_counts())
        texts = {"summary": rep.summary(), "metrics_csv_row": MT.metrics_csv_row("golden", rep),
                 "confusion_csv": MT.confusion_csv(rep.confusion),
                 "render_confusion": MT.render_confusion(rep.confusion)}
        assert {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()} == {
            "summary": "b230016bf4999a22c6c8686c8733020e63cf4e11fdfe1336fcae6f808d70f0d9",
            "metrics_csv_row": "cec647e90a102db493a72af62888837ad77010dc6b437c7bec48cb5a2662b38a",
            "confusion_csv": "40d7df5a8aba5241317280d9ead30f4f6b02f7784a49f02fa5fe61b391e406d4",
            "render_confusion": "2922edf16131eeb4e79bcb3842dfed27c7e76d37f99542a84c18a1df2e4ca31e"}
        assert rep.summary().endswith(
            "undefined (excluded from means): IoU[Thin], AP[Thin], AP[Arrow]\n")


def read_counts(text):
    """confusion.csv's body as an integer matrix; every cell must be an int."""
    return np.array([[int(v) for v in line.split(",")[1:]]
                     for line in text.splitlines()[1:]])


class TestRendering:
    def test_diagonal_grid_shows_ones(self):
        cm = np.diag([5, 3, 2, 1, 1, 1])
        text = MT.render_confusion(cm)
        assert text.count("1.0000") == 6

    def test_zero_row_shows_dashes(self):
        cm = np.zeros((6, 6), dtype=int)
        cm[0, 0] = 4
        text = MT.render_confusion(cm)
        assert "-" in text

    def test_csv_roundtrip_exact(self):
        rng = np.random.default_rng(12)
        pred, gt = random_pair(rng)
        cm = MT.confusion(pred, gt, 6)
        np.testing.assert_array_equal(read_counts(MT.confusion_csv(cm)), cm)

    def test_recall_read_from_csv_matches_oracle(self):
        # recall divides by the true-class column, which row-normalised rates could not give
        rng = np.random.default_rng(13)
        pred, gt = random_pair(rng, shape=(12, 12))
        pred[pred == 4] = 0   # one class never predicted: recall 0, not undefined
        gt[gt == 5] = 1       # one class absent from the truth: recall undefined
        cm = read_counts(MT.confusion_csv(MT.confusion(pred, gt, 6)))
        for c in range(6):
            actual = cm[:, c].sum()
            got = None if actual == 0 else cm[c, c] / actual
            want = oracle.recall_loops(pred, gt, c)
            assert (got is None and want is None) or got == pytest.approx(want, abs=1e-15)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        pred, gt = random_pair(rng, k=6)
        cm = MT.confusion(pred, gt, 6)
        np.testing.assert_array_equal(cm, oracle.confusion_loops(pred, gt, 6))
        report = MT.compute_report([cm])
        assert report.accuracy == pytest.approx(oracle.accuracy_loops(pred, gt), abs=1e-12)
        for c in range(6):
            a = report.per_class_iou[c]
            b = oracle.iou_loops(pred, gt, c)
            assert (a is None and b is None) or a == pytest.approx(b, abs=1e-12)
            if c:
                a = report.per_class_ap[c]
                b = oracle.precision_loops(pred, gt, c)
                assert (a is None and b is None) or a == pytest.approx(b, abs=1e-12)
