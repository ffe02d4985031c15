"""Segmentation metrics: confusion matrix, IoU, accuracy, AP and mAP.

Conventions: confusion rows index the predicted class, columns the true
class. A report keeps the per-image counts and works out every rate from
them (as FCN does, Long et al., arXiv 1411.4038). The headline IoU averages
the five foreground classes only, since background covers >90% of pixels
and would mask quality; a with-background variant is reported alongside.
AP is the mean of per-image precisions, and mAP the mean of foreground APs.
A rate whose denominator is 0 is None (``ratio``) and means skip it
(``over_defined``): undefined rates are listed, never scored as zero.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .data import CLASS_NAMES


def confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """K x K int64 counts; entry [p, t] = pixels predicted p with truth t."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    for name, a in (("pred", pred), ("gt", gt)):
        if a.size and (a.min() < 0 or a.max() >= num_classes):
            raise ValueError(f"{name} holds class ids outside [0, {num_classes})")
    flat = num_classes * pred.reshape(-1).astype(np.int64) + gt.reshape(-1)
    return np.bincount(flat, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes)


def ratio(num, den) -> Optional[float]:
    """num / den as a float; None when den is 0, where the rate is undefined."""
    return None if den == 0 else float(num / den)


def over_defined(stat: Callable, values: Iterable[Optional[float]]) -> Optional[float]:
    """stat (np.mean, np.std) of the values that are not None; None if none is."""
    defined = [v for v in values if v is not None]
    return float(stat(defined)) if defined else None


@dataclass
class MetricsReport:
    per_image: np.ndarray          # (images, K, K) int confusion counts, one matrix per image
    loss: Optional[float] = None   # per-image mean, when evaluate() is given a loss

    @property
    def confusion(self) -> np.ndarray:
        return self.per_image.sum(axis=0)

    @property
    def per_class_iou(self) -> list:
        """Index by class id; None where the class is neither predicted nor true."""
        cm = self.confusion
        return [ratio(cm[c, c], cm[c, :].sum() + cm[:, c].sum() - cm[c, c])
                for c in range(cm.shape[0])]

    @property
    def iou_mean(self) -> Optional[float]:
        """Over the foreground classes only."""
        return over_defined(np.mean, self.per_class_iou[1:])

    @property
    def iou_mean_with_bg(self) -> Optional[float]:
        return over_defined(np.mean, self.per_class_iou)

    @property
    def accuracy(self) -> float:
        cm = self.confusion
        return ratio(np.trace(cm), cm.sum())

    @property
    def per_class_ap(self) -> dict:
        """Foreground class id -> the mean precision over the images that predict it."""
        return {c: over_defined(np.mean, [ratio(cm[c, c], cm[c, :].sum())
                                          for cm in self.per_image])
                for c in range(1, self.per_image.shape[1])}

    @property
    def map(self) -> Optional[float]:
        return over_defined(np.mean, self.per_class_ap.values())

    def summary(self) -> str:
        out = io.StringIO()
        ious, aps = self.per_class_iou, self.per_class_ap
        out.write(f"pixel accuracy      {self.accuracy:.4f}\n")
        out.write(f"mean IoU (fg)       {_fmt(self.iou_mean)}\n")
        out.write(f"mean IoU (with bg)  {_fmt(self.iou_mean_with_bg)}\n")
        out.write(f"mAP                 {_fmt(self.map)}\n")
        for c, v in enumerate(ious):
            out.write(f"  {CLASS_NAMES[c]:12s} IoU {_fmt(v)}   AP {_fmt(aps.get(c))}\n")
        excluded = [f"IoU[{CLASS_NAMES[c]}]" for c, v in enumerate(ious) if v is None]
        excluded += [f"AP[{CLASS_NAMES[c]}]" for c, v in aps.items() if v is None]
        if excluded:
            out.write("undefined (excluded from means): " + ", ".join(excluded) + "\n")
        return out.getvalue()


def compute_report(per_image_cms: Sequence[np.ndarray]) -> MetricsReport:
    """The report on one confusion matrix per image; needs at least one pixel."""
    if len(per_image_cms) == 0:
        raise ValueError("need at least one image")
    counts = np.stack(per_image_cms)
    if counts.sum() == 0:
        raise ValueError("empty confusion matrix")
    return MetricsReport(counts)


# ---------------------------------------------------------------------------
# rendering


def _fmt(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:.4f}"


def render_confusion(cm: np.ndarray) -> str:
    """Row-normalized text grid to four decimals; empty rows show dashes."""
    labels = CLASS_NAMES[:cm.shape[0]]
    width = max(len(s) for s in labels) + 2
    out = io.StringIO()
    out.write(" " * width + "".join(f"{s:>{width}}" for s in labels) + "   (columns: true)\n")
    for p, row in enumerate(cm):
        s = row.sum()
        cells = "".join(f"{_fmt(ratio(v, s)):>{width}}" for v in row)
        out.write(f"{labels[p]:>{width}}" + cells + "\n")
    return out.getvalue()


def csv_cell(v: Optional[float]) -> str:
    """A float at full precision, so parsing it back is exact; empty for None."""
    return "" if v is None else repr(float(v))


def confusion_csv(cm: np.ndarray) -> str:
    """The pixel counts, one row per predicted class and one column per true
    class, so every rate (precision, recall, IoU) can be worked out from it."""
    labels = CLASS_NAMES[:cm.shape[0]]
    lines = ["predicted\\true," + ",".join(labels)]
    for p, row in enumerate(cm):
        lines.append(f"{labels[p]}," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


METRICS_CSV_HEADER = (
    "id,iou_mean,map,accuracy,iou_with_bg,"
    + ",".join(f"iou_{name}" for name in CLASS_NAMES)
    + "," + ",".join(f"ap_{name}" for name in CLASS_NAMES[1:]))


def metrics_csv_row(row_id: str, report: MetricsReport) -> str:
    cells = [report.iou_mean, report.map, report.accuracy, report.iou_mean_with_bg]
    cells += report.per_class_iou
    cells += [report.per_class_ap.get(c) for c in range(1, report.confusion.shape[0])]
    return ",".join([row_id] + [csv_cell(v) for v in cells])


def write_metrics_csv(path, rows: list[tuple[str, MetricsReport]]) -> None:
    with open(path, "w") as f:
        f.write(METRICS_CSV_HEADER + "\n")
        for row_id, report in rows:
            f.write(metrics_csv_row(row_id, report) + "\n")


def write_report(out_dir, row_id: str, report: MetricsReport) -> None:
    """One report as out_dir/metrics.csv (a single row) and out_dir/confusion.csv."""
    write_metrics_csv(Path(out_dir) / "metrics.csv", [(row_id, report)])
    (Path(out_dir) / "confusion.csv").write_text(confusion_csv(report.confusion))
