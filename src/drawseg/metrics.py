"""Segmentation metrics: confusion matrix, IoU, accuracy, AP and mAP.

Conventions: confusion rows index the predicted class, columns the true
class. The headline IoU averages the five foreground classes only, since
background covers >90% of pixels and would mask quality; a with-background
variant is reported alongside. AP is the mean of per-image precisions
(defined only for images where the class is predicted at all), and mAP the
mean of defined foreground APs. Undefined ratios are excluded from means
and listed, never scored as zero.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

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


def iou(cm: np.ndarray, c: int) -> Optional[float]:
    """Intersection over union for class c; None when the union is empty."""
    inter = cm[c, c]
    union = cm[c, :].sum() + cm[:, c].sum() - inter
    return None if union == 0 else float(inter / union)


def mean_iou(cm: np.ndarray, foreground_only: bool = True) -> Optional[float]:
    k = cm.shape[0]
    values = [iou(cm, c) for c in range(1 if foreground_only else 0, k)]
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def pixel_accuracy(cm: np.ndarray) -> float:
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm) / total)


def precision(cm: np.ndarray, c: int) -> Optional[float]:
    predicted = cm[c, :].sum()
    return None if predicted == 0 else float(cm[c, c] / predicted)


def average_precision(per_image_cms: Sequence[np.ndarray], c: int) -> Optional[float]:
    """Mean of per-image precisions over images where class c is predicted."""
    if not per_image_cms:
        raise ValueError("need at least one image")
    values = [p for cm in per_image_cms if (p := precision(cm, c)) is not None]
    return float(np.mean(values)) if values else None


def mean_average_precision(per_image_cms: Sequence[np.ndarray]) -> tuple[Optional[float], dict]:
    k = per_image_cms[0].shape[0]
    per_class = {c: average_precision(per_image_cms, c) for c in range(1, k)}
    defined = [v for v in per_class.values() if v is not None]
    return (float(np.mean(defined)) if defined else None), per_class


@dataclass
class MetricsReport:
    confusion: np.ndarray
    per_class_iou: list            # index by class id; None where undefined
    iou_mean: Optional[float]      # foreground classes only
    iou_mean_with_bg: Optional[float]
    accuracy: float
    per_class_ap: dict             # foreground class id -> AP or None
    map: Optional[float]
    excluded: list = field(default_factory=list)
    loss: Optional[float] = None   # per-image mean, when evaluate() is given a loss

    def summary(self, labels=CLASS_NAMES) -> str:
        out = io.StringIO()
        fmt = lambda v: "-" if v is None else f"{v:.4f}"
        out.write(f"pixel accuracy      {self.accuracy:.4f}\n")
        out.write(f"mean IoU (fg)       {fmt(self.iou_mean)}\n")
        out.write(f"mean IoU (with bg)  {fmt(self.iou_mean_with_bg)}\n")
        out.write(f"mAP                 {fmt(self.map)}\n")
        for c, v in enumerate(self.per_class_iou):
            ap = self.per_class_ap.get(c)
            out.write(f"  {labels[c]:12s} IoU {fmt(v)}   AP {fmt(ap)}\n")
        if self.excluded:
            out.write("undefined (excluded from means): " + ", ".join(self.excluded) + "\n")
        return out.getvalue()


def compute_report(per_image_cms: Sequence[np.ndarray]) -> MetricsReport:
    if not per_image_cms:
        raise ValueError("need at least one image")
    total = np.sum(per_image_cms, axis=0)
    k = total.shape[0]
    per_class = [iou(total, c) for c in range(k)]
    map_value, per_class_ap = mean_average_precision(per_image_cms)
    excluded = []
    for c in range(k):
        if per_class[c] is None:
            excluded.append(f"IoU[{CLASS_NAMES[c] if c < len(CLASS_NAMES) else c}]")
    for c, v in per_class_ap.items():
        if v is None:
            excluded.append(f"AP[{CLASS_NAMES[c] if c < len(CLASS_NAMES) else c}]")
    return MetricsReport(
        confusion=total,
        per_class_iou=per_class,
        iou_mean=mean_iou(total, foreground_only=True),
        iou_mean_with_bg=mean_iou(total, foreground_only=False),
        accuracy=pixel_accuracy(total),
        per_class_ap=per_class_ap,
        map=map_value,
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# rendering


def _row_rates(cm: np.ndarray) -> list[list[Optional[float]]]:
    rows = []
    for p in range(cm.shape[0]):
        s = cm[p, :].sum()
        rows.append([None] * cm.shape[0] if s == 0 else [v / s for v in cm[p, :]])
    return rows


def render_confusion(cm: np.ndarray, labels=CLASS_NAMES) -> str:
    """Row-normalized text grid to four decimals; empty rows show dashes."""
    labels = list(labels)[:cm.shape[0]]
    width = max(len(s) for s in labels) + 2
    out = io.StringIO()
    out.write(" " * width + "".join(f"{s:>{width}}" for s in labels) + "   (columns: true)\n")
    for p, rates in enumerate(_row_rates(cm)):
        cells = "".join(f"{'-' if v is None else f'{v:.4f}':>{width}}" for v in rates)
        out.write(f"{labels[p]:>{width}}" + cells + "\n")
    return out.getvalue()


def csv_cell(v: Optional[float]) -> str:
    """A float at full precision, so parsing it back is exact; empty for None."""
    return "" if v is None else repr(float(v))


def confusion_csv(cm: np.ndarray, labels=CLASS_NAMES) -> str:
    """Row-normalized rates at full precision, so parsing them back is exact."""
    labels = list(labels)[:cm.shape[0]]
    lines = ["predicted\\true," + ",".join(labels)]
    for p, rates in enumerate(_row_rates(cm)):
        cells = ",".join(csv_cell(v) for v in rates)
        lines.append(f"{labels[p]},{cells}")
    return "\n".join(lines) + "\n"


def parse_confusion_csv(text: str) -> list[list[Optional[float]]]:
    rows = []
    for line in text.strip().splitlines()[1:]:
        cells = line.split(",")[1:]
        rows.append([None if c == "" else float(c) for c in cells])
    return rows


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
