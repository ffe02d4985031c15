"""Training protocol: epoch loop with freeze/unfreeze, validation window,
loss logging, checkpoints, K-fold orchestration and the ablation harness.

Epochs are numbered 0..epochs-1. The encoder stays frozen while
epoch < unfreeze_epoch and validation runs from validate_from on
(defaulting to unfreeze_epoch, mirroring the protocol where both happen
at the 50 mark of a 100-epoch run). The learning rate for epoch e is the
cosine schedule evaluated at e, so training starts exactly at lr0.

A run directory contains config.json, log.csv, checkpoints/{best,final}.segm,
metrics.csv, confusion.csv and run.log. Everything except run.log (the one
file carrying a timestamp) is byte-deterministic for a fixed config/seed.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import metrics as MT
from . import tensor as T
from .data import DrawingDataset, Sample, augment, kfold_split, random_augment_spec
from .losses import LossSpec, segmentation_loss
from .models import (ALL_VARIANTS, FAMILIES, EncoderConfig, ModelVariant, SegModel,
                     build_model, load_checkpoint, save_checkpoint)
from .optim import Adam, LrSchedule, NumericalError, cosine_lr
from .tensor import Tensor, zero_grads


@dataclass(frozen=True)
class TrainConfig:
    variant: ModelVariant = field(default_factory=lambda: ModelVariant("unet", True, True))
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    num_classes: int = 6
    epochs: int = 100
    unfreeze_epoch: int = 50
    validate_from: Optional[int] = None   # None -> unfreeze_epoch
    batch_size: int = 4
    loss: LossSpec = field(default_factory=LossSpec)
    lr0: float = 1e-4
    eta_min: Optional[float] = None       # None -> lr0 / 100
    seed: int = 0
    augment: bool = False
    noise_sigma: float = 0.02
    folds: int = 5

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 <= self.unfreeze_epoch <= max(self.epochs, 1):
            raise ValueError(
                f"unfreeze_epoch {self.unfreeze_epoch} outside [0, {self.epochs}]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @property
    def validation_start(self) -> int:
        return self.unfreeze_epoch if self.validate_from is None else self.validate_from

    def schedule(self) -> LrSchedule:
        return LrSchedule(self.lr0, max(self.epochs, 1), self.eta_min)

    def to_json(self) -> str:
        def enc(o):
            if dataclasses.is_dataclass(o):
                return dataclasses.asdict(o)
            raise TypeError(o)
        return json.dumps(dataclasses.asdict(self), indent=2, default=enc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "TrainConfig":
        raw = json.loads(text)
        raw["variant"] = ModelVariant(**raw["variant"])
        enc = raw["encoder"]
        enc["convs_per_block"] = tuple(enc["convs_per_block"]) if enc["convs_per_block"] else None
        raw["encoder"] = EncoderConfig(**enc)
        raw["loss"] = LossSpec(**raw["loss"])
        return TrainConfig(**raw)


@dataclass
class EpochRow:
    epoch: int
    lr: float
    train_loss: float
    val_loss: Optional[float] = None
    val_iou: Optional[float] = None
    val_map: Optional[float] = None
    val_accuracy: Optional[float] = None


LOG_CSV_HEADER = "epoch,lr,train_loss,val_loss,val_iou,val_map,val_accuracy"


def _row_csv(row: EpochRow) -> str:
    opt = lambda v: "" if v is None else repr(float(v))
    return (f"{row.epoch},{repr(float(row.lr))},{repr(float(row.train_loss))},"
            f"{opt(row.val_loss)},{opt(row.val_iou)},{opt(row.val_map)},{opt(row.val_accuracy)}")


@dataclass
class RunLog:
    rows: list[EpochRow] = field(default_factory=list)
    wall_seconds: float = 0.0

    def csv(self) -> str:
        return "\n".join([LOG_CSV_HEADER] + [_row_csv(r) for r in self.rows]) + "\n"


def epoch_shuffle(ids: Sequence[str], seed: int, epoch: int) -> list[str]:
    """Variant-independent deterministic order, so parallel ablation runs
    consume identical shuffle streams."""
    order = np.random.default_rng([seed, 101, epoch]).permutation(len(ids))
    return [ids[i] for i in order]


def _batch_arrays(samples: Sequence[Sample], in_channels: int, dtype):
    images = np.stack([s.image for s in samples]).astype(dtype)[:, None]
    if in_channels > 1:
        images = np.repeat(images, in_channels, axis=1)
    masks = np.stack([s.mask for s in samples]).astype(np.int64)
    return images, masks


def _train_sample(dataset, sid, cfg: TrainConfig, epoch: int, position: int) -> Sample:
    sample = dataset.load(sid)
    if not cfg.augment:
        return sample
    rng = np.random.default_rng([cfg.seed, 202, epoch, position])
    spec = random_augment_spec(rng, cfg.noise_sigma)
    return augment(sample, spec, int(rng.integers(2 ** 31)))


def evaluate(model: SegModel, ids: Sequence[str], dataset, batch_size: int = 8,
             loss: Optional[LossSpec] = None) -> MT.MetricsReport:
    """Argmax over channel logits per pixel, per-image confusion matrices.

    With ``loss`` given, the report also carries that loss on the same
    logits, averaged per image (each batch's mean weighted by its size).
    """
    if not ids:
        raise ValueError("evaluate needs at least one sample id")
    cms = []
    total = 0.0
    with T.no_grad():
        for start in range(0, len(ids), batch_size):
            chunk = [dataset.load(sid) for sid in ids[start:start + batch_size]]
            images, masks = _batch_arrays(chunk, model.enc.in_channels, model.dtype)
            logits = model.forward(Tensor(images))
            if loss is not None:
                total += float(segmentation_loss(loss, logits, masks).data) * len(chunk)
            pred = logits.data.argmax(axis=1)
            for i in range(len(chunk)):
                cms.append(MT.confusion(pred[i], masks[i], model.num_classes))
    report = MT.compute_report(cms)
    if loss is not None:
        report.loss = total / len(ids)
    return report


class _RunDir:
    """Incremental writer for the run directory; tolerates run_dir=None."""

    def __init__(self, path, cfg: TrainConfig):
        self.path = Path(path) if path is not None else None
        if self.path is None:
            return
        (self.path / "checkpoints").mkdir(parents=True, exist_ok=True)
        (self.path / "config.json").write_text(cfg.to_json() + "\n")
        self._log = open(self.path / "log.csv", "w")
        self._log.write(LOG_CSV_HEADER + "\n")
        self._runlog = open(self.path / "run.log", "w")
        self._runlog.write(f"# started {time.strftime('%Y-%m-%d %H:%M:%S')}\n")
        self._runlog.flush()

    def row(self, row: EpochRow):
        if self.path is None:
            return
        self._log.write(_row_csv(row) + "\n")
        self._log.flush()

    def checkpoint(self, model, name: str):
        if self.path is None:
            return
        save_checkpoint(model, self.path / "checkpoints" / f"{name}.segm")

    def note(self, text: str):
        if self.path is None:
            return
        self._runlog.write(text + "\n")
        self._runlog.flush()

    def metrics(self, report: MT.MetricsReport):
        if self.path is None:
            return
        MT.write_metrics_csv(self.path / "metrics.csv", [("final", report)])
        (self.path / "confusion.csv").write_text(MT.confusion_csv(report.confusion))

    def close(self):
        if self.path is None:
            return
        self._log.close()
        self._runlog.close()


def train(cfg: TrainConfig, dataset, train_ids: Sequence[str],
          val_ids: Sequence[str] = (), run_dir=None,
          model: Optional[SegModel] = None) -> tuple[SegModel, RunLog]:
    """Run the epoch loop; returns the trained model and its log.

    Deterministic for a fixed (config, seed) on one platform: the shuffle
    stream, augmentation draws and initialisation all derive from cfg.seed.
    On a non-finite loss or gradient the weights go back to the start of the
    epoch, they are written as the final checkpoint, run.log notes the abort
    and NumericalError propagates. The encoder is frozen by switching off its
    parameters' gradients; however the epoch loop ends, they are on again.
    """
    if model is None:
        model = build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed)
    if model.variant != cfg.variant:
        raise ValueError(f"model is {model.variant}, config wants {cfg.variant}")
    sched = cfg.schedule()
    adam = Adam(model.parameters())
    log = RunLog()
    out = _RunDir(run_dir, cfg)
    started = time.time()
    best_iou = None
    last_good = [p.data.copy() for p in model.parameters()]

    epoch = batch = 0
    try:
        try:
            for epoch in range(cfg.epochs):
                lr = cosine_lr(sched, epoch)
                model.set_frozen(epoch < cfg.unfreeze_epoch)
                order = epoch_shuffle(train_ids, cfg.seed, epoch)
                total, seen = 0.0, 0
                for batch, start in enumerate(range(0, len(order), cfg.batch_size)):
                    chunk_ids = order[start:start + cfg.batch_size]
                    chunk = [_train_sample(dataset, sid, cfg, epoch, start + i)
                             for i, sid in enumerate(chunk_ids)]
                    images, masks = _batch_arrays(chunk, model.enc.in_channels, model.dtype)
                    loss = segmentation_loss(cfg.loss, model.forward(Tensor(images)), masks)
                    value = float(loss.data)
                    if not np.isfinite(value):
                        raise NumericalError(f"non-finite training loss {value}")
                    loss.backward()
                    adam.step([p for p in model.parameters() if p.requires_grad], lr)
                    zero_grads(model.parameters())
                    total += value * len(chunk)
                    seen += len(chunk)
                row = EpochRow(epoch=epoch, lr=lr, train_loss=total / max(seen, 1))
                if val_ids and epoch >= cfg.validation_start:
                    report = evaluate(model, val_ids, dataset, batch_size=cfg.batch_size,
                                      loss=cfg.loss)
                    row.val_loss = report.loss
                    row.val_iou = report.iou_mean
                    row.val_map = report.map
                    row.val_accuracy = report.accuracy
                    if report.iou_mean is not None and (best_iou is None
                                                        or report.iou_mean > best_iou):
                        best_iou = report.iou_mean
                        out.checkpoint(model, "best")
                log.rows.append(row)
                out.row(row)
                last_good = [p.data.copy() for p in model.parameters()]
        except NumericalError as err:
            for p, saved in zip(model.parameters(), last_good):
                p.data = saved
            zero_grads(model.parameters())
            out.checkpoint(model, "final")
            out.note(f"aborted at epoch {epoch}, batch {batch}: {err}; "
                     f"weights from the start of the epoch kept as final")
            raise
        finally:
            model.set_frozen(False)
        out.checkpoint(model, "final")
        if best_iou is None:
            out.checkpoint(model, "best")   # never validated: best == final
        if val_ids:
            out.metrics(evaluate(model, val_ids, dataset, batch_size=cfg.batch_size))
    finally:
        log.wall_seconds = time.time() - started
        out.note(f"wall_seconds {log.wall_seconds:.1f}")
        out.close()
    return model, log


# ---------------------------------------------------------------------------
# K-fold orchestration


def fold_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _train_job(args):
    """Worker for --jobs parallelism: one independent run per process."""
    cfg_json, dataset_root, run_dir, train_ids, val_ids = args
    cfg = TrainConfig.from_json(cfg_json)
    ds = DrawingDataset(dataset_root)
    train(cfg, ds, train_ids, val_ids, run_dir=run_dir)


def _run_jobs(jobs: list, n_workers: int, dataset) -> None:
    if n_workers <= 1:
        for cfg_json, _, run_dir, tr, val in jobs:
            train(TrainConfig.from_json(cfg_json), dataset, tr, val, run_dir=run_dir)
        return
    import multiprocessing
    with multiprocessing.Pool(n_workers) as pool:
        pool.map(_train_job, jobs)


def run_kfold(cfg: TrainConfig, dataset, out_dir,
              jobs: int = 1) -> tuple[list[MT.MetricsReport], dict]:
    """One independent training per fold, fresh init from derived seeds;
    aggregate is mean and population stddev per metric over folds."""
    if cfg.folds < 2:
        raise ValueError("K must be >= 2")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    split = kfold_split(dataset.ids, cfg.folds, cfg.seed)
    queue = []
    for k in range(cfg.folds):
        val = split.validation(k)
        tr = split.training(k)
        assert not set(val) & set(tr), f"fold {k} leaks validation ids into training"
        fold_cfg = replace(cfg, seed=fold_seed(cfg.seed, k))
        queue.append((fold_cfg.to_json(), str(dataset.root), out / f"fold{k}", tr, val))
    _run_jobs(queue, jobs, dataset)
    metrics_rows = []
    for k in range(cfg.folds):
        model = load_checkpoint(out / f"fold{k}" / "checkpoints" / "final.segm")
        report = evaluate(model, split.validation(k), dataset, batch_size=cfg.batch_size)
        metrics_rows.append((k, report))

    def series(get):
        return np.array([v for _, r in metrics_rows if (v := get(r)) is not None], dtype=float)

    names = {"iou_mean": lambda r: r.iou_mean, "map": lambda r: r.map,
             "accuracy": lambda r: r.accuracy}
    aggregate = {}
    for name, get in names.items():
        vals = series(get)
        aggregate[name] = {"mean": float(vals.mean()) if vals.size else None,
                           "std": float(vals.std()) if vals.size else None}
    lines = ["metric,mean,std"]
    for name, stats in aggregate.items():
        fmt = lambda v: "" if v is None else repr(v)
        lines.append(f"{name},{fmt(stats['mean'])},{fmt(stats['std'])}")
    (out / "aggregate.csv").write_text("\n".join(lines) + "\n")
    MT.write_metrics_csv(out / "metrics.csv",
                         [(f"fold{k}", r) for k, r in metrics_rows])
    return [r for _, r in metrics_rows], aggregate


# ---------------------------------------------------------------------------
# ablation harness


def _read_wall_seconds(run_log_path) -> float:
    for line in Path(run_log_path).read_text().splitlines():
        if line.startswith("wall_seconds"):
            return float(line.split()[1])
    return float("nan")


def run_ablation(cfg: TrainConfig, dataset, family: str, out_dir,
                 jobs: int = 1) -> list[dict]:
    """Train the four variants of one family under identical data, seed and
    schedule; evaluate each final model on the shared held-out fold."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    split = kfold_split(dataset.ids, cfg.folds, cfg.seed)
    val = split.validation(0)
    tr = split.training(0)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    variants = [v for v in ALL_VARIANTS if v.family == family]
    queue = [(replace(cfg, variant=v).to_json(), str(dataset.root), out / v.cli_name, tr, val)
             for v in variants]
    _run_jobs(queue, jobs, dataset)
    rows = []
    for variant in variants:
        run_dir = out / variant.cli_name
        model = load_checkpoint(run_dir / "checkpoints" / "final.segm")
        report = evaluate(model, val, dataset, batch_size=cfg.batch_size)
        wall = _read_wall_seconds(run_dir / "run.log")
        rows.append({
            "method": variant.row_name,
            "iou": report.iou_mean,
            "map": report.map,
            "accuracy": report.accuracy,
            "params": model.count_params(),
            "wall_seconds": wall,
        })

    opt = lambda v: "" if v is None else repr(float(v))
    csv_lines = ["method,IoU,mAP,Accu,params"]
    for r in rows:
        csv_lines.append(f"{r['method']},{opt(r['iou'])},{opt(r['map'])},"
                         f"{opt(r['accuracy'])},{r['params']}")
    (out / "ablation.csv").write_text("\n".join(csv_lines) + "\n")

    fmt = lambda v: "  -   " if v is None else f"{v:.4f}"
    txt = [f"{'method':<16}{'IoU':>8}{'mAP':>8}{'Accu':>8}{'params':>10}{'wall_s':>9}"]
    for r in rows:
        txt.append(f"{r['method']:<16}{fmt(r['iou']):>8}{fmt(r['map']):>8}"
                   f"{fmt(r['accuracy']):>8}{r['params']:>10}{r['wall_seconds']:>9.1f}")
    (out / "ablation.txt").write_text("\n".join(txt) + "\n")
    return rows
