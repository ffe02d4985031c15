"""Training protocol: epoch loop with freeze/unfreeze, validation window,
loss logging, checkpoints and the ablation grid.

Folds are the dataset's split files. Each cell of the ablation grid is the
run ``drawseg train --variant v --val-fold k`` makes, cfg's seed included. With
jobs > 1 they run in spawned workers, which re-import __main__: a calling
script without an ``if __name__ == "__main__":`` guard fails.

Epochs are numbered 0..epochs-1. The encoder stays frozen while
epoch < unfreeze_epoch and validation runs from validate_from on. The
learning rate for epoch e is the cosine schedule from lr0 to lr0 / 100
evaluated at e (optim.cosine_lr), so training starts exactly at lr0.
TrainConfig keeps a None unfreeze_epoch or validate_from as given and
resolves it where it is read (unfreeze_at: epochs // 2; validate_at: the
unfreeze epoch), as the protocol unfreezes and starts validating at the
50 mark of a 100-epoch run. So dataclasses.replace of epochs re-derives
both, and config.json (to_json) holds the values a run used; the
schedule's floor is derived from lr0 and not stored.

A run directory contains config.json, log.csv (one row per epoch),
checkpoints/{best,final}.segm, metrics.csv (the final model's report on
the validation ids), confusion.csv (that report's pixel counts, rows
predicted, columns true) and run.log. Everything except run.log (the one
file carrying a timestamp) is byte-deterministic for a fixed config/seed.
"""
from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import metrics as MT
from . import tensor as T
from .data import NUM_CLASSES, Sample, augment
from .losses import LossSpec, segmentation_loss
# load_checkpoint is unused here but stays importable as training.load_checkpoint,
# a name perfbench's tracer wraps.
from .models import (ALL_VARIANTS, FAMILIES, EncoderConfig, ModelVariant, SegModel,
                     build_model, check_input_size, load_checkpoint, save_checkpoint)
from .optim import Adam, cosine_lr
from .tensor import NumericalError, Tensor, zero_grads


@dataclass(frozen=True)
class TrainConfig:
    variant: ModelVariant = field(default_factory=lambda: ModelVariant("unet", True, True))
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    epochs: int = 100
    unfreeze_epoch: Optional[int] = None   # None -> epochs // 2
    validate_from: Optional[int] = None    # None -> unfreeze_epoch
    batch_size: int = 4
    loss: LossSpec = field(default_factory=LossSpec)
    lr0: float = 1e-4
    seed: int = 0
    augment: bool = False
    num_classes = NUM_CLASSES   # not a field: every mask holds data.NUM_CLASSES classes

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ValueError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not 0 <= self.unfreeze_at <= max(self.epochs, 1):
            raise ValueError(
                f"unfreeze_epoch {self.unfreeze_at} outside [0, {self.epochs}]")
        if self.validate_at < 0:
            raise ValueError(f"validate_from must be >= 0, got {self.validate_at}")

    @property
    def unfreeze_at(self) -> int:
        """unfreeze_epoch, or epochs // 2 when it is None."""
        return self.epochs // 2 if self.unfreeze_epoch is None else self.unfreeze_epoch

    @property
    def validate_at(self) -> int:
        """validate_from, or the unfreeze epoch when it is None."""
        return self.unfreeze_at if self.validate_from is None else self.validate_from

    def to_json(self) -> str:
        """The config with every derived value resolved: what config.json holds."""
        fields = dataclasses.asdict(self)
        fields.update(unfreeze_epoch=self.unfreeze_at, validate_from=self.validate_at)
        fields["encoder"]["convs_per_block"] = self.encoder.convs()
        return json.dumps(fields, indent=2, sort_keys=True)


@dataclass
class EpochRow:
    """One log.csv row; scalars only: the benchmark compares vars(row) with ==, arrays raise."""
    epoch: int
    lr: float
    train_loss: float
    val_loss: Optional[float] = None
    val_iou: Optional[float] = None
    val_map: Optional[float] = None
    val_accuracy: Optional[float] = None


LOG_CSV_HEADER = "epoch,lr,train_loss,val_loss,val_iou,val_map,val_accuracy"


def _row_csv(row: EpochRow) -> str:
    cells = (row.lr, row.train_loss, row.val_loss, row.val_iou, row.val_map, row.val_accuracy)
    return ",".join([str(row.epoch)] + [MT.csv_cell(v) for v in cells])


@dataclass
class RunLog:
    rows: list[EpochRow] = field(default_factory=list)
    wall_seconds: float = 0.0
    final: Optional[MT.MetricsReport] = None   # the final model on val_ids; None without them


def epoch_shuffle(ids: Sequence[str], seed: int, epoch: int) -> list[str]:
    """Variant-independent deterministic order, so parallel ablation runs
    consume identical shuffle streams."""
    order = np.random.default_rng([seed, 101, epoch]).permutation(len(ids))
    return [ids[i] for i in order]


def _batch_arrays(samples: Sequence[Sample], dtype):
    images = np.stack([s.image for s in samples]).astype(dtype)[:, None]
    masks = np.stack([s.mask for s in samples]).astype(np.int64)
    return images, masks


def _train_sample(dataset, sid, cfg: TrainConfig, epoch: int, position: int) -> Sample:
    sample = dataset.load(sid)
    if not cfg.augment:
        return sample
    return augment(sample, np.random.default_rng([cfg.seed, 202, epoch, position]))


def evaluate(model: SegModel, ids: Sequence[str], dataset, batch_size: int = 8,
             loss: Optional[LossSpec] = None) -> MT.MetricsReport:
    """Argmax over channel logits per pixel, per-image confusion matrices.

    With ``loss`` given, the report also carries that loss on the same
    logits, averaged per image (each batch's mean weighted by its size).
    """
    if not ids:
        raise ValueError("evaluate needs at least one sample id")
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    _check_sizes(model.variant, model.enc, dataset, ids)
    cms = []
    total = 0.0
    with T.no_grad():
        for start in range(0, len(ids), batch_size):
            chunk = [dataset.load(sid) for sid in ids[start:start + batch_size]]
            images, masks = _batch_arrays(chunk, model.dtype)
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


def _check_sizes(variant: ModelVariant, enc: EncoderConfig, dataset, ids) -> None:
    """Check the manifest size of every id against the model's input rule,
    and that the ids share one size, so that a batch can stack them."""
    first = {}   # size -> the first id of that size
    for sid in ids:
        first.setdefault(dataset.size(sid), sid)
    for w, h in first:
        check_input_size(variant, enc, h, w)
    if len(first) > 1:
        (a, sid_a), (b, sid_b) = list(first.items())[:2]
        raise T.ShapeError(f"images must share one size: {sid_a!r} is {a[0]}x{a[1]}, "
                           f"{sid_b!r} is {b[0]}x{b[1]}")


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
        MT.write_report(self.path, "final", report)

    def close(self):
        if self.path is None:
            return
        self._log.close()
        self._runlog.close()


def train(cfg: TrainConfig, dataset, train_ids: Sequence[str],
          val_ids: Sequence[str] = (), run_dir=None,
          model: Optional[SegModel] = None) -> tuple[SegModel, RunLog]:
    """Run the epoch loop; returns the trained model and its log, whose
    ``final`` is the final model's report on val_ids: the last epoch's
    validation report when that epoch validated, else a fresh evaluate.

    Deterministic for a fixed (config, seed) on one platform: the shuffle
    stream, augmentation draws and initialisation all derive from cfg.seed.
    On a non-finite loss or gradient, or an epoch's steps that leave a
    non-finite weight, the weights go back to the start of the epoch, they
    are written as the final checkpoint, run.log notes the abort and
    NumericalError propagates. The encoder is frozen by switching off its
    parameters' gradients; however the epoch loop ends, they are on again.
    Before anything is written, the manifest size of every id is checked
    against the model's input rule, and the ids must share one size.
    """
    if model is None:
        model = build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed)
    if model.variant != cfg.variant:
        raise ValueError(f"model is {model.variant}, config wants {cfg.variant}")
    if model.num_classes != cfg.num_classes:
        raise ValueError(f"model has {model.num_classes} classes, config wants {cfg.num_classes}")
    _check_sizes(model.variant, model.enc, dataset, (*train_ids, *val_ids))
    adam = Adam(model.parameters())
    log = RunLog()
    out = _RunDir(run_dir, cfg)
    started = time.time()
    best_iou = report = None
    last_good = [p.data.copy() for p in model.parameters()]

    epoch = batch = 0
    try:
        try:
            for epoch in range(cfg.epochs):
                lr = cosine_lr(cfg.lr0, cfg.epochs, epoch)
                model.set_frozen(epoch < cfg.unfreeze_at)
                order = epoch_shuffle(train_ids, cfg.seed, epoch)
                total, seen = 0.0, 0
                for batch, start in enumerate(range(0, len(order), cfg.batch_size)):
                    chunk_ids = order[start:start + cfg.batch_size]
                    chunk = [_train_sample(dataset, sid, cfg, epoch, start + i)
                             for i, sid in enumerate(chunk_ids)]
                    images, masks = _batch_arrays(chunk, model.dtype)
                    loss = segmentation_loss(cfg.loss, model.forward(Tensor(images)), masks)
                    value = float(loss.data)
                    loss.backward()
                    adam.step([p for p in model.parameters() if p.requires_grad], lr)
                    zero_grads(model.parameters())
                    total += value * len(chunk)
                    seen += len(chunk)
                batch = None   # past the steps: a fault from here on names no batch
                for name, p in model.named_parameters():
                    if not np.isfinite(p.data).all():
                        raise NumericalError(f"non-finite weight in parameter {name}")
                row = EpochRow(epoch=epoch, lr=lr, train_loss=total / max(seen, 1))
                if val_ids and epoch >= cfg.validate_at:
                    report = evaluate(model, val_ids, dataset, batch_size=cfg.batch_size,
                                      loss=cfg.loss)
                    row.val_loss = report.loss
                    row.val_iou = report.iou_mean
                    row.val_map = report.map
                    row.val_accuracy = report.accuracy
                    if row.val_iou is not None and (best_iou is None or row.val_iou > best_iou):
                        best_iou = row.val_iou
                        out.checkpoint(model, "best")
                log.rows.append(row)
                out.row(row)
                last_good = [p.data.copy() for p in model.parameters()]
        except NumericalError as err:
            for p, saved in zip(model.parameters(), last_good):
                p.data = saved
            zero_grads(model.parameters())
            out.checkpoint(model, "final")
            where = (f"at epoch {epoch}, batch {batch}" if batch is not None
                     else f"after epoch {epoch}'s steps")
            out.note(f"aborted {where}: {err}; weights from the start of the epoch kept as final")
            raise
        finally:
            model.set_frozen(False)
        out.checkpoint(model, "final")
        if best_iou is None:
            out.checkpoint(model, "best")   # never validated: best == final
        if val_ids:
            # validation runs every epoch from validate_from on, so a report here is the
            # last epoch's, made on the final weights
            log.final = (report if report is not None
                         else evaluate(model, val_ids, dataset, batch_size=cfg.batch_size))
            out.metrics(log.final)
    finally:
        log.wall_seconds = time.time() - started
        out.note(f"wall_seconds {log.wall_seconds:.1f}")
        out.close()
    return model, log


# ---------------------------------------------------------------------------
# the ablation grid


def _run_job(job) -> tuple[Optional[MT.MetricsReport], int, float]:
    model, log = train(*job)
    return log.final, model.count_params(), log.wall_seconds


def run_ablation(cfg: TrainConfig, dataset, family: str, out_dir,
                 jobs: int = 1) -> list[dict]:
    """Train the four variants of one family on every split file of the
    dataset, into out_dir/<cli name>/fold<k>; all cells share cfg's seed.
    metrics.csv holds each cell's final report on its fold's held-out ids, and
    each variant's row is the mean and population stddev of its folds. jobs,
    every fold and every cell's image sizes are checked before anything is
    written."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    folds = dataset.num_folds
    if folds < 2:
        raise ValueError(f"ablate needs at least 2 split files under {dataset.root / 'splits'}, "
                         f"found {folds}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    variants = [v for v in ALL_VARIANTS if v.family == family]
    cells = [(v, k, f"{v.cli_name}/fold{k}") for v in variants for k in range(folds)]
    out = Path(out_dir)
    queue = [(replace(cfg, variant=v), dataset, *dataset.fold(k), out / name)
             for v, k, name in cells]
    for v in variants:
        _check_sizes(v, cfg.encoder, dataset, dataset.ids)
    out.mkdir(parents=True, exist_ok=True)
    if jobs == 1:
        results = [_run_job(job) for job in queue]
    else:
        import multiprocessing   # here, so importing training loads no pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_run_job, queue))
    MT.write_metrics_csv(out / "metrics.csv",
                         [(name, report) for (_, _, name), (report, _, _) in zip(cells, results)])

    rows = []
    for i, variant in enumerate(variants):
        mine = results[i * folds:(i + 1) * folds]
        row = {"method": variant.row_name, "params": mine[0][1],
               "wall_seconds": float(np.mean([wall for _, _, wall in mine]))}
        for key, name in (("iou", "iou_mean"), ("map", "map"), ("accuracy", "accuracy")):
            vals = [getattr(report, name) for report, _, _ in mine]
            row[key] = MT.over_defined(np.mean, vals)
            row[f"{key}_std"] = MT.over_defined(np.std, vals)
        rows.append(row)

    keys = ("iou", "iou_std", "map", "map_std", "accuracy", "accuracy_std")
    csv_lines = ["method,IoU,IoU_std,mAP,mAP_std,Accu,Accu_std,params"]
    for r in rows:
        csv_lines.append(",".join([r["method"]] + [MT.csv_cell(r[key]) for key in keys]
                                  + [str(r["params"])]))
    (out / "ablation.csv").write_text("\n".join(csv_lines) + "\n")

    fmt = lambda r, key: "-" if r[key] is None else f"{r[key]:.4f}+/-{r[key + '_std']:.4f}"
    txt = [f"{'method':<16}{'IoU':>16}{'mAP':>16}{'Accu':>16}{'params':>10}{'wall_s':>9}"]
    for r in rows:
        txt.append(f"{r['method']:<16}{fmt(r, 'iou'):>16}{fmt(r, 'map'):>16}"
                   f"{fmt(r, 'accuracy'):>16}{r['params']:>10}{r['wall_seconds']:>9.1f}")
    (out / "ablation.txt").write_text("\n".join(txt) + "\n")
    return rows
