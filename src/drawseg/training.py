"""Training protocol: epoch loop with freeze/unfreeze, validation window,
loss logging, checkpoints, K-fold orchestration and the ablation harness.

Folds are the dataset's split files. Each kfold and ablation run is the run
``drawseg train --variant v --val-fold k`` makes, cfg's seed included. With
jobs > 1 they run in spawned workers, which re-import __main__: a calling
script without an ``if __name__ == "__main__":`` guard fails.

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
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import metrics as MT
from . import tensor as T
from .data import Sample, augment, random_augment_spec
from .losses import LossSpec, segmentation_loss
# load_checkpoint is unused here but stays importable as training.load_checkpoint,
# a name perfbench's tracer wraps.
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
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


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
    ``final`` is the final model's report on val_ids.

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
            log.final = evaluate(model, val_ids, dataset, batch_size=cfg.batch_size)
            out.metrics(log.final)
    finally:
        log.wall_seconds = time.time() - started
        out.note(f"wall_seconds {log.wall_seconds:.1f}")
        out.close()
    return model, log


# ---------------------------------------------------------------------------
# K-fold orchestration and the ablation harness


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_job(job) -> tuple[Optional[MT.MetricsReport], int, float]:
    model, log = train(*job)
    return log.final, model.count_params(), log.wall_seconds


def _run_cells(cfg: TrainConfig, dataset, out_dir, cells: list[tuple[ModelVariant, int, str]],
               jobs: int) -> list[tuple[MT.MetricsReport, int, float]]:
    """Train each (variant, fold, dir name) cell into out_dir/<dir name>, after
    reading every fold; returns each cell's (final report, parameter count,
    wall seconds). Spawned workers get one BLAS thread each: forked ones would
    inherit the parent's BLAS threads and run more threads than cores."""
    out = Path(out_dir)
    queue = [(replace(cfg, variant=v), dataset, *dataset.fold(k), out / name)
             for v, k, name in cells]
    out.mkdir(parents=True, exist_ok=True)
    if jobs <= 1:
        return [_run_job(job) for job in queue]
    import multiprocessing   # here, so importing training loads no pool machinery
    from concurrent.futures import ProcessPoolExecutor
    saved = {name: os.environ[name] for name in _BLAS_THREAD_VARS if name in os.environ}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(_run_job, queue))
    finally:
        for name in _BLAS_THREAD_VARS:
            del os.environ[name]
        os.environ.update(saved)


def run_kfold(cfg: TrainConfig, dataset, out_dir,
              jobs: int = 1) -> tuple[list[MT.MetricsReport], dict]:
    """Train cfg once per split file of the dataset, into out_dir/fold<k>;
    all folds share cfg's seed, so their spread is the split's alone. The
    aggregate is mean and population stddev per metric over folds."""
    folds = dataset.num_folds
    if folds < 2:
        raise ValueError(f"kfold needs at least 2 split files under {dataset.root / 'splits'}, "
                         f"found {folds}")
    cells = [(cfg.variant, k, f"fold{k}") for k in range(folds)]
    reports = [report for report, _, _ in _run_cells(cfg, dataset, out_dir, cells, jobs)]
    out = Path(out_dir)
    aggregate = {}
    for name in ("iou_mean", "map", "accuracy"):
        vals = [v for r in reports if (v := getattr(r, name)) is not None]
        aggregate[name] = {"mean": float(np.mean(vals)) if vals else None,
                           "std": float(np.std(vals)) if vals else None}
    lines = ["metric,mean,std"] + [f"{name},{MT.csv_cell(s['mean'])},{MT.csv_cell(s['std'])}"
                                   for name, s in aggregate.items()]
    (out / "aggregate.csv").write_text("\n".join(lines) + "\n")
    MT.write_metrics_csv(out / "metrics.csv",
                         [(f"fold{k}", r) for k, r in enumerate(reports)])
    return reports, aggregate


def run_ablation(cfg: TrainConfig, dataset, family: str, out_dir,
                 jobs: int = 1) -> list[dict]:
    """Train the four variants of one family on fold 0 of the dataset's split
    files, into out_dir/<cli name>, and report each final model on that
    fold's held-out ids."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    variants = [v for v in ALL_VARIANTS if v.family == family]
    results = _run_cells(cfg, dataset, out_dir, [(v, 0, v.cli_name) for v in variants], jobs)
    rows = [{"method": variant.row_name, "iou": report.iou_mean, "map": report.map,
             "accuracy": report.accuracy, "params": params, "wall_seconds": wall}
            for variant, (report, params, wall) in zip(variants, results)]

    out = Path(out_dir)
    csv_lines = ["method,IoU,mAP,Accu,params"]
    for r in rows:
        cells = [MT.csv_cell(r[key]) for key in ("iou", "map", "accuracy")]
        csv_lines.append(",".join([r["method"]] + cells + [str(r["params"])]))
    (out / "ablation.csv").write_text("\n".join(csv_lines) + "\n")

    fmt = lambda v: "  -   " if v is None else f"{v:.4f}"
    txt = [f"{'method':<16}{'IoU':>8}{'mAP':>8}{'Accu':>8}{'params':>10}{'wall_s':>9}"]
    for r in rows:
        txt.append(f"{r['method']:<16}{fmt(r['iou']):>8}{fmt(r['map']):>8}"
                   f"{fmt(r['accuracy']):>8}{r['params']:>10}{r['wall_seconds']:>9.1f}")
    (out / "ablation.txt").write_text("\n".join(txt) + "\n")
    return rows
