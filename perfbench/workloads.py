"""The benchmark workloads: set-up, measured rounds and correctness gates.

A run sets up ``SETUP_REPEATS`` times (setup_s is the median), then runs
rounds until its time budget is spent; a traced run alternates untraced
and traced rounds. After the rounds come the gates that need extra
compute (float64 gradient and logit checks), outside the measured time.

Times are CPU seconds of this process expressed in reference seconds (see
``calibration_kernel``): the virtual machine this benchmark was tuned on
shares its cores with other guests, and its speed drifted by a third
within a minute, in CPU time as in wall time. Raw CPU and wall-clock
figures are printed alongside.

Operations are train steps, eval batches and predict images. A gate that
fails marks the operations it covers as failed.
"""
from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import drawseg.data as D
import drawseg.losses as L
import drawseg.models as M
import drawseg.netpbm as NP
import drawseg.tensor as T
import drawseg.training as TR
from spans import quantile

SETUP_REPEATS = 21
# Finite-difference steps along a unit-norm direction in weight space. The
# gate takes the smallest relative error over them: a step that crosses a
# ReLU or max-pool kink can miss a correct gradient, a wrong rule misses at
# every step.
GRAD_STEPS = (1e-5, 1e-6, 1e-7)
GRAD_TOL = 1e-4       # relative error allowed between analytic and numeric directional derivative
GRAD_CROP = 64        # the gradient gate runs on a top-left crop of at most this side length
# The gradient gate runs at the final weights plus Gaussian noise of this
# scale. Final weights can sit exactly on a kink: the zero-initialised bias
# of a CBAM spatial conv behind a dead ReLU never moves, so the next ReLU
# sees exactly 0 and every central difference straddles it.
GRAD_JITTER = 1e-3
LOGIT_TOL = 1e-4      # max |f32 - f64| logit error, relative to max(1, max |f64 logit|)
UNET_FULL = M.ModelVariant("unet", True, True)
# CPU seconds of one calibration_kernel() on the tuning machine when its
# host was quiet; one reference second is the time in which the kernel runs
# 1 / REF_NOMINAL_S times. Fixed: changing it rescales every time metric.
REF_NOMINAL_S = 0.05


@dataclass
class Outcome:
    """What a run reports: operation counts, gate verdicts, timings and metric values."""
    attempted: int = 0
    failed: int = 0
    gates: dict = field(default_factory=dict)     # gate -> (passed, detail)
    metrics: dict = field(default_factory=dict)   # name -> value
    notes: list = field(default_factory=list)     # extra lines for the report
    # (kind, round, images, cpu s, wall s); kind "main" is the round's
    # train()/evaluate() work, "predict" one predicted image
    timings: list = field(default_factory=list)
    rounds: dict = field(default_factory=lambda: {False: [], True: []})  # traced? -> round timers

    def check(self, gate: str, passed: bool, covers: int, detail: str) -> None:
        """Record a gate verdict; a failure marks ``covers`` operations failed.

        The report keeps the first failure of a gate, else its last pass.
        """
        if not passed:
            self.failed += covers
        prior = self.gates.get(gate)
        if prior is None or prior[0]:
            self.gates[gate] = (passed, detail)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for ok, _ in self.gates.values())


class _Timer:
    """CPU and wall seconds spent inside a ``with`` block."""

    def __enter__(self):
        self._cpu, self._wall = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = time.process_time() - self._cpu
        self.wall = time.perf_counter() - self._wall
        return False


_REF = np.random.default_rng(0x5EED)
_REF_CONVS = [(_REF.standard_normal(x, dtype=np.float32), _REF.standard_normal(w, dtype=np.float32))
              for x, w in (((4, 8, 64, 64), (8, 8, 3, 3)), ((4, 16, 32, 32), (16, 16, 3, 3)),
                           ((4, 64, 8, 8), (64, 64, 3, 3)), ((1, 8, 256, 256), (8, 8, 3, 3)))]
_REF_SMALL = _REF.standard_normal((8, 8))


def calibration_kernel() -> float:
    """CPU seconds of a fixed piece of numpy work that does not touch drawseg.

    It mixes the work drawseg does: 3x3 convolutions as tensordot over
    sliding windows at desk and 256x256 sizes, and an interpreter-bound
    loop of small-array ops. Timed next to every round, it measures how
    fast the machine runs at that moment; a change to drawseg moves the
    workload and not the kernel.
    """
    with _Timer() as t:
        for x, w in _REF_CONVS:
            win = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3), axis=(2, 3))
            np.maximum(np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3])), 0.0).transpose(0, 3, 1, 2).copy()
        a = _REF_SMALL
        for _ in range(2000):
            a = np.maximum(a * 0.5 + 0.25, 0.0)
    return t.cpu


def _span(tracer, name: str):
    """A span of the benchmark's own work in traced rounds, so the trace covers the round."""
    return tracer.span(name) if tracer else nullcontext()


def _dir_digest(root: Path, skip: str) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != skip:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _batch(dataset, ids, dtype, crop: Optional[int] = None):
    samples = [dataset.load(sid) for sid in ids]
    images = np.stack([s.image[:crop, :crop] for s in samples]).astype(dtype)[:, None]
    masks = np.stack([s.mask[:crop, :crop] for s in samples]).astype(np.int64)
    return images, masks


def _float64_twin(model):
    twin = M.build_model(model.variant, model.enc, model.num_classes, seed=0, dtype=T.CHECK64)
    for mine, theirs in zip(twin.parameters(), model.parameters()):
        mine.data = theirs.data.astype(np.float64)
    return twin


def predict_pass(model, dataset, ids, out_dir: Path, k: int, out: Outcome, tracer) -> None:
    """``drawseg predict`` per image: batch-1 no-grad forward, argmax, write the mask.

    The timed part ends with the write; reading the mask back is the gate.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for sid in ids:
        out.attempted += 1
        path = out_dir / f"{sid}_pred.pgm"
        try:
            with _span(tracer, "predict.image"), _Timer() as t:
                image = dataset.load(sid).image.astype(model.dtype)[None, None]
                with T.no_grad():
                    logits = model.forward(T.Tensor(image))
                pred = logits.data.argmax(axis=1)[0].astype(np.uint8)
                NP.write_pgm(path, pred, maxval=model.num_classes - 1)
            out.timings.append(("predict", k, 1, t.cpu, t.wall))
            with _span(tracer, "bench.gates"):
                back, _ = NP.read_pgm(path)
                same = np.array_equal(back, pred)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            same = False
        out.check("predict_mask_readback", same, 1,
                  f"{sid}: mask read back {'equals' if same else 'differs from'} argmax")


def gradient_gate(model, loss_spec, images, masks, seed: int) -> tuple[bool, float]:
    """float64 directional finite difference of the whole-model gradient, near the final weights."""
    twin = _float64_twin(model)
    params = twin.parameters()
    rng = np.random.default_rng([seed, 0x6AD])
    for p in params:
        p.data = p.data + GRAD_JITTER * rng.standard_normal(p.data.shape)
    x = T.Tensor(images.astype(np.float64))
    L.segmentation_loss(loss_spec, twin.forward(x), masks).backward()
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, direction) if p.grad is not None)
    base = [p.data for p in params]

    def loss_at(step):
        for p, b, d in zip(params, base, direction):
            p.data = b + step * d
        with T.no_grad():
            return float(L.segmentation_loss(loss_spec, twin.forward(x), masks).data)

    errors = []
    for step in GRAD_STEPS:
        numeric = (loss_at(step) - loss_at(-step)) / (2 * step)
        errors.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12))
    return min(errors) < GRAD_TOL, min(errors)


# ---------------------------------------------------------------------------
# training workloads


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    size: int              # image side in pixels
    n_train: int
    n_val: int             # held-out fold size; 0 trains without validation
    epochs: int
    frozen_epochs: int     # encoder frozen while epoch < frozen_epochs
    batch_size: int
    augment: bool
    run_dir: bool          # write the run directory (checkpoints, logs)
    predict_images: int
    throughput_name = "train_samples_per_s"
    throughput_what = "epochs x training images / time of the whole train() call"

    @property
    def steps(self) -> int:
        return self.epochs * math.ceil(self.n_train / self.batch_size)

    def config(self, seed: int) -> TR.TrainConfig:
        return TR.TrainConfig(
            variant=UNET_FULL, encoder=M.EncoderConfig(depth=4, base_width=8),
            epochs=self.epochs, unfreeze_epoch=self.frozen_epochs, validate_from=0,
            batch_size=self.batch_size, loss=L.LossSpec("focal"), seed=seed,
            augment=self.augment)

    def setup(self, root: Path, seed: int) -> dict:
        """The dataset, and the initial weights as a checkpoint that every round trains from."""
        n = self.n_train + self.n_val
        folds = n // self.n_val if self.n_val else 2
        D.generate_dataset(n, self.size, seed, root / "data", folds=folds)
        cfg = self.config(seed)
        M.save_checkpoint(M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed),
                          root / "init.segm")
        ds = D.DrawingDataset(root / "data")
        val = ds.split_ids(0) if self.n_val else []
        train = [sid for sid in ds.ids if sid not in set(val)]
        return {"root": root, "seed": seed, "train_ids": train, "val_ids": val,
                "predict_ids": (val + train)[:self.predict_images],
                "trajectory": None, "run_digest": None, "final_loss": None, "model": None}

    def run_round(self, st: dict, k: int, out: Outcome, tracer) -> None:
        with _span(tracer, "data.open"):
            ds = D.DrawingDataset(st["root"] / "data")
        run_dir = st["root"] / f"run{k}" if self.run_dir else None
        out.attempted += self.steps
        try:
            init = M.load_checkpoint(st["root"] / "init.segm")
            with _Timer() as t:
                model, log = TR.train(self.config(st["seed"]), ds, st["train_ids"], st["val_ids"],
                                      run_dir=run_dir, model=init)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out.check("train_completes", False, self.steps, f"round {k}: train() raised")
            return
        out.timings.append(("main", k, self.epochs * len(st["train_ids"]), t.cpu, t.wall))
        with _span(tracer, "bench.gates"):
            self._check_round(st, log, run_dir, out)
        st["model"] = model
        predict_pass(model, ds, st["predict_ids"], st["root"] / "pred", k, out, tracer)

    def _check_round(self, st: dict, log, run_dir, out: Outcome) -> None:
        trajectory = [sorted(vars(row).items()) for row in log.rows]
        finite = all(v is None or math.isfinite(v)
                     for row in log.rows for v in (row.train_loss, row.val_loss))
        out.check("finite_loss", finite, self.steps, "every logged loss is finite")
        if st["trajectory"] is None:
            st["trajectory"] = trajectory
            st["final_loss"] = log.rows[-1].train_loss
        out.check("loss_trajectory", trajectory == st["trajectory"], self.steps,
                  "per-epoch losses equal across rounds")
        if run_dir is not None:
            digest = _dir_digest(run_dir, skip="run.log")
            st["run_digest"] = st["run_digest"] or digest
            out.check("run_dir_bytes", digest == st["run_digest"], self.steps,
                      "run directory bytes (all but run.log) equal across rounds")
            shutil.rmtree(run_dir)

    def finish(self, st: dict, out: Outcome) -> None:
        if st["model"] is not None:
            ds = D.DrawingDataset(st["root"] / "data")
            ids = st["train_ids"][:min(2, self.batch_size)]
            images, masks = _batch(ds, ids, np.float64, crop=GRAD_CROP)
            ok, rel = gradient_gate(st["model"], self.config(st["seed"]).loss, images, masks, st["seed"])
            out.check("gradient_fd", ok, self.steps,
                      f"float64 directional derivative, smallest rel err over {len(GRAD_STEPS)} "
                      f"steps {rel:.2e} (tol {GRAD_TOL:g})")
        out.notes.append(f"final_train_loss {st['final_loss']!r} loss (last epoch; printed only, "
                         "it varies too much from seed to seed to be an end-to-end metric)")


TRAIN_DESK = TrainWorkload("train-desk", size=64, n_train=16, n_val=8, epochs=2, frozen_epochs=1,
                           batch_size=4, augment=True, run_dir=True, predict_images=16)
TRAIN_LARGE = TrainWorkload("train-large", size=256, n_train=2, n_val=0, epochs=1, frozen_epochs=0,
                            batch_size=1, augment=False, run_dir=False, predict_images=2)


# ---------------------------------------------------------------------------
# inference workload


@dataclass(frozen=True)
class EvalWorkload:
    name: str
    size: int
    n_images: int
    batch_size: int
    predict_images: int
    throughput_name = "eval_images_per_s"
    throughput_what = "images / time of evaluate() at batch 8 over the eight variants"

    def setup(self, root: Path, seed: int) -> dict:
        D.generate_dataset(self.n_images, self.size, seed, root / "data", folds=2)
        models = []
        for variant in M.ALL_VARIANTS:
            built = M.build_model(variant, M.EncoderConfig(depth=4, base_width=8), D.NUM_CLASSES, seed)
            path = root / f"{variant.cli_name}.segm"
            M.save_checkpoint(built, path)
            loaded = M.load_checkpoint(path)
            same = loaded.variant == variant and all(
                np.array_equal(a.data, b.data) for a, b in zip(built.parameters(), loaded.parameters()))
            models.append((variant, loaded, same))
        ids = D.DrawingDataset(root / "data").ids
        return {"root": root, "seed": seed, "ids": ids, "models": models,
                "confusions": {}, "rounds": 0}

    @property
    def batches(self) -> int:
        return math.ceil(self.n_images / self.batch_size)

    def run_round(self, st: dict, k: int, out: Outcome, tracer) -> None:
        with _span(tracer, "data.open"):
            ds = D.DrawingDataset(st["root"] / "data")
        images, cpu, wall = 0, 0.0, 0.0
        for variant, model, _ in st["models"]:
            out.attempted += self.batches
            try:
                with _Timer() as t:
                    report = TR.evaluate(model, st["ids"], ds, batch_size=self.batch_size)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.check("evaluate_completes", False, self.batches, f"{variant.cli_name}: evaluate() raised")
                continue
            cpu += t.cpu
            wall += t.wall
            images += len(st["ids"])
            first = st["confusions"].setdefault(variant, report.confusion)
            out.check("confusion_repeats", np.array_equal(first, report.confusion), self.batches,
                      "confusion matrices equal across rounds")
        if images:
            out.timings.append(("main", k, images, cpu, wall))
        st["rounds"] += 1
        model = next(m for v, m, _ in st["models"] if v == UNET_FULL)
        predict_pass(model, ds, st["ids"][:self.predict_images], st["root"] / "pred", k, out, tracer)

    def finish(self, st: dict, out: Outcome) -> None:
        ds = D.DrawingDataset(st["root"] / "data")
        images, _ = _batch(ds, st["ids"][:self.batch_size], np.float32)
        covers = self.batches * st["rounds"]
        for variant, model, same in st["models"]:
            out.check("checkpoint_roundtrip", same, covers,
                      f"{variant.cli_name}: reloaded weights equal the saved ones")
            with T.no_grad():
                f32 = model.forward(T.Tensor(images)).data
                f64 = _float64_twin(model).forward(T.Tensor(images.astype(np.float64))).data
            err = float(np.abs(f32 - f64).max()) / max(1.0, float(np.abs(f64).max()))
            out.check("logits_f32_vs_f64", err <= LOGIT_TOL, covers,
                      f"{variant.cli_name}: scaled logit error {err:.2e} (tol {LOGIT_TOL:g})")


EVAL_LADDER = EvalWorkload("eval-ladder", size=64, n_images=16, batch_size=8, predict_images=16)

WORKLOADS = {w.name: w for w in (TRAIN_DESK, TRAIN_LARGE, EVAL_LADDER)}

# smoke-test sizes: same code paths, seconds instead of minutes
TINY = {
    "train-desk": TrainWorkload("train-desk", size=16, n_train=2, n_val=2, epochs=2, frozen_epochs=1,
                                batch_size=2, augment=True, run_dir=True, predict_images=1),
    "train-large": TrainWorkload("train-large", size=32, n_train=2, n_val=0, epochs=1, frozen_epochs=0,
                                 batch_size=1, augment=False, run_dir=False, predict_images=1),
    "eval-ladder": EvalWorkload("eval-ladder", size=16, n_images=2, batch_size=8, predict_images=1),
}


# ---------------------------------------------------------------------------
# running a workload


def run(workload, seed: int, seconds: float, tracer, work_dir: Path) -> Outcome:
    """Set up, run measured rounds for ``seconds``, then gate the outputs.

    The calibration kernel runs before the first set-up and after each
    set-up and each round; a CPU time is rescaled by the mean of the two
    kernel times around it. With a tracer, the first set-up and every
    second round are traced; per-layer metrics come from those, overhead
    from comparing them with the untraced rounds.
    """
    out = Outcome()
    calibration_kernel()   # the first call pays one-time allocation costs
    refs = [calibration_kernel()]
    setup_s = []
    st = None
    for k in range(SETUP_REPEATS):
        traced = tracer is not None and k == 0
        if traced:
            tracer.install()
        try:
            with _Timer() as t:
                fresh = workload.setup(work_dir / f"setup{k}", seed)
        finally:
            if traced:
                tracer.restore()
        setup_s.append(t.cpu)
        if st is not None:
            shutil.rmtree(st["root"])
        st = fresh
        refs.append(calibration_kernel())

    deadline = time.perf_counter() + seconds
    k = 0
    while k < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.round = len(out.rounds[True])
            tracer.install()
        try:
            with _Timer() as t:
                workload.run_round(st, k, out, tracer if traced else None)
        finally:
            if traced:
                tracer.restore()
                tracer.round = -1
        out.rounds[traced].append(t)
        refs.append(calibration_kernel())
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish(st, out)

    # reference seconds per CPU second, for set-up i and for round r
    setup_scale = [REF_NOMINAL_S / statistics.fmean(refs[i:i + 2]) for i in range(SETUP_REPEATS)]
    scale = [REF_NOMINAL_S / statistics.fmean(refs[SETUP_REPEATS + r:SETUP_REPEATS + r + 2])
             for r in range(k)]
    main = [(n, cpu, wall, scale[r]) for kind, r, n, cpu, wall in out.timings if kind == "main"]
    predict = [(cpu, wall, scale[r]) for kind, r, _, cpu, wall in out.timings if kind == "predict"]

    out.metrics["setup_s"] = statistics.median(cpu * s for cpu, s in zip(setup_s, setup_scale))
    out.metrics["images_per_ref_s"] = (statistics.median(n / (cpu * s) for n, cpu, _, s in main)
                                       if main else None)
    out.metrics["predict_ref_ms_p50"] = (statistics.median(1000.0 * cpu * s for cpu, _, s in predict)
                                         if predict else None)
    out.metrics["peak_rss_mb"] = peak_rss_mb

    out.notes.append(f"calibration kernel: median {1000.0 * statistics.median(refs):.4g} ms over "
                     f"{len(refs)} runs (nominal {1000.0 * REF_NOMINAL_S:g} ms)")
    out.notes.append(f"setup_s: median of {SETUP_REPEATS} set-ups; "
                     f"raw CPU {statistics.median(setup_s):.6g} s")
    if main:
        out.notes.append(f"images_per_ref_s: {workload.throughput_what}, median of {len(main)}; raw "
                         f"{statistics.median(n / cpu for n, cpu, _, _ in main):.6g} images per CPU s")
        out.notes.append(f"{workload.throughput_name} "
                         f"{statistics.median(n / wall for n, _, wall, _ in main):.6g} images/s (wall clock)")
    if predict:
        wall_ms = [1000.0 * wall for _, wall, _ in predict]
        out.notes.append(f"predict_ms_p50 {statistics.median(wall_ms):.6g} ms, predict_ms_p90 "
                         f"{quantile(wall_ms, 0.9):.6g} ms (wall clock, n={len(predict)} images); "
                         f"predict_ref_ms_p90 {quantile([1000.0 * c * s for c, _, s in predict], 0.9):.6g}")
    out.notes.append(f"rounds {k} ({len(out.rounds[True])} traced)")
    return out
