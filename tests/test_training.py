"""Epoch loop semantics: determinism, freezing, logging, the ablation grid."""
import dataclasses
import json
import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

import _oracles as oracle
from drawseg import data as D
from drawseg import metrics as MT
from drawseg import models as M
from drawseg import training as TR
from drawseg.losses import LossSpec, segmentation_loss
from drawseg.optim import Adam, cosine_lr
from drawseg.tensor import NumericalError, Tensor, no_grad, zero_grads


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "tiny"
    D.generate_dataset(10, 32, seed=1, out_dir=root, folds=2)
    return D.DrawingDataset(root)


def tiny_config(**kw):
    base = dict(
        variant=M.ModelVariant("unet", True, True),
        encoder=M.EncoderConfig(depth=3, base_width=4),
        epochs=2,
        unfreeze_epoch=1,
        batch_size=4,
        loss=LossSpec(kind="focal"),
        lr0=1e-3,
        seed=0,
    )
    base.update(kw)
    return TR.TrainConfig(**base)


def jsonable(value):
    """value with its tuples as the lists a JSON reader returns."""
    if isinstance(value, dict):
        return {key: jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


class TestConfig:
    def test_json_roundtrip(self):
        # every derived value given, so the fields hold what config.json holds
        enc = M.EncoderConfig(depth=3, base_width=4, convs_per_block=(1, 2, 1))
        cfg = tiny_config(augment=True, validate_from=0, encoder=enc)
        assert json.loads(cfg.to_json()) == jsonable(dataclasses.asdict(cfg))

    def test_validate_from_defaults_to_unfreeze(self):
        assert tiny_config().validate_from is None
        assert tiny_config().validate_at == 1
        assert tiny_config(validate_from=0).validate_at == 0

    def test_derived_defaults_resolve(self):
        cfg = TR.TrainConfig(epochs=10)
        assert (cfg.unfreeze_epoch, cfg.validate_from) == (None, None)
        assert (cfg.unfreeze_at, cfg.validate_at) == (5, 5)
        written = json.loads(cfg.to_json())
        assert (written["unfreeze_epoch"], written["validate_from"]) == (5, 5)
        assert written["encoder"]["convs_per_block"] == [2, 2, 2, 2]
        # the schedule's floor (lr0 / 100), the poly epsilon and focal alpha and gamma are
        # no settings
        assert "eta_min" not in written and written["loss"] == {"kind": "focal"}
        cfg = TR.TrainConfig(epochs=10, unfreeze_epoch=2, lr0=1e-3)
        assert (cfg.unfreeze_at, cfg.validate_at) == (2, 2)

    def test_replaced_epochs_rederive_unfreeze_and_validation(self):
        cfg = replace(TR.TrainConfig(), epochs=10)
        assert (cfg.unfreeze_at, cfg.validate_at) == (5, 5)
        assert cfg.to_json() == TR.TrainConfig(epochs=10).to_json()
        # a value given explicitly is kept, and checked against the new epochs
        assert replace(TR.TrainConfig(unfreeze_epoch=8), epochs=20).unfreeze_at == 8
        with pytest.raises(ValueError, match="outside"):
            replace(TR.TrainConfig(unfreeze_epoch=50), epochs=10)

    def test_replaced_lr0_moves_the_schedule_floor(self):
        cfg = replace(TR.TrainConfig(lr0=1e-3), lr0=1e-2)
        assert cosine_lr(cfg.lr0, cfg.epochs, cfg.epochs) == 1e-4

    def test_invalid_rejected(self):
        for kw in (dict(unfreeze_epoch=5, epochs=2), dict(batch_size=0),
                   dict(lr0=-1.0), dict(lr0=0.0), dict(lr0=float("nan")), dict(lr0=float("inf")),
                   dict(validate_from=-1)):
            with pytest.raises(ValueError):
                tiny_config(**kw)


class TestTrain:
    def test_zero_epochs_is_noop(self, tiny_dataset):
        cfg = tiny_config(epochs=0, unfreeze_epoch=0)
        init = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed)
        model, log = TR.train(cfg, tiny_dataset, tiny_dataset.ids[:4])
        assert log.rows == []
        assert log.final is None  # no validation ids, no final report
        for a, b in zip(model.parameters(), init.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_model_with_other_class_count_rejected(self, tiny_dataset, tmp_path, monkeypatch):
        cfg = tiny_config(epochs=1, unfreeze_epoch=0)
        model = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes + 1, cfg.seed)
        steps = []
        monkeypatch.setattr(Adam, "step", lambda *a: steps.append(a))
        with pytest.raises(ValueError, match="classes"):
            TR.train(cfg, tiny_dataset, tiny_dataset.ids[:4], tiny_dataset.ids[4:6],
                     run_dir=tmp_path / "run", model=model)
        assert steps == []
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad", ["00000", "00009"], ids=["train_id", "val_id"])
    def test_manifest_size_checked_before_writing(self, tiny_dataset, tmp_path, bad):
        data = tmp_path / "data"
        shutil.copytree(tiny_dataset.root, data)
        manifest = data / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(f"{bad} 32 32", f"{bad} 32 30"))
        with pytest.raises(ValueError, match="input width 32 and height 30 must be divisible"):
            TR.train(tiny_config(), D.DrawingDataset(data), [f"{i:05d}" for i in range(8)],
                     ["00008", "00009"], run_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_unknown_id_rejected_before_writing(self, tiny_dataset, tmp_path):
        with pytest.raises(KeyError, match="sample id 'ghost' not in manifest"):
            TR.train(tiny_config(), tiny_dataset, ["00000", "ghost"], run_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_two_runs_identical_logs(self, tiny_dataset, tmp_path):
        cfg = tiny_config()
        ids = tiny_dataset.ids
        _, log_a = TR.train(cfg, tiny_dataset, ids[:8], ids[8:], run_dir=tmp_path / "a")
        _, log_b = TR.train(cfg, tiny_dataset, ids[:8], ids[8:], run_dir=tmp_path / "b")
        assert log_a.rows == log_b.rows
        assert (tmp_path / "a" / "log.csv").read_bytes() == (tmp_path / "b" / "log.csv").read_bytes()
        ca = (tmp_path / "a" / "checkpoints" / "final.segm").read_bytes()
        cb = (tmp_path / "b" / "checkpoints" / "final.segm").read_bytes()
        assert ca == cb

    def test_lr_column_matches_schedule(self, tiny_dataset):
        cfg = tiny_config(epochs=3, unfreeze_epoch=0, lr0=2e-3)
        _, log = TR.train(cfg, tiny_dataset, tiny_dataset.ids[:4])
        for row in log.rows:
            assert row.lr == cosine_lr(cfg.lr0, cfg.epochs, row.epoch)
        assert log.rows[0].lr == 2e-3

    def test_frozen_encoder_params_unchanged(self, tiny_dataset):
        cfg = tiny_config(epochs=2, unfreeze_epoch=2)  # frozen throughout
        init = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed)
        model, _ = TR.train(cfg, tiny_dataset, tiny_dataset.ids[:4])
        init_named = dict(init.named_parameters())
        moved = 0
        for name, p in model.named_parameters():
            if name.startswith("enc."):
                np.testing.assert_array_equal(p.data, init_named[name].data)
            elif not np.array_equal(p.data, init_named[name].data):
                moved += 1
        assert moved > 0

    def test_unfrozen_encoder_moves(self, tiny_dataset):
        cfg = tiny_config(epochs=2, unfreeze_epoch=0)
        init = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed)
        model, _ = TR.train(cfg, tiny_dataset, tiny_dataset.ids[:4])
        init_named = dict(init.named_parameters())
        assert any(not np.array_equal(p.data, init_named[name].data)
                   for name, p in model.named_parameters() if name.startswith("enc."))

    def test_validation_rows_only_after_window(self, tiny_dataset):
        cfg = tiny_config(epochs=2, unfreeze_epoch=1)
        ids = tiny_dataset.ids
        _, log = TR.train(cfg, tiny_dataset, ids[:8], ids[8:])
        assert log.rows[0].val_accuracy is None
        assert log.rows[1].val_accuracy is not None

    @pytest.mark.parametrize("validate_from, epoch_evals", [(0, 2), (1, 1), (2, 0)])
    def test_final_report_reuses_last_validation(self, tiny_dataset, monkeypatch,
                                                 validate_from, epoch_evals):
        calls = []
        real = TR.evaluate

        def counting(*args, **kwargs):
            calls.append(kwargs.get("loss"))
            return real(*args, **kwargs)

        monkeypatch.setattr(TR, "evaluate", counting)
        cfg = tiny_config(epochs=2, unfreeze_epoch=0, validate_from=validate_from)
        ids = tiny_dataset.ids
        model, log = TR.train(cfg, tiny_dataset, ids[:8], ids[8:])
        # one evaluate per validated epoch; a run whose last epoch did not validate adds one
        assert len(calls) == max(epoch_evals, 1)
        assert sum(loss is not None for loss in calls) == epoch_evals
        fresh = real(model, ids[8:], tiny_dataset, batch_size=cfg.batch_size)
        np.testing.assert_array_equal(log.final.confusion, fresh.confusion)

    def test_run_dir_contents(self, tiny_dataset, tmp_path):
        cfg = tiny_config(epochs=2, unfreeze_epoch=0)
        ids = tiny_dataset.ids
        _, log = TR.train(cfg, tiny_dataset, ids[:8], ids[8:], run_dir=tmp_path / "run")
        root = tmp_path / "run"
        assert ((root / "metrics.csv").read_text().splitlines()[1]
                == MT.metrics_csv_row("final", log.final))
        for name in ("config.json", "log.csv", "metrics.csv", "confusion.csv", "run.log",
                     "checkpoints/final.segm", "checkpoints/best.segm"):
            assert (root / name).exists(), name
        assert (root / "config.json").read_text() == cfg.to_json() + "\n"
        lines = (root / "log.csv").read_text().strip().splitlines()
        assert lines[0] == TR.LOG_CSV_HEADER
        assert len(lines) == 3

    def test_confusion_csv_holds_the_final_models_counts(self, tiny_dataset, tmp_path):
        cfg = tiny_config(epochs=2, unfreeze_epoch=0, lr0=1e-2)
        ids = tiny_dataset.ids
        TR.train(cfg, tiny_dataset, ids[:8], ids[8:], run_dir=tmp_path / "run")
        model = M.load_checkpoint(tmp_path / "run" / "checkpoints" / "final.segm")
        want = TR.evaluate(model, ids[8:], tiny_dataset, batch_size=cfg.batch_size).confusion
        lines = (tmp_path / "run" / "confusion.csv").read_text().splitlines()
        assert lines[0] == "predicted\\true," + ",".join(D.CLASS_NAMES)
        assert [line.split(",")[0] for line in lines[1:]] == list(D.CLASS_NAMES)
        got = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_array_equal(got, want)

    def test_nonfinite_loss_aborts_with_checkpoint(self, tiny_dataset, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = TR.segmentation_loss

        def poisoned(spec, logits, targets):
            calls["n"] += 1
            loss = real(spec, logits, targets)
            if calls["n"] == 2:
                loss.data = np.asarray(np.nan, dtype=loss.data.dtype)
            return loss

        monkeypatch.setattr(TR, "segmentation_loss", poisoned)
        cfg = tiny_config(epochs=2, unfreeze_epoch=0, batch_size=2)
        with pytest.raises(NumericalError, match="non-finite"):
            TR.train(cfg, tiny_dataset, tiny_dataset.ids[:6], run_dir=tmp_path / "boom")
        ckpt = tmp_path / "boom" / "checkpoints" / "final.segm"
        assert ckpt.exists()
        M.load_checkpoint(ckpt)   # still parseable


    def test_nonfinite_gradient_aborts_at_epoch_start_weights(self, tiny_dataset, tmp_path,
                                                              monkeypatch):
        # batch_size 2 over 4 images: two steps per epoch; poison the second of epoch 1
        cfg = tiny_config(epochs=2, unfreeze_epoch=0, batch_size=2)
        ids = tiny_dataset.ids[:4]
        TR.train(replace(cfg, epochs=1), tiny_dataset, ids, run_dir=tmp_path / "one")
        calls = {"n": 0}
        real = Adam.step

        def step(adam, params, lr):
            calls["n"] += 1
            if calls["n"] == 4:
                bias = next(p for p in params if p.name == "head.conv1.b")
                bias.grad = bias.grad.copy()
                bias.grad[0] = np.nan
            return real(adam, params, lr)

        monkeypatch.setattr(Adam, "step", step)
        with pytest.raises(NumericalError, match="non-finite gradient"):
            TR.train(cfg, tiny_dataset, ids, run_dir=tmp_path / "boom")
        final = tmp_path / "boom" / "checkpoints" / "final.segm"
        assert final.read_bytes() == (tmp_path / "one" / "checkpoints" / "final.segm").read_bytes()
        M.load_checkpoint(final)
        assert "aborted" in (tmp_path / "boom" / "run.log").read_text()

    def test_overflowing_step_aborts_at_initial_weights(self, tiny_dataset, tmp_path):
        # finite gradients, but lr * mhat overflows float32: Adam writes non-finite weights
        cfg = tiny_config(epochs=1, unfreeze_epoch=0, validate_from=0, lr0=1e39)
        ids = tiny_dataset.ids
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite weight in parameter enc.l0"):
                TR.train(cfg, tiny_dataset, ids[:4], ids[4:6], run_dir=tmp_path / "boom")
        init = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed)
        M.save_checkpoint(init, tmp_path / "init.segm")
        final = tmp_path / "boom" / "checkpoints" / "final.segm"
        assert final.read_bytes() == (tmp_path / "init.segm").read_bytes()
        M.load_checkpoint(final)
        assert (tmp_path / "boom" / "log.csv").read_text() == TR.LOG_CSV_HEADER + "\n"

    def test_overflowing_step_note_names_the_epoch_end_check(self, tiny_dataset, tmp_path):
        # the weight check runs after the epoch's steps, so its note names no batch;
        # Adam's overflowing update raises no numpy warning ahead of it
        cfg = tiny_config(epochs=2, unfreeze_epoch=0, lr0=1e39)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite weight"):
                TR.train(cfg, tiny_dataset, tiny_dataset.ids[:4], run_dir=tmp_path / "boom")
        log = (tmp_path / "boom" / "run.log").read_text()
        assert "aborted after epoch 0's steps: non-finite weight" in log, log
        assert "batch" not in log, log


class TestFrozenAndValidation:
    def test_frozen_step_computes_no_encoder_gradients(self, tiny_dataset, monkeypatch):
        cfg = tiny_config(epochs=1, unfreeze_epoch=1)
        model = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed)
        seen = []
        real = Adam.step

        def step(adam, params, lr):
            seen.append({name: p.grad is not None for name, p in model.named_parameters()})
            return real(adam, params, lr)

        monkeypatch.setattr(Adam, "step", step)
        TR.train(cfg, tiny_dataset, tiny_dataset.ids[:4], model=model)
        assert len(seen) == 1
        for name, has_grad in seen[0].items():
            assert has_grad != name.startswith("enc."), name

    def test_numerical_error_unfreezes(self, tiny_dataset, monkeypatch):
        def poisoned(spec, logits, targets):
            return Tensor(np.asarray(np.nan, dtype=np.float32))

        monkeypatch.setattr(TR, "segmentation_loss", poisoned)
        cfg = tiny_config(epochs=2, unfreeze_epoch=2)
        model = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed)
        with pytest.raises(NumericalError):
            TR.train(cfg, tiny_dataset, tiny_dataset.ids[:4], model=model)
        assert all(p.requires_grad for p in model.parameters())

    def test_one_forward_per_validation_image(self, tiny_dataset, monkeypatch):
        images = []
        real = M.SegModel.forward

        def forward(model, x):
            images.append(x.shape[0])
            return real(model, x)

        monkeypatch.setattr(M.SegModel, "forward", forward)
        cfg = tiny_config(epochs=2, unfreeze_epoch=1, validate_from=0)
        ids = tiny_dataset.ids
        TR.train(cfg, tiny_dataset, ids[:4], ids[4:7])
        # 4 training images and 3 validated ones per epoch; the final metrics reuse the
        # last epoch's validation
        assert sum(images) == 2 * (4 + 3)

    def test_val_loss_is_batch_weighted_mean(self, tiny_dataset):
        cfg = tiny_config(epochs=1, unfreeze_epoch=1, validate_from=0)
        ids = tiny_dataset.ids
        val = ids[4:10]   # batches of 4 and 2
        model, log = TR.train(cfg, tiny_dataset, ids[:4], val)
        total = 0.0
        with no_grad():
            for start in range(0, len(val), cfg.batch_size):
                chunk = [tiny_dataset.load(sid) for sid in val[start:start + cfg.batch_size]]
                images, masks = TR._batch_arrays(chunk, model.dtype)
                loss = segmentation_loss(cfg.loss, model.forward(Tensor(images)), masks)
                total += float(loss.data) * len(chunk)
        assert log.rows[0].val_loss == total / len(val)
        assert TR.evaluate(model, val, tiny_dataset).loss is None


class TestEvaluate:
    def test_deterministic(self, tiny_dataset):
        cfg = tiny_config()
        model = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, 3)
        a = TR.evaluate(model, tiny_dataset.ids[:4], tiny_dataset)
        b = TR.evaluate(model, tiny_dataset.ids[:4], tiny_dataset)
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert a.iou_mean == b.iou_mean

    def test_zero_head_predicts_single_class(self, tiny_dataset):
        cfg = tiny_config()
        model = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, 3)
        (w1, b1), (w2, b2) = model.head
        w2.data[:] = 0
        b2.data[:] = 0
        report = TR.evaluate(model, tiny_dataset.ids[:4], tiny_dataset)
        rows_with_mass = (report.confusion.sum(axis=1) > 0).sum()
        assert rows_with_mass == 1  # argmax ties at equal logits -> class 0

    def test_empty_ids_rejected(self, tiny_dataset):
        cfg = tiny_config()
        model = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, 3)
        with pytest.raises(ValueError):
            TR.evaluate(model, [], tiny_dataset)


class TestOverfitGate:
    def test_unet_base_learns_every_class_of_two_images(self):
        # Catches a model fault that the gradient checks of tests/_gradcheck.py
        # cannot, since they prove the gradients of whatever graph is wired: with the
        # skip wired to the half-resolution level (upsample2x(max_pool2d(shallow)))
        # Dash stops at IoU 0.40. Here the lowest class reaches about 0.985.
        samples = [D.make_sample(32, D.sample_rng(0, i)) for i in range(2)]
        images, masks = TR._batch_arrays(samples, np.float32)
        assert set(np.unique(masks)) == set(range(D.NUM_CLASSES))
        model = M.build_model(M.ModelVariant("unet", False, False),
                              M.EncoderConfig(depth=2, base_width=8), D.NUM_CLASSES, seed=0)
        adam = Adam(model.parameters())
        for _ in range(400):
            segmentation_loss(LossSpec(kind="ce"), model.forward(Tensor(images)),
                              masks).backward()
            adam.step(model.parameters(), 1e-2)
            zero_grads(model.parameters())
        with no_grad():
            pred = model.forward(Tensor(images)).data.argmax(axis=1)
        report = MT.compute_report([MT.confusion(p, m, D.NUM_CLASSES)
                                    for p, m in zip(pred, masks)])
        ious = dict(zip(D.CLASS_NAMES, report.per_class_iou))
        assert report.per_class_iou == [oracle.iou_loops(pred, masks, c)
                                        for c in range(D.NUM_CLASSES)]
        assert min(ious.values()) >= 0.9, ious


class TestShuffle:
    def test_variant_independent_and_seeded(self):
        ids = [f"s{i}" for i in range(12)]
        a = TR.epoch_shuffle(ids, seed=5, epoch=3)
        b = TR.epoch_shuffle(ids, seed=5, epoch=3)
        c = TR.epoch_shuffle(ids, seed=5, epoch=4)
        assert a == b
        assert a != c
        assert sorted(a) == sorted(ids)


@pytest.fixture(scope="module")
def cnn_grid(tiny_dataset, tmp_path_factory):
    """The cnn family's ablation grid over both folds: (rows, out dir)."""
    cfg = tiny_config(epochs=1, unfreeze_epoch=0,
                      encoder=M.EncoderConfig(depth=3, base_width=4))
    root = tmp_path_factory.mktemp("grid") / "abl"
    return TR.run_ablation(cfg, tiny_dataset, "cnn", root), root


class TestKFold:
    """The grid's fold axis: every variant is trained once per split file."""

    def test_kfold_outputs(self, cnn_grid):
        rows, root = cnn_grid
        names = ("cnn-base", "cnn-ave", "cnn-cbam", "cnn-full")
        for name in names:
            for k in range(2):
                assert (root / name / f"fold{k}" / "checkpoints" / "final.segm").exists()
                assert (root / name / f"fold{k}" / "log.csv").exists()
        cells = [line.split(",") for line in
                 (root / "metrics.csv").read_text().strip().splitlines()[1:]]
        assert [c[0] for c in cells] == [f"{n}/fold{k}" for n in names for k in range(2)]
        for i, row in enumerate(rows):
            # metrics.csv columns: id, iou_mean, map, accuracy
            for key, col in (("iou", 1), ("map", 2), ("accuracy", 3)):
                folds = [float(c[col]) for c in cells[2 * i:2 * i + 2]]
                assert row[key] == pytest.approx(np.mean(folds), abs=1e-12)
                assert row[f"{key}_std"] == pytest.approx(np.std(folds), abs=1e-12)

    def test_fewer_than_two_split_files_rejected(self, tiny_dataset, tmp_path):
        one = tmp_path / "one"
        shutil.copytree(tiny_dataset.root, one)
        (one / "splits" / "fold1.txt").unlink()
        with pytest.raises(ValueError, match="at least 2 split files"):
            TR.run_ablation(tiny_config(), D.DrawingDataset(one), "unet", tmp_path / "abl")
        assert not (tmp_path / "abl").exists()


class TestAblation:
    def test_table_shape_and_finiteness(self, cnn_grid):
        rows, root = cnn_grid
        assert [r["method"] for r in rows] == [
            "Base", "Base+Ave", "Base+CBAM", "Base+Ave+CBAM"]
        csv = (root / "ablation.csv").read_text().strip().splitlines()
        assert csv[0] == "method,IoU,IoU_std,mAP,mAP_std,Accu,Accu_std,params"
        assert len(csv) == 5
        assert all(np.isfinite(float(v)) for line in csv[1:] for v in line.split(",")[1:])
        for row, line in zip(rows, csv[1:]):
            assert line.split(",") == [row["method"]] + [MT.csv_cell(row[key]) for key in (
                "iou", "iou_std", "map", "map_std", "accuracy", "accuracy_std")] + [
                str(row["params"])]
        assert len((root / "ablation.txt").read_text().splitlines()) == 5
        params = [r["params"] for r in rows]
        assert params[0] < params[1] and params[0] < params[2] < params[3]

    def test_size_one_variant_cannot_pool_writes_nothing(self, tmp_path):
        D.generate_dataset(4, 15, seed=0, out_dir=tmp_path / "odd", folds=2)
        cfg = tiny_config(epochs=1, encoder=M.EncoderConfig(depth=2, base_width=2))
        with pytest.raises(ValueError, match="divisible by 2 for the dual-pool branch"):
            TR.run_ablation(cfg, D.DrawingDataset(tmp_path / "odd"), "cnn", tmp_path / "abl")
        assert not (tmp_path / "abl").exists()

    def test_unknown_family_writes_nothing(self, tiny_dataset, tmp_path):
        with pytest.raises(ValueError, match="unknown family"):
            TR.run_ablation(tiny_config(), tiny_dataset, "segnet", tmp_path / "abl")
        assert not (tmp_path / "abl").exists()
