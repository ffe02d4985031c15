"""Epoch loop semantics: determinism, freezing, logging, kfold, ablation."""
import dataclasses
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from drawseg import data as D
from drawseg import metrics as MT
from drawseg import models as M
from drawseg import training as TR
from drawseg.losses import LossSpec, segmentation_loss
from drawseg.optim import Adam, NumericalError, cosine_lr
from drawseg.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "tiny"
    D.generate_dataset(10, 32, seed=1, out_dir=root, folds=2)
    return D.DrawingDataset(root)


def tiny_config(**kw):
    base = dict(
        variant=M.ModelVariant("unet", True, True),
        encoder=M.EncoderConfig(depth=3, base_width=4, in_channels=1),
        num_classes=6,
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
        cfg = tiny_config(augment=True, validate_from=0)
        assert json.loads(cfg.to_json()) == jsonable(dataclasses.asdict(cfg))

    def test_validation_start_defaults_to_unfreeze(self):
        assert tiny_config().validation_start == 1
        assert tiny_config(validate_from=0).validation_start == 0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(unfreeze_epoch=5, epochs=2)
        with pytest.raises(ValueError):
            tiny_config(batch_size=0)


class TestTrain:
    def test_zero_epochs_is_noop(self, tiny_dataset):
        cfg = tiny_config(epochs=0, unfreeze_epoch=0)
        init = M.build_model(cfg.variant, cfg.encoder, cfg.num_classes, cfg.seed)
        model, log = TR.train(cfg, tiny_dataset, tiny_dataset.ids[:4])
        assert log.rows == []
        assert log.final is None  # no validation ids, no final report
        for a, b in zip(model.parameters(), init.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

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
        sched = cfg.schedule()
        for row in log.rows:
            assert row.lr == cosine_lr(sched, row.epoch)
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
        assert json.loads((root / "config.json").read_text()) == jsonable(dataclasses.asdict(cfg))
        lines = (root / "log.csv").read_text().strip().splitlines()
        assert lines[0] == TR.LOG_CSV_HEADER
        assert len(lines) == 3

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
        # 4 training images and 3 validated ones per epoch, then 3 for the final metrics
        assert sum(images) == 2 * (4 + 3) + 3

    def test_val_loss_is_batch_weighted_mean(self, tiny_dataset):
        cfg = tiny_config(epochs=1, unfreeze_epoch=1, validate_from=0)
        ids = tiny_dataset.ids
        val = ids[4:10]   # batches of 4 and 2
        model, log = TR.train(cfg, tiny_dataset, ids[:4], val)
        total = 0.0
        with no_grad():
            for start in range(0, len(val), cfg.batch_size):
                chunk = [tiny_dataset.load(sid) for sid in val[start:start + cfg.batch_size]]
                images, masks = TR._batch_arrays(chunk, 1, model.dtype)
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


class TestShuffle:
    def test_variant_independent_and_seeded(self):
        ids = [f"s{i}" for i in range(12)]
        a = TR.epoch_shuffle(ids, seed=5, epoch=3)
        b = TR.epoch_shuffle(ids, seed=5, epoch=3)
        c = TR.epoch_shuffle(ids, seed=5, epoch=4)
        assert a == b
        assert a != c
        assert sorted(a) == sorted(ids)


class TestKFold:
    def test_kfold_outputs(self, tiny_dataset, tmp_path):
        cfg = tiny_config(epochs=1, unfreeze_epoch=0)
        reports, aggregate = TR.run_kfold(cfg, tiny_dataset, tmp_path / "kf")
        root = tmp_path / "kf"
        assert len(reports) == 2
        for k in range(2):
            assert (root / f"fold{k}" / "checkpoints" / "final.segm").exists()
            assert (root / f"fold{k}" / "log.csv").exists()
        accs = [r.accuracy for r in reports]
        assert aggregate["accuracy"]["mean"] == pytest.approx(np.mean(accs), abs=1e-12)
        assert aggregate["accuracy"]["std"] == pytest.approx(np.std(accs), abs=1e-12)
        assert (root / "aggregate.csv").exists()

    def test_fewer_than_two_split_files_rejected(self, tiny_dataset, tmp_path):
        one = tmp_path / "one"
        shutil.copytree(tiny_dataset.root, one)
        (one / "splits" / "fold1.txt").unlink()
        with pytest.raises(ValueError, match="at least 2 split files"):
            TR.run_kfold(tiny_config(), D.DrawingDataset(one), tmp_path / "kf")
        assert not (tmp_path / "kf").exists()


class TestAblation:
    def test_table_shape_and_finiteness(self, tiny_dataset, tmp_path):
        cfg = tiny_config(epochs=1, unfreeze_epoch=0,
                          encoder=M.EncoderConfig(depth=3, base_width=4, in_channels=1))
        rows = TR.run_ablation(cfg, tiny_dataset, "cnn", tmp_path / "abl")
        assert [r["method"] for r in rows] == [
            "Base", "Base+Ave", "Base+CBAM", "Base+Ave+CBAM"]
        csv = (tmp_path / "abl" / "ablation.csv").read_text().strip().splitlines()
        assert csv[0] == "method,IoU,mAP,Accu,params"
        assert len(csv) == 5
        assert (tmp_path / "abl" / "ablation.txt").exists()
        params = [r["params"] for r in rows]
        assert params[0] < params[1] and params[0] < params[2] < params[3]

    def test_unknown_family_writes_nothing(self, tiny_dataset, tmp_path):
        with pytest.raises(ValueError, match="unknown family"):
            TR.run_ablation(tiny_config(), tiny_dataset, "segnet", tmp_path / "abl")
        assert not (tmp_path / "abl").exists()
