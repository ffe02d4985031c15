"""CLI contract: delegation, idempotent artifacts, exit codes."""
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drawseg
from drawseg import cli
from drawseg import tensor as T
from drawseg.netpbm import read_pgm


def dir_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    assert cli.main(["gen-data", "--n", "10", "--size", "32", "--seed", "0",
                     "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli_run") / "r1"
    code = cli.main([
        "train", "--data", str(data_dir), "--out", str(out),
        "--variant", "unet-full", "--loss", "focal",
        "--epochs", "2", "--unfreeze-epoch", "0", "--depth", "3",
        "--base-width", "4", "--batch-size", "4", "--seed", "0"])
    assert code == 0
    return out


class TestGenData:
    def test_layout_and_idempotency(self, data_dir, tmp_path, capsys):
        assert (data_dir / "manifest.txt").exists()
        twin = tmp_path / "twin"
        assert cli.main(["gen-data", "--n", "10", "--size", "32", "--seed", "0",
                         "--out", str(twin)]) == 0
        assert dir_digest(data_dir) == dir_digest(twin)

    def test_prints_resolved_config(self, tmp_path, capsys):
        assert cli.main(["gen-data", "--n", "2", "--size", "16", "--seed", "3", "--folds", "2",
                         "--out", str(tmp_path / "d")]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith("[gen-data]")
        assert json.loads(head.split("] ", 1)[1])["seed"] == 3

    def test_fewer_samples_than_folds_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "gd"
        assert cli.main(["gen-data", "--n", "2", "--size", "16", "--out", str(out)]) == 2
        assert "need at least K=5 ids" in capsys.readouterr().err
        assert not out.exists()

    def test_runs_as_module(self, tmp_path):
        src = str(Path(drawseg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        module = [sys.executable, "-m", "drawseg.cli", "gen-data", "--n", "2", "--size", "16",
                  "--folds", "2"]
        proc = subprocess.run(module + ["--out", str(tmp_path / "d")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "d" / "manifest.txt").exists()
        proc = subprocess.run(module, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2


class TestTrainEvalPredict:
    def test_train_writes_epoch_rows(self, run_dir):
        lines = (run_dir / "log.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 epochs

    def test_eval_writes_metrics(self, data_dir, run_dir, tmp_path):
        out = tmp_path / "eval"
        code = cli.main([
            "eval", "--ckpt", str(run_dir / "checkpoints" / "final.segm"),
            "--data", str(data_dir), "--ids", "splits/fold0.txt",
            "--out", str(out)])
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one summary row
        assert (out / "confusion.csv").exists()

    def test_predict_writes_masks_and_overlays(self, data_dir, run_dir, tmp_path):
        out = tmp_path / "pred"
        code = cli.main([
            "predict", "--ckpt", str(run_dir / "checkpoints" / "final.segm"),
            "--data", str(data_dir), "--ids", "splits/fold0.txt", "--out", str(out)])
        assert code == 0
        preds = sorted(out.glob("*_pred.pgm"))
        overlays = sorted(out.glob("*_overlay.ppm"))
        assert len(preds) == 2 and len(overlays) == 2
        mask, maxval = read_pgm(preds[0])
        assert maxval == 5 and mask.shape == (32, 32)
        raw = overlays[0].read_bytes()
        assert raw.startswith(b"P6\n32 32\n255\n")
        assert len(raw) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3

    def test_train_rerun_reproduces_artifacts(self, data_dir, run_dir, tmp_path):
        again = tmp_path / "r2"
        cli.main([
            "train", "--data", str(data_dir), "--out", str(again),
            "--variant", "unet-full", "--loss", "focal",
            "--epochs", "2", "--unfreeze-epoch", "0", "--depth", "3",
            "--base-width", "4", "--batch-size", "4", "--seed", "0"])
        assert (again / "log.csv").read_bytes() == (run_dir / "log.csv").read_bytes()
        assert ((again / "checkpoints" / "final.segm").read_bytes()
                == (run_dir / "checkpoints" / "final.segm").read_bytes())


def tree_bytes(root, skip=("run.log",)):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name not in skip}


class TestParallelJobs:
    def test_pool_matches_serial(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--n", "12", "--size", "32", "--seed", "2", "--folds", "3",
                         "--out", str(data)]) == 0
        common = ["--data", str(data), "--epochs", "2", "--unfreeze-epoch", "1",
                  "--depth", "3", "--base-width", "4", "--seed", "6"]
        env_before = dict(os.environ)
        for jobs in ("1", "2"):
            assert cli.main(["ablate", "--family", "cnn", "--out", str(tmp_path / f"abl{jobs}"),
                             "--jobs", jobs] + common) == 0
            assert cli.main(["kfold", "--variant", "unet-full",
                             "--out", str(tmp_path / f"kf{jobs}"), "--jobs", jobs] + common) == 0
        assert dict(os.environ) == env_before
        skip = ("run.log", "ablation.txt")
        serial = tree_bytes(tmp_path / "abl1", skip)
        assert len(serial) == 4 * 6 + 1
        assert tree_bytes(tmp_path / "abl2", skip) == serial
        wall_free = [[line.rsplit(None, 1)[0] for line in
                      (tmp_path / d / "ablation.txt").read_text().splitlines()]
                     for d in ("abl1", "abl2")]
        assert wall_free[0] == wall_free[1]
        serial = tree_bytes(tmp_path / "kf1")
        assert len(serial) == 3 * 6 + 2
        assert tree_bytes(tmp_path / "kf2") == serial

        # each fold's row is the report of its reloaded final checkpoint
        dataset = drawseg.DrawingDataset(data)
        rows = (tmp_path / "kf1" / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for k, row in enumerate(rows):
            model = drawseg.models.load_checkpoint(
                tmp_path / "kf1" / f"fold{k}" / "checkpoints" / "final.segm")
            report = drawseg.training.evaluate(model, dataset.split_ids(k), dataset, batch_size=4)
            assert row == drawseg.metrics.metrics_csv_row(f"fold{k}", report)

    def test_cells_are_train_runs(self, tmp_path):
        # the dataset's seed differs from the run seed, so folds drawn from
        # the run seed would differ from the split files
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--n", "6", "--size", "16", "--seed", "5", "--folds", "2",
                         "--out", str(data)]) == 0
        common = ["--data", str(data), "--epochs", "2", "--unfreeze-epoch", "1",
                  "--depth", "2", "--base-width", "2", "--seed", "7"]
        # (harness out dir, cell dir, variant, fold)
        cells = [("abl", v, v, 0) for v in ("cnn-base", "cnn-ave", "cnn-cbam", "cnn-full")]
        cells += [("kf", f"fold{k}", "unet-cbam", k) for k in range(2)]
        for _, _, variant, k in cells:
            assert cli.main(["train", "--variant", variant, "--val-fold", str(k),
                             "--out", str(tmp_path / f"{variant}-{k}")] + common) == 0
        for jobs in ("1", "2"):
            assert cli.main(["ablate", "--family", "cnn", "--out", str(tmp_path / f"abl{jobs}"),
                             "--jobs", jobs] + common) == 0
            assert cli.main(["kfold", "--variant", "unet-cbam", "--out", str(tmp_path / f"kf{jobs}"),
                             "--jobs", jobs] + common) == 0
            assert sorted(p.name for p in (tmp_path / f"kf{jobs}").glob("fold*")) == ["fold0", "fold1"]
            for harness, cell, variant, k in cells:
                run = tree_bytes(tmp_path / f"{variant}-{k}")
                assert len(run) == 6
                assert tree_bytes(tmp_path / f"{harness}{jobs}" / cell) == run, (jobs, cell)


class TestExitCodes:
    def test_missing_dataset_is_2(self, tmp_path):
        assert cli.main(["train", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "r"), "--epochs", "1"]) == 2

    def test_missing_checkpoint_is_2(self, data_dir, tmp_path):
        assert cli.main(["eval", "--ckpt", str(tmp_path / "nope.segm"),
                         "--data", str(data_dir)]) == 2

    def test_unknown_flag_is_2(self):
        assert cli.main(["gen-data", "--n", "1", "--wat", "x", "--out", "d"]) == 2

    def test_unknown_variant_is_2(self, data_dir, tmp_path):
        assert cli.main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                         "--variant", "segnet-base", "--epochs", "1"]) == 2

    def test_numerical_failure_is_3(self, data_dir, tmp_path, monkeypatch):
        from drawseg import training as TR
        real = TR.segmentation_loss

        def poisoned(spec, logits, targets):
            loss = real(spec, logits, targets)
            loss.data = np.asarray(np.nan, dtype=loss.data.dtype)
            return loss

        monkeypatch.setattr(TR, "segmentation_loss", poisoned)
        code = cli.main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                        "--epochs", "1", "--unfreeze-epoch", "0", "--depth", "3",
                         "--base-width", "4", "--no-validation"])
        assert code == 3

    def test_dead_jobs_worker_is_2(self, tmp_path):
        # spawned workers re-import __main__; without a __main__ guard each
        # worker tries to start its own pool and dies, breaking the parent's
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--n", "6", "--size", "16", "--seed", "0",
                         "--out", str(data)]) == 0
        argv = ["ablate", "--family", "unet", "--data", str(data), "--out", str(tmp_path / "abl"),
                "--jobs", "2", "--epochs", "1", "--depth", "2", "--base-width", "2"]
        # The parent kills the workers still alive once one has died, and a
        # worker killed halfway through its traceback leaves a partial line.
        # On a shared stderr the parent's last line would run on from it, so
        # the workers, which run this script as __mp_main__, write elsewhere.
        workers_err = tmp_path / "workers.err"
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import os\nfrom drawseg import cli\n"
            "if __name__ == '__mp_main__':\n"
            f"    os.dup2(os.open({str(workers_err)!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND), 2)\n"
            f"raise SystemExit(cli.main({argv!r}))\n")
        src = str(Path(drawseg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        # the resource tracker, another process, may warn about leaked
        # semaphores on stderr after the CLI's own last line
        own = [line for line in proc.stderr.splitlines() if "resource_tracker" not in line]
        assert own[-1].startswith("error:"), proc.stderr
        # the first worker to die ran to the end of its own traceback
        assert "if __name__ == '__main__':" in workers_err.read_text()

    @pytest.mark.parametrize("command", ["train", "kfold"])
    def test_unknown_split_id_is_2_and_writes_nothing(self, data_dir, tmp_path, capsys, command):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        with open(data / "splits" / "fold0.txt", "a") as f:
            f.write("ghost\n")
        out = tmp_path / "out"
        assert cli.main([command, "--data", str(data), "--out", str(out), "--epochs", "1",
                         "--depth", "2", "--base-width", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fold0.txt" in err and "'ghost'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "eval", "predict", "ablate", "kfold"])
    def test_out_naming_a_file_is_2(self, data_dir, run_dir, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        ckpt = ["--ckpt", str(run_dir / "checkpoints" / "final.segm"), "--data", str(data_dir)]
        argv = {"gen-data": ["--n", "1", "--size", "16"], "eval": ckpt, "predict": ckpt,
                "ablate": ["--family", "unet", "--data", str(data_dir)],
                "kfold": ["--data", str(data_dir)]}[command]
        assert cli.main([command, *argv, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    # header fields are u32 at byte 8 + 4 * index (layout above models._MAGIC)
    _FIELD = {"family": 8, "base_width": 24, "in_channels": 28, "width_cap": 32,
              "spatial_width": 40, "cnn_blocks": 44}

    @pytest.mark.parametrize("damage", [
        "cut_after_header", "family_7",
        "in_channels_0", "width_cap_0", "spatial_width_0", "base_width_4096", "cnn_blocks_1000000"])
    def test_malformed_checkpoint_is_2(self, data_dir, run_dir, tmp_path, damage):
        raw = (run_dir / "checkpoints" / "final.segm").read_bytes()
        if damage == "cut_after_header":
            raw = raw[:58]   # 56-byte header, then 2 bytes of the conv list
        else:
            field, value = damage.rsplit("_", 1)
            edits = {field: int(value)}
            if field == "cnn_blocks":
                edits["family"] = 1   # the cnn stack is cnn_blocks convs deep
            for name, v in edits.items():
                off = self._FIELD[name]
                raw = raw[:off] + struct.pack("<I", v) + raw[off + 4:]
        path = tmp_path / "bad.segm"
        path.write_bytes(raw)
        assert cli.main(["eval", "--ckpt", str(path), "--data", str(data_dir)]) == 2

    def test_gradcheck_corrupted_rule_is_1(self, monkeypatch):
        real = T.sigmoid

        def negated_rule(x):
            out = real(x)
            rule = out._backward
            out._backward = lambda g: rule(-g)
            return out

        monkeypatch.setattr(T, "sigmoid", negated_rule)
        assert cli.main(["gradcheck", "--scope", "primitive"]) == 1


class TestGradcheckCommand:
    @pytest.mark.parametrize("scope", ["cbam", "skip"])
    def test_scopes_pass(self, scope):
        assert cli.main(["gradcheck", "--scope", scope]) == 0

    def test_unknown_scope_rejected(self):
        assert cli.main(["gradcheck", "--scope", "everything"]) == 2

    def test_primitive_report_independent_of_hash_seed(self):
        # the builders' seeds must not depend on per-process string hashing
        src = str(Path(drawseg.__file__).resolve().parents[1])
        reports = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from drawseg import cli; "
                 "sys.exit(cli.main(['gradcheck', '--scope', 'primitive']))"],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            reports.append(proc.stdout)
        assert reports[0] == reports[1]
