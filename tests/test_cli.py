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
from drawseg.netpbm import read_pgm, write_pgm


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

    def test_out_holding_a_dataset_is_2_and_writes_nothing(self, data_dir, tmp_path, capsys):
        out = tmp_path / "d"
        shutil.copytree(data_dir, out)
        assert cli.main(["gen-data", "--n", "4", "--size", "16", "--seed", "1", "--folds", "2",
                         "--out", str(out)]) == 2
        assert "already holds a dataset" in capsys.readouterr().err
        assert dir_digest(out) == dir_digest(data_dir)

    def test_size_boundary(self, tmp_path, capsys):
        # a stroke's endpoints are drawn 3 px inside the border and at least
        # size / 4 apart: below 10 that pair is rare (9) or impossible (6-8)
        assert cli.main(["gen-data", "--n", "20", "--size", "10", "--folds", "2",
                         "--out", str(tmp_path / "d10")]) == 0
        assert len(list((tmp_path / "d10" / "images").glob("*.pgm"))) == 20
        for size in ("6", "7", "8", "9"):
            out = tmp_path / f"d{size}"
            assert cli.main(["gen-data", "--n", "20", "--size", size, "--folds", "2",
                             "--out", str(out)]) == 2
            assert f"--size {size}" in capsys.readouterr().err
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


class TestBlasThreads:
    @pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
    def test_one_thread_unless_the_environment_names_a_count(self, given, expected):
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        src = str(Path(drawseg.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        code = f"import os, drawseg; print(*(os.environ[k] for k in {blas!r}))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [expected, "1", "1"]


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
        for family in ("cnn", "unet"):
            for jobs in ("1", "2"):
                assert cli.main(["ablate", "--family", family,
                                 "--out", str(tmp_path / f"{family}{jobs}"),
                                 "--jobs", jobs] + common) == 0
        assert dict(os.environ) == env_before
        dataset = drawseg.DrawingDataset(data)
        skip = ("run.log", "ablation.txt")
        for family in ("cnn", "unet"):
            serial = tree_bytes(tmp_path / f"{family}1", skip)
            assert len(serial) == 4 * 3 * 6 + 2
            assert tree_bytes(tmp_path / f"{family}2", skip) == serial
            wall_free = [[line.rsplit(None, 1)[0] for line in
                          (tmp_path / f"{family}{jobs}" / "ablation.txt").read_text().splitlines()]
                         for jobs in ("1", "2")]
            assert wall_free[0] == wall_free[1]

            # each cell's row is the report of its reloaded final checkpoint
            rows = (tmp_path / f"{family}1" / "metrics.csv").read_text().splitlines()[1:]
            cells = [(f"{v.cli_name}/fold{k}", k) for v in drawseg.ALL_VARIANTS
                     if v.family == family for k in range(3)]
            assert [row.split(",", 1)[0] for row in rows] == [cell for cell, _ in cells]
            for (cell, k), row in zip(cells, rows):
                model = drawseg.models.load_checkpoint(
                    tmp_path / f"{family}1" / cell / "checkpoints" / "final.segm")
                report = drawseg.training.evaluate(model, dataset.split_ids(k), dataset,
                                                   batch_size=4)
                assert row == drawseg.metrics.metrics_csv_row(cell, report)

    def test_cells_are_train_runs(self, tmp_path):
        # the dataset's seed differs from the run seed, so folds drawn from
        # the run seed would differ from the split files
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--n", "6", "--size", "16", "--seed", "5", "--folds", "2",
                         "--out", str(data)]) == 0
        common = ["--data", str(data), "--epochs", "2", "--unfreeze-epoch", "1",
                  "--depth", "2", "--base-width", "2", "--seed", "7"]
        cells = [(v.family, v.cli_name, k) for v in drawseg.ALL_VARIANTS for k in range(2)]
        for _, variant, k in cells:
            assert cli.main(["train", "--variant", variant, "--val-fold", str(k),
                             "--out", str(tmp_path / f"{variant}-{k}")] + common) == 0
        for jobs in ("1", "2"):
            for family in ("cnn", "unet"):
                assert cli.main(["ablate", "--family", family,
                                 "--out", str(tmp_path / f"{family}{jobs}"),
                                 "--jobs", jobs] + common) == 0
            for family, variant, k in cells:
                run = tree_bytes(tmp_path / f"{variant}-{k}")
                assert len(run) == 6
                cell = tmp_path / f"{family}{jobs}" / variant / f"fold{k}"
                assert tree_bytes(cell) == run, (jobs, variant, k)


class TestExitCodes:
    # Grid cases: "ablate" is the cnn family's grid and "ablate-unet" the unet family's.
    _GRID = {"ablate": ["ablate", "--family", "cnn"],
             "ablate-unet": ["ablate", "--family", "unet"]}

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

    def test_dead_worker_error_starts_a_fresh_line(self, data_dir, tmp_path, capsys,
                                                   monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def dying_pool(*args, **kwargs):
            sys.stderr.write("    ^^^^")     # a worker's traceback, cut off mid-line
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr(cli, "run_ablation", dying_pool)
        assert cli.main(["ablate", "--family", "unet", "--data", str(data_dir),
                         "--out", str(tmp_path / "abl"), "--jobs", "2"]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:")

    @pytest.mark.parametrize("command", ["train", "ablate", "ablate-unet", "eval", "predict"])
    def test_unknown_split_id_is_2_and_writes_nothing(self, data_dir, run_dir, tmp_path, capsys,
                                                      command):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        with open(data / "splits" / "fold0.txt", "a") as f:
            f.write("ghost\n")
        out = tmp_path / "out"
        if command in ("eval", "predict"):
            argv = ["--ckpt", str(run_dir / "checkpoints" / "final.segm"),
                    "--ids", "splits/fold0.txt"]
        else:
            argv = ["--epochs", "1", "--depth", "2", "--base-width", "2"]
        head = self._GRID.get(command, [command])
        assert cli.main([*head, "--data", str(data), "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fold0.txt" in err and "'ghost'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_id_named_twice_is_2_and_writes_nothing(self, data_dir, run_dir, tmp_path, capsys,
                                                    command):
        ids = tmp_path / "ids.txt"
        first = (data_dir / "splits" / "fold0.txt").read_text().split()[0]
        ids.write_text(f"{first}\n{first}\n")
        out = tmp_path / "out"
        assert cli.main([command, "--data", str(data_dir), "--out", str(out), "--ckpt",
                         str(run_dir / "checkpoints" / "final.segm"), "--ids", str(ids)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"more than once: '{first}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_of_other_class_count_is_2(self, data_dir, tmp_path, capsys, command):
        ckpt = tmp_path / "k7.segm"
        drawseg.save_checkpoint(drawseg.build_model(
            drawseg.ModelVariant("unet", False, False),
            drawseg.EncoderConfig(depth=2, base_width=2), 7, seed=0), ckpt)
        out = tmp_path / "out"
        assert cli.main([command, "--ckpt", str(ckpt), "--data", str(data_dir),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "7 classes" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_with_non_finite_weight_is_2_and_writes_nothing(
            self, data_dir, tmp_path, capsys, command, value):
        model = drawseg.build_model(drawseg.ModelVariant("unet", False, False),
                                    drawseg.EncoderConfig(depth=2, base_width=2), 6, seed=0)
        dict(model.named_parameters())["dec.l0.conv1.w"].data[0, 1, 2, 0] = value
        ckpt = tmp_path / "bad.segm"
        drawseg.save_checkpoint(model, ckpt)
        out = tmp_path / "out"
        assert cli.main([command, "--ckpt", str(ckpt), "--data", str(data_dir),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: checkpoint holds a non-finite value in dec.l0.conv1.w\n"
        assert "IoU" not in captured.out and not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "-1.0"), ("--lr", "0.0"), ("--lr", "nan"), ("--validate-from", "-1")])
    def test_invalid_train_setting_is_2_and_writes_nothing(self, data_dir, tmp_path, capsys,
                                                           flag, value):
        out = tmp_path / "r"
        assert cli.main(["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1",
                         f"{flag}={value}"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
    @pytest.mark.parametrize("seed", ["-1", "+3", "x"])
    def test_seed_not_a_non_negative_integer_is_2_and_writes_nothing(
            self, data_dir, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        head = {"gen-data": ["gen-data"], "train": ["train", "--data", str(data_dir)],
                "ablate": [*self._GRID["ablate"], "--data", str(data_dir)]}[command]
        assert cli.main([*head, "--out", str(out), f"--seed={seed}"]) == 2
        captured = capsys.readouterr()
        assert "argument --seed: expected an integer >= 0" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_image_size_the_model_cannot_pool_is_2_and_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--n", "4", "--size", "20", "--folds", "2",
                         "--out", str(data)]) == 0
        out = tmp_path / "r"
        assert cli.main(["train", "--data", str(data), "--out", str(out), "--depth", "4",
                         "--epochs", "1"]) == 2
        assert "divisible by 2^(depth-1) = 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("ablate", "--jobs", "0"), ("ablate", "--jobs", "-3"), ("ablate-unet", "--jobs", "0"),
        ("eval", "--batch-size", "0"), ("eval", "--batch-size", "-2")])
    def test_count_below_one_is_2_and_writes_nothing(self, data_dir, run_dir, tmp_path, capsys,
                                                     command, flag, value):
        out = tmp_path / "out"
        argv = {"ablate": ["--epochs", "1", "--base-width", "2"],
                "ablate-unet": ["--epochs", "1", "--depth", "2", "--base-width", "2"],
                "eval": ["--ckpt", str(run_dir / "checkpoints" / "final.segm")]}[command]
        head = self._GRID.get(command, [command])
        assert cli.main([*head, "--data", str(data_dir), "--out", str(out), *argv,
                         flag, value]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "eval"])
    def test_images_of_two_sizes_are_2_and_write_nothing(self, data_dir, tmp_path, capsys,
                                                          command):
        # 16x16 and 32x32 both pass the depth-2 rule, but a batch cannot stack them
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        small = tmp_path / "small"
        assert cli.main(["gen-data", "--n", "2", "--size", "16", "--folds", "2",
                         "--out", str(small)]) == 0
        for sub in ("images", "masks"):
            shutil.copy(small / sub / "00000.pgm", data / sub / "00003.pgm")
        manifest = data / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("00003 32 32", "00003 16 16"))
        if command == "eval":
            ckpt = tmp_path / "d2.segm"
            drawseg.save_checkpoint(drawseg.build_model(
                drawseg.ModelVariant("unet", False, False),
                drawseg.EncoderConfig(depth=2, base_width=2), 6, seed=0), ckpt)
            argv = ["eval", "--ckpt", str(ckpt)]
        else:
            argv = [*self._GRID.get(command, [command]), "--epochs", "1", "--depth", "2",
                    "--base-width", "2"]
        capsys.readouterr()
        out = tmp_path / "r"
        assert cli.main([*argv, "--data", str(data), "--out", str(out), "--batch-size", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: images must share one size:") and "'00003' is 16x16" in err
        assert not out.exists()

    def test_model_too_large_for_memory_is_2_and_writes_nothing(self, data_dir, tmp_path,
                                                                capsys, monkeypatch):
        # --base-width 100000 asks numpy for a 671 GiB weight; the build is
        # stubbed so that no test allocates for real
        from drawseg import training as TR

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 671. GiB for an array with shape "
                              "(100000, 100000, 3, 3) and data type float32")

        monkeypatch.setattr(TR, "build_model", too_large)
        out = tmp_path / "r"
        assert cli.main(["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1",
                         "--base-width", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "671. GiB" in err
        assert not out.exists()

    def test_num_classes_flag_is_gone(self, data_dir, tmp_path):
        assert cli.main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                         "--num-classes", "7", "--epochs", "1"]) == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--eta-min"), ("train", "--poly-eps"), ("ablate", "--eta-min"),
        ("ablate", "--poly-eps"), ("train", "--alpha"), ("ablate", "--alpha"),
        ("train", "--gamma"), ("ablate", "--gamma")])
    def test_schedule_floor_and_poly_eps_flags_are_gone(self, data_dir, tmp_path, capsys,
                                                         command, flag):
        # the floor is always lr / 100, poly's epsilon 1, and focal's alpha and gamma
        # losses.FOCAL_ALPHA and losses.FOCAL_GAMMA
        out = tmp_path / "r"
        head = self._GRID.get(command, [command])
        assert cli.main([*head, "--data", str(data_dir), "--out", str(out), "--epochs", "1",
                         flag, "0.5"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_id_outside_the_dataset_is_2_and_writes_nothing(self, run_dir, tmp_path,
                                                                     capsys):
        # images/../escape/e.pgm and masks/../escape/e.pgm both name one readable mask file
        data = tmp_path / "data"
        for sub in ("images", "masks", "escape"):
            (data / sub).mkdir(parents=True)
        write_pgm(data / "escape" / "e.pgm", np.zeros((16, 16), dtype=np.uint8), maxval=5)
        (data / "manifest.txt").write_text("../escape/e 16 16\n")
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                         "--no-validation", "--epochs", "1", "--depth", "2",
                         "--base-width", "2"]) == 2
        assert cli.main(["predict", "--ckpt", str(run_dir / "checkpoints" / "final.segm"),
                         "--data", str(data), "--out", str(tmp_path / "pred")]) == 2
        err = capsys.readouterr().err
        assert err.count("is not one path component") == 2
        assert sorted(tmp_path.rglob("*")) == before

    def test_image_of_other_maxval_is_2(self, data_dir, run_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        image = data / "images" / "00000.pgm"
        write_pgm(image, np.ones((32, 32), dtype=np.uint8), maxval=1)
        assert cli.main(["eval", "--ckpt", str(run_dir / "checkpoints" / "final.segm"),
                         "--data", str(data)]) == 2
        assert f"{image}: image maxval 1, expected 255" in capsys.readouterr().err

    def test_ablate_variant_flag_is_gone(self, data_dir, tmp_path, capsys):
        # ablate trains every variant of --family; a --variant it would ignore is refused
        assert cli.main(["ablate", "--variant", "unet-base", "--family", "unet",
                         "--data", str(data_dir), "--out", str(tmp_path / "abl"),
                         "--epochs", "1"]) == 2
        assert "--variant" in capsys.readouterr().err
        assert not (tmp_path / "abl").exists()

    def test_kfold_command_is_gone(self, data_dir, tmp_path, capsys):
        # kfold: one variant's rows of the ablate grid; gradcheck: tests/_gradcheck.py
        for command in ("kfold", "gradcheck"):
            assert cli.main([command, "--data", str(data_dir), "--out", str(tmp_path / "kf"),
                             "--epochs", "1"]) == 2
            assert f"invalid choice: '{command}'" in capsys.readouterr().err
            assert not (tmp_path / "kf").exists()

    @pytest.mark.parametrize("command", ["gen-data", "eval", "predict", "ablate",
                                         "ablate-unet"])
    def test_out_naming_a_file_is_2(self, data_dir, run_dir, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        ckpt = ["--ckpt", str(run_dir / "checkpoints" / "final.segm"), "--data", str(data_dir)]
        argv = {"gen-data": ["--n", "1", "--size", "16"], "eval": ckpt,
                "predict": ckpt}.get(command, ["--data", str(data_dir)])
        head = self._GRID.get(command, [command])
        assert cli.main([*head, *argv, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    # header fields are u32 at byte 8 + 4 * index (layout above models._MAGIC)
    _FIELD = {"family": 8, "ave": 12, "cbam": 16, "depth": 20, "base_width": 24,
              "in_channels": 28, "width_cap": 32, "spatial_width": 40, "cnn_blocks": 44}

    @pytest.mark.parametrize("damage", [
        "cut_after_header", "family_7", "ave_7", "cbam_4294967295", "depth_4294967295",
        "in_channels_0", "width_cap_0", "spatial_width_0", "base_width_4096", "cnn_blocks_1000000"])
    def test_malformed_checkpoint_is_2(self, data_dir, run_dir, tmp_path, damage):
        raw = (run_dir / "checkpoints" / "final.segm").read_bytes()
        if damage == "cut_after_header":
            raw = raw[:58]   # 56-byte header, then 2 bytes of the u64 parameter count
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

    def test_cnn_checkpoint_of_other_depth_is_2(self, data_dir, tmp_path, capsys):
        path = tmp_path / "cnn.segm"
        drawseg.save_checkpoint(drawseg.build_model(
            drawseg.ModelVariant("cnn", True, False), drawseg.EncoderConfig(base_width=2), 6,
            seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:20] + struct.pack("<I", 2) + raw[24:])   # the depth word
        assert cli.main(["eval", "--ckpt", str(path), "--data", str(data_dir)]) == 2
        assert "cnn checkpoint holds depth 2" in capsys.readouterr().err

    def test_version_1_checkpoint_is_2(self, data_dir, run_dir, tmp_path, capsys):
        # version 1 held a depth x u32 conv list, 2 per level, between the
        # 56-byte header and the u64 parameter count
        raw = (run_dir / "checkpoints" / "final.segm").read_bytes()
        (depth,) = struct.unpack_from("<I", raw, 20)
        path = tmp_path / "v1.segm"
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:56]
                         + struct.pack(f"<{depth}I", *[2] * depth) + raw[56:])
        assert cli.main(["eval", "--ckpt", str(path), "--data", str(data_dir)]) == 2
        assert "unsupported checkpoint version 1" in capsys.readouterr().err


class TestGradcheckCommand:
    # the primitive cases of tests/_gradcheck.py
    def test_primitive_report_independent_of_hash_seed(self):
        # the builders' seeds must not depend on per-process string hashing
        src = str(Path(drawseg.__file__).resolve().parents[1])
        paths = [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
        reports = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(paths))
            proc = subprocess.run(
                [sys.executable, "-c", "import _gradcheck as G\n"
                 "for name in sorted(G.PRIMITIVE_BUILDERS | G.SAMPLED_BUILDERS):\n"
                 "    print(name, G.check_primitive(name).summary())"],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            reports.append(proc.stdout)
        assert reports[0] == reports[1]
