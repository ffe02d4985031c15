"""Tests of the benchmark itself: output contract, span arithmetic, patch hygiene.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SELF_TIME_TOL = 0.05   # top-level self times must cover the traced wall time to within this


def _run(*args):
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_prints_every_metric_with_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], float)
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if trace:
        frac = result["metrics"]["trace.self_time_frac"]["value"]
        assert 1.0 - SELF_TIME_TOL <= frac <= 1.0 + 1e-9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "spans.py", "workloads.py"):
        (bench / f).write_text((ROOT / "perfbench" / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "train-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def test_self_times_on_synthetic_tree():
    tree = [Span("root", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0),
            Span("b", 5.0, 9.0, parent=0), Span("c", 6.0, 7.0, parent=2),
            Span("other", 11.0, 12.0)]
    own = spans.self_times(tree)
    assert own == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])
    top = sum(s.end - s.start for s in tree if s.parent < 0)
    assert sum(own) == pytest.approx(top)


def test_epoch_metrics_on_synthetic_epoch():
    def s(name, start, end, parent, **kw):
        return Span(name, start, end, parent=parent, round=0, **kw)
    tree = [
        s("training.train", 0.0, 1.0, -1),
        s("training.epoch", 0.0, 0.9, 0, info={"frozen": True}),
        s("optim.step", 0.15, 0.2, 1, info={"stepped": 64, "holding": 80, "unused": 16}),
        s("optim.step", 0.35, 0.4, 1, info={"stepped": 64, "holding": 80, "unused": 16}),
        s("training.evaluate", 0.5, 0.7, 1),
        s("models.forward", 0.55, 0.6, 4, info={"images": 4, "grad": False}),
        s("models.forward", 0.75, 0.8, 1, info={"images": 4, "grad": False}),
    ]
    m = spans.layer_metrics(tree, traced_rounds=[SimpleNamespace(cpu=0.75, wall=1.0)],
                            untraced_rounds=[SimpleNamespace(cpu=0.6, wall=0.8)])
    assert m["training.step_ms_p50"] == pytest.approx(200.0)
    assert m["training.epoch_ms_frozen"] == pytest.approx(900.0)
    assert m["training.epoch_ms_unfrozen"] == 0.0
    assert m["training.validation_ms"] == pytest.approx(500.0)
    assert m["training.val_forwards_per_image"] == pytest.approx(2.0)
    assert m["optim.unused_grad_frac"] == pytest.approx(0.2)
    assert m["optim.params_stepped"] == pytest.approx(64.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert m["trace.self_time_frac"] == pytest.approx(1.0)


def test_block_of_param_names():
    assert spans.block_of_param("enc.l2.conv1.w") == "enc"
    assert spans.block_of_param("skip.l0.cbam.mlp.w1") == "skip"
    assert spans.block_of_param("dec.l1.conv0.b") == "dec"
    assert spans.block_of_param("head.conv1.w") == "head"
    assert spans.block_of_param("cnn.b3.conv0.w") == "enc"
    assert spans.block_of_param("cnn.ave_fuse.w") == "skip"
    assert spans.block_of_param("cnn.cbam.spatial.conv0.w") == "skip"


def test_traced_run_restores_every_patched_attribute(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    patched = tracer.patched
    assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    tracer.restore()
    assert tracer.missing == []
    assert len(patched) >= 40

    out = workloads.run(workloads.TINY["train-desk"], 2, 0.0, tracer, tmp_path)
    assert out.correct and tracer.spans
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"
