"""drawseg benchmark: one workload per process, metrics as JSON on the last line.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root (or any directory); the package is imported
from ``src/`` next to ``perfbench/``. ``--seed`` derives every input: the
synthetic drawings, the training seed and the model initialisation.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a separate traced run and writes its spans to
``.bench_out/``. ``--tiny`` shrinks every workload for smoke tests.
Exit code 0 with a result line, 2 when the sources or BENCHMARK.json are
missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
# one BLAS thread: timings and float results must not depend on the host's core count
BLAS_THREADS = 1
WORKLOAD_NAMES = ("train-desk", "train-large", "eval-ladder")


def _parse(argv):
    p = argparse.ArgumentParser(description="drawseg benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads() or os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "git_sha": _git_sha()}


def _format(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args, spec: dict) -> int:
    import spans
    import workloads

    workload = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    tracer = spans.Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        out = workloads.run(workload, args.seed, args.seconds, tracer, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment()
    values = out.metrics
    if tracer is not None:
        values = spans.layer_metrics(tracer.spans, out.rounds[True], out.rounds[False])
        dump = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "env": env, "missing": tracer.missing,
                                    "fields": ["name", "start", "end", "parent", "op", "round",
                                               "block", "src", "info"],
                                    "spans": tracer.dump()}))
        out.notes.append(f"spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")
        if tracer.missing:
            out.notes.append("not traced (absent): " + ", ".join(tracer.missing))
    names = [m["name"] for m in listed]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for m in listed:
        print(f"  {m['name']:<36} {_format(values[m['name']]):>12} {m['unit']}")
    for note in out.notes:
        print(f"  note: {note}")
    for gate, (ok, detail) in sorted(out.gates.items()):
        print(f"  gate {gate}: {'ok' if ok else 'FAILED'}  {detail}")
    print(f"  operations attempted {out.attempted} failed {out.failed}  correct {out.correct}")
    print(json.dumps({"correct": out.correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in listed}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line aggregates them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "drawseg" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no drawseg sources (src/drawseg) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    return run_one(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
