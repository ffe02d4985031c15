"""Command-line entry point.

Subcommands: gen-data, train, eval, predict, ablate, kfold, gradcheck.
Every command echoes its resolved configuration as JSON before acting.
Exit codes: 0 success, 1 verification failure, 2 usage or path error
(including a --jobs worker that died), 3 numerical failure. gen-data,
train, ablate and kfold take --seed (default 0); eval and predict are
deterministic and take no seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from . import checks
from . import metrics as MT
from .data import DrawingDataset, generate_dataset
from .losses import LOSS_KINDS, LossSpec
from .models import ALL_VARIANTS, EncoderConfig, ModelVariant, load_checkpoint
from .netpbm import write_pgm, write_ppm
from .optim import NumericalError
from .tensor import Tensor, no_grad
from .training import TrainConfig, _batch_arrays, evaluate, run_ablation, run_kfold, train

# overlay palette, one RGB triple per class id
PALETTE = {
    0: (255, 255, 255),   # Background: white
    1: (0, 0, 0),         # Thi: black
    2: (128, 128, 128),   # Thin: gray
    3: (0, 0, 255),       # Dash: blue
    4: (255, 0, 0),       # Arrow: red
    5: (0, 200, 0),       # Numer: green
}

VARIANT_NAMES = tuple(v.cli_name for v in ALL_VARIANTS)


def _echo(label: str, payload: dict) -> None:
    print(f"[{label}] " + json.dumps(payload, sort_keys=True, default=str))


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, help="run seed")


def _add_train_options(p):
    p.add_argument("--variant", choices=VARIANT_NAMES, default="unet-full")
    p.add_argument("--loss", choices=LOSS_KINDS, default="focal")
    p.add_argument("--gamma", type=float, default=2.0, help="focal gamma")
    p.add_argument("--alpha", type=float, default=0.25, help="focal alpha")
    p.add_argument("--poly-eps", type=float, default=1.0, help="poly loss epsilon")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--unfreeze-epoch", type=int, default=None,
                   help="epoch index where the encoder unfreezes (default epochs//2)")
    p.add_argument("--validate-from", type=int, default=None,
                   help="first epoch with validation (default: unfreeze epoch)")
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--lr", type=float, default=1e-4, help="initial learning rate")
    p.add_argument("--eta-min", type=float, default=None, help="cosine floor (default lr/100)")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--base-width", type=int, default=8)
    p.add_argument("--in-channels", type=int, default=1)
    p.add_argument("--num-classes", type=int, default=6)
    p.add_argument("--augment", action="store_true", help="on-the-fly train augmentation")
    p.add_argument("--noise-sigma", type=float, default=0.02)
    _add_seed(p)


def _train_config(args) -> TrainConfig:
    unfreeze = args.unfreeze_epoch if args.unfreeze_epoch is not None else args.epochs // 2
    return TrainConfig(
        variant=ModelVariant.parse(args.variant),
        encoder=EncoderConfig(depth=args.depth, base_width=args.base_width,
                              in_channels=args.in_channels),
        num_classes=args.num_classes,
        epochs=args.epochs,
        unfreeze_epoch=unfreeze,
        validate_from=args.validate_from,
        batch_size=args.batch_size,
        loss=LossSpec(kind=args.loss, gamma=args.gamma, alpha=args.alpha,
                      poly_eps=args.poly_eps),
        lr0=args.lr,
        eta_min=args.eta_min,
        seed=args.seed,
        augment=args.augment,
        noise_sigma=args.noise_sigma,
    )


def _open_dataset(path) -> DrawingDataset:
    try:
        return DrawingDataset(path)
    except FileNotFoundError as e:
        raise FileNotFoundError(f"dataset not usable: {e}") from e


def _read_ids(args, dataset) -> list[str]:
    if args.ids is None:
        return list(dataset.ids)
    path = Path(args.ids)
    if not path.exists():
        candidate = dataset.root / args.ids
        if candidate.exists():
            path = candidate
        else:
            raise FileNotFoundError(f"ids file {args.ids} not found")
    return path.read_text().split()


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    _echo("gen-data", {"n": args.n, "size": args.size, "seed": args.seed,
                       "out": args.out, "folds": args.folds})
    ids = generate_dataset(args.n, args.size, args.seed, args.out, folds=args.folds)
    print(f"wrote {len(ids)} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(args)
    _echo("train", json.loads(cfg.to_json()) | {"data": args.data, "out": args.out})
    dataset = _open_dataset(args.data)
    if args.no_validation:
        train_ids, val_ids = list(dataset.ids), []
    else:
        train_ids, val_ids = dataset.fold(args.val_fold)
    model, log = train(cfg, dataset, train_ids, val_ids, run_dir=args.out)
    last = log.rows[-1].train_loss if log.rows else float("nan")
    print(f"finished {len(log.rows)} epochs in {log.wall_seconds:.1f}s; "
          f"final train loss {last:.6f}")
    return 0


def cmd_eval(args) -> int:
    _echo("eval", {"ckpt": args.ckpt, "data": args.data, "ids": args.ids, "out": args.out})
    if not Path(args.ckpt).exists():
        raise FileNotFoundError(f"checkpoint {args.ckpt} not found")
    model = load_checkpoint(args.ckpt)
    dataset = _open_dataset(args.data)
    ids = _read_ids(args, dataset)
    report = evaluate(model, ids, dataset, batch_size=args.batch_size)
    print(report.summary())
    print(MT.render_confusion(report.confusion))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        MT.write_report(out, "eval", report)
        print(f"wrote {out / 'metrics.csv'} and {out / 'confusion.csv'}")
    return 0


def _overlay(image: np.ndarray, pred: np.ndarray) -> np.ndarray:
    gray = np.rint(image * 255.0).astype(np.uint8)
    rgb = np.stack([gray, gray, gray], axis=2)
    for class_id, color in PALETTE.items():
        if class_id == 0:
            continue
        rgb[pred == class_id] = color
    return rgb


def cmd_predict(args) -> int:
    _echo("predict", {"ckpt": args.ckpt, "data": args.data, "ids": args.ids, "out": args.out})
    if not Path(args.ckpt).exists():
        raise FileNotFoundError(f"checkpoint {args.ckpt} not found")
    model = load_checkpoint(args.ckpt)
    dataset = _open_dataset(args.data)
    ids = _read_ids(args, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for sid in ids:
        sample = dataset.load(sid)
        image, _ = _batch_arrays([sample], model.enc.in_channels, model.dtype)
        with no_grad():
            logits = model.forward(Tensor(image))
        pred = logits.data.argmax(axis=1)[0].astype(np.uint8)
        write_pgm(out / f"{sid}_pred.pgm", pred, maxval=model.num_classes - 1)
        write_ppm(out / f"{sid}_overlay.ppm", _overlay(sample.image, pred))
    print(f"wrote {len(ids)} predictions to {out}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _train_config(args)
    _echo("ablate", json.loads(cfg.to_json()) | {
        "family": args.family, "data": args.data, "out": args.out, "jobs": args.jobs})
    dataset = _open_dataset(args.data)
    run_ablation(cfg, dataset, args.family, args.out, jobs=args.jobs)
    print((Path(args.out) / "ablation.txt").read_text())
    return 0


def cmd_kfold(args) -> int:
    cfg = _train_config(args)
    _echo("kfold", json.loads(cfg.to_json()) | {
        "data": args.data, "out": args.out, "jobs": args.jobs})
    dataset = _open_dataset(args.data)
    _, aggregate = run_kfold(cfg, dataset, args.out, jobs=args.jobs)
    for name, stats in aggregate.items():
        mean = "-" if stats["mean"] is None else f"{stats['mean']:.4f}"
        std = "-" if stats["std"] is None else f"{stats['std']:.4f}"
        print(f"{name:10s} {mean} +/- {std}")
    return 0


def cmd_gradcheck(args) -> int:
    _echo("gradcheck", {"scope": args.scope})
    report = checks.run_scope(args.scope)
    print(report.summary())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drawseg",
        description="attention U-Net segmentation for engineering line drawings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic drawing dataset")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=int, default=5, help="K: writes splits/fold0..K-1.txt")
    _add_seed(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train one variant")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--val-fold", type=int, default=0, help="hold out the ids in splits/fold<k>.txt")
    p.add_argument("--no-validation", action="store_true")
    _add_train_options(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ids", default=None, help="id list file (default: whole manifest)")
    p.add_argument("--out", default=None)
    p.add_argument("--batch-size", type=int, default=8)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="write predicted masks and overlays")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ids", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("ablate", help="train the four variants of one family on splits/fold0.txt")
    p.add_argument("--family", choices=("unet", "cnn"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_train_options(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("kfold", help="one train run per split file (gen-data --folds sets K)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_train_options(p)
    p.set_defaults(fn=cmd_kfold)

    p = sub.add_parser("gradcheck", help="finite-difference verification suites")
    p.add_argument("--scope", choices=checks.SCOPES, required=True)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (OSError, KeyError, ValueError, BrokenExecutor) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
