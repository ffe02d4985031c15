"""Command-line entry point.

Subcommands: gen-data, train, eval, predict, ablate.
Every command echoes its resolved configuration as JSON before acting.
Exit codes: 0 success, 2 usage or path error (including a --jobs worker
that died and an array too large for memory), 3 numerical failure.
gen-data, train and ablate take --seed >= 0 (default 0); eval and predict
are deterministic and take no seed. The learning rate decays from --lr to
--lr / 100; focal uses losses.FOCAL_ALPHA and FOCAL_GAMMA, with no flag.
confusion.csv, from eval --out and in every run directory, holds pixel
counts.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from . import metrics as MT
from .data import NUM_CLASSES, DrawingDataset, generate_dataset
from .losses import LOSS_KINDS, LossSpec
from .models import ALL_VARIANTS, FAMILIES, EncoderConfig, ModelVariant, load_checkpoint
from .netpbm import write_pgm, write_ppm
from .tensor import NumericalError, Tensor, no_grad
from .training import TrainConfig, evaluate, run_ablation, train

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


def _seed(text: str) -> int:
    """A --seed value: decimal digits, since numpy seeds only from integers >= 0."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _add_seed(p):
    p.add_argument("--seed", type=_seed, default=0, help="run seed")


def _add_train_options(p):
    cfg = TrainConfig()   # the defaults
    p.add_argument("--loss", choices=LOSS_KINDS, default=cfg.loss.kind)
    p.add_argument("--epochs", type=int, default=cfg.epochs)
    # --unfreeze-epoch and --validate-from default to None, not to TrainConfig()'s values:
    # TrainConfig derives them from --epochs
    p.add_argument("--unfreeze-epoch", type=int, default=None,
                   help="epoch index where the encoder unfreezes, in [0, epochs] "
                        "(default: epochs // 2)")
    p.add_argument("--validate-from", type=int, default=None,
                   help="first epoch with validation, >= 0 (default: the unfreeze epoch)")
    p.add_argument("--batch-size", type=int, default=cfg.batch_size)
    p.add_argument("--lr", type=float, default=cfg.lr0, help="initial learning rate")
    p.add_argument("--depth", type=int, default=cfg.encoder.depth)
    p.add_argument("--base-width", type=int, default=cfg.encoder.base_width)
    p.add_argument("--augment", action="store_true", help="on-the-fly train augmentation")
    _add_seed(p)


def _train_config(args) -> TrainConfig:
    """The options as a TrainConfig; ablate has no --variant and keeps the default one."""
    variant = {"variant": ModelVariant.parse(args.variant)} if "variant" in args else {}
    return TrainConfig(
        **variant,
        encoder=EncoderConfig(depth=args.depth, base_width=args.base_width),
        epochs=args.epochs,
        unfreeze_epoch=args.unfreeze_epoch,
        validate_from=args.validate_from,
        batch_size=args.batch_size,
        loss=LossSpec(kind=args.loss),
        lr0=args.lr,
        seed=args.seed,
        augment=args.augment,
    )


def _open_dataset(path) -> DrawingDataset:
    try:
        return DrawingDataset(path)
    except FileNotFoundError as e:
        raise FileNotFoundError(f"dataset not usable: {e}") from e


def _load_model(args):
    if not Path(args.ckpt).exists():
        raise FileNotFoundError(f"checkpoint {args.ckpt} not found")
    model = load_checkpoint(args.ckpt)
    if model.num_classes != NUM_CLASSES:
        raise ValueError(f"checkpoint {args.ckpt} predicts {model.num_classes} classes; "
                         f"masks hold {NUM_CLASSES}")
    return model


def _read_ids(args, dataset) -> list[str]:
    """--ids from the working directory, else the dataset root; default: the manifest."""
    if args.ids is None:
        return list(dataset.ids)
    path = Path(args.ids)
    if not path.exists() and (dataset.root / args.ids).exists():
        path = dataset.root / args.ids
    return dataset.read_ids(path)


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
    model = _load_model(args)
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
    model = _load_model(args)
    dataset = _open_dataset(args.data)
    ids = _read_ids(args, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for sid in ids:
        sample = dataset.load(sid)
        with no_grad():
            logits = model.forward(Tensor(sample.image.astype(model.dtype)[None, None]))
        pred = logits.data.argmax(axis=1)[0].astype(np.uint8)
        write_pgm(out / f"{sid}_pred.pgm", pred, maxval=model.num_classes - 1)
        write_ppm(out / f"{sid}_overlay.ppm", _overlay(sample.image, pred))
    print(f"wrote {len(ids)} predictions to {out}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _train_config(args)
    settings = {k: v for k, v in json.loads(cfg.to_json()).items() if k != "variant"}
    _echo("ablate", settings | {
        "family": args.family, "data": args.data, "out": args.out, "jobs": args.jobs})
    dataset = _open_dataset(args.data)
    run_ablation(cfg, dataset, args.family, args.out, jobs=args.jobs)
    print((Path(args.out) / "ablation.txt").read_text())
    return 0


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
    p.add_argument("--variant", choices=VARIANT_NAMES, default=TrainConfig().variant.cli_name)
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

    p = sub.add_parser("ablate", help="train the four variants of one family on every split "
                                      "file (gen-data --folds sets K)")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_train_options(p)
    p.set_defaults(fn=cmd_ablate)

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
    except BrokenExecutor as e:
        # a worker killed halfway through its traceback leaves a partial line on stderr
        print(f"\nerror: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # numpy's message names the size and shape, e.g. of a --base-width too wide
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
