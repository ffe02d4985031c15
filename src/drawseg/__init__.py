"""Attention U-Net segmentation engine for engineering line drawings."""

import os

# One BLAS thread per process unless the environment names a count: a second one
# gains nothing at these sizes and oversubscribes --jobs workers. BLAS reads these
# when numpy loads, so this runs before any import of numpy. A script that imports
# numpy before drawseg keeps numpy's thread default: two desk training cells run
# side by side that way took 4-5x as long as with one thread each.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cbam import CbamBlock, ParamStore, build_cbam, cbam_forward
from .data import DrawingDataset, Sample, augment, generate_dataset, kfold_split
from .losses import LossSpec, segmentation_loss
from .metrics import MetricsReport, compute_report, confusion
from .models import (ALL_VARIANTS, EncoderConfig, ModelVariant, SegModel,
                     build_model, load_checkpoint, save_checkpoint)
from .optim import Adam, cosine_lr
from .skipfuse import SkipBlockParams, build_skip_block, skip_forward
from .tensor import Tensor, grad_check
from .training import RunLog, TrainConfig, evaluate, run_ablation, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "ALL_VARIANTS", "CbamBlock", "DrawingDataset",
    "EncoderConfig", "LossSpec", "MetricsReport", "ModelVariant",
    "ParamStore", "RunLog", "Sample", "SegModel", "SkipBlockParams", "Tensor", "TrainConfig",
    "augment", "build_cbam", "build_model", "build_skip_block", "cbam_forward",
    "compute_report", "confusion", "cosine_lr", "evaluate", "generate_dataset",
    "grad_check", "kfold_split", "load_checkpoint", "run_ablation",
    "save_checkpoint", "segmentation_loss", "skip_forward", "train",
]
