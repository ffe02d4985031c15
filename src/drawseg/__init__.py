"""Attention U-Net segmentation engine for engineering line drawings."""

from .cbam import CbamBlock, ParamStore, build_cbam, cbam_forward
from .data import AugmentSpec, DrawingDataset, Sample, augment, generate_dataset, kfold_split
from .losses import LossSpec, segmentation_loss
from .metrics import MetricsReport, compute_report, confusion
from .models import (ALL_VARIANTS, EncoderConfig, ModelVariant, SegModel,
                     build_model, load_checkpoint, save_checkpoint)
from .optim import Adam, cosine_lr
from .skipfuse import SkipBlockParams, build_skip_block, skip_forward
from .tensor import Tensor, grad_check
from .training import RunLog, TrainConfig, evaluate, run_ablation, run_kfold, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "ALL_VARIANTS", "AugmentSpec", "CbamBlock", "DrawingDataset",
    "EncoderConfig", "LossSpec", "MetricsReport", "ModelVariant",
    "ParamStore", "RunLog", "Sample", "SegModel", "SkipBlockParams", "Tensor", "TrainConfig",
    "augment", "build_cbam", "build_model", "build_skip_block", "cbam_forward",
    "compute_report", "confusion", "cosine_lr", "evaluate", "generate_dataset",
    "grad_check", "kfold_split", "load_checkpoint", "run_ablation", "run_kfold",
    "save_checkpoint", "segmentation_loss", "skip_forward", "train",
]
