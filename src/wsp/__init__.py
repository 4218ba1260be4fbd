"""Contrastive pretraining with a composite kernel over weak labels and slice
depth, plus the full pretrain / linear-probe / evaluation pipeline at desk
scale."""

from .autodiff import Tensor, backward, finite_diff_gradient
from .data import GeneratorConfig, generate_synthetic_dataset, load_dataset, save_dataset
from .encoders import EncoderCheckpoint, EncoderConfig, init_encoder, load_checkpoint, save_checkpoint
from .evaluation import ProbeConfig, run_probe_protocol
from .losses import BatchMeta, LossConfig, compute_loss
from .sampling import AugmentConfig, BatchSpec
from .training import OptimConfig, cosine_lr, pretrain

__all__ = [
    "Tensor",
    "backward",
    "finite_diff_gradient",
    "GeneratorConfig",
    "generate_synthetic_dataset",
    "load_dataset",
    "save_dataset",
    "EncoderCheckpoint",
    "EncoderConfig",
    "init_encoder",
    "load_checkpoint",
    "save_checkpoint",
    "ProbeConfig",
    "run_probe_protocol",
    "BatchMeta",
    "LossConfig",
    "compute_loss",
    "AugmentConfig",
    "BatchSpec",
    "OptimConfig",
    "cosine_lr",
    "pretrain",
]
