"""Activation stress-test lab for normalization-free plain conv nets.

A minimal numpy autodiff engine, four activation functions (relu, gelu,
swish, and the learnable per-channel zero-centered swish), BN-free
VGG-style PlainNet models, a CIFAR-100 training harness for a
deliberately bare regime, and diagnostics for layer-wise activation
mean drift. The ``actlab`` command line is the human interface.
"""

from actlab.activations import (
    ActivationKind,
    ZCSwishParams,
    apply_activation,
    find_centering_anchor,
)
from actlab.config import ExperimentConfig
from actlab.data import Dataset, load_cifar100, subset, write_synthetic_cifar100
from actlab.plainnet import PlainNet, PlainNetConfig, build, count_params
from actlab.probes import drift_experiment, layer_stats
from actlab.tensor import ShapeError, Tape, Tensor, gradcheck
from actlab.trainer import AdamW, RunRecord, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "ActivationKind",
    "AdamW",
    "Dataset",
    "ExperimentConfig",
    "PlainNet",
    "PlainNetConfig",
    "RunRecord",
    "ShapeError",
    "Tape",
    "Tensor",
    "ZCSwishParams",
    "apply_activation",
    "build",
    "count_params",
    "drift_experiment",
    "evaluate",
    "find_centering_anchor",
    "gradcheck",
    "layer_stats",
    "load_cifar100",
    "subset",
    "train",
    "write_synthetic_cifar100",
    "__version__",
]
