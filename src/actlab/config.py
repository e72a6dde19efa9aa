"""Run configuration: one flat dataclass that fully determines a run.

A run directory always receives the effective merged config as
``config.json``; re-running from that file alone reproduces the run byte
for byte (deterministic kernels plus seeded generators everywhere).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from actlab.activations import ActivationKind
from actlab.plainnet import PlainNetConfig

__all__ = ["SCHEMA_VERSION", "ExperimentConfig", "PRESETS"]

SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    # model
    depth: int = 16
    width_divisor: int = 1
    activation: str = "relu"
    num_classes: int = 100
    dropout_p: float = 0.5
    # data
    data_dir: str | None = None
    train_per_class: int | None = None  # None = full split
    test_per_class: int | None = None
    # optimizer
    lr: float = 1e-3
    weight_decay: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decay_activation_params: bool = True
    # run
    epochs: int = 30
    batch_size: int = 128
    seeds: list[int] = field(default_factory=lambda: [42])
    probe_batch: int = 256
    precision: str = "float32"
    out_dir: str | None = None

    def __post_init__(self):
        ActivationKind.parse(self.activation)  # fail fast on typos
        if self.precision not in ("float32", "float64"):
            raise ValueError(f"precision must be float32 or float64, got {self.precision!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        try:
            self.seeds = [int(s) for s in self.seeds]
        except (TypeError, ValueError):
            raise ValueError(f"seeds must be a list of integers, got {self.seeds!r}") from None
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must list at least one seed and none twice, got {self.seeds}")

    def model_config(self) -> PlainNetConfig:
        return PlainNetConfig(
            depth=self.depth,
            width_divisor=self.width_divisor,
            activation=ActivationKind.parse(self.activation),
            num_classes=self.num_classes,
            dropout_p=self.dropout_p,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config field(s): {sorted(unknown)}")
        got_version = d.get("schema_version", SCHEMA_VERSION)
        if got_version != SCHEMA_VERSION:
            raise ValueError(f"config schema_version {got_version} unsupported, expected {SCHEMA_VERSION}")
        return cls(**d)


def _desk() -> dict:
    """Small enough for a CPU: narrow depth-8 net on a balanced subset."""
    return dict(
        depth=8,
        width_divisor=8,
        train_per_class=20,
        test_per_class=20,
        epochs=5,
        batch_size=32,
        seeds=[42],
    )


def _paper() -> dict:
    """The full-scale reference recipe (impractical on CPU; provided so the
    depth-16 experiment can be attempted with adequate compute)."""
    return dict(
        depth=16,
        width_divisor=1,
        train_per_class=None,
        test_per_class=None,
        epochs=30,
        batch_size=128,
        seeds=[42, 0, 12345],
    )


PRESETS = {"desk": _desk, "paper": _paper}
