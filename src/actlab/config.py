"""Run configuration: one flat dataclass that fully determines a run.

A run directory always receives the effective merged config as
``config.json``; re-running from that file alone reproduces the run byte
for byte (deterministic kernels plus seeded generators everywhere).

The config holds what varies between runs: the model's size and
activation, the data, the epochs, batch size and seeds. The training
recipe itself is fixed in code: the AdamW constants, the probe batch
size and float32 training live in :mod:`actlab.trainer` and the dropout
rate in :mod:`actlab.plainnet`. Schema version 2 dropped the recipe's
fields and version 3 dropped ``precision`` and ``probe_batch``; a file
of an older version is refused, not migrated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from actlab.activations import ActivationKind
from actlab.plainnet import conv_channels

__all__ = ["SCHEMA_VERSION", "ExperimentConfig", "PRESETS"]

SCHEMA_VERSION = 3


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# annotation text (annotations are postponed here, so ``Field.type`` is a
# string) -> (accepts the value, what the error message says is expected)
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "list[int]": (lambda v: isinstance(v, list) and all(_is_int(s) for s in v), "a list of integers"),
}


@dataclass
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    # model
    depth: int = 16
    width_divisor: int = 1
    activation: str = "relu"
    num_classes: int = 100
    # data
    data_dir: str | None = None
    train_per_class: int | None = None  # None = full split
    test_per_class: int | None = None
    # run
    epochs: int = 30
    batch_size: int = 128
    seeds: list[int] = field(default_factory=lambda: [42])
    out_dir: str | None = None

    def __post_init__(self):
        for f in fields(self):
            accepts, expected = _TYPE_CHECKS[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                raise ValueError(f"{f.name} must be {expected}, got {value!r}")
        self.activation = ActivationKind.parse(self.activation).value  # the canonical name
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("num_classes", "batch_size", "train_per_class", "test_per_class"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must list at least one seed and none twice, got {self.seeds}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {self.seeds}")
        conv_channels(self.depth, self.width_divisor)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        got_version = d.get("schema_version", SCHEMA_VERSION)
        if got_version != SCHEMA_VERSION:
            raise ValueError(f"config schema_version {got_version!r} unsupported, expected {SCHEMA_VERSION}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config field(s): {sorted(unknown)}")
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
