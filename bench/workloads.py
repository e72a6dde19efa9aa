"""The benchmark's workloads: inputs from a seed, one repeat, its check.

A repeat is one call into actlab's public API:

* ``desk-relu`` and ``desk-zcswish``: ``trainer.train`` on the desk
  preset (depth 8, width/8, batch 32, float32, 20 images per class for
  train and for test) for one epoch, so every repeat trains with a tape
  and evaluates without one.
* ``drift-oracle``: ``probes.drift_experiment`` on a depth-16, width-256
  zcswish stack with oracle centering. How much work an anchor solve
  does depends on its sample (a site whose bracket ends differ in sign
  skips the 65-point grid scan), so repeats cycle through four drift
  seeds derived from the run's seed, and a run's median does not hinge
  on one input.

Repeat ``i`` runs input ``input_key(i)``. Each workload reports what its
end-to-end metrics need from one repeat and lists what is wrong with a
repeat's result, given the first result on the same input (an empty
list means the repeat is correct).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from tracer import StepClock, clock


@dataclass
class DeskSize:
    per_class: int = 20  # train and test images per class after subsetting
    generated_train_per_class: int = 40  # as the desk suite generates them
    epochs: int = 1


@dataclass
class DriftSize:
    depth: int = 16
    width: int = 256
    samples: int = 512


ANCHOR_TOL = 1e-9  # drift_experiment's default
TINY_DESK = DeskSize(per_class=2, generated_train_per_class=3, epochs=1)
TINY_DRIFT = DriftSize(depth=4, width=32, samples=64)


class Desk:
    """One epoch of desk-preset training with per-epoch evaluation."""

    def __init__(self, act, activation: str, seed: int, workdir: Path, size: DeskSize = DeskSize()):
        self.act = act
        self.activation = activation
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.train_ds = self.test_ds = None
        preset = act.config.PRESETS["desk"]()
        preset.update(
            activation=activation,
            epochs=size.epochs,
            seeds=[seed],
            train_per_class=size.per_class,
            test_per_class=size.per_class,
        )
        self.config = act.config.ExperimentConfig(**preset)

    def synthetic_args(self) -> dict:
        """Arguments of ``data.write_synthetic_cifar100`` for this run."""
        return {
            "data_dir": str(self.workdir),
            "train_per_class": self.size.generated_train_per_class,
            "test_per_class": self.size.per_class,
            "num_classes": self.config.num_classes,
            "seed": self.seed,
        }

    def load(self) -> dict[str, float]:
        """Load and subset the generated splits. Returns seconds per step."""
        data = self.act.data
        t0 = clock()
        train_ds = data.load_cifar100(self.workdir, "train")
        test_ds = data.load_cifar100(self.workdir, "test")
        t1 = clock()
        self.train_ds = data.subset(train_ds, self.size.per_class, seed=self.seed)
        self.test_ds = data.subset(test_ds, self.size.per_class, seed=self.seed)
        return {"load_cifar100": t1 - t0, "subset": clock() - t1}

    @staticmethod
    def input_key(index: int) -> int:
        return 0

    def run(self, index: int):
        return self.act.trainer.train(self.config, self.train_ds, self.test_ds, seed=self.seed)

    def rates(self, wall_s: float, steps: StepClock) -> dict[str, float]:
        train_s = wall_s - steps.evaluate_s - steps.layer_stats_s
        return {
            "train_items_per_s": len(self.train_ds) * self.config.epochs / train_s,
            "eval_items_per_s": steps.eval_images / steps.evaluate_s,
        }

    @staticmethod
    def fingerprint(record) -> tuple:
        return (record.steps, record.epochs)

    def problems(self, record, reference, steps: StepClock) -> list[str]:
        out = []
        if reference is not None and self.fingerprint(record) != self.fingerprint(reference):
            out.append("step or epoch records differ from the first repeat's")
        losses = [s.loss for s in record.steps] + [v for e in record.epochs for v in (e.train_loss, e.test_loss)]
        if not all(math.isfinite(v) for v in losses):
            out.append("non-finite loss")
        elif not record.epochs[-1].train_loss < record.epochs[0].train_loss:
            out.append(
                f"final train loss {record.epochs[-1].train_loss!r} is not below "
                f"the initial {record.epochs[0].train_loss!r}"
            )
        return out

    @staticmethod
    def details(record) -> dict:
        return {
            "final_train_loss": record.epochs[-1].train_loss,
            "initial_train_loss": record.epochs[0].train_loss,
            "steps": len(record.steps),
        }


class Drift:
    """Mean drift through a fresh zcswish stack, every site re-anchored."""

    INPUTS = 4  # drift seeds per run

    def __init__(self, act, seed: int, size: DriftSize = DriftSize()):
        self.act = act
        self.seed = seed
        self.size = size

    @staticmethod
    def synthetic_args() -> None:
        return None

    @staticmethod
    def load() -> dict[str, float]:
        return {}

    def input_key(self, index: int) -> int:
        return self.INPUTS * self.seed + index % self.INPUTS

    def run(self, index: int):
        s = self.size
        return self.act.probes.drift_experiment(
            "zcswish", depth=s.depth, width=s.width, samples=s.samples, center="oracle",
            seed=self.input_key(index), anchor_tol=ANCHOR_TOL,
        )

    def rates(self, wall_s: float, steps: StepClock) -> dict[str, float]:
        return {
            "train_items_per_s": self.size.depth / wall_s,
            "eval_items_per_s": self.size.samples / wall_s,
        }

    @staticmethod
    def fingerprint(report) -> tuple:
        return (tuple(site.mean for site in report.sites), tuple(report.anchors))

    def problems(self, report, reference, steps: StepClock) -> list[str]:
        """An anchor solve may find no sign change of the mean on its
        bracket (the sample's mean is then too small against its spread
        for any anchor to cancel it); it must say so, and a converged
        solve must meet the tolerance."""
        out = []
        if len(steps.anchors) != self.size.depth:
            out.append(f"expected {self.size.depth} anchor solves, saw {len(steps.anchors)}")
        for site, res in enumerate(steps.anchors, 1):
            if res.converged and not abs(res.mean_at_c) < ANCHOR_TOL:
                out.append(f"site {site} reports converged with |mean| {abs(res.mean_at_c)!r}")
            if not res.converged and not res.note:
                out.append(f"site {site} did not converge and gives no reason")
        if reference is not None and self.fingerprint(report) != self.fingerprint(reference):
            out.append("per-site means or anchors differ from the first repeat's on this input")
        return out

    @staticmethod
    def details(report) -> dict:
        return {"final_abs_mean": report.final_abs_mean, "sites": len(report.sites), "drift_seed": report.seed}


WORKLOADS = ("desk-relu", "desk-zcswish", "drift-oracle")


def make(name: str, act, seed: int, workdir: Path, tiny: bool = False):
    if name == "desk-relu":
        return Desk(act, "relu", seed, workdir, TINY_DESK if tiny else DeskSize())
    if name == "desk-zcswish":
        return Desk(act, "zcswish", seed, workdir, TINY_DESK if tiny else DeskSize())
    if name == "drift-oracle":
        return Drift(act, seed, TINY_DRIFT if tiny else DriftSize())
    raise ValueError(f"unknown workload {name!r}, expected one of: {', '.join(WORKLOADS)}")
