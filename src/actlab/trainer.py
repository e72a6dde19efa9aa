"""AdamW training loop for the deliberately bare regime.

The recipe is fixed in this module, not in the config: AdamW at the
constant learning rate ``LR`` from step one, betas ``BETA1``/``BETA2``,
``EPS``, and decoupled weight decay ``WEIGHT_DECAY`` on every parameter,
the zc_swish triples included, with no gradient rescue of any kind.
Training runs in float32, and layer statistics come from a fixed probe
batch of ``PROBE_BATCH`` training images, run in chunks of the batch
size. Divergence is data here: a step whose loss or gradient norm is
non-finite is flagged in the run record and logged, and the run keeps
going; only infrastructure errors abort.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from actlab.config import ExperimentConfig
from actlab.data import Dataset, batches, eval_batches
from actlab.plainnet import PlainNet, build, count_params
from actlab.probes import grad_norm, layer_stats
from actlab.tensor import Tape, Tensor, softmax_cross_entropy

__all__ = [
    "LR",
    "WEIGHT_DECAY",
    "BETA1",
    "BETA2",
    "EPS",
    "PROBE_BATCH",
    "AdamW",
    "EpochRecord",
    "StepRecord",
    "RunRecord",
    "evaluate",
    "train",
    "aggregate_runs",
    "format_aggregate_row",
]

log = logging.getLogger(__name__)

# fixed sub-stream ids so every consumer of randomness has its own lane
RNG_INIT, RNG_DROPOUT, RNG_PROBE = 0, 1, 2

# the AdamW recipe every run uses
LR = 1e-3
WEIGHT_DECAY = 5e-4
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8

PROBE_BATCH = 256  # training images in the fixed layer-stats probe batch


class AdamW:
    """Adam with decoupled weight decay, at the module's fixed recipe.

    Moments update from the gradient as usual; the decay step
    ``p -= LR * WEIGHT_DECAY * p`` is applied separately and never flows
    through the moments. Parameters whose ``grad`` is None (never touched
    by the backward pass) are skipped entirely, decay included. It is only
    the update rule: whether a step diverged is decided by ``train``.
    """

    def __init__(self, params: list[Tensor]):
        self.params = list(params)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update. Non-finite gradients are applied as they are."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            dt = p.data.dtype.type
            m *= dt(BETA1)
            m += dt(1.0 - BETA1) * g
            v *= dt(BETA2)
            v += dt(1.0 - BETA2) * (g * g)
            m_hat = m / dt(bc1)
            v_hat = v / dt(bc2)
            p.data -= dt(LR) * m_hat / (np.sqrt(v_hat) + dt(EPS))
            p.data -= dt(LR) * dt(WEIGHT_DECAY) * p.data


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float


@dataclass
class StepRecord:
    step: int
    loss: float
    grad_norm: float
    nonfinite: bool


@dataclass
class RunRecord:
    seed: int
    epochs: list[EpochRecord] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)
    layer_stats_rows: list[tuple] = field(default_factory=list)  # (epoch, layer, mean, std, dead_frac, grad_norm)
    param_total: int = 0
    param_activation: int = 0

    @property
    def best_test(self) -> EpochRecord:
        return max(self.epochs, key=lambda e: (e.test_acc, -e.epoch))

    @property
    def best_train(self) -> EpochRecord:
        return max(self.epochs, key=lambda e: (e.train_acc, -e.epoch))

    @property
    def nonfinite_steps(self) -> int:
        return sum(1 for s in self.steps if s.nonfinite)

    def tables(self) -> dict[str, tuple[list[str], list[tuple]]]:
        """The run's CSV tables as (header, rows), keyed by file name."""
        metrics = []
        for e in self.epochs:
            metrics += [(e.epoch, "train", e.train_loss, e.train_acc), (e.epoch, "test", e.test_loss, e.test_acc)]
        return {
            "metrics.csv": (["epoch", "split", "loss", "accuracy"], metrics),
            "steps.csv": (
                ["step", "loss", "grad_norm", "nonfinite_flag"],
                [(s.step, s.loss, s.grad_norm, int(s.nonfinite)) for s in self.steps],
            ),
            "layerstats.csv": (["epoch", "layer", "mean", "std", "dead_frac", "grad_norm"], self.layer_stats_rows),
        }

    def summary_dict(self) -> dict:
        best_te, best_tr = self.best_test, self.best_train
        return {
            "seed": self.seed,
            "param_total": self.param_total,
            "param_activation": self.param_activation,
            "best_test_epoch": best_te.epoch,
            "best_test_acc": best_te.test_acc,
            "best_train_epoch": best_tr.epoch,
            "best_train_acc": best_tr.train_acc,
            "final_train_loss": self.epochs[-1].train_loss,
            "initial_train_loss": self.epochs[0].train_loss,
            "nonfinite_steps": self.nonfinite_steps,
        }


def evaluate(model: PlainNet, ds: Dataset, batch_size: int = 256) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over a split, dropout disabled.

    Accuracy counts argmax(logits) == label; numpy's argmax already
    breaks ties toward the lowest class index.
    """
    total_loss = 0.0
    correct = 0
    dtype = model.dtype
    for images, labels in eval_batches(ds, batch_size):
        x = Tensor(images.astype(dtype, copy=False))
        logits = model.forward(x, training=False)
        loss = softmax_cross_entropy(logits, labels)
        total_loss += float(loss.data) * len(labels)
        correct += int((np.argmax(logits.data, axis=1) == labels).sum())
    n = len(ds)
    return total_loss / n, correct / n


def train(config: ExperimentConfig, train_ds: Dataset, test_ds: Dataset, seed: int | None = None) -> RunRecord:
    """One full run for one seed: epoch 0 is the untouched model, then
    ``config.epochs`` passes of AdamW with per-epoch evaluation and
    layer statistics on a fixed probe batch."""
    seed = config.seeds[0] if seed is None else seed
    model = build(config, np.random.default_rng([seed, RNG_INIT]), dtype=np.float32)
    report = count_params(model)
    dropout_rng = np.random.default_rng([seed, RNG_DROPOUT])
    probe_rng = np.random.default_rng([seed, RNG_PROBE])
    probe_n = min(PROBE_BATCH, len(train_ds))
    probe_idx = probe_rng.choice(len(train_ds), size=probe_n, replace=False)
    probe_images = train_ds.images[probe_idx].astype(np.float32, copy=False)
    probe_labels = train_ds.fine_labels[probe_idx]
    # A step that keeps its conv patch matrices holds about twice a
    # default step's live memory, so it keeps them only while its batch is
    # under half the probe's. The probe, run in chunks of the batch, still
    # sets the run's memory peak at small batches such as desk's 32, but a
    # keeping step passes it from a batch of about 53 to 82 up (README,
    # "Memory").
    keep_patches = 2 * config.batch_size < probe_n

    opt = AdamW(model.parameters())
    record = RunRecord(
        seed=seed,
        param_total=report.total,
        param_activation=report.activation_params,
    )

    def snapshot(epoch: int):
        tr_loss, tr_acc = evaluate(model, train_ds, batch_size=config.batch_size)
        te_loss, te_acc = evaluate(model, test_ds, batch_size=config.batch_size)
        record.epochs.append(EpochRecord(epoch, tr_loss, tr_acc, te_loss, te_acc))
        record.layer_stats_rows.extend(
            (epoch, st.site, st.mean, st.std, st.dead_frac, st.grad_norm)
            for st in layer_stats(model, probe_images, probe_labels, chunk=config.batch_size)
        )

    snapshot(0)
    step = 0
    warned = False
    for epoch in range(1, config.epochs + 1):
        for images, labels in batches(train_ds, config.batch_size, seed, epoch):
            step += 1
            x = Tensor(images.astype(np.float32, copy=False))
            model.zero_grad()
            with Tape(keep_patches=keep_patches) as tape:
                logits = model.forward(x, training=True, rng=dropout_rng)
                loss = softmax_cross_entropy(logits, labels)
                tape.backward(loss)
            # float32 gradients square to at most about 1.2e77 in float64,
            # so the norm is finite exactly when every gradient element is
            norm = grad_norm(model.parameters())
            opt.step()
            loss_val = float(loss.data)
            flagged = not (np.isfinite(norm) and np.isfinite(loss_val))
            record.steps.append(StepRecord(step, loss_val, norm, flagged))
            if flagged and not warned:
                log.warning("non-finite loss or gradient at step %d (run continues, divergence is data)", step)
                warned = True
        snapshot(epoch)
    return record


def aggregate_runs(records: list[RunRecord]) -> dict:
    """Mean and sample standard deviation of best-epoch accuracies."""

    def mean_std(values: list[float]) -> tuple[float, float]:
        arr = np.asarray(values, dtype=np.float64)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return float(arr.mean()), std

    train_mean, train_std = mean_std([r.best_train.train_acc for r in records])
    test_mean, test_std = mean_std([r.best_test.test_acc for r in records])
    return {
        "seeds": [r.seed for r in records],
        "best_train_acc_mean": train_mean,
        "best_train_acc_std": train_std,
        "best_test_acc_mean": test_mean,
        "best_test_acc_std": test_std,
        "param_total": records[0].param_total,
        "param_activation": records[0].param_activation,
    }


AGGREGATE_HEADER = f"{'activation':<12}{'total params':>14}{'act params':>12}{'best train acc %':>22}{'best test acc %':>22}"


def format_aggregate_row(activation: str, agg: dict) -> str:
    train_col = f"{agg['best_train_acc_mean'] * 100:.2f} ± {agg['best_train_acc_std'] * 100:.2f}"
    test_col = f"{agg['best_test_acc_mean'] * 100:.2f} ± {agg['best_test_acc_std'] * 100:.2f}"
    return f"{activation:<12}{agg['param_total']:>14,}{agg['param_activation']:>12,}{train_col:>22}{test_col:>22}"
