"""Diagnostics for the activation mean-shift failure mode.

Two measurements:

* :func:`layer_stats`: a forward and backward pass over a fixed probe
  batch, run in chunks of the training batch size, that gives, per
  activation site and for the logits, the post-activation mean/std, the
  fraction of near-zero ("dead") activations, and the norm of the
  gradient of the probe's mean loss for the weight layer feeding it,
  accumulated over the chunks. The forward pass's probe names that
  layer: each entry is a (site, array, feeding weight) triple.
  :func:`grad_norm` is the one float64 reduction behind those norms and
  the trainer's per-step gradient norm.
* :func:`drift_experiment`: pushes a sample through a freshly initialized
  stack of width-preserving linear layers and one activation per depth
  position, recording how the activation mean moves with depth. With
  ``center="oracle"`` each zero-centered-swish site gets its anchor from
  :func:`find_centering_anchor` on that site's own pre-activations, which
  demonstrates the centering mechanism at full strength. The report's
  Spearman coefficient of |mean| against depth is computed in numpy,
  equal bit for bit to ``scipy.stats.spearmanr``'s, so importing actlab
  loads no scipy.

The drift stack deliberately uses variance-calibrated uniform init (no
bias, bound scaled so that activation output variance stays near 1 under
a standard normal input, via Gauss-Hermite quadrature) so per-site
statistics stay O(1) over many layers and the comparison between
activations is well conditioned; the fragile default-init regime lives
in the model builder, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from actlab.activations import (
    ActivationKind,
    activation_eval,
    find_centering_anchor,
    normal_quadrature,
    zc_swish_eval,
)
from actlab.plainnet import PlainNet
from actlab.tensor import Tape, Tensor, scale, softmax_cross_entropy

__all__ = [
    "DEAD_THRESHOLD",
    "LayerStats",
    "layer_stats",
    "grad_norm",
    "DriftSite",
    "DriftReport",
    "drift_experiment",
]

DEAD_THRESHOLD = 1e-6


@dataclass
class LayerStats:
    site: str
    mean: float
    std: float
    dead_frac: float
    grad_norm: float


def grad_norm(tensors) -> float:
    """L2 norm of the gradients of ``tensors``: squares summed in float64,
    one Python float per tensor in the given order. Tensors without a
    gradient are skipped."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float(np.sum(t.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def layer_stats(
    model: PlainNet, images: np.ndarray, labels: np.ndarray, chunk: int | None = None
) -> list[LayerStats]:
    """One record per activation site plus the logits head.

    The probe batch runs in consecutive chunks of ``chunk`` images (all
    of them at once when None), each with its own eval-mode forward and
    backward, so only one chunk's activations and tape are alive at a
    time. Each chunk's mean loss is scaled by its share of the batch, so
    the weight gradients, accumulated over the chunks from zero, are the
    gradient of the probe's mean loss, and each record carries the norm
    of that gradient for the weight layer feeding it; it depends on the
    chunk size in its last bits, because it sums per-chunk GEMMs. The
    sites' outputs are copied into one C-ordered array per site, and the
    mean, std and dead fraction are taken over those whole arrays. So in
    float64, whose kernels are batch-independent, they do not depend on
    the chunk size; in float32 they do only where a GEMM's bits depend
    on its row count (OpenBLAS's small-matrix sgemm, below about 10^6
    multiply-adds, sums in another order).
    """
    n = len(images)
    chunk = n if chunk is None else chunk
    store: list = []
    model.zero_grad()
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        x = Tensor(images[start:stop].astype(model.dtype, copy=False))
        probe: list = []
        with Tape() as tape:
            logits = model.forward(x, training=False, probe=probe)
            loss = softmax_cross_entropy(logits, labels[start:stop])
            tape.backward(scale(loss, (stop - start) / n))
        if not store:
            # C order fixes the summation order of the mean and std
            # whatever the op's output layout (conv outputs are
            # channels-last)
            store = [(site, np.empty((n, *act.shape[1:]), act.dtype), weight) for site, act, weight in probe]
        for (_, full, _), (_, act, _) in zip(store, probe):
            full[start:stop] = act
        del x, probe, logits, loss  # before the next chunk, and the last chunk's before the statistics

    out = []
    while store:
        # the last (smallest) site first, each site's array dropped once
        # its statistics are taken, so np.std's float64 temporary of the
        # first (largest) site is not alive beside the other sites' arrays
        site, act, weight = store.pop()
        out.append(
            LayerStats(
                site=site,
                mean=float(np.mean(act, dtype=np.float64)),
                std=float(np.std(act, dtype=np.float64)),
                dead_frac=float(np.mean(np.abs(act) < DEAD_THRESHOLD)),
                grad_norm=grad_norm([weight]),
            )
        )
    return out[::-1]


@dataclass
class DriftSite:
    index: int
    mean: float
    std: float


@dataclass
class DriftReport:
    activation: str
    seed: int
    center: str
    sites: list[DriftSite] = field(default_factory=list)
    anchors: list[float] = field(default_factory=list)
    anchors_converged: int = 0
    abs_mean_nondecreasing: bool = False
    spearman_abs_mean_vs_depth: float = float("nan")

    @property
    def final_abs_mean(self) -> float:
        return abs(self.sites[-1].mean)


def _output_std_under_standard_normal(kind: ActivationKind) -> float:
    """Std of f(z), z ~ N(0,1), by 101-node Gauss-Hermite quadrature."""
    z, w = normal_quadrature()
    f = activation_eval(kind, z)
    m1 = float(np.sum(w * f))
    m2 = float(np.sum(w * f * f))
    return float(np.sqrt(m2 - m1 * m1))


def drift_experiment(
    activation: ActivationKind | str,
    depth: int,
    width: int = 256,
    seed: int = 0,
    samples: int = 4096,
    center: str = "default",
    anchor_tol: float = 1e-9,
) -> DriftReport:
    """Activation mean and std at every depth position of a fresh stack.

    The input is ``samples`` rows of ``width`` standard normal values,
    drawn from the seeded generator before the stack's weights.
    ``center="oracle"`` applies only to zcswish and re-anchors every site
    on its own pre-activation sample, at beta = g = 1; ``center="default"``
    uses the initial parameter triple everywhere.
    """
    kind = ActivationKind.parse(activation) if isinstance(activation, str) else activation
    for name, value in (("depth", depth), ("width", width), ("samples", samples)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if center not in ("default", "oracle"):
        raise ValueError(f"center must be 'default' or 'oracle', got {center!r}")
    if center == "oracle" and kind is not ActivationKind.ZCSWISH:
        raise ValueError("oracle centering only applies to zcswish")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, width))

    # scale the init bound so one (linear, activation) pair roughly
    # preserves variance; without this, 16 sites of swish-family gain
    # (~0.6x each) drown every statistic in floating-point noise
    bound = np.sqrt(3.0 / width) / _output_std_under_standard_normal(kind)
    report = DriftReport(activation=kind.value, seed=seed, center=center)
    # every site writes its pre-activations, and an oracle-centered site
    # its output, into the same two arrays rather than fresh pages
    pre, act = np.empty_like(x), np.empty_like(x)
    for pos in range(1, depth + 1):
        w = rng.uniform(-bound, bound, size=(width, width))
        np.matmul(x, w.T, out=pre)
        if center == "oracle":
            res = find_centering_anchor(pre.ravel(), beta=1.0, tol=anchor_tol)
            report.anchors.append(res.c)
            report.anchors_converged += res.converged
            x = zc_swish_eval(pre, c=res.c, beta=1.0, g=1.0, out=act)
        else:
            x = activation_eval(kind, pre)
        report.sites.append(
            DriftSite(index=pos, mean=float(np.mean(x, dtype=np.float64)), std=float(np.std(x, dtype=np.float64)))
        )

    abs_means = np.array([abs(s.mean) for s in report.sites])
    report.abs_mean_nondecreasing = bool(np.all(np.diff(abs_means) >= 0.0)) if depth > 1 else True
    if depth > 1 and np.ptp(abs_means) > 0:
        report.spearman_abs_mean_vs_depth = _spearman(abs_means, np.arange(1, depth + 1))
    return report


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based float64 ranks of ``a``; tied values share their mean rank."""
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rank correlation of two non-constant vectors: Pearson's
    coefficient of their average ranks, through ``np.corrcoef`` on the
    column-stacked ranks, the steps ``scipy.stats.spearmanr`` takes, so
    the two agree bit for bit."""
    ranks = np.column_stack((_average_ranks(a), _average_ranks(b)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])
