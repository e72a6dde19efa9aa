"""Normalization-free, residual-free VGG-style stacks ("PlainNet").

A PlainNet is a pure sequence of 3x3 same-padding convolutions, per-conv
activations, five 2x2 max pools, then a two-layer fully connected head
(Linear -> ReLU -> Dropout at rate ``DROPOUT_P`` -> Linear). There is
no normalization layer and no skip junction anywhere, by construction:
:func:`build` emits a flat list of six layer kinds, each applied to the
previous one's output.

Depth 16 is the canonical configuration: conv channels
[64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512] with
pools after convs 2, 4, 7, 10 and 13. At width 1 and 100 classes it
counts 15,028,644 parameters, plus 12,672 activation parameters (3 per
conv channel) when zc_swish is selected. Depths 8 and 32 follow the same
five-stage convention but are this lab's own reconstructions; treat them
as "a shallower/deeper PlainNet", not as a pinned reference.

When zc_swish is selected, its parameter triples attach to conv
activation sites only; the head activation stays a plain ReLU.

:func:`build` takes the run's :class:`~actlab.config.ExperimentConfig`
and reads its ``depth``, ``width_divisor``, ``activation`` and
``num_classes``; :func:`conv_channels` is the one check of depth and
width divisor, for the config and for ``build`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from actlab.activations import ActivationKind, ZCSwishParams, apply_activation
from actlab.tensor import DEFAULT_DTYPE, ShapeError, Tensor, dropout, linear, maxpool2, reshape
from actlab import tensor as T

if TYPE_CHECKING:
    from actlab.config import ExperimentConfig

__all__ = [
    "INPUT_CHANNELS",
    "INPUT_SIZE",
    "DEPTH_LAYOUTS",
    "DROPOUT_P",
    "PlainNet",
    "ParamCountReport",
    "build",
    "conv_channels",
    "count_params",
]

INPUT_CHANNELS = 3
INPUT_SIZE = 32

# depth -> (conv output channels, 1-based conv indices followed by a pool).
# Five pools take 32x32 down to 1x1, so the flatten width equals the last
# conv's channel count.
DEPTH_LAYOUTS: dict[int, tuple[tuple[int, ...], frozenset[int]]] = {
    8: ((64, 128, 256, 256, 512, 512), frozenset({1, 2, 4, 5, 6})),
    16: (
        (64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512),
        frozenset({2, 4, 7, 10, 13}),
    ),
    32: (
        (64,) * 4 + (128,) * 4 + (256,) * 6 + (512,) * 8 + (512,) * 8,
        frozenset({4, 8, 14, 22, 30}),
    ),
}

HEAD_WIDTH = 512
DROPOUT_P = 0.5  # the head's dropout rate in training


def conv_channels(depth: int, width_divisor: int) -> list[int]:
    """The conv output channels of ``DEPTH_LAYOUTS[depth]``, each divided
    by ``width_divisor`` (1 = full scale), which must divide every conv
    channel count and the head width. The one check of both values."""
    if depth not in DEPTH_LAYOUTS:
        raise ValueError(f"depth must be one of {sorted(DEPTH_LAYOUTS)}, got {depth}")
    if width_divisor < 1:
        raise ValueError(f"width_divisor must be a positive integer, got {width_divisor}")
    progression = DEPTH_LAYOUTS[depth][0]
    for ch in (*progression, HEAD_WIDTH):
        if ch % width_divisor != 0:
            raise ValueError(f"width_divisor {width_divisor} does not divide channel count {ch}")
    return [ch // width_divisor for ch in progression]


@dataclass
class WeightLayer:
    name: str
    kind: str  # "conv" or "linear"
    weight: Tensor
    bias: Tensor


@dataclass
class ActivationSite:
    name: str
    activation: ActivationKind
    params: ZCSwishParams | None = None
    kind: str = field(default="activation", init=False)


@dataclass
class Layer:
    name: str
    kind: str  # "maxpool", "flatten" or "dropout"


class PlainNet:
    """A built model: an ordered flat list of layers."""

    def __init__(self, layers: list, dtype):
        self.layers = layers
        self.dtype = np.dtype(dtype)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for layer in self.layers:
            if layer.kind in ("conv", "linear"):
                out.append((f"{layer.name}.weight", layer.weight))
                out.append((f"{layer.name}.bias", layer.bias))
            elif layer.kind == "activation" and layer.params is not None:
                out.append((f"{layer.name}.c", layer.params.c))
                out.append((f"{layer.name}.beta_raw", layer.params.beta_raw))
                out.append((f"{layer.name}.g", layer.params.g))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def forward(
        self,
        x: Tensor,
        training: bool = False,
        rng: np.random.Generator | None = None,
        probe: list | None = None,
    ) -> Tensor:
        """Run the stack. ``probe``, when given, collects one (site_name,
        post-activation array, feeding weight) triple per activation site
        and ("logits", logits array, fc2's weight) last, without altering
        the computation. The feeding weight is the weight Tensor of the
        last conv or linear layer before the site. The arrays are the
        forward outputs themselves, in the op's memory layout
        (channels-last after a conv), not copies: no op and no backward
        writes into a forward output. ``rng`` is only consumed by dropout
        in training mode."""
        if x.ndim != 4 or x.shape[1] != INPUT_CHANNELS or x.shape[2:] != (INPUT_SIZE, INPUT_SIZE):
            raise ShapeError(
                f"input must be [N,{INPUT_CHANNELS},{INPUT_SIZE},{INPUT_SIZE}], got shape {x.shape}"
            )
        h, weight = x, None
        for layer in self.layers:
            if layer.kind == "conv":
                h, weight = T.conv2d(h, layer.weight, layer.bias), layer.weight
            elif layer.kind == "linear":
                h, weight = linear(h, layer.weight, layer.bias), layer.weight
            elif layer.kind == "activation":
                h = apply_activation(h, layer.activation, layer.params)
                if probe is not None:
                    probe.append((layer.name, h.data, weight))
            elif layer.kind == "maxpool":
                h = maxpool2(h)
            elif layer.kind == "flatten":
                h = reshape(h, (h.shape[0], -1))
            elif layer.kind == "dropout":
                h = dropout(h, DROPOUT_P, training=training, rng=rng)
            else:  # pragma: no cover - construction never produces this
                raise ValueError(f"unknown layer kind {layer.kind!r}")
        if probe is not None:
            probe.append(("logits", h.data, weight))
        return h

    def activation_sites(self) -> list[ActivationSite]:
        return [l for l in self.layers if l.kind == "activation"]

    def weight_layers(self) -> list:
        return [l for l in self.layers if l.kind in ("conv", "linear")]


def _weight_layer(rng: np.random.Generator, name: str, kind: str, shape: tuple[int, ...], fan_in: int, dtype) -> WeightLayer:
    # default framework-style init: weight, then bias, each
    # U(-1/sqrt(fan_in), +1/sqrt(fan_in)), drawn in float64 then cast, so
    # the stream is dtype-independent
    bound = 1.0 / np.sqrt(fan_in)
    weight, bias = (rng.uniform(-bound, bound, size=size).astype(dtype) for size in (shape, shape[:1]))
    return WeightLayer(name, kind, Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True))


def build(config: ExperimentConfig, rng: np.random.Generator, dtype=DEFAULT_DTYPE) -> PlainNet:
    """Construct and initialize the PlainNet of a run's config, from its
    ``depth``, ``width_divisor``, ``activation`` and ``num_classes``.

    Weights and biases are uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)]
    (fan_in = C_in*9 for conv, F_in for linear); zc_swish triples start
    at their documented defaults. Deterministic for a given generator
    state: draw order is layer by layer, weight then bias.
    """
    channels = conv_channels(config.depth, config.width_divisor)
    pool_after = DEPTH_LAYOUTS[config.depth][1]
    activation = ActivationKind.parse(config.activation)
    dtype = np.dtype(dtype)
    layers: list = []
    in_c = INPUT_CHANNELS
    for i, out_c in enumerate(channels, start=1):
        layers.append(_weight_layer(rng, f"conv{i}", "conv", (out_c, in_c, 3, 3), in_c * 9, dtype))
        params = ZCSwishParams.initial(out_c, dtype=dtype) if activation is ActivationKind.ZCSWISH else None
        layers.append(ActivationSite(f"act{i}", activation, params))
        if i in pool_after:
            layers.append(Layer(f"pool{i}", "maxpool"))
        in_c = out_c
    hw = HEAD_WIDTH // config.width_divisor
    layers += [
        Layer("flatten", "flatten"),
        _weight_layer(rng, "fc1", "linear", (hw, hw), hw, dtype),
        ActivationSite("act_fc1", ActivationKind.RELU),
        Layer("drop_fc1", "dropout"),
        _weight_layer(rng, "fc2", "linear", (config.num_classes, hw), hw, dtype),
    ]
    return PlainNet(layers, dtype)


@dataclass
class ParamCountReport:
    total: int
    activation_params: int
    per_layer: list[tuple[str, int]]

    @property
    def overhead_ratio(self) -> float:
        return self.activation_params / self.total if self.total else 0.0

    def format_table(self) -> str:
        lines = [f"{'layer':<16}{'params':>12}"]
        for name, n in self.per_layer:
            lines.append(f"{name:<16}{n:>12,}")
        lines.append(f"{'total':<16}{self.total:>12,}")
        lines.append(f"{'activation':<16}{self.activation_params:>12,}")
        lines.append(f"{'overhead':<16}{self.overhead_ratio * 100:>11.3f}%")
        return "\n".join(lines)


def count_params(model: PlainNet) -> ParamCountReport:
    """Exact integer parameter counts, grouped by layer."""
    per_layer: dict[str, int] = {}
    activation = 0
    for name, t in model.named_parameters():
        layer_name = name.rsplit(".", 1)[0]
        per_layer[layer_name] = per_layer.get(layer_name, 0) + t.size
        if layer_name.startswith("act"):
            activation += t.size
    total = sum(per_layer.values())
    return ParamCountReport(total=total, activation_params=activation, per_layer=list(per_layer.items()))

