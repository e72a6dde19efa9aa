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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from actlab.activations import ActivationKind, ZCSwishParams, apply_activation
from actlab.tensor import DEFAULT_DTYPE, ShapeError, Tensor, dropout, linear, maxpool2, reshape
from actlab import tensor as T

__all__ = [
    "INPUT_CHANNELS",
    "INPUT_SIZE",
    "DEPTH_LAYOUTS",
    "DROPOUT_P",
    "PlainNetConfig",
    "PlainNet",
    "ParamCountReport",
    "build",
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


@dataclass
class PlainNetConfig:
    """Architecture knobs. The conv layout is ``DEPTH_LAYOUTS[depth]``;
    width_divisor shrinks every channel count for desk-scale runs
    (1 = full scale)."""

    depth: int = 16
    width_divisor: int = 1
    activation: ActivationKind = ActivationKind.RELU
    num_classes: int = 100

    def __post_init__(self):
        if isinstance(self.activation, str):
            self.activation = ActivationKind.parse(self.activation)
        if self.depth not in DEPTH_LAYOUTS:
            raise ValueError(f"depth must be one of {sorted(DEPTH_LAYOUTS)}, got {self.depth}")

    def scaled_channels(self) -> list[int]:
        w = self.width_divisor
        if w < 1:
            raise ValueError(f"width_divisor must be a positive integer, got {w}")
        progression = DEPTH_LAYOUTS[self.depth][0]
        for ch in (*progression, HEAD_WIDTH):
            if ch % w != 0:
                raise ValueError(f"width_divisor {w} does not divide channel count {ch}")
        return [ch // w for ch in progression]

    @property
    def head_width(self) -> int:
        return HEAD_WIDTH // self.width_divisor


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


def _uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> Tensor:
    # default framework-style init: U(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    # drawn in float64 then cast, so the stream is dtype-independent
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


def build(config: PlainNetConfig, rng: np.random.Generator, dtype=DEFAULT_DTYPE) -> PlainNet:
    """Construct and initialize a PlainNet.

    Weights and biases are uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)]
    (fan_in = C_in*9 for conv, F_in for linear); zc_swish triples start
    at their documented defaults. Deterministic for a given generator
    state: draw order is layer by layer, weight then bias.
    """
    channels = config.scaled_channels()
    pool_after = DEPTH_LAYOUTS[config.depth][1]
    dtype = np.dtype(dtype)
    layers: list = []
    in_c = INPUT_CHANNELS
    zc = config.activation is ActivationKind.ZCSWISH
    for i, out_c in enumerate(channels, start=1):
        name = f"conv{i}"
        layers.append(
            WeightLayer(
                name,
                "conv",
                weight=_uniform_fan_in(rng, (out_c, in_c, 3, 3), in_c * 9, dtype),
                bias=_uniform_fan_in(rng, (out_c,), in_c * 9, dtype),
            )
        )
        params = ZCSwishParams.initial(out_c, dtype=dtype) if zc else None
        layers.append(ActivationSite(f"act{i}", config.activation, params))
        if i in pool_after:
            layers.append(Layer(f"pool{i}", "maxpool"))
        in_c = out_c
    layers.append(Layer("flatten", "flatten"))
    hw = config.head_width
    layers.append(
        WeightLayer(
            "fc1", "linear", weight=_uniform_fan_in(rng, (hw, hw), hw, dtype), bias=_uniform_fan_in(rng, (hw,), hw, dtype)
        )
    )
    layers.append(ActivationSite("act_fc1", ActivationKind.RELU, None))
    layers.append(Layer("drop_fc1", "dropout"))
    layers.append(
        WeightLayer(
            "fc2",
            "linear",
            weight=_uniform_fan_in(rng, (config.num_classes, hw), hw, dtype),
            bias=_uniform_fan_in(rng, (config.num_classes,), hw, dtype),
        )
    )
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

