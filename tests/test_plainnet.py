"""Architecture construction, exact parameter counts, batch independence."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from actlab.activations import ActivationKind
from actlab.config import ExperimentConfig
from actlab.plainnet import (
    DEPTH_LAYOUTS,
    build,
    count_params,
)
from actlab import activations, tensor
from actlab.tensor import ShapeError, Tape, Tensor, softmax_cross_entropy

CANONICAL_TOTAL_BASELINE = 15_028_644
CANONICAL_TOTAL_ZCSWISH = 15_041_316
CANONICAL_ACTIVATION_PARAMS = 12_672

# sha256 over every parameter's bytes, in named_parameters order, of the
# depth-8 width/8 float32 net built from generator seed 0: a change of
# init formula or draw order changes it
PARAMETER_SHA256 = {
    "relu": "1ad1fd0b9c6fd08a0c5a4fe2fd7d0674e2e7f58fa5470c30b6a2ce4851f5922b",
    "zcswish": "71edf96e45d229d6ff7f29b30780bff319da78264736372629eac188912de6dc",
}


def closed_form_count(progression, width_divisor, num_classes, zc):
    """Independent spreadsheet-style parameter count."""
    chans = [c // width_divisor for c in progression]
    total = 0
    in_c = 3
    for c in chans:
        total += in_c * c * 9 + c
        in_c = c
    hw = 512 // width_divisor
    total += hw * hw + hw + hw * num_classes + num_classes
    act = 3 * sum(chans) if zc else 0
    return total + act, act


class TestParamCounts:
    def test_depth16_baseline_total(self):
        model = build(ExperimentConfig(depth=16, activation="relu"), np.random.default_rng(0))
        report = count_params(model)
        assert report.total == CANONICAL_TOTAL_BASELINE
        assert report.activation_params == 0

    def test_depth16_zcswish_total_and_overhead(self):
        model = build(ExperimentConfig(depth=16, activation="zcswish"), np.random.default_rng(0))
        report = count_params(model)
        assert report.total == CANONICAL_TOTAL_ZCSWISH
        assert report.activation_params == CANONICAL_ACTIVATION_PARAMS
        assert report.activation_params == 3 * sum(DEPTH_LAYOUTS[16][0])
        assert f"{report.overhead_ratio * 100:.3f}" == "0.084"

    def test_zcswish_total_is_baseline_plus_activation(self):
        for depth in (8, 16, 32):
            base = count_params(build(ExperimentConfig(depth=depth), np.random.default_rng(0)))
            zc = count_params(
                build(ExperimentConfig(depth=depth, activation="zcswish"), np.random.default_rng(0))
            )
            assert zc.total == base.total + zc.activation_params

    def test_single_conv_layer_count(self):
        model = build(ExperimentConfig(depth=16), np.random.default_rng(0))
        per_layer = dict(count_params(model).per_layer)
        assert per_layer["conv1"] == 3 * 64 * 9 + 64 == 1_792

    @pytest.mark.parametrize("depth", [8, 16, 32])
    @pytest.mark.parametrize("width_divisor", [1, 2, 8])
    @pytest.mark.parametrize("zc", [False, True])
    def test_every_config_matches_closed_form_oracle(self, depth, width_divisor, zc):
        kind = ActivationKind.ZCSWISH if zc else ActivationKind.GELU
        cfg = ExperimentConfig(depth=depth, width_divisor=width_divisor, activation=kind.value)
        report = count_params(build(cfg, np.random.default_rng(1)))
        total, act = closed_form_count(DEPTH_LAYOUTS[depth][0], width_divisor, 100, zc)
        assert (report.total, report.activation_params) == (total, act)

    def test_format_table_mentions_totals(self):
        model = build(ExperimentConfig(depth=8, width_divisor=8), np.random.default_rng(0))
        table = count_params(model).format_table()
        assert "total" in table and "overhead" in table


class TestBuild:
    def test_indivisible_width_rejected(self):
        with pytest.raises(ValueError, match="width_divisor 7"):
            build(ExperimentConfig(depth=8, width_divisor=7), np.random.default_rng(0))

    def test_build_checks_width_of_a_changed_config(self):
        cfg = ExperimentConfig(depth=8, width_divisor=8)
        cfg.width_divisor = 7
        with pytest.raises(ValueError, match="width_divisor 7"):
            build(cfg, np.random.default_rng(0))

    @pytest.mark.parametrize("activation", sorted(PARAMETER_SHA256))
    def test_parameter_bytes_pinned_at_seed_0(self, activation):
        cfg = ExperimentConfig(depth=8, width_divisor=8, activation=activation)
        digest = hashlib.sha256()
        for _, t in build(cfg, np.random.default_rng(0), dtype=np.float32).named_parameters():
            digest.update(t.data.tobytes())
        assert digest.hexdigest() == PARAMETER_SHA256[activation]

    def test_unknown_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            ExperimentConfig(depth=12)

    def test_init_respects_fan_in_bounds(self):
        model = build(ExperimentConfig(depth=8, width_divisor=4), np.random.default_rng(3))
        for layer in model.weight_layers():
            fan_in = layer.weight.shape[1] * 9 if layer.kind == "conv" else layer.weight.shape[1]
            bound = 1.0 / np.sqrt(fan_in)
            assert np.abs(layer.weight.data).max() <= bound
            assert np.abs(layer.bias.data).max() <= bound

    def test_same_seed_same_weights(self):
        cfg = ExperimentConfig(depth=8, width_divisor=8, activation="zcswish")
        a = build(cfg, np.random.default_rng(42))
        b = build(cfg, np.random.default_rng(42))
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_zcswish_triples_start_at_documented_defaults(self):
        model = build(ExperimentConfig(depth=8, width_divisor=8, activation="zcswish"), np.random.default_rng(0))
        site = model.activation_sites()[0]
        np.testing.assert_allclose(site.params.c.data, 0.01)
        np.testing.assert_allclose(site.params.beta_raw.data, 0.5413)
        np.testing.assert_allclose(site.params.g.data, 1.0)

    def test_head_activation_stays_relu_for_zcswish(self):
        model = build(ExperimentConfig(depth=8, width_divisor=8, activation="zcswish"), np.random.default_rng(0))
        head_sites = [s for s in model.activation_sites() if s.name == "act_fc1"]
        assert head_sites[0].activation is ActivationKind.RELU
        assert head_sites[0].params is None


class TestForward:
    def make_model(self, activation=ActivationKind.RELU, dtype=np.float32, seed=0):
        cfg = ExperimentConfig(depth=8, width_divisor=8, activation=activation.value)
        return build(cfg, np.random.default_rng(seed), dtype=dtype)

    def test_zero_weights_give_chance_loss(self):
        model = self.make_model()
        for p in model.parameters():
            p.data[:] = 0.0
        x = Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32))
        logits = model.forward(x, training=False)
        assert np.all(logits.data == logits.data[0, 0])
        loss = softmax_cross_entropy(logits, np.zeros(2, dtype=np.int64))
        np.testing.assert_allclose(loss.data, np.log(100.0), rtol=1e-6)

    def test_wrong_input_shape_rejected(self):
        model = self.make_model()
        with pytest.raises(ShapeError, match="input must be"):
            model.forward(Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32)))

    def test_batch_independence_bitwise_float64(self):
        model = self.make_model(ActivationKind.ZCSWISH, dtype=np.float64, seed=7)
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((6, 3, 32, 32))
        full = model.forward(Tensor(batch, dtype=np.float64)).data
        for i in (0, 3, 5):
            single = model.forward(Tensor(batch[i : i + 1], dtype=np.float64)).data
            np.testing.assert_array_equal(single[0], full[i])

    def test_batch_independence_float32_tolerance(self):
        model = self.make_model(ActivationKind.SWISH, seed=9)
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        full = model.forward(Tensor(batch)).data
        single = model.forward(Tensor(batch[2:3])).data
        np.testing.assert_allclose(single[0], full[2], rtol=2e-4, atol=1e-5)

    def test_forward_deterministic_across_runs(self):
        rng = np.random.default_rng(42)
        batch = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        out1 = self.make_model(ActivationKind.GELU, seed=1).forward(Tensor(batch)).data
        out2 = self.make_model(ActivationKind.GELU, seed=1).forward(Tensor(batch)).data
        np.testing.assert_array_equal(out1, out2)

    def test_probe_does_not_alter_logits(self):
        model = self.make_model(ActivationKind.ZCSWISH, seed=2)
        rng = np.random.default_rng(0)
        batch = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        plain = model.forward(batch).data
        probe: list = []
        probed = model.forward(batch, probe=probe).data
        np.testing.assert_array_equal(plain, probed)
        names = [name for name, _, _ in probe]
        assert names[-1] == "logits"
        assert names[:-1] == [s.name for s in model.activation_sites()]
        # each weight layer feeds exactly one probed site, in model order
        assert [weight for _, _, weight in probe] == [layer.weight for layer in model.weight_layers()]

    @pytest.mark.parametrize("activation", list(ActivationKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_probe_holds_forward_outputs_that_later_ops_leave_intact(self, activation, training):
        # the probe keeps the forward outputs themselves, so no later op,
        # forward or backward, may write into them
        at_probe_time = []

        class Probe(list):
            def append(self, item):
                at_probe_time.append(item[1].copy())
                super().append(item)

        model = self.make_model(activation, seed=3)
        rng = np.random.default_rng(5)
        batch = Tensor(rng.standard_normal((4, 3, 32, 32)).astype(np.float32))
        probe = Probe()
        with Tape() as tape:
            logits = model.forward(batch, training=training, rng=np.random.default_rng(1), probe=probe)
            assert probe[-1][1] is logits.data
            tape.backward(softmax_cross_entropy(logits, np.arange(4)))
        assert len(probe) == len(at_probe_time) == len(model.activation_sites()) + 1
        for (site, act, _), want in zip(probe, at_probe_time):
            assert act.tobytes() == want.tobytes(), site

    def test_training_mode_requires_rng_for_dropout(self):
        model = self.make_model()
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        with pytest.raises(ValueError, match="rng"):
            model.forward(x, training=True)


@pytest.mark.parametrize("activation", [ActivationKind.RELU, ActivationKind.ZCSWISH], ids=lambda k: k.value)
def test_desk_step_gradients_keep_the_bits_of_plain_sums(activation, monkeypatch):
    # One float32 training step at the bench's shapes (depth 8, width/8,
    # batch 32): every parameter gradient has the bits it gets when each
    # per-channel sum is numpy's own .sum.
    rng = np.random.default_rng(17)
    images = rng.standard_normal((32, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 100, size=32)

    def step():
        model = build(ExperimentConfig(depth=8, width_divisor=8, activation=activation.value), np.random.default_rng(4))
        with Tape() as tape:
            logits = model.forward(Tensor(images), training=True, rng=np.random.default_rng(5))
            tape.backward(softmax_cross_entropy(logits, labels))
        return {name: p.grad.copy() for name, p in model.named_parameters()}

    channels_last = []  # 4-d sums whose channel axis is innermost: einsum's case
    channel_sum = tensor.channel_sum

    def spy(a):
        channels_last.append(a.ndim == 4 and a.strides[1] == a.itemsize)
        return channel_sum(a)

    monkeypatch.setattr(tensor, "channel_sum", spy)
    monkeypatch.setattr(activations, "channel_sum", spy)
    got = step()
    assert len(channels_last) == (8 if activation is ActivationKind.RELU else 8 + 6 * 4)
    assert sum(channels_last) == len(channels_last) - 2  # all but fc1's and fc2's bias

    def plain_sum(a):
        return a.sum(axis=0 if a.ndim == 2 else (0, 2, 3))

    monkeypatch.setattr(tensor, "channel_sum", plain_sum)
    monkeypatch.setattr(activations, "channel_sum", plain_sum)
    want = step()
    assert got.keys() == want.keys()
    for name, g in got.items():
        assert g.tobytes() == want[name].tobytes(), name


class TestAuditAndCheckpoint:
    def test_audit_certifies_plain_structure(self):
        model = build(ExperimentConfig(depth=16, activation="zcswish"), np.random.default_rng(0))
        kinds = Counter(layer.kind for layer in model.layers)
        # six plain kinds only: no normalization layer, and a flat list
        # has no skip junction
        assert set(kinds) <= {"conv", "linear", "activation", "maxpool", "flatten", "dropout"}
        assert kinds["conv"] == 13
        assert kinds["maxpool"] == 5
        assert kinds["linear"] == 2
        assert kinds["activation"] == len(model.activation_sites()) == 14  # 13 conv sites + head relu
