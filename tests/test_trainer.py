"""Optimizer math, evaluation semantics, run records, regime audit."""

import inspect
import json

import numpy as np
import pytest

import actlab.trainer as trainer_module
from actlab.cli import _write_csv, _write_json
from actlab.config import PRESETS, ExperimentConfig
from actlab.data import Dataset
from actlab.plainnet import DROPOUT_P, build
from actlab.tensor import Tensor
from actlab.trainer import (
    AdamW,
    RunRecord,
    EpochRecord,
    aggregate_runs,
    evaluate,
    format_aggregate_row,
    train,
)


def make_param(value, dtype=np.float64):
    return Tensor(np.asarray(value, dtype=dtype), requires_grad=True)


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        # a zero parameter with a zero gradient: no moment step, and the
        # decay of zero is zero
        p = make_param([0.0, 0.0])
        opt = AdamW([p])
        p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_array_equal(p.data, [0.0, 0.0])

    def test_single_step_closed_form(self):
        # theta=1, grad=1: m_hat = v_hat = 1, so the moment step gives
        # 1 - LR / (1 + EPS), which decay then shrinks by LR * WEIGHT_DECAY
        p = make_param([1.0])
        opt = AdamW([p])
        p.grad = np.array([1.0])
        opt.step()
        after_moments = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(p.data, after_moments * (1.0 - 1e-3 * 5e-4), rtol=1e-12)
        assert abs(p.data[0] - 0.999 * (1.0 - 5e-7)) < 1e-7

    def test_decoupled_decay_acts_alone_on_zero_grad(self):
        p = make_param([1.0])
        opt = AdamW([p])
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_allclose(p.data, 1.0 - 1e-3 * 5e-4, rtol=1e-15)

    def test_decay_identity_over_many_steps(self):
        # with zero gradients, N steps shrink theta exactly like the
        # scalar recurrence theta <- theta - LR*WEIGHT_DECAY*theta
        p = make_param([1.0, 0.5, -3.0])
        opt = AdamW([p])
        expected = np.array([1.0, 0.5, -3.0])
        for _ in range(50):
            p.grad = np.zeros(3)
            opt.step()
            expected = expected - trainer_module.LR * trainer_module.WEIGHT_DECAY * expected
        np.testing.assert_array_equal(p.data, expected)

    def test_none_grad_skips_param_entirely(self):
        a, b = make_param([1.0]), make_param([1.0])
        opt = AdamW([a, b])
        a.grad = np.array([0.5])
        b.grad = None
        opt.step()
        assert a.data[0] != 1.0
        assert b.data[0] == 1.0  # untouched, no decay either

    def test_nonfinite_gradient_flagged_but_step_applied(self):
        # flagging is train's job (see TestTrain); the update rule applies
        # a NaN gradient as it is
        p = make_param([1.0])
        opt = AdamW([p])
        p.grad = np.array([np.nan])
        opt.step()
        assert np.isnan(p.data[0])  # no silent repair


def pixel_dataset(pixels, labels):
    """A Dataset of uint8 ``pixels``, standardized as if every channel of
    the train split had mean 0.5 and std 0.25 in x/255 units (images in
    [-2, 2])."""
    return Dataset(pixels=pixels, fine_labels=labels, mean=np.full(3, 0.5, np.float32), std=np.full(3, 0.25, np.float32))


def random_pixels(rng, n):
    return rng.integers(0, 256, (n, 3, 32, 32), dtype=np.uint8)


def tiny_dataset(n_per_class=6, classes=4, seed=0, size_from_labels=True):
    rng = np.random.default_rng(seed)
    n = n_per_class * classes
    labels = np.repeat(np.arange(classes), n_per_class).astype(np.int64)
    pixels = random_pixels(rng, n)
    # plant a strong class signature so the net has something to learn
    for k in range(classes):
        pixels[labels == k, k % 3, :8, :8] = 255
    return pixel_dataset(pixels, labels)


def tiny_config(**kw):
    base = dict(
        depth=8,
        width_divisor=8,
        activation="zcswish",
        num_classes=4,
        epochs=1,
        batch_size=8,
        seeds=[42],
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestEvaluate:
    def test_random_model_on_100_classes_sits_at_chance(self):
        rng = np.random.default_rng(0)
        model = build(ExperimentConfig(depth=8, width_divisor=8), np.random.default_rng(1))
        ds = pixel_dataset(random_pixels(rng, 400), rng.integers(0, 100, 400).astype(np.int64))
        loss, acc = evaluate(model, ds)
        assert abs(acc - 0.01) < 0.03
        assert abs(loss - np.log(100.0)) < 0.2

    def test_dominant_logit_model_scores_one(self):
        model = build(ExperimentConfig(depth=8, width_divisor=8, num_classes=4), np.random.default_rng(1))
        ds = tiny_dataset()
        # force constant logits that put all mass on the true... a fixed class
        for p in model.parameters():
            p.data[:] = 0.0
        fc2 = [l for l in model.layers if l.name == "fc2"][0]
        fc2.bias.data[:] = [1e4, 0.0, 0.0, 0.0]
        _, acc = evaluate(model, pixel_dataset(ds.pixels, np.zeros(len(ds), dtype=np.int64)))
        assert acc == 1.0

    def test_hand_built_fixture_accuracy_two_thirds(self):
        model = build(ExperimentConfig(depth=8, width_divisor=8, num_classes=3), np.random.default_rng(1))
        for p in model.parameters():
            p.data[:] = 0.0
        fc2 = [l for l in model.layers if l.name == "fc2"][0]
        fc2.bias.data[:] = [1.0, 0.0, 0.0]  # argmax always class 0
        rng = np.random.default_rng(5)
        ds = pixel_dataset(random_pixels(rng, 3), np.array([0, 0, 2], dtype=np.int64))
        _, acc = evaluate(model, ds)
        assert acc == pytest.approx(2.0 / 3.0)

    def test_argmax_tie_breaks_to_lowest_class(self):
        model = build(ExperimentConfig(depth=8, width_divisor=8, num_classes=3), np.random.default_rng(1))
        for p in model.parameters():
            p.data[:] = 0.0  # all logits identical
        ds = tiny_dataset(classes=3)
        _, acc = evaluate(model, pixel_dataset(ds.pixels[:9], np.zeros(9, dtype=np.int64)))
        assert acc == 1.0


class TestTrain:
    def test_epoch_zero_is_pretraining_snapshot(self):
        ds = tiny_dataset()
        rec = train(tiny_config(epochs=0), ds, ds)
        assert [e.epoch for e in rec.epochs] == [0]
        assert abs(rec.epochs[0].train_loss - np.log(4.0)) < 0.5

    def test_fixed_seed_reproduces_run_record(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=2)
        r1 = train(cfg, ds, ds)
        r2 = train(cfg, ds, ds)
        assert [s.loss for s in r1.steps] == [s.loss for s in r2.steps]
        assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]
        assert r1.layer_stats_rows == r2.layer_stats_rows

    def test_untouched_zcswish_params_survive_steps(self):
        # an activation triple that never receives a gradient is skipped
        # by AdamW entirely, decay included, so it stays bit-identical
        from actlab.activations import ZCSwishParams

        triple = ZCSwishParams.initial(4, dtype=np.float64)
        before = [t.data.copy() for t in triple.tensors()]
        opt = AdamW(triple.tensors())
        for _ in range(3):
            opt.step()  # grads are all None
        for t, orig in zip(triple.tensors(), before):
            np.testing.assert_array_equal(t.data, orig)

    @staticmethod
    def poisoned_run(monkeypatch, value) -> RunRecord:
        """A run whose every step writes ``value`` over the first conv
        weight's gradient, after the real backward and before the norm."""

        class PoisonedTape(trainer_module.Tape):
            def backward(self, loss):
                weight = next(t for _, inputs, _ in self._records for t in inputs if t.requires_grad)
                super().backward(loss)
                weight.grad[...] = value

        monkeypatch.setattr(trainer_module, "Tape", PoisonedTape)
        ds = tiny_dataset()
        return train(tiny_config(epochs=1), ds, ds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN propagates, never repaired
    def test_nan_injection_is_flagged_never_fatal(self, monkeypatch):
        rec = self.poisoned_run(monkeypatch, np.nan)
        assert rec.nonfinite_steps == len(rec.steps)
        assert np.isfinite(rec.steps[0].loss)  # the gradient alone flags step 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # g * g overflows in AdamW's float32 moment
    @pytest.mark.parametrize("value", [np.inf, 3.4028235e38, -3.4028235e38])
    def test_gradient_is_flagged_exactly_when_non_finite(self, monkeypatch, value):
        # the largest float32, squared in float64, is about 1.2e77, so the
        # norm of finite gradients stays finite
        rec = self.poisoned_run(monkeypatch, value)
        assert rec.nonfinite_steps == (0 if np.isfinite(value) else len(rec.steps))
        assert np.isfinite(rec.steps[0].loss)

    def test_csv_serialization_roundtrip(self, tmp_path):
        ds = tiny_dataset()
        rec = train(tiny_config(epochs=1), ds, ds)
        for fname, (header, rows) in rec.tables().items():
            _write_csv(tmp_path / fname, header, rows)
        lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,split,loss,accuracy"
        assert len(lines) == 1 + 2 * len(rec.epochs)
        header = (tmp_path / "layerstats.csv").read_text().split("\n")[0]
        assert header == "epoch,layer,mean,std,dead_frac,grad_norm"
        sheader = (tmp_path / "steps.csv").read_text().split("\n")[0]
        assert sheader == "step,loss,grad_norm,nonfinite_flag"


class TestMultiSeed:
    def test_identical_seeds_give_zero_std(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=1)
        agg = aggregate_runs([train(cfg, ds, ds, seed=7) for _ in range(2)])
        assert agg["best_test_acc_std"] == 0.0

    def test_textbook_mean_and_sample_std(self):
        records = []
        for seed, acc in [(1, 0.10), (2, 0.20), (3, 0.30)]:
            r = RunRecord(seed=seed)
            r.epochs.append(EpochRecord(0, 1.0, acc, 1.0, acc))
            records.append(r)
        agg = aggregate_runs(records)
        assert agg["best_test_acc_mean"] == pytest.approx(0.20)
        assert agg["best_test_acc_std"] == pytest.approx(0.10)

    def test_aggregate_matches_recomputation_from_records(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=1)
        records = [train(cfg, ds, ds, seed=s) for s in (1, 2)]
        agg = aggregate_runs(records)
        accs = [r.best_test.test_acc for r in records]
        assert agg["best_test_acc_mean"] == pytest.approx(np.mean(accs))
        assert agg["best_test_acc_std"] == pytest.approx(np.std(accs, ddof=1))

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            tiny_config(seeds=[])

    def test_repeated_seed_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            tiny_config(seeds=[7, 7])

    def test_format_row_contains_counts_and_percentages(self):
        agg = {
            "param_total": 15028644,
            "param_activation": 0,
            "best_train_acc_mean": 0.1213,
            "best_train_acc_std": 0.1579,
            "best_test_acc_mean": 0.1075,
            "best_test_acc_std": 0.1379,
        }
        row = format_aggregate_row("relu", agg)
        assert "15,028,644" in row and "12.13" in row and "10.75" in row


class TestBareRegimeAudit:
    """The training recipe must contain no hidden rescue mechanisms."""

    FORBIDDEN = ("warmup", "warm_up", "schedule", "anneal", "cosine", "np.clip", "clamp")

    def test_trainer_source_has_no_rescue_vocabulary(self):
        src = inspect.getsource(trainer_module).lower()
        for word in self.FORBIDDEN:
            assert word not in src, f"trainer source mentions {word!r}"

    def test_config_has_no_rescue_fields(self):
        field_names = set(ExperimentConfig().to_dict())
        for word in self.FORBIDDEN:
            assert not any(word in f for f in field_names)

    def test_learning_rate_is_constant_across_steps(self):
        # Under a constant unit gradient, m_hat = v_hat = 1 at every step,
        # so each step moves theta by rate / (1 + EPS) and then decays it
        # by rate * WEIGHT_DECAY. Undo the decay and read the rate back
        # from the parameter itself: it must be LR at every step.
        p = make_param(np.full(4, 3.0))
        opt = AdamW([p])
        rates = []
        for _ in range(25):
            before = p.data.copy()
            p.grad = np.ones(4)
            opt.step()
            after_moments = p.data / (1.0 - 1e-3 * 5e-4)
            rates.append((before - after_moments) * (1.0 + 1e-8))
        np.testing.assert_allclose(np.array(rates), 1e-3, rtol=1e-6)

    def test_presets_pin_the_documented_recipes(self):
        desk = ExperimentConfig(**PRESETS["desk"]())
        assert (desk.depth, desk.width_divisor, desk.epochs, desk.batch_size) == (8, 8, 5, 32)
        assert desk.seeds == [42] and desk.train_per_class == 20
        paper = ExperimentConfig(**PRESETS["paper"]())
        assert (paper.depth, paper.width_divisor, paper.epochs, paper.batch_size) == (16, 1, 30, 128)
        assert paper.seeds == [42, 0, 12345]
        assert paper.train_per_class is None
        # both train with the one recipe fixed in code
        R = trainer_module
        assert (R.LR, R.WEIGHT_DECAY, R.BETA1, R.BETA2, R.EPS) == (1e-3, 5e-4, 0.9, 0.999, 1e-8)
        assert DROPOUT_P == 0.5


class TestExperimentConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(**PRESETS["desk"](), activation="zcswish", data_dir="/data")
        path = tmp_path / "config.json"
        _write_json(path, cfg.to_dict())
        again = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ValueError, match="turbo_mode"):
            ExperimentConfig.from_dict({"depth": 8, "turbo_mode": True})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            ExperimentConfig(activation="mish")
        with pytest.raises(ValueError, match="epochs"):
            ExperimentConfig(epochs=-1)
        with pytest.raises(ValueError, match="seeds must be a list of integers"):
            ExperimentConfig(seeds="42")
        with pytest.raises(ValueError, match="seeds must be non-negative"):
            ExperimentConfig(seeds=[3, -1])
        with pytest.raises(ValueError, match="epochs must be an integer"):
            ExperimentConfig(epochs=True)
        with pytest.raises(ValueError, match="depth"):
            ExperimentConfig(depth=12)
