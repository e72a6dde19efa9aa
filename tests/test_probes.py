"""Layer statistics with gradient norms, the mean-drift experiment and
its numpy Spearman coefficient."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

import actlab
import actlab.activations as activations
import actlab.probes as probes
from actlab.activations import ActivationKind
from actlab.config import ExperimentConfig
from actlab.plainnet import build
from actlab.probes import DriftReport, _spearman, drift_experiment, grad_norm, layer_stats
from actlab.tensor import Tensor, softmax_cross_entropy

from oracles import rel_err


def narrow_model(activation=ActivationKind.RELU, seed=0, num_classes=10, dtype=np.float32):
    cfg = ExperimentConfig(depth=8, width_divisor=8, activation=activation.value, num_classes=num_classes)
    return build(cfg, np.random.default_rng(seed), dtype=dtype)


def probe_batch(n=16, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n, 3, 32, 32)).astype(np.float32),
        rng.integers(0, 10, n).astype(np.int64),
    )


class TestLayerStats:
    def test_zero_weights_zero_means_for_all_activations(self):
        images, labels = probe_batch()
        for kind in ActivationKind:
            model = narrow_model(kind)
            for p in model.parameters():
                p.data[:] = 0.0
            stats = layer_stats(model, images, labels)
            for st_ in stats:
                assert st_.mean == 0.0, f"{kind.value} site {st_.site}"

    def test_relu_on_all_negative_preactivations_is_fully_dead(self):
        model = narrow_model(ActivationKind.RELU)
        # zero weights and strongly negative biases starve every site
        for layer in model.weight_layers():
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = -1.0
        images, labels = probe_batch()
        stats = layer_stats(model, images, labels)
        conv_sites = [s for s in stats if s.site.startswith("act")]
        for st_ in conv_sites:
            assert st_.dead_frac == 1.0

    def test_stats_match_instrumentation_free_recomputation(self):
        for kind in ActivationKind:
            model = narrow_model(kind, seed=3)
            images, labels = probe_batch(seed=1)
            stats = layer_stats(model, images, labels)
            # independent recomputation: fresh forward, manual statistics
            # over C-order copies, bit for bit (conv outputs are
            # channels-last, and the sums must not follow that layout)
            probe: list = []
            model.forward(Tensor(images), probe=probe)
            assert [st_.site for st_ in stats] == [site for site, _, _ in probe]
            for st_, (site, act, _) in zip(stats, probe):
                act = act.copy(order="C")
                assert st_.mean == float(np.mean(act, dtype=np.float64)), (kind, site)
                assert st_.std == float(np.std(act, dtype=np.float64)), (kind, site)

    def test_one_record_per_site_plus_head(self):
        model = narrow_model()
        images, labels = probe_batch()
        stats = layer_stats(model, images, labels)
        assert [s.site for s in stats] == [f"act{i}" for i in range(1, 7)] + ["act_fc1", "logits"]
        assert all(np.isfinite(s.grad_norm) for s in stats)

    def test_probing_never_changes_logits(self):
        model = narrow_model(ActivationKind.ZCSWISH)
        images, labels = probe_batch(seed=7)
        x = Tensor(images)
        plain = model.forward(x).data
        layer_stats(model, images, labels)
        again = model.forward(x).data
        np.testing.assert_array_equal(plain, again)

    def test_zero_weights_give_zero_conv_grad_norms(self):
        # with every weight zero the logits cannot depend on conv weights
        model = narrow_model(num_classes=10)
        images, labels = probe_batch()
        for p in model.parameters():
            p.data[:] = 0.0
        stats = layer_stats(model, images, labels)
        conv_sites = [s for s in stats if s.site.startswith("act") and s.site != "act_fc1"]
        assert len(conv_sites) == 6
        assert all(s.grad_norm == 0.0 for s in conv_sites)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_chunked_probe_matches_one_chunk(self, dtype, rtol):
        # Chunks of 5 (the last one short) and of 16 against one chunk. The
        # site statistics are taken over the whole batch's outputs, so they
        # keep every bit wherever the forward does: always in float64,
        # whose kernels are batch-independent. In float32 a chunk of 5 puts
        # the last convs' and the linears' GEMMs under OpenBLAS's
        # small-matrix size, whose kernel sums in another order, so there
        # the statistics agree to about 1e-8 of the site's std and bit for
        # bit at chunks of 8. The gradient norm sums per-chunk GEMMs.
        images, labels = probe_batch(seed=2)
        images = images.astype(dtype)
        chunks = (5, 8, 16) if dtype == np.float32 else (5, 16)
        for kind in ActivationKind:
            model = narrow_model(kind, seed=4, dtype=dtype)
            whole = layer_stats(model, images, labels)
            for chunk in chunks:
                got = layer_stats(model, images, labels, chunk=chunk)
                assert [s.site for s in got] == [s.site for s in whole]
                for a, b in zip(got, whole):
                    where = (kind.value, chunk, a.site)
                    if dtype == np.float32 and chunk == 5:
                        assert abs(a.mean - b.mean) <= 1e-7 * b.std, where
                        assert abs(a.std - b.std) <= 1e-7 * b.std, where
                    else:
                        assert (a.mean, a.std) == (b.mean, b.std), where
                    assert a.dead_frac == b.dead_frac, where
                    assert a.grad_norm == pytest.approx(b.grad_norm, rel=rtol, abs=0.0), where
                    if chunk == 16:
                        assert a.grad_norm == b.grad_norm, where  # one chunk, scaled by exactly 1

    def test_chunked_probe_peak_stays_under_its_bound(self):
        # Desk width, 64 images: in chunks of 8 the traced peak measured
        # 8.8 MiB (zcswish, the largest of the four activations), against
        # 22.9 MiB in one chunk. The bound is that figure plus 25%.
        model = narrow_model(ActivationKind.ZCSWISH, num_classes=100)
        rng = np.random.default_rng(1)
        images = rng.standard_normal((64, 3, 32, 32), dtype=np.float32)
        labels = rng.integers(0, 100, 64)
        peaks = {}
        for chunk in (8, None):
            tracemalloc.start()
            try:
                layer_stats(model, images, labels, chunk=chunk)
                peaks[chunk] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        assert peaks[8] < 11.0, peaks
        assert peaks[8] < peaks[None] / 2, peaks

    @pytest.mark.slow
    def test_logits_grad_norm_matches_full_finite_difference(self):
        # float64 model, every fc2 weight coordinate probed, so the whole
        # gradient-norm value is cross-checked against central differences;
        # the probe runs one image per chunk, so the check covers the
        # gradient accumulated over chunks
        cfg = ExperimentConfig(depth=8, width_divisor=8, activation="swish", num_classes=4)
        model = build(cfg, np.random.default_rng(11), dtype=np.float64)
        rng = np.random.default_rng(3)
        images = rng.standard_normal((2, 3, 32, 32))
        labels = np.array([0, 3], dtype=np.int64)
        analytic_norm = {s.site: s.grad_norm for s in layer_stats(model, images, labels, chunk=1)}["logits"]

        def loss_at():
            return float(softmax_cross_entropy(model.forward(Tensor(images, dtype=np.float64)), labels).data)

        fc2 = [l for l in model.layers if l.name == "fc2"][0]
        flat = fc2.weight.data.reshape(-1)
        h = 1e-6
        fd = np.empty(flat.size)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = loss_at()
            flat[idx] = orig - h
            fm = loss_at()
            flat[idx] = orig
            fd[idx] = (fp - fm) / (2 * h)
        numeric_norm = float(np.sqrt(np.sum(fd**2)))
        assert rel_err(analytic_norm, numeric_norm) < 1e-4


def test_grad_norm_sums_float64_squares_and_skips_missing_gradients():
    a = Tensor(np.zeros(2, dtype=np.float32))
    a.grad = np.array([3.0, 4.0], dtype=np.float32)
    b = Tensor(np.zeros(1, dtype=np.float32))  # grad stays None
    c = Tensor(np.zeros(1, dtype=np.float32))
    c.grad = np.array([2.0**70], dtype=np.float32)  # its square overflows float32
    assert grad_norm([a, b]) == 5.0
    assert grad_norm([a, b, c]) == 2.0**70
    assert grad_norm([]) == 0.0


class TestDriftExperiment:
    def test_single_site_swish_mean_positive_on_gaussians(self):
        report = drift_experiment("swish", depth=1, width=128, samples=100_000, seed=42)
        assert report.sites[0].mean > 0.0

    def test_swish_mean_positive_across_seeds(self):
        # the premise holds with overwhelming margin on every replicate
        means = [
            drift_experiment("swish", depth=1, width=64, samples=20_000, seed=s).sites[0].mean for s in range(8)
        ]
        assert all(m > 0 for m in means)

    def test_oracle_centering_beats_swish_at_final_site(self):
        swish_rep = drift_experiment("swish", depth=8, width=96, samples=1024, seed=42)
        zc_rep = drift_experiment("zcswish", depth=8, width=96, samples=1024, seed=42, center="oracle")
        assert zc_rep.final_abs_mean < swish_rep.final_abs_mean
        assert len(zc_rep.anchors) == 8
        assert zc_rep.anchors_converged == 8

    @pytest.mark.parametrize("seed", [480, 481, 482, 483])
    def test_oracle_solves_take_at_most_20_sample_evaluations(self, seed, monkeypatch):
        # every sample-mean evaluation is one zc_swish_eval call through the
        # activations module, which a wrapper there counts
        calls = []
        evaluate, solve = activations.zc_swish_eval, probes.find_centering_anchor

        def counted_eval(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            before = len(calls)
            res = solve(*args, **kwargs)
            assert len(calls) - before == res.evaluations
            per_site.append(res.evaluations)
            return res

        per_site = []
        monkeypatch.setattr(activations, "zc_swish_eval", counted_eval)
        monkeypatch.setattr(probes, "find_centering_anchor", counted_solve)
        rep = drift_experiment("zcswish", depth=16, width=256, samples=512, seed=seed, center="oracle")
        assert len(per_site) == 16 and max(per_site) <= 20
        assert rep.anchors_converged == 16

    def test_report_shape_and_fields(self):
        report = drift_experiment("gelu", depth=5, width=32, samples=256, seed=3)
        assert isinstance(report, DriftReport)
        assert len(report.sites) == 5
        assert [s.index for s in report.sites] == [1, 2, 3, 4, 5]
        assert isinstance(report.abs_mean_nondecreasing, bool)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            drift_experiment("swish", depth=0)
        with pytest.raises(ValueError, match="width must be >= 1, got 0"):
            drift_experiment("swish", depth=1, width=0)
        with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
            drift_experiment("swish", depth=1, samples=0)
        with pytest.raises(ValueError, match="center"):
            drift_experiment("swish", depth=1, center="magic")
        with pytest.raises(ValueError, match="oracle centering"):
            drift_experiment("relu", depth=1, center="oracle")


class TestSpearman:
    def test_perfect_rank_agreement_is_exactly_one(self):
        depth = np.arange(1, 17)
        assert _spearman(np.linspace(0.1, 3.0, 16), depth) == 1.0
        assert _spearman(np.linspace(3.0, 0.1, 16), depth) == -1.0

    def test_tie_takes_the_average_rank(self):
        # ranks (4, 1, 2.5, 2.5) against (1, 2, 3, 4): covariance -1.5,
        # variances 4.5 and 5, so rho = -1.5 / sqrt(22.5) = -1/sqrt(10)
        rho = _spearman(np.array([3.0, 1.0, 2.0, 2.0]), np.arange(1, 5))
        assert rho == pytest.approx(-1.0 / math.sqrt(10.0), rel=1e-15, abs=0.0)

    def test_drift_report_uses_it(self):
        report = drift_experiment("swish", depth=6, width=16, samples=64, seed=1)
        abs_means = np.array([abs(s.mean) for s in report.sites])
        assert report.spearman_abs_mean_vs_depth == _spearman(abs_means, np.arange(1, 7))


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_spearman_equals_scipy_bit_for_bit(scipy_stats, data):
    n = data.draw(st.integers(2, 40), label="n")
    # a small integer pool makes ties common; the float pool mixes in distinct values
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3, allow_nan=False))
    a = np.array(data.draw(st.lists(value, min_size=n, max_size=n), label="a"))
    b = np.array(data.draw(st.lists(value, min_size=n, max_size=n), label="b"))
    assume(np.ptp(a) > 0 and np.ptp(b) > 0)
    want = float(scipy_stats.spearmanr(a, b).statistic)
    assert np.float64(_spearman(a, b)).tobytes() == np.float64(want).tobytes()


def test_importing_actlab_loads_no_scipy():
    code = (
        "import sys, actlab, actlab.cli, actlab.trainer, actlab.probes; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(actlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
