"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; each test also prints an ``ACCEPTANCE n PASS`` line with
the measured numbers (visible with ``-s`` or ``-rA``).

Criterion 10 (full-scale accuracy tables, the epoch-13 loss spike) is
declared not reproducible at desk scale and is represented by an opt-in
stretch check: set ACTLAB_RUN_STRETCH=1, or run
``scripts/desk_suite.py --depth 16 --epochs 10 --activations relu,zcswish``.
"""

import json
import os

import numpy as np
import pytest

import actlab.cli as cli
from actlab.activations import (
    ActivationKind,
    ZCSwishParams,
    activation_eval,
    apply_activation,
    find_centering_anchor,
    zc_swish_eval,
)
from actlab.data import write_synthetic_cifar100
from actlab.plainnet import PlainNetConfig, build, count_params
from actlab.probes import drift_experiment
from actlab.tensor import Tape, Tensor, gradcheck, softmax_cross_entropy, tsum

ACTIVATIONS = ["relu", "gelu", "swish", "zcswish"]


def report(n, msg):
    print(f"\nACCEPTANCE {n} PASS: {msg}")


# ---------------------------------------------------------------------------
# 1. parameter-count exactness
# ---------------------------------------------------------------------------


def test_criterion_1_parameter_counts_exact(capsys):
    assert cli.main(["params", "--depth", "16", "--activation", "relu", "--expect", "15028644:0"]) == 0
    assert cli.main(["params", "--depth", "16", "--activation", "zcswish", "--expect", "15041316:12672"]) == 0
    out = capsys.readouterr().out
    assert "0.084%" in out
    model = build(PlainNetConfig(depth=16, activation=ActivationKind.ZCSWISH), np.random.default_rng(0))
    r = count_params(model)
    assert (r.total, r.activation_params) == (15_041_316, 12_672)
    assert f"{r.overhead_ratio * 100:.3f}%" == "0.084%"
    report(1, "totals 15,028,644 / 15,041,316, activation params 12,672, overhead 0.084%")


# ---------------------------------------------------------------------------
# 2. origin preservation
# ---------------------------------------------------------------------------


def test_criterion_2_origin_preservation_10k_triples():
    rng = np.random.default_rng(2024)
    n = 10_000
    params = ZCSwishParams(
        c=Tensor(rng.uniform(-2, 2, n), dtype=np.float64),
        beta_raw=Tensor(rng.uniform(-3, 3, n), dtype=np.float64),
        g=Tensor(rng.uniform(-2, 2, n), dtype=np.float64),
    )
    out = apply_activation(Tensor(np.zeros((3, n)), dtype=np.float64), ActivationKind.ZCSWISH, params)
    worst = float(np.max(np.abs(out.data)))
    assert worst < 1e-12
    report(2, f"max |f(0)| over 10^4 random triples = {worst:.3e} (< 1e-12)")


# ---------------------------------------------------------------------------
# 3. gradient fidelity
# ---------------------------------------------------------------------------


def _rel(a, n):
    return abs(a - n) / max(1.0, abs(a), abs(n))


@pytest.mark.slow
def test_criterion_3_zcswish_gradients_on_grid_and_model():
    rng = np.random.default_rng(3)
    xs = np.linspace(-6.0, 6.0, 200)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        c = float(rng.uniform(-1.5, 1.5))
        braw = float(rng.uniform(-2.5, 2.5))
        g = float(rng.uniform(-2.0, 2.0))
        beta = float(np.logaddexp(0.0, braw))
        params = ZCSwishParams(
            c=Tensor([c], dtype=np.float64),
            beta_raw=Tensor([braw], dtype=np.float64),
            g=Tensor([g], dtype=np.float64),
        )
        xt = Tensor(xs.reshape(-1, 1), dtype=np.float64, requires_grad=True)
        for t in params.tensors():
            t.requires_grad = True
        with Tape() as tape:
            tape.backward(tsum(apply_activation(xt, ActivationKind.ZCSWISH, params)))
        # grad_x against the closed smooth-landscape form, elementwise
        numeric_x = (zc_swish_eval(xs + h, c=c, beta=beta, g=g) - zc_swish_eval(xs - h, c=c, beta=beta, g=g)) / (2 * h)
        for a, nmr in zip(xt.grad[:, 0], numeric_x):
            worst = max(worst, _rel(float(a), float(nmr)))
        # parameter gradients against central differences of the summed map
        def total(cv, bv, gv):
            bb = float(np.logaddexp(0.0, bv))
            return float(np.sum(zc_swish_eval(xs, c=cv, beta=bb, g=gv)))

        for tensor, plus, minus in (
            (params.c, total(c + h, braw, g), total(c - h, braw, g)),
            (params.beta_raw, total(c, braw + h, g), total(c, braw - h, g)),
            (params.g, total(c, braw, g + h), total(c, braw, g - h)),
        ):
            worst = max(worst, _rel(float(tensor.grad[0]), (plus - minus) / (2 * h)))
    assert worst < 1e-5

    # full autodiff gradcheck of a depth-8-narrow model in float64
    cfg = PlainNetConfig(depth=8, width_divisor=8, activation=ActivationKind.ZCSWISH, num_classes=10)
    model = build(cfg, np.random.default_rng(42), dtype=np.float64)
    rng2 = np.random.default_rng(7)
    images = Tensor(rng2.standard_normal((2, 3, 32, 32)), dtype=np.float64)
    labels = rng2.integers(0, 10, 2).astype(np.int64)

    def fn(x, *params_):
        return softmax_cross_entropy(model.forward(x, training=False), labels)

    err = gradcheck(fn, [images] + model.parameters(), h=1e-5, sample_per_tensor=6, rng=np.random.default_rng(0))
    assert err < 1e-4
    report(3, f"grid worst rel err = {worst:.3e} (< 1e-5); model gradcheck = {err:.3e} (< 1e-4)")


# ---------------------------------------------------------------------------
# 4. swish-reduction identity
# ---------------------------------------------------------------------------


def test_criterion_4_swish_reduction_float32():
    rng = np.random.default_rng(4)
    worst = 0.0
    for shape in ((64, 5), (8, 5, 6, 6), (2, 5, 32, 32)):
        x = (rng.standard_normal(shape) * 5).astype(np.float32)
        params = ZCSwishParams(
            c=Tensor(np.zeros(5), dtype=np.float32),
            beta_raw=Tensor(np.full(5, 0.5413248546129181), dtype=np.float32),
            g=Tensor(np.ones(5), dtype=np.float32),
        )
        zc = apply_activation(Tensor(x), ActivationKind.ZCSWISH, params).data
        sw = apply_activation(Tensor(x), ActivationKind.SWISH).data
        worst = max(worst, float(np.max(np.abs(zc - sw))))
    assert worst < 1e-6
    report(4, f"max |zcswish - swish| at unit parameters = {worst:.3e} (< 1e-6, float32)")


# ---------------------------------------------------------------------------
# 5. drift premise + centering oracle
# ---------------------------------------------------------------------------


def test_criterion_5_swish_mean_positive_and_oracle_centers(capsys):
    rng = np.random.default_rng(5)
    sample = rng.standard_normal(100_000)
    vals = activation_eval(ActivationKind.SWISH, sample)
    mean = float(vals.mean())
    z = mean / (float(vals.std(ddof=1)) / np.sqrt(sample.size))
    assert mean > 0.0 and z > 3.09  # one-sided p < 0.001

    res = find_centering_anchor(sample[:10_000], beta=1.0, tol=1e-8)
    assert res.converged and abs(res.mean_at_c) < 1e-6
    assert cli.main(["center-oracle", "--samples", "10000", "--seed", "5", "--tol", "1e-6"]) == 0
    capsys.readouterr()
    report(5, f"mean(swish) = {mean:.5f} (z = {z:.0f}); oracle |mean f| = {abs(res.mean_at_c):.2e} (< 1e-6)")


# ---------------------------------------------------------------------------
# 6. drift mechanism capacity at 16 sites
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_centered_stack_beats_swish():
    swish_rep = drift_experiment("swish", depth=16, width=128, samples=2048, seed=42)
    zc_rep = drift_experiment("zcswish", depth=16, width=128, samples=2048, seed=42, center="oracle")
    final_swish = swish_rep.final_abs_mean
    final_zc = zc_rep.final_abs_mean
    assert final_zc < final_swish
    # companion check: every anchor meets the solver's tolerance
    assert zc_rep.anchors_converged == 16
    report(
        6,
        f"final |mean|: swish {final_swish:.4g} vs oracle-centered {final_zc:.4g}, "
        f"ratio {final_swish / final_zc:.3g}x; anchors converged {zc_rep.anchors_converged}/16, "
        f"final std {zc_rep.sites[-1].std:.3g}",
    )


# ---------------------------------------------------------------------------
# 7 + 8. desk-scale learning and bitwise determinism
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    data_dir = root / "data"
    write_synthetic_cifar100(data_dir, train_per_class=40, test_per_class=20, num_classes=100, seed=0)
    results = {}
    for act in ACTIVATIONS:
        out = root / f"run_{act}"
        rc = cli.main(
            ["train", "--preset", "desk", "--activation", act, "--data-dir", str(data_dir), "--out", str(out)]
        )
        assert rc == 0, f"desk run failed for {act}"
        results[act] = out
    return data_dir, results


@pytest.mark.slow
@pytest.mark.parametrize("act", ACTIVATIONS)
def test_criterion_7_desk_scale_learning(desk_runs, act):
    _, results = desk_runs
    summary = json.loads((results[act] / "seed_42" / "summary.json").read_text())
    ratio = summary["final_train_loss"] / summary["initial_train_loss"]
    best_train = summary["best_train_acc"]
    assert ratio < 0.8, f"{act}: final/initial train loss {ratio:.3f}"
    assert best_train > 0.05, f"{act}: best train accuracy {best_train:.3f}"
    report(7, f"{act}: loss ratio {ratio:.3f} (< 0.8), train accuracy {best_train:.1%} (> 5%)")


@pytest.mark.slow
def test_criterion_8_desk_rerun_is_bit_identical(desk_runs, tmp_path):
    data_dir, results = desk_runs
    rerun = tmp_path / "rerun_zcswish"
    rc = cli.main(
        ["train", "--preset", "desk", "--activation", "zcswish", "--data-dir", str(data_dir), "--out", str(rerun)]
    )
    assert rc == 0
    first = (results["zcswish"] / "seed_42" / "metrics.csv").read_bytes()
    second = (rerun / "seed_42" / "metrics.csv").read_bytes()
    assert first == second
    steps_a = (results["zcswish"] / "seed_42" / "steps.csv").read_bytes()
    steps_b = (rerun / "seed_42" / "steps.csv").read_bytes()
    assert steps_a == steps_b
    report(8, "metrics.csv and steps.csv byte-identical across reruns with seed 42")


# ---------------------------------------------------------------------------
# 9. batch independence
# ---------------------------------------------------------------------------


def test_criterion_9_batch_independence_bitwise():
    cfg = PlainNetConfig(depth=8, width_divisor=8, activation=ActivationKind.ZCSWISH, num_classes=100)
    model = build(cfg, np.random.default_rng(9), dtype=np.float64)
    rng = np.random.default_rng(90)
    batch = rng.standard_normal((8, 3, 32, 32))
    full = model.forward(Tensor(batch, dtype=np.float64)).data
    for i in range(8):
        single = model.forward(Tensor(batch[i : i + 1], dtype=np.float64)).data
        np.testing.assert_array_equal(single[0], full[i])

    # the float32 training path agrees to tolerance (kernels are batched
    # matmuls there, so bitwise equality is certified in the 64-bit mode)
    model32 = build(cfg, np.random.default_rng(9), dtype=np.float32)
    batch32 = batch.astype(np.float32)
    full32 = model32.forward(Tensor(batch32)).data
    single32 = model32.forward(Tensor(batch32[3:4])).data
    np.testing.assert_allclose(single32[0], full32[3], rtol=2e-4, atol=1e-5)
    report(9, "single-sample forward == in-batch forward, bitwise (float64), 2e-4 rel (float32)")


# ---------------------------------------------------------------------------
# 10. declared out of desk-scale reach; opt-in directional stretch
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not os.environ.get("ACTLAB_RUN_STRETCH"),
    reason="full-scale accuracy tables need 30-epoch GPU runs; directional stretch is opt-in "
    "(ACTLAB_RUN_STRETCH=1 or scripts/desk_suite.py --depth 16 --epochs 10 --activations relu,zcswish)",
)
def test_criterion_10_depth16_directional_stretch(tmp_path):
    """Non-blocking: at depth 16, width/8, 10 desk epochs, zcswish's best
    train accuracy should not fall below relu's."""
    data_dir = tmp_path / "data"
    write_synthetic_cifar100(data_dir, train_per_class=40, test_per_class=20, num_classes=100, seed=0)
    best = {}
    for act in ("relu", "zcswish"):
        out = tmp_path / f"stretch_{act}"
        rc = cli.main(
            [
                "train", "--preset", "desk", "--activation", act, "--depth", "16",
                "--epochs", "10", "--data-dir", str(data_dir), "--out", str(out),
            ]
        )
        assert rc == 0
        best[act] = json.loads((out / "seed_42" / "summary.json").read_text())["best_train_acc"]
    assert best["zcswish"] >= best["relu"]
    report(10, f"stretch: zcswish best train acc {best['zcswish']:.1%} >= relu {best['relu']:.1%}")
