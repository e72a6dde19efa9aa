"""Activation math: exact origin behavior, analytic gradients, centering."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from actlab import activations
from actlab.activations import (
    BETA_RAW_INIT,
    ActivationKind,
    ZCSwishParams,
    activation_curves,
    activation_eval,
    apply_activation,
    find_centering_anchor,
    sigmoid,
    softplus,
    zc_swish_eval,
)
from actlab.tensor import ShapeError, Tape, Tensor, gradcheck, mul, tsum

from oracles import rel_err, sigmoid_masked, zc_swish_broadcast, zc_swish_eval_one_shot

# softplus(BETA_RAW_FOR_UNIT_SLOPE) == 1 exactly in real arithmetic
BETA_RAW_FOR_UNIT_SLOPE = 0.5413248546129181

# frozen from a 50-digit evaluation of the forward formula
ZCSWISH_AT_ONE_DEFAULT_PARAMS = 0.7267690022456754
GELU_TANH_AT_ONE = 0.8411919906082767
SWISH_AT_ONE = 0.7310585786300049

RELU, GELU, SWISH, ZCSWISH = ActivationKind.RELU, ActivationKind.GELU, ActivationKind.SWISH, ActivationKind.ZCSWISH


def zc_op(x, p):
    return apply_activation(x, ZCSWISH, p)


def params_from(c, beta_raw, g, channels=1, dtype=np.float64, requires_grad=True):
    def vec(v):
        return Tensor(np.full(channels, v, dtype=dtype), requires_grad=requires_grad)

    return ZCSwishParams(c=vec(c), beta_raw=vec(beta_raw), g=vec(g))


class TestZCSwishForward:
    def test_origin_maps_to_exact_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = params_from(rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(-2, 2))
            out = zc_op(Tensor(np.zeros((3, 1), dtype=np.float64)), p)
            assert np.all(out.data == 0.0)

    def test_reduces_to_swish_at_unit_parameters(self):
        p = params_from(0.0, BETA_RAW_FOR_UNIT_SLOPE, 1.0)
        out = zc_op(Tensor(np.ones((1, 1), dtype=np.float64)), p)
        np.testing.assert_allclose(out.data, SWISH_AT_ONE, rtol=1e-9)

    def test_initial_parameters_at_one(self):
        p = ZCSwishParams.initial(1, dtype=np.float64)
        out = zc_op(Tensor(np.ones((1, 1), dtype=np.float64)), p)
        assert abs(out.data.item() - ZCSWISH_AT_ONE_DEFAULT_PARAMS) < 1e-12

    def test_channel_mismatch_rejected(self):
        p = ZCSwishParams.initial(4)
        with pytest.raises(ShapeError, match="C=3"):
            zc_op(Tensor(np.zeros((2, 3))), p)

    def test_per_channel_parameters_apply_to_their_channel(self):
        p = params_from(0.0, BETA_RAW_FOR_UNIT_SLOPE, 1.0, channels=2)
        p.g.data[:] = [1.0, 3.0]
        x = np.ones((1, 2, 2, 2), dtype=np.float64)
        out = zc_op(Tensor(x), p)
        np.testing.assert_allclose(out.data[0, 1], 3.0 * out.data[0, 0], rtol=1e-12)

    def test_eval_path_agrees_with_op_path(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 1)) * 3
        p = params_from(0.3, -0.5, 1.7)
        op = zc_op(Tensor(x, dtype=np.float64), p)
        ev = zc_swish_eval(x, c=0.3, beta=float(softplus(np.float64(-0.5))), g=1.7)
        np.testing.assert_allclose(op.data[:, 0], ev[:, 0], rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("kind", list(ActivationKind), ids=lambda k: k.value)
def test_tensor_and_array_paths_agree_bitwise(kind, dtype):
    """Training (apply_activation) and the drift, calibration and curve
    code (the array entry points) evaluate the same formula to the bit."""
    x = (np.random.default_rng(12).standard_normal((8, 3, 8, 8)) * 3).astype(dtype)
    if kind is ZCSWISH:
        c, beta_raw, g = 0.3, -0.5, 1.7
        op = apply_activation(Tensor(x), kind, params_from(c, beta_raw, g, channels=3, dtype=dtype))
        ev = zc_swish_eval(x, c=c, beta=softplus(dtype(beta_raw)), g=g)
        np.testing.assert_array_equal(op.data, ev)
        op = apply_activation(Tensor(x), kind, ZCSwishParams.initial(3, dtype=dtype))
    else:
        op = apply_activation(Tensor(x), kind)
    ev = activation_eval(kind, x)
    assert op.data.dtype == ev.dtype == dtype
    np.testing.assert_array_equal(op.data, ev)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    c=st.integers(1, 5),
    spatial=st.sampled_from([None, (1, 1), (2, 3), (4, 4), (7, 5)]),
    channels_last=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_zc_swish_bits_match_broadcast_reference(n, c, spatial, channels_last, dtype, seed):
    # The Tensor path spreads its parameters over one-sample tiles in x's
    # layout; output and all four gradients keep the broadcast form's bits.
    rng = np.random.default_rng(seed)
    shape = (n, c) if spatial is None else (n, c) + spatial
    xd = (rng.standard_normal(shape) * 3).astype(dtype)
    xd.reshape(-1)[rng.random(xd.size) < 0.1] = 0.0
    if channels_last and spatial is not None:
        xd = np.ascontiguousarray(xd.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    cd, brd, gd = (rng.standard_normal(c).astype(dtype) for _ in range(3))
    gout = rng.standard_normal(shape).astype(dtype)
    got = zc_tape(xd, cd, brd, gd, gout)
    want = zc_swish_broadcast(xd, cd, brd, gd, gout)
    assert got[0].strides == want[0].strides
    for g, ref in zip(got, want):
        assert g.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(g.view(f"u{g.itemsize}"), ref.view(f"u{ref.itemsize}"))


def zc_tape(xd, cd, brd, gd, gout):
    """Output and the x, c, beta_raw and g gradients of one recorded call."""
    x = Tensor(xd, requires_grad=True)
    p = ZCSwishParams(*(Tensor(v.copy(), requires_grad=True) for v in (cd, brd, gd)))
    with Tape() as tape:
        out = zc_op(x, p)
        tape.backward(tsum(mul(out, Tensor(gout))))
    return out.data, x.grad, p.c.grad, p.beta_raw.grad, p.g.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("channels_last", [False, True], ids=["nchw", "channels_last"])
def test_zc_swish_multi_block_bits_match_broadcast_reference(dtype, channels_last):
    # N = 2k + 1 samples where a block holds k: two full blocks and a
    # one-sample last block, forward and backward
    per_block = activations._BLOCK_BYTES // (8 * 32 * 32 * np.dtype(dtype).itemsize)
    shape = (2 * per_block + 1, 8, 32, 32)
    rng = np.random.default_rng(21)
    xd = (rng.standard_normal(shape) * 3).astype(dtype)
    xd.reshape(-1)[rng.random(xd.size) < 0.1] = 0.0
    if channels_last:
        xd = np.ascontiguousarray(xd.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    cd, brd, gd = (rng.standard_normal(8).astype(dtype) for _ in range(3))
    # the tape's output gradient has the output's layout, so gout has x's
    gout = np.empty_like(xd)
    gout[...] = rng.standard_normal(shape)
    want = zc_swish_broadcast(xd, cd, brd, gd, gout)
    for got, ref in zip(zc_tape(xd, cd, brd, gd, gout), want):
        assert got.dtype == ref.dtype == dtype and got.strides == ref.strides
        np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), ref.view(f"u{ref.itemsize}"))


def test_zc_swish_nan_sign_in_c_grad_does_not_depend_on_batch_size():
    # One -NaN in channel 5 of the first sample makes that channel's
    # c.grad NaN. Its bits are the same for a 128 KiB and a 256 KiB batch.
    rng = np.random.default_rng(33)
    xd = (rng.standard_normal((64, 64, 4, 4)) * 3).astype(np.float32)
    xd[0, 5, 1, 2] = -np.nan
    cd, brd, gd = (rng.standard_normal(64).astype(np.float32) for _ in range(3))
    gout = rng.standard_normal(xd.shape).astype(np.float32)
    bits = []
    with np.errstate(invalid="ignore"):
        for n in (32, 64):
            gc = zc_tape(xd[:n].copy(), cd, brd, gd, gout[:n])[2]
            assert np.isnan(gc[5]) and np.isfinite(np.delete(gc, 5)).all()
            bits.append(gc[5:6].view(np.uint32)[0])
    assert bits[0] == bits[1]


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(min_value=-2, max_value=2, allow_nan=False),
    beta_raw=st.floats(min_value=-3, max_value=3, allow_nan=False),
    g=st.floats(min_value=-2, max_value=2, allow_nan=False),
)
def test_origin_preservation_property(c, beta_raw, g):
    p64 = params_from(c, beta_raw, g, dtype=np.float64)
    out64 = zc_op(Tensor(np.zeros((2, 1), dtype=np.float64)), p64)
    assert np.all(np.abs(out64.data) < 1e-12)
    p32 = params_from(c, beta_raw, g, dtype=np.float32)
    out32 = zc_op(Tensor(np.zeros((2, 1), dtype=np.float32)), p32)
    assert np.all(np.abs(out32.data) < 1e-6)


def test_swish_reduction_elementwise_float32():
    rng = np.random.default_rng(42)
    x = (rng.standard_normal((64, 3, 5, 5)) * 4).astype(np.float32)
    p = params_from(0.0, BETA_RAW_FOR_UNIT_SLOPE, 1.0, channels=3, dtype=np.float32)
    zc = zc_op(Tensor(x), p)
    sw = apply_activation(Tensor(x), SWISH)
    np.testing.assert_allclose(zc.data, sw.data, atol=1e-6)


class TestZCSwishBackward:
    def test_grad_x_at_anchor_is_half_gain(self):
        p = params_from(0.7, 0.2, 3.0)
        x = Tensor(np.full((1, 1), 0.7, dtype=np.float64), requires_grad=True)
        with Tape() as tape:
            tape.backward(tsum(zc_op(x, p)))
        np.testing.assert_allclose(x.grad, 3.0 / 2.0, rtol=1e-12)

    def test_grad_g_equals_output_over_gain(self):
        p = params_from(0.4, -0.3, 2.0)
        x = Tensor(np.array([[1.3]]), dtype=np.float64)
        with Tape() as tape:
            out = zc_op(x, p)
            tape.backward(tsum(out))
        np.testing.assert_allclose(p.g.grad, out.data[0] / 2.0, rtol=1e-12)

    def test_all_four_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = Tensor(rng.standard_normal((3, 2, 2, 2)) * 3, dtype=np.float64)
            p = params_from(rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(0.5, 2), channels=2)
            err = gradcheck(lambda xx, c, b, g: tsum(zc_op(xx, ZCSwishParams(c, b, g))), [x, *p.tensors()])
            assert err < 1e-5

    def test_eq_grad_x_formula_against_independent_differences(self):
        # the closed form g*s*(1 + beta*u*(1-s)) over a wide grid
        xs = np.linspace(-6, 6, 200)
        c, beta, g = 0.35, 1.4, 1.8
        braw = float(np.log(np.expm1(beta)))  # softplus inverse
        p = params_from(c, braw, g)
        xt = Tensor(xs.reshape(-1, 1), dtype=np.float64, requires_grad=True)
        with Tape() as tape:
            tape.backward(tsum(zc_op(xt, p)))
        h = 1e-6
        numeric = (zc_swish_eval(xs + h, c=c, beta=beta, g=g) - zc_swish_eval(xs - h, c=c, beta=beta, g=g)) / (2 * h)
        assert rel_err(xt.grad[:, 0], numeric) < 1e-8

    def test_parameter_gradients_reduce_over_batch_and_space(self):
        p = params_from(0.1, 0.0, 1.0, channels=2)
        x = Tensor(np.ones((4, 2, 3, 3)), dtype=np.float64)
        with Tape() as tape:
            tape.backward(tsum(zc_op(x, p)))
        assert p.g.grad.shape == (2,)
        # 4*3*3 identical positions contribute identically
        single = Tensor(np.ones((1, 2, 1, 1)), dtype=np.float64)
        p2 = params_from(0.1, 0.0, 1.0, channels=2)
        with Tape() as tape:
            tape.backward(tsum(zc_op(single, p2)))
        np.testing.assert_allclose(p.g.grad, 36.0 * p2.g.grad, rtol=1e-12)


class TestBaselines:
    def test_relu_values(self):
        out = apply_activation(Tensor(np.array([-1.0, 2.0])), RELU)
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_swish_values(self):
        out = apply_activation(Tensor(np.array([0.0, 1.0]), dtype=np.float64), SWISH)
        assert out.data[0] == 0.0
        np.testing.assert_allclose(out.data[1], SWISH_AT_ONE, rtol=1e-12)

    def test_gelu_values(self):
        out = apply_activation(Tensor(np.array([0.0, 1.0]), dtype=np.float64), GELU)
        assert out.data[0] == 0.0
        assert abs(out.data[1] - GELU_TANH_AT_ONE) < 1e-6

    @pytest.mark.parametrize("kind", [GELU, SWISH], ids=lambda k: k.value)
    def test_smooth_baseline_gradients(self, kind):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(40) * 3, dtype=np.float64)
        assert gradcheck(lambda a: tsum(apply_activation(a, kind)), [x]) < 1e-6

    def test_relu_gradient_away_from_kink(self):
        x = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), dtype=np.float64)
        assert gradcheck(lambda a: tsum(apply_activation(a, RELU)), [x]) < 1e-10

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_gradient_masks_exactly_where_x_is_positive(self, dtype):
        # relu's backward reads its output, max(0, x), which is > 0 exactly
        # where x is: NaN, -0, +0, -inf and the smallest subnormal included
        tiny = np.finfo(dtype).smallest_subnormal
        xd = np.array([np.nan, -np.nan, -0.0, 0.0, -np.inf, np.inf, -tiny, tiny, -1.5, 2.5], dtype=dtype)
        g = np.arange(1, xd.size + 1, dtype=dtype)
        x = Tensor(xd, requires_grad=True)
        with np.errstate(invalid="ignore"), Tape() as tape:
            tape.backward(tsum(mul(apply_activation(x, RELU), Tensor(g))))
        np.testing.assert_array_equal(x.grad, g * (xd > 0))

    def test_apply_activation_dispatch(self):
        x = Tensor(np.array([[1.0]]), dtype=np.float64)
        assert apply_activation(x, ActivationKind.RELU).data.item() == 1.0
        with pytest.raises(ValueError, match="parameter triple"):
            apply_activation(x, ActivationKind.ZCSWISH)

    def test_kind_parsing(self):
        assert ActivationKind.parse(" ZCSwish ") is ActivationKind.ZCSWISH
        with pytest.raises(ValueError, match="unknown activation"):
            ActivationKind.parse("mish")


class TestSigmoidSoftplus:
    def test_sigmoid_bounds_and_softplus_positivity(self):
        # float64 sigmoid saturates to exactly 0 or 1 past |x| ~ 36.7, so
        # the strict bound is asserted over the representable range
        x = np.linspace(-36, 36, 10_001)
        s = sigmoid(x)
        assert np.all(s > 0) and np.all(s < 1)
        assert np.all(softplus(np.linspace(-700, 700, 10_001)) > 0)

    def test_softplus_at_documented_init(self):
        beta = softplus(np.float64(BETA_RAW_INIT))
        assert abs(beta - 1.0) < 1e-4

    def test_sigmoid_matches_naive_formula_in_safe_range(self):
        x = np.linspace(-30, 30, 1001)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bits_match_masked_form(self, dtype):
        rng = np.random.default_rng(5)
        tiny = np.finfo(dtype).smallest_subnormal
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 1e4, -1e4]
        scaled = rng.standard_normal(4000) * 10.0 ** rng.uniform(-45, 4, 4000)
        x = np.concatenate([specials, scaled, np.finfo(dtype).tiny * rng.uniform(-1, 1, 200)]).astype(dtype)
        rng.shuffle(x)
        grid = x[:3900].reshape(30, 130)
        channels_last = x[:3840].reshape(4, 8, 10, 12).transpose(0, 3, 1, 2)
        cases = [x, grid.T[::2, 1::3], grid[7], channels_last, np.asarray(x[0]), x[1], dtype(-0.0), dtype(np.nan)]
        for case in cases:
            got, want = sigmoid(case), sigmoid_masked(case)
            assert (type(got), got.dtype, got.shape) == (type(want), want.dtype, want.shape)
            np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))
            if isinstance(case, np.ndarray):
                # zc_swish's chain passes its scratch as both x and den
                c = case.copy()
                got = activations._sigmoid_into(c, np.empty_like(c), c)
                np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


class TestCenteringAnchor:
    def test_symmetric_two_point_sample(self):
        res = find_centering_anchor(np.array([-1.5, 1.5]), beta=1.0, tol=1e-10)
        assert res.converged
        assert abs(res.mean_at_c) < 1e-10

    def test_all_zero_sample_returns_zero_anchor(self):
        res = find_centering_anchor(np.zeros(100), beta=1.0, tol=1e-10)
        assert res.converged and res.c == 0.0 and res.mean_at_c == 0.0

    def test_standard_normal_sample(self):
        rng = np.random.default_rng(42)
        sample = rng.standard_normal(10_000)
        res = find_centering_anchor(sample, beta=1.0, tol=1e-8)
        assert res.converged
        assert abs(res.mean_at_c) < 1e-6
        # uncentered swish mean is strictly positive on the same sample
        assert float(np.mean(zc_swish_eval(sample, c=0.0, beta=1.0, g=1.0))) > 0.0

    def test_degenerate_constant_sample_reports_no_root(self):
        res = find_centering_anchor(np.full(10, 3.0), beta=1.0, tol=1e-8)
        assert not res.converged
        assert "bracket" in res.note or "sign change" in res.note

    def test_tiny_spread_sample_already_centered_at_zero_converges(self):
        # the std of these values underflows to 0, as a constant sample's
        # is, but their mean at c = 0 is already far below tol
        res = find_centering_anchor(np.array([1e-200, -1e-200, 3e-200]), beta=1.0, tol=1e-8)
        assert res.converged
        assert res.c == 0.0
        assert abs(res.mean_at_c) < 1e-8
        assert res.note == ""

    def test_anchor_whose_outputs_all_underflow_is_not_converged(self):
        # At c = 0 every output is x * sigmoid(x) ~ x * exp(x), which
        # underflows to -0.0 below about -745: the mean reads 0 only
        # because nothing is left of the sample.
        res = find_centering_anchor(np.array([-800.0, -900.0, -1000.0]), beta=1.0, tol=1e-9)
        assert res.mean_at_c == 0.0 and not res.converged
        assert "underflows" in res.note

    def test_exact_root_with_live_outputs_stays_converged(self):
        # f(1000) = 1000 and f(-2000) = -1000 at c = -1000: the mean is
        # exactly 0 and the outputs are not
        res = find_centering_anchor(np.array([1000.0, -2000.0]), beta=1.0, tol=1e-9)
        assert res.converged and res.mean_at_c == 0.0 and res.note == ""
        assert zc_swish_eval(np.array([1000.0, -2000.0]), c=res.c, beta=1.0, g=1.0).any()

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            find_centering_anchor(np.ones(3), beta=0.0)
        with pytest.raises(ValueError, match="tol"):
            find_centering_anchor(np.ones(3), tol=0.0)


class TestZCSwishEvalBlocks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_with_and_without_out_match_the_one_shot_formula(self, dtype):
        rng = np.random.default_rng(8)
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e30, -1e30, 3.0, -3.0, 1e-40])
        x = np.concatenate([specials, rng.standard_normal(131072 - specials.size) * 4.0]).astype(dtype)
        grid = x[:39000].reshape(300, 130)
        block = activations._BLOCK_BYTES // x.itemsize
        cases = [np.asarray(x[3]), x[:1], x[:8191], x[:8192], x[:8193], x[: block - 1], x[:block], x[: block + 1],
                 x[: 2 * block + 3], x, grid.T[::2, 1::3]]
        # empty arrays, and rows each over a block, so every block is one row
        cases += [x[:0], x[:0].reshape(0, 3), x[:0].reshape(3, 0), np.resize(x, (3, block + 5))]
        with np.errstate(invalid="ignore"):  # -inf * sigmoid(-inf) is NaN on both sides
            for case in cases:
                want = zc_swish_eval_one_shot(case, dtype(0.3), dtype(1.7), dtype(-1.25))
                got = zc_swish_eval(case, c=0.3, beta=1.7, g=-1.25)
                assert (type(got), got.dtype, got.shape) == (type(want), want.dtype, want.shape)
                np.testing.assert_array_equal(np.asarray(got).view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))
                buf = np.empty_like(case)
                into = zc_swish_eval(case, c=0.3, beta=1.7, g=-1.25, out=buf)
                assert into is buf and into.dtype == want.dtype and into.shape == want.shape
                np.testing.assert_array_equal(into.view(f"u{into.itemsize}"), want.view(f"u{want.itemsize}"))

    def test_out_of_another_shape_or_dtype_rejected(self):
        x = np.zeros(10)
        with pytest.raises(ValueError, match="out must have shape"):
            zc_swish_eval(x, out=np.empty(9))
        with pytest.raises(ValueError, match="out must have shape"):
            zc_swish_eval(x, out=np.empty(10, dtype=np.float32))


class TestAnchorSolver:
    def test_narrow_gaussian_root_beyond_ten_std_converges(self):
        # std 0.1: the roots lie near +-2.4/beta, outside +-10*std
        sample = np.random.default_rng(3).standard_normal(10_000) * 0.1
        res = find_centering_anchor(sample, beta=1.0, tol=1e-9)
        assert res.converged and abs(res.mean_at_c) < 1e-9
        assert abs(res.c) > 1.0 and res.evaluations >= res.iterations

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            find_centering_anchor(np.ones(3), beta=beta)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            find_centering_anchor(np.ones(3), tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_value_rejected_by_index(self, bad):
        sample = np.array([0.5, -1.0, 2.0, bad, 1.0, bad])
        with pytest.raises(ValueError, match=f"sample value at index 3 is {bad}, not finite"):
            find_centering_anchor(sample)

    @pytest.mark.parametrize(
        "sample",
        [np.random.default_rng(0).standard_normal(500) * 1e160, np.array([1e308, 1e308, -1e308, 1e308])],
        ids=["std-overflows", "mean-overflows"],
    )
    def test_finite_sample_whose_std_overflows_rejected(self, sample):
        with pytest.raises(ValueError, match="sample std is not finite"):
            find_centering_anchor(sample)


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(-1.0, 1.0),
    std=st.floats(1e-3, 10.0),
    beta=st.floats(0.25, 4.0),
    n=st.integers(2, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_anchor_meets_tol_and_keeps_std_when_a_root_does(mean, std, beta, n, seed):
    check_anchor_meets_tol_and_keeps_std(mean, std, beta, n, seed)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the dip search misses the std-keeping roots")
@pytest.mark.parametrize(
    "mean, std, beta, n, seed",
    [
        # The sample mean crosses zero near c = -22.4, -17.8 and 18.3, with
        # output std 8.48, 8.47 and 0.206 there against a keep threshold of
        # 2.12. The near-dip test fires, the dip search starts on the flat
        # left asymptote and never reaches the left crossings, so the
        # solver returns the squashing root c = 18.29.
        (-0.0625, 9.0, 0.875, 226, 1176),
        # Sample mean +1.1e-4, std 1.94. The mean is negative only between
        # its crossings near c = -5.54 and -3.73 (output std 1.94 at both,
        # against a keep threshold of 0.48). The dip search starts on the
        # flat left asymptote at c = -7.87 and walks right in doubling
        # steps, from -5.75 (mean +5.7e-5) to -3.33 (+1.1e-2), over the
        # whole negative window; its last probe, at -6.34, reads +1.0e-4.
        # So the solver returns the squashing root c = 3.985 (std 0.030).
        (0.0, 2.0, 4.0, 233, 110343),
    ],
    ids=["dip-far-left", "window-stepped-over"],
)
def test_anchor_keeps_std_on_the_known_dip_miss(mean, std, beta, n, seed):
    check_anchor_meets_tol_and_keeps_std(mean, std, beta, n, seed)


def check_anchor_meets_tol_and_keeps_std(mean, std, beta, n, seed):
    tol = 1e-9
    sample = np.random.default_rng(seed).standard_normal(n) * std + mean
    res = find_centering_anchor(sample, beta=beta, tol=tol)
    if res.converged:
        assert abs(res.mean_at_c) < tol
    else:
        assert res.note

    def out_std(c):
        return float(np.std(zc_swish_eval(sample, c=c, beta=beta, g=1.0)))

    # The sign changes of the sample mean on a fine grid of c. A root keeps
    # std when the output keeps at least a quarter of the input's (about
    # half to all of it); a squashing root keeps a few percent. Of two or
    # more roots, one that keeps std must be the one found.
    span = max(10.0 * float(sample.std()), 8.0 / beta)
    grid = np.linspace(-span, span, 1025)
    means = np.array([np.mean(zc_swish_eval(sample, c=c, beta=beta, g=1.0)) for c in grid])
    roots = 0.5 * (grid[:-1] + grid[1:])[np.sign(means[:-1]) != np.sign(means[1:])]
    keeps = 0.25 * float(sample.std())
    if roots.size >= 2 and max(out_std(c) for c in roots) >= keeps:
        assert res.converged and out_std(res.c) >= keeps


def test_swish_mean_shift_is_positive_on_zero_mean_gaussians():
    rng = np.random.default_rng(11)
    sample = rng.standard_normal(100_000)
    vals = activation_eval(SWISH, sample)
    m = float(vals.mean())
    # one-sided z-test against mean <= 0
    se = float(vals.std(ddof=1)) / np.sqrt(sample.size)
    assert m > 0
    assert m / se > 3.09  # z beyond the 99.9th percentile


def test_activation_curves_columns_and_origin_row():
    xs = np.linspace(-4, 4, 9)
    cols = activation_curves(xs)
    assert list(cols) == ["x", "relu", "gelu", "swish", "zcswish"]
    at_zero = np.flatnonzero(xs == 0.0)[0]
    for name in ("relu", "gelu", "swish", "zcswish"):
        assert cols[name][at_zero] == 0.0
    for kind in ActivationKind:
        np.testing.assert_array_equal(cols[kind.value], activation_eval(kind, xs))


def test_gradcheck_named_examples():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal(30) * 2, dtype=np.float64)
    assert gradcheck(lambda a: tsum(apply_activation(a, SWISH)), [x]) < 1e-6
    p = params_from(0.2, 0.4, 1.3, channels=1)
    xt = Tensor(rng.standard_normal((10, 1)) * 2, dtype=np.float64)
    err = gradcheck(lambda xx, c, b, g: tsum(zc_op(xx, ZCSwishParams(c, b, g))), [xt, *p.tensors()])
    assert err < 1e-5
