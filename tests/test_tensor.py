"""Engine-level tests: forward oracles, backward rules, tape semantics."""

import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import actlab.probes as probes
import actlab.tensor as tensor_module
import actlab.trainer as trainer
from actlab.activations import ActivationKind, ZCSwishParams, apply_activation
from actlab.config import ExperimentConfig
from actlab.data import Dataset
from actlab.tensor import (
    _CHUNK_BYTES,
    ShapeError,
    Tape,
    Tensor,
    add,
    channel_sum,
    conv2d,
    dropout,
    gradcheck,
    linear,
    maxpool2,
    mul,
    record_op,
    reshape,
    sample_blocks,
    scale,
    softmax_cross_entropy,
    tsum,
)

from oracles import (
    conv2d_im2col_nchw,
    conv2d_nested,
    linear_nested,
    maxpool2_argmax,
    maxpool2_nested,
    softmax_cross_entropy_direct,
)


def t64(a, requires_grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


def bits(a):
    a = np.asarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def conv2d_on_tape(xd, wd, bd, gd, keep_patches):
    """conv2d's output and its x, w and b gradients for the loss
    sum(out * gd), recorded on a tape that keeps patch matrices or not."""
    x, w, b = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True)
    with Tape(keep_patches=keep_patches) as tape:
        out = conv2d(x, w, b)
        tape.backward(tsum(mul(out, Tensor(gd))))
    return out.data, x.grad, w.grad, b.grad


# both conv2d backward paths: the patch matrix kept from the forward, or
# rebuilt from the input
KEEP_PATCHES = (True, False)


# every float class the pooling tie rule has to order: signed zeros,
# infinities and NaNs of both signs
POOL_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan, -np.nan]


class TestConv2d:
    def test_single_center_tap(self):
        x = Tensor(np.full((1, 1, 1, 1), 2.0))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 3.0
        out = conv2d(x, Tensor(w), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, [[[[6.0]]]])

    def test_zero_weight_gives_bias(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        b = np.array([1.5, -2.0])
        out = conv2d(x, Tensor(np.zeros((2, 3, 3, 3))), Tensor(b))
        np.testing.assert_array_equal(out.data, np.broadcast_to(b.reshape(1, 2, 1, 1), (2, 2, 4, 4)))

    def test_matches_nested_loop_oracle_bitwise_in_float64(self):
        rng = np.random.default_rng(42)
        for (n, ci, co, s) in [(1, 1, 1, 3), (2, 3, 5, 4), (3, 4, 2, 6)]:
            x = rng.standard_normal((n, ci, s, s))
            w = rng.standard_normal((co, ci, 3, 3))
            b = rng.standard_normal(co)
            out = conv2d(t64(x), t64(w), t64(b))
            expected = conv2d_nested(x, w, b)
            np.testing.assert_array_equal(out.data, expected)

    def test_float32_close_to_float64_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 8, 6, 6))
        w = rng.standard_normal((4, 8, 3, 3))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x.astype(np.float32)), Tensor(w.astype(np.float32)), Tensor(b.astype(np.float32)))
        expected = conv2d_nested(x, w, b)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_channel_mismatch_names_dimension(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ShapeError, match="C_in=3"):
            conv2d(x, w, Tensor(np.zeros(2)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = t64(rng.standard_normal((2, 3, 4, 4)))
        w = t64(rng.standard_normal((2, 3, 3, 3)))
        b = t64(rng.standard_normal(2))
        err = gradcheck(lambda a, ww, bb: tsum(mul(conv2d(a, ww, bb), conv2d(a, ww, bb))), [x, w, b])
        assert err < 1e-7


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 4),
    c_in=st.integers(1, 5),
    c_out=st.integers(1, 5),
    size=st.sampled_from([1, 2, 4, 8]),
    channels_last=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, c_in=3, c_out=4, size=1, channels_last=False, dtype=np.float32, seed=1)
@example(n=2, c_in=3, c_out=4, size=1, channels_last=True, dtype=np.float64, seed=2)
@example(n=3, c_in=2, c_out=5, size=2, channels_last=True, dtype=np.float32, seed=3)
@example(n=3, c_in=2, c_out=5, size=2, channels_last=False, dtype=np.float64, seed=4)
def test_conv2d_bits_match_nchw_im2col_reference(n, c_in, c_out, size, channels_last, dtype, seed):
    # At N >= 2 the channels-last kernel hands BLAS the same operands as the
    # NCHW one, so every bit and the output's memory layout must agree. On
    # both tapes: the weight gradient reads the forward's patch matrix on a
    # keeping one and a matrix rebuilt from x.data on the other, and the
    # patch gradient is written over whichever it read.
    rng = np.random.default_rng(seed)
    xd = rng.standard_normal((n, c_in, size, size)).astype(dtype)
    if channels_last:
        xd = np.ascontiguousarray(xd.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    wd = rng.standard_normal((c_out, c_in, 3, 3)).astype(dtype)
    bd = rng.standard_normal(c_out).astype(dtype)
    gd = rng.standard_normal((n, c_out, size, size)).astype(dtype)
    want = conv2d_im2col_nchw(xd, wd, bd, gd)
    for keep in KEEP_PATCHES:
        got = conv2d_on_tape(xd, wd, bd, gd, keep)
        assert got[0].strides == want[0].strides, f"keep_patches={keep}"
        for a, b in zip(got, want):
            np.testing.assert_array_equal(bits(a), bits(b), err_msg=f"keep_patches={keep}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [1, 2, 8])
def test_conv2d_one_sample_backward_matches_nchw_im2col_reference(size, dtype):
    # At N = 1 the weight gradient's GEMM, and in float32 the forward's,
    # may get their operands in another layout than the NCHW kernel's, so
    # they differ from it by rounding. The input and bias gradients keep
    # every bit, and at 1x1 so does the weight gradient: each of its
    # elements is one product, with no sum whose order could differ.
    rng = np.random.default_rng(size)
    xd = rng.standard_normal((1, 3, size, size)).astype(dtype)
    wd = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
    bd = rng.standard_normal(4).astype(dtype)
    gd = rng.standard_normal((1, 4, size, size)).astype(dtype)
    want_out, want_gx, want_gw, want_gb = conv2d_im2col_nchw(xd, wd, bd, gd)
    rtol = 1e-5 if dtype == np.float32 else 1e-13
    for keep in KEEP_PATCHES:
        out, gx, gw, gb = conv2d_on_tape(xd, wd, bd, gd, keep)
        tag = f"keep_patches={keep}"
        np.testing.assert_array_equal(bits(gx), bits(want_gx), err_msg=tag)
        np.testing.assert_array_equal(bits(gb), bits(want_gb), err_msg=tag)
        if size == 1:
            np.testing.assert_array_equal(bits(gw), bits(want_gw), err_msg=tag)
        np.testing.assert_allclose(gw, want_gw, rtol=rtol, atol=rtol, err_msg=tag)
        np.testing.assert_allclose(out, want_out, rtol=rtol, atol=rtol, err_msg=tag)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 64),
    width=st.integers(1, 16),
    dtype=st.sampled_from([np.float32, np.float64]),
    block_bytes=st.integers(1, 1024),
)
@example(n=0, width=4, dtype=np.float64, block_bytes=64)
@example(n=3, width=16, dtype=np.float64, block_bytes=100)  # one sample is 128 bytes
def test_sample_blocks_cover_every_sample_once_in_runs_of_at_most_block_bytes(n, width, dtype, block_bytes):
    a = np.empty((n, width), dtype=dtype)
    per_sample = width * a.itemsize
    blocks = sample_blocks(a, block_bytes)
    # in order, every sample exactly once
    assert [i for b in blocks for i in range(*b.indices(n))] == list(range(n))
    sizes = [b.stop - b.start for b in blocks]
    assert all(b.step is None for b in blocks) and all(k >= 1 for k in sizes)
    # at most block_bytes, unless the slice holds a single sample
    assert all(k * per_sample <= block_bytes or k == 1 for k in sizes)
    # as many whole samples as fit, and only the last slice short
    full = max(1, block_bytes // per_sample)
    assert all(k == full for k in sizes[:-1])
    if n:
        assert sizes[-1] == (n % full or full)
    else:
        assert blocks == []


@pytest.mark.parametrize(
    "n, c_in, size, dtype",
    [
        (9, 8, 16, np.float32),  # chunks of 7 samples: 7 + 2
        (8, 8, 16, np.float64),  # chunks of 3: 3 + 3 + 2
        (9, 2, 32, np.float32),  # chunks of 7: 7 + 2
        (3, 8, 32, np.float32),  # one sample per chunk
        (3, 8, 32, np.float64),  # one sample per chunk, each over the chunk size
    ],
)
def test_conv2d_bits_match_nchw_im2col_reference_over_several_chunks(n, c_in, size, dtype):
    # im2col and col2im run over chunks of whole samples; a batch that spans
    # several chunks, the last one short, keeps the reference's bits.
    per_sample = size * size * c_in * 9 * np.dtype(dtype).itemsize
    step = max(1, _CHUNK_BYTES // per_sample)
    assert n > step and (n % step or step == 1)
    rng = np.random.default_rng(n * 1000 + c_in * 10 + size)
    xd = np.ascontiguousarray(rng.standard_normal((n, size, size, c_in)).astype(dtype)).transpose(0, 3, 1, 2)
    wd = rng.standard_normal((5, c_in, 3, 3)).astype(dtype)
    bd = rng.standard_normal(5).astype(dtype)
    gd = rng.standard_normal((n, 5, size, size)).astype(dtype)
    want = conv2d_im2col_nchw(xd, wd, bd, gd)
    for keep in KEEP_PATCHES:
        for a, b in zip(conv2d_on_tape(xd, wd, bd, gd, keep), want):
            np.testing.assert_array_equal(bits(a), bits(b), err_msg=f"keep_patches={keep}")


@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize(
    "n, c_in, c_out, size",
    [
        (32, 3, 8, 32),  # desk conv1, at the desk batch
        (16, 3, 8, 32),  # ... at the last batch of a desk epoch
        (8, 3, 8, 32),
        (32, 8, 16, 16),  # desk conv2
        (16, 8, 16, 16),
        (8, 8, 16, 16),
        (128, 3, 64, 32),  # width/1 conv1, at the paper batch
        (37, 3, 4, 16),  # 1,022,976 multiply-adds; at N = 36 the weight gradient's bits differ
        (40, 3, 1, 32),  # 1,105,920 multiply-adds at C_out = 1, which stays row-major
    ],
)
def test_conv2d_bits_match_nchw_im2col_reference_where_patches_are_k_major(n, c_in, c_out, size, channels_last):
    # Layers the K-major rule admits: BLAS reads a K-major patch matrix
    # through its transpose, and keeps every bit of the row-major kernel on
    # both tapes. The image layer's input is NCHW, later layers' channels-last.
    rng = np.random.default_rng(n * 1000 + c_in * 10 + c_out)
    xd = rng.standard_normal((n, c_in, size, size)).astype(np.float32)
    if channels_last:
        xd = np.ascontiguousarray(xd.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    wd = rng.standard_normal((c_out, c_in, 3, 3)).astype(np.float32)
    bd = rng.standard_normal(c_out).astype(np.float32)
    gd = rng.standard_normal((n, c_out, size, size)).astype(np.float32)
    want = conv2d_im2col_nchw(xd, wd, bd, gd)
    for keep in KEEP_PATCHES:
        got = conv2d_on_tape(xd, wd, bd, gd, keep)
        assert got[0].strides == want[0].strides, f"keep_patches={keep}"
        for a, b in zip(got, want):
            np.testing.assert_array_equal(bits(a), bits(b), err_msg=f"keep_patches={keep}")
    assert tensor_module._k_major(n, c_in, c_out, size, size) == (c_out >= 2)


class TestMaxPool2:
    def test_two_by_two(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = maxpool2(x)
        np.testing.assert_array_equal(out.data, [[[[4.0]]]])

    def test_constant_input_routes_grad_to_first_window_element(self):
        x = Tensor(np.full((1, 1, 2, 2), 5.0, dtype=np.float64), requires_grad=True)
        with Tape() as tape:
            out = maxpool2(x)
            loss = tsum(out)
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 4, 4))
        out = maxpool2(t64(x))
        expected, argpos = maxpool2_nested(x)
        np.testing.assert_array_equal(out.data, expected)
        # gradient must land exactly on the oracle's argmax positions
        xt = t64(x, requires_grad=True)
        with Tape() as tape:
            loss = tsum(maxpool2(xt))
            tape.backward(loss)
        got = np.flatnonzero(xt.grad.reshape(2, 3, -1)[0, 0])
        want = np.sort(argpos[0, 0].reshape(-1))
        np.testing.assert_array_equal(got, want)

    def test_odd_spatial_dim_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            maxpool2(Tensor(np.zeros((1, 1, 3, 4))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "window, winner",
        [
            ([-0.0, 0.0, -1.0, 0.0], 0),
            ([0.0, -0.0, -0.0, -1.0], 0),
            ([-1.0, -0.0, 0.0, -0.0], 1),
            ([np.inf, -np.nan, np.nan, np.inf], 1),
        ],
    )
    def test_signed_zero_ties_and_nans_go_to_first_element(self, dtype, window, winner):
        x = Tensor(np.array(window, dtype=dtype).reshape(1, 1, 2, 2), requires_grad=True)
        with Tape() as tape:
            out = maxpool2(x)
            tape.backward(tsum(out))
        assert bits(out.data).ravel()[0] == bits(x.data).ravel()[winner]
        np.testing.assert_array_equal(x.grad.ravel(), np.eye(4)[winner])


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    channels_last=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
)
def test_maxpool2_bits_match_argmax_reference(shape, channels_last, dtype, data):
    # Inputs come NCHW-contiguous or, as a conv's output, channels-last in
    # memory; x.grad has x's layout, as a tape's zeros_like gives it.
    n, c, h2, w2 = shape
    values = st.sampled_from(POOL_VALUES)

    def draw(size):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype)

    def layout(a):
        return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2) if channels_last else a

    xd = layout(draw(n * c * h2 * 2 * w2 * 2).reshape(n, c, 2 * h2, 2 * w2))
    weight = draw(n * c * h2 * w2).reshape(n, c, h2, w2)
    grad0 = layout(draw(xd.size).reshape(xd.shape))  # x.grad before the pool's add
    x = Tensor(xd.copy(order="K"), requires_grad=True)
    x.grad = grad0.copy(order="K")
    with np.errstate(invalid="ignore"):  # inf - inf in the loss and in the grads
        with Tape() as tape:
            out = maxpool2(x)
            tape.backward(tsum(mul(out, Tensor(weight))))
        want_out, want_gx = maxpool2_argmax(xd, out.grad)
        # Which NaN a NaN + NaN passes on depends on numpy's loop, and an
        # in-place add into a channels-last array can pick another than
        # grad0 + want_gx does, so the reference is the add an NCHW-built
        # gradient made: want_gx, NCHW-contiguous, added in place.
        want_grad = grad0.copy(order="K")
        want_grad += np.ascontiguousarray(want_gx)
    np.testing.assert_array_equal(bits(out.data), bits(want_out))
    assert x.grad.strides == xd.strides
    np.testing.assert_array_equal(bits(x.grad), bits(want_grad))
    if np.isfinite(xd).all():
        nested_out, argpos = maxpool2_nested(xd)
        np.testing.assert_array_equal(bits(out.data), bits(nested_out))
        x = Tensor(xd.copy(order="K"), requires_grad=True)
        with Tape() as tape:
            tape.backward(tsum(maxpool2(x)))
        hit = np.zeros((n, c, xd.shape[2] * xd.shape[3]))
        np.put_along_axis(hit, argpos.reshape(n, c, -1), 1.0, axis=-1)
        np.testing.assert_array_equal(x.grad, hit.reshape(xd.shape))


# ±0, infinities and NaN: the classes whose sums show an order change in
# their sign or payload bits, not only in rounding
SUM_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]


@settings(max_examples=300, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 64), st.integers(1, 40)),
        st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
    ),
    layout=st.sampled_from(["contiguous", "channels_last", "swapped", "sliced"]),
    values=st.sampled_from(["normal", "sprinkled", "specials"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(1, 8, 1, 1), layout="channels_last", values="normal", dtype=np.float32, seed=0)
@example(shape=(6, 1, 12, 12), layout="channels_last", values="normal", dtype=np.float32, seed=0)
@example(shape=(6, 5, 12, 12), layout="contiguous", values="normal", dtype=np.float64, seed=0)
@example(shape=(6, 12, 12, 12), layout="channels_last", values="specials", dtype=np.float32, seed=0)
def test_channel_sum_bits_match_numpy_sum(shape, layout, values, dtype, seed):
    # channel_sum must give the bits of a.sum over every axis but the
    # channel one, whichever path it takes. Layouts: C-contiguous (NCHW, or
    # [N, C]); channels-last (NHWC; [N, C] stored as [C, N] for 2-d);
    # channels innermost with H and W swapped in memory (NWHC; for 2-d,
    # every other column of a wider array); a slice of a channels-last
    # padded buffer, as conv2d's input gradient is.
    rng = np.random.default_rng(seed)
    ndim = len(shape)
    n, c = shape[:2]
    if layout == "contiguous":
        a = np.empty(shape, dtype=dtype)
    elif ndim == 2:
        a = {
            "channels_last": np.empty((c, n), dtype=dtype).T,
            "swapped": np.empty((n, 2 * c), dtype=dtype)[:, ::2],
            "sliced": np.empty((n + 2, c + 3), dtype=dtype)[1 : n + 1, 2 : c + 2],
        }[layout]
    else:
        h, w = shape[2:]
        a = {
            "channels_last": np.empty((n, h, w, c), dtype=dtype).transpose(0, 3, 1, 2),
            "swapped": np.empty((n, w, h, c), dtype=dtype).transpose(0, 3, 2, 1),
            "sliced": np.empty((n, h + 2, w + 2, c), dtype=dtype)[:, 1 : h + 1, 1 : w + 1, :].transpose(0, 3, 1, 2),
        }[layout]
    if values == "specials":
        a[...] = rng.choice(np.array(SUM_SPECIALS, dtype=dtype), size=shape)
    else:
        a[...] = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)).astype(dtype)
        if values == "sprinkled":
            hit = rng.random(shape) < 0.05
            a[hit] = rng.choice(np.array(SUM_SPECIALS, dtype=dtype), size=int(hit.sum()))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and float32 overflow
        got = channel_sum(a)
        want = a.sum(axis=0 if ndim == 2 else (0, 2, 3))
    assert got.shape == (c,) and got.dtype == dtype
    np.testing.assert_array_equal(bits(got), bits(want))


class TestLinear:
    def test_identity_weight(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_broadcasts_bias(self):
        b = np.array([4.0, 5.0])
        out = linear(Tensor(np.ones((3, 7))), Tensor(np.zeros((2, 7))), Tensor(b))
        np.testing.assert_array_equal(out.data, np.tile(b, (3, 1)))

    def test_matches_nested_loop_oracle_bitwise_in_float64(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        out = linear(t64(x), t64(w), t64(b))
        np.testing.assert_array_equal(out.data, linear_nested(x, w, b))

    def test_feature_mismatch_names_dimension(self):
        with pytest.raises(ShapeError, match="F_in=3"):
            linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 5))), Tensor(np.zeros(2)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = t64(rng.standard_normal((3, 4)))
        w = t64(rng.standard_normal((2, 4)))
        b = t64(rng.standard_normal(2))
        err = gradcheck(lambda a, ww, bb: tsum(mul(linear(a, ww, bb), linear(a, ww, bb))), [x, w, b])
        assert err < 1e-7


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = dropout(x, 0.9, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        # Monte Carlo: E[out] = E[x] regardless of p.
        x = Tensor(np.ones(100_000, dtype=np.float64))
        out = dropout(x, 0.5, training=True, rng=np.random.default_rng(123))
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_backward_uses_same_mask(self):
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        with Tape() as tape:
            out = dropout(x, 0.3, training=True, rng=np.random.default_rng(4))
            tape.backward(tsum(out))
        np.testing.assert_array_equal(x.grad, out.data)

    def test_bad_probability_rejected(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="probability"):
            dropout(x, 1.0, training=True, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="probability"):
            dropout(x, -0.1, training=True, rng=np.random.default_rng(0))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_over_100_classes(self):
        logits = Tensor(np.zeros((4, 100)))
        loss = softmax_cross_entropy(logits, np.array([0, 7, 50, 99]))
        np.testing.assert_allclose(loss.data, np.log(100.0), rtol=1e-6)

    def test_dominant_logit_at_label_drives_loss_to_zero(self):
        z = np.zeros((1, 5), dtype=np.float64)
        z[0, 2] = 1e4
        loss = softmax_cross_entropy(t64(z), np.array([2]))
        assert float(loss.data) == 0.0

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((2, 5))
        labels = np.array([3, 0])
        loss = softmax_cross_entropy(t64(z), labels)
        np.testing.assert_allclose(float(loss.data), softmax_cross_entropy_direct(z, labels), rtol=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"label out of range"):
            softmax_cross_entropy(Tensor(np.zeros((2, 5))), np.array([1, 5]))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z = t64(rng.standard_normal((3, 6)))
        labels = np.array([0, 5, 2])
        err = gradcheck(lambda a: softmax_cross_entropy(a, labels), [z])
        assert err < 1e-9


# Every op with one tensor input, as (input shape, op). Their backward
# adds into the input's gradient unchecked, relying on the tape's rule.
ONE_INPUT_OPS = {
    "scale": ((2, 3, 4, 4), lambda x: scale(x, -1.5)),
    "tsum": ((2, 3, 4, 4), tsum),
    "reshape": ((2, 3, 4, 4), lambda x: reshape(x, (2, 48))),
    "maxpool2": ((2, 3, 4, 4), maxpool2),
    "dropout": ((2, 3, 4, 4), lambda x: dropout(x, 0.5, training=True, rng=np.random.default_rng(3))),
    "softmax_cross_entropy": ((4, 5), lambda x: softmax_cross_entropy(x, np.array([0, 4, 2, 1]))),
    **{
        f"apply_activation-{kind.value}": ((2, 3, 4, 4), lambda x, kind=kind: apply_activation(x, kind))
        for kind in (ActivationKind.RELU, ActivationKind.GELU, ActivationKind.SWISH)
    },
}


class TestBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(ONE_INPUT_OPS))
    def test_one_input_op_is_recorded_only_when_its_input_requires_a_gradient(self, name, dtype):
        # What lets a one-input backward skip the requires_grad check: an
        # input that needs no gradient records nothing, and one that needs
        # it records the op once and has its gradient allocated on replay.
        shape, op = ONE_INPUT_OPS[name]
        data = np.random.default_rng(11).standard_normal(shape).astype(dtype)
        with Tape() as tape:
            out = op(Tensor(data))
            assert tape._records == []
            assert not out.requires_grad
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            out = op(x)
            assert len(tape._records) == 1 and tape._records[0][1] == (x,)
            assert out.requires_grad
            tape.backward(out if out.ndim == 0 else tsum(out))
        assert x.grad is not None
        assert x.grad.shape == shape and x.grad.dtype == dtype

    def test_identity_loss(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        with Tape() as tape:
            tape.backward(x)
        np.testing.assert_array_equal(x.grad, 1.0)

    def test_sum_of_squares(self):
        x = t64([1.0, -2.0, 0.5], requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(x, x))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            y = add(x, x)
            with pytest.raises(ShapeError, match="scalar"):
                tape.backward(y)

    def test_tensor_consumed_twice_sums_contributions(self):
        x = t64([2.0], requires_grad=True)
        with Tape() as tape:
            loss = tsum(add(mul(x, x), mul(x, x)))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [8.0], rtol=1e-12)

    def test_off_path_tensor_holds_zero(self):
        x = t64([1.0, 2.0], requires_grad=True)
        y = t64([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            unused = mul(y, y)
            loss = tsum(x)
            tape.backward(loss)
        np.testing.assert_array_equal(y.grad, np.zeros(2))
        np.testing.assert_array_equal(unused.grad, np.zeros(2))
        np.testing.assert_array_equal(x.grad, np.ones(2))

    def test_second_backward_on_one_tape_raises(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(x, x))
            tape.backward(loss)
            with pytest.raises(RuntimeError, match="already replayed"):
                tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])  # the refused call added nothing

    def test_three_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        x = t64(rng.standard_normal((4, 6)))
        params = [
            t64(rng.standard_normal((5, 6)) * 0.5),
            t64(rng.standard_normal(5) * 0.5),
            t64(rng.standard_normal((4, 5)) * 0.5),
            t64(rng.standard_normal(4) * 0.5),
            t64(rng.standard_normal((3, 4)) * 0.5),
            t64(rng.standard_normal(3) * 0.5),
        ]
        labels = np.array([0, 2, 1, 2])

        def net(xx, w1, b1, w2, b2, w3, b3):
            h1 = linear(xx, w1, b1)
            h1 = mul(h1, h1)  # smooth nonlinearity keeps differences clean
            h2 = linear(h1, w2, b2)
            h2 = mul(h2, h2)
            return softmax_cross_entropy(linear(h2, w3, b3), labels)

        err = gradcheck(net, [x] + params, h=1e-5)
        assert err < 1e-5

    def test_gradient_accumulation_linearity(self):
        rng = np.random.default_rng(8)
        xd = rng.standard_normal((3, 3))
        a, b = 2.5, -1.25

        def grads_of(fn):
            x = t64(xd, requires_grad=True)
            with Tape() as tape:
                tape.backward(fn(x))
            return x.grad

        g1 = grads_of(lambda x: tsum(mul(x, x)))
        g2 = grads_of(lambda x: tsum(mul(mul(x, x), x)))
        combined = grads_of(lambda x: add(scale(tsum(mul(x, x)), a), scale(tsum(mul(mul(x, x), x)), b)))
        np.testing.assert_allclose(combined, a * g1 + b * g2, rtol=1e-10)


def closure_value(fn, name):
    """The value a closure captured under ``name``."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


class TestTapeMemory:
    """A replay releases each record once its backward has run."""

    def small_net(self, dtype=np.float32):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(dtype), requires_grad=True)
        w1, w2 = (Tensor(rng.standard_normal((4, c, 3, 3)).astype(dtype), requires_grad=True) for c in (3, 4))
        b1, b2 = (Tensor(rng.standard_normal(4).astype(dtype), requires_grad=True) for _ in range(2))
        return x, (w1, b1, w2, b2), ZCSwishParams.initial(4, dtype=dtype)

    def test_tape_holds_no_forward_state_after_backward(self):
        x, (w1, b1, w2, b2), params = self.small_net()
        with Tape() as tape:
            h = conv2d(x, w1, b1)
            y = apply_activation(h, ActivationKind.ZCSWISH, params)
            saved_s = weakref.ref(closure_value(tape._records[-1][2], "s"))
            conv_out = weakref.ref(h.data)
            loss = tsum(conv2d(y, w2, b2))
            del h, y  # the caller keeps no intermediate
            assert saved_s() is not None and conv_out() is not None
            tape.backward(loss)
        assert tape._records == []
        assert saved_s() is None and conv_out() is None
        assert all(p.grad is not None for p in (x, w1, b1, w2, b2, *params.tensors()))

    def test_each_record_is_freed_before_the_next_one_replays(self):
        # A probe op recorded first replays last; by then the zc_swish
        # record replayed before it has released its saved sigmoid.
        x, _, _ = self.small_net()
        params = ZCSwishParams.initial(3)
        seen = []

        def probe(a):
            def backward_fn(g):
                seen.append(saved_s())
                a.grad += g

            return record_op(Tensor(a.data.copy()), (a,), backward_fn)

        with Tape() as tape:
            y = apply_activation(probe(x), ActivationKind.ZCSWISH, params)
            saved_s = weakref.ref(closure_value(tape._records[-1][2], "s"))
            loss = tsum(y)
            tape.backward(loss)
        assert seen == [None]

    def test_a_keeping_tape_holds_each_patch_matrix_until_its_conv_replays(self):
        # A probe op recorded after the conv replays before it and finds the
        # forward's patch matrix alive; one recorded before the conv replays
        # after it and finds the matrix freed.
        x, (w1, b1, _, _), _ = self.small_net()
        alive = []

        def probe(a):
            def backward_fn(g):
                alive.append(kept() is not None)
                a.grad += g

            return record_op(Tensor(a.data.copy()), (a,), backward_fn)

        with Tape(keep_patches=True) as tape:
            h = conv2d(probe(x), w1, b1)
            patches = closure_value(tape._records[-1][2], "kept")
            assert patches.shape == (2 * 8 * 8, 3 * 9)
            kept = weakref.ref(patches)
            del patches
            loss = tsum(probe(h))
            del h
            tape.backward(loss)
        assert alive == [True, False]
        assert x.grad is not None and w1.grad is not None

    @pytest.mark.parametrize(
        "keep_patches, dtype, weight_grad",
        [(False, np.float32, True), (True, np.float64, True), (True, np.float32, False)],
    )
    def test_other_conv_records_keep_no_patch_matrix(self, keep_patches, dtype, weight_grad):
        # A default tape, the float64 kernel (which builds no patch matrix)
        # and a weight that needs no gradient keep nothing.
        x, (w1, b1, _, _), _ = self.small_net(dtype)
        w1.requires_grad = weight_grad
        with Tape(keep_patches=keep_patches) as tape:
            conv2d(x, w1, b1)
            assert closure_value(tape._records[-1][2], "kept") is None

    @pytest.mark.parametrize("keep_patches", KEEP_PATCHES)
    def test_a_k_major_backward_makes_no_second_patch_matrix(self, keep_patches):
        # The patch gradient is written over the K-major patch buffer, read
        # as a row-major matrix. Besides it, the backward allocates only
        # input- and output-sized arrays (gradients, padding), each under a
        # quarter of a patch matrix here: so under one patch matrix when the
        # tape kept it, and under two when the backward rebuilt it.
        n, c_in, c_out, size = 8, 8, 16, 16  # desk conv2 at batch 8
        assert tensor_module._k_major(n, c_in, c_out, size, size)
        rng = np.random.default_rng(12)
        xd = rng.standard_normal((n, size, size, c_in), dtype=np.float32).transpose(0, 3, 1, 2)
        x = Tensor(xd, requires_grad=True)
        w = Tensor(rng.standard_normal((c_out, c_in, 3, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(c_out, dtype=np.float32), requires_grad=True)
        patch_bytes = n * size * size * c_in * 9 * 4
        with Tape(keep_patches=keep_patches) as tape:
            loss = tsum(conv2d(x, w, b))
            if keep_patches:
                kept = closure_value(tape._records[-2][2], "kept")
                assert kept.shape == (c_in * 9, n * size * size + tensor_module._K_MAJOR_ROW_PAD)
                del kept
            tracemalloc.start()
            try:
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert x.grad is not None and w.grad is not None
        assert peak < patch_bytes * (1 if keep_patches else 2)

    @pytest.mark.parametrize("batch_size, keeps", [(2, True), (4, False), (8, False)])
    def test_a_batch_up_to_an_eighth_of_the_probes_keeps_patches(self, monkeypatch, batch_size, keeps):
        # A keeping step holds about twice a default step's memory, so a
        # step keeps only while its batch is at most an eighth of the
        # probe's (16 images here), where the probe still sets the peak.
        # The probe runs one default tape per chunk of the batch size, and
        # gradcheck rebuilds too.
        made = []

        def spy(caller):
            class SpyTape(Tape):
                def __init__(self, **kwargs):
                    super().__init__(**kwargs)
                    made.append((caller, self.keep_patches))

            return SpyTape

        monkeypatch.setattr(trainer, "Tape", spy("train"))
        monkeypatch.setattr(probes, "Tape", spy("layer_stats"))
        monkeypatch.setattr(tensor_module, "Tape", spy("gradcheck"))
        rng = np.random.default_rng(9)
        ds = Dataset(
            pixels=rng.integers(0, 256, (16, 3, 32, 32), dtype=np.uint8),
            fine_labels=np.arange(16, dtype=np.int64) % 4,
            mean=np.full(3, 0.5, np.float32),
            std=np.full(3, 0.25, np.float32),
        )
        config = ExperimentConfig(
            depth=8, width_divisor=8, activation="relu", num_classes=4, epochs=1, batch_size=batch_size
        )
        trainer.train(config, ds, ds, seed=0)
        gradcheck(lambda a: tsum(a), [t64([1.0])])
        probe = [("layer_stats", False)] * math.ceil(16 / batch_size)
        step = ("train", keeps)
        assert made == probe + [step] * (16 // batch_size) + probe + [("gradcheck", False)]

    def test_intermediate_tensor_carries_its_gradient(self):
        x, (w1, b1, _, _), _ = self.small_net()
        gd = np.random.default_rng(6).standard_normal((2, 4, 8, 8)).astype(np.float32)
        weight = Tensor(gd)
        with Tape() as tape:
            h = conv2d(x, w1, b1)
            tape.backward(tsum(mul(h, weight)))
        # 0 + 1 * gd: the first touch allocates zeros in h's own layout
        np.testing.assert_array_equal(h.grad, gd)
        assert h.grad.strides == h.data.strides
        assert weight.grad is None  # an input that wants no gradient gets none

    def test_untaped_zc_swish_allocates_only_its_output_and_keeps_the_bits(self):
        # 2 MiB of float32, 8 blocks: an untaped call writes s and core into
        # its output, so it allocates the output and block scratch only; a
        # taped one also keeps full-size s and core for its backward.
        x = Tensor(np.random.default_rng(8).standard_normal((64, 8, 32, 32)).astype(np.float32))
        params = ZCSwishParams.initial(8)
        with Tape():
            taped = apply_activation(x, ActivationKind.ZCSWISH, params)
        tracemalloc.start()
        try:
            plain = apply_activation(x, ActivationKind.ZCSWISH, params)  # no active tape
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not plain.requires_grad
        assert peak < 2 * plain.data.nbytes
        np.testing.assert_array_equal(bits(plain.data), bits(taped.data))


class TestGradcheck:
    def test_identity_has_zero_error(self):
        x = t64([1.0, 2.0])
        assert gradcheck(lambda a: tsum(a), [x]) < 1e-11

    def test_nondeterministic_function_rejected(self):
        rng = np.random.default_rng(0)
        x = t64([1.0])

        def noisy(a):
            return scale(tsum(a), float(rng.random()))

        with pytest.raises(ValueError, match="deterministic"):
            gradcheck(noisy, [x])

    def test_sampled_coordinates(self):
        rng = np.random.default_rng(1)
        x = t64(rng.standard_normal((10, 10)))
        err = gradcheck(lambda a: tsum(mul(a, a)), [x], sample_per_tensor=7, rng=rng)
        assert err < 1e-9

    def test_input_unused_by_function_checks_as_zero(self):
        x = t64([1.0, 2.0])
        unused = t64([5.0])
        assert gradcheck(lambda a, b: tsum(a), [x, unused]) < 1e-11


class TestDeterminismAndDtype:
    def test_same_seed_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(77)
            x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
            w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
            b = Tensor(rng.standard_normal(4).astype(np.float32))
            out = maxpool2(conv2d(x, w, b))
            return out.data

        np.testing.assert_array_equal(run(), run())

    def test_float64_batch_independence_bitwise(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 3, 4, 4))
        w = t64(rng.standard_normal((2, 3, 3, 3)))
        b = t64(rng.standard_normal(2))
        full = conv2d(t64(x), w, b).data
        one = conv2d(t64(x[3:4]), w, b).data
        np.testing.assert_array_equal(one[0], full[3])

    def test_mixed_dtype_rejected(self):
        message = re.escape("operands must share one dtype, got ['float32', 'float64']")
        with pytest.raises(ShapeError, match=message):
            linear(
                Tensor(np.zeros((1, 2)), dtype=np.float64),
                Tensor(np.zeros((2, 2)), dtype=np.float32),
                Tensor(np.zeros(2), dtype=np.float32),
            )
        with pytest.raises(ShapeError, match=message):  # only the last operand differs
            conv2d(
                Tensor(np.zeros((1, 1, 2, 2)), dtype=np.float32),
                Tensor(np.zeros((1, 1, 3, 3)), dtype=np.float32),
                Tensor(np.zeros(1), dtype=np.float64),
            )
        with pytest.raises(ShapeError, match=message):  # zc_swish: float32 input, float64 triple
            apply_activation(
                Tensor(np.zeros((1, 2)), dtype=np.float32),
                ActivationKind.ZCSWISH,
                ZCSwishParams.initial(2, dtype=np.float64),
            )

    def test_int_input_promoted_to_default_dtype(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float32


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=-3, max_value=3, allow_nan=False),
    b=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_backward_is_linear_in_the_loss(a, b):
    xd = np.array([0.7, -1.3, 2.1])

    def grads_of(fn):
        x = t64(xd, requires_grad=True)
        with Tape() as tape:
            tape.backward(fn(x))
        return x.grad

    g1 = grads_of(lambda x: tsum(mul(x, x)))
    g2 = grads_of(lambda x: tsum(x))
    combined = grads_of(lambda x: add(scale(tsum(mul(x, x)), a), scale(tsum(x), b)))
    np.testing.assert_allclose(combined, a * g1 + b * g2, rtol=1e-9, atol=1e-12)


def test_reshape_roundtrips_gradient():
    x = t64(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        y = reshape(x, (2, 6))
        tape.backward(tsum(mul(y, y)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)
