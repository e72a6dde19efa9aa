"""The four activation functions under test, each formula written once.

relu, gelu and swish are stateless baselines. zc_swish ("zero-centered
swish") carries three learnable parameters per channel:

* ``c``, a centering anchor that shifts the swish kink,
* ``beta_raw``, steepness through a softplus, so beta = softplus(beta_raw)
  stays strictly positive,
* ``g``, an output gain.

Its forward map is

    f(x) = g * [ (x - c) * sigmoid(beta * (x - c)) + c * sigmoid(-beta * c) ]

per channel. The second term is a per-channel constant that cancels the
shifted swish at the origin, so f(0) == 0 holds exactly (bit for bit, not
just approximately: both occurrences of sigmoid(-beta*c) are computed
from identical float products). Inactive units therefore contribute no
baseline offset, which is the property the whole lab is built to study.

Every formula is written once. The stateless ones live in one table,
``FORMULAS``, keyed by :class:`ActivationKind`; each entry is a
``(forward, dx)`` pair. forward maps a plain array to the output and the
terms its derivative reads, which are all that its backward keeps; dx
maps those terms to df/dx. zc_swish's forward is ``_zc_swish_into``, one
chain of in-place ufuncs on one block. One walker, ``_walk_blocks``,
yields an array's cache-sized blocks of whole samples with block-sized
scratch; zc_swish's forward driver ``_zc_swish_blocks`` and its backward
both run on it. Two paths call the formulas:

* the Tensor path, :func:`apply_activation`, records the op on the
  active tape; derivatives are computed only in its backward pass;
* the array path, :func:`activation_eval` and :func:`zc_swish_eval`,
  serves the drift experiment, its init calibration, the curve dumps
  and the centering oracle.

So both paths give the same bits for the same input and parameters,
whatever the blocking.

gelu uses the tanh approximation
0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))). It stays within
1e-3 of the erf form, which is negligible at the accuracy scales measured
here, and avoids a special-function dependency in the hot path.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from actlab.tensor import (
    DEFAULT_DTYPE,
    ShapeError,
    Tensor,
    channel_sum,
    channel_tile,
    record_op,
    same_dtype,
    sample_blocks,
    will_record,
)

__all__ = [
    "ActivationKind",
    "ZCSwishParams",
    "C_INIT",
    "BETA_RAW_INIT",
    "G_INIT",
    "FORMULAS",
    "sigmoid",
    "softplus",
    "apply_activation",
    "activation_eval",
    "zc_swish_eval",
    "normal_quadrature",
    "CenteringResult",
    "find_centering_anchor",
    "activation_curves",
]

# Initial values of the learnable triple. softplus(BETA_RAW_INIT) ~= 1.0,
# so a freshly built zc_swish starts out almost exactly as a unit-gain
# swish with a 0.01 anchor.
C_INIT = 0.01
BETA_RAW_INIT = 0.5413
G_INIT = 1.0

_GELU_K = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715

# Bytes per operand of one zc_swish block (see _walk_blocks). Of
# 64 KiB to 1 MiB, 256 KiB evaluated a 1 MiB float64 sample fastest on a
# core with 2 MiB of L2. Any value gives the same bits.
_BLOCK_BYTES = 256 * 1024


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, float32 or float64.

    With e = exp(-|x|), it is 1 / (1 + e) where x >= 0 and e / (1 + e)
    elsewhere (NaN included), so exp never overflows. Every step is an
    elementwise ufunc in x's dtype, so each element is that one IEEE
    division whatever the array's size or layout; the result has x's
    shape and dtype (a 0-d array for a scalar).

    zc_swish's forward runs the same steps in place on its own blocks
    (``_sigmoid_into``), so this public name sees only the calls made
    outside that chain: the per-channel constant, swish and the softplus
    derivative of ``beta_raw``.
    """
    x = np.asarray(x)
    return _sigmoid_into(x, np.empty_like(x), np.empty_like(x), np.empty_like(x, dtype=bool))


def _sigmoid_into(x: np.ndarray, out: np.ndarray, den: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """sigmoid(x) into ``out``; ``den`` and the bool ``mask`` are scratch
    of x's shape. x is not read after ``mask`` is written, so ``den`` may
    be x itself."""
    np.negative(x, out=out)
    np.minimum(x, out, out=out)  # -|x|; a NaN keeps x's own bits
    np.greater_equal(x, 0, out=mask)
    np.exp(out, out=out)  # e: in [0, 1], or NaN
    np.add(out, 1.0, out=den)
    # The numerator: 1 where x >= 0, as e <= 1 there; e (or its NaN) elsewhere.
    np.maximum(out, mask, out=out)
    return np.divide(out, den, out=out)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow for large x."""
    return np.logaddexp(np.asarray(x).dtype.type(0.0), x)


class ActivationKind(enum.Enum):
    """Activation selector. swish uses the fixed unit-steepness convention;
    only zc_swish carries learnable parameters."""

    RELU = "relu"
    GELU = "gelu"
    SWISH = "swish"
    ZCSWISH = "zcswish"

    @classmethod
    def parse(cls, name: str) -> "ActivationKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown activation {name!r}, expected one of: {valid}") from None


@dataclass
class ZCSwishParams:
    """Per-channel learnable triple (c, beta_raw, g), each a 1-d tensor."""

    c: Tensor
    beta_raw: Tensor
    g: Tensor

    @classmethod
    def initial(cls, channels: int, dtype=DEFAULT_DTYPE) -> "ZCSwishParams":
        def full(v):
            return Tensor(np.full(channels, v, dtype=dtype), requires_grad=True)

        return cls(c=full(C_INIT), beta_raw=full(BETA_RAW_INIT), g=full(G_INIT))

    @property
    def channels(self) -> int:
        return self.c.data.shape[0]

    def tensors(self) -> list[Tensor]:
        return [self.c, self.beta_raw, self.g]


# ---------------------------------------------------------------------------
# the formula table: (forward, dx) pairs, and zc_swish's block chain
# ---------------------------------------------------------------------------


def _gelu_constants(dt):
    return dt.type(_GELU_K), dt.type(_GELU_A), dt.type(0.5)


def _relu(x):
    out = np.maximum(x.dtype.type(0.0), x)
    return out, (out,)


def _relu_dx(out):
    # out = max(0, x) is positive exactly where x is: NaN and -0 map to
    # NaN or a zero, neither of which is > 0
    return (out > 0).astype(out.dtype)


def _gelu(x):
    k, a, half = _gelu_constants(x.dtype)
    t = np.tanh(k * (x + a * x * x * x))
    return half * x * (1.0 + t), (x, t)


def _gelu_dx(x, t):
    k, a, half = _gelu_constants(x.dtype)
    return half * (1.0 + t) + half * x * (1.0 - t * t) * k * (1.0 + 3.0 * a * x * x)


def _swish(x):
    s = sigmoid(x)
    return x * s, (x, s)


def _swish_dx(x, s):
    return s * (1.0 + x * (1.0 - s))


# (forward, dx) of the stateless kinds: forward maps an array to its
# output and the terms dx reads; dx maps those terms to df/dx. zc_swish's
# backward also feeds its parameters; it is in _record_zc_swish.
FORMULAS = {
    ActivationKind.RELU: (_relu, _relu_dx),
    ActivationKind.GELU: (_gelu, _gelu_dx),
    ActivationKind.SWISH: (_swish, _swish_dx),
}


def _anchor_term(c, beta):
    """q = sigmoid(-(beta * c)) and the per-channel constant c * q."""
    q = sigmoid(-(beta * c))
    return q, c * q


def _zc_swish_into(x, c, beta, g, cq, u, t, mask, s, core, out):
    """zc_swish's forward formula on one block, every step a ufunc that
    writes into the given arrays: u = x - c, t = beta * u, s = sigmoid(t)
    (t is spent as its denominator), core = u * s + cq, out = g * core,
    where cq is ``_anchor_term``'s c * q. c, beta, g and cq are scalars or
    per-channel values broadcasting over x; ``mask`` is bool scratch.
    ``s``, ``core`` and ``out`` may be one array. At x = 0, t is
    -(beta * c) bit for bit, so f(0) == 0 exactly."""
    np.subtract(x, c, out=u)
    np.multiply(beta, u, out=t)
    _sigmoid_into(t, s, t, mask)
    np.multiply(u, s, out=core)
    np.add(core, cq, out=core)
    return np.multiply(g, core, out=out)


def _walk_blocks(x, floats: int, masks: int = 0):
    """Yield ``(b, views)`` for each of x's
    :func:`~actlab.tensor.sample_blocks` of ``_BLOCK_BYTES``: ``b`` is the
    block's slice and ``views`` holds ``floats`` scratch arrays of x's
    dtype and layout, then ``masks`` bool ones, each cut to the block's
    samples. The scratch is allocated once, one block in size, so no
    temporary is larger than a block."""
    blocks = sample_blocks(x, _BLOCK_BYTES)
    head = x[: blocks[0].stop if blocks else 0]
    scratch = [np.empty_like(head) for _ in range(floats)]
    scratch += [np.empty_like(head, dtype=bool) for _ in range(masks)]
    for b in blocks:
        n = b.stop - b.start
        yield b, [a[:n] for a in scratch]


def _zc_swish_blocks(x, c, beta, g, cq, s, core, out):
    """``_zc_swish_into`` over each of x's blocks (``_walk_blocks``),
    writing that block of ``s``, ``core`` and ``out`` (arrays of x's
    shape; they may be one array). c, beta, g and cq broadcast over every
    block: scalars, or one-sample tiles. Each element runs the same chain
    with the same operands, so no bit depends on the blocking."""
    for b, (u, t, mask) in _walk_blocks(x, 2, 1):
        _zc_swish_into(x[b], c, beta, g, cq, u, t, mask, s[b], core[b], out[b])


# ---------------------------------------------------------------------------
# Tensor path
# ---------------------------------------------------------------------------


def _record_zc_swish(x: Tensor, params: ZCSwishParams) -> Tensor:
    """Per-channel zero-centered swish, recorded with all four gradients.

    x is [N, C] or [N, C, H, W] with C equal to ``params.channels`` and
    the triple's dtype; mixed dtypes are refused, as by conv2d and linear.
    ``c``, ``beta``, ``g`` and the per-channel constant
    c * sigmoid(-beta*c), computed on the C values at every call because
    the parameters move every optimization step, enter the elementwise
    ops as one-sample tiles in x's memory layout
    (:func:`~actlab.tensor.channel_tile`). Parameter gradients are summed
    over the batch and spatial positions.

    The forward is ``_zc_swish_blocks``; ``s``, ``core`` and the output
    are full-size, as the backward reads them. A call that will not be
    recorded (no active tape, or nothing requiring a gradient, as in
    every evaluation batch) writes ``s`` and ``core`` into the output
    itself, as :func:`zc_swish_eval` does. The backward walks the same
    blocks (``_walk_blocks``): the x-gradient term is added into its
    block of ``x.grad``, and the c and beta products always fill
    full-size arrays that :func:`~actlab.tensor.channel_sum` sums whole;
    each parameter's gradient is added only when that tensor requires
    one. Each product keeps one operand order whatever the array's size,
    so the bits, the sign of a NaN in ``c.grad`` included, depend on
    neither the blocking nor the batch size.
    """
    if x.ndim not in (2, 4):
        raise ShapeError(f"zc_swish input must be [N,C] or [N,C,H,W], got shape {x.shape}")
    channels = x.shape[1]
    if channels != params.channels:
        raise ShapeError(f"channel mismatch: input has C={channels}, params carry C={params.channels}")
    same_dtype(x, *params.tensors())

    d = x.data
    c, gain = params.c.data, params.g.data
    beta = softplus(params.beta_raw.data)
    q, cq = _anchor_term(c, beta)
    c_t, beta_t, gain_t, cq_t = (channel_tile(p, d) for p in (c, beta, gain, cq))
    inputs = (x, params.c, params.beta_raw, params.g)
    taped = will_record(inputs)
    out = np.empty_like(d)
    s, core = (np.empty_like(d), np.empty_like(d)) if taped else (out, out)
    _zc_swish_blocks(d, c_t, beta_t, gain_t, cq_t, s, core, out)
    if not taped:
        return Tensor(out)

    def backward_fn(gout: np.ndarray):
        # u = x - c is not kept from the forward but recomputed here by
        # the same op on the same operands, so it has the same bits. That
        # holds because no op writes into a forward output: d is still
        # the input the forward saw.
        dc, db = np.empty_like(gout), np.empty_like(gout)
        for blk, (u, gg, bu, sp, t, a) in _walk_blocks(d, 6):
            sb = s[blk]
            np.subtract(d[blk], c_t, out=u)
            np.multiply(gout[blk], gain_t, out=gg)
            np.multiply(beta_t, u, out=bu)
            np.subtract(1.0, sb, out=sp)  # 1 - s, until sp below
            if x.requires_grad:  # gout*g * s * (beta*u * (1 - s) + 1)
                np.multiply(gg, sb, out=a)
                np.multiply(bu, sp, out=t)
                np.add(t, 1.0, out=t)
                np.multiply(a, t, out=a)
                np.add(x.grad[blk], a, out=x.grad[blk])
            np.multiply(sp, sb, out=sp)  # sp = (1 - s) * s
            # c: gout*g * -(beta*u * sp + s)
            np.multiply(bu, sp, out=t)
            np.add(t, sb, out=t)
            np.negative(t, out=t)
            np.multiply(gg, t, out=dc[blk])
            # beta: gout*g * (u * u * sp)
            np.multiply(u, u, out=t)
            np.multiply(t, sp, out=t)
            np.multiply(gg, t, out=db[blk])
        gsum = channel_sum(gout)
        qp = q * (1.0 - q)
        if params.c.requires_grad:
            params.c.grad += channel_sum(dc) + gsum * gain * (q - beta * c * qp)
        if params.beta_raw.requires_grad:
            dbeta = channel_sum(db) - gsum * gain * (c * c * qp)
            params.beta_raw.grad += dbeta * sigmoid(params.beta_raw.data)
        if params.g.requires_grad:
            params.g.grad += channel_sum(gout * core)

    return record_op(Tensor(out), inputs, backward_fn)


def apply_activation(x: Tensor, kind: ActivationKind, params: ZCSwishParams | None = None) -> Tensor:
    """Run ``kind``'s formula on ``x`` and record it on the active tape.
    zc_swish needs its per-channel triple ``params``."""
    if kind is ActivationKind.ZCSWISH:
        if params is None:
            raise ValueError("zc_swish needs its parameter triple")
        return _record_zc_swish(x, params)
    forward, dx = FORMULAS[kind]
    out, saved = forward(x.data)

    def backward_fn(g: np.ndarray):
        if x.requires_grad:
            x.grad += g * dx(*saved)

    return record_op(Tensor(out), (x,), backward_fn)


# ---------------------------------------------------------------------------
# array path (the drift experiment, curve dumps, the centering oracle)
# ---------------------------------------------------------------------------


def _float_array(x) -> np.ndarray:
    x = np.asarray(x)
    return x if x.dtype in (np.float32, np.float64) else x.astype(np.float64)


def activation_eval(kind: ActivationKind, x) -> np.ndarray:
    """``kind`` on a plain array, zc_swish at its initial parameter triple."""
    if kind is ActivationKind.ZCSWISH:
        return zc_swish_eval(x)
    return FORMULAS[kind][0](_float_array(x))[0]


def zc_swish_eval(x, c: float = C_INIT, beta: float | None = None, g: float = G_INIT, out: np.ndarray | None = None):
    """Scalar-parameter zero-centered swish on a plain array.

    Parameters are cast to the array's dtype; ``beta=None`` means
    softplus(BETA_RAW_INIT), so the defaults reproduce the initial
    learnable triple. The constant c * sigmoid(-beta*c) is computed once
    per call, and the forward is ``_zc_swish_blocks``, straight into
    ``out``. ``out`` must have x's shape and dtype; it is filled and
    returned. Without ``out`` the result is a new array in x's memory
    layout (a numpy scalar for a 0-d x).
    """
    x = _float_array(x)
    scalar = x.dtype.type
    if beta is None:
        beta = softplus(scalar(BETA_RAW_INIT))
    c, beta, g = scalar(c), scalar(beta), scalar(g)
    given = out is not None
    if not given:
        out = np.empty_like(x)
    elif out.shape != x.shape or out.dtype != x.dtype:
        raise ValueError(f"out must have shape {x.shape} and dtype {x.dtype}, got {out.shape} and {out.dtype}")
    f = np.atleast_1d(out)  # a view of out; a 0-d x is one sample
    _zc_swish_blocks(np.atleast_1d(x), c, beta, g, _anchor_term(c, beta)[1], f, f, f)
    return out[()] if x.ndim == 0 and not given else out


@functools.cache
def normal_quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w of 101-node Gauss-Hermite quadrature for the
    standard normal: E[h(z)] ~= sum(w * h(z)) for z ~ N(0, 1). Computed
    once, as ``hermgauss`` solves an eigenproblem on every call; both
    arrays are read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(101)
    z = np.sqrt(2.0) * nodes
    w = weights / np.sqrt(np.pi)
    z.flags.writeable = w.flags.writeable = False
    return z, w


@dataclass
class CenteringResult:
    """Outcome of the offline centering search (never raises for no-root).

    ``iterations`` counts the mean evaluations of the root polish,
    ``evaluations`` every mean evaluation of the solve."""

    c: float
    mean_at_c: float
    converged: bool
    iterations: int
    note: str = ""
    evaluations: int = 0


_GRID_POINTS = 129  # c values of the predicted bracket scan
_MAX_CANDIDATES = 3  # predicted sign changes or dips checked on the sample, best first
_MAX_WIDENINGS = 8  # doubling steps away from a predicted bracket without a sample sign change
_MAX_DIP_STEPS = 4  # downhill or parabola steps on the sample's mean near a predicted dip
_MAX_ITERATIONS = 100  # Brent steps


def _predicted_mean_and_std(c: np.ndarray, nodes: np.ndarray, weights: np.ndarray, beta: float):
    """The weighted mean and std of f(nodes; c, beta, 1) at every anchor in
    ``c``: one run of the forward chain on a [len(c), len(nodes)] array."""
    c = c[:, None]
    u, t, f = (np.empty((c.size, nodes.size)) for _ in range(3))
    _zc_swish_into(nodes, c, beta, 1.0, _anchor_term(c, beta)[1], u, t, np.empty_like(u, dtype=bool), f, f, f)
    m1 = f @ weights
    m2 = (f * f) @ weights
    return m1, np.sqrt(np.maximum(m2 - m1 * m1, 0.0))


def find_centering_anchor(sample, beta: float = 1.0, tol: float = 1e-8) -> CenteringResult:
    """Find the anchor c that zeroes the sample mean of zc_swish.

    The bracket is predicted, not scanned on the sample. Under a Gaussian
    with the sample's mean and std (the wide-network view of a site), the
    mean and std of f(z; c, beta, g=1) follow by 101-node Gauss-Hermite
    quadrature on a grid of c spanning +-max(10*std, 8/beta), in one call
    of the formula on a small [grid, nodes] array; a sample of at most 101
    values is its own quadrature, so its prediction is exact. The cells
    where the predicted mean changes sign are candidates, the one with
    the largest predicted output std first (ties go to the smaller |c|):
    a zero-mean site has a root that keeps the signal's scale (c < 0) and
    one that squashes it (c > 0). With a positive sample mean the roots
    that keep std exist only where the mean dips below zero left of its
    peak; when the predicted dip is within 3 standard errors of zero, the
    sample's own mean is searched near it instead (at most
    ``_MAX_DIP_STEPS`` downhill or parabola steps).

    Each candidate is checked on the full sample. Where the sample's mean
    has one sign at both ends of a cell, the bracket steps, doubling in
    width, to the side where the predicted mean has the other sign, at
    most ``_MAX_WIDENINGS`` times; then the next candidate is tried, up to
    ``_MAX_CANDIDATES``. Brent's method (Brent 1973) polishes a bracketed
    root until |mean| < tol; a bracket end already within tol is taken as
    it is. Every sample-mean evaluation is one ``zc_swish_eval`` call into
    one reused buffer, and ``evaluations`` in the result counts them.

    No sign change, a bracket that shrinks to float resolution and the
    step cap are reported in the result's note, not raised. So is an
    anchor whose mean is 0 only because every output of a sample that is
    not all zero has underflowed or rounded to 0 (checked only where the
    mean is exactly 0, so a solve pays no extra pass): it is not
    converged. A non-finite
    or non-positive ``beta`` or ``tol``, an empty sample, a non-finite
    sample value (named by its index) and a sample whose std overflows
    float64 raise ``ValueError``.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    sample = np.asarray(sample, dtype=np.float64).ravel()
    if sample.size == 0:
        raise ValueError("sample is empty")
    finite = np.isfinite(sample)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"sample value at index {i} is {float(sample[i])}, not finite")
    beta, buf = float(beta), np.empty_like(sample)
    evaluations, closest = 0, (0.0, np.inf)  # the anchor with the smallest |mean| so far
    underflowed = set()  # anchors where every output is 0; the sample is not

    def mean_at(c: float) -> float:
        nonlocal evaluations, closest
        evaluations += 1
        f = float(np.mean(zc_swish_eval(sample, c=c, beta=beta, g=1.0, out=buf)))
        if f == 0.0 and not buf.any():
            underflowed.add(c)
        if abs(f) < abs(closest[1]):
            closest = (c, f)
        return f

    def result(c, f, converged, iterations, note=""):
        if c in underflowed:
            converged = False
            note = "; ".join(filter(None, (note, f"every output underflows or rounds to 0 at c = {c:.6g}")))
        return CenteringResult(c, f, converged, iterations, note, evaluations)

    if np.all(sample == 0.0):
        # f(0) == 0 for every parameter choice, so any anchor works.
        return result(0.0, 0.0, True, 0, "all-zero sample, mean is 0 for any c")

    with np.errstate(over="ignore"):  # an overflow is refused just below
        mu, sd = float(sample.mean()), float(sample.std())
    if not np.isfinite(sd):
        raise ValueError(f"sample std is not finite (it overflows float64): {sd}")
    if sd == 0.0:
        # a constant (or subnormal-spread) sample: no bracket to predict,
        # but c = 0 may already be within tol
        f0 = mean_at(0.0)
        if abs(f0) < tol:
            return result(0.0, f0, True, 0)
        return result(0.0, f0, False, 0, "degenerate constant sample, empty bracket")

    span = max(10.0 * sd, 8.0 / beta)
    grid = np.linspace(-span, span, _GRID_POINTS)
    z, w = normal_quadrature()
    if sample.size <= z.size:
        # no more values than quadrature nodes: the sample is its own
        # quadrature, and its predicted mean is its mean
        pm, ps = _predicted_mean_and_std(grid, sample, np.full(sample.size, 1.0 / sample.size), beta)
        noise = 0.0
    else:
        pm, ps = _predicted_mean_and_std(grid, mu + sd * z, w, beta)
        noise = 3.0 / np.sqrt(sample.size)  # standard errors of the sample mean, per unit output std
    width = float(grid[1] - grid[0])

    def step_out(c, f, direction):
        # from c, step away by doubling widths until the sample mean
        # changes sign or comes within tol
        w = width
        for _ in range(_MAX_WIDENINGS):
            c2 = c + direction * w
            f2 = mean_at(c2)
            if abs(f2) < tol or np.sign(f2) != np.sign(f):
                return c, f, c2, f2
            c, f, w = c2, f2, 2.0 * w
        return None

    def check_crossing(i):
        lo, hi = float(grid[i]), float(grid[i + 1])
        f_lo, f_hi = mean_at(lo), mean_at(hi)
        if min(abs(f_lo), abs(f_hi)) < tol or np.sign(f_lo) != np.sign(f_hi):
            return lo, f_lo, hi, f_hi
        # one sign at both ends: the sample's root lies on the side where
        # the predicted mean has the other sign
        if np.sign(f_lo) == np.sign(pm[i + 1]):
            return step_out(lo, f_lo, -1.0)
        return step_out(hi, f_hi, 1.0)

    def check_dip(j):
        # The sample's mean may dip below zero near the predicted dip. Keep
        # three points a < b < c with b the lowest, walking downhill with
        # doubling steps until they hold the minimum, then step to the
        # vertex of their parabola, until a point is below zero. From it,
        # step toward the peak for the root on that side.
        below = []

        def probe(c):
            f = mean_at(c)
            if f < tol:
                below.append((c, f))
            return f

        a, b, c = (float(grid[j + k]) for k in (-1, 0, 1))
        fb = probe(b)
        fa = fc = fb
        if not below:
            fa = probe(a)
        if not below:
            fc = probe(c)
        for _ in range(_MAX_DIP_STEPS):
            if below:
                break
            if fa < fb:
                a, b, c, fb, fc = a - 2.0 * (b - a), a, b, fa, fb
                fa = probe(a)
            elif fc < fb:
                a, b, c, fa, fb = b, c, c + 2.0 * (c - b), fb, fc
                fc = probe(c)
            else:
                p, q = (b - a) * (fb - fc), (b - c) * (fb - fa)
                v = b - 0.5 * ((b - a) * p - (b - c) * q) / (p - q) if p != q else b
                if not a < v < c or v == b:
                    break
                fv = probe(v)
                if fv < fb:
                    a, b, c, fa, fb, fc = (a, v, b, fa, fv, fb) if v < b else (b, v, c, fb, fv, fc)
                elif v < b:
                    a, fa = v, fv
                else:
                    c, fc = v, fv
        if not below:
            return None
        c, f = below[0]
        return (c, f, c, f) if abs(f) < tol else step_out(c, f, 1.0)

    # Candidates, the most predicted output std first, then the smaller |c|:
    # the cells where the predicted mean changes sign. With a positive
    # sample mean (the predicted mean's limit as c -> -inf), the roots
    # that keep std are where the predicted mean dips below zero left of
    # its peak. Where the dip is within 3 standard errors of zero, whether
    # and where the sample's mean crosses there is decided by the sample,
    # so the dip replaces the cells left of the peak.
    cells = np.flatnonzero(np.sign(pm[:-1]) != np.sign(pm[1:]))
    top = int(np.argmax(pm))
    dip = int(np.argmin(pm[:top])) if top > 1 else 0
    near_dip = mu > 0.0 and dip > 0 and abs(pm[dip]) < noise * ps[dip]
    if near_dip:
        cells = cells[cells >= top]
    candidates = [(0.5 * (ps[i] + ps[i + 1]), abs(grid[i] + grid[i + 1]) / 2, check_crossing, i) for i in cells]
    if near_dip:
        candidates.append((ps[dip], abs(grid[dip]), check_dip, dip))
    candidates.sort(key=lambda cand: (-cand[0], cand[1]))
    if not candidates:
        mean_at(float(grid[np.argmin(np.abs(pm))]))
        return result(*closest, False, 0, f"no sign change of the predicted mean on [{-span:.6g}, {span:.6g}]")
    for _, _, check, i in candidates[:_MAX_CANDIDATES]:
        found = check(i)
        if found is None:
            continue
        lo, f_lo, hi, f_hi = found
        if lo > hi:
            lo, f_lo, hi, f_hi = hi, f_hi, lo, f_lo
        c, f = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
        if abs(f) < tol:
            return result(c, f, True, 0)
        return _brent(mean_at, lo, hi, f_lo, f_hi, tol, result)
    return result(*closest, False, 0,
                  f"no sign change of the sample mean near the predicted roots on [{-span:.6g}, {span:.6g}]")


def _brent(f, a: float, b: float, fa: float, fb: float, tol: float, result) -> CenteringResult:
    """Brent's root polish of f on [a, b], where fa and fb differ in sign,
    until |f| < tol (Brent 1973, ch. 4; the zeroin form: inverse quadratic
    or secant steps kept inside the bracket, bisection otherwise)."""
    pre, cur, f_pre, f_cur = a, b, fa, fb
    blk, f_blk = pre, f_pre
    s_pre = s_cur = cur - pre
    for it in range(1, _MAX_ITERATIONS + 1):
        if np.sign(f_pre) != np.sign(f_cur):
            blk, f_blk = pre, f_pre
            s_pre = s_cur = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        if abs(f_cur) < tol:
            return result(cur, f_cur, True, it - 1)
        delta = 2.0 * np.finfo(np.float64).eps * max(abs(cur), 1.0)
        s_bis = 0.5 * (blk - cur)
        if abs(s_bis) < delta:
            return result(cur, f_cur, False, it - 1, "bracket shrank to float resolution")
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if pre == blk:  # secant
                s_try = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        pre, f_pre = cur, f_cur
        cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0 else -delta)
        f_cur = f(cur)
    return result(cur, f_cur, abs(f_cur) < tol, _MAX_ITERATIONS, "iteration cap reached")


def activation_curves(xs) -> dict[str, np.ndarray]:
    """Columns for the baseline comparison curve: all four activations on
    one grid, zc_swish at its initial parameter triple."""
    xs = np.asarray(xs, dtype=np.float64)
    return {"x": xs, **{kind.value: activation_eval(kind, xs) for kind in ActivationKind}}
