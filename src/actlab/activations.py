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

Every forward formula lives in one table, ``FORMULAS``, keyed by
:class:`ActivationKind`. An entry maps plain arrays to the output and the
intermediate terms that the backward pass reuses. Two paths call it:

* the Tensor path, :func:`apply_activation`, records the op on the
  active tape; derivatives are computed only in its backward pass;
* the array path, :func:`activation_eval` and :func:`zc_swish_eval`,
  serves the drift experiment, its init calibration, the curve dumps
  and the centering oracle.

So both paths give the same bits for the same input and parameters.

gelu uses the tanh approximation
0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))). It stays within
1e-3 of the erf form, which is negligible at the accuracy scales measured
here, and avoids a special-function dependency in the hot path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from actlab.tensor import DEFAULT_DTYPE, ShapeError, Tensor, channel_sum, record_op

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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, float32 or float64.

    With e = exp(-|x|), it is 1 / (1 + e) where x >= 0 and e / (1 + e)
    elsewhere (NaN included), so exp never overflows. Every step is an
    elementwise ufunc in x's dtype, so each element is that one IEEE
    division whatever the array's size or layout; the result has x's
    shape and dtype (a 0-d array for a scalar).
    """
    x = np.asarray(x)
    out = np.negative(x, out=np.empty_like(x))
    np.minimum(x, out, out=out)  # -|x|; a NaN keeps x's own bits
    np.exp(out, out=out)  # e: in [0, 1], or NaN
    den = np.add(out, 1.0, out=np.empty_like(out))
    # The numerator: 1 where x >= 0, as e <= 1 there; e (or its NaN) elsewhere.
    np.maximum(out, x >= 0, out=out)
    np.divide(out, den, out=out)
    return out


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
# the formula table: plain arrays in, (output, terms the backward reuses) out
# ---------------------------------------------------------------------------


def _gelu_constants(dt):
    return dt.type(_GELU_K), dt.type(_GELU_A), dt.type(0.5)


def _relu(x):
    return np.maximum(x.dtype.type(0.0), x), ()


def _gelu(x):
    k, a, half = _gelu_constants(x.dtype)
    t = np.tanh(k * (x + a * x * x * x))
    return half * x * (1.0 + t), (t,)


def _swish(x):
    s = sigmoid(x)
    return x * s, (s,)


def _zc_swish(x, c, beta, g):
    """c, beta and g are scalars or per-channel views broadcasting over x.
    At x = 0, beta * u is -(beta * c) bit for bit, so f(0) == 0 exactly."""
    u = x - c
    s = sigmoid(beta * u)
    q = sigmoid(-(beta * c))
    core = u * s + c * q
    return g * core, (s, q, core)


FORMULAS = {
    ActivationKind.RELU: _relu,
    ActivationKind.GELU: _gelu,
    ActivationKind.SWISH: _swish,
    ActivationKind.ZCSWISH: _zc_swish,
}

# df/dx of the stateless kinds, from x and the terms their forward saved.
# zc_swish's backward also feeds its parameters; it is in _record_zc_swish.


def _relu_dx(x):
    return (x > 0).astype(x.dtype)


def _gelu_dx(x, t):
    k, a, half = _gelu_constants(x.dtype)
    return half * (1.0 + t) + half * x * (1.0 - t * t) * k * (1.0 + 3.0 * a * x * x)


def _swish_dx(x, s):
    return s * (1.0 + x * (1.0 - s))


_DX = {ActivationKind.RELU: _relu_dx, ActivationKind.GELU: _gelu_dx, ActivationKind.SWISH: _swish_dx}


# ---------------------------------------------------------------------------
# Tensor path
# ---------------------------------------------------------------------------


def _record_zc_swish(x: Tensor, params: ZCSwishParams) -> Tensor:
    """Per-channel zero-centered swish, recorded with all four gradients.

    x is [N, C] or [N, C, H, W] with C equal to ``params.channels``.
    Parameter gradients are summed over the batch and spatial positions.
    The per-channel constant c * sigmoid(-beta*c) is recomputed on every
    call, because the parameters move every optimization step.
    """
    if x.ndim not in (2, 4):
        raise ShapeError(f"zc_swish input must be [N,C] or [N,C,H,W], got shape {x.shape}")
    channels = x.shape[1]
    if channels != params.channels:
        raise ShapeError(f"channel mismatch: input has C={channels}, params carry C={params.channels}")

    d = x.data
    dt = d.dtype
    view = (1, -1) if d.ndim == 2 else (1, -1, 1, 1)
    c = params.c.data.astype(dt, copy=False)
    beta = softplus(params.beta_raw.data.astype(dt, copy=False))
    gain = params.g.data.astype(dt, copy=False)

    def tile(p: np.ndarray) -> np.ndarray:
        # One sample of per-channel values in d's own memory layout, so each
        # elementwise op's inner loop runs over a whole sample rather than C
        # elements (for channels-last d). The values, and so the bits, are
        # those of the (1, C, 1, 1) broadcast.
        t = np.empty_like(d, shape=(1,) + d.shape[1:])
        t[...] = p.reshape(view)
        return t

    c_t, beta_t, gain_t = tile(c), tile(beta), tile(gain)
    out, (s, q, core) = _zc_swish(d, c_t, beta_t, gain_t)
    q = q[0] if q.ndim == 2 else q[0, :, 0, 0]  # per channel

    def backward_fn(gout: np.ndarray):
        # u = x - c is not kept from the forward but recomputed here by the
        # same op on the same operands, so it has the same bits. That holds
        # because no op writes into a forward output: d is still the input
        # the forward saw.
        u = d - c_t
        if x.requires_grad:
            x.grad += gout * gain_t * s * (1.0 + beta_t * u * (1.0 - s))
        need_c = params.c.requires_grad
        need_b = params.beta_raw.requires_grad
        need_g = params.g.requires_grad
        if not (need_c or need_b or need_g):
            return
        sp = s * (1.0 - s)
        gsum = channel_sum(gout)
        qp = q * (1.0 - q)
        if need_c:
            main = channel_sum(gout * gain_t * -(s + beta_t * u * sp))
            const = gsum * gain * (q - beta * c * qp)
            params.c.grad += main + const
        if need_b:
            main = channel_sum(gout * gain_t * (u * u * sp))
            const = gsum * gain * (c * c * qp)
            dbeta = main - const
            params.beta_raw.grad += dbeta * sigmoid(params.beta_raw.data.astype(dt, copy=False))
        if need_g:
            params.g.grad += channel_sum(gout * core)

    return record_op(Tensor(out), (x, params.c, params.beta_raw, params.g), backward_fn)


def apply_activation(x: Tensor, kind: ActivationKind, params: ZCSwishParams | None = None) -> Tensor:
    """Run ``kind``'s formula on ``x`` and record it on the active tape.
    zc_swish needs its per-channel triple ``params``."""
    if kind is ActivationKind.ZCSWISH:
        if params is None:
            raise ValueError("zc_swish needs its parameter triple")
        return _record_zc_swish(x, params)
    d = x.data
    out, saved = FORMULAS[kind](d)
    dx = _DX[kind]

    def backward_fn(g: np.ndarray):
        if x.requires_grad:
            x.grad += g * dx(d, *saved)

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
    return FORMULAS[kind](_float_array(x))[0]


def zc_swish_eval(x, c: float = C_INIT, beta: float | None = None, g: float = G_INIT):
    """Scalar-parameter zero-centered swish on a plain array.

    Parameters are cast to the array's dtype; ``beta=None`` means
    softplus(BETA_RAW_INIT), so the defaults reproduce the initial
    learnable triple.
    """
    x = _float_array(x)
    scalar = x.dtype.type
    if beta is None:
        beta = softplus(scalar(BETA_RAW_INIT))
    return _zc_swish(x, scalar(c), scalar(beta), scalar(g))[0]


@dataclass
class CenteringResult:
    """Outcome of the offline centering search (never raises for no-root)."""

    c: float
    mean_at_c: float
    converged: bool
    bracket: tuple[float, float]
    iterations: int
    note: str = ""


_MAX_BISECTIONS = 200


def find_centering_anchor(sample, beta: float = 1.0, tol: float = 1e-8) -> CenteringResult:
    """Find the anchor c that zeroes the sample mean of zc_swish.

    Bisects mean(f(sample; c, beta, g=1)) over c in [-10*std, +10*std] of
    the sample until |mean| < tol, for at most ``_MAX_BISECTIONS``
    halvings. A bracket without a sign change is reported in the result,
    not raised.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sample = np.asarray(sample, dtype=np.float64).ravel()
    if sample.size == 0:
        raise ValueError("sample is empty")

    def mean_at(c: float) -> float:
        return float(np.mean(zc_swish_eval(sample, c=c, beta=beta, g=1.0)))

    if np.all(sample == 0.0):
        # f(0) == 0 for every parameter choice, so any anchor works.
        return CenteringResult(0.0, 0.0, True, (0.0, 0.0), 0, "all-zero sample, mean is 0 for any c")

    sd = float(sample.std())
    lo, hi = -10.0 * sd, 10.0 * sd
    if sd == 0.0:
        return CenteringResult(0.0, mean_at(0.0), False, (lo, hi), 0, "degenerate constant sample, empty bracket")

    f_lo, f_hi = mean_at(lo), mean_at(hi)
    if f_lo == 0.0:
        return CenteringResult(lo, f_lo, True, (lo, hi), 0)
    if f_hi == 0.0:
        return CenteringResult(hi, f_hi, True, (lo, hi), 0)
    if np.sign(f_lo) == np.sign(f_hi):
        # one coarse scan for an interior sign change before giving up
        grid = np.linspace(lo, hi, 65)
        vals = [mean_at(float(gc)) for gc in grid]
        found = False
        for i in range(len(grid) - 1):
            if np.sign(vals[i]) != np.sign(vals[i + 1]):
                lo, hi, f_lo, f_hi = float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1]
                found = True
                break
        if not found:
            best = int(np.argmin(np.abs(vals)))
            return CenteringResult(
                float(grid[best]),
                vals[best],
                False,
                (-10.0 * sd, 10.0 * sd),
                0,
                f"no sign change of mean(f) on [-10*std, +10*std] = [{-10.0 * sd:.6g}, {10.0 * sd:.6g}]",
            )

    c_mid, f_mid = lo, f_lo
    for it in range(1, _MAX_BISECTIONS + 1):
        c_mid = 0.5 * (lo + hi)
        f_mid = mean_at(c_mid)
        if abs(f_mid) < tol:
            return CenteringResult(c_mid, f_mid, True, (lo, hi), it)
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = c_mid, f_mid
        else:
            hi, f_hi = c_mid, f_mid
    return CenteringResult(c_mid, f_mid, abs(f_mid) < tol, (lo, hi), _MAX_BISECTIONS, "iteration cap reached")


def activation_curves(xs) -> dict[str, np.ndarray]:
    """Columns for the baseline comparison curve: all four activations on
    one grid, zc_swish at its initial parameter triple."""
    xs = np.asarray(xs, dtype=np.float64)
    return {"x": xs, **{kind.value: activation_eval(kind, xs) for kind in ActivationKind}}
