"""Dense-tensor engine with reverse-mode automatic differentiation.

Covers exactly what a plain convolutional classifier needs: 3x3
same-padding convolution, 2x2 max pooling, affine layers, inverted
dropout, softmax cross-entropy, and a few elementwise helpers. Forward
operations are recorded on an explicit :class:`Tape`; calling
``tape.backward(loss)`` replays the records in reverse and accumulates
gradients additively into ``Tensor.grad``. The replay consumes the tape:
a tensor's gradient is allocated when the first record that touches it
is replayed, and each record, with the arrays its backward closure
saved, is released as soon as its replay returns, so a backward pass
never holds all of the forward state and all of the gradients at once.
An op that will not be recorded (no active tape, or no input that
requires a gradient) keeps nothing for a backward.

Two kernel families exist for conv2d and linear, selected by dtype:

* float32 (the training path): one BLAS GEMM per pass. conv2d builds its
  patch matrix from a channels-last padded input with 9 slice copies and
  returns a channels-last view of the GEMM result. The 9 copies, and the 9
  adds that scatter the patch gradient back, run over the
  :func:`sample_blocks` of the patch buffer. On a tape made with
  ``Tape(keep_patches=True)`` the patch matrix is kept for the weight
  gradient; on any other tape the backward rebuilds it from the input,
  with the same bytes.
* float64 (the verification path): fixed-order accumulation whose
  summation order matches a naive nested-loop evaluation bit for bit,
  and whose per-sample results are independent of the rest of the batch.

All other operations are elementwise or per-sample and therefore exact
and batch-independent in both dtypes.

Per-channel sums over the batch and spatial axes (the bias gradients,
zc_swish's parameter gradients) go through :func:`channel_sum`. It
keeps the bits of numpy's ``.sum``, which adds each channel sequentially
in memory order when the channel axis has unit stride (channels-last
data), and runs that case as one vectorised einsum loop instead of a loop
C elements long. Backward passes work in the data's own memory layout,
so the gradient of a channels-last output is channels-last too.
Per-channel values that enter an elementwise op (conv2d's bias,
zc_swish's parameters) are laid out to match by :func:`channel_tile`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

__all__ = [
    "DEFAULT_DTYPE",
    "ShapeError",
    "Tensor",
    "Tape",
    "record_op",
    "will_record",
    "add",
    "mul",
    "scale",
    "tsum",
    "reshape",
    "channel_sum",
    "channel_tile",
    "sample_blocks",
    "same_dtype",
    "conv2d",
    "maxpool2",
    "linear",
    "dropout",
    "softmax_cross_entropy",
    "gradcheck",
]


class ShapeError(ValueError):
    """An operation received tensors of incompatible shape."""


class Tensor:
    """Dense N-dimensional float array with optional gradient storage.

    ``data`` is always a float32 or float64 numpy array; anything else is
    cast to the package default (float32). ``grad`` starts as None and is
    allocated by the first backward pass that touches this tensor.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


_tapes: list["Tape"] = []  # active tapes, innermost last


class Tape:
    """Ordered record of forward operations for one backward pass.

    Use as a context manager; operations executed inside the block whose
    inputs require gradients are recorded. Backward traversal visits the
    records in exact reverse order of recording, and a tensor consumed k
    times receives the sum of its k contributions.

    Tapes nest: operations are recorded on the innermost active tape. The
    stack of active tapes is one per process, so record and run backward
    from one thread.

    A tape replays once. :meth:`backward` pops each record as it replays
    it and drops it when its ``backward_fn`` returns, so the arrays that
    op saved for its backward are freed while the pass still runs, and a
    tensor's gradient is allocated (``zeros_like``, in the data's own
    layout) only when the first record that touches it is replayed. A
    second call raises ``RuntimeError``.

    ``keep_patches`` trades memory for time: a float32 conv2d whose weight
    requires a gradient keeps its forward's patch matrix until its record
    replays, rather than rebuilding it there, and writes the input's patch
    gradient into it. A keeping training step holds about twice the live
    memory of a step on a default tape (1.8 to 2.2 times, traced); the
    layer-stats probe and gradcheck never keep. Either way the bits are
    the same.
    """

    def __init__(self, keep_patches: bool = False):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], None]]] = []
        self._replayed = False
        self.keep_patches = keep_patches

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tapes.pop()
        return False

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable[[np.ndarray], None]):
        self._records.append((output, tuple(inputs), backward_fn))

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/dt into ``t.grad`` for tensors on this tape.

        ``loss`` must be a scalar. Tensors recorded on the tape that do
        not influence the loss end up with all-zero gradients. The records
        are consumed: the tape is empty afterwards and cannot replay again.
        """
        if loss.data.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if self._replayed:
            raise RuntimeError("this tape was already replayed; record the forward pass on a new Tape")
        self._replayed = True
        ones = np.ones_like(loss.data)
        loss.grad = ones if loss.grad is None else loss.grad + ones
        records = self._records
        while records:
            out, inputs, backward_fn = records.pop()
            for t in (out, *inputs):
                if t.grad is None and t.requires_grad:
                    t.grad = np.zeros_like(t.data)
            backward_fn(out.grad)
            del out, inputs, backward_fn  # the closure's saved arrays go now


def will_record(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` is recorded: a tape is active and an
    input requires a gradient. An op that will not be recorded need keep
    nothing for a backward."""
    return bool(_tapes) and any(t.requires_grad for t in inputs)


def record_op(output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Attach ``output`` to the innermost active tape, if gradients are wanted."""
    if will_record(inputs):
        output.requires_grad = True
        _tapes[-1].record(output, inputs, backward_fn)
    return output


def _check(cond: bool, msg: str):
    if not cond:
        raise ShapeError(msg)


def same_dtype(*tensors: Tensor):
    """Raise :class:`ShapeError` unless every tensor has the first one's dtype."""
    dtype = tensors[0].data.dtype
    if any(t.data.dtype != dtype for t in tensors[1:]):
        dtypes = {t.data.dtype for t in tensors}
        raise ShapeError(f"operands must share one dtype, got {sorted(str(d) for d in dtypes)}")


def channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of an [N, C] or [N, C, H, W] array, over every other
    axis: the bits of ``a.sum(axis=0)`` or ``a.sum(axis=(0, 2, 3))``.

    With the channel axis innermost in memory, ``.sum`` adds each channel
    sequentially in memory order, but its inner loop is only C elements
    long. ``einsum`` adds in that same order with a vectorised loop, so it
    is used exactly there: C >= 2 and unit channel stride. Anywhere else
    (NCHW-contiguous, or C = 1) ``.sum`` adds pairwise along the innermost
    axis, and einsum's order, and so its bits, would differ.

    einsum's vector lanes add (element + running sum) where ``.sum`` adds
    (running sum + element). IEEE addition is commutative except in which
    operand's NaN a NaN + NaN passes on, so the two differ only in the sign
    or payload of a NaN total; a NaN total is summed again by ``.sum``.
    """
    if a.shape[1] >= 2 and a.strides[1] == a.itemsize:
        out = np.einsum("nc->c" if a.ndim == 2 else "nchw->c", a)
        if not np.isnan(out).any():
            return out
    return a.sum(axis=0 if a.ndim == 2 else (0, 2, 3))


def channel_tile(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One sample of the per-channel ``values`` [C] in ``like``'s dtype and
    memory layout: a (1, C) or (1, C, H, W) array holding the values of the
    (1, C) or (1, C, 1, 1) broadcast. An elementwise op between ``like``
    and the tile then runs its inner loop over a whole sample rather than
    over C elements when ``like`` is channels-last, and each element sees
    the same operands, so the same bits, as with the broadcast.
    """
    tile = np.empty_like(like, shape=(1,) + like.shape[1:])
    tile[...] = values.reshape((1, -1) + (1,) * (like.ndim - 2))
    return tile


def sample_blocks(a: np.ndarray, block_bytes: int) -> list[slice]:
    """Consecutive slices of ``a``'s first axis (its samples), each as many
    whole samples as fit in ``block_bytes`` of ``a``, and at least one; only
    the last may be shorter. An empty first axis gives no slices.

    Every pass blocked for cache runs over these: conv2d's patch copies and
    adds, zc_swish's forward and backward, and zc_swish on plain arrays,
    whose first axis is the element axis of a 1-d array. Each element sees
    the same operations whatever the block size, so no bit depends on it.
    """
    n = a.shape[0]
    step = max(1, block_bytes * n // max(a.nbytes, 1))  # block_bytes // bytes per sample
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check(a.shape == b.shape, f"add needs matching shapes, got {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def backward_fn(g: np.ndarray):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g

    return record_op(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check(a.shape == b.shape, f"mul needs matching shapes, got {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def backward_fn(g: np.ndarray):
        if a.requires_grad:
            a.grad += g * b.data
        if b.requires_grad:
            b.grad += g * a.data

    return record_op(out, (a, b), backward_fn)


def scale(a: Tensor, k: float) -> Tensor:
    out = Tensor(a.data * a.data.dtype.type(k))

    def backward_fn(g: np.ndarray):
        if a.requires_grad:
            a.grad += g * a.data.dtype.type(k)

    return record_op(out, (a,), backward_fn)


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(np.sum(a.data))

    def backward_fn(g: np.ndarray):
        if a.requires_grad:
            a.grad += g

    return record_op(out, (a,), backward_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward_fn(g: np.ndarray):
        if a.requires_grad:
            a.grad += g.reshape(a.shape)

    return record_op(out, (a,), backward_fn)


# ---------------------------------------------------------------------------
# conv2d: 3x3, stride 1, zero padding 1
# ---------------------------------------------------------------------------


def _pad1(x: np.ndarray) -> np.ndarray:
    """[N, C, H, W] input -> (N, H+2, W+2, C) channels-last, zero border of 1."""
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2, w + 2, c), dtype=x.dtype)
    xp[:, 1 : h + 1, 1 : w + 1, :] = x.transpose(0, 2, 3, 1)
    return xp


_CHUNK_BYTES = 512 * 1024  # patch-buffer bytes per im2col / col2im block


def _im2col(xp: np.ndarray, h: int, w: int) -> np.ndarray:
    """(N, H+2, W+2, C) padded input -> C-contiguous (N*H*W, C*9) patch matrix.

    Each of the 9 kernel taps is one slice copy into an (N, H, W, C, 3, 3)
    buffer, whose reshape to the matrix is free. Column order is (channel,
    kernel row, kernel col) row-major, matching ``weight.reshape(c_out, -1)``.
    The copies run over the buffer's :func:`sample_blocks` of
    ``_CHUNK_BYTES``, all 9 taps of one block while it is still in cache;
    the bytes are the same as 9 whole-buffer copies.
    """
    n, c = xp.shape[0], xp.shape[3]
    cols = np.empty((n, h, w, c, 3, 3), dtype=xp.dtype)
    for blk in sample_blocks(cols, _CHUNK_BYTES):
        for kh in range(3):
            for kw in range(3):
                cols[blk, ..., kh, kw] = xp[blk, kh : kh + h, kw : kw + w, :]
    return cols.reshape(n * h * w, c * 9)


def _conv_forward_exact(xp: np.ndarray, w: np.ndarray, b: np.ndarray, h: int, wd: int) -> np.ndarray:
    # One fused multiply-accumulate per kernel tap, in (c_in, kh, kw) order.
    # Summation order is therefore identical to a scalar nested loop that
    # starts from the bias, which makes the result bitwise comparable to a
    # brute-force oracle and independent of batch composition.
    n = xp.shape[0]
    c_out = w.shape[0]
    out = np.broadcast_to(b.reshape(1, c_out, 1, 1), (n, c_out, h, wd)).astype(xp.dtype).copy()
    for ci in range(w.shape[1]):
        for kh in range(3):
            for kw in range(3):
                out += w[:, ci, kh, kw].reshape(1, c_out, 1, 1) * xp[:, None, kh : kh + h, kw : kw + wd, ci]
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """3x3 cross-correlation with stride 1 and zero padding 1.

    Shapes: x [N, C_in, H, W], weight [C_out, C_in, 3, 3], bias [C_out];
    output [N, C_out, H, W]. Backward fills gradients for all three
    inputs. In float32 the output is channels-last in memory (a transposed
    view of the (N*H*W, C_out) GEMM result).
    """
    _check(x.ndim == 4, f"conv2d input must be 4-d [N,C,H,W], got shape {x.shape}")
    n, c_in, h, w = x.shape
    _check(
        weight.ndim == 4 and weight.shape[2:] == (3, 3),
        f"conv2d weight must be [C_out,C_in,3,3], got shape {weight.shape}",
    )
    _check(
        weight.shape[1] == c_in,
        f"conv2d channel mismatch: input has C_in={c_in}, weight expects C_in={weight.shape[1]}",
    )
    c_out = weight.shape[0]
    _check(bias.shape == (c_out,), f"conv2d bias must have shape ({c_out},), got {bias.shape}")
    _check(h >= 1 and w >= 1, f"conv2d spatial dims must be >= 1, got {h}x{w}")
    same_dtype(x, weight, bias)

    xp = _pad1(x.data)
    kept = None  # the patch matrix, kept for the backward on a keeping tape
    if x.data.dtype == np.float64:
        out_data = _conv_forward_exact(xp, weight.data, bias.data, h, w)
    else:
        cols = _im2col(xp, h, w)
        out_data = cols @ weight.data.reshape(c_out, c_in * 9).T
        out_data = out_data.reshape(n, h, w, c_out).transpose(0, 3, 1, 2)
        out_data += channel_tile(bias.data, out_data)
        if weight.requires_grad and _tapes and _tapes[-1].keep_patches:
            kept = cols
    out = Tensor(out_data)

    def backward_fn(g: np.ndarray):
        gmat = g.transpose(0, 2, 3, 1).reshape(n * h * w, c_out)
        cols = None  # a patch-matrix buffer the patch gradient may reuse
        if weight.requires_grad:
            # Unless the tape keeps it, the patch matrix is rebuilt from
            # x.data, which no op writes into, so it has the forward's bytes.
            cols = _im2col(_pad1(x.data), h, w) if kept is None else kept
            weight.grad += (gmat.T @ cols).reshape(c_out, c_in, 3, 3)
        if bias.requires_grad:
            bias.grad += channel_sum(g)
        if x.requires_grad:
            # over the patch matrix when there is one, so no second is made
            gcols = np.matmul(gmat, weight.data.reshape(c_out, c_in * 9), out=cols)
            gcols = gcols.reshape(n, h, w, c_in, 3, 3)
            gxp = np.zeros((n, h + 2, w + 2, c_in), dtype=x.dtype)
            for blk in sample_blocks(gcols, _CHUNK_BYTES):
                for kh in range(3):
                    for kw in range(3):
                        gxp[blk, kh : kh + h, kw : kw + w, :] += gcols[blk, ..., kh, kw]
            x.grad += gxp[:, 1 : h + 1, 1 : w + 1, :].transpose(0, 3, 1, 2)

    return record_op(out, (x, weight, bias), backward_fn)


# ---------------------------------------------------------------------------
# max pooling 2x2, stride 2
# ---------------------------------------------------------------------------


_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major scan order of a 2x2 window


def _first_match(q: np.ndarray, m: np.ndarray, nan: bool) -> np.ndarray:
    """Where ``q`` holds the window maximum ``m``: equality, or any NaN when
    the window has one (a NaN quarter always makes ``m`` NaN)."""
    hit = q == m
    if nan:
        hit |= q != q
    return hit


def maxpool2(x: Tensor) -> Tensor:
    """2x2 window maximum with stride 2.

    The output is the window element that ``argmax`` over the row-major
    scan (top-left, top-right, bottom-left, bottom-right) would pick:
    ties go to the first element, which fixes the sign of a zero maximum,
    and NaN counts as the largest value, the first NaN winning. Backward
    routes the incoming gradient to that same element and adds 0 to the
    other three.

    The forward pass is a ``np.maximum`` tournament over the four strided
    quarter views. ``np.maximum`` may return either operand of a tie, which
    only shows in the bits of a +0/-0 tie or of a NaN, so only windows whose
    maximum is NaN, or is zero while ``x`` holds a set sign bit, are picked
    again by the first-wins rule.

    The backward pass writes the gradient as integer bit patterns into an
    array with ``x``'s memory layout (channels-last after a conv) whose H
    and W axes are split into windows by a view, so the add into
    ``x.grad``, which has that layout too, streams through both in one
    order. When the output gradient holds a NaN, a channels-last gradient
    is added as an NCHW copy instead, because which NaN a NaN + NaN add
    passes on depends on the loop numpy runs.
    """
    _check(x.ndim == 4, f"maxpool2 input must be 4-d [N,C,H,W], got shape {x.shape}")
    n, c, h, w = x.shape
    _check(h % 2 == 0 and w % 2 == 0, f"maxpool2 needs even spatial dims, got {h}x{w}")
    v = x.data.reshape(n, c, h // 2, 2, w // 2, 2)
    quarters = [v[:, :, :, dr, :, dc] for dr, dc in _WINDOW]
    m = np.maximum(quarters[0], quarters[1])
    np.maximum(m, quarters[2], out=m)
    np.maximum(m, quarters[3], out=m)
    redo = np.isnan(m)
    nan = bool(redo.any())
    zero = m == 0
    bits = np.int32 if x.dtype == np.float32 else np.int64
    if zero.any() and x.data.view(bits).min() < 0:  # a sign bit is set somewhere in x
        redo |= zero
    if redo.any():
        picked = [q[redo] for q in quarters]
        mr = m[redo]
        best = picked[3]
        for q in picked[2::-1]:
            best = np.where(_first_match(q, mr, nan), q, best)
        m[redo] = best
    out = Tensor(m)

    def backward_fn(g: np.ndarray):
        if not x.requires_grad:
            return
        # Integer products on the bit patterns: g's bits where the window's
        # winner sits, +0.0's bits at the other three elements.
        gbits = np.asarray(g, dtype=x.dtype).view(bits)
        gx = np.empty_like(x.data, dtype=bits)  # x's memory layout, as x.grad's
        gv = gx.reshape(v.shape)  # splitting H and W is always a view
        free = None  # windows whose winner is not found yet
        for (dr, dc), q in zip(_WINDOW, quarters):
            if (dr, dc) == (1, 1):
                hit = free  # the maximum is one of the quarters
            else:
                hit = _first_match(q, m, nan)
                if free is None:
                    free = ~hit
                else:
                    hit &= free
                    free ^= hit
            np.multiply(gbits, hit, out=gv[:, :, :, dr, :, dc])
        gx = gx.view(x.dtype)
        if not gx.flags.c_contiguous and np.isnan(g).any():
            # Which NaN a NaN + NaN passes on depends on numpy's loop, so
            # where both x.grad and gx may hold one, add an NCHW copy: the
            # loop, and the bits, of an NCHW-built gradient.
            gx = np.ascontiguousarray(gx)
        x.grad += gx

    return record_op(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# affine layer
# ---------------------------------------------------------------------------


def _linear_forward_exact(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Accumulate one input feature at a time, starting from the bias, so the
    # per-element summation order matches a scalar nested loop exactly.
    n = x.shape[0]
    f_out = w.shape[0]
    out = np.broadcast_to(b.reshape(1, f_out), (n, f_out)).astype(x.dtype).copy()
    for k in range(x.shape[1]):
        out += x[:, k].reshape(n, 1) * w[:, k].reshape(1, f_out)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: x [N, F_in] -> x @ weight.T + bias, weight [F_out, F_in]."""
    _check(x.ndim == 2, f"linear input must be 2-d [N,F_in], got shape {x.shape}")
    n, f_in = x.shape
    _check(weight.ndim == 2, f"linear weight must be 2-d [F_out,F_in], got shape {weight.shape}")
    _check(
        weight.shape[1] == f_in,
        f"linear feature mismatch: input has F_in={f_in}, weight expects F_in={weight.shape[1]}",
    )
    f_out = weight.shape[0]
    _check(bias.shape == (f_out,), f"linear bias must have shape ({f_out},), got {bias.shape}")
    same_dtype(x, weight, bias)

    if x.data.dtype == np.float64:
        out_data = _linear_forward_exact(x.data, weight.data, bias.data)
    else:
        out_data = x.data @ weight.data.T + bias.data
    out = Tensor(out_data)

    def backward_fn(g: np.ndarray):
        if weight.requires_grad:
            weight.grad += g.T @ x.data
        if bias.requires_grad:
            bias.grad += channel_sum(g)
        if x.requires_grad:
            x.grad += g @ weight.data

    return record_op(out, (x, weight, bias), backward_fn)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero each element with probability p, scale
    survivors by 1/(1-p). When not training or at p == 0 it returns ``x``
    itself and records nothing."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x

    if rng is None:
        raise ValueError("dropout in training mode needs a seeded rng")
    keep = rng.random(x.shape) >= p
    mask = keep.astype(x.data.dtype) * x.data.dtype.type(1.0 / (1.0 - p))
    out = Tensor(x.data * mask)

    def backward_fn(g: np.ndarray):
        if x.requires_grad:
            x.grad += g * mask

    return record_op(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    Computed with max-subtraction for stability. Backward places
    (softmax - onehot) / N into the logits gradient.
    """
    _check(logits.ndim == 2, f"logits must be 2-d [N,K], got shape {logits.shape}")
    n, k = logits.shape
    lab = np.asarray(labels)
    _check(lab.shape == (n,), f"labels must have shape ({n},), got {lab.shape}")
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {lab.dtype}")
    bad = (lab < 0) | (lab >= k)
    if bad.any():
        where = int(np.flatnonzero(bad)[0])
        raise ValueError(f"label out of range [0,{k}): labels[{where}] = {int(lab[where])}")

    z = logits.data
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    sez = ez.sum(axis=1, keepdims=True)
    nll = np.log(sez)[:, 0] - shifted[np.arange(n), lab]
    out = Tensor(np.asarray(nll.mean(), dtype=z.dtype))

    def backward_fn(g: np.ndarray):
        if not logits.requires_grad:
            return
        p = ez / sez
        p[np.arange(n), lab] -= 1.0
        logits.grad += g * p / z.dtype.type(n)

    return record_op(out, (logits,), backward_fn)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    h: float = 1e-5,
    sample_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps the given tensors to a scalar Tensor and is rebuilt on
    every call; use float64 inputs for meaningful tolerances. The error
    for one coordinate is |analytic - numeric| / max(1, |analytic|,
    |numeric|). ``sample_per_tensor`` caps how many coordinates of each
    input get probed (None probes all of them).
    """
    out1 = fn(*inputs)
    out2 = fn(*inputs)
    if not np.array_equal(out1.data, out2.data):
        raise ValueError("gradcheck requires a deterministic function, got differing outputs for identical inputs")

    saved_flags = [t.requires_grad for t in inputs]
    saved_grads = [t.grad for t in inputs]
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    try:
        with Tape() as tape:
            loss = fn(*inputs)
            tape.backward(loss)
        analytic = [
            np.array(t.grad, copy=True) if t.grad is not None else np.zeros_like(t.data) for t in inputs
        ]
    finally:
        for t, flag, grad in zip(inputs, saved_flags, saved_grads):
            t.requires_grad = flag
            t.grad = grad

    if rng is None:
        rng = np.random.default_rng(0)
    max_err = 0.0
    for t, an in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        an_flat = an.reshape(-1)
        if sample_per_tensor is not None and flat.size > sample_per_tensor:
            coords = np.sort(rng.choice(flat.size, size=sample_per_tensor, replace=False))
        else:
            coords = np.arange(flat.size)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            f_plus = float(fn(*inputs).data)
            flat[c] = orig - h
            f_minus = float(fn(*inputs).data)
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(an_flat[c])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > max_err:
                max_err = err
    return max_err
