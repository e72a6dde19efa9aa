"""Independent brute-force reference implementations for the test suite.

Everything here is written as plainly as possible (scalar nested loops,
direct formulas) and must stay independent of the package code paths it
checks. Scalar accumulation order is part of the contract: bias first,
then contributions in row-major index order, which is what the float64
kernels in the package promise to match bit for bit. maxpool2_argmax and
sigmoid_masked are the index-based forms the package's maxpool2 and
sigmoid replaced; they define the bits those two must keep,
conv2d_im2col_nchw does the same for conv2d's GEMM kernel,
zc_swish_broadcast for the Tensor path of zc_swish, and
zc_swish_eval_one_shot for its blockwise array path.
synthetic_records_one_shot and standardized_split_reference are the
one-shot synthetic writer and the whole-split loader formula that the
chunked writer, the chunked statistics and the images a loaded split
decodes as they are drawn must match byte for byte.
"""

import numpy as np


def conv2d_nested(x, w, b):
    """Six-loop 3x3 same-padding cross-correlation."""
    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    xp = np.zeros((n, c_in, h + 2, wd + 2), dtype=x.dtype)
    xp[:, :, 1 : h + 1, 1 : wd + 1] = x
    out = np.empty((n, c_out, h, wd), dtype=x.dtype)
    for i in range(n):
        for o in range(c_out):
            for r in range(h):
                for cc in range(wd):
                    acc = b[o]
                    for ci in range(c_in):
                        for kh in range(3):
                            for kw in range(3):
                                acc = acc + w[o, ci, kh, kw] * xp[i, ci, r + kh, cc + kw]
                    out[i, o, r, cc] = acc
    return out


def conv2d_im2col_nchw(x, w, b, g):
    """The NCHW im2col kernel ``conv2d`` was first written with, kept as its
    bit reference. Returns the output (float64 by fixed-order accumulation,
    float32 as a channels-last view of the GEMM result, laid out as the
    package's) and the x, w and b gradients a fresh backward leaves when
    ``g`` is added to the output's zero gradient, as a tape does."""
    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    xp = np.zeros((n, c_in, h + 2, wd + 2), dtype=x.dtype)
    xp[:, :, 1 : h + 1, 1 : wd + 1] = x
    cols = np.empty((n, c_in, 3, 3, h, wd), dtype=x.dtype)
    for kh in range(3):
        for kw in range(3):
            cols[:, :, kh, kw] = xp[:, :, kh : kh + h, kw : kw + wd]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * h * wd, c_in * 9)
    w2d = w.reshape(c_out, c_in * 9)
    if x.dtype == np.float64:
        out = np.broadcast_to(b.reshape(1, c_out, 1, 1), (n, c_out, h, wd)).astype(x.dtype).copy()
        for ci in range(c_in):
            for kh in range(3):
                for kw in range(3):
                    out += w[:, ci, kh, kw].reshape(1, c_out, 1, 1) * xp[:, ci : ci + 1, kh : kh + h, kw : kw + wd]
    else:
        out = (cols @ w2d.T + b).reshape(n, h, wd, c_out).transpose(0, 3, 1, 2)
    gout = np.zeros_like(out)  # keeps the output's memory layout, as a tape's grad does
    gout += g
    gmat = gout.transpose(0, 2, 3, 1).reshape(n * h * wd, c_out)
    gw = np.zeros_like(w)
    gw += (gmat.T @ cols).reshape(w.shape)
    gb = np.zeros_like(b)
    gb += gout.sum(axis=(0, 2, 3))
    gc = (gmat @ w2d).reshape(n, h, wd, c_in, 3, 3).transpose(0, 3, 4, 5, 1, 2)
    gxp = np.zeros_like(xp)
    for kh in range(3):
        for kw in range(3):
            gxp[:, :, kh : kh + h, kw : kw + wd] += gc[:, :, kh, kw]
    gx = np.zeros_like(x)
    gx += gxp[:, :, 1 : h + 1, 1 : wd + 1]
    return out, gx, gw, gb


def maxpool2_nested(x):
    """Window max plus argmax flat position (row-major scan, first wins)."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // 2, w // 2), dtype=x.dtype)
    argpos = np.empty((n, c, h // 2, w // 2), dtype=np.int64)
    for i in range(n):
        for ch in range(c):
            for r in range(h // 2):
                for cc in range(w // 2):
                    best = -np.inf
                    bestk = 0
                    for k, (dr, dc) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
                        v = x[i, ch, 2 * r + dr, 2 * cc + dc]
                        if v > best:
                            best = v
                            bestk = k
                    out[i, ch, r, cc] = best
                    dr, dc = divmod(bestk, 2)
                    argpos[i, ch, r, cc] = (2 * r + dr) * w + (2 * cc + dc)
    return out, argpos


def maxpool2_argmax(x, g):
    """The argmax kernel ``maxpool2`` was first written with, kept as its bit
    reference: returns the window outputs and the [N,C,H,W] array its
    backward adds to ``x.grad`` for output gradient ``g`` (``g`` at each
    window's argmax, 0 elsewhere). Unlike maxpool2_nested it picks NaN as
    numpy's argmax does, as the largest value with the first NaN winning."""
    n, c, h, w = x.shape
    windows = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = np.argmax(windows, axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    gwin = np.zeros_like(windows)
    np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
    return out, gwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


def sigmoid_masked(x):
    """Logistic function by boolean-mask scatter: 1 / (1 + exp(-x)) where
    x >= 0 and exp(x) / (1 + exp(x)) elsewhere, NaN included."""
    x = np.asarray(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def zc_swish_eval_one_shot(x, c, beta, g):
    """zc_swish's array path as first written: the formula on the whole
    array at once, with scalar parameters already in x's dtype."""
    u = x - c
    s = sigmoid_masked(beta * u)
    q = sigmoid_masked(-(beta * c))
    return g * (u * s + c * q)


def zc_swish_broadcast(x, c, beta_raw, g, gout):
    """zc_swish's Tensor path as first written, with (1, C) or (1, C, 1, 1)
    broadcasts of the per-channel parameters, kept as its bit reference.
    Returns the output and the x, c, beta_raw and g gradients a fresh
    backward leaves when ``gout`` is added to the output's zero gradient."""
    dt = x.dtype
    view = (1, -1) + (1,) * (x.ndim - 2)
    axes = (0,) + tuple(range(2, x.ndim))
    beta = np.logaddexp(dt.type(0.0), beta_raw)
    cb, bb, gb = c.reshape(view), beta.reshape(view), g.reshape(view)
    u = x - cb
    s = sigmoid_masked(bb * u)
    q = sigmoid_masked(-(bb * cb))
    core = u * s + cb * q
    out = gb * core
    q = q.reshape(-1)
    grad = np.zeros_like(out)  # keeps the output's memory layout, as a tape's grad does
    grad += gout
    gx = np.zeros_like(x)
    gx += grad * gb * s * (1.0 + bb * u * (1.0 - s))
    sp = s * (1.0 - s)
    gsum = grad.sum(axis=axes)
    qp = q * (1.0 - q)
    gc = np.zeros_like(c)
    gc += (grad * gb * -(s + bb * u * sp)).sum(axis=axes) + gsum * g * (q - beta * c * qp)
    gbeta = (grad * gb * (u * u * sp)).sum(axis=axes) - gsum * g * (c * c * qp)
    gbr = np.zeros_like(beta_raw)
    gbr += gbeta * sigmoid_masked(beta_raw)
    gg = np.zeros_like(g)
    gg += (grad * core).sum(axis=axes)
    return out, gx, gc, gbr, gg


def linear_nested(x, w, b):
    """Scalar-loop affine map, bias-first accumulation."""
    n, f_in = x.shape
    f_out = w.shape[0]
    out = np.empty((n, f_out), dtype=x.dtype)
    for i in range(n):
        for f in range(f_out):
            acc = b[f]
            for k in range(f_in):
                acc = acc + x[i, k] * w[f, k]
            out[i, f] = acc
    return out


def softmax_cross_entropy_direct(z, labels):
    """Direct float64 formula: mean of log(sum exp) - z[label]."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    total = 0.0
    for i in range(n):
        zi = z[i] - z[i].max()
        total += np.log(np.exp(zi).sum()) - zi[labels[i]]
    return total / n


def central_difference(f, x, h=1e-5):
    """Per-coordinate central difference of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(analytic, numeric):
    """Elementwise |a - n| / max(1, |a|, |n|), reduced to the max."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def synthetic_records_one_shot(train_per_class, test_per_class, num_classes, seed, signal_weight=0.85):
    """The synthetic train and test splits as (N, 3074) uint8 record
    arrays, every split's noise drawn and mixed in one full-size float64
    pass."""
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0.0, 255.0, size=(num_classes, 3, 32, 32))
    splits = []
    for per_class, split_seed in ((train_per_class, 1), (test_per_class, 2)):
        srng = np.random.default_rng([seed, split_seed])
        n = per_class * num_classes
        fine = np.repeat(np.arange(num_classes, dtype=np.uint8), per_class)
        noise = srng.uniform(0.0, 255.0, size=(n, 3, 32, 32))
        pixels = np.clip(signal_weight * protos[fine] + (1.0 - signal_weight) * noise, 0.0, 255.0).astype(np.uint8)
        order = srng.permutation(n)
        records = np.empty((n, 3074), dtype=np.uint8)
        records[:, 0] = (fine // 5)[order]
        records[:, 1] = fine[order]
        records[:, 2:] = pixels[order].reshape(n, -1)
        splits.append(records)
    return splits


def standardized_split_reference(train_bytes, split_bytes):
    """What loading a split from these file bytes must give: the train
    split's float32 per-channel ``(mean, std)``, the standardized float32
    images and the int64 labels, by the formula of the first loader (copy
    the pixels, x/255 in a new array, statistics from it, a new array for
    each of the two standardizing steps)."""

    def unit_pixels(raw):
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3074)
        pixels = records[:, 2:].reshape(-1, 3, 32, 32).copy()
        return pixels.astype(np.float32) / np.float32(255.0), records[:, 1].copy()

    x, _ = unit_pixels(train_bytes)
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    std = x.std(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    images, fine = unit_pixels(split_bytes)
    standardized = (images - mean.reshape(1, 3, 1, 1)) / std.reshape(1, 3, 1, 1)
    return (mean, std), standardized, fine.astype(np.int64)
