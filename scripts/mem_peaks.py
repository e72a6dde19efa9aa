#!/usr/bin/env python3
"""Print the traced live memory peak of one layer-stats probe and of one
training step.

The probe runs on ``trainer.PROBE_BATCH`` N(0, 1) images in chunks of
``--batch-size``, as ``trainer.train`` runs it. The step is one training
step at ``--batch-size`` (forward, backward, gradient norm, AdamW update),
once on a default tape and once on a keeping tape
(``Tape(keep_patches=True)``). The model, its AdamW moments and the input
images are allocated before tracing starts, so each figure is the live
memory the phase itself allocates at its peak (``tracemalloc``, MiB), not
the process's RSS.

    python3 scripts/mem_peaks.py                 # the desk preset: depth 8, width/8, batch 32, relu
    python3 scripts/mem_peaks.py --depth 16 --width-divisor 1 --batch-size 128 --activation zcswish
"""

import argparse
import sys
import time
import tracemalloc

import numpy as np

from actlab.config import ExperimentConfig
from actlab.plainnet import build
from actlab.probes import grad_norm, layer_stats
from actlab.tensor import Tape, Tensor, softmax_cross_entropy
from actlab.trainer import PROBE_BATCH, AdamW


def traced(fn) -> tuple[float, float]:
    """(live peak in MiB, wall seconds) of one call of ``fn``."""
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, time.perf_counter() - t0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--width-divisor", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--activation", default="relu")
    args = p.parse_args()
    try:
        config = ExperimentConfig(
            depth=args.depth, width_divisor=args.width_divisor, activation=args.activation, batch_size=args.batch_size
        )
    except ValueError as exc:
        sys.exit(f"error: {exc}")

    rng = np.random.default_rng(0)
    model = build(config, rng, dtype=np.float32)
    opt = AdamW(model.parameters())
    images = rng.standard_normal((max(PROBE_BATCH, config.batch_size), 3, 32, 32), dtype=np.float32)
    labels = rng.integers(0, config.num_classes, len(images))
    dropout_rng = np.random.default_rng(1)

    def step(keep_patches: bool):
        model.zero_grad()
        with Tape(keep_patches=keep_patches) as tape:
            x = Tensor(images[: config.batch_size])
            logits = model.forward(x, training=True, rng=dropout_rng)
            tape.backward(softmax_cross_entropy(logits, labels[: config.batch_size]))
        grad_norm(model.parameters())
        opt.step()

    def probe():
        layer_stats(model, images[:PROBE_BATCH], labels[:PROBE_BATCH], chunk=config.batch_size)

    rows = [
        (f"probe ({PROBE_BATCH} images)", probe),
        ("step, default tape", lambda: step(False)),
        ("step, keeping tape", lambda: step(True)),
    ]
    print(f"depth {config.depth}, width/{config.width_divisor}, {config.activation}, batch {config.batch_size}")
    for name, fn in rows:
        mib, seconds = traced(fn)
        print(f"{name:<22}{mib:>10.1f} MiB{seconds:>9.2f} s")


if __name__ == "__main__":
    main()
