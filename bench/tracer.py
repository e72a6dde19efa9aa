"""Timing of actlab's modules from outside the package.

Nothing here edits actlab. Every hook replaces a public name in the
namespace where its caller looks it up, for the duration of one
``with`` block, and puts the original object back on exit:

* :class:`Patches` swaps names and restores them in reverse order.
* :class:`StepClock` is the light hook of the untraced run. It only
  takes timestamps at a few boundaries (optimizer steps, evaluation,
  the layer-stats probe, anchor solves and their mean evaluations),
  which the end-to-end metrics need.
* :class:`Tracer` is the traced run. It records a span (name, start,
  end, parent, run id, phase, site) around every wrapped call, times
  each recorded ``backward_fn`` under the label of the op that recorded
  it, and counts work (conv flops, sigmoid elements, anchor
  evaluations). Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Patches:
    """Replace attributes for the life of a ``with`` block."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class StepClock:
    """Timestamps for the end-to-end metrics of one repeat.

    ``steps`` holds the intervals between successive returns of a step:
    ``AdamW.step`` in training, where an interval that spans an
    evaluation or the layer-stats probe is dropped (so each epoch's
    first interval never counts); and ``zc_swish_eval`` inside one
    anchor solve, one mean evaluation of the bisection or grid scan,
    where the interval before a solve's first evaluation is dropped.
    ``anchors`` collects every anchor solve's result.
    """

    def __init__(self, act):
        self.act = act
        self.reset()

    def reset(self):
        self.steps: list[float] = []
        self.evaluate_s = 0.0
        self.eval_images = 0
        self.layer_stats_s = 0.0
        self.anchors: list = []
        self._last: float | None = None

    def _step_returned(self):
        now = clock()
        if self._last is not None:
            self.steps.append(now - self._last)
        self._last = now

    def install(self, patches: Patches):
        act = self.act
        step = act.trainer.AdamW.step

        def timed_step(opt):
            out = step(opt)
            self._step_returned()
            return out

        evaluate = act.trainer.evaluate

        def timed_evaluate(model, ds, *args, **kwargs):
            t0 = clock()
            out = evaluate(model, ds, *args, **kwargs)
            self.evaluate_s += clock() - t0
            self.eval_images += len(ds)
            self._last = None
            return out

        layer_stats = act.trainer.layer_stats

        def timed_layer_stats(*args, **kwargs):
            t0 = clock()
            out = layer_stats(*args, **kwargs)
            self.layer_stats_s += clock() - t0
            self._last = None
            return out

        find = act.probes.find_centering_anchor

        def timed_find(*args, **kwargs):
            self._last = None
            res = find(*args, **kwargs)
            self._last = None
            self.anchors.append(res)
            return res

        zc_eval = act.activations.zc_swish_eval

        def timed_eval(*args, **kwargs):
            out = zc_eval(*args, **kwargs)
            self._step_returned()
            return out

        patches.set(act.trainer.AdamW, "step", timed_step)
        patches.set(act.trainer, "evaluate", timed_evaluate)
        patches.set(act.trainer, "layer_stats", timed_layer_stats)
        patches.set(act.probes, "find_centering_anchor", timed_find)
        patches.set(act.activations, "zc_swish_eval", timed_eval)


# tensor ops that plainnet binds by name (conv2d it reads as T.conv2d)
OPS_BOUND_IN_PLAINNET = ("linear", "maxpool2", "dropout", "reshape")


def conv_gflop(x_shape, w_shape) -> float:
    n, c_in, h, w = x_shape
    c_out = w_shape[0]
    return 2.0 * n * h * w * c_out * c_in * 9 / 1e9


class Tracer:
    """Spans and counters for one traced run of a workload."""

    def __init__(self, act):
        self.act = act
        self.spans: list[list] = []  # [name, start, end, parent, run, phase, site]
        self._stack: list[int] = []
        self.run_id = 0
        self.phase = "setup"
        self._sites: Counter = Counter()
        self.counts: dict[int, Counter] = defaultdict(Counter)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str, site: str | None, phase: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), None, parent, self.run_id, phase or self.phase, site])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = clock()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0):
        self.counts[self.run_id][key] += amount

    def current_label(self) -> tuple[str, str | None]:
        if not self._stack:
            return "unlabelled", None
        span = self.spans[self._stack[-1]]
        return span[0], span[6]

    def wrap(self, name: str, fn, site_key: str | None = None, before=None, phase: str | None = None):
        """Span around every call of ``fn``. ``site_key`` numbers the
        calls within the enclosing forward pass or drift experiment."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            site = None
            if site_key is not None:
                self._sites[site_key] += 1
                site = f"{site_key}{self._sites[site_key]}"
            if before is not None:
                before(*args, **kwargs)
            saved_phase = self.phase
            if phase is not None:
                self.phase = phase
            idx = self._open(name, site)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                self.phase = saved_phase

        return traced

    # -- installation -----------------------------------------------------

    def install(self, patches: Patches):
        """Wrap every traced name. Install a :class:`StepClock` first:
        the anchor results and step timestamps come from it."""
        act = self.act
        T, A, P, N, R = act.tensor, act.activations, act.probes, act.plainnet, act.trainer

        def count_conv(x, weight, bias):
            self.count("tensor.conv2d.calls")
            self.count("tensor.conv2d.gflop", conv_gflop(x.shape, weight.shape))

        def count_sigmoid(x):
            self.count("activations.sigmoid.calls")
            self.count("activations.sigmoid.melem", getattr(x, "size", 1) / 1e6)

        def count_eval(*args, **kwargs):
            if any(self.spans[i][0] == "activations.find_centering_anchor" for i in self._stack):
                self.count("activations.find_centering_anchor.evals")

        def new_site_numbering(*args, **kwargs):
            self._sites.clear()

        patches.set(T, "conv2d", self.wrap("tensor.conv2d", T.conv2d, "conv", before=count_conv))
        for op in OPS_BOUND_IN_PLAINNET:
            patches.set(N, op, self.wrap(f"tensor.{op}", getattr(N, op), op))
        patches.set(N, "apply_activation", self.wrap("activations.apply_activation", N.apply_activation, "act"))
        sce = self.wrap("tensor.softmax_cross_entropy", R.softmax_cross_entropy)
        patches.set(R, "softmax_cross_entropy", sce)
        patches.set(P, "softmax_cross_entropy", sce)

        # backward time: each recorded backward_fn runs under its op's label
        record = T.Tape.record

        def traced_record(tape, output, inputs, backward_fn):
            label, site = self.current_label()
            phase = self.phase
            if phase == "train":
                self.count("tensor.Tape.records.train")

            def timed_backward_fn(g):
                if label == "tensor.conv2d":
                    x, weight = inputs[0], inputs[1]
                    passes = int(weight.requires_grad) + int(x.requires_grad)
                    self.count("tensor.conv2d.gflop", passes * conv_gflop(x.shape, weight.shape))
                idx = self._open(f"{label}.bwd", site, phase)
                try:
                    backward_fn(g)
                finally:
                    self._close(idx)

            return record(tape, output, inputs, timed_backward_fn)

        patches.set(T.Tape, "record", traced_record)
        patches.set(T.Tape, "backward", self.wrap("tensor.Tape.backward", T.Tape.backward))

        patches.set(A, "sigmoid", self.wrap("activations.sigmoid", A.sigmoid, before=count_sigmoid))
        zc_eval = self.wrap("activations.zc_swish_eval", A.zc_swish_eval, before=count_eval)
        patches.set(A, "zc_swish_eval", zc_eval)
        patches.set(P, "zc_swish_eval", zc_eval)
        patches.set(
            P, "find_centering_anchor", self.wrap("activations.find_centering_anchor", P.find_centering_anchor, "site")
        )

        forward = N.PlainNet.forward
        forward_train = self.wrap("plainnet.forward.train", forward, before=new_site_numbering)
        forward_eval = self.wrap("plainnet.forward.eval", forward, before=new_site_numbering)

        def traced_forward(model, x, training=False, **kwargs):
            return (forward_train if training else forward_eval)(model, x, training=training, **kwargs)

        patches.set(N.PlainNet, "forward", traced_forward)
        patches.set(R, "build", self.wrap("plainnet.build", R.build))

        patches.set(R, "evaluate", self.wrap("trainer.evaluate", R.evaluate, phase="eval"))
        patches.set(R, "layer_stats", self.wrap("probes.layer_stats", R.layer_stats, phase="probe"))
        patches.set(R.AdamW, "step", self.wrap("trainer.AdamW.step", R.AdamW.step))
        batches = R.batches

        def waited_batches(*args, **kwargs):
            it = batches(*args, **kwargs)
            while True:
                idx = self._open("data.batches.wait", None)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        patches.set(R, "batches", waited_batches)
        patches.set(R, "train", self.wrap("trainer.train", R.train, phase="train"))
        patches.set(
            P,
            "drift_experiment",
            self.wrap("probes.drift_experiment", P.drift_experiment, before=new_site_numbering, phase="probe"),
        )

    # -- results -----------------------------------------------------------

    def totals(self, run_id: int) -> dict[str, dict]:
        """Per span name: total ms, self ms, calls, and the split by phase
        and by site, for one run id."""
        child_ms = defaultdict(float)
        for name, t0, t1, parent, run, phase, site in self.spans:
            if run == run_id and parent >= 0:
                child_ms[parent] += (t1 - t0) * 1e3
        out: dict[str, dict] = {}
        for idx, (name, t0, t1, parent, run, phase, site) in enumerate(self.spans):
            if run != run_id:
                continue
            ms = (t1 - t0) * 1e3
            entry = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "by_phase": {}, "by_site": {}})
            entry["ms"] += ms
            entry["self_ms"] += ms - child_ms[idx]
            entry["calls"] += 1
            entry["by_phase"][phase] = entry["by_phase"].get(phase, 0.0) + ms
            if site is not None:
                entry["by_site"][site] = entry["by_site"].get(site, 0.0) + ms
        return out

    def dump(self) -> list[list]:
        return [[n, round(t0, 7), round(t1, 7), p, r, ph, s] for n, t0, t1, p, r, ph, s in self.spans]
