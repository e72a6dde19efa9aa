#!/usr/bin/env python3
"""actlab benchmark: one workload, timed end to end or traced per module.

Run from the root of a checkout:

    python3 bench/run.py --workload desk-relu --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The process imports actlab from ``src/``, builds the workload's inputs
from ``--seed`` several times (the median is ``setup_s``), then repeats
the workload in a closed loop, each repeat starting when the previous
one ends, until about ``--seconds`` have passed. Every repeat is checked
(see ``workloads.py``); a repeat that raises or fails its check counts
in ``failed``.

With ``--trace 0`` it prints the end-to-end metrics. With ``--trace 1``
it alternates an untraced and a traced repeat on the same input, and
prints the per-module metrics of the traced ones; spans and their
per-phase and per-site splits go to ``bench/out/``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path

from tracer import Patches, StepClock, Tracer, clock
import workloads

BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUPS = 3  # set-up repeats per run; setup_s is their median
# One set-up, in a fresh interpreter: import actlab, then write the
# synthetic dataset if the workload has one. The child's memory stays out
# of this process's peak RSS.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import actlab, actlab.trainer, actlab.probes
t1 = time.perf_counter()
out = {"import": t1 - t0}
args = json.loads(sys.argv[1])
if args is not None:
    actlab.data.write_synthetic_cifar100(**args)
    out["write_synthetic_cifar100"] = time.perf_counter() - t1
print(json.dumps(out))
"""
# names whose work must repeat exactly between traced repeats of one run
EXACT_COUNTS = (
    "tensor.conv2d.calls",
    "tensor.conv2d.gflop",
    "activations.sigmoid.calls",
    "activations.sigmoid.melem",
    "activations.find_centering_anchor.evals",
    "activations.find_centering_anchor.iterations",
    "tensor.Tape.records_per_step",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here at all (nothing is measured)."""


def load_actlab(root: Path) -> types.SimpleNamespace:
    src = root / "src"
    if not (src / "actlab" / "__init__.py").is_file():
        raise BenchError(f"no actlab sources under {src}; run from the root of an actlab checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import actlab
    from actlab import activations, config, data, plainnet, probes, tensor, trainer

    if Path(actlab.__file__).resolve().parent != (src / "actlab").resolve():
        raise BenchError(f"imported actlab from {actlab.__file__}, not from {src}")
    return types.SimpleNamespace(
        activations=activations, config=config, data=data,
        plainnet=plainnet, probes=probes, tensor=tensor, trainer=trainer,
    )


def steady_process():
    """Run on one core with single-threaded BLAS. On a small shared
    machine, two BLAS threads made run times swing by about 20% from run
    to run, and an unpinned process more than a pinned one. Must run
    before numpy is first imported; set-up children inherit both."""
    os.environ.update(BLAS_THREADS)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_record(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k, "unset") for k in BLAS_THREADS}
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "config": blas.get("openblas configuration")},
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(root),
    }


def closed_loop(budget_s: float, min_repeats: int, repeat) -> list:
    """Call ``repeat(i)`` for i = 0, 1, ... back to back. Stop at the
    repeat boundary nearest to ``budget_s`` once ``min_repeats`` have run."""
    results, walls = [], []
    start = clock()
    while len(results) < min_repeats or clock() - start + statistics.median(walls) / 2 <= budget_s:
        t0 = clock()
        results.append(repeat(len(results)))
        walls.append(clock() - t0)
    return results


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (q=5 is the median)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, root: Path, tiny: bool = False):
        self.act = load_actlab(root)
        self.root = root
        self.workdir = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
        self.workload = workloads.make(name, self.act, seed, self.workdir, tiny=tiny)
        self.clock = StepClock(self.act)
        self.attempted = 0
        self.failures: dict[int, list[str]] = {}  # repeat id -> what went wrong
        self.references: dict = {}  # input key -> first result on it

    def setup(self, setups: int = SETUPS) -> dict:
        """Set the workload up ``setups`` times. Each time a fresh
        interpreter imports actlab and writes the inputs, and this process
        loads them. ``setup_s`` is the median total."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        args = json.dumps(self.workload.synthetic_args())
        samples = []
        for _ in range(setups):
            shutil.rmtree(self.workdir, ignore_errors=True)
            child = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, args],
                cwd=self.root, env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append({**json.loads(child.stdout.splitlines()[-1]), **self.workload.load()})
        return {
            "setup_s": statistics.median(sum(x.values()) for x in samples),
            "samples": samples,
            "step_s": {k: statistics.median(x[k] for x in samples) for k in samples[0]},
        }

    def repeat(self, index: int, tracer: Tracer | None = None) -> dict:
        """Repeat ``index`` of a loop, checked. Returns its wall time, step
        intervals and rates; only ``wall_s`` (None) when it raised."""
        self.attempted += 1
        self.clock.reset()
        if tracer is not None:
            tracer.run_id = self.attempted
        key = self.workload.input_key(index)
        t0 = clock()
        try:
            result = self.workload.run(index)
        except Exception:  # a failed operation is counted, the run goes on
            self.fail(self.attempted, f"raised:\n{traceback.format_exc()}")
            return {"wall_s": None}
        wall = clock() - t0
        problems = self.workload.problems(result, self.references.get(key), self.clock)
        self.references.setdefault(key, result)
        for problem in problems:
            self.fail(self.attempted, problem)
        return {
            "wall_s": wall,
            "run_id": self.attempted,
            "input": key,
            "steps_s": list(self.clock.steps),
            "anchor_iterations": sum(res.iterations for res in self.clock.anchors),
            "anchors_converged": sum(res.converged for res in self.clock.anchors),
            "rates": self.workload.rates(wall, self.clock),
            "details": self.workload.details(result),
        }

    def fail(self, run_id: int, message: str):
        self.failures.setdefault(run_id, []).append(message)

    def untraced(self, budget_s: float, min_repeats: int) -> list[dict]:
        with Patches() as patches:
            self.clock.install(patches)
            reps = closed_loop(budget_s, min_repeats, self.repeat)
        return [r for r in reps if r["wall_s"] is not None]

    def paired(self, budget_s: float, min_pairs: int) -> tuple[Tracer, list[tuple[dict, dict]]]:
        """Pairs of an untraced and a traced repeat on the same input.
        Pairs 2k and 2k+1 share an input, so every traced input is seen
        twice and its work counts can be compared."""
        tracer = Tracer(self.act)

        def pair(i: int) -> tuple[dict, dict]:
            plain = self.repeat(i // 2)
            with Patches() as patches:
                tracer.install(patches)
                traced = self.repeat(i // 2, tracer)
            return plain, traced

        with Patches() as patches:
            self.clock.install(patches)
            pairs = closed_loop(budget_s, min_pairs, pair)
        return tracer, [(p, t) for p, t in pairs if p["wall_s"] is not None and t["wall_s"] is not None]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def end_to_end(setup: dict, reps: list[dict]) -> dict[str, tuple[float, str]]:
    steps_ms = [s * 1e3 for r in reps for s in r["steps_s"]]
    rate = {k: statistics.median(r["rates"][k] for r in reps) for k in reps[0]["rates"]}
    return {
        "setup_s": (setup["setup_s"], "s"),
        "run_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "step_ms_p50": (quantile(steps_ms, 5), "ms"),
        "step_ms_p90": (quantile(steps_ms, 9), "ms"),
        "train_items_per_s": (rate["train_items_per_s"], "1/s"),
        "eval_items_per_s": (rate["eval_items_per_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, rep: dict, setup: dict) -> tuple[dict, dict]:
    """Per-module metrics of one traced repeat, and its span totals."""
    tot = tracer.totals(rep["run_id"])
    counts = tracer.counts[rep["run_id"]]

    def ms(name, phase=None):
        entry = tot.get(name)
        if entry is None:
            return 0.0
        return entry["ms"] if phase is None else entry["by_phase"].get(phase, 0.0)

    def self_ms(*names):
        return sum(tot[n]["self_ms"] for n in names if n in tot)

    conv_ms = ms("tensor.conv2d") + ms("tensor.conv2d.bwd")
    n_steps = tot.get("trainer.AdamW.step", {}).get("calls", 0)
    train_steps_ms = ms("trainer.train") - ms("trainer.evaluate") - ms("probes.layer_stats") - ms("plainnet.build")
    covered = (
        ms("plainnet.forward.train")
        + ms("tensor.softmax_cross_entropy", "train")
        + ms("tensor.Tape.backward", "train")
        + ms("trainer.AdamW.step")
        + ms("data.batches.wait")
    )
    evals = counts["activations.find_centering_anchor.evals"]
    iterations = rep["anchor_iterations"]
    metrics = {
        "tensor.conv2d.fwd_ms": (ms("tensor.conv2d"), "ms"),
        "tensor.conv2d.bwd_ms": (ms("tensor.conv2d.bwd"), "ms"),
        "tensor.conv2d.calls": (counts["tensor.conv2d.calls"], "count"),
        "tensor.conv2d.gflop": (counts["tensor.conv2d.gflop"], "GFLOP"),
        "tensor.conv2d.gflop_per_s": (counts["tensor.conv2d.gflop"] / (conv_ms / 1e3) if conv_ms else 0.0, "GFLOP/s"),
        "tensor.maxpool2.fwd_ms": (ms("tensor.maxpool2"), "ms"),
        "tensor.maxpool2.bwd_ms": (ms("tensor.maxpool2.bwd"), "ms"),
        "tensor.linear.fwd_ms": (ms("tensor.linear"), "ms"),
        "tensor.linear.bwd_ms": (ms("tensor.linear.bwd"), "ms"),
        "tensor.softmax_cross_entropy.fwd_ms": (ms("tensor.softmax_cross_entropy"), "ms"),
        "tensor.softmax_cross_entropy.bwd_ms": (ms("tensor.softmax_cross_entropy.bwd"), "ms"),
        "tensor.dropout.fwd_ms": (ms("tensor.dropout"), "ms"),
        "tensor.Tape.backward_ms": (ms("tensor.Tape.backward"), "ms"),
        "tensor.Tape.backward.self_ms": (self_ms("tensor.Tape.backward"), "ms"),
        "tensor.Tape.records_per_step": (counts["tensor.Tape.records.train"] / n_steps if n_steps else 0.0, "count"),
        "activations.apply_activation.fwd_ms": (ms("activations.apply_activation"), "ms"),
        "activations.apply_activation.bwd_ms": (ms("activations.apply_activation.bwd"), "ms"),
        "activations.sigmoid.ms": (ms("activations.sigmoid"), "ms"),
        "activations.sigmoid.calls": (counts["activations.sigmoid.calls"], "count"),
        "activations.sigmoid.melem": (counts["activations.sigmoid.melem"], "Melem"),
        "activations.zc_swish_eval.ms": (ms("activations.zc_swish_eval"), "ms"),
        "activations.find_centering_anchor.ms": (ms("activations.find_centering_anchor"), "ms"),
        "activations.find_centering_anchor.evals": (evals, "count"),
        "activations.find_centering_anchor.iterations": (iterations, "count"),
        "activations.find_centering_anchor.converged": (rep["anchors_converged"], "count"),
        "activations.find_centering_anchor.useful_ratio": (iterations / evals if evals else 0.0, "ratio"),
        "plainnet.build_ms": (ms("plainnet.build"), "ms"),
        "plainnet.forward.train_ms": (ms("plainnet.forward.train"), "ms"),
        "plainnet.forward.eval_ms": (ms("plainnet.forward.eval"), "ms"),
        "plainnet.forward.self_ms": (self_ms("plainnet.forward.train", "plainnet.forward.eval"), "ms"),
        "data.write_synthetic_cifar100_ms": (setup["step_s"].get("write_synthetic_cifar100", 0.0) * 1e3, "ms"),
        "data.load_cifar100_ms": (setup["step_s"].get("load_cifar100", 0.0) * 1e3, "ms"),
        "data.subset_ms": (setup["step_s"].get("subset", 0.0) * 1e3, "ms"),
        "data.batches.wait_ms": (ms("data.batches.wait"), "ms"),
        "trainer.evaluate_ms": (ms("trainer.evaluate"), "ms"),
        "trainer.AdamW.step_ms": (ms("trainer.AdamW.step"), "ms"),
        "trainer.train_steps_ms": (train_steps_ms, "ms"),
        "trainer.train_steps.uncovered_ms": (train_steps_ms - covered, "ms"),
        "probes.layer_stats_ms": (ms("probes.layer_stats"), "ms"),
        "probes.drift_experiment_ms": (ms("probes.drift_experiment"), "ms"),
    }
    return metrics, tot


def count_mismatches(reps: list[dict], layer_runs: list[dict]) -> dict[int, str]:
    """Traced repeats whose work counts differ from the first traced
    repeat on the same input, by repeat id."""
    first: dict = {}
    out = {}
    for rep, metrics in zip(reps, layer_runs):
        counts = {name: metrics[name][0] for name in EXACT_COUNTS}
        ref = first.setdefault(rep["input"], counts)
        diff = [f"{n} {counts[n]!r} != {ref[n]!r}" for n in EXACT_COUNTS if counts[n] != ref[n]]
        if diff:
            out[rep["run_id"]] = "work counts differ from the first traced repeat on this input: " + ", ".join(diff)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path, tiny: bool = False) -> dict:
    """Set up, run and check one workload. Returns the printed result
    (metrics by name as (value, unit)) plus everything the result file
    records."""
    run = Run(name, seed, root, tiny=tiny)
    try:
        setup = run.setup(1 if tiny else SETUPS)
        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "setup": setup}
        if not trace:
            reps = run.untraced(seconds, min_repeats=2)
            if reps:
                result["metrics"] = end_to_end(setup, reps)
        else:
            tracer, pairs = run.paired(seconds, min_pairs=2)
            reps = [r for pair in pairs for r in pair]
            if pairs:
                traced = [t for _, t in pairs]
                layers = [per_layer(tracer, rep, setup) for rep in traced]
                for run_id, message in count_mismatches(traced, [m for m, _ in layers]).items():
                    run.fail(run_id, message)
                metrics = {k: (statistics.median(m[k][0] for m, _ in layers), u) for k, (_, u) in layers[0][0].items()}
                overhead = statistics.median(t["wall_s"] / p["wall_s"] for p, t in pairs) - 1.0
                metrics["trace_overhead_frac"] = (overhead, "ratio")
                result["metrics"] = metrics
                result["spans_by_name"] = layers[0][1]
                result["spans"] = tracer.dump()
        result.update(
            attempted=run.attempted,
            failed=len(run.failures),
            failures=[f"repeat {i}: {m}" for i, ms in sorted(run.failures.items()) for m in ms],
            repeats=reps,
            machine=machine_record(root),
        )
        return result
    finally:
        run.close()


def report_lines(result: dict) -> list[str]:
    """The human-readable lines printed before the final JSON line."""
    reps = result["repeats"]
    steps_ms = [s * 1e3 for r in reps for s in r["steps_s"]]
    lines = [
        f"# machine {json.dumps(result['machine'], sort_keys=True)}",
        f"# {result['workload']} seed {result['seed']}: {len(reps)} repeats, {len(steps_ms)} step intervals"
        + (f", median {statistics.median(steps_ms):.2f} ms" if steps_ms else ""),
    ]
    lines += [f"# failure: {f}" for f in result["failures"]]
    lines += [f"metric {name} {value!r} {unit}" for name, (value, unit) in result.get("metrics", {}).items()]
    lines.append(f"ops_failed {result['failed']} of ops_attempted {result['attempted']}")
    return lines


def summary_json(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }
    )


def write_result(result: dict):
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    rc = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        rc = subprocess.run(argv, check=False).returncode or rc
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    steady_process()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if "metrics" not in result:
        print("\n".join(result["failures"]), file=sys.stderr)
        print("error: no repeat completed, nothing measured", file=sys.stderr)
        return 1
    write_result(result)
    print("\n".join(report_lines(result)))
    print(summary_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
