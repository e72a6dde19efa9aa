"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench/test_smoke.py

Checks that the printed metric names are exactly the ones declared in
BENCHMARK.json, that a traced run puts every wrapped name back, and that
tracing leaves a training run's records unchanged.
"""

import inspect
import json
from pathlib import Path

import pytest

import run
import workloads
from tracer import Patches, StepClock, Tracer

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def printed_names(result: dict) -> list[str]:
    return [line.split()[1] for line in run.report_lines(result) if line.startswith("metric ")]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_printed_metrics_are_declared(name, trace):
    result = run.measure(name, seed=3, seconds=0.0, trace=bool(trace), root=ROOT, tiny=True)
    declared = [m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]]
    assert printed_names(result) == declared
    summary = json.loads(run.summary_json(result))
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert list(summary["metrics"]) == declared
    assert summary["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units


def public_names(act) -> dict:
    """Every attribute of actlab's modules and classes, by identity."""
    seen = {}
    for mod in (act.tensor, act.activations, act.probes, act.plainnet, act.trainer, act.data, act.config):
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    seen[(mod.__name__, attr, cattr)] = cvalue
    return seen


def test_traced_run_restores_every_name():
    act = run.load_actlab(ROOT)
    before = public_names(act)
    for name in workloads.WORKLOADS:
        run.measure(name, seed=4, seconds=0.0, trace=True, root=ROOT, tiny=True)
    after = public_names(act)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracing_leaves_training_records_unchanged():
    bench = run.Run("desk-zcswish", seed=5, root=ROOT, tiny=True)
    try:
        bench.setup(1)
        plain = bench.workload.run(0)
        tracer = Tracer(bench.act)
        with Patches() as patches:
            StepClock(bench.act).install(patches)
            tracer.install(patches)
            traced = bench.workload.run(0)
    finally:
        bench.close()
    assert traced.steps == plain.steps
    assert traced.epochs == plain.epochs
    assert tracer.counts[0]["tensor.conv2d.calls"] > 0
    assert any(span[0] == "tensor.conv2d.bwd" for span in tracer.spans)
