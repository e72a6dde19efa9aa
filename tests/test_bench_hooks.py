"""The names the benchmark's tracer wraps exist, take the calls actlab
makes, and come back unchanged.

``bench/tracer.py`` looks every wrapped name up through the owner's
``__dict__``, so a name that leaves actlab breaks the benchmark, and its
hooks take the arguments actlab passes today (``sigmoid`` one positional
array), so a new call shape breaks every traced repeat. This installs the
hooks on the real modules, runs one tiny zcswish forward and backward and
one anchor solve through them, and checks that leaving the ``with`` block
puts every name back.
"""

import importlib.util
import inspect
import types
from pathlib import Path

import numpy as np

from actlab import activations, config, data, plainnet, probes, tensor, trainer

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names_by_identity(modules) -> dict:
    """Every attribute of the modules and of the classes they define."""
    seen = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    seen[(mod.__name__, attr, cattr)] = cvalue
    return seen


def run_zcswish_and_a_solve(act):
    """One zcswish forward and backward on the tape and one anchor solve,
    each through the names the hooks replace."""
    x = act.tensor.Tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 4)), requires_grad=True)
    params = act.activations.ZCSwishParams.initial(3, dtype=np.float64)
    with act.tensor.Tape() as tape:
        out = act.plainnet.apply_activation(x, act.activations.ActivationKind.ZCSWISH, params)
        tape.backward(act.tensor.tsum(out))
    assert all(np.isfinite(t.grad).all() for t in (x, *params.tensors()))
    res = act.probes.find_centering_anchor(np.random.default_rng(1).standard_normal(300), beta=1.0, tol=1e-9)
    assert res.converged and res.evaluations > 0


def test_tracer_hooks_install_and_restore_every_name():
    tracer = load_tracer()
    act = types.SimpleNamespace(
        activations=activations, config=config, data=data,
        plainnet=plainnet, probes=probes, tensor=tensor, trainer=trainer,
    )
    modules = vars(act).values()
    before = names_by_identity(modules)
    with tracer.Patches() as patches:
        tracer.StepClock(act).install(patches)
        tracer.Tracer(act).install(patches)
        during = names_by_identity(modules)
        assert any(during[key] is not before[key] for key in before)
        run_zcswish_and_a_solve(act)
    after = names_by_identity(modules)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
