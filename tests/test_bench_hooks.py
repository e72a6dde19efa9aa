"""The names the benchmark's tracer wraps exist, and come back unchanged.

``bench/tracer.py`` looks every wrapped name up through the owner's
``__dict__``, so a name that leaves actlab breaks the benchmark. This
installs its hooks on the real modules, runs no workload, and checks that
leaving the ``with`` block puts every name back.
"""

import importlib.util
import inspect
import types
from pathlib import Path

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
    after = names_by_identity(modules)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
