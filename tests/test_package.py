"""The package's public surface: what each module lists is what it has."""

import importlib
import pkgutil

import pytest

import actlab


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(actlab.__path__)))
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"actlab.{name}")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
