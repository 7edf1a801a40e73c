"""Every name a ``specbound`` module exports in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import specbound

# ``__main__`` runs the command line when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(specbound.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"specbound.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [item for item in exported if not hasattr(module, item)] == []
