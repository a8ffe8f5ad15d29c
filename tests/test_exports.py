import importlib
import pkgutil

import pytest

import moserlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(moserlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(f"moserlab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"moserlab.{name}.__all__ names undefined {missing}"
