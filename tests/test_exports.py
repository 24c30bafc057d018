"""The package's `__all__` lists are honest: every listed name resolves,
and each name the package re-exports is the object its defining module
lists, so a deletion cannot leave a stale export behind."""
import importlib

import pytest

import nortagrid

MODULES = ("cli", "errors", "grid", "lp", "norta", "stats", "twostage")


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_resolves(module_name):
    module = importlib.import_module(f"nortagrid.{module_name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_all_resolves():
    assert len(set(nortagrid.__all__)) == len(nortagrid.__all__)
    missing = [name for name in nortagrid.__all__ if not hasattr(nortagrid, name)]
    assert missing == []


@pytest.mark.parametrize("name", [n for n in nortagrid.__all__ if n != "__version__"])
def test_package_export_comes_from_its_defining_module(name):
    obj = getattr(nortagrid, name)
    module_name = getattr(obj, "__module__", None)
    assert module_name is not None and module_name.startswith("nortagrid."), name
    module = importlib.import_module(module_name)
    assert name in module.__all__, f"{name} is not in {module_name}.__all__"
    assert getattr(module, name) is obj
