"""Every ``__all__`` in the package names what its module defines and
exports every public function and class defined there."""

import importlib
import inspect
import pkgutil

import pytest

import cmcindex

MODULES = [name for name in ["cmcindex"] + [f"cmcindex.{m.name}" for m in
                                             pkgutil.iter_modules(cmcindex.__path__)]
           if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_api(name):
    mod = importlib.import_module(name)
    listed = set(mod.__all__)
    assert len(listed) == len(mod.__all__), "duplicate names"
    missing = sorted(n for n in listed if not hasattr(mod, n))
    assert not missing, f"{name}.__all__ lists undefined {missing}"
    public = sorted(n for n, obj in vars(mod).items()
                    if not n.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == name)
    unlisted = [n for n in public if n not in listed]
    assert not unlisted, f"{name}.__all__ omits {unlisted}"
