"""Every `lieball` module's `__all__` names only what the module defines."""

import importlib
import pkgutil

import pytest

import lieball

# `__main__` runs the CLI when imported.
MODULES = [
    info.name for info in pkgutil.iter_modules(lieball.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lieball.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from lieball.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
