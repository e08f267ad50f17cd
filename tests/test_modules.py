"""Every `lieball` module's `__all__` names only what the module defines, and
the `verify` path leaves the slow references to the tests."""

import importlib
import pkgutil

import pytest

import lieball
from lieball import cli, harmonic, weyl

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


def test_verify_calls_neither_the_generator_nor_the_length_oracle(monkeypatch):
    # rotation_generator works on the terms and length counts on integers;
    # the product form and the Fraction inversion set are the tests' oracles
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle was called on the verify path")

    monkeypatch.setattr(harmonic.SparsePolynomial, "variable", refuse)
    monkeypatch.setattr(weyl, "inversion_set", refuse)
    weyl.length.cache_clear()
    weyl.enumerate_coset_reps.cache_clear()
    checks, ok = cli._verify_checks(6, 10, 1)
    assert ok, checks
