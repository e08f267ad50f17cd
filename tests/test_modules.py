"""Every `lieball` module's `__all__` names only what the module defines, and
the slow references live with the tests, not in the package."""

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


def test_oracles_are_not_in_the_package():
    # tests/oracles.py holds them; the package keeps one path per computation
    moved = ["monomial_exponents", "_laplacian_columns", "_block_shape", "_weight_blocks",
             "_block_columns", "_compositions"]
    assert [name for name in moved if hasattr(harmonic, name)] == []
    ring = ["variable", "partial", "_check_same_ring", "__add__", "__sub__", "__neg__",
            "__mul__", "__rmul__"]
    assert [name for name in ring if hasattr(harmonic.SparsePolynomial, name)] == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("lieball.linalg")


def test_verify_calls_no_inversion_set(monkeypatch):
    # length counts on integers; only the `weyl` listing prints inversion sets
    def refuse(*args, **kwargs):
        raise AssertionError("inversion_set was called on the verify path")

    monkeypatch.setattr(weyl, "inversion_set", refuse)
    weyl.length.cache_clear()
    weyl.enumerate_coset_reps.cache_clear()
    checks, ok = cli._verify_checks(6, 10, 1)
    assert ok, checks
