"""Every `lieball` module's `__all__` names only what the module defines, the
slow references live with the tests, not in the package, the analytic route
imports nothing of the algebraic one, and importing the CLI stays off the
costly standard modules."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lieball
from lieball import blattner, cli, harmonic, kostant, repdata, weyl

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


def imported_modules(name):
    """Every module the source of `lieball.<name>` imports, anywhere in it,
    with relative imports written out from `lieball`."""
    source = Path(lieball.__file__).with_name(f"{name}.py").read_text(encoding="utf-8")
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "lieball." * bool(node.level) + (node.module or "")
            found.update([base] if node.module else (base + a.name for a in node.names))
    return found


def package_imports(name):
    return {m.split(".")[1] for m in imported_modules(name) if m.startswith("lieball.")}


def test_analytic_route_imports_only_the_shared_vocabulary():
    assert package_imports("harmonic") == {"repdata"}
    assert package_imports("repdata") == set()
    assert "fractions" not in {m.split(".")[0] for m in imported_modules("harmonic")}


def test_moved_vocabulary_still_resolves_at_its_old_paths():
    # perfbench/traced.py builds kostant.KTypeParam itself
    assert kostant.KTypeParam is repdata.KTypeParam
    assert blattner.KTypeTable is repdata.KTypeTable
    assert weyl._Record is repdata._Record
    assert weyl.Root is repdata.Root


def test_verify_calls_no_inversion_set(monkeypatch):
    # length counts on integers; only the `weyl` listing prints inversion sets
    def refuse(*args, **kwargs):
        raise AssertionError("inversion_set was called on the verify path")

    monkeypatch.setattr(weyl, "inversion_set", refuse)
    weyl.length.cache_clear()
    weyl.enumerate_coset_reps.cache_clear()
    checks, ok = cli._verify_checks(6, 10, 1)
    assert ok, checks


def test_cli_import_loads_neither_dataclasses_nor_json():
    # -S keeps whatever site loads (a .pth file, say) out of the check
    src = Path(lieball.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import lieball.cli; "
        "print(sorted({'dataclasses', 'json'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
