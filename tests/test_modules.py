"""Every `lieball` module's `__all__` names only what the module defines, the
slow references live with the tests, not in the package, the analytic route
imports nothing of the algebraic one, importing the package or the CLI
loads no route and no command module and stays off the costly standard
modules, each subcommand loads only its own command module and the
route it runs, and only help or a usage error loads argparse."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lieball
from lieball import blattner, cli, harmonic, kostant, ktype, polynomial, repdata, weyl

# `__main__` runs the CLI when imported; `commands` is a package of one
# module per subcommand.
COMMANDS_PATH = str(Path(lieball.__file__).with_name("commands"))
MODULES = [
    info.name for info in pkgutil.iter_modules(lieball.__path__)
    if info.name not in ("__main__", "commands")
] + [f"commands.{info.name}" for info in pkgutil.iter_modules([COMMANDS_PATH])]
COMMAND_MODULES = {f"lieball.commands.{name}" for name, *_ in cli._SUBCOMMANDS}


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
    moved = [(harmonic, name) for name in (
        "monomial_exponents", "_laplacian_columns", "_block_shape", "_weight_blocks",
        "_block_columns", "_compositions", "laplacian_power")]
    moved += [(weyl, "enumerate_group"), (weyl, "is_coset_rep")]
    # the polynomials of the sampled check live in `polynomial`, off the certificate
    moved += [(harmonic, name) for name in (
        "SparsePolynomial", "laplacian", "rotation_generator", "random_homogeneous")]
    # the forward signed sum, and what it walks with
    moved += [(blattner, name) for name in ("enumerate_coset_reps", "length", "_shifted_weight")]
    assert [name for module, name in moved if hasattr(module, name)] == []
    ring = ["variable", "partial", "_check_same_ring", "__add__", "__sub__", "__neg__",
            "__mul__", "__rmul__"]
    assert [name for name in ring if hasattr(polynomial.SparsePolynomial, name)] == []
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


def nested_imports(name):
    """The line of each import in `lieball.<name>` that is not a statement of
    the module's own body: one inside a function or an `if` block."""
    tree = ast.parse(Path(lieball.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def test_euler_sum_imports_only_the_vocabulary():
    # multiplicity and ktype_table straighten their one term in blattner itself
    assert package_imports("blattner") == {"ktype"}


def test_forward_walk_imports_the_group_and_the_vocabulary():
    # at the top: no function-local import and no TYPE_CHECKING block
    assert package_imports("kostant") == {"ktype", "weyl"}
    assert nested_imports("kostant") == []


def test_group_imports_only_the_vocabulary():
    # the root triple and its writer come from ktype, not repdata
    assert package_imports("weyl") == {"ktype"}


def test_analytic_route_imports_only_the_shared_vocabulary():
    # the polynomials only inside the sampled check, never at the top
    assert package_imports("harmonic") == {"ktype", "polynomial"}
    lines = Path(harmonic.__file__).read_text(encoding="utf-8").splitlines()
    assert [lines[n - 1].strip() for n in nested_imports("harmonic")] == [
        "import random",
        "from .polynomial import laplacian, random_homogeneous, rotation_generator"]
    assert package_imports("polynomial") == set()
    assert package_imports("ktype") == set()
    assert package_imports("repdata") == {"ktype"}
    assert "fractions" not in {m.split(".")[0] for m in imported_modules("harmonic")}


def test_moved_vocabulary_still_resolves_at_its_old_paths():
    # perfbench/traced.py builds kostant.KTypeParam itself
    assert kostant.KTypeParam is repdata.KTypeParam is ktype.KTypeParam
    assert kostant.rho_c is repdata.rho_c is ktype.rho_c
    assert blattner.KTypeTable is repdata.KTypeTable is ktype.KTypeTable
    assert harmonic.weyl_dim_so2m is repdata.weyl_dim_so2m is ktype.weyl_dim_so2m
    assert repdata.is_dominant is ktype.is_dominant
    assert weyl._Record is repdata._Record is ktype._Record
    assert weyl.Root is repdata.Root is ktype.Root
    assert weyl.root_vector is repdata.root_vector is ktype.root_vector


def test_length_counts_without_inversion_set(monkeypatch):
    # length counts on integers; only the `weyl` listing prints inversion sets
    cases = [(m, repdata.KTypeParam(m, mu))
             for m in (2, 3, 5) for mu in ((0,) * m, (2, 1) + (0,) * (m - 2))]
    reps = weyl.enumerate_coset_reps(5)
    expected = [kostant.euler_character(m, pi) for m, pi in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("inversion_set was called to count a length")

    monkeypatch.setattr(weyl, "inversion_set", refuse)
    weyl.length.cache_clear()
    weyl.enumerate_coset_reps.cache_clear()
    assert weyl.enumerate_coset_reps(5) == reps
    assert [kostant.euler_character(m, pi) for m, pi in cases] == expected


def test_each_subcommand_has_a_command_module():
    assert {f"lieball.{name}" for name in MODULES if name.startswith("commands.")} \
        == COMMAND_MODULES
    for name in COMMAND_MODULES:
        assert callable(importlib.import_module(name).run)


def modules_after(statement):
    """The names in sys.modules once `statement` has run in a fresh
    interpreter; -S keeps whatever site loads (a .pth file, say) out of it."""
    src = Path(lieball.__file__).resolve().parent.parent
    code = f"import sys\nsys.path.insert(0, {str(src)!r})\n{statement}\nprint(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_neither_dataclasses_nor_json():
    assert {"dataclasses", "json"} & modules_after("import lieball.cli") == set()


def test_package_import_loads_no_submodule():
    assert [m for m in modules_after("import lieball") if m.startswith("lieball.")] == []


ROUTE_MODULES = {"lieball.weyl", "lieball.kostant", "lieball.blattner", "lieball.harmonic"}
EXACT = {"fractions", "decimal", "numbers"}  # what a Fraction or a coefficient check loads
# what argparse loads, only to print help or a usage error
PARSER = {"argparse", "gettext", "locale"}
# a well-formed run reads its flags without argparse, and only the sampled
# equivariance check of `verify` loads the polynomials
OFF = PARSER | {"lieball.polynomial"}


def run_cli(*argv):
    return f"from lieball.cli import main; main({list(argv)!r})"


@pytest.mark.parametrize("statement, command, loaded, unloaded", [
    ("import lieball.cli", None, set(),
     ROUTE_MODULES | OFF | {"lieball.ktype", "lieball.repdata", "fractions", "decimal"}),
    # the certificate alone: no Euler-sum module, no scalar arithmetic, no
    # Fraction built and no polynomial
    (run_cli("harmonic", "--m", "4", "--max-l", "16"), "harmonic",
     {"lieball.harmonic", "lieball.ktype"},
     ROUTE_MODULES - {"lieball.harmonic"} | OFF | EXACT | {"lieball.repdata"}),
    # straightening walks no group element, and every parameter is an int
    (run_cli("ktypes", "--m", "3"), "ktypes",
     {"lieball.blattner", "lieball.ktype", "lieball.repdata"},
     ROUTE_MODULES - {"lieball.blattner"} | OFF | {"fractions", "decimal"}),
    (run_cli("verify", "--m", "6", "--max-l", "10"), "verify",
     {"lieball.blattner", "lieball.harmonic", "lieball.ktype", "lieball.polynomial",
      "lieball.repdata"},
     {"lieball.weyl", "lieball.kostant"} | PARSER | EXACT),
    # the listing and its roots: no scalar arithmetic
    (run_cli("weyl", "--m", "3"), "weyl",
     {"lieball.weyl", "lieball.ktype"},
     ROUTE_MODULES - {"lieball.weyl"} | OFF | EXACT | {"lieball.repdata"}),
    (run_cli("ranges", "--m", "3"), "ranges",
     {"lieball.repdata"}, ROUTE_MODULES | OFF | EXACT),
    (run_cli("verma", "--m", "3"), "verma",
     {"lieball.repdata"}, ROUTE_MODULES | OFF | EXACT),
    # --z is a rational flag, so ehw builds a Fraction
    (run_cli("ehw", "--n", "4", "--z", "1"), "ehw",
     {"lieball.repdata", "fractions"}, ROUTE_MODULES | OFF),
], ids=["cli", "harmonic", "ktypes", "verify", "weyl", "ranges", "verma", "ehw"])
def test_each_entry_point_loads_only_what_it_runs(statement, command, loaded, unloaded):
    modules = modules_after(statement)
    assert loaded <= modules
    assert unloaded & modules == set()
    # main imports the chosen subcommand's module and no other
    assert COMMAND_MODULES & modules == ({f"lieball.commands.{command}"} if command else set())


@pytest.mark.parametrize("argv", [
    ["-h"],
    ["harmonic", "-h"],
    ["harmonic", "--m", "4", "--bogus"],  # refused while parsing
    ["harmonic", "--m", "1"],  # refused after parsing
    ["weyl", "--m", "9"],  # refused by the handler
], ids=["help", "subcommand-help", "unrecognized", "small-m", "handler"])
def test_help_and_usage_errors_load_argparse(argv):
    statement = f"import contextlib\nwith contextlib.suppress(SystemExit): {run_cli(*argv)}"
    assert {"argparse"} <= modules_after(statement)


def test_package_names_resolve_lazily():
    for name in lieball.__all__:
        value = getattr(lieball, name)
        assert value.__module__.startswith("lieball.")
        assert getattr(importlib.import_module(value.__module__), name) is value
    namespace = {}
    exec("from lieball import *", namespace)
    assert set(lieball.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="nope"):
        lieball.nope
