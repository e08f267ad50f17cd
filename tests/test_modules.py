"""Every `lieball` module's `__all__` names only what the module defines, each
name read in an annotation is bound, the slow references live with the
tests, not in the package, the analytic route imports nothing of the
algebraic one, `ktype` alone exports the K-type vocabulary, what the
benchmark reads off the package resolves, no module but the process entry
imports the CLI, importing the package or the CLI loads no route, no
handler module and none of the costly standard modules, each subcommand
loads only its own handler module and the route it runs, only help or a
usage error loads argparse, and the README's library example returns what
its comments say."""

import ast
import builtins
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lieball
from lieball import blattner, cli, harmonic, kostant, ktype, polynomial, repdata, weyl

# `__main__` runs the CLI when imported.
MODULES = [info.name for info in pkgutil.iter_modules(lieball.__path__) if info.name != "__main__"]


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
        "_block_columns", "_compositions", "laplacian_power", "Weight", "Multiset",
        "_column_rows", "_shape_kernel_dimension", "_certify")]
    # one closed form for the kernel dimension: `harmonic_dimension`
    moved += [(harmonic, name) for name in (
        "harmonic_dimension_formula", "polynomial_space_dimension")]
    moved += [(weyl, "enumerate_group"), (weyl, "is_coset_rep")]
    # the operators of the sampled check live in `polynomial`, off the certificate
    moved += [(harmonic, name) for name in (
        "laplacian", "rotation_generator", "random_homogeneous")]
    # the forward signed sum, and what it walks with
    moved += [(blattner, name) for name in ("enumerate_coset_reps", "length", "_shifted_weight")]
    assert [name for module, name in moved if hasattr(module, name)] == []
    # they are three functions on term dicts: the polynomial type and its
    # ring are `oracles.Polynomial`
    assert sorted(polynomial.__all__) == ["laplacian", "random_homogeneous", "rotation_generator"]
    assert [node.name for node in ast.walk(module_tree("polynomial"))
            if isinstance(node, ast.ClassDef)] == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("lieball.linalg")


def module_tree(name):
    """The syntax tree of `lieball.<name>`."""
    path = Path(lieball.__file__).parent.joinpath(*name.split(".")).with_suffix(".py")
    return ast.parse(path.read_text(encoding="utf-8"))


def type_checking_blocks(tree):
    """The `if TYPE_CHECKING:` statements of `tree`, run by a type checker only."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.If)
            and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"]


def imported_modules(name):
    """Every module the source of `lieball.<name>` imports at run time,
    anywhere in it but an `if TYPE_CHECKING:` block, with relative imports
    written out from `lieball`."""
    tree = module_tree(name)
    checker_only = {id(node) for block in type_checking_blocks(tree)
                    for stmt in block.body for node in ast.walk(stmt)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in checker_only:
            continue
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
    tree = module_tree(name)
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
    assert package_imports("repdata") == set()
    assert "fractions" not in {m.split(".")[0] for m in imported_modules("harmonic")}


def test_ktype_alone_exports_the_vocabulary():
    # the scalar arithmetic names a root only in its annotations
    assert [name for name in (*ktype.__all__, "_Record") if hasattr(repdata, name)] == []


def test_what_the_benchmark_reads_resolves():
    # each attribute perfbench/traced.py reads off a `lieball` module, and
    # each name it imports from one; a name that `patched` takes as a string
    # may be missing on purpose, and is not read here
    traced = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
    tree = ast.parse(traced.read_text(encoding="utf-8"))
    modules = {"lieball": lieball, "cli": cli, "lieball.cli": cli, "blattner": blattner,
               "harmonic": harmonic, "kostant": kostant, "repdata": repdata, "weyl": weyl}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    read |= {(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module in modules
             for alias in node.names}
    assert ("cli", "main") in read
    assert [f"{module}.{name}" for module, name in sorted(read)
            if not hasattr(modules[module], name)] == []


def annotation_names(tree):
    """Every name read in an annotation in `tree`; an annotation written as
    a string is parsed and read too."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= annotation_names(ast.parse(f"x: {node.value}"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return names


def top_level_names(tree):
    """Every name a statement of the module's own body binds, or an import
    in one of its `if TYPE_CHECKING:` blocks."""
    statements = list(tree.body)
    statements += [stmt for block in type_checking_blocks(tree) if block in tree.body
                   for stmt in block.body]
    names = set()
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_name_is_bound(name):
    # a type checker can resolve each annotation; a name bound under
    # TYPE_CHECKING stays unbound at run time, so nothing loads for it
    tree = module_tree(name)
    assert annotation_names(tree) - top_level_names(tree) - set(dir(builtins)) == set()


def test_type_hints_resolve_under_type_checking():
    # with the TYPE_CHECKING blocks run, typing.get_type_hints resolves every
    # function, class and method that a `lieball` module defines
    src = Path(lieball.__file__).resolve().parent.parent
    code = f"""
import importlib, inspect, sys, typing
sys.path.insert(0, {str(src)!r})
typing.TYPE_CHECKING = True
for name in {[f"lieball.{name}" for name in MODULES]!r}:
    for obj in list(vars(importlib.import_module(name)).values()):
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ == name:
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for hinted in [obj, *filter(inspect.isfunction, members)]:
                typing.get_type_hints(hinted)
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_length_counts_without_inversion_set(monkeypatch):
    # length counts on integers; only the `weyl` listing prints inversion sets
    cases = [(m, ktype.KTypeParam(m, mu))
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


def test_the_cli_is_a_leaf():
    # the handler modules, `report` and `argparser` lie below `cli`; only
    # the process entry imports it
    assert [name for name in MODULES if "lieball.cli" in imported_modules(name)] == []
    assert "lieball.cli" in imported_modules("__main__")


def modules_after(statement):
    """The names in sys.modules once `statement` has run in a fresh
    interpreter; -S keeps whatever site loads (a .pth file, say) out of it."""
    src = Path(lieball.__file__).resolve().parent.parent
    code = f"import sys\nsys.path.insert(0, {str(src)!r})\n{statement}\nprint(sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_neither_dataclasses_nor_json():
    assert {"dataclasses", "json"} & modules_after("import lieball.cli") == set()


def test_package_import_loads_no_submodule():
    assert [m for m in modules_after("import lieball") if m.startswith("lieball.")] == []


ROUTE_MODULES = {"lieball.weyl", "lieball.kostant", "lieball.blattner", "lieball.harmonic"}
EXACT = {"fractions", "decimal", "numbers"}  # what building a Fraction loads
# what argparse loads, with the module that builds its parser, only to
# print help or a usage error
PARSER = {"argparse", "gettext", "locale", "lieball.argparser"}
# the modules that hold the subcommands' handlers
HANDLERS = {"lieball.tables", "lieball.verification", "lieball.listings"}
# a well-formed run reads its flags without argparse, and only the sampled
# equivariance check of `verify` loads the polynomials
OFF = PARSER | {"lieball.polynomial"}


def run_cli(*argv):
    return f"from lieball.cli import main; main({list(argv)!r})"


@pytest.mark.parametrize("statement, loaded, unloaded, handler", [
    ("import lieball.cli", {"lieball.report"},
     ROUTE_MODULES | OFF | {"lieball.ktype", "lieball.repdata", "fractions", "decimal"}, None),
    # the certificate alone: no Euler-sum module, no scalar arithmetic, no
    # Fraction built and no polynomial
    (run_cli("harmonic", "--m", "4", "--max-l", "16"),
     {"lieball.harmonic", "lieball.ktype"},
     ROUTE_MODULES - {"lieball.harmonic"} | OFF | EXACT | {"lieball.repdata"}, "tables"),
    # straightening walks no group element, and every parameter is an int
    (run_cli("ktypes", "--m", "3"),
     {"lieball.blattner", "lieball.ktype", "lieball.repdata"},
     ROUTE_MODULES - {"lieball.blattner"} | OFF | {"fractions", "decimal"}, "tables"),
    (run_cli("verify", "--m", "6", "--max-l", "10"),
     {"lieball.blattner", "lieball.harmonic", "lieball.ktype", "lieball.polynomial",
      "lieball.repdata"},
     {"lieball.weyl", "lieball.kostant"} | PARSER | EXACT, "verification"),
    # the listing and its roots: no scalar arithmetic
    (run_cli("weyl", "--m", "3"),
     {"lieball.weyl", "lieball.ktype"},
     ROUTE_MODULES - {"lieball.weyl"} | OFF | EXACT | {"lieball.repdata"}, "listings"),
    # the witnesses' roots are written out by ktype.root_vector
    (run_cli("ranges", "--m", "3"),
     {"lieball.repdata", "lieball.ktype"}, ROUTE_MODULES | OFF | EXACT, "listings"),
    # the scalar arithmetic alone: no K-type vocabulary
    (run_cli("verma", "--m", "3"),
     {"lieball.repdata"}, ROUTE_MODULES | OFF | EXACT | {"lieball.ktype"}, "listings"),
    # --z is a rational flag, so ehw builds a Fraction
    (run_cli("ehw", "--n", "4", "--z", "1"),
     {"lieball.repdata", "fractions"}, ROUTE_MODULES | OFF | {"lieball.ktype"}, "listings"),
], ids=["cli", "harmonic", "ktypes", "verify", "weyl", "ranges", "verma", "ehw"])
def test_each_entry_point_loads_only_what_it_runs(statement, loaded, unloaded, handler):
    modules = modules_after(statement)
    assert loaded <= modules
    assert unloaded & modules == set()
    # a run compiles its own subcommand's handler module and no other
    assert HANDLERS & modules == ({f"lieball.{handler}"} if handler else set())


@pytest.mark.parametrize("argv", [
    ["-h"],
    ["harmonic", "-h"],
    ["harmonic", "--m", "4", "--bogus"],  # refused while parsing
    ["harmonic", "--m", "1"],  # refused after parsing
    ["weyl", "--m", "9"],  # refused by the handler
], ids=["help", "subcommand-help", "unrecognized", "small-m", "handler"])
def test_help_and_usage_errors_load_argparse(argv):
    statement = f"import contextlib\nwith contextlib.suppress(SystemExit): {run_cli(*argv)}"
    assert {"argparse", "lieball.argparser"} <= modules_after(statement)


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


def test_readme_library_example_returns_what_its_comments_say():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").partition("## Library\n\n```python\n")[2]
    namespace, values = {}, []
    # each statement runs once, in order; each expression's value is kept
    for node in ast.parse(block.partition("```")[0]).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    reps, constituents, mult, tables_equal, harmonic_dim, odd_harmonic_dim, weyl_dim = values
    assert [weyl.length(w) for w in reps] == [0, 1, 2, 3]
    assert [(c.charge, c.hw) for c in constituents] == [(0, (-2, -2))]
    assert (mult, tables_equal, harmonic_dim, odd_harmonic_dim, weyl_dim) == (1, True, 1386, 9, 224)
