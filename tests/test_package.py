"""The package root: it serves each library module's ``__all__``, and
nothing else, as the modules' own objects; and each public name has a
reader in the library, the CLI or the benchmark, or states a result of the
paper."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import probstirling

# every module but the command line and its entry point
MODULES = [
    importlib.import_module(f"probstirling.{info.name}")
    for info in pkgutil.iter_modules(probstirling.__path__)
    if info.name not in ("cli", "__main__")
]
PUBLIC = {name: module for module in MODULES for name in module.__all__}


def test_no_name_is_public_in_two_modules():
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_root_serves_each_module_all_as_the_same_objects(module):
    for name in module.__all__:
        assert getattr(probstirling, name) is getattr(module, name), name
    # the names a module imports or keeps private stay off the root
    for name in vars(module).keys() - PUBLIC.keys() - vars(probstirling).keys():
        if not name.startswith("__"):
            assert not hasattr(probstirling, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from probstirling import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == PUBLIC.keys()
    assert all(value is getattr(PUBLIC[name], name) for name, value in namespace.items())
    assert sorted(probstirling.__all__) == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(probstirling))


@pytest.mark.parametrize("name", ["no_such_name", "_common_denominator", "__wrapped__"])
def test_unknown_and_private_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(probstirling, name)


# public names that only the tests read: each states a result of the paper,
# and its docstring names the second route that the tests check it against
PAPER_API = {
    "cnn_alternating",
    "sy_poly",
    "whitney",
    "sy_closed_normal",
    "sy_closed_uniform",
    "sy_closed_ut",
    "appell_polynomial",
    "sum_poly",
    "series_pow",
    "classical_bernoulli_check",
}

PACKAGE = Path(probstirling.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def names_read(node: ast.AST, docstrings: set[int]) -> set[str]:
    """The names that code reads: loaded names, attributes and imports, and
    the last part of each "module.function" string, the form in which the
    benchmark's tracer looks up what it times. Docstrings are not read."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in docstrings:
            if match := re.fullmatch(r"\w+\.(\w+)", sub.value):
                out.add(match[1])
    return out


def readers() -> list[tuple[Path, str | None, set[str]]]:
    """Every top-level statement of the package and the benchmark, as its
    file, the function or class it defines, if any, and the names it reads."""
    out = []
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]:
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        out += [(path, getattr(stmt, "name", None), names_read(stmt, docstrings)) for stmt in tree.body]
    return out


def test_each_public_name_has_a_reader_or_states_a_kept_result():
    # the benchmark must be there to be read
    assert (PERFBENCH / "child.py").is_file()
    statements = readers()
    # a name's own definition does not count as a reader of it
    unread = {
        name
        for name, module in PUBLIC.items()
        if not any(
            name in read and (path, defined) != (Path(module.__file__), name)
            for path, defined, read in statements
        )
    }
    assert sorted(unread - PAPER_API) == []
    assert PAPER_API <= PUBLIC.keys()
