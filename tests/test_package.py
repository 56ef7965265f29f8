"""The package root: it serves each library module's ``__all__``, and
nothing else, as the modules' own objects."""

import importlib
import pkgutil
from collections import Counter

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
