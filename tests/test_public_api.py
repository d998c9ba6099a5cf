"""The public surface stays what the modules declare: every name in a
module's `__all__` exists, every public function or class a module defines
is in its `__all__`, and the package exports only declared names."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import gpattack

MODULES = sorted(info.name for info in pkgutil.iter_modules(gpattack.__path__))


def package_exports():
    """(module, name) for every `from .module import name` in gpattack/__init__.py."""
    tree = ast.parse(Path(gpattack.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gpattack.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_in_all(name):
    module = importlib.import_module(f"gpattack.{name}")
    defined = [
        entry
        for entry, value in vars(module).items()
        if not entry.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_package_exports_declared_names():
    exports = package_exports()
    assert exports
    for module_name, name in exports:
        module = importlib.import_module(f"gpattack.{module_name}")
        assert name in module.__all__, f"{module_name}.{name}"
        assert getattr(gpattack, name) is getattr(module, name)
