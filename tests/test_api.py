"""The public names: every name a module lists in ``__all__`` and every name
the package re-exports resolves, so a deleted name cannot stay listed."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mixedrv

MODULES = sorted(m.name for m in pkgutil.iter_modules(mixedrv.__path__))


def _reexports():
    """(module, name) of every ``from .module import name`` in the package."""
    tree = ast.parse(Path(mixedrv.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_and_star_import_works(name):
    module = importlib.import_module(f"mixedrv.{name}")
    for public in getattr(module, "__all__", []):
        assert hasattr(module, public), f"mixedrv.{name}.__all__ lists {public!r}, which does not exist"
    namespace: dict = {}
    exec(f"from mixedrv.{name} import *", namespace)
    assert set(getattr(module, "__all__", [])) <= set(namespace)


def test_package_names_resolve_and_are_public_in_their_module():
    reexports = _reexports()
    assert reexports
    for module_name, name in reexports:
        assert getattr(mixedrv, name) is getattr(importlib.import_module(f"mixedrv.{module_name}"), name)
        assert name in importlib.import_module(f"mixedrv.{module_name}").__all__, (module_name, name)
