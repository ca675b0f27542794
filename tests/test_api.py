"""The public names: every name a module lists in ``__all__`` and every name
the package re-exports resolves, so a deleted name cannot stay listed; and
outside ``simplex`` a face is an int64 mask, not a ``FaceIndexSet``."""

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


#: The only callables outside ``simplex`` that may still name the per-point
#: face objects: the benchmark tracer patches them by name.
OBJECT_LAYER = {"FaceIndexSet", "SimplexPoint"}
OBJECT_LAYER_CALLERS = {("face_gibbs", "sample_faces"), ("mixed_dirichlet", "log_density"),
                        ("extrinsic", "gs_log_density"), ("glm", "glm_predict")}


def _object_layer_mentions(module: str) -> list[tuple[int, str]]:
    """(line, name) of each use of ``FaceIndexSet``/``SimplexPoint`` in a
    module, skipping imports and the bodies of the allowed callables."""
    tree = ast.parse((Path(mixedrv.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (module, node.name) in OBJECT_LAYER_CALLERS:
            continue
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in OBJECT_LAYER:
            found.append((node.lineno, name))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in OBJECT_LAYER:
            found.append((node.lineno, node.value))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("name", ["__init__", *(m for m in MODULES if m != "simplex")])
def test_faces_are_masks_outside_simplex(name):
    # outside simplex a face is an int64 bitmask; the object layer is named
    # only by imports, package re-exports and the callables the tracer pins
    assert _object_layer_mentions(name) == [], f"mixedrv.{name} uses the per-point face objects"
