"""The public names: every name a module lists in ``__all__`` and every name
the package re-exports resolves, so a deleted name cannot stay listed;
every kind samples and scores through the one contract, with no option;
outside ``simplex`` a face is an int64 mask, not a ``FaceIndexSet``; every
value type is frozen by the one helper, ``simplex.freeze``, its arrays are
read-only copies and its other fields scalars, None or frozen value
types; the texts of the parameter rules are formed only in ``simplex``;
the CLI opens a file for writing in one place and prints JSON through
one strict printer; and the imports: only ``checks`` and ``oracles`` load the oracles
or SciPy at import time, the package, the CLI and the spec parser load no
kind module at import time, and no module keeps an import it does not
use."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import mixedrv

MODULES = sorted(m.name for m in pkgutil.iter_modules(mixedrv.__path__))


def _tree(module: str) -> ast.Module:
    return ast.parse((Path(mixedrv.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_and_star_import_works(name):
    module = importlib.import_module(f"mixedrv.{name}")
    for public in getattr(module, "__all__", []):
        assert hasattr(module, public), f"mixedrv.{name}.__all__ lists {public!r}, which does not exist"
    namespace: dict = {}
    exec(f"from mixedrv.{name} import *", namespace)
    assert set(getattr(module, "__all__", [])) <= set(namespace)


def test_package_names_resolve_and_are_public_in_their_module():
    reexports = mixedrv._EXPORTS.items()
    assert reexports
    assert mixedrv.__all__ == list(mixedrv._EXPORTS)
    for name, module_name in reexports:
        assert getattr(mixedrv, name) is getattr(importlib.import_module(f"mixedrv.{module_name}"), name)
        assert name in importlib.import_module(f"mixedrv.{module_name}").__all__, (module_name, name)


def _kind_classes() -> list[type]:
    from mixedrv import distspec
    from mixedrv.mixed_dirichlet import FullFaceDirichlet

    kinds = [getattr(importlib.import_module(f"mixedrv.{module}"), cls) for module, cls, *_ in distspec._KINDS.values()]
    return [*kinds, FullFaceDirichlet]


@pytest.mark.parametrize("cls", _kind_classes(), ids=lambda cls: cls.__name__)
def test_every_kind_takes_exactly_the_contract_arguments(cls):
    # sample_many(n, rng) -> FaceBatch and log_density_many(batch), with no
    # option that only a test could set
    assert list(inspect.signature(cls.sample_many).parameters) == ["self", "n", "rng"]
    if hasattr(cls, "log_density_many"):
        assert list(inspect.signature(cls.log_density_many).parameters) == ["self", "batch"]


def _value_type_cases() -> dict:
    """Per value type: a constructor from a list of the caller's arrays, and
    those arrays."""
    from mixedrv import extrinsic, face_gibbs, glm, info_theory, mixed_dirichlet, simplex

    logs = np.array([[np.log(0.25), np.log(0.75), -np.inf], [-np.inf, -np.inf, 0.0]])
    return {
        "SimplexPoint": (lambda a: simplex.SimplexPoint(*a), [np.array([0.25, 0.75])]),
        "FaceBatch": (lambda a: simplex.FaceBatch(*a), [np.array([3, 1]), np.array([[0.5, 0.5], [1.0, 0.0]])]),
        "FaceBatch-log": (lambda a: simplex.FaceBatch.from_log_coords(*a), [np.array([3, 4]), logs]),
        "GibbsFaceDistribution": (lambda a: face_gibbs.GibbsFaceDistribution(*a), [np.array([0.5, -1.0, 0.2])]),
        "MixedDirichlet": (lambda a: mixed_dirichlet.MixedDirichlet(*a),
                           [np.array([0.5, -1.0, 0.2]), np.array([1.0, 2.0, 0.5])]),
        "FullFaceDirichlet": (lambda a: mixed_dirichlet.FullFaceDirichlet(*a), [np.array([1.0, 2.0, 0.5])]),
        "GaussianSparsemax": (lambda a: extrinsic.GaussianSparsemax(*a),
                              [np.array([0.4, 0.3, 0.3]), np.array([1.0, 0.5, 2.0])]),
        "Concrete": (lambda a: extrinsic.Concrete(*a, 0.7), [np.array([0.2, -0.5, 1.0])]),
        "KDHardConcrete": (lambda a: extrinsic.KDHardConcrete(*a, 0.66, 1.1), [np.array([0.2, -0.5, 1.0])]),
        "MaxEntMixed": (lambda a: info_theory.MaxEntMixed(4, 2), []),
        "GlmModel": (lambda a: glm.GlmModel(*a), [np.arange(6.0).reshape(3, 2), np.ones(3),
                                                  -np.arange(6.0).reshape(3, 2), np.zeros(3)]),
    }


def _held_arrays(obj, prefix: str = "") -> dict[str, np.ndarray]:
    """Every array an object holds, by field name, through nested value types."""
    found = {}
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            found[prefix + name] = value
        elif dataclasses.is_dataclass(value):
            found.update(_held_arrays(value, f"{prefix}{name}."))
    return found


@pytest.mark.parametrize("case", list(_value_type_cases()))
def test_value_types_hold_read_only_copies(case):
    # a write through a field raises, and changing the caller's arrays
    # afterwards leaves the object as it was
    make, inputs = _value_type_cases()[case]
    held = _held_arrays(make(inputs))
    assert held
    before = {name: a.copy() for name, a in held.items()}
    for a in inputs:
        a += 1
    for name, a in held.items():
        np.testing.assert_array_equal(a, before[name], err_msg=name)
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def _unfrozen_fields(obj, prefix: str = "") -> list[str]:
    """The fields of a value type, through nested frozen value types, that
    hold anything but a read-only array, a scalar or None."""
    found = []
    for name, value in vars(obj).items():
        if dataclasses.is_dataclass(value) and type(value).__dataclass_params__.frozen:
            found += _unfrozen_fields(value, f"{prefix}{name}.")
        elif not (value is None or np.isscalar(value)
                  or isinstance(value, np.ndarray) and not value.flags.writeable):
            found.append(prefix + name)
    return found


@pytest.mark.parametrize("case", list(_value_type_cases()))
def test_value_types_hold_only_immutable_fields(case):
    # no cache or other mutable container rides along with the arrays
    make, inputs = _value_type_cases()[case]
    assert _unfrozen_fields(make(inputs)) == []


def test_value_type_cases_cover_every_kind_with_arrays():
    from mixedrv import distspec

    cases = {name.split("-")[0] for name in _value_type_cases()}
    for module, cls_name, *_ in distspec._KINDS.values():
        cls = getattr(importlib.import_module(f"mixedrv.{module}"), cls_name)
        holds_arrays = any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
        assert (cls_name in cases) == holds_arrays, cls_name


#: Where production code may bypass a frozen dataclass or flip an array's
#: write flag: ``simplex.freeze``, plus ``SimplexPoint._trusted`` (it wraps
#: rows of an already read-only batch, uncopied) and ``extrinsic._legendre``
#: (a cache of the quadrature rule, not a value type).
FROZEN_SETATTR = {("simplex", "freeze"): 1, ("simplex", "SimplexPoint._trusted"): 2}
WRITE_FLAG = {("simplex", "freeze"): 1, ("extrinsic", "_legendre"): 1}


def _uses(pattern) -> dict[tuple[str, str], int]:
    """Number of nodes matching ``pattern`` in each (module, enclosing
    function's qualified name) of the production modules."""
    found: dict[tuple[str, str], int] = {}
    for module in MODULES:
        stack = [(_tree(module), "")]
        while stack:
            node, scope = stack.pop()
            if pattern(node):
                found[module, scope] = found.get((module, scope), 0) + 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def test_value_types_are_frozen_only_by_the_helper():
    setattr_ = _uses(lambda n: isinstance(n, ast.Attribute) and n.attr == "__setattr__"
                     and isinstance(n.value, ast.Name) and n.value.id == "object")
    write_flag = _uses(lambda n: isinstance(n, ast.Attribute) and (
        n.attr == "setflags" or n.attr == "writeable" and isinstance(n.value, ast.Attribute)
        and n.value.attr == "flags"))
    assert setattr_ == FROZEN_SETATTR
    assert write_flag == WRITE_FLAG


#: Where production code forms the texts of the parameter rules: a value on
#: one line (the one ``max_line_width``) and the K-match "dimension mismatch".
ONE_LINE = {("simplex", "one_line"): 1}
K_MATCH = {("simplex", "check_same_k"): 1}


def test_parameter_rule_texts_are_formed_only_in_simplex():
    one_line = _uses(lambda n: isinstance(n, ast.keyword) and n.arg == "max_line_width")
    k_match = _uses(lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and n.value.startswith("dimension mismatch"))
    assert one_line == ONE_LINE
    assert k_match == K_MATCH


#: Where the package writes: the one ``--out`` writer opens a file for
#: writing, and JSON text is formed only by the one strict printer, the
#: sample-line formats and the model file of ``fit-glm``.
WRITE_OPEN = {("cli", "_write_out"): 1}
JSON_TEXT = {("cli", "_print_json"): 1, ("cli", "_sample_lines.row_formats"): 1, ("cli", "cmd_fit_glm"): 1}


def _opens_for_writing(node) -> bool:
    """Whether ``node`` calls ``open`` with a mode that is not a constant
    read-only one."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wax+")
               for m in modes)


def test_cli_emits_through_one_writer_and_one_printer():
    json_text = _uses(lambda n: isinstance(n, ast.Attribute) and n.attr in ("dump", "dumps")
                      and isinstance(n.value, ast.Name) and n.value.id == "json")
    strict = _uses(lambda n: isinstance(n, ast.keyword) and n.arg == "allow_nan")
    assert _uses(_opens_for_writing) == WRITE_OPEN
    assert json_text == JSON_TEXT
    assert strict == {("cli", "_print_json"): 1}


#: The only callables outside ``simplex`` that may still name the per-point
#: face objects: the benchmark tracer patches them by name.
OBJECT_LAYER = {"FaceIndexSet", "SimplexPoint"}
OBJECT_LAYER_CALLERS = {("face_gibbs", "sample_faces"), ("mixed_dirichlet", "log_density"),
                        ("extrinsic", "gs_log_density"), ("glm", "glm_predict")}


def _object_layer_mentions(module: str) -> list[tuple[int, str]]:
    """(line, name) of each use of ``FaceIndexSet``/``SimplexPoint`` in a
    module, skipping imports and the bodies of the allowed callables."""
    found, stack = [], [_tree(module)]
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


def _top_level_imports(module: str) -> list[ast.Import | ast.ImportFrom]:
    """The import statements a module runs at import time: those outside
    every function and class body."""
    found, stack = [], list(_tree(module).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def _imported_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """Last dotted component of each module an import statement may load:
    ``from . import a`` and ``from .a import x`` both name ``a``."""
    if isinstance(node, ast.Import):
        return {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    names = {node.module.rsplit(".", 1)[-1]} if node.module else set()
    if node.module in (None, "mixedrv"):
        names |= {alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("name", [m for m in ["__init__", *MODULES] if m not in ("checks", "oracles")])
def test_oracles_stay_off_the_production_import_path(name):
    # the references load only with the check registry, never with a command
    loaded = set().union(*map(_imported_modules, _top_level_imports(name)))
    assert not loaded & {"checks", "oracles"}, f"mixedrv.{name} imports the oracles at top level"


@pytest.mark.parametrize("name", [m for m in ["__init__", *MODULES] if m not in ("checks", "oracles")])
def test_scipy_stays_off_the_production_import_path(name):
    # a function that calls scipy.special imports it where it calls it, so a
    # command that evaluates no special function never imports scipy
    roots = {alias.name.split(".")[0] for node in _top_level_imports(name) if isinstance(node, ast.Import)
             for alias in node.names}
    roots |= {node.module.split(".")[0] for node in _top_level_imports(name)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "scipy" not in roots, f"mixedrv.{name} imports scipy at top level"


KIND_MODULES = {"extrinsic", "mixed_dirichlet", "face_gibbs", "info_theory", "glm"}


@pytest.mark.parametrize("name", ["__init__", "cli", "distspec"])
def test_kind_modules_load_only_when_used(name):
    # the package, the CLI and the spec parser import a kind's module where
    # it is used, so a command loads only the kinds it parses or runs
    loaded = set().union(*map(_imported_modules, _top_level_imports(name)))
    assert not loaded & KIND_MODULES, f"mixedrv.{name} imports {sorted(loaded & KIND_MODULES)} at top level"


def test_star_import_binds_every_package_name():
    namespace: dict = {}
    exec("from mixedrv import *", namespace)
    assert set(mixedrv._EXPORTS) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_every_top_level_import_is_used(name):
    used = {node.id for node in ast.walk(_tree(name)) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(f"mixedrv.{name}"), "__all__", []))
    bound = [(alias.asname or alias.name).split(".")[0] for node in _top_level_imports(name)
             if getattr(node, "module", None) != "__future__" for alias in node.names]
    assert [b for b in bound if b not in used] == [], f"mixedrv.{name} imports names it never uses"
