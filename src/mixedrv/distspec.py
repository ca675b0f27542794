"""Parsing and dispatch for distribution spec files used by the CLI.

A spec is a JSON object with a ``kind`` discriminator and explicit
parameter vectors (no broadcasting), e.g.::

    {"kind": "mixed-dirichlet", "w": [0.5, -1.0, 0.0], "alpha": [1.0, 2.0, 0.5]}

The kinds are declared once, in ``_KINDS``.  An optional ``seed`` key
supplies a default sampling seed (a ``--seed`` flag wins).  Unknown keys
are rejected so that a spec file reproduces one distribution
unambiguously.

A kind's module is imported only when a spec of that kind is parsed, so
loading a spec loads no other kind's module.  Exact direct-sum entropy and
KL are the ``direct_sum_entropy``/``direct_sum_kl`` methods of the kinds
that have them.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass

import numpy as np

from .simplex import check_same_k

__all__ = ["SpecError", "ParsedSpec", "parse_spec", "load_spec_file", "KINDS"]

#: kind -> (module, class, vector fields, scalar fields with their defaults,
#: None for a required one).  The class is built from the vectors, then the
#: scalars, in the order listed.  maxent's fields are integers, read apart.
_KINDS = {
    "mixed-dirichlet": ("mixed_dirichlet", "MixedDirichlet", ("w", "alpha"), {}),
    "gaussian-sparsemax": ("extrinsic", "GaussianSparsemax", ("mu", "sigma"), {}),
    "kd-hard-concrete": ("extrinsic", "KDHardConcrete", ("z",), {"beta": None, "lambda": 1.1}),
    "binary-hard-concrete": ("extrinsic", "BinaryHardConcrete", (),
                             {"log_alpha": None, "beta": None, "l": -0.1, "r": 1.1}),
    "maxent": ("info_theory", "MaxEntMixed", (), {"n": 0}),
    "concrete": ("extrinsic", "Concrete", ("z",), {"beta": None}),
}
KINDS = tuple(_KINDS)


class SpecError(ValueError):
    """The spec file is structurally or semantically invalid."""


def _vector(obj: dict, key: str) -> np.ndarray:
    """The value of ``key``: a flat JSON array of numbers, each a double (an
    integer beyond the double range is not), never a bool or a string.  A
    null entry reads as NaN, which every kind rejects."""
    v = obj[key]
    error = SpecError(f"field {key!r} must be a list of numbers")
    if isinstance(v, (bool, str)) or (isinstance(v, list) and any(isinstance(x, (bool, str)) for x in v)):
        raise error
    try:
        v = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise error from e
    if v.ndim != 1 or v.size < 1:
        raise SpecError(f"field {key!r} must be a nonempty vector")
    return v


def _scalar(obj: dict, key: str, default=None) -> float:
    if key not in obj:
        if default is None:
            raise SpecError(f"missing field {key!r}")
        return float(default)
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SpecError(f"field {key!r} must be a number")
    try:
        return float(v)
    except OverflowError as e:  # an integer beyond the double range
        raise SpecError(f"field {key!r} must be a number") from e


def _integer(obj: dict, key: str) -> int:
    """The value of ``key``: a JSON integer, never a bool or a float."""
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise SpecError(f"field {key!r} must be an integer")
    return v


def _check_keys(obj: dict, allowed: set):
    extra = set(obj) - allowed - {"kind", "seed", "k"}
    if extra:
        raise SpecError(f"unknown fields {sorted(extra)}")


def _check_k(obj: dict, K: int):
    if "k" in obj and _integer(obj, "k") != K:
        raise SpecError(f"field 'k' is {obj['k']} but parameter vectors have length {K}")


def _exact(method, *args):
    """``method(*args)``, or None where the kind has no such method or it
    raises NotImplementedError (no closed form at these parameters)."""
    if method is not None:
        try:
            return method(*args)
        except NotImplementedError:
            pass
    return None


@dataclass
class ParsedSpec:
    kind: str
    dist: object
    default_seed: int | None

    @property
    def supports_log_density(self) -> bool:
        return hasattr(self.dist, "log_density_many")

    def exact_entropy(self) -> float:
        """Exact direct-sum entropy, for the kinds whose class has a
        ``direct_sum_entropy`` method."""
        value = _exact(getattr(self.dist, "direct_sum_entropy", None))
        if value is None:
            raise SpecError(f"exact entropy is not available for kind {self.kind!r} (K={self.dist.K})")
        return value

    def exact_kl(self, other: "ParsedSpec") -> float:
        """Exact direct-sum KL(self || other), for two specs of one kind whose
        class has a ``direct_sum_kl`` method; ``inf`` where other puts no
        mass on a part of self's support."""
        check_same_k(self.dist.K, other.dist.K)
        value = None
        if self.kind == other.kind:
            value = _exact(getattr(self.dist, "direct_sum_kl", None), other.dist)
        if value is None:
            raise SpecError(f"exact KL is not available for kinds {self.kind!r}/{other.kind!r}")
        return value


def parse_spec(obj: dict) -> ParsedSpec:
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise SpecError(f"unknown kind {kind!r}; expected one of {list(KINDS)}")
    seed = obj.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise SpecError("field 'seed' must be a nonnegative integer")
    module, name, vectors, scalars = _KINDS[kind]
    try:
        cls = getattr(importlib.import_module(f".{module}", __package__), name)
        _check_keys(obj, {*vectors, *scalars})
        if kind == "maxent":  # k, the dimension, and n are integers
            if "k" not in obj:
                raise SpecError("maxent needs field 'k'")
            args = [_integer(obj, "k"), _integer(obj, "n") if "n" in obj else scalars["n"]]
        else:
            args = [_vector(obj, key) for key in vectors]
            _check_k(obj, args[0].size if args else cls.K)
            args += [_scalar(obj, key, default) for key, default in scalars.items()]
        return ParsedSpec(kind, cls(*args), seed)
    except SpecError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as e:
        raise SpecError(f"invalid parameters for kind {kind!r}: {e}") from e


def load_spec_file(path: str) -> ParsedSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read spec file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecError(f"spec file {path} is not valid JSON: {e}") from e
    except UnicodeDecodeError as e:
        raise SpecError(f"spec file {path} is not UTF-8 text: {e}") from e
    return parse_spec(obj)
