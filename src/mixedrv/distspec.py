"""Parsing and dispatch for distribution spec files used by the CLI.

A spec is a JSON object with a ``kind`` discriminator and explicit
parameter vectors (no broadcasting), e.g.::

    {"kind": "mixed-dirichlet", "w": [0.5, -1.0, 0.0], "alpha": [1.0, 2.0, 0.5]}

Supported kinds: ``mixed-dirichlet``, ``gaussian-sparsemax``,
``kd-hard-concrete``, ``binary-hard-concrete``, ``maxent``, ``concrete``.
An optional ``seed`` key supplies a default sampling seed (a ``--seed``
flag wins).  Unknown keys are rejected so that a spec file reproduces one
distribution unambiguously.

A kind's module is imported only when a spec of that kind is parsed or
evaluated, so loading a spec loads no other kind's module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["SpecError", "ParsedSpec", "parse_spec", "load_spec_file", "KINDS"]

KINDS = (
    "mixed-dirichlet",
    "gaussian-sparsemax",
    "kd-hard-concrete",
    "binary-hard-concrete",
    "maxent",
    "concrete",
)


class SpecError(ValueError):
    """The spec file is structurally or semantically invalid."""


def _vector(obj: dict, key: str) -> np.ndarray:
    try:
        v = np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError) as e:
        raise SpecError(f"field {key!r} must be a list of numbers") from e
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
    return float(v)


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


@dataclass
class ParsedSpec:
    kind: str
    dist: object
    K: int
    default_seed: int | None

    @property
    def supports_log_density(self) -> bool:
        return hasattr(self.dist, "log_density_many")

    def exact_entropy(self) -> float:
        """Exact direct-sum entropy, for the kinds that expose one."""
        if self.kind == "mixed-dirichlet":
            from . import mixed_dirichlet

            return mixed_dirichlet.entropy(self.dist)
        if self.kind == "maxent":
            return self.dist.direct_sum_entropy()
        if self.kind == "gaussian-sparsemax" and self.K == 2:
            from . import extrinsic

            z, s = extrinsic.gs2_params(self.dist)
            return extrinsic.gs2_entropy(z, s)
        raise SpecError(f"exact entropy is not available for kind {self.kind!r} (K={self.K})")

    def exact_kl(self, other: "ParsedSpec") -> float:
        """Exact direct-sum KL(self || other), for the pairs of kinds that
        expose one; ``inf`` where other puts no mass on a part of self's
        support."""
        if self.K != other.K:
            raise SpecError(f"dimension mismatch: {self.K} vs {other.K}")
        if self.kind == other.kind == "mixed-dirichlet":
            from . import mixed_dirichlet

            return mixed_dirichlet.kl_mixed(self.dist, other.dist)
        if self.kind == other.kind == "gaussian-sparsemax" and self.K == 2:
            from . import extrinsic

            zp, sp = extrinsic.gs2_params(self.dist)
            zq, sq = extrinsic.gs2_params(other.dist)
            return extrinsic.gs2_kl(zp, sp, zq, sq)
        if self.kind == other.kind == "maxent":
            on = self.dist.g > 0.0  # a class whose weight underflows to 0 under p adds 0
            gp, gq = self.dist.g[on], other.dist.g[on]
            if not gq.all():  # a class that p weighs and q's weight underflows to 0
                return float("inf")
            return float(np.sum(gp * (np.log(gp) - np.log(gq))))
        raise SpecError(f"exact KL is not available for kinds {self.kind!r}/{other.kind!r}")


def parse_spec(obj: dict) -> ParsedSpec:
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise SpecError(f"unknown kind {kind!r}; expected one of {list(KINDS)}")
    seed = obj.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise SpecError("field 'seed' must be a nonnegative integer")
    try:
        if kind == "mixed-dirichlet":
            from .mixed_dirichlet import MixedDirichlet

            _check_keys(obj, {"w", "alpha"})
            w = _vector(obj, "w")
            alpha = _vector(obj, "alpha")
            _check_k(obj, w.size)
            dist = MixedDirichlet(w, alpha)
            return ParsedSpec(kind, dist, dist.K, seed)
        if kind == "gaussian-sparsemax":
            from .extrinsic import GaussianSparsemax

            _check_keys(obj, {"mu", "sigma"})
            mu = _vector(obj, "mu")
            sigma = _vector(obj, "sigma")
            _check_k(obj, mu.size)
            dist = GaussianSparsemax(mu, sigma)
            return ParsedSpec(kind, dist, dist.K, seed)
        if kind == "kd-hard-concrete":
            from .extrinsic import KDHardConcrete

            _check_keys(obj, {"z", "beta", "lambda"})
            z = _vector(obj, "z")
            _check_k(obj, z.size)
            d = KDHardConcrete(z, _scalar(obj, "beta"), _scalar(obj, "lambda", 1.1))
            return ParsedSpec(kind, d, d.K, seed)
        if kind == "binary-hard-concrete":
            from .extrinsic import BinaryHardConcrete

            _check_keys(obj, {"log_alpha", "beta", "l", "r"})
            d = BinaryHardConcrete(
                _scalar(obj, "log_alpha"),
                _scalar(obj, "beta"),
                _scalar(obj, "l", -0.1),
                _scalar(obj, "r", 1.1),
            )
            return ParsedSpec(kind, d, 2, seed)
        if kind == "maxent":
            from .info_theory import MaxEntMixed

            _check_keys(obj, {"n"})
            if "k" not in obj:
                raise SpecError("maxent needs field 'k'")
            dist = MaxEntMixed(_integer(obj, "k"), _integer(obj, "n") if "n" in obj else 0)
            return ParsedSpec(kind, dist, dist.K, seed)
        if kind == "concrete":
            from .extrinsic import Concrete

            _check_keys(obj, {"z", "beta"})
            z = _vector(obj, "z")
            _check_k(obj, z.size)
            dist = Concrete(z, _scalar(obj, "beta"))
            return ParsedSpec(kind, dist, dist.K, seed)
    except SpecError:
        raise
    except (ValueError, TypeError, KeyError) as e:
        raise SpecError(f"invalid parameters for kind {kind!r}: {e}") from e
    raise AssertionError("unreachable")


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
