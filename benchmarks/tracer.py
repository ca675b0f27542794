"""Span recorder that times calls into mixedrv's public callables.

The tracer never edits the library: it replaces functions and methods at
run time and restores them afterwards.  A module-level function is patched
in every ``mixedrv`` module namespace that holds the same object (for
example ``mixed_dirichlet.sample_many`` is also imported by ``glm``), and a
method is patched once, on its class.  Each call records a span (name,
start, end, parent, rows) in memory; the spans are written out only when
the run ends, and a layer's self time is its span durations minus the
durations of their direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _rows_arg(index):
    """Rows = the integer positional argument at ``index`` (a batch size)."""
    return lambda args, kwargs: int(args[index])


def _rows_leading(args, kwargs):
    """Rows = length of the leading axis of a (B, K) array, 1 for a vector."""
    shape = np.shape(args[0])
    return shape[0] if len(shape) == 2 else 1


def _distinct_faces(result):
    return len({face.mask for face, _ in result})


#: (module, attribute path, span name, rows from arguments, extra counter).
#: The extra counter maps a call's result to a count summed under
#: ``<span name>.<counter name>``.
TARGETS = [
    ("mixedrv.simplex", "SimplexPoint.__post_init__", "simplex.SimplexPoint", None, None),
    ("mixedrv.simplex", "FaceIndexSet.__post_init__", "simplex.FaceIndexSet", None, None),
    ("mixedrv.simplex", "FaceIndexSet.member_array", "simplex.FaceIndexSet.member_array", None, None),
    ("mixedrv.simplex", "sparsemax", "simplex.sparsemax", None, None),
    ("mixedrv.face_gibbs", "GibbsFaceDistribution.__init__", "face_gibbs.GibbsFaceDistribution", None, None),
    ("mixedrv.face_gibbs", "FaceLatticeDag.forward", "face_gibbs.dag_pass", None, None),
    ("mixedrv.face_gibbs", "FaceLatticeDag.backward", "face_gibbs.dag_pass", None, None),
    ("mixedrv.face_gibbs", "log_normalizer", "face_gibbs.log_normalizer", _rows_leading, None),
    ("mixedrv.face_gibbs", "expected_suff_stats", "face_gibbs.expected_suff_stats", _rows_leading, None),
    ("mixedrv.face_gibbs", "sample_faces", "face_gibbs.sample_faces", _rows_arg(1), None),
    ("mixedrv.mixed_dirichlet", "sample_many", "mixed_dirichlet.sample_many", _rows_arg(1),
     ("distinct_faces", _distinct_faces)),
    ("mixedrv.mixed_dirichlet", "log_density", "mixed_dirichlet.log_density", None, None),
    ("mixedrv.mixed_dirichlet", "entropy", "mixed_dirichlet.entropy", None, None),
    ("mixedrv.mixed_dirichlet", "kl_mixed", "mixed_dirichlet.kl_mixed", None, None),
    ("mixedrv.extrinsic", "gs_sample_many", "extrinsic.gs_sample_many", _rows_arg(1), None),
    # private, but it is the batch projection every Gaussian-Sparsemax draw goes through
    ("mixedrv.extrinsic", "_sparsemax_batch", "extrinsic.sparsemax_batch", _rows_leading, None),
    ("mixedrv.extrinsic", "gs_log_density", "extrinsic.gs_log_density", None, None),
    ("mixedrv.extrinsic", "QuadratureConfig.points_weights", "extrinsic.QuadratureConfig.points_weights",
     None, None),
    ("mixedrv.info_theory", "direct_sum_entropy_mc", "info_theory.direct_sum_entropy_mc", None, None),
    ("mixedrv.info_theory", "direct_sum_kl_mc", "info_theory.direct_sum_kl_mc", None, None),
    ("mixedrv.glm", "glm_log_likelihood", "glm.glm_log_likelihood", None, None),
    ("mixedrv.glm", "glm_fit", "glm.glm_fit", None, None),
    ("mixedrv.glm", "glm_predict", "glm.glm_predict", None, None),
    ("mixedrv.glm", "make_planted_dataset", "glm.make_planted_dataset", None, None),
    ("mixedrv.distspec", "load_spec_file", "distspec.load_spec_file", None, None),
]


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, rows]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, rows: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, rows])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span recorded by the benchmark itself."""
        idx = self._open(name, 0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name, fn, rows_of, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, rows_of(args, kwargs) if rows_of else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra is not None:
                tracer.counters[f"{name}.{extra[0]}"] += extra[1](result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for module_name, path, name, rows_of, extra in TARGETS:
            module = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            if owners:
                cls = getattr(module, owners[0])
                original = cls.__dict__[attr]
                # forward and backward share one span name but stay two wrappers
                self._set(cls, attr, self._wrap(name, original, rows_of, extra))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, rows_of, extra)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "mixedrv" or mod_name.startswith("mixedrv.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, summed ``rows`` and summed ``self_s``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "rows": 0, "self_s": 0.0})
        for i, (name, start, end, _, rows) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["rows"] += rows
            t["self_s"] += (end - start) - child[i]
        return totals

    def write(self, path: str):
        """One tab-separated line per span: id, parent, root (the command
        the span belongs to), name, start, end, rows."""
        roots: list[int] = []
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\troot\tname\tstart_s\tend_s\trows\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, rows) in enumerate(self.spans):
                roots.append(i if parent < 0 else roots[parent])
                fh.write(f"{i}\t{parent}\t{roots[i]}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{rows}\n")
