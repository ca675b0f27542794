import warnings

import numpy as np
import pytest
from hypothesis import settings

# hypothesis's pytest plugin imports this module (and through it libcst) in
# its report hook the first time a test fails; under ``python -W error`` a
# DeprecationWarning raised by that import ends the session with
# INTERNALERROR.  Imported here first, outside the hook, with the warning
# ignored: only the import is shielded, and no warning of mixedrv is.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: the hook imports nothing
        pass

# One fixed profile: every run, in CI or local, draws the same examples, and
# no example fails on a slow machine's timing.
settings.register_profile("mixedrv", derandomize=True, deadline=None)
settings.load_profile("mixedrv")


def _log_space_fill(masks, alpha, rng):
    """The intrinsic samplers' Dirichlet step, written out row by row.

    One ``standard_gamma`` call over ``a + 1`` at every on-face entry of
    every row whose face has two or more vertices (row-major), then one
    ``random`` call of the same length used as ``log(1 - U) / a``; each row
    normalized by a max-shifted logsumexp over its face.  Vertices draw
    nothing and get log y = 0; off the face log y = -inf.
    """
    n, K = len(masks), alpha.shape[-1]
    alpha = np.broadcast_to(alpha, (n, K))
    faces = [[k for k in range(K) if int(m) >> k & 1] for m in masks]
    shapes = np.array([alpha[i, k] for i, idx in enumerate(faces) if len(idx) > 1 for k in idx])
    g = rng.standard_gamma(shapes + 1.0)
    u = rng.random(shapes.size)
    t = np.log(g) + np.log1p(-u) / shapes
    out = np.full((n, K), -np.inf)
    j = 0
    for i, idx in enumerate(faces):
        if len(idx) == 1:
            out[i, idx[0]] = 0.0
            continue
        row = np.full(K, -np.inf)
        row[idx] = t[j:j + len(idx)]
        j += len(idx)
        row -= row.max()
        out[i] = row - np.log(np.exp(row).sum())
    return out


@pytest.fixture
def log_space_fill():
    return _log_space_fill
