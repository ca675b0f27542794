"""Properties of the one sampling/density contract over the parameter domain
the API accepts: each kind's own ``sample_many`` batch lies on faces of
positive probability, and ``log_density_many`` is finite on every row (and,
for Gaussian-Sparsemax, agrees with the independent oracle)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedrv import extrinsic as ex
from mixedrv import info_theory as it
from mixedrv import mixed_dirichlet as md
from mixedrv import oracles
from mixedrv.glm import CONC_MIN

ROWS = 40
seeds = st.integers(0, 2**32 - 1)


def _vectors(K, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=K, max_size=K).map(np.array)


def _concentrations(K):
    """Log-uniform in [CONC_MIN, 1e3]."""
    return _vectors(K, np.log(CONC_MIN), np.log(1e3)).map(np.exp)


def _check_own_batch(dist, seed):
    """The kind's own batch of ROWS draws, each row's density checked finite."""
    batch = dist.sample_many(ROWS, np.random.default_rng(seed))
    assert len(batch) == ROWS and batch.K == dist.K
    logs = dist.log_density_many(batch)
    assert logs.shape == (ROWS,) and np.isfinite(logs).all(), logs
    return batch


@settings(max_examples=60)
@given(st.integers(2, 63).flatmap(lambda K: st.tuples(_vectors(K, -400.0, 400.0), _concentrations(K))), seeds)
def test_mixed_dirichlet(params, seed):
    w, alpha = params
    dist = md.MixedDirichlet(w, alpha)
    batch = _check_own_batch(dist, seed)
    face_log_prob = np.where(batch.members(), 1.0, -1.0) @ dist.faces.w - dist.faces.log_z
    assert np.isfinite(face_log_prob).all() and (face_log_prob <= 1e-12).all()


@settings(max_examples=40)
@given(st.integers(2, 63).flatmap(_concentrations), seeds)
def test_full_face_dirichlet(alpha, seed):
    dist = md.FullFaceDirichlet(alpha)
    batch = _check_own_batch(dist, seed)
    assert (batch.masks == (1 << dist.K) - 1).all()


@settings(max_examples=40)
@given(st.integers(2, 63), st.integers(0, 1100), seeds)
def test_maxent(K, N, seed):
    dist = it.MaxEntMixed(K, N)
    batch = _check_own_batch(dist, seed)
    assert (dist.g[batch.members().sum(axis=1) - 1] > 0.0).all()


@settings(max_examples=40)
@given(st.integers(2, 8).flatmap(lambda K: st.tuples(_vectors(K, -30.0, 30.0),
                                                     _vectors(K, np.log(1e-2), np.log(1e2)).map(np.exp))), seeds)
def test_gaussian_sparsemax(params, seed):
    mu, sigma = params
    # every face of a Gaussian-Sparsemax has positive probability, and the
    # density of a point includes its face's mass: each row must match the
    # oracle's dense Gaussian factor plus adaptive-quadrature orthant term
    dist = ex.GaussianSparsemax(mu, sigma)
    batch = _check_own_batch(dist, seed)
    ref = np.array([oracles.gs_log_density_reference(dist, y) for y in batch.coords])
    err = np.abs(dist.log_density_many(batch) - ref)
    assert (err <= 1e-9 * np.maximum(1.0, np.abs(ref))).all(), (err.max(), mu, sigma)
