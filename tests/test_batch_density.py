"""The array-native sampling/density contract: every kind's ``sample_many``
returns a ``FaceBatch`` and every density kind's ``log_density_many`` agrees
with one-row batches and with independent closed forms."""

import numpy as np
import pytest

from mixedrv import extrinsic as ex
from mixedrv import info_theory as it
from mixedrv import mixed_dirichlet as md
from mixedrv import oracles
from mixedrv.simplex import FaceBatch


def _density_kinds():
    rng = np.random.default_rng(300)
    return {
        "mixed-dirichlet": md.MixedDirichlet(rng.normal(0, 1, 5), rng.uniform(0.5, 3, 5)),
        "full-face-dirichlet": md.FullFaceDirichlet(rng.uniform(0.5, 3, 4)),
        "maxent": it.maxent_distribution(5, 2),
        "gs-unequal-sigma": ex.GaussianSparsemax(rng.normal(0.2, 0.6, 5), rng.uniform(0.4, 1.3, 5)),
        "gs-equal-sigma": ex.GaussianSparsemax(rng.normal(0.2, 0.6, 4), np.full(4, 0.8)),
    }


@pytest.mark.parametrize("kind", list(_density_kinds()))
def test_batch_equals_single_rows(kind):
    dist = _density_kinds()[kind]
    batch = dist.sample_many(40, np.random.default_rng(301))
    assert isinstance(batch, FaceBatch) and len(batch) == 40
    many = dist.log_density_many(batch)
    assert many.shape == (40,) and np.all(np.isfinite(many))
    singles = np.array([dist.log_density_many(FaceBatch(batch.masks[i:i + 1], batch.coords[i:i + 1]))[0]
                        for i in range(40)])
    np.testing.assert_allclose(many, singles, rtol=1e-12, atol=1e-12)


def test_full_face_dirichlet_minus_inf_off_the_maximal_face():
    dist = md.FullFaceDirichlet(np.ones(3))
    batch = FaceBatch([7, 1, 3], [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    vals = dist.log_density_many(batch)
    assert np.isfinite(vals[0]) and vals[1] == -np.inf and vals[2] == -np.inf


def test_gs_k2_batch_matches_closed_form():
    d = ex.GaussianSparsemax([0.35, 0.45], [0.9, 0.5])
    z, s = ex.gs2_params(d)
    y1 = np.concatenate([[0.0, 1.0], np.linspace(0.02, 0.98, 18)])
    batch = FaceBatch.from_coords(np.stack([y1, 1.0 - y1], axis=1))
    got = d.log_density_many(batch)
    expected = [ex.gs2_log_density_extrinsic(v, z, s) for v in y1]
    np.testing.assert_allclose(got, expected, atol=1e-8)


def test_gs_batch_pivot_invariance():
    rng = np.random.default_rng(302)
    d = ex.GaussianSparsemax(rng.normal(0.2, 0.6, 4), rng.uniform(0.3, 1.3, 4))
    batch = FaceBatch.from_coords(np.full((3, 4), 0.25))
    got = ex.gs_log_density_many(d, batch)
    for pivot in range(4):
        ref = [oracles.gs_log_density_reference(d, row, pivot=pivot) for row in batch.coords]
        np.testing.assert_allclose(got, ref, atol=1e-8)


@pytest.mark.parametrize("make", [
    lambda: md.MixedDirichlet(np.zeros(3), np.ones(3)),
    lambda: ex.GaussianSparsemax([0.1, 0.2, 0.3], [1.0, 1.0, 1.0]),
    lambda: it.maxent_distribution(3, 0),
])
def test_dimension_mismatch_rejected(make):
    with pytest.raises(ValueError, match="K="):
        make().log_density_many(FaceBatch([3], [[0.5, 0.5]]))


@pytest.mark.parametrize("dist", [
    ex.Concrete([0.2, -0.5, 1.0], 0.7),
    ex.KDHardConcrete([0.4, -0.3, 0.1], 0.66, 1.5),
    ex.BinaryHardConcrete(0.3, 0.66),
])
def test_sampling_only_kinds_return_batches(dist):
    batch = dist.sample_many(200, np.random.default_rng(303))
    assert isinstance(batch, FaceBatch) and len(batch) == 200
    for f, p in batch:
        assert p.support == f
