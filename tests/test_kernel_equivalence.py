"""The vertex-axis kernels of the Mixed Dirichlet draw and density, bit for
bit against dense references.

Each reference is the dense expression the kernel replaced: a membership
matrix by shifts, row reductions over the last axis, boolean-mask gathers
and scatters, and the log-Beta of every row.  The kernels must give the
same bytes (and draw the same random stream), so every seeded output keeps
its bytes.  Batches run over K from 2 to 63 and n in {0, 1, many}, with
concentrations down to ``SAMPLE_ALPHA_MIN`` and 1e-3 (on-face coordinates
that underflow to 0.0), and include all-vertex and all-full-face batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from mixedrv import extrinsic
from mixedrv import mixed_dirichlet as md
from mixedrv import simplex
from mixedrv.simplex import FaceBatch

seeds = st.integers(0, 2**32 - 1)
sizes = st.sampled_from([0, 1, 2, 7, 60])
FACE_KINDS = ("random", "vertices", "full", "mixed")
ALPHA_KINDS = ("min", "1e-3", "moderate", "large", "spread")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _masks(rng, n, K, kind):
    full = (1 << K) - 1
    if kind == "vertices":
        return np.left_shift(1, rng.integers(0, K, n), dtype=np.int64)
    if kind == "full":
        return np.full(n, full, dtype=np.int64)
    masks = rng.integers(1, full, n, dtype=np.int64, endpoint=True)
    if kind == "mixed":  # every kind of face in one batch
        pick = rng.integers(0, 3, n)
        masks = np.where(pick == 0, np.left_shift(1, rng.integers(0, K, n), dtype=np.int64), masks)
        masks = np.where(pick == 1, full, masks)
    return masks


def _alpha(rng, shape, kind):
    if kind == "min":
        return np.full(shape, md.SAMPLE_ALPHA_MIN)
    if kind == "1e-3":
        return np.full(shape, 1e-3)
    if kind == "moderate":
        return rng.uniform(0.5, 3.0, shape)
    if kind == "large":
        return rng.uniform(10.0, 1e3, shape)
    return np.exp(rng.uniform(np.log(md.SAMPLE_ALPHA_MIN), np.log(1e3), shape))


# ------------------------------------------------------ dense references ---

def _members_ref(masks, K):
    return ((np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(K)) & 1).astype(bool)


def _fill_ref(masks, alpha, rng):
    """The draw kernel with boolean-mask gathers and scatters."""
    K = alpha.shape[-1]
    member = _members_ref(masks, K)
    on = member & (member.sum(axis=1) > 1)[:, None]
    a = np.broadcast_to(alpha, member.shape)[on]
    g = rng.standard_gamma(a + 1.0)
    log_u = rng.random(a.size)
    np.log1p(np.negative(log_u, out=log_u), out=log_u)
    log_u /= a
    np.log(g, out=g)
    g += log_u
    log_g = np.full(member.shape, -np.inf)
    log_g[member] = 0.0
    log_g[on] = g
    log_g -= log_g.max(axis=1, keepdims=True)
    log_g -= np.log(np.exp(log_g).sum(axis=1, keepdims=True))
    return log_g


def _sparsemax_ref(z):
    z = z - z.max(axis=1, keepdims=True)
    u = np.sort(z, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    k = np.arange(1, z.shape[1] + 1)
    rho = np.sum(u * k > css - 1.0, axis=1)
    tau = (css[np.arange(len(z)), rho - 1] - 1.0) / rho
    return np.maximum(z - tau[:, None], 0.0)


def _dirichlet_log_pdf_ref(member, batch, alpha):
    """The Dirichlet term with the log-Beta of every row."""
    alpha_m = np.where(member, alpha, 0.0)
    log_beta = np.where(member, gammaln(alpha), 0.0).sum(axis=1) - gammaln(alpha_m.sum(axis=1))
    with np.errstate(divide="ignore"):
        log_y = np.log(batch.coords) if batch.log_coords is None else batch.log_coords
    log_y = np.where(member, log_y, 0.0)
    out = np.sum((alpha_m - member) * log_y, axis=1) - log_beta
    return np.where(member.sum(axis=1) > 1, out, 0.0)


def _log_density_ref(dist, batch):
    member = _members_ref(batch.masks, batch.K)
    face = np.where(member, 1.0, -1.0) @ dist.faces.w - dist.faces.log_z
    return face + _dirichlet_log_pdf_ref(member, batch, dist.alpha)


def _log_support_masks_ref(log_coords):
    finite = np.isfinite(log_coords)
    masks = finite @ (np.int64(1) << np.arange(log_coords.shape[1], dtype=np.int64))
    return np.where((finite | (log_coords == -np.inf)).all(axis=1), masks, -1)


def _batch_valid_ref(masks, coords, log_coords):
    """The validity rule of a batch drawn in log space, row by row."""
    supports = (coords > 0.0) @ (np.int64(1) << np.arange(coords.shape[1], dtype=np.int64))
    return bool((coords >= 0.0).all() and (np.abs(coords.sum(axis=1) - 1.0) <= simplex.SUM_TOL).all()
                and (_log_support_masks_ref(log_coords) == masks).all() and not (supports & ~masks).any())


# ------------------------------------------------------------------ tests ---

@settings(max_examples=80)
@given(st.integers(2, 63), sizes, st.sampled_from(FACE_KINDS), seeds)
def test_mask_members_and_vertex_counts(K, n, kind, seed):
    masks = _masks(np.random.default_rng(seed), n, K, kind)
    ref = _members_ref(masks, K)
    assert _same_bits(simplex.mask_members(masks, K), ref)
    assert _same_bits(simplex.vertex_counts(masks), ref.sum(axis=1))


@settings(max_examples=80)
@given(st.integers(2, 63), sizes, seeds)
def test_row_max(K, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 10.0, (n, K))
    x[rng.random((n, K)) < 0.3] = -np.inf
    x[rng.random((n, K)) < 0.1] = 0.0
    assert _same_bits(simplex.row_max(x), x.max(axis=1))
    x[rng.random((n, K)) < 0.2] = -0.0  # a max that is a zero of both signs may come back as either
    assert np.array_equal(simplex.row_max(x), x.max(axis=1))


@settings(max_examples=200)
@given(st.integers(2, 63), sizes, st.sampled_from(FACE_KINDS), st.sampled_from(ALPHA_KINDS),
       st.booleans(), seeds)
def test_dirichlet_log_fill(K, n, face_kind, alpha_kind, per_row, seed):
    rng = np.random.default_rng(seed)
    masks = _masks(rng, n, K, face_kind)
    alpha = _alpha(rng, (n, K) if per_row else (K,), alpha_kind)
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _same_bits(md.dirichlet_log_fill(masks, alpha, got_rng), _fill_ref(masks, alpha, ref_rng))
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state  # the same stream, consumed alike


@settings(max_examples=80)
@given(st.integers(2, 63), sizes, st.sampled_from([1.0, 1e-6, 1e6]), seeds)
def test_sparsemax_rows(K, n, scale, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, scale, (n, K))
    z[rng.random((n, K)) < 0.2] = 0.0  # ties, and zero maxima of both signs
    z[rng.random((n, K)) < 0.1] = -0.0
    z[rng.random((n, K)) < 0.1] = scale
    assert _same_bits(simplex.sparsemax_rows(z), _sparsemax_ref(z))


@settings(max_examples=40)
@given(st.integers(2, 63), sizes, st.sampled_from([0.05, 0.66, 3.0]), seeds)
def test_concrete_from_gumbels(K, n, beta, seed):
    rng = np.random.default_rng(seed)
    z, g = rng.normal(0.0, 2.0, K), -np.log(-np.log(rng.random((n, K))))
    x = (z + g) / beta
    e = np.maximum(np.exp(x - x.max(axis=-1, keepdims=True)), 1e-300)
    ref = e / e.sum(axis=-1, keepdims=True)
    assert _same_bits(extrinsic.concrete_from_gumbels(z, beta, g), ref)
    if n:  # one vector of noise gives one point
        assert _same_bits(extrinsic.concrete_from_gumbels(z, beta, g[0]), ref[0])


_CORRUPTIONS = ("none", "nan", "+inf", "finite off face", "-inf on face", "mask bit", "mask -1", "mask 0",
                "positive coord off face")


def _corrupt(rng, masks, coords, log_coords, how):
    """A copy of a valid batch that breaks one rule at one random row."""
    masks, coords, log_coords = masks.copy(), coords.copy(), log_coords.copy()
    n, K = coords.shape
    i, k = rng.integers(n), rng.integers(K)
    on = masks[i] >> k & 1
    if how == "nan":
        log_coords[i, k] = np.nan
    elif how == "+inf":
        log_coords[i, k] = np.inf
    elif how == "finite off face" and not on:
        log_coords[i, k] = -800.0
    elif how == "-inf on face" and on:
        log_coords[i, k] = -np.inf
    elif how == "mask bit":
        masks[i] ^= 1 << k
    elif how == "mask -1":
        masks[i] = -1
    elif how == "mask 0":
        masks[i] = 0
    elif how == "positive coord off face" and not on:
        coords[i, k] = 1e-300
    return masks, coords, log_coords


@settings(max_examples=300)
@given(st.integers(2, 63), st.sampled_from([1, 2, 7, 60]), st.sampled_from(FACE_KINDS),
       st.sampled_from(ALPHA_KINDS), st.sampled_from(_CORRUPTIONS), seeds)
def test_face_batch_validation(K, n, face_kind, alpha_kind, how, seed):
    rng = np.random.default_rng(seed)
    masks = _masks(rng, n, K, face_kind)
    log_coords = md.dirichlet_log_fill(masks, _alpha(rng, (K,), alpha_kind), rng)
    masks, coords, log_coords = _corrupt(rng, masks, np.exp(log_coords), log_coords, how)
    valid = _batch_valid_ref(masks, coords, log_coords)
    try:
        batch = FaceBatch(masks, coords, log_coords)
    except ValueError as e:
        assert not valid
        ref = simplex._invalid_batch(coords, masks, coords.sum(axis=1), log_coords)
        assert str(e) == str(ref)
    else:
        assert valid
        assert _same_bits(batch.log_coords, log_coords) and _same_bits(batch.masks, masks)


def test_face_batch_validation_accepts_an_empty_batch():
    empty = np.zeros((0, 5))
    assert len(FaceBatch(np.zeros(0, dtype=np.int64), empty, empty)) == 0


@settings(max_examples=200)
@given(st.integers(2, 63), sizes, st.sampled_from(FACE_KINDS), st.sampled_from(ALPHA_KINDS),
       st.booleans(), seeds)
def test_log_density_many(K, n, face_kind, alpha_kind, from_coords, seed):
    rng = np.random.default_rng(seed)
    dist = md.MixedDirichlet(rng.normal(0.0, 2.0, K), _alpha(rng, (K,), alpha_kind))
    masks = _masks(rng, n, K, face_kind)
    batch = FaceBatch.from_log_coords(masks, md.dirichlet_log_fill(masks, dist.alpha, rng))
    if from_coords and n:  # a batch without log-coordinates, its coordinates all positive on the face
        coords = np.exp(md.dirichlet_log_fill(masks, np.full(K, 2.0), rng))
        coords[simplex.vertex_counts(masks) == 1] *= 1.0 - 2.0**-42  # a vertex within SUM_TOL of 1
        batch = FaceBatch.from_coords(coords)
    full = md.FullFaceDirichlet(dist.alpha)
    member = np.broadcast_to((batch.masks == (1 << K) - 1)[:, None], batch.coords.shape)
    # near SAMPLE_ALPHA_MIN a large face's sum of (a_k - 1) log y_k can overflow to +inf, in both forms
    with np.errstate(over="ignore"):
        assert _same_bits(dist.log_density_many(batch), _log_density_ref(dist, batch))
        ref = np.where(member[:, 0], _dirichlet_log_pdf_ref(member, batch, dist.alpha), -np.inf)
        assert _same_bits(full.log_density_many(batch), ref)


@pytest.mark.parametrize("n", [1, 2, 60])
def test_face_groups_share_face_index(n):
    masks = _masks(np.random.default_rng(n), n, 6, "random")
    faces, inverse = simplex.face_index(masks)
    assert np.array_equal(faces[inverse], masks) and (np.diff(faces) > 0).all()
    groups = simplex.face_groups(masks)
    assert [m for m, _ in groups] == faces.tolist()
    for mask, rows in groups:
        assert (masks[rows] == mask).all() and (np.diff(rows) > 0).all()
    assert sorted(np.concatenate([rows for _, rows in groups]).tolist()) == list(range(n))
