"""Intrinsic mixed distribution: Gibbs over faces, Dirichlet within each face.

A draw first picks a face from the Gibbs family (module ``face_gibbs``) and
then a point of that face from a Dirichlet whose concentrations are the
coordinates of a single length-K vector restricted to the face's vertices.
Densities are taken with respect to the direct-sum base measure: Lebesgue on
the face's free coordinates for positive-dimensional faces, counting measure
on vertices (log-density contribution 0 there).

Exact entropy and KL weight each of the 2^K - 1 faces by its probability.
A face's Dirichlet term is one formula (``_entropy_of_sums``,
``_kl_of_sums``) of sums of per-vertex terms over the face, its total
concentration a0 and its size; ``_face_sums`` forms those sums for every
face at once by subset-sum doubling, and the one-face ``dirichlet_entropy``
and ``dirichlet_kl`` sum over their one face.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import face_gibbs
from .simplex import (FaceBatch, SimplexPoint, check_same_k, check_vector, enumerate_faces, face_index, freeze,
                      mask_members, member_masks, row_max, vertex_counts)

__all__ = [
    "MixedDirichlet",
    "FullFaceDirichlet",
    "dirichlet_entropy",
    "dirichlet_kl",
    "sample_many",
    "dirichlet_log_fill",
    "draw_log_coords",
    "log_density",
    "log_density_many",
    "entropy",
    "kl_mixed",
]

#: Smallest concentration that can be sampled, about 2.04e-307: below it
#: ``log(1 - U) / a`` overflows to -inf at the largest uniform below 1.
SAMPLE_ALPHA_MIN = float(-np.log1p(-(1.0 - 2.0**-53)) / np.finfo(float).max)


def dirichlet_entropy(alpha_restricted) -> float:
    """Differential entropy of a Dirichlet, closed form (``_entropy_of_sums``
    of the one face); exactly 0 for a single component."""
    alpha = check_vector("alpha", alpha_restricted, 1, positive=True)
    return float(_entropy_of_sums(_entropy_vertex_terms(alpha).sum(axis=1), alpha.size))


def dirichlet_kl(alpha_p, alpha_q) -> float:
    """KL between Dirichlets on the same face, closed form (``_kl_of_sums``
    of the one face)."""
    ap = check_vector("alpha_p", alpha_p, 1, positive=True)
    aq = check_vector("alpha_q", alpha_q, 1, positive=True)
    check_same_k(ap.size, aq.size)
    return float(_kl_of_sums(_kl_vertex_terms(ap, aq).sum(axis=1)))


@dataclass(frozen=True, eq=False)
class MixedDirichlet:
    """Gibbs face distribution plus one concentration per vertex."""

    faces: face_gibbs.GibbsFaceDistribution
    alpha: np.ndarray

    def __init__(self, w, alpha):
        faces = face_gibbs.GibbsFaceDistribution(w)
        alpha = check_vector("alpha", alpha, positive=True)
        check_same_k(faces.K, alpha.size, "w vs alpha")
        freeze(self, faces=faces, alpha=alpha)

    @property
    def K(self) -> int:
        return self.faces.K

    # MixedDistribution capability
    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        return sample_many(self, n, rng)

    def log_density_many(self, batch: FaceBatch) -> np.ndarray:
        return log_density_many(self, batch)

    def exact_face_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Every face bitmask (``enumerate_faces`` order) and its probability:
        the weights of ``entropy`` and ``kl_mixed``."""
        return _face_weights(self)

    # called by their global names, where a run-time patch of the module's
    # ``entropy``/``kl_mixed`` also reaches them
    def direct_sum_entropy(self) -> float:
        return entropy(self)

    def direct_sum_kl(self, other: "MixedDirichlet") -> float:
        return kl_mixed(self, other)


def dirichlet_log_fill(masks: np.ndarray, alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Log-coordinates (n, K) of Dirichlet points on the faces ``masks``
    (n,), with concentrations ``alpha`` (K,) or one row per point (n, K)
    restricted to each face: finite on the face, -inf off it, 0 at vertices.

    Gammas are drawn in log space, ``log G(a) = log G(a + 1) + log(U) / a``
    (Marsaglia & Tsang 2000), so no coordinate underflows however small
    ``a`` is, and each row is normalized by a max-shifted logsumexp over
    its face.  ``rng`` makes two calls: one ``standard_gamma`` call over
    ``a + 1`` at every on-face entry of every row whose face has two or
    more vertices, in row-major order, then one ``random`` call of the same
    length, used as ``log(1 - U) / a``.  Vertices consume nothing.
    Any concentration below ``SAMPLE_ALPHA_MIN`` raises ValueError before
    anything is drawn.

    The on-face entries are one flat index into the row-major (n, K)
    arrays: it gathers their concentrations and scatters their draws.
    """
    if np.any(alpha < SAMPLE_ALPHA_MIN):
        raise ValueError(f"concentrations must be >= {SAMPLE_ALPHA_MIN!r} to be sampled, "
                         f"got {np.min(alpha):.4g}")
    member = mask_members(masks, alpha.shape[-1])
    on = np.flatnonzero(member & (vertex_counts(masks) > 1)[:, None])
    a = np.broadcast_to(alpha, member.shape).ravel()[on]
    g = rng.standard_gamma(a + 1.0)
    log_u = rng.random(a.size)
    np.log1p(np.negative(log_u, out=log_u), out=log_u)  # log(1 - U) with U in [0, 1): never -inf
    log_u /= a
    np.log(g, out=g)
    g += log_u
    log_g = np.where(member, 0.0, -np.inf)
    log_g.ravel()[on] = g
    del a, g, log_u  # free the draws before the normalization's temporaries
    log_g -= row_max(log_g)[:, None]
    log_g -= np.log(np.exp(log_g).sum(axis=1, keepdims=True))
    return log_g


def draw_log_coords(take: np.ndarray, alpha: np.ndarray, n: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Face bitmasks (n,) and log-coordinates (n, K) of n draws of the mixed
    law: faces by ``face_gibbs.masks_from_uniforms`` from n x K uniforms
    under ``take``, then points by ``dirichlet_log_fill``.

    ``take`` and ``alpha`` are one law's (K, 3) table and (K,)
    concentrations, or one law per draw: (n, K, 3) and (n, K).
    """
    masks = face_gibbs.masks_from_uniforms(rng.random((n, alpha.shape[-1])), take)
    return masks, dirichlet_log_fill(masks, alpha, rng)


def sample_many(md: MixedDirichlet, n: int, rng: np.random.Generator) -> FaceBatch:
    """n draws (``draw_log_coords``), carrying their log-coordinates;
    deterministic under a seeded stream."""
    return FaceBatch.from_log_coords(*draw_log_coords(md.faces.take_probs, md.alpha, n, rng))


def _log_beta(lgamma_sums, a0):
    """log B of each face: the sum of lgamma over its vertices' concentrations,
    less lgamma of their total ``a0``."""
    from scipy.special import gammaln

    return lgamma_sums - gammaln(a0)


def _log_beta_rows(member: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concentrations restricted to each row's face (0 off it) and their
    log multivariate Beta function."""
    from scipy.special import gammaln

    alpha_m = np.where(member, alpha, 0.0)
    return alpha_m, _log_beta(np.where(member, gammaln(alpha), 0.0).sum(axis=1), alpha_m.sum(axis=1))


def _dirichlet_log_pdf_rows(member: np.ndarray, batch: FaceBatch, alpha: np.ndarray) -> np.ndarray:
    """Dirichlet log-density of each row of ``batch`` (membership matrix
    ``member``) on its face, 0 at vertices; from the batch's log-coordinates
    when it carries them.  The restricted concentrations and log-Beta are
    computed once per distinct face and gathered to the rows."""
    faces, inverse = face_index(batch.masks)
    alpha_f, log_beta_f = _log_beta_rows(mask_members(faces, batch.K), alpha)
    with np.errstate(divide="ignore"):
        log_y = np.log(batch.coords) if batch.log_coords is None else batch.log_coords
    log_y = np.where(member, log_y, 0.0)
    out = np.sum((alpha_f[inverse] - member) * log_y, axis=1) - log_beta_f[inverse]
    return np.where(vertex_counts(batch.masks) > 1, out, 0.0)


def _entropy_vertex_terms(alpha: np.ndarray) -> np.ndarray:
    """(3, K) per-vertex terms whose sums over a face give its entropy:
    a_k, lgamma(a_k) and (a_k - 1) psi(a_k)."""
    from scipy.special import digamma, gammaln

    return np.stack([alpha, gammaln(alpha), (alpha - 1.0) * digamma(alpha)])


def _entropy_of_sums(sums: np.ndarray, sizes: np.ndarray | int) -> np.ndarray:
    """Dirichlet entropy ``log B(a) + (a0 - m) psi(a0) - sum_k (a_k - 1)
    psi(a_k)`` of faces of m = ``sizes`` vertices, from the sums of
    ``_entropy_vertex_terms`` over each face (``sums[0]`` is a0); exactly 0
    at vertices."""
    from scipy.special import digamma

    a0, lgamma_sums, psi_sums = sums
    return _log_beta(lgamma_sums, a0) + (a0 - sizes) * digamma(a0) - psi_sums


def _kl_vertex_terms(alpha_p: np.ndarray, alpha_q: np.ndarray) -> np.ndarray:
    """(5, K) per-vertex terms whose sums over a face give its KL: a_p,k,
    a_q,k, lgamma of each and (a_p,k - a_q,k) psi(a_p,k)."""
    from scipy.special import digamma, gammaln

    return np.stack([alpha_p, alpha_q, gammaln(alpha_p), gammaln(alpha_q), (alpha_p - alpha_q) * digamma(alpha_p)])


def _kl_of_sums(sums: np.ndarray) -> np.ndarray:
    """Dirichlet KL ``log B(a_q) - log B(a_p) + sum_k (a_p,k - a_q,k)
    psi(a_p,k) - (a_p,0 - a_q,0) psi(a_p,0)`` of faces, from the sums of
    ``_kl_vertex_terms`` over each face; exactly 0 where a_p = a_q."""
    from scipy.special import digamma

    a0_p, a0_q, lgamma_p, lgamma_q, psi_sums = sums
    return _log_beta(lgamma_q, a0_q) - _log_beta(lgamma_p, a0_p) + psi_sums - (a0_p - a0_q) * digamma(a0_p)


def _face_sums(terms: np.ndarray) -> np.ndarray:
    """(V, 2^K - 1) sums of the (V, K) per-vertex ``terms`` over every face,
    in ``enumerate_faces`` order.  Column m of a (V, 2^K) table is the sum
    over bitmask m: K in-place doubling steps each add vertex k to the sums
    of the faces below bit k (the subset-sum, or zeta, transform), O(V 2^K)
    additions with no (2^K, K) array.  Each face sums its vertices in
    ascending order."""
    V, K = terms.shape
    table = np.zeros((V, 1 << K))
    for k in range(K):
        np.add(table[:, :1 << k], terms[:, k, None], out=table[:, 1 << k:2 << k])
    return table[:, 1:]


def log_density_many(md: MixedDirichlet, batch: FaceBatch) -> np.ndarray:
    """Log-density of every row w.r.t. the direct-sum measure: face log-prob
    plus the Dirichlet log-density on the face (0 for vertices).  ValueError
    when the face law's log-normalizer leaves the double range: every face
    log-prob would read -inf, as if the law put no mass anywhere."""
    check_same_k(batch.K, md.K)
    if not np.isfinite(md.faces.log_z):
        raise ValueError("the face log-normalizer is not finite (a term beyond the range of a double)")
    member = batch.members()
    return face_gibbs._members_log_prob(md.faces, member) + _dirichlet_log_pdf_rows(member, batch, md.alpha)


def log_density(md: MixedDirichlet, y: SimplexPoint) -> float:
    """``log_density_many`` at a single point."""
    return float(log_density_many(md, FaceBatch.from_coords(y.coords[None]))[0])


def _face_weights(md: MixedDirichlet) -> tuple[np.ndarray, np.ndarray]:
    """Every face (``enumerate_faces`` order) and its exact probability: the
    weights of the expectations over faces."""
    masks = enumerate_faces(md.K)
    return masks, np.exp(face_gibbs.face_log_prob(md.faces, masks))


def _finite(value: float, measure: str) -> float:
    """``value``, or ValueError when it is not finite: near the bottom of the
    double range a term of the closed form leaves it.  The callers silence
    overflow and invalid operations, so this error is the only report."""
    if not np.isfinite(value):
        raise ValueError(f"the exact {measure} is not finite (a term beyond the range of a double)")
    return value


def entropy(md: MixedDirichlet) -> float:
    """Direct-sum entropy: exact face entropy plus the expected Dirichlet
    entropy over the enumerated faces, each face's from its subset sums
    (``_face_sums``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        masks, weights = _face_weights(md)
        dirichlet = _entropy_of_sums(_face_sums(_entropy_vertex_terms(md.alpha)), vertex_counts(masks))
        return _finite(face_gibbs.entropy(md.faces) + float(weights @ dirichlet), "entropy")


def kl_mixed(md_p: MixedDirichlet, md_q: MixedDirichlet) -> float:
    """Direct-sum KL: exact face KL plus the expected per-face Dirichlet KL
    under the first distribution's face law, each face's from its subset
    sums (``_face_sums``).  Never infinite: every face has positive
    probability under both distributions."""
    check_same_k(md_p.K, md_q.K)
    with np.errstate(over="ignore", invalid="ignore"):
        _, weights = _face_weights(md_p)
        dirichlet = _kl_of_sums(_face_sums(_kl_vertex_terms(md_p.alpha, md_q.alpha)))
        return _finite(face_gibbs.kl(md_p.faces, md_q.faces) + float(weights @ dirichlet), "KL")


@dataclass(frozen=True, eq=False)
class FullFaceDirichlet:
    """A plain Dirichlet viewed as a mixed distribution: all mass on the
    maximal face.  Points on any other face get -inf log-density, which is
    what makes it useful in support-mismatch KL demonstrations."""

    alpha: np.ndarray

    def __init__(self, alpha):
        alpha = check_vector("alpha", alpha, positive=True)
        freeze(self, alpha=alpha)

    @property
    def K(self) -> int:
        return self.alpha.size

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        masks = np.full(n, member_masks(np.ones(self.K, dtype=bool)))
        return FaceBatch.from_log_coords(masks, dirichlet_log_fill(masks, self.alpha, rng))

    def log_density_many(self, batch: FaceBatch) -> np.ndarray:
        """Dirichlet log-density on the maximal face, -inf on every other face."""
        check_same_k(batch.K, self.K)
        member = batch.members()
        return np.where(member.all(axis=1), _dirichlet_log_pdf_rows(member, batch, self.alpha), -np.inf)
