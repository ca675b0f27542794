"""Intrinsic mixed distribution: Gibbs over faces, Dirichlet within each face.

A draw first picks a face from the Gibbs family (module ``face_gibbs``) and
then a point of that face from a Dirichlet whose concentrations are the
coordinates of a single length-K vector restricted to the face's vertices.
Densities are taken with respect to the direct-sum base measure: Lebesgue on
the face's free coordinates for positive-dimensional faces, counting measure
on vertices (log-density contribution 0 there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import face_gibbs
from .simplex import (FaceBatch, SimplexPoint, enumerate_faces, face_index, freeze, mask_members, member_masks,
                      row_max, vertex_counts)

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


def _check_alpha(alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValueError("concentration must be a nonempty vector")
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
        raise ValueError(f"concentrations must be finite and > 0, got {np.array2string(alpha, max_line_width=np.inf)}")
    return alpha


def dirichlet_entropy(alpha_restricted) -> float:
    """Differential entropy of a Dirichlet, closed form (one row of
    ``_dirichlet_entropy_rows``); exactly 0 for a single component."""
    alpha = _check_alpha(alpha_restricted)
    return float(_dirichlet_entropy_rows(np.ones((1, alpha.size), dtype=bool), alpha, alpha.size)[0])


def dirichlet_kl(alpha_p, alpha_q) -> float:
    """KL between Dirichlets on the same face, closed form (one row of
    ``_dirichlet_kl_rows``)."""
    ap = _check_alpha(alpha_p)
    aq = _check_alpha(alpha_q)
    if ap.shape != aq.shape:
        raise ValueError(f"dimension mismatch: {ap.shape} vs {aq.shape}")
    return float(_dirichlet_kl_rows(np.ones((1, ap.size), dtype=bool), ap, aq)[0])


@dataclass(frozen=True, eq=False)
class MixedDirichlet:
    """Gibbs face distribution plus one concentration per vertex."""

    faces: face_gibbs.GibbsFaceDistribution
    alpha: np.ndarray

    def __init__(self, w, alpha):
        faces = face_gibbs.GibbsFaceDistribution(w)
        alpha = _check_alpha(alpha)
        if alpha.size != faces.K:
            raise ValueError(f"alpha has length {alpha.size}, expected {faces.K}")
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
        masks, _, weights = _face_weights(self)
        return masks, weights

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


def _log_beta_rows(member: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concentrations restricted to each row's face (0 off it) and their
    log multivariate Beta function."""
    from scipy.special import gammaln

    alpha_m = np.where(member, alpha, 0.0)
    log_gammas = np.where(member, gammaln(alpha), 0.0).sum(axis=1)
    return alpha_m, log_gammas - gammaln(alpha_m.sum(axis=1))


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


def _dirichlet_entropy_rows(member: np.ndarray, alpha: np.ndarray, sizes: np.ndarray | int) -> np.ndarray:
    """Dirichlet entropy ``log B(a) + (a0 - m) psi(a0) - sum_k (a_k - 1)
    psi(a_k)`` of alpha restricted to each row's face of m = ``sizes``
    vertices, with ``a0 = sum a_k`` (0 at vertices)."""
    from scipy.special import digamma

    alpha_m, log_beta = _log_beta_rows(member, alpha)
    a0 = alpha_m.sum(axis=1)
    psi_terms = np.where(member, (alpha - 1.0) * digamma(alpha), 0.0).sum(axis=1)
    return log_beta + (a0 - sizes) * digamma(a0) - psi_terms


def _dirichlet_kl_rows(member: np.ndarray, alpha_p: np.ndarray, alpha_q: np.ndarray) -> np.ndarray:
    """Dirichlet KL ``log B(a_q) - log B(a_p) + sum_k (a_p,k - a_q,k)
    (psi(a_p,k) - psi(a_p,0))`` of the two concentrations restricted to
    each row's face."""
    from scipy.special import digamma

    ap, log_beta_p = _log_beta_rows(member, alpha_p)
    aq, log_beta_q = _log_beta_rows(member, alpha_q)
    psi = digamma(alpha_p) - digamma(ap.sum(axis=1))[:, None]
    return log_beta_q - log_beta_p + np.sum((ap - aq) * psi, axis=1)


def log_density_many(md: MixedDirichlet, batch: FaceBatch) -> np.ndarray:
    """Log-density of every row w.r.t. the direct-sum measure: face log-prob
    plus the Dirichlet log-density on the face (0 for vertices)."""
    if batch.K != md.K:
        raise ValueError(f"point has K={batch.K}, distribution has K={md.K}")
    face = face_gibbs.face_log_prob(md.faces, batch.masks)
    return face + _dirichlet_log_pdf_rows(batch.members(), batch, md.alpha)


def log_density(md: MixedDirichlet, y: SimplexPoint) -> float:
    """``log_density_many`` at a single point."""
    return float(log_density_many(md, FaceBatch.from_coords(y.coords[None]))[0])


def _face_weights(md: MixedDirichlet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every face (``enumerate_faces`` order), its membership matrix and its
    exact probability: the weights of the expectations over faces."""
    masks = enumerate_faces(md.K)
    return masks, mask_members(masks, md.K), np.exp(face_gibbs.face_log_prob(md.faces, masks))


def _finite(value: float, measure: str) -> float:
    """``value``, or ValueError when it is not finite: near the bottom of the
    double range a term of the closed form leaves it.  The callers silence
    overflow and invalid operations, so this error is the only report."""
    if not np.isfinite(value):
        raise ValueError(f"the exact {measure} is not finite (a term beyond the range of a double)")
    return value


def entropy(md: MixedDirichlet) -> float:
    """Direct-sum entropy: exact face entropy plus the expected Dirichlet
    entropy over the enumerated faces."""
    masks, member, weights = _face_weights(md)
    with np.errstate(over="ignore", invalid="ignore"):
        dirichlet = _dirichlet_entropy_rows(member, md.alpha, vertex_counts(masks))
        return _finite(face_gibbs.entropy(md.faces) + float(weights @ dirichlet), "entropy")


def kl_mixed(md_p: MixedDirichlet, md_q: MixedDirichlet) -> float:
    """Direct-sum KL: exact face KL plus the expected per-face Dirichlet KL
    under the first distribution's face law.  Never infinite: every face has
    positive probability under both distributions."""
    if md_p.K != md_q.K:
        raise ValueError(f"dimension mismatch: {md_p.K} vs {md_q.K}")
    _, member, weights = _face_weights(md_p)
    with np.errstate(over="ignore", invalid="ignore"):
        dirichlet = _dirichlet_kl_rows(member, md_p.alpha, md_q.alpha)
        return _finite(face_gibbs.kl(md_p.faces, md_q.faces) + float(weights @ dirichlet), "KL")


@dataclass(frozen=True, eq=False)
class FullFaceDirichlet:
    """A plain Dirichlet viewed as a mixed distribution: all mass on the
    maximal face.  Points on any other face get -inf log-density, which is
    what makes it useful in support-mismatch KL demonstrations."""

    alpha: np.ndarray

    def __init__(self, alpha):
        alpha = _check_alpha(alpha)
        if alpha.size < 2:
            raise ValueError("need K >= 2")
        freeze(self, alpha=alpha)

    @property
    def K(self) -> int:
        return self.alpha.size

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        masks = np.full(n, member_masks(np.ones(self.K, dtype=bool)))
        return FaceBatch.from_log_coords(masks, dirichlet_log_fill(masks, self.alpha, rng))

    def log_density_many(self, batch: FaceBatch) -> np.ndarray:
        """Dirichlet log-density on the maximal face, -inf on every other face."""
        if batch.K != self.K:
            raise ValueError(f"point has K={batch.K}, distribution has K={self.K}")
        member = batch.members()
        return np.where(member.all(axis=1), _dirichlet_log_pdf_rows(member, batch, self.alpha), -np.inf)
