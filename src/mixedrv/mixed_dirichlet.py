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
import scipy

from . import face_gibbs
from .simplex import FaceBatch, ResourceLimitError, SimplexPoint, enumerate_faces, mask_members

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

#: Faces are enumerated exactly only up to this K; beyond it use MC modes.
EXACT_ENUM_MAX_K = 14

#: Smallest concentration that can be sampled, about 2.04e-307: below it
#: ``log(1 - U) / a`` overflows to -inf at the largest uniform below 1.
SAMPLE_ALPHA_MIN = float(-np.log1p(-(1.0 - 2.0**-53)) / np.finfo(float).max)


def _check_alpha(alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValueError("concentration must be a nonempty vector")
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
        raise ValueError(f"concentrations must be finite and > 0, got {alpha}")
    return alpha


def dirichlet_entropy(alpha_restricted) -> float:
    """Differential entropy of a Dirichlet, closed form.

    ``log B(a) + (a0 - m) psi(a0) - sum_k (a_k - 1) psi(a_k)`` with
    ``a0 = sum a_k`` and ``m`` the number of components.  For a single
    component (a vertex face) this is exactly 0.
    """
    alpha = _check_alpha(alpha_restricted)
    a0 = alpha.sum()
    log_beta = scipy.special.gammaln(alpha).sum() - scipy.special.gammaln(a0)
    return float(
        log_beta + (a0 - alpha.size) * scipy.special.digamma(a0) - (alpha - 1.0) @ scipy.special.digamma(alpha)
    )


def dirichlet_kl(alpha_p, alpha_q) -> float:
    """KL between Dirichlets on the same face, closed form."""
    ap = _check_alpha(alpha_p)
    aq = _check_alpha(alpha_q)
    if ap.shape != aq.shape:
        raise ValueError(f"dimension mismatch: {ap.shape} vs {aq.shape}")
    log_beta_p = scipy.special.gammaln(ap).sum() - scipy.special.gammaln(ap.sum())
    log_beta_q = scipy.special.gammaln(aq).sum() - scipy.special.gammaln(aq.sum())
    return float(log_beta_q - log_beta_p + (ap - aq) @ (scipy.special.digamma(ap) - scipy.special.digamma(ap.sum())))


@dataclass(frozen=True, eq=False)
class MixedDirichlet:
    """Gibbs face distribution plus one concentration per vertex."""

    faces: face_gibbs.GibbsFaceDistribution
    alpha: np.ndarray

    def __init__(self, w, alpha):
        faces = w if isinstance(w, face_gibbs.GibbsFaceDistribution) else face_gibbs.GibbsFaceDistribution(w)
        alpha = _check_alpha(alpha)
        if alpha.size != faces.K:
            raise ValueError(f"alpha has length {alpha.size}, expected {faces.K}")
        alpha = alpha.copy()
        alpha.flags.writeable = False
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "alpha", alpha)

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
        the exact-mode weights of ``entropy`` and ``kl_mixed``."""
        _, probs = _face_weights(self, "exact", 0, None)
        return enumerate_faces(self.K), probs


def dirichlet_log_fill(masks: np.ndarray, alpha: np.ndarray,
                       rng: np.random.Generator | list[np.random.Generator]) -> np.ndarray:
    """Log-coordinates (n, K) of Dirichlet points on the faces ``masks``
    (n,), with concentrations ``alpha`` (K,) or one row per point (n, K)
    restricted to each face: finite on the face, -inf off it, 0 at vertices.

    Gammas are drawn in log space, ``log G(a) = log G(a + 1) + log(U) / a``
    (Marsaglia & Tsang 2000), so no coordinate underflows however small
    ``a`` is, and each row is normalized by a max-shifted logsumexp over
    its face.  The stream is consumed in one block: one ``standard_gamma``
    call over ``a + 1`` at every on-face entry of every row whose face has
    two or more vertices, in row-major order, then one ``random`` call of
    the same length, used as ``log(1 - U) / a``.  Vertices consume nothing.
    Any concentration below ``SAMPLE_ALPHA_MIN`` raises ValueError before
    anything is drawn.

    ``rng`` is one generator, or a list of R distinct generators that own
    R equal runs of consecutive rows: each then makes the two calls over
    its own run's entries, exactly as a fill of that run alone would.
    """
    if np.any(alpha < SAMPLE_ALPHA_MIN):
        raise ValueError(f"concentrations must be >= {SAMPLE_ALPHA_MIN!r} to be sampled, "
                         f"got {np.min(alpha):.4g}")
    rngs = rng if isinstance(rng, list) else [rng]
    K = alpha.shape[-1]
    member = mask_members(masks, K)
    on = member & (member.sum(axis=1) > 1)[:, None]
    a = np.broadcast_to(alpha, member.shape)[on]
    g = np.empty(a.size)
    log_u = np.empty(a.size)
    ends = np.cumsum(on.reshape(len(rngs), -1).sum(axis=1)).tolist()
    for r, lo, hi in zip(rngs, [0] + ends, ends):
        g[lo:hi] = r.standard_gamma(a[lo:hi] + 1.0)
        log_u[lo:hi] = r.random(hi - lo)
    np.log1p(np.negative(log_u, out=log_u), out=log_u)  # log(1 - U) with U in [0, 1): never -inf
    log_u /= a
    np.log(g, out=g)
    g += log_u
    log_g = np.full(member.shape, -np.inf)
    log_g[member] = 0.0
    log_g[on] = g
    del a, g, log_u  # free the draws before the normalization's temporaries
    log_g -= log_g.max(axis=1, keepdims=True)
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
    alpha_m = np.where(member, alpha, 0.0)
    log_gammas = np.where(member, scipy.special.gammaln(alpha), 0.0).sum(axis=1)
    return alpha_m, log_gammas - scipy.special.gammaln(alpha_m.sum(axis=1))


def _dirichlet_log_pdf_rows(member: np.ndarray, batch: FaceBatch, alpha: np.ndarray) -> np.ndarray:
    """Dirichlet log-density of each row of ``batch`` on the face ``member``,
    0 at vertices; from the batch's log-coordinates when it carries them."""
    alpha_m, log_beta = _log_beta_rows(member, alpha)
    with np.errstate(divide="ignore"):
        log_y = np.log(batch.coords) if batch.log_coords is None else batch.log_coords
    log_y = np.where(member, log_y, 0.0)
    out = np.sum((alpha_m - member) * log_y, axis=1) - log_beta
    return np.where(member.sum(axis=1) > 1, out, 0.0)


def _dirichlet_entropy_rows(member: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``dirichlet_entropy`` of alpha restricted to each row's face (0 at vertices)."""
    alpha_m, log_beta = _log_beta_rows(member, alpha)
    a0 = alpha_m.sum(axis=1)
    psi_terms = np.where(member, (alpha - 1.0) * scipy.special.digamma(alpha), 0.0).sum(axis=1)
    return log_beta + (a0 - member.sum(axis=1)) * scipy.special.digamma(a0) - psi_terms


def _dirichlet_kl_rows(member: np.ndarray, alpha_p: np.ndarray, alpha_q: np.ndarray) -> np.ndarray:
    """``dirichlet_kl`` of the two concentrations restricted to each row's face."""
    ap, log_beta_p = _log_beta_rows(member, alpha_p)
    aq, log_beta_q = _log_beta_rows(member, alpha_q)
    psi = scipy.special.digamma(alpha_p) - scipy.special.digamma(ap.sum(axis=1))[:, None]
    return log_beta_q - log_beta_p + np.sum((ap - aq) * psi, axis=1)


def log_density_many(md: MixedDirichlet, batch: FaceBatch) -> np.ndarray:
    """Log-density of every row w.r.t. the direct-sum measure: face log-prob
    plus the Dirichlet log-density on the face (0 for vertices)."""
    if batch.K != md.K:
        raise ValueError(f"point has K={batch.K}, distribution has K={md.K}")
    member = batch.members()
    face = np.where(member, 1.0, -1.0) @ md.faces.w - md.faces.log_z
    return face + _dirichlet_log_pdf_rows(member, batch, md.alpha)


def log_density(md: MixedDirichlet, y: SimplexPoint) -> float:
    """``log_density_many`` at a single point."""
    return float(log_density_many(md, FaceBatch.from_coords(y.coords[None]))[0])


def _face_weights(md: MixedDirichlet, mode: str, n: int,
                  rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """Membership matrix of the faces an expectation over faces runs over,
    and their weights: every face with its exact probability, or the
    distinct faces of n draws with their frequencies."""
    if mode == "exact":
        if md.K > EXACT_ENUM_MAX_K:
            raise ResourceLimitError(f"exact mode needs K <= {EXACT_ENUM_MAX_K}")
        member = mask_members(np.arange(1, 1 << md.K), md.K)
        return member, np.exp(np.where(member, 1.0, -1.0) @ md.faces.w - md.faces.log_z)
    if mode == "mc":
        if rng is None:
            raise ValueError("mc mode needs an rng")
        masks, counts = np.unique(face_gibbs.sample_face_masks(md.faces, n, rng), return_counts=True)
        return mask_members(masks, md.K), counts / n
    raise ValueError(f"unknown mode {mode!r}")


def entropy(md: MixedDirichlet, mode: str = "exact", n: int = 10000,
            rng: np.random.Generator | None = None) -> float:
    """Direct-sum entropy: exact face entropy plus the expected Dirichlet
    entropy over faces (enumerated exactly, or MC over sampled faces)."""
    member, weights = _face_weights(md, mode, n, rng)
    return face_gibbs.entropy(md.faces) + float(weights @ _dirichlet_entropy_rows(member, md.alpha))


def kl_mixed(md_p: MixedDirichlet, md_q: MixedDirichlet, mode: str = "exact",
             n: int = 10000, rng: np.random.Generator | None = None) -> float:
    """Direct-sum KL: exact face KL plus the expected per-face Dirichlet KL
    under the first distribution's face law.  Never infinite: every face has
    positive probability under both distributions."""
    if md_p.K != md_q.K:
        raise ValueError(f"dimension mismatch: {md_p.K} vs {md_q.K}")
    member, weights = _face_weights(md_p, mode, n, rng)
    dirichlet = _dirichlet_kl_rows(member, md_p.alpha, md_q.alpha)
    return face_gibbs.kl(md_p.faces, md_q.faces) + float(weights @ dirichlet)


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
        alpha = alpha.copy()
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)

    @property
    def K(self) -> int:
        return self.alpha.size

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        masks = np.full(n, (1 << self.K) - 1, dtype=np.int64)
        return FaceBatch.from_log_coords(masks, dirichlet_log_fill(masks, self.alpha, rng))

    def log_density_many(self, batch: FaceBatch) -> np.ndarray:
        """Dirichlet log-density on the maximal face, -inf on every other face."""
        if batch.K != self.K:
            raise ValueError(f"point has K={batch.K}, distribution has K={self.K}")
        full = batch.masks == (1 << self.K) - 1
        member = np.broadcast_to(full[:, None], batch.coords.shape)
        return np.where(full, _dirichlet_log_pdf_rows(member, batch, self.alpha), -np.inf)
