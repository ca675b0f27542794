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
from scipy.special import digamma, gammaln

from . import face_gibbs
from .simplex import (FaceBatch, FaceIndexSet, ResourceLimitError, SimplexPoint, enumerate_faces, face_groups,
                      mask_members)

__all__ = [
    "MixedDirichlet",
    "FullFaceDirichlet",
    "dirichlet_entropy",
    "dirichlet_kl",
    "dirichlet_log_pdf",
    "sample",
    "sample_many",
    "log_density",
    "log_density_many",
    "entropy",
    "kl_mixed",
]

#: Faces are enumerated exactly only up to this K; beyond it use MC modes.
EXACT_ENUM_MAX_K = 14

#: Smallest value a Dirichlet coordinate is allowed to keep after the
#: underflow guard; draws are renormalized after clamping.
UNDERFLOW_FLOOR = 1e-300


def _check_alpha(alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValueError("concentration must be a nonempty vector")
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
        raise ValueError(f"concentrations must be finite and > 0, got {alpha}")
    return alpha


def dirichlet_log_pdf(y_restricted, alpha_restricted) -> float:
    """Dirichlet log-density at a point of the face's relative interior.

    ``y_restricted`` are the strictly positive coordinates; the density is
    w.r.t. Lebesgue measure on all but one of them (the value does not
    depend on which one is dropped).  Length-1 inputs are vertices, where
    the counting measure makes the contribution 0.
    """
    alpha = _check_alpha(alpha_restricted)
    y = np.asarray(y_restricted, dtype=float)
    if y.shape != alpha.shape:
        raise ValueError(f"shape mismatch: y {y.shape} vs alpha {alpha.shape}")
    if alpha.size == 1:
        return 0.0
    if np.any(y <= 0.0):
        raise ValueError("point has a zero coordinate inside its face")
    log_beta = gammaln(alpha).sum() - gammaln(alpha.sum())
    return float((alpha - 1.0) @ np.log(y) - log_beta)


def dirichlet_entropy(alpha_restricted) -> float:
    """Differential entropy of a Dirichlet, closed form.

    ``log B(a) + (a0 - m) psi(a0) - sum_k (a_k - 1) psi(a_k)`` with
    ``a0 = sum a_k`` and ``m`` the number of components.  For a single
    component (a vertex face) this is exactly 0.
    """
    alpha = _check_alpha(alpha_restricted)
    a0 = alpha.sum()
    log_beta = gammaln(alpha).sum() - gammaln(a0)
    return float(log_beta + (a0 - alpha.size) * digamma(a0) - (alpha - 1.0) @ digamma(alpha))


def dirichlet_kl(alpha_p, alpha_q) -> float:
    """KL between Dirichlets on the same face, closed form."""
    ap = _check_alpha(alpha_p)
    aq = _check_alpha(alpha_q)
    if ap.shape != aq.shape:
        raise ValueError(f"dimension mismatch: {ap.shape} vs {aq.shape}")
    log_beta_p = gammaln(ap).sum() - gammaln(ap.sum())
    log_beta_q = gammaln(aq).sum() - gammaln(aq.sum())
    return float(log_beta_q - log_beta_p + (ap - aq) @ (digamma(ap) - digamma(ap.sum())))


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

    def alpha_on(self, f: FaceIndexSet) -> np.ndarray:
        return self.alpha[list(f.indices)]

    # MixedDistribution capability
    def sample(self, rng: np.random.Generator):
        return sample(self, rng)

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        return sample_many(self, n, rng)

    def log_density(self, y: SimplexPoint) -> float:
        return log_density(self, y)

    def log_density_many(self, batch: FaceBatch) -> np.ndarray:
        return log_density_many(self, batch)

    def exact_face_distribution(self) -> dict[FaceIndexSet, float]:
        if self.K > EXACT_ENUM_MAX_K:
            raise ResourceLimitError(f"face enumeration needs K <= {EXACT_ENUM_MAX_K}")
        return {
            f: float(np.exp(face_gibbs.face_log_prob(self.faces, f)))
            for f in enumerate_faces(self.K)
        }


def _dirichlet_draws(alpha: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Dirichlet rows via normalized Gammas, with an exact-zero guard.

    Gamma draws with small shape can underflow to exact 0.0; such rows are
    resampled once, then any remaining zeros are clamped to a tiny floor and
    the row renormalized, so the restricted coordinates of a sampled point
    are always strictly positive.
    """
    g = rng.gamma(alpha, size=(n, alpha.size))
    bad = np.nonzero((g == 0.0).any(axis=1))[0]
    if bad.size:
        g[bad] = rng.gamma(alpha, size=(bad.size, alpha.size))
        g = np.maximum(g, UNDERFLOW_FLOOR)
    return g / g.sum(axis=1, keepdims=True)


def fill_faces(masks: np.ndarray, K: int, alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(n, K) points on the given faces, Dirichlet(alpha restricted) on each.

    Faces are visited in ``face_groups`` order (ascending mask, then
    ascending row), drawing all of a face's rows at once, so the stream is
    consumed in a fixed order.  Vertices consume no randomness.  A tiny
    (subnormal) Gamma draw can still round to zero when its row is
    normalized, which leaves that point on a smaller face; callers take the
    faces of the result from its positive coordinates.
    """
    coords = np.zeros((masks.shape[0], K))
    for mask, rows in face_groups(masks):
        idx = [i for i in range(K) if mask >> i & 1]
        if len(idx) == 1:
            coords[rows, idx[0]] = 1.0
        else:
            coords[rows[:, None], idx] = _dirichlet_draws(alpha[idx], rows.size, rng)
    return coords


def sample(md: MixedDirichlet, rng: np.random.Generator) -> tuple[FaceIndexSet, SimplexPoint]:
    """One draw: a face, then a Dirichlet point embedded in it."""
    return sample_many(md, 1, rng)[0]


def sample_many(md: MixedDirichlet, n: int, rng: np.random.Generator) -> FaceBatch:
    """n draws, with Dirichlet sampling vectorized per distinct face.

    Deterministic under a seeded stream, but consumes draws in a different
    order than repeated calls to ``sample``.  Each row's face is the support
    of its point (see ``fill_faces``).
    """
    masks = face_gibbs.sample_face_masks(md.faces, n, rng)
    return FaceBatch.from_coords(fill_faces(masks, md.K, md.alpha, rng))


def _log_beta_rows(member: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concentrations restricted to each row's face (0 off it) and their
    log multivariate Beta function."""
    alpha_m = np.where(member, alpha, 0.0)
    return alpha_m, np.where(member, gammaln(alpha), 0.0).sum(axis=1) - gammaln(alpha_m.sum(axis=1))


def _dirichlet_log_pdf_rows(member: np.ndarray, coords: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Dirichlet log-density of each row on its face (``member`` rows), 0 at vertices."""
    alpha_m, log_beta = _log_beta_rows(member, alpha)
    with np.errstate(divide="ignore"):
        log_y = np.where(member, np.log(coords), 0.0)
    out = np.sum((alpha_m - member) * log_y, axis=1) - log_beta
    return np.where(member.sum(axis=1) > 1, out, 0.0)


def _dirichlet_entropy_rows(member: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``dirichlet_entropy`` of alpha restricted to each row's face (0 at vertices)."""
    alpha_m, log_beta = _log_beta_rows(member, alpha)
    a0 = alpha_m.sum(axis=1)
    psi_terms = np.where(member, (alpha - 1.0) * digamma(alpha), 0.0).sum(axis=1)
    return log_beta + (a0 - member.sum(axis=1)) * digamma(a0) - psi_terms


def _dirichlet_kl_rows(member: np.ndarray, alpha_p: np.ndarray, alpha_q: np.ndarray) -> np.ndarray:
    """``dirichlet_kl`` of the two concentrations restricted to each row's face."""
    ap, log_beta_p = _log_beta_rows(member, alpha_p)
    aq, log_beta_q = _log_beta_rows(member, alpha_q)
    psi = digamma(alpha_p) - digamma(ap.sum(axis=1))[:, None]
    return log_beta_q - log_beta_p + np.sum((ap - aq) * psi, axis=1)


def log_density_many(md: MixedDirichlet, batch: FaceBatch) -> np.ndarray:
    """Log-density of every row w.r.t. the direct-sum measure: face log-prob
    plus the Dirichlet log-density on the face (0 for vertices)."""
    if batch.K != md.K:
        raise ValueError(f"point has K={batch.K}, distribution has K={md.K}")
    member = batch.members()
    face = np.where(member, 1.0, -1.0) @ md.faces.w - md.faces.log_z
    return face + _dirichlet_log_pdf_rows(member, batch.coords, md.alpha)


def log_density(md: MixedDirichlet, y: SimplexPoint) -> float:
    """``log_density_many`` at a single point."""
    return float(log_density_many(md, FaceBatch.from_point(y))[0])


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

    def sample(self, rng: np.random.Generator):
        return self.sample_many(1, rng)[0]

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        return FaceBatch.from_coords(_dirichlet_draws(self.alpha, n, rng))

    def log_density(self, y: SimplexPoint) -> float:
        return float(self.log_density_many(FaceBatch.from_point(y))[0])

    def log_density_many(self, batch: FaceBatch) -> np.ndarray:
        """Dirichlet log-density on the maximal face, -inf on every other face."""
        if batch.K != self.K:
            raise ValueError(f"point has K={batch.K}, distribution has K={self.K}")
        full = batch.masks == (1 << self.K) - 1
        member = np.broadcast_to(full[:, None], batch.coords.shape)
        return np.where(full, _dirichlet_log_pdf_rows(member, batch.coords, self.alpha), -np.inf)
