"""Exponential-family distribution over the nonempty faces of the simplex.

A face is a nonempty subset I of the K vertices.  The family has one
log-potential per vertex and sufficient statistic ``phi_k = +1`` if vertex k
is in the face, ``-1`` otherwise, so the unnormalized log-weight of face I is
``sum_{k in I} w_k - sum_{k not in I} w_k``.

The law is exactly independent Bernoulli(p_k = sigma(2 w_k)) vertices
conditioned on a nonempty face, so every quantity that naively requires a
sum over 2^K - 1 faces (the log-normalizer, vertex-membership marginals,
sampling) has an O(K) closed form, evaluated in log space.  The paper's
O(K) face-lattice DAG computes the same quantities and is kept in
``oracles`` as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# not used here; benchmarks/tracer.py looks up face_gibbs.FaceLatticeDag by name
from .oracles import FaceLatticeDag  # noqa: F401
from .simplex import FaceIndexSet

__all__ = [
    "GibbsFaceDistribution",
    "log_normalizer",
    "expected_suff_stats",
    "face_log_prob",
    "sample_face",
    "sample_face_masks",
    "sample_faces",
    "entropy",
    "kl",
    "grad_log_prob",
    "most_probable_face",
    "suff_stats",
]

def _as_w(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape[-1] < 2:
        raise ValueError("w must have length >= 2")
    if not np.all(np.isfinite(w)):
        raise ValueError("w must be finite")
    return w


def _closed_form(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The face law in closed form, over the last axis of ``w``.

    With independent Bernoulli(p_j) vertices and ``S_k = sum_{j>=k}
    softplus(2 w_j)``, returns ``log p_k = log sigma(2 w_k)``, ``log P(some
    j >= k is taken) = log(1 - exp(-S_k))`` and the log-normalizer ``log Z
    = log(prod_k 2cosh(w_k) * P(nonempty)) = -sum w + S_0 + log(1 - exp(-S_0))``.
    """
    x = 2.0 * w
    log1p_exp = np.log1p(np.exp(-np.abs(x)))
    rev = (..., slice(None, None, -1))
    s = np.cumsum((np.maximum(x, 0.0) + log1p_exp)[rev], axis=-1)[rev]
    with np.errstate(divide="ignore"):
        log_nonempty = np.log(-np.expm1(-s))
    tiny = s < 1e-280
    if tiny.any():
        # the softplus terms of very negative potentials underflow; there
        # log(1 - e^-S) = log S and log softplus(x) = x to double precision
        log_nonempty = np.where(tiny, np.logaddexp.accumulate(x[rev], axis=-1)[rev], log_nonempty)
    log_z = -np.sum(w, axis=-1) + s[..., 0] + log_nonempty[..., 0]
    return np.minimum(x, 0.0) - log1p_exp, log_nonempty, log_z


def log_normalizer(w) -> float | np.ndarray:
    """Log-normalizer of the face distribution (see ``_closed_form``).

    Accepts ``w`` of shape (K,) or (B, K); returns a scalar or (B,).
    """
    w = _as_w(w)
    log_z = _closed_form(w)[2]
    return float(log_z) if w.ndim == 1 else log_z


def expected_suff_stats(w) -> np.ndarray:
    """Gradient of the log-normalizer: expectation of the +/-1 statistics.

    The vertex-membership marginal is ``P(k in F) = p_k / P(nonempty)``; the
    expected statistic is ``2 P(k in F) - 1``.  Accepts (K,) or (B, K).
    """
    w = _as_w(w)
    log_p, log_nonempty, _ = _closed_form(w)
    return 2.0 * np.exp(log_p - log_nonempty[..., :1]) - 1.0


def suff_stats(f: FaceIndexSet) -> np.ndarray:
    """The +/-1 statistic vector of a face."""
    return np.where(f.member_array(), 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class GibbsFaceDistribution:
    """Face distribution with log-potentials ``w``; caches filled eagerly.

    Immutable after construction, so instances are safe to share across
    threads.
    """

    w: np.ndarray
    log_z: float = field(init=False)
    expected_phi: np.ndarray = field(init=False)
    take_probs: np.ndarray = field(init=False)  # sampling table, see sample_face_masks

    def __init__(self, w):
        w = _as_w(np.atleast_1d(w))
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        w = w.copy()
        w.flags.writeable = False
        log_p, log_nonempty, log_z = _closed_form(w)
        phi = 2.0 * np.exp(log_p - log_nonempty[0]) - 1.0
        p = np.exp(log_p)
        take = np.stack([np.exp(log_p - log_nonempty), p, p], axis=1)
        # states that cannot occur yet: nothing is taken before vertex 0, and
        # "nonempty, previous not taken" needs two earlier vertices
        take[0, 1:] = take[1, 1] = 0.0
        take[-1, 0] = 1.0  # a face still empty at the last vertex must take it
        phi.flags.writeable = False
        take.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "log_z", float(log_z))
        object.__setattr__(self, "expected_phi", phi)
        object.__setattr__(self, "take_probs", take)

    @property
    def K(self) -> int:
        return self.w.size


def face_log_prob(d: GibbsFaceDistribution, f: FaceIndexSet) -> float:
    """Log-probability of one face."""
    if f.K != d.K:
        raise ValueError(f"face is over K={f.K}, distribution over K={d.K}")
    return float(d.w @ suff_stats(f)) - d.log_z


def sample_face_masks(d: GibbsFaceDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` face bitmasks by ancestral sampling over the vertices.

    Vertex k is taken with probability ``p_k / P(some j >= k is taken)``
    while the face is still empty and with ``p_k`` afterwards; row k of
    ``d.take_probs`` holds these for the states "still empty", "nonempty,
    k-1 not taken" and "k-1 taken" (codes 0/1/2).  Each sample consumes
    exactly K uniforms (one per vertex), so results are reproducible under a
    seeded stream regardless of the outcomes.  A face still empty at the
    last vertex takes it with probability 1, so the empty face is never
    produced.
    """
    u = rng.random((n, d.K))
    codes = np.zeros(n, dtype=np.int64)
    masks = np.zeros(n, dtype=np.int64)
    for k in range(d.K):
        take = u[:, k] < d.take_probs[k, codes]
        masks |= take.astype(np.int64) << k
        codes = np.where(take, 2, np.minimum(codes, 1))
    return masks


def sample_faces(d: GibbsFaceDistribution, n: int, rng: np.random.Generator) -> list[FaceIndexSet]:
    """``sample_face_masks`` as a list of faces (one object per distinct face)."""
    masks = sample_face_masks(d, n, rng).tolist()
    faces = {m: FaceIndexSet(m, d.K) for m in set(masks)}
    return [faces[m] for m in masks]


def sample_face(d: GibbsFaceDistribution, rng: np.random.Generator) -> FaceIndexSet:
    """Draw one face (K uniforms consumed)."""
    return sample_faces(d, 1, rng)[0]


def entropy(d: GibbsFaceDistribution) -> float:
    """Shannon entropy: log Z - <w, grad log Z>."""
    return d.log_z - float(d.w @ d.expected_phi)


def kl(d_p: GibbsFaceDistribution, d_q: GibbsFaceDistribution) -> float:
    """KL divergence between two members of the family (exact, O(K))."""
    if d_p.K != d_q.K:
        raise ValueError(f"dimension mismatch: {d_p.K} vs {d_q.K}")
    return d_q.log_z - d_p.log_z - float((d_q.w - d_p.w) @ d_p.expected_phi)


def grad_log_prob(d: GibbsFaceDistribution, f: FaceIndexSet) -> np.ndarray:
    """Gradient of ``face_log_prob`` in the log-potentials: phi(f) - E[phi]."""
    if f.K != d.K:
        raise ValueError(f"face is over K={f.K}, distribution over K={d.K}")
    return suff_stats(f) - d.expected_phi


def most_probable_face(d: GibbsFaceDistribution) -> FaceIndexSet:
    """Argmax face in O(K): all vertices with positive potential, else the
    best single vertex (lowest index on ties).  Zero potentials count as
    "exclude"."""
    positive = np.nonzero(d.w > 0.0)[0]
    if positive.size > 0:
        return FaceIndexSet.from_indices(positive.tolist(), d.K)
    return FaceIndexSet.from_indices([int(np.argmax(d.w))], d.K)
