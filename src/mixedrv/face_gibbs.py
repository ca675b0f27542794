"""Exponential-family distribution over the nonempty faces of the simplex.

A face is a nonempty subset I of the K vertices, passed as an int64
bitmask (bit k set means vertex k is in I).  The family has one
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

from .simplex import MAX_BITMASK_K, FaceIndexSet

__all__ = [
    "GibbsFaceDistribution",
    "log_normalizer",
    "expected_suff_stats",
    "log_normalizer_and_grad",
    "face_log_prob",
    "sample_face_masks",
    "sampling_tables",
    "masks_from_uniforms",
    "sample_faces",
    "entropy",
    "kl",
    "grad_log_prob",
    "most_probable_face",
    "most_probable_vertices",
    "suff_stats",
]


def __getattr__(name):
    # benchmarks/tracer.py looks up face_gibbs.FaceLatticeDag by name; the
    # oracle module is loaded only when something asks for it
    if name == "FaceLatticeDag":
        from .oracles import FaceLatticeDag
        return FaceLatticeDag
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def log_normalizer_and_grad(w) -> tuple[np.ndarray, np.ndarray]:
    """Log-normalizer and its gradient, the expected +/-1 statistics, from
    one closed-form pass.

    The vertex-membership marginal is ``P(k in F) = p_k / P(nonempty)``; the
    expected statistic is ``2 P(k in F) - 1``.  Accepts ``w`` of shape (K,)
    or (B, K); returns arrays of shape () and (K,), or (B,) and (B, K).
    """
    log_p, log_nonempty, log_z = _closed_form(_as_w(w))
    return log_z, 2.0 * np.exp(log_p - log_nonempty[..., :1]) - 1.0


def log_normalizer(w) -> float | np.ndarray:
    """Log-normalizer of the face distribution (see ``_closed_form``).

    Accepts ``w`` of shape (K,) or (B, K); returns a scalar or (B,).
    """
    w = _as_w(w)
    log_z = _closed_form(w)[2]
    return float(log_z) if w.ndim == 1 else log_z


def _take_table(log_p: np.ndarray, log_nonempty: np.ndarray) -> np.ndarray:
    """The sampling table (see ``masks_from_uniforms``) from the closed-form
    terms over the last axis: shape (K, 3), or (B, K, 3) for B face laws."""
    p = np.exp(log_p)
    take = np.stack([np.exp(log_p - log_nonempty), p, p], axis=-1)
    # states that cannot occur yet: nothing is taken before vertex 0, and
    # "nonempty, previous not taken" needs two earlier vertices
    take[..., 0, 1:] = 0.0
    take[..., 1, 1] = 0.0
    take[..., -1, 0] = 1.0  # a face still empty at the last vertex must take it
    return take


def sampling_tables(w) -> np.ndarray:
    """Sampling tables of the face laws with potentials ``w`` (K,) or
    (B, K): shape (K, 3) or (B, K, 3), each row equal to
    ``GibbsFaceDistribution(w[i]).take_probs``."""
    log_p, log_nonempty, _ = _closed_form(_as_w(w))
    return _take_table(log_p, log_nonempty)


def expected_suff_stats(w) -> np.ndarray:
    """Gradient of the log-normalizer (see ``log_normalizer_and_grad``)."""
    return log_normalizer_and_grad(w)[1]


def _face_masks(masks, K: int) -> np.ndarray:
    """One face bitmask or an array of them, as int64, after checking that
    each is a nonempty subset of the K vertices: an integer in (0, 2^K)."""
    if K > MAX_BITMASK_K:
        raise ValueError(f"faces are int64 bitmasks, so K must be <= {MAX_BITMASK_K}, got {K}")
    m = np.asarray(masks)
    bad = m if m.dtype.kind not in "iu" else m[(m <= 0) | (m >> K != 0)]
    if bad.size:
        raise ValueError(f"mask {bad.flat[0]} is not a nonempty subset of [{K}]")
    return m.astype(np.int64)


def suff_stats(masks, K: int) -> np.ndarray:
    """The +/-1 statistic vectors of faces over K vertices: shape (K,) for
    one bitmask, (n, K) for an array of n."""
    bits = (_face_masks(masks, K)[..., None] >> np.arange(K)) & 1
    return np.where(bits == 1, 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class GibbsFaceDistribution:
    """Face distribution with log-potentials ``w``; caches filled eagerly.

    Immutable after construction, so instances are safe to share across
    threads.
    """

    w: np.ndarray
    log_z: float = field(init=False)
    expected_phi: np.ndarray = field(init=False)
    take_probs: np.ndarray = field(init=False)  # sampling table, see masks_from_uniforms

    def __init__(self, w):
        w = _as_w(np.atleast_1d(w))
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        w = w.copy()
        w.flags.writeable = False
        log_p, log_nonempty, log_z = _closed_form(w)
        phi = 2.0 * np.exp(log_p - log_nonempty[0]) - 1.0
        take = _take_table(log_p, log_nonempty)
        phi.flags.writeable = False
        take.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "log_z", float(log_z))
        object.__setattr__(self, "expected_phi", phi)
        object.__setattr__(self, "take_probs", take)

    @property
    def K(self) -> int:
        return self.w.size


def face_log_prob(d: GibbsFaceDistribution, masks) -> float | np.ndarray:
    """Log-probability of one face bitmask (a float) or of each of an array
    of them."""
    log_p = suff_stats(masks, d.K) @ d.w - d.log_z
    return float(log_p) if log_p.ndim == 0 else log_p


def masks_from_uniforms(u: np.ndarray, take: np.ndarray) -> np.ndarray:
    """Face bitmasks from (n, K) uniforms under one face law's (K, 3)
    sampling table ``take`` (its ``take_probs``, or one row of
    ``sampling_tables``) or under one table per row (n, K, 3), by ancestral
    sampling over the vertices.  Leading axes broadcast: (b, n, K) uniforms
    under (b, 1, K, 3) tables give (b, n) masks.

    Row k of ``take`` holds vertex k's probability of being taken in the
    states "still empty" (``p_k / P(some j >= k is taken)``), "nonempty,
    k-1 not taken" and "k-1 taken" (both ``p_k`` wherever they can occur).
    So the first vertex taken is the first k with ``u[:, k] < take[k, 0]``,
    and each later k is taken when ``u[:, k] < take[k, 2]``: the comparisons
    of a pass over the vertices, made for all vertices at once.
    ``take[-1, 0]`` is 1, so the empty face is never produced.
    """
    K = u.shape[-1]
    first = np.argmax(u < take[..., 0], axis=-1)[..., None]
    vertex = np.arange(K)
    taken = (vertex == first) | ((vertex > first) & (u < take[..., 2]))
    return taken @ np.left_shift(1, vertex, dtype=np.int64)


def sample_face_masks(d: GibbsFaceDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` face bitmasks (see ``masks_from_uniforms``).  Each sample
    consumes exactly K uniforms (one per vertex), so results are
    reproducible under a seeded stream regardless of the outcomes."""
    return masks_from_uniforms(rng.random((n, d.K)), d.take_probs)


def sample_faces(d: GibbsFaceDistribution, n: int, rng: np.random.Generator) -> list[FaceIndexSet]:
    """``sample_face_masks`` as a list of faces (one object per distinct face)."""
    masks = sample_face_masks(d, n, rng).tolist()
    faces = {m: FaceIndexSet(m, d.K) for m in set(masks)}
    return [faces[m] for m in masks]


def entropy(d: GibbsFaceDistribution) -> float:
    """Shannon entropy: log Z - <w, grad log Z>."""
    return d.log_z - float(d.w @ d.expected_phi)


def kl(d_p: GibbsFaceDistribution, d_q: GibbsFaceDistribution) -> float:
    """KL divergence between two members of the family (exact, O(K))."""
    if d_p.K != d_q.K:
        raise ValueError(f"dimension mismatch: {d_p.K} vs {d_q.K}")
    return d_q.log_z - d_p.log_z - float((d_q.w - d_p.w) @ d_p.expected_phi)


def grad_log_prob(d: GibbsFaceDistribution, masks) -> np.ndarray:
    """Gradient of ``face_log_prob`` in the log-potentials, phi(f) - E[phi]:
    shape (K,) for one face bitmask, (n, K) for an array of n."""
    return suff_stats(masks, d.K) - d.expected_phi


def most_probable_vertices(w) -> np.ndarray:
    """Vertex indices of the argmax face of the law with potentials ``w``,
    in O(K): all vertices with positive potential, else the best single
    vertex (lowest index on ties).  Zero potentials count as "exclude"."""
    w = np.asarray(w, dtype=float)
    positive = np.nonzero(w > 0.0)[0]
    return positive if positive.size > 0 else np.argmax(w, keepdims=True)


def most_probable_face(d: GibbsFaceDistribution) -> int:
    """Bitmask of the argmax face (see ``most_probable_vertices``)."""
    return sum(1 << k for k in most_probable_vertices(d.w).tolist())
